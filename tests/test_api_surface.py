"""Every public function or class of porodiff has a caller outside the tests,
and every private name stays in its module.

A public module-level function or class must be named somewhere in
``src/porodiff/`` or ``perfbench/`` other than its own definition;
``__init__.py`` re-exports do not count. A private (single-underscore) name
is neither imported nor read by another module of the package. The checks
read the files and import nothing, so a name that only the tests reach
fails the first.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "porodiff"


def _public_definitions():
    """(module file, name) of every public module-level def and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield path.name, node.name


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = [p for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    corpus = "\n".join(p.read_text() for p in sources)
    unused = []
    for module, name in _public_definitions():
        # the definition names it once
        if len(re.findall(rf"\b{name}\b", corpus)) < 2:
            unused.append(f"{module}:{name}")
    assert unused == []


def test_the_scan_sees_the_package():
    names = {name for _, name in _public_definitions()}
    assert {"build_unit_cell_mesh", "MacroSolver", "run_sweep"} <= names


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_reads(source):
    """The other modules' private names that ``source``, a module of the
    package, imports (``from .geometry import _x``) or reads through an
    imported module (``geometry._x``)."""
    tree = ast.parse(source)
    modules, reads = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        # a relative import or an absolute one from the package
        module = ("porodiff." if node.level else "") + (node.module or "")
        if module in ("porodiff.", "porodiff"):
            modules.update(a.asname or a.name for a in node.names)
        elif module.startswith("porodiff."):
            reads.extend(f"{node.module}.{a.name}" for a in node.names
                         if _private(a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) and \
                isinstance(node.value, ast.Name) and \
                node.value.id in modules:
            reads.append(f"{node.value.id}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_names():
    reads = [f"{path.name}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for name in _private_reads(path.read_text())]
    assert reads == []


def test_the_private_scan_sees_imports_and_reads():
    source = ("from . import fem as fem_mod\n"
              "from .geometry import (EdgeMarker, _lattice)\n"
              "x = fem_mod._factor_cache\n"
              "y = fem_mod.solve_sparse\n")
    assert _private_reads(source) == ["geometry._lattice",
                                      "fem_mod._factor_cache"]
