"""Every public function or class of porodiff has a caller outside the tests.

A public module-level function or class must be named somewhere in
``src/porodiff/`` or ``perfbench/`` other than its own definition;
``__init__.py`` re-exports do not count. The check reads the files and
imports nothing, so a name that only the tests reach fails it.
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
