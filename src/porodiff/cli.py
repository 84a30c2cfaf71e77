"""Command-line front end: config-driven, reproducible runs.

Every run resolves its JSON config (defaults materialized, unknown keys
rejected) and builds the model objects of all its sections before it
writes anything; it then writes the artifacts plus a manifest.json
carrying the resolved config and its fingerprint, and uses exit codes 0
(ok), 2 (config), 3 (solver), 4 (budget) so sweeps stay scriptable. A
config or budget error leaves no output directory. Reruns of a manifest are
byte-identical; --threads parallelizes independent runs without touching
numerical results.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import __version__
from . import cell as cell_mod
from . import convergence as conv_mod
from . import fem
from . import geometry as geo
from . import kinetics as kin_mod
from . import macro as macro_mod
from . import micro as micro_mod
from .errors import (ConfigError, InvalidGeometryError, MeshFailureError,
                     PorodiffError, ResourceLimitError, TableRangeError,
                     UnknownNameError, UnsupportedDimensionError)
from .trajectory import step_count

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BUDGET = 4


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

# section -> key -> (declared type, default); the top-level keys that are
# not sections map to one (type, default) pair. A value must have its
# declared type as given: an int passes for a float, a float must be finite,
# a bool is no number, null passes for a null default, ``object`` takes any.
_SCHEMA = {
    "geometry": {
        "inclusion": (dict, {"shape": "disc", "center": [0.5, 0.5],
                             "radius": 0.25}),
    },
    "domain": {"rectangles": (list, [[0.0, 0.0, 1.0, 1.0]])},
    "coefficients": {"d1": (object, 1.0), "d2": (object, 1.0),
                     "d3": (object, 1.0)},
    "kinetics": (str, "zero"),
    "cell": {
        "h": (float, 0.05),
        "s_grid": (list, [0.0, 0.5, 1.0, 2.0]),
        "lambda_macro": (float, 2.0),
        "exchange_values": (list, [0.0, 0.5, 1.0, 10.0]),
    },
    "macro": {
        "h": (float, 0.0625),
        "dt": (float, 1e-3),
        "t_end": (float, 0.05),
        "theta": (float, 1.0),
        "positivity": (str, "monitor"),
        "initial": (dict, {}),
        "forced_b": (object, None),
        "forced_d0": (object, None),
        "variant": (bool, False),
    },
    "micro": {
        "epsilon": (float, 0.25),
        "h_cell": (float, None),
        "dt": (float, 1e-3),
        "t_end": (float, 0.05),
        "scaling": (str, "fast_exchange"),
        "positivity": (str, "monitor"),
        "initial": (dict, {}),
    },
    "sweep": {
        "epsilons": (list, [0.25, 0.125, 0.0625]),
        "dt": (float, 1e-3),
        "t_end": (float, 0.1),
        "macro_h": (float, 0.03125),
        "scaling": (str, "fast_exchange"),
        "snapshot_every": (int, 2),
        "initial": (dict, {}),
    },
    "output": {"snapshot_fields": (bool, False)},
}

# list keys whose every entry must be a number
_NUMBER_LISTS = ("epsilons", "s_grid", "exchange_values")

_DEFAULT_INITIAL = {
    "c1": {"kind": "bump", "amplitude": 1.0},
    "c2": {"kind": "bump", "amplitude": 1.0},
    "c3": {"kind": "bump", "amplitude": 1.0},
}

_COMMAND_SECTIONS = {
    "validate": ("geometry", "kinetics"),
    "mesh": ("geometry", "cell"),
    "cell-tensor": ("geometry", "coefficients", "cell"),
    "btable": ("geometry", "coefficients", "cell", "kinetics"),
    "macro": ("geometry", "domain", "coefficients", "cell", "kinetics",
              "macro", "output"),
    "micro": ("geometry", "domain", "coefficients", "kinetics", "micro",
              "output"),
    "sweep": ("geometry", "domain", "coefficients", "cell", "kinetics",
              "sweep"),
    "tensor-suite": ("geometry", "coefficients", "cell"),
}


def _check_keys(mapping, allowed, path):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown config key {path}{key!r}")


def _finite_number(value):  # NaN, Infinity and ints past floats fail
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _check_type(value, spec, path):
    """ConfigError unless ``value`` has the declared type of ``spec``, a
    (type, default) pair of ``_SCHEMA``."""
    kind, default = spec
    if kind is object or (value is None and default is None):
        return
    if isinstance(value, bool):  # a bool is an int to isinstance
        ok = kind is bool
    elif kind is float:  # json reads NaN and Infinity as floats
        ok = _finite_number(value)
    else:
        ok = isinstance(value, kind)
    if not ok:
        name = "finite float" if kind is float else kind.__name__
        raise ConfigError(
            f"config key {path!r} must be of type {name}, got {value!r}")


def resolve_config(raw, command):
    """Validate against the schema and materialize all defaults.

    Values are checked, never coerced, so a resolved config resolves to
    itself.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    sections = _COMMAND_SECTIONS[command]
    _check_keys(raw, sections, "")
    resolved = {}
    for section in sections:
        spec = _SCHEMA[section]
        if isinstance(spec, dict):
            value = raw.get(section, {})
            if not isinstance(value, dict):
                raise ConfigError(f"section {section!r} must be an object")
            _check_keys(value, spec, f"{section}.")
            for key, item in value.items():
                _check_type(item, spec[key], f"{section}.{key}")
                if key in _NUMBER_LISTS:
                    for k, entry in enumerate(item):
                        _check_type(entry, (float, 0.0),
                                    f"{section}.{key}[{k}]")
            merged = json.loads(json.dumps(
                {key: default for key, (_, default) in spec.items()}))
            merged.update(value)
            if "initial" in merged:
                init = dict(_DEFAULT_INITIAL)
                for fname, fval in merged["initial"].items():
                    if fname not in ("c1", "c2", "c3"):
                        raise ConfigError(
                            f"unknown initial field {section}.initial.{fname!r}")
                    if not isinstance(fval, dict) or \
                            set(fval) - {"kind", "amplitude"}:
                        raise ConfigError(
                            f"initial data {fname!r} must set kind/amplitude")
                    _check_type(fval.get("amplitude", 1.0), (float, 1.0),
                                f"{section}.initial.{fname}.amplitude")
                    init[fname] = {"kind": fval.get("kind", "bump"),
                                   "amplitude": float(fval.get("amplitude", 1.0))}
                merged["initial"] = init
            resolved[section] = merged
        else:
            value = raw.get(section, spec[1])
            _check_type(value, spec, section)
            resolved[section] = value
    return resolved


def _initial_closure(spec):
    kind = spec["kind"]
    amp = spec["amplitude"]
    if kind == "zero":
        return lambda x, y: np.zeros_like(np.asarray(x, float))
    if kind == "constant":
        return lambda x, y: np.full_like(np.asarray(x, float), amp)
    if kind == "bump":
        return lambda x, y: amp * 16.0 * x * (1 - x) * y * (1 - y)
    if kind == "sine":
        return lambda x, y: amp * np.sin(np.pi * x) * np.sin(np.pi * y)
    raise ConfigError(f"unknown initial kind {kind!r}")


def _coefficient(value):
    """The constant coefficient of a scalar or 2x2 matrix value; a scalar s
    is s times the identity.

    ConfigError unless the value is finite, symmetric and positive definite.
    """
    if not all(map(_finite_number, np.ravel(np.array(value, dtype=object)))):
        raise ConfigError("coefficient must be a scalar or 2x2 matrix of "
                          f"finite numbers, got {value!r}")
    field = fem.CoefficientField.constant(np.asarray(value, dtype=float))
    try:
        field.validate()
    except ValueError as exc:
        raise ConfigError(f"{exc}, got {value!r}") from exc
    if not field.alpha > 0:
        raise ConfigError(
            f"coefficient must be positive definite, got {value!r}")
    return field


def _domain(cfg):
    rects = cfg["rectangles"]
    if not rects:
        raise ConfigError("domain needs at least one rectangle")
    for rect in rects:
        if not (isinstance(rect, list) and len(rect) == 4
                and all(_finite_number(v) for v in rect)
                and rect[2] > rect[0] and rect[3] > rect[1]):
            raise ConfigError(
                "domain rectangle must be four finite numbers "
                f"[x0, y0, x1, y1] with x1 > x0 and y1 > y0, got {rect!r}")
    return geo.RectUnion.of(*rects)


def _config_check(check, *args):
    """``check(*args)``, whose mesh or table error is the config's fault."""
    try:
        return check(*args)
    except (MeshFailureError, TableRangeError) as exc:
        raise ConfigError(str(exc)) from exc


def _model(cfg, command, args):
    """The model objects of every section of ``cfg``.

    The coefficients, forced tensors, kinetics, inclusion, domain, s grid,
    mesh sizes, epsilons, snapshot cadence, initial data, positivity policy,
    scaling, theta, table range and time grid are converted and checked here
    once, before anything is written, whether or not ``command`` reads them;
    so is the node budget of every epsilon-mesh, on its unit-cell mesh.
    For ``validate`` an inadmissible inclusion is kept as ``geometry_error``.
    """
    if args.threads < 1 or args.budget_nodes < 1:
        raise ConfigError("--threads and --budget-nodes must be at least 1, "
                          f"got {args.threads} and {args.budget_nodes}")
    model = SimpleNamespace(geometry_error=None, forced_d0=None,
                            btable=None)
    if "geometry" in cfg:
        try:
            model.inclusion = geo.InclusionSpec.from_config(
                cfg["geometry"]["inclusion"])
            model.inclusion.validate()
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad inclusion config: {exc}") from exc
        except InvalidGeometryError as exc:
            if command != "validate":
                raise
            model.geometry_error = exc
    if "domain" in cfg:
        model.domain = _domain(cfg["domain"])
    if "coefficients" in cfg:
        model.d1, model.d2, model.d3 = (
            _coefficient(cfg["coefficients"][k]) for k in ("d1", "d2", "d3"))
    if "kinetics" in cfg:
        model.kinetics = kin_mod.parse_kinetics(cfg["kinetics"])
    if "cell" in cfg:
        geo.check_cell_h(cfg["cell"]["h"])
        s_grid = cell_mod.check_s_grid(cfg["cell"]["s_grid"])
    for section in ("macro", "micro", "sweep"):  # a command runs at most one
        if section in cfg:
            run = cfg[section]
            step_count(run["t_end"], run["dt"])
            model.initial = {name: _initial_closure(spec)
                             for name, spec in run["initial"].items()}
            if "positivity" in run:
                model.positivity = macro_mod.PositivityPolicy(
                    run["positivity"])
            if "scaling" in run:
                model.scaling = micro_mod.Scaling(run["scaling"])
    if "macro" in cfg:
        mcfg = cfg["macro"]
        macro_mod.check_theta(mcfg["theta"])
        _config_check(geo.macro_grid_pitch, model.domain, mcfg["h"])
        forced = (mcfg["forced_b"], mcfg["forced_d0"])
        if forced.count(None) == 1:
            raise ConfigError("forced_b and forced_d0 must be set together")
        if None not in forced:
            # a forced tensor is checked as a coefficient
            forced_b, model.forced_d0 = (
                _coefficient(v).matrix_at(np.zeros(2))[0] for v in forced)
        if not mcfg["variant"]:  # the variant reads no dispersion table
            lam = cfg["cell"]["lambda_macro"]
            if model.forced_d0 is None:
                _config_check(macro_mod.check_table_range, s_grid, lam)
            else:  # the forced table spans [0, lambda_macro]
                model.btable = cell_mod.DispersionTable.constant(
                    forced_b, s_max=lam)
    if "micro" in cfg:
        eps = cfg["micro"]["epsilon"]
        model.spec = geo.EpsilonDomainSpec(model.domain, eps, model.inclusion)
        model.spec.validate()
        h_cell = cfg["micro"]["h_cell"]
        model.h_cell = eps / 8.0 if h_cell is None else h_cell
        geo.check_epsilon_h(eps, model.h_cell)
        unit = geo.build_unit_cell_mesh(model.inclusion, model.h_cell / eps)
        _config_check(geo.check_node_budget, model.spec, unit,
                      args.budget_nodes)
    if "sweep" in cfg:
        _config_check(geo.macro_grid_pitch, model.domain,
                      cfg["sweep"]["macro_h"])
        _config_check(macro_mod.check_table_range, s_grid,
                      cfg["cell"]["lambda_macro"])
        if cfg["sweep"]["snapshot_every"] < 1:
            raise ConfigError("sweep.snapshot_every must be at least 1, "
                              f"got {cfg['sweep']['snapshot_every']}")
        conv_mod.epsilon_specs(model.domain, model.inclusion,
                               cfg["sweep"]["epsilons"], cfg["cell"]["h"],
                               args.budget_nodes)
    return model


def _write_json(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def config_fingerprint(config):
    """sha256 of the canonical JSON encoding of a config mapping."""
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def write_manifest(outdir, command, resolved):
    _write_json({"command": command, "version": __version__,
                 "config": resolved,
                 "fingerprint": config_fingerprint(resolved)},
                os.path.join(outdir, "manifest.json"))


def write_field(path, name, values):
    with open(path, "w") as f:
        f.write(f"field v1 {name} {len(values)}\n")
        for v in values:
            f.write(f"{float(v)!r}\n")


def _write_run(traj, cfg, outdir):
    """trajectory.csv and, if ``output.snapshot_fields``, the final value
    of every field."""
    traj.write_csv(os.path.join(outdir, "trajectory.csv"))
    if cfg["output"]["snapshot_fields"]:
        for name in traj.field_names:
            write_field(os.path.join(outdir, f"final_{name}.field"),
                        name, getattr(traj.final, name))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(cfg, model, outdir, args):
    report = kin_mod.validate(model.kinetics)
    geo_ok = model.geometry_error is None
    geo_msg = "ok" if geo_ok else str(model.geometry_error)
    out = {"kinetics": report.as_dict(),
           "geometry": {"passed": geo_ok, "message": geo_msg},
           "passed": report.passed and geo_ok}
    _write_json(out, os.path.join(outdir, "validate.json"))
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"{status} {check.name} (worst {check.worst_value:.3e})")
    print(("pass" if geo_ok else "FAIL") + f" geometry ({geo_msg})")
    return EXIT_OK


def cmd_mesh(cfg, model, outdir, args):
    mesh = geo.build_unit_cell_mesh(model.inclusion, cfg["cell"]["h"])
    geo.write_poromesh(mesh, os.path.join(outdir, "cell.poromesh"))
    stats = {
        "n_nodes": mesh.n_nodes,
        "n_triangles": mesh.n_triangles,
        "area": mesh.area,
        "gamma_length": mesh.marked_length(geo.EdgeMarker.GAMMA),
        "gamma_loops": geo.count_marked_loops(mesh),
    }
    _write_json(stats, os.path.join(outdir, "mesh_stats.json"))
    print(f"cell mesh: {mesh.n_nodes} nodes, {mesh.n_triangles} triangles")
    return EXIT_OK


def _cell_context(cfg, model):
    mesh = geo.build_unit_cell_mesh(model.inclusion, cfg["cell"]["h"])
    return cell_mod.CellContext.from_mesh(mesh)


def cmd_cell_tensor(cfg, model, outdir, args):
    tensor, _ = cell_mod.scalar_tensor_with_check(_cell_context(cfg, model),
                                                  model.d3)
    _write_json(tensor.as_json_dict(), os.path.join(outdir, "d0.json"))
    print(f"d0 = {tensor.matrix.tolist()} (cross check "
          f"{tensor.cross_check_err:.2e})")
    return EXIT_OK


def cmd_btable(cfg, model, outdir, args):
    # the midpoints are solved after the samples, on the same problem
    problem = cell_mod.CoupledCellProblem(_cell_context(cfg, model),
                                          model.d1, model.d2)
    table = problem.table(model.kinetics.h, cfg["cell"]["s_grid"])
    table.midpoint_error = problem.midpoint_error(model.kinetics.h, table)
    _write_json(table.as_json_dict(), os.path.join(outdir, "btable.json"))
    print(f"btable: {len(table.s)} samples, midpoint error "
          f"{table.midpoint_error:.3e}")
    return EXIT_OK


def cmd_tensor_suite(cfg, model, outdir, args):
    report = conv_mod.tensor_suite(
        inclusion=model.inclusion, h=cfg["cell"]["h"], d1=model.d1,
        d2=model.d2, d3=model.d3,
        exchange_values=tuple(cfg["cell"]["exchange_values"]))
    _write_json(report, os.path.join(outdir, "suite.json"))
    for check in report["checks"]:
        print(("pass" if check["passed"] else "FAIL")
              + f" {check['name']} ({check['value']:.3e})")
    return EXIT_OK if report["passed"] else EXIT_SOLVER


def cmd_macro(cfg, model, outdir, args):
    mcfg = cfg["macro"]
    mesh = geo.build_macro_mesh(model.domain, mcfg["h"])
    kin, d0 = model.kinetics, model.forced_d0
    # the cell gives |Gamma|/|Y*| even when both tensors are forced
    ctx = _cell_context(cfg, model)
    if d0 is None:
        d0 = cell_mod.scalar_tensor_with_check(ctx, model.d3)[0].matrix
    x, y = mesh.nodes.T
    init = {name: build(x, y) for name, build in model.initial.items()}
    # a single run writes per-step series and the final fields only
    shared = dict(dt=mcfg["dt"], t_end=mcfg["t_end"], kinetics=kin,
                  positivity=model.positivity, cell_ctx=ctx,
                  snapshot_every=max(1, step_count(mcfg["t_end"], mcfg["dt"])),
                  gamma_length=ctx.gamma_length, cell_area=ctx.area)
    if mcfg["variant"]:
        t1, t2 = (cell_mod.scalar_tensor_with_check(ctx, d)[0].matrix
                  for d in (model.d1, model.d2))
        solver = macro_mod.MacroVariantSolver(mesh, macro_mod.VariantConfig(
            d1=t1, d2=t2, d3=d0, **shared))
        state = macro_mod.VariantState(0.0, init["c1"], init["c2"], init["c3"])
    else:
        btable = model.btable
        if btable is None:
            btable = cell_mod.tabulate_b(ctx, model.d1, model.d2, kin.h,
                                         cfg["cell"]["s_grid"])
        solver = macro_mod.MacroSolver(mesh, macro_mod.MacroConfig(
            d0=d0, btable=btable, theta=mcfg["theta"],
            lambda_macro=cfg["cell"]["lambda_macro"], **shared))
        c0 = 0.5 * (init["c1"] + init["c2"])
        state = macro_mod.MacroState(0.0, c0, init["c3"])
    traj = solver.run(state)
    _write_run(traj, cfg, outdir)
    print(f"macro run: {len(traj.times) - 1} steps, "
          f"events={len(traj.events)}")
    return EXIT_OK


def cmd_micro(cfg, model, outdir, args):
    mcfg = cfg["micro"]
    eps = mcfg["epsilon"]
    mesh = geo.build_epsilon_mesh(model.spec, model.h_cell,
                                  node_cap=args.budget_nodes)
    config = micro_mod.MicroConfig(
        dt=mcfg["dt"], t_end=mcfg["t_end"], d1=model.d1, d2=model.d2,
        d3=model.d3, kinetics=model.kinetics, scaling=model.scaling,
        positivity=model.positivity,  # first and last snapshots only
        snapshot_every=max(1, step_count(mcfg["t_end"], mcfg["dt"])))
    init = model.initial
    state = micro_mod.initial_state(mesh, init["c1"], init["c2"], init["c3"])
    solver = micro_mod.MicroSolver(mesh, eps, config)
    traj = solver.run(state)
    _write_run(traj, cfg, outdir)
    micro_mod.write_gamma_gap_csv(traj, os.path.join(outdir, "gamma_gap.csv"))
    print(f"micro run (eps={eps}): {mesh.n_nodes} nodes, "
          f"{len(traj.times) - 1} steps, events={len(traj.events)}")
    return EXIT_OK


def cmd_sweep(cfg, model, outdir, args):
    scfg = cfg["sweep"]
    init = model.initial
    problem = conv_mod.SweepProblem(
        inclusion=model.inclusion, cell_h=cfg["cell"]["h"], d1=model.d1,
        d2=model.d2, d3=model.d3, kinetics=model.kinetics,
        init_c1=init["c1"], init_c2=init["c2"], init_c3=init["c3"],
        dt=scfg["dt"], t_end=scfg["t_end"], macro_h=scfg["macro_h"],
        scaling=model.scaling, s_grid=tuple(cfg["cell"]["s_grid"]),
        lambda_macro=cfg["cell"]["lambda_macro"],
        snapshot_every=scfg["snapshot_every"],
        node_budget=args.budget_nodes, domain=model.domain)
    report = conv_mod.run_sweep(problem, scfg["epsilons"],
                                threads=args.threads)
    # the manifest's fingerprint, so a report names the config it ran
    _write_json({**report.as_json_dict(),
                 "fingerprint": config_fingerprint(cfg)},
                os.path.join(outdir, "report.json"))
    with open(os.path.join(outdir, "report.csv"), "w") as f:
        f.write(report.csv_text())
    report.macro_trajectory.write_csv(
        os.path.join(outdir, "macro_trajectory.csv"))
    for eps, traj in zip(report.epsilons, report.trajectories):
        tag = f"{eps:g}".replace(".", "p")
        traj.write_csv(os.path.join(outdir, f"micro_trajectory_eps{tag}.csv"))
        micro_mod.write_gamma_gap_csv(
            traj, os.path.join(outdir, f"gamma_gap_eps{tag}.csv"))
    print("sweep errors:")
    for name, vals in sorted(report.errors.items()):
        print(f"  {name}: " + " ".join(f"{v:.6f}" for v in vals))
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "mesh": cmd_mesh,
    "cell-tensor": cmd_cell_tensor,
    "btable": cmd_btable,
    "macro": cmd_macro,
    "micro": cmd_micro,
    "sweep": cmd_sweep,
    "tensor-suite": cmd_tensor_suite,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="porodiff",
        description="Periodic-homogenization toolkit for coupled "
                    "reaction-diffusion in perforated media.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="parallel independent runs (never changes output)")
    parser.add_argument("--budget-nodes", type=int,
                        default=geo.DEFAULT_NODE_CAP,
                        help="cap on projected mesh nodes")
    return parser


def _pin_blas_to_one_thread():
    """Set numpy's bundled OpenBLAS, if any, to one thread: small dense
    calls stall on a thread pool, and --threads parallelizes whole runs."""
    for path in glob.glob(os.path.join(
            os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs",
            "libscipy_openblas64_*.so")):
        try:
            ctypes.CDLL(path).scipy_openblas_set_num_threads64_(1)
        except (OSError, AttributeError):
            pass


def main(argv=None):
    args = build_parser().parse_args(argv)
    _pin_blas_to_one_thread()
    try:
        with open(args.config) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        resolved = resolve_config(raw, args.command)
        model = _model(resolved, args.command, args)
        os.makedirs(args.out, exist_ok=True)
        write_manifest(args.out, args.command, resolved)
        return _COMMANDS[args.command](resolved, model, args.out, args)
    except (ConfigError, InvalidGeometryError, UnknownNameError,
            UnsupportedDimensionError, ValueError) as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PorodiffError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
