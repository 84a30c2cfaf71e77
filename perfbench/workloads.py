"""The benchmark's workloads: seeded inputs, the timed call, and output checks.

All three workloads share the acceptance physics: a disc inclusion of radius
1/4, d1 = I, d2 = diag(2, 1), d3 = I, ``mm_triple+langmuir:a=1,b=1`` kinetics,
dt = 1e-3 and the bump initial data 16 x(1-x) y(1-y).

Seed 0 is exactly the acceptance data and is checked against reference
values recorded at this run length (``reference.json``). Any other seed
multiplies every initial bump by the smooth factor
1 + 0.2 a sin(pi x) sin(2 pi y) with a drawn uniformly from [-1, 1]. The
factor lies in [0.8, 1.2], so the data stay positive and the element
averages of c3 stay inside the B-table range [0, 2]; it changes the h(c3)
path every step sees. Non-zero seeds are checked by invariants.

A workload is a function ``prepare(seed, workdir) -> run``. ``prepare`` is
the set-up that ``setup_s`` covers; ``run()`` is the timed call and returns
the outputs as plain JSON data.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

from porodiff import cell, cli, fem, geometry, kinetics, macro, micro

DT = 1e-3
S_GRID = (0.0, 0.25, 0.5, 1.0, 2.0)
LAMBDA = 1.5
KINETICS = "mm_triple+langmuir:a=1,b=1"
INCLUSION = geometry.InclusionSpec.disc((0.5, 0.5), 0.25)

# Run lengths. Each is short enough that one run of the benchmark holds
# several fresh-interpreter samples, and long enough that every layer the
# workload is chosen for does its usual work.
SWEEP_STEPS = 4             # per epsilon, snapshot every 2 steps
MICRO_EPS = 1.0 / 32.0
MICRO_STEPS = 1
HOMOG_CELL_H = 0.0125
HOMOG_MACRO_H = 1.0 / 64.0
HOMOG_STEPS = 25

REL_TOL = 1e-6      # reference match; the solvers promise 1e-10 residuals
NEG_TOL = 1e-8      # fields are nonnegative up to this much


def bump_factor(seed):
    """The seeded smooth factor applied to every initial bump (None at 0)."""
    if seed == 0:
        return None
    a = random.Random(seed).uniform(-1.0, 1.0)

    def factor(x, y):
        return 1.0 + 0.2 * a * np.sin(np.pi * x) * np.sin(2.0 * np.pi * y)

    return factor


def bump(x, y, factor=None):
    """The acceptance bump 16 x(1-x) y(1-y), times the seeded factor."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = 16.0 * x * (1 - x) * y * (1 - y)
    return u if factor is None else u * factor(x, y)


def coefficients():
    return (fem.CoefficientField.isotropic(1.0),
            fem.CoefficientField.constant(np.diag([2.0, 1.0])),
            fem.CoefficientField.isotropic(1.0))


# ---------------------------------------------------------------------------
# sweep_fast: `porodiff sweep` through cli.main
# ---------------------------------------------------------------------------

SWEEP_CONFIG = {
    "geometry": {"inclusion": {"shape": "disc", "center": [0.5, 0.5],
                               "radius": 0.25}},
    "coefficients": {"d1": 1.0, "d2": [[2.0, 0.0], [0.0, 1.0]], "d3": 1.0},
    "kinetics": KINETICS,
    "cell": {"h": 0.125, "s_grid": list(S_GRID), "lambda_macro": LAMBDA},
    "sweep": {"epsilons": [0.25, 0.125, 0.0625], "dt": DT,
              "t_end": SWEEP_STEPS * DT, "macro_h": 0.03125,
              "scaling": "fast_exchange", "snapshot_every": 2},
}


def _seeded_initial_closure(factor):
    """A stand-in for the CLI's initial-data builder that scales bumps."""
    original = cli._initial_closure

    def build(spec):
        base = original(spec)
        if spec["kind"] != "bump":
            return base
        return lambda x, y: base(x, y) * factor(np.asarray(x, float),
                                                np.asarray(y, float))

    return build


def prepare_sweep_fast(seed, workdir):
    config_path = os.path.join(workdir, "sweep.json")
    out_dir = os.path.join(workdir, "sweep_out")
    with open(config_path, "w") as f:
        json.dump(SWEEP_CONFIG, f)
    factor = bump_factor(seed)
    if factor is not None:
        # The CLI config can only name initial data, so the seeded inputs
        # reach `porodiff sweep` through its initial-data builder.
        cli._initial_closure = _seeded_initial_closure(factor)

    def run():
        code = cli.main(["sweep", "--config", config_path, "--out", out_dir,
                         "--threads", "1"])
        if code != 0:
            raise RuntimeError(f"porodiff sweep exited with code {code}")
        with open(os.path.join(out_dir, "report.json")) as f:
            report = json.load(f)
        return {"errors": report["errors"], "monotone": report["monotone"],
                "d0": report["meta"]["d0"],
                "min": [d["min"] for d in report["meta"]["diagnostics"]],
                "macro_min": report["meta"]["macro_min"]}

    return run


def check_sweep_fast(out, seed, ref):
    problems = []
    errors = [v for name in sorted(out["errors"]) for v in out["errors"][name]]
    if len(errors) != 12:
        problems.append(f"expected 12 error values, got {len(errors)}")
    problems += _finite_nonnegative("errors", errors)
    problems += _spd("d0", out["d0"])
    mins = [v for d in out["min"] for v in d.values()]
    mins += list(out["macro_min"].values())
    problems += _finite_nonnegative("field minima", mins)
    if ref is not None:
        problems += _close("errors", out["errors"], ref["errors"])
        if out["monotone"] != ref["monotone"]:
            problems.append(f"monotone flags {out['monotone']} "
                            f"!= reference {ref['monotone']}")
    return problems


# ---------------------------------------------------------------------------
# micro_eps32: one all_eps micro run at eps = 1/32
# ---------------------------------------------------------------------------

def prepare_micro_eps32(seed, workdir):
    factor = bump_factor(seed)
    d1, d2, d3 = coefficients()
    spec = geometry.EpsilonDomainSpec(geometry.RectUnion.unit_square(),
                                      MICRO_EPS, INCLUSION)
    mesh = geometry.build_epsilon_mesh(spec, MICRO_EPS / 8.0)
    macro_mesh = geometry.build_macro_mesh(geometry.RectUnion.unit_square(),
                                           1.0 / 32.0)
    u0 = micro.restrict_macro_to_micro(
        macro_mesh, bump(*macro_mesh.nodes.T, factor), mesh)
    config = micro.MicroConfig(
        dt=DT, t_end=MICRO_STEPS * DT, d1=d1, d2=d2, d3=d3,
        kinetics=kinetics.parse_kinetics(KINETICS),
        scaling=micro.Scaling.ALL_EPS, snapshot_every=MICRO_STEPS)
    solver = micro.MicroSolver(mesh, MICRO_EPS, config)
    state = micro.MicroState(0.0, u0.copy(), u0.copy(), u0.copy())

    def run():
        traj = solver.run(state)
        return {"n_nodes": mesh.n_nodes,
                "gamma_gap": traj.series["gamma_gap"][-1],
                "norms": {n: traj.series[f"norm_{n}"][-1]
                          for n in ("c1", "c2", "c3")},
                "min": {n: traj.min_over_run(n) for n in ("c1", "c2", "c3")}}

    return run


def check_micro_eps32(out, seed, ref):
    problems = _finite_nonnegative(
        "outputs", [out["gamma_gap"], *out["norms"].values()])
    problems += _finite_nonnegative("field minima", out["min"].values())
    if ref is not None:
        keys = ("n_nodes", "gamma_gap", "norms")
        problems += _close("outputs", {k: out[k] for k in keys},
                           {k: ref[k] for k in keys})
    return problems


# ---------------------------------------------------------------------------
# homogenized: cell tensors, B-table and the macro run
# ---------------------------------------------------------------------------

def prepare_homogenized(seed, workdir):
    factor = bump_factor(seed)
    d1, d2, d3 = coefficients()
    kin = kinetics.parse_kinetics(KINETICS)
    ctx = cell.CellContext.from_mesh(
        geometry.build_unit_cell_mesh(INCLUSION, HOMOG_CELL_H))
    macro_mesh = geometry.build_macro_mesh(geometry.RectUnion.unit_square(),
                                           HOMOG_MACRO_H)
    u0 = bump(*macro_mesh.nodes.T, factor)

    def run():
        d0, _ = cell.scalar_tensor_with_check(ctx, d3)
        table = cell.tabulate_b(ctx, d1, d2, kin.h, S_GRID)
        config = macro.MacroConfig(
            dt=DT, t_end=HOMOG_STEPS * DT, d0=d0.matrix, btable=table,
            kinetics=kin, gamma_length=ctx.gamma_length, cell_area=ctx.area,
            lambda_macro=LAMBDA, snapshot_every=HOMOG_STEPS, cell_ctx=ctx)
        solver = macro.MacroSolver(macro_mesh, config)
        traj = solver.run(macro.MacroState(0.0, u0.copy(), u0.copy()))
        return {"n_nodes": [ctx.mesh.n_nodes, macro_mesh.n_nodes],
                "d0": d0.matrix.tolist(),
                "btable_s": table.s.tolist(),
                "btable": table.matrices.tolist(),
                "norms": {n: traj.series[f"norm_{n}"][-1]
                          for n in ("c", "c3")},
                "mass": {n: traj.series[f"mass_{n}"][-1] for n in ("c", "c3")},
                "min": {n: traj.min_over_run(n) for n in ("c", "c3")}}

    return run


def check_homogenized(out, seed, ref):
    problems = _spd("d0", out["d0"])
    for s, mat in zip(out["btable_s"], out["btable"]):
        problems += _spd(f"B({s})", mat)
    problems += _finite_nonnegative(
        "outputs", [*out["norms"].values(), *out["mass"].values()])
    problems += _finite_nonnegative("field minima", out["min"].values())
    if ref is not None:
        keys = ("n_nodes", "d0", "btable_s", "btable", "norms", "mass")
        problems += _close("outputs", {k: out[k] for k in keys},
                           {k: ref[k] for k in keys})
    return problems


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _finite_nonnegative(what, values):
    values = [float(v) for v in values]
    if not all(math.isfinite(v) for v in values):
        return [f"{what}: non-finite value in {values}"]
    low = min(values, default=0.0)
    if low < -NEG_TOL:
        return [f"{what}: {low!r} is below -{NEG_TOL}"]
    return []


def _spd(what, matrix):
    m = np.asarray(matrix, dtype=float)
    if m.shape != (2, 2) or not np.all(np.isfinite(m)):
        return [f"{what}: not a finite 2x2 matrix: {matrix}"]
    if abs(m[0, 1] - m[1, 0]) > 1e-10 * np.abs(m).max():
        return [f"{what}: not symmetric: {matrix}"]
    if np.linalg.eigvalsh(0.5 * (m + m.T)).min() <= 0:
        return [f"{what}: not positive definite: {matrix}"]
    return []


def _close(path, got, want):
    """Mismatches between nested JSON data, numbers compared at REL_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [p for k in sorted(want)
                for p in _close(f"{path}.{k}", got[k], want[k])]
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{path}: shape {got.shape} != reference {want.shape}"]
    # Arrays compare relative to their largest entry, so near-zero entries
    # (off-diagonals of symmetric tensors) do not demand bitwise agreement.
    if not np.all(np.abs(got - want) <= REL_TOL * np.abs(want).max()):
        return [f"{path}: {got.tolist()} differs from the reference "
                f"{want.tolist()}"]
    return []


WORKLOADS = {
    "sweep_fast": (prepare_sweep_fast, check_sweep_fast),
    "micro_eps32": (prepare_micro_eps32, check_micro_eps32),
    "homogenized": (prepare_homogenized, check_homogenized),
}
