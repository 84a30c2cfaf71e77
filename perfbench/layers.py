"""Per-layer metrics: where each porodiff layer is traced and what it predicts.

Layers are named after porodiff's modules. ``install(tracer)`` wraps each
layer's public entry points where their callers look them up:

- ``convergence`` imports the mesh builders and ``P1Interpolator`` by name,
  so the builders are wrapped in both ``geometry`` and ``convergence``;
- ``fem`` reaches ``splu_factor``, ``spla.splu`` and ``spla.cg`` through its
  module globals, so ``splu`` and ``cg`` are wrapped on the
  ``scipy.sparse.linalg`` module itself (nothing else in porodiff calls
  them); CG iterations are counted by wrapping the callback ``fem`` passes
  to ``cg``;
- methods are wrapped on their classes.

``PER_LAYER`` lists every per-layer metric with the end-to-end metric and
the workload it should move. BENCHMARK.json lists the same names.
"""

from __future__ import annotations

from porodiff import (cell, cli, convergence, fem, geometry, interpolate,
                      kinetics, macro, micro, trajectory)

# (owner, attribute, span, calls counter)
_SPANS = [
    (cli, "main", "cli", None),
    (convergence, "run_sweep", "convergence.sweep", None),
    (fem, "splu_factor", "fem.factor", "fem.factor_calls"),
    (fem, "solve_exchange_block", "fem.exchange_block", None),
    (fem.ConstraintReducer, "reduce", "fem.reduce", "fem.reduce_calls"),
    (fem, "assemble_stiffness", "fem.assemble", None),
    (fem, "assemble_stiffness_elementwise", "fem.assemble", None),
    (fem, "assemble_mass", "fem.assemble", None),
    (fem, "assemble_weighted_mass", "fem.assemble", None),
    (fem, "assemble_boundary_mass", "fem.assemble", None),
    (cell, "scalar_tensor_with_check", "cell.scalar_tensor", None),
    (cell, "tabulate_b", "cell.tabulate_b", None),
    (cell, "solve_coupled_pair", "cell.coupled_solve", "cell.coupled_solves"),
    (kinetics, "cell_average_f", "kinetics.cell_average",
     "kinetics.cell_average_calls"),
    (macro.MacroSolver, "__init__", "macro.setup", None),
    (macro.MacroSolver, "step", "macro.step", "macro.steps"),
    (micro.MicroSolver, "__init__", "micro.setup", None),
    (micro.MicroSolver, "step", "micro.step", "micro.steps"),
    (interpolate.P1Interpolator, "__call__", "interpolate.eval", None),
    (trajectory.Trajectory, "record", "trajectory.record", None),
]

_MESH_BUILDERS = [
    ("build_epsilon_mesh", "geometry.epsilon_mesh"),
    ("build_unit_cell_mesh", "geometry.cell_mesh"),
    ("build_macro_mesh", "geometry.macro_mesh"),
]


def install(tracer):
    """Wrap every traced entry point; undo with ``tracer.restore()``."""
    counts = tracer.counts
    for owner, attr, span, calls in _SPANS:
        tracer.patch(owner, attr, span, calls=calls)

    def count_nodes(args, kwargs, mesh):
        counts["geometry.nodes"] += mesh.n_nodes

    for owner in (geometry, convergence):
        for attr, span in _MESH_BUILDERS:
            tracer.patch(owner, attr, span, count=count_nodes)

    def count_points(args, kwargs, result):
        points = kwargs["points"] if "points" in kwargs else args[2]
        counts["interpolate.points"] += len(points)

    tracer.patch(interpolate.P1Interpolator, "__init__", "interpolate.setup",
                 count=count_points)

    def count_factor(args, kwargs, result):
        counts["fem.factor_count"] += 1
        counts["fem.factor_rows"] += args[0].shape[0]

    tracer.patch(fem.spla, "splu", "fem.splu", count=count_factor)

    def counting_cg(cg):
        def run(*args, **kwargs):
            inner = kwargs.get("callback")

            def callback(xk):
                counts["fem.cg_iters"] += 1
                if inner is not None:
                    inner(xk)

            kwargs["callback"] = callback
            return cg(*args, **kwargs)

        return run

    tracer.patch(fem.spla, "cg", "fem.cg", calls="fem.cg_calls",
                 adapt=counting_cg)


SWEEP = "sweep_fast"
MICRO = "micro_eps32"
HOMOG = "homogenized"

# Timed span -> the end-to-end metric and workload it should move. Each
# span reports its total and its self time. Shares of sweep_fast's wall_s are
# from a traced seed-0 run at this run length (4 steps per epsilon).
_TIMED = {
    "cli": f"wall_s on {SWEEP} (self: config resolution, artifact writing)",
    "convergence.sweep": f"wall_s on {SWEEP}",
    "geometry.epsilon_mesh":
        f"setup_s on {MICRO}; about 10% of wall_s on {SWEEP}",
    "geometry.cell_mesh": f"setup_s on {HOMOG}",
    "geometry.macro_mesh": f"setup_s on {MICRO} and {HOMOG}",
    "interpolate.setup": f"setup_s on {MICRO}; about 30% of wall_s on {SWEEP}",
    "interpolate.eval": f"setup_s on {MICRO}, wall_s on {SWEEP}",
    "fem.factor": f"wall_s on {SWEEP} (block LU, about 20%) and {HOMOG} "
                  f"(A_c); no wall_s change on {MICRO}",
    "fem.splu": f"wall_s on {SWEEP} and {HOMOG}",
    "fem.cg": f"wall_s on {MICRO} and on {SWEEP} (its eps = 1/16 point, "
              f"about 20%); zero on {HOMOG}",
    "fem.exchange_block": f"wall_s on {SWEEP}",
    "fem.reduce": f"wall_s on {SWEEP} and {HOMOG}",
    "fem.assemble": f"wall_s on {SWEEP}",
    "cell.scalar_tensor": f"wall_s on {HOMOG}; no change on {SWEEP} "
                          f"(cell and macro are under 5% of it)",
    "cell.tabulate_b": f"wall_s on {HOMOG}; no change on {SWEEP}",
    "cell.coupled_solve": f"wall_s on {HOMOG}; no change on {SWEEP}",
    "kinetics.cell_average": f"wall_s on {HOMOG}; no change on {SWEEP}",
    "macro.setup": f"wall_s on {HOMOG}; no change on {SWEEP}",
    "macro.step": f"wall_s on {HOMOG}; no change on {SWEEP}",
    "micro.setup": f"wall_s on {SWEEP} (about 10%), setup_s on {MICRO}",
    "micro.step": f"wall_s on {SWEEP} (about 45%) and {MICRO}",
    "trajectory.record": f"wall_s on {SWEEP}",
}

# Counter -> the end-to-end metric and workload it should move.
_COUNTS = {
    "fem.factor_calls": f"wall_s on {SWEEP} and {HOMOG}",
    "fem.factor_count": f"wall_s on {SWEEP} and {HOMOG}, "
                        f"peak_rss_mb on {MICRO}",
    "fem.factor_rows": f"wall_s on {SWEEP} and {HOMOG}, "
                       f"peak_rss_mb on {MICRO}",
    "fem.cg_calls": f"wall_s on {MICRO} and {SWEEP}",
    "fem.cg_iters": f"wall_s on {MICRO} and {SWEEP}",
    "fem.reduce_calls": f"wall_s on {SWEEP} and {HOMOG}",
    "geometry.nodes": f"setup_s on {MICRO}",
    "interpolate.points": f"setup_s on {MICRO}",
    "cell.coupled_solves": f"wall_s on {HOMOG}",
    "kinetics.cell_average_calls": f"wall_s on {HOMOG}",
    "macro.steps": f"wall_s on {HOMOG}",
    "micro.steps": f"wall_s on {SWEEP} and {MICRO}",
}


def timed_metric_names(span):
    """(total, self) metric names of a span: ``cli`` -> cli.total_s."""
    if "." not in span:
        return f"{span}.total_s", f"{span}.self_s"
    return f"{span}_s", f"{span}_self_s"


def metrics(tracer):
    """Every per-layer metric of one traced run, as plain numbers."""
    totals = tracer.totals()
    out = {}
    for span in _TIMED:
        total, own, _ = totals.get(span, (0.0, 0.0, 0))
        names = timed_metric_names(span)
        out[names[0]] = total
        out[names[1]] = own
    counts = tracer.counts
    for name in _COUNTS:
        out[name] = counts[name]
    out["trace.spans"] = len(tracer.spans)
    calls = counts["fem.factor_calls"]
    out["fem.factor_reuse_ratio"] = (
        1.0 - counts["fem.factor_count"] / calls if calls else 0.0)
    return out


# metric -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    **{name: ("s", "lower", moves) for span, moves in _TIMED.items()
       for name in timed_metric_names(span)},
    **{name: ("count", "lower", moves) for name, moves in _COUNTS.items()},
    "fem.factor_reuse_ratio": ("ratio", "higher",
                               f"wall_s on {SWEEP} and {HOMOG}"),
    "trace.spans": ("count", "lower", "the tracing overhead"),
    "trace.wall_s": ("s", "lower", "wall_s of the traced run"),
    "trace.overhead_s": ("s", "lower",
                         "nothing: traced minus untraced median wall_s"),
}
