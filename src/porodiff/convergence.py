"""Homogenization-validation experiments: epsilon sweeps and tensor checks.

A sweep computes one macroscopic reference (with tensors built from the same
cell mesh that generates the epsilon meshes), runs the microscopic system for
each epsilon, and reports space-time L2 errors of the micro fields against
the restricted macro fields together with the boundary-gap norm of the fast
pair. Only the boundary gap carries a rate assertion; the micro-to-macro
errors are checked for monotone decrease, with fitted rates reported as
information.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import cell as cell_mod
from . import fem
from . import macro as macro_mod
from . import micro as micro_mod
from .errors import DegenerateDataError
from .geometry import (DEFAULT_NODE_CAP, EpsilonDomainSpec, InclusionSpec,
                       RectUnion, build_epsilon_mesh, build_macro_mesh,
                       build_unit_cell_mesh, check_epsilon_h,
                       check_node_budget)
from .interpolate import P1Interpolator


def fit_rate(errors, epsilons):
    """Least-squares slope of log(error) against log(epsilon).

    Returns (slope, residual) where residual is the RMS misfit of the line.
    """
    errors = np.asarray(errors, dtype=float)
    epsilons = np.asarray(epsilons, dtype=float)
    if len(errors) < 3 or len(errors) != len(epsilons):
        raise DegenerateDataError("rate fit needs >= 3 matched error values")
    if np.any(errors <= 0) or np.any(epsilons <= 0):
        raise DegenerateDataError("rate fit needs positive errors and epsilons")
    x = np.log(epsilons)
    y = np.log(errors)
    coeffs = np.polyfit(x, y, 1)
    fitted = np.polyval(coeffs, x)
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return float(coeffs[0]), residual


@dataclass
class SweepProblem:
    """Everything one sweep needs; identical data feeds macro and micro."""

    inclusion: InclusionSpec
    cell_h: float
    d1: fem.CoefficientField
    d2: fem.CoefficientField
    d3: fem.CoefficientField
    kinetics: object
    init_c1: object
    init_c2: object
    init_c3: object
    dt: float
    t_end: float
    macro_h: float
    scaling: micro_mod.Scaling = micro_mod.Scaling.FAST_EXCHANGE
    s_grid: tuple = (0.0, 0.5, 1.0, 2.0)
    lambda_macro: float = 2.0
    snapshot_every: int = 1
    node_budget: int = DEFAULT_NODE_CAP
    domain: RectUnion = field(default_factory=RectUnion.unit_square)


@dataclass
class ConvergenceReport:
    """A sweep's results; its snapshot-free trajectories stay out of JSON."""

    epsilons: list
    errors: dict
    rates: dict
    monotone: dict
    meta: dict
    trajectories: list
    macro_trajectory: object

    def as_json_dict(self):
        return {
            "epsilons": self.epsilons,
            "errors": self.errors,
            "rates": self.rates,
            "monotone": self.monotone,
            "meta": self.meta,
        }

    def csv_text(self):
        names = sorted(self.errors)
        lines = ["epsilon," + ",".join(f"err_{n}" for n in names)]
        for k, eps in enumerate(self.epsilons):
            row = [repr(float(eps))]
            row.extend(repr(float(self.errors[n][k])) for n in names)
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _micro_errors_for_epsilon(problem, spec, macro_mesh, macro_traj):
    """The micro run on ``spec`` and its errors against the macro run."""
    eps = spec.epsilon
    mesh = build_epsilon_mesh(spec, eps * problem.cell_h,
                              node_cap=problem.node_budget)
    cfg = micro_mod.MicroConfig(
        dt=problem.dt, t_end=problem.t_end,
        d1=problem.d1, d2=problem.d2, d3=problem.d3,
        kinetics=problem.kinetics, scaling=problem.scaling,
        snapshot_every=problem.snapshot_every)
    state = micro_mod.initial_state(mesh, problem.init_c1, problem.init_c2,
                                    problem.init_c3)
    solver = micro_mod.MicroSolver(mesh, eps, cfg)
    traj = solver.run(state)
    M_eps = solver.M
    del solver  # its operators and factors are not held past the run

    # both runs step the same dt to the same t_end, snapshotting alike
    times = [t for t, _ in traj.snapshots]
    if times != [t for t, _ in macro_traj.snapshots]:
        raise RuntimeError("micro and macro snapshot times differ")
    interp = P1Interpolator(macro_mesh, mesh.nodes)
    sq = {"c1": [], "c2": [], "c3": []}
    for (_, fields), (_, mf) in zip(traj.snapshots, macro_traj.snapshots):
        c_ref = interp(mf["c"])
        c3_ref = interp(mf["c3"])
        for name, ref in (("c1", c_ref), ("c2", c_ref), ("c3", c3_ref)):
            d = fields[name] - ref
            sq[name].append(float(d @ (M_eps @ d)))
    traj.snapshots.clear()  # only the per-step series outlive the errors
    errors = {name: float(np.sqrt(np.trapezoid(v, times)))
              for name, v in sq.items()}
    gap_sq = np.asarray(traj.series["gamma_gap"]) ** 2
    errors["gamma_gap"] = float(np.sqrt(np.trapezoid(
        gap_sq, np.asarray(traj.times))))
    diagnostics = {
        "min": {n: traj.min_over_run(n) for n in ("c1", "c2", "c3")},
        "max": {n: traj.max_over_run(n) for n in ("c1", "c2", "c3")},
        "h1_accumulator": {n: micro_mod.MicroSolver.h1_accumulator(traj, n)
                           for n in ("c1", "c2", "c3")},
        "n_nodes": mesh.n_nodes,
        "positivity_events": len([e for e in traj.events
                                  if e.get("kind") == "positivity"]),
    }
    return errors, diagnostics, traj


def epsilon_specs(domain, inclusion, epsilons, cell_h, node_cap):
    """The checked domain of each epsilon of a sweep, and the unit-cell mesh
    at ``cell_h`` that each epsilon-mesh tiles (each cell at eps*cell_h).

    ValueError if there is no epsilon, a repeated one or cell_h past 1/8,
    InvalidGeometryError if one does not tile ``domain``, ResourceLimitError
    if an epsilon-mesh would pass ``node_cap`` nodes.
    """
    specs = [EpsilonDomainSpec(domain, float(e), inclusion) for e in epsilons]
    if not specs:
        raise ValueError("a sweep needs at least one epsilon")
    for spec in specs:
        spec.validate()
        check_epsilon_h(spec.epsilon, spec.epsilon * cell_h)
    if len({spec.cells_per_unit for spec in specs}) < len(specs):
        raise ValueError(f"a sweep repeats an epsilon: {list(epsilons)}")
    unit_mesh = build_unit_cell_mesh(inclusion, cell_h)
    for spec in specs:
        check_node_budget(spec, unit_mesh, node_cap)
    return specs, unit_mesh


def run_sweep(problem, epsilons, threads=1):
    """Full micro-vs-macro sweep over the given epsilons."""
    specs, unit_mesh = epsilon_specs(problem.domain, problem.inclusion,
                                     epsilons, problem.cell_h,
                                     problem.node_budget)
    epsilons = [spec.epsilon for spec in specs]
    macro_mesh = build_macro_mesh(problem.domain, problem.macro_h)
    ctx = cell_mod.CellContext.from_mesh(unit_mesh)
    d0_tensor, _ = cell_mod.scalar_tensor_with_check(ctx, problem.d3)
    btable = cell_mod.tabulate_b(ctx, problem.d1, problem.d2,
                                 problem.kinetics.h, problem.s_grid)

    x, y = macro_mesh.nodes.T
    c0 = 0.5 * (np.asarray(problem.init_c1(x, y), dtype=float)
                + np.asarray(problem.init_c2(x, y), dtype=float))
    c30 = np.asarray(problem.init_c3(x, y), dtype=float)
    mcfg = macro_mod.MacroConfig(
        dt=problem.dt, t_end=problem.t_end, d0=d0_tensor.matrix,
        btable=btable, kinetics=problem.kinetics,
        gamma_length=ctx.gamma_length, cell_area=ctx.area,
        lambda_macro=problem.lambda_macro,
        snapshot_every=problem.snapshot_every)
    macro_solver = macro_mod.MacroSolver(macro_mesh, mcfg)
    macro_traj = macro_solver.run(macro_mod.MacroState(0.0, c0, c30))

    def job(spec):
        return _micro_errors_for_epsilon(problem, spec, macro_mesh, macro_traj)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(job, specs))
    macro_traj.snapshots.clear()

    names = ("c1", "c2", "c3", "gamma_gap")
    errors = {n: [res[0][n] for res in results] for n in names}
    rates = {}
    monotone = {}
    for n in names:
        vals = errors[n]
        monotone[n] = all(b < a for a, b in zip(vals, vals[1:]))
        try:
            slope, residual = fit_rate(vals, epsilons)
            rates[n] = {"slope": slope, "residual": residual}
        except DegenerateDataError:
            rates[n] = None

    meta = {
        "cell_h": problem.cell_h,
        "macro_h": problem.macro_h,
        "dt": problem.dt,
        "t_end": problem.t_end,
        "scaling": problem.scaling.value,
        "d0": [[float(v) for v in row] for row in d0_tensor.matrix],
        "gamma_length": ctx.gamma_length,
        "cell_area": ctx.area,
        "diagnostics": [res[1] for res in results],
        "macro_min": {n: macro_traj.min_over_run(n) for n in ("c", "c3")},
        "macro_max": {n: macro_traj.max_over_run(n) for n in ("c", "c3")},
    }
    return ConvergenceReport(
        epsilons=epsilons, errors=errors, rates=rates, monotone=monotone,
        meta=meta, trajectories=[res[2] for res in results],
        macro_trajectory=macro_traj)


# ---------------------------------------------------------------------------
# tensor self-consistency suite
# ---------------------------------------------------------------------------

def tensor_suite(inclusion=None, h=0.05, d1=None, d2=None, d3=None,
                 exchange_values=(0.0, 0.5, 1.0, 10.0)):
    """Run the cell-problem invariants and return a pass/fail report.

    The two tensor formulas and the exact identities hold to 1e-9, the
    symmetry to 1e-10; the exchange rates follow the Langmuir law s/(1+s).
    """
    equivalence_tol = identity_tol = 1e-9
    symmetry_tol = 1e-10
    continuity_cap = 100.0
    inclusion = inclusion or InclusionSpec.disc((0.5, 0.5), 0.25)
    d1 = d1 or fem.CoefficientField.isotropic(1.0)
    # An anisotropic second coefficient keeps the exchange coupling active:
    # isotropic constant pairs share one corrector, so the gap term vanishes.
    d2 = d2 or fem.CoefficientField.constant(np.diag([2.0, 1.0]))
    d3 = d3 or fem.CoefficientField.isotropic(1.0)
    mesh = build_unit_cell_mesh(inclusion, h)
    ctx = cell_mod.CellContext.from_mesh(mesh)
    checks = []

    def add(name, passed, value, tol):
        checks.append({"name": name, "passed": bool(passed),
                       "value": float(value), "tolerance": float(tol)})

    t3, _ = cell_mod.scalar_tensor_with_check(ctx, d3)
    add("scalar_form_equivalence", t3.cross_check_err <= equivalence_tol,
        t3.cross_check_err, equivalence_tol)
    add("scalar_symmetry", t3.asymmetry <= symmetry_tol,
        t3.asymmetry, symmetry_tol)
    add("scalar_spd", t3.min_eig > 0, t3.min_eig, 0.0)
    # informational only: the ellipticity-times-porosity heuristic floor
    hole = max(inclusion.area(), 0.0)
    eig_floor = 0.5 * d3.alpha * (1.0 - hole)
    checks.append({"name": "scalar_min_eig_vs_heuristic_floor",
                   "passed": True, "value": t3.min_eig,
                   "tolerance": float(eig_floor), "informational": True})
    mean_d3 = cell_mod.mean_coefficient(ctx, d3)
    probes = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
              np.array([1.0, 1.0]) / np.sqrt(2.0)]
    bound_gap = max(float(xi @ t3.matrix @ xi - xi @ mean_d3 @ xi)
                    for xi in probes)
    add("scalar_upper_bound", bound_gap <= 1e-12, bound_gap, 1e-12)

    # one coupled problem, so every rate reuses its factorization
    pair = cell_mod.CoupledCellProblem(ctx, d1, d2)

    def coupled(hv):
        return cell_mod.coupled_tensor_with_check(ctx, d1, d2, hv,
                                                  problem=pair)[0]

    worst_equiv = 0.0
    for hv in exchange_values:
        b = coupled(float(hv))
        worst_equiv = max(worst_equiv, b.cross_check_err)
        add(f"coupled_spd_H={hv}", b.min_eig > 0, b.min_eig, 0.0)
        add(f"coupled_symmetry_H={hv}", b.asymmetry <= symmetry_tol,
            b.asymmetry, symmetry_tol)
    add("coupled_form_equivalence", worst_equiv <= equivalence_tol,
        worst_equiv, equivalence_tol)

    b0 = coupled(0.0)
    t1, _ = cell_mod.scalar_tensor_with_check(ctx, d1)
    t2, _ = cell_mod.scalar_tensor_with_check(ctx, d2)
    gap = float(np.abs(b0.matrix - t1.matrix - t2.matrix).max())
    add("decoupling_at_zero_exchange", gap <= identity_tol, gap, identity_tol)

    def langmuir(s):
        return s / (1.0 + s)

    for s in (0.0, 1.0, 10.0):
        hv = langmuir(s)
        bsame, _ = cell_mod.coupled_tensor_with_check(ctx, d1, d1, hv)
        gap = float(np.abs(bsame.matrix - 2.0 * t1.matrix).max())
        add(f"collapse_equal_coefficients_s={s}", gap <= identity_tol,
            gap, identity_tol)

    b_inf = coupled(1.0)  # the limit of s/(1+s)
    b_100 = coupled(langmuir(100.0))
    sat = float(np.abs(b_100.matrix - b_inf.matrix).max()
                / np.abs(b_inf.matrix).max())
    add("langmuir_saturation", sat <= 0.02, sat, 0.02)

    delta = 1e-4
    b_b = coupled(1.0 + delta)
    cont = float(np.abs(b_b.matrix - b_inf.matrix).max()) / delta
    add("exchange_continuity", cont <= continuity_cap, cont, continuity_cap)

    if inclusion.kind == "disc" and abs(inclusion.center[0] - 0.5) < 1e-12 \
            and abs(inclusion.center[1] - 0.5) < 1e-12:
        iso_gap = max(abs(float(t3.matrix[0, 1])),
                      abs(float(t3.matrix[0, 0] - t3.matrix[1, 1])))
        add("centered_disc_isotropy", iso_gap <= 1e-8, iso_gap, 1e-8)

    return {"passed": all(c["passed"] for c in checks), "checks": checks,
            "h": h}
