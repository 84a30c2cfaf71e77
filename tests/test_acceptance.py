"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines as
they pass; the heavy epsilon sweeps are shared session fixtures.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from porodiff import cell, cli, convergence as conv, fem, geometry as geo
from porodiff import kinetics as kin, macro, micro
from porodiff.interpolate import P1Interpolator


def bump(x, y):
    return 16.0 * x * (1 - x) * y * (1 - y)


def verdict(num, name, passed, detail):
    line = f"ACCEPTANCE {num:2d} {'PASS' if passed else 'FAIL'} {name}: {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="session")
def disc():
    return geo.InclusionSpec.disc((0.5, 0.5), 0.25)


@pytest.fixture(scope="session")
def contexts(disc):
    return {h: cell.CellContext.from_mesh(geo.build_unit_cell_mesh(disc, h))
            for h in (0.05, 0.025)}


def sweep_problem(disc, scaling):
    return conv.SweepProblem(
        inclusion=disc,
        cell_h=1 / 8,
        d1=fem.CoefficientField.isotropic(1.0),
        d2=fem.CoefficientField.constant(np.diag([2.0, 1.0])),
        d3=fem.CoefficientField.isotropic(1.0),
        kinetics=kin.parse_kinetics("mm_triple+langmuir:a=1,b=1"),
        init_c1=bump, init_c2=bump, init_c3=bump,
        dt=1e-3, t_end=0.1, macro_h=1 / 32,
        scaling=scaling,
        s_grid=(0.0, 0.25, 0.5, 1.0, 2.0), lambda_macro=1.5,
        snapshot_every=2)


EPSILONS = (1 / 4, 1 / 8, 1 / 16)


@pytest.fixture(scope="session")
def fast_sweep(disc):
    t0 = time.monotonic()
    report = conv.run_sweep(sweep_problem(disc, micro.Scaling.FAST_EXCHANGE),
                            EPSILONS)
    return report, time.monotonic() - t0


@pytest.fixture(scope="session")
def all_eps_sweep(disc):
    t0 = time.monotonic()
    report = conv.run_sweep(sweep_problem(disc, micro.Scaling.ALL_EPS),
                            EPSILONS)
    return report, time.monotonic() - t0


def test_criterion_1_formula_equivalence(contexts):
    t0 = time.monotonic()
    ident = fem.CoefficientField.isotropic(1.0)
    worst_scalar = 0.0
    worst_coupled = 0.0
    for h, ctx in contexts.items():
        tensor, _ = cell.scalar_tensor_with_check(ctx, ident)
        worst_scalar = max(worst_scalar, tensor.cross_check_err)
        other = fem.CoefficientField.isotropic(1.0)
        for hv in (0.0, 0.5, 1.0, 10.0):
            b, _ = cell.coupled_tensor_with_check(ctx, ident, other, hv)
            worst_coupled = max(worst_coupled, b.cross_check_err)
    elapsed = time.monotonic() - t0
    ok = worst_scalar <= 1e-9 and worst_coupled <= 1e-9 and elapsed <= 30.0
    verdict(1, "tensor formula equivalence", ok,
            f"scalar {worst_scalar:.2e}, coupled {worst_coupled:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_2_decoupling_identity(contexts):
    ctx = contexts[0.05]
    d1 = fem.CoefficientField.isotropic(1.0)
    d2 = fem.CoefficientField.isotropic(2.0)
    b0, _ = cell.coupled_tensor_with_check(ctx, d1, d2, 0.0)
    t1, _ = cell.scalar_tensor_with_check(ctx, d1)
    t2, _ = cell.scalar_tensor_with_check(ctx, d2)
    gap = float(np.abs(b0.matrix - t1.matrix - t2.matrix).max())
    verdict(2, "dispersion decouples at zero exchange", gap <= 1e-9,
            f"max entry gap {gap:.2e}")


def test_criterion_3_collapse_identity(contexts):
    ctx = contexts[0.05]
    d = fem.CoefficientField.constant(np.diag([2.0, 1.0]))
    same = fem.CoefficientField.constant(np.diag([2.0, 1.0]))
    t, _ = cell.scalar_tensor_with_check(ctx, d)
    worst = 0.0
    for s in (0.0, 1.0, 10.0):
        hv = s / (1.0 + s)
        b, _ = cell.coupled_tensor_with_check(ctx, d, same, hv, s=s)
        worst = max(worst, float(np.abs(b.matrix - 2.0 * t.matrix).max()))
    verdict(3, "equal coefficients collapse to twice the scalar tensor",
            worst <= 1e-9, f"max entry gap {worst:.2e}")


def test_criterion_4_spd_symmetry_bounds(contexts):
    ctx = contexts[0.05]
    d3 = fem.CoefficientField.isotropic(1.0)
    tensor, _ = cell.scalar_tensor_with_check(ctx, d3)
    d1 = fem.CoefficientField.isotropic(1.0)
    d2 = fem.CoefficientField.constant(np.diag([2.0, 1.0]))
    lang = lambda s: np.maximum(s, 0.0) / (1.0 + np.maximum(s, 0.0))
    table = cell.tabulate_b(ctx, d1, d2, lang, (0.0, 0.5, 1.0, 2.0))
    worst_asym = tensor.asymmetry
    min_eig = tensor.min_eig
    for mat in table.matrices:
        worst_asym = max(worst_asym, float(np.abs(mat - mat.T).max()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(mat).min()))
    mean = cell.mean_coefficient(ctx, d3)
    probes = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
              np.array([1.0, 1.0]) / math.sqrt(2)]
    bound_ok = all(xi @ tensor.matrix @ xi <= xi @ mean @ xi + 1e-12
                   for xi in probes)
    ok = worst_asym <= 1e-10 and min_eig > 0 and bound_ok
    verdict(4, "tensors symmetric, positive definite, mean-bounded", ok,
            f"asym {worst_asym:.2e}, min eig {min_eig:.4f}, bound {bound_ok}")


def test_criterion_5_macro_analytic_oracle():
    t0 = time.monotonic()
    mesh = geo.build_macro_mesh(geo.RectUnion.unit_square(), 1 / 32)
    cfg = macro.MacroConfig(
        dt=1e-4, t_end=0.05, d0=np.eye(2),
        btable=cell.DispersionTable.constant(np.eye(2), s_max=1.0),
        kinetics=kin.zero_kinetics(), gamma_length=0.0, cell_area=1.0,
        lambda_macro=1.0, snapshot_every=100)
    solver = macro.MacroSolver(mesh, cfg)
    x, y = mesh.nodes.T
    mode = np.sin(np.pi * x) * np.sin(np.pi * y)
    traj = solver.run(macro.MacroState(0.0, mode.copy(), mode.copy()))
    T = traj.times[-1]
    M = solver.M
    err_c = fem.mass_norm(M, traj.final.c - math.exp(-math.pi ** 2 * T) * mode) \
        / fem.mass_norm(M, math.exp(-math.pi ** 2 * T) * mode)
    err_c3 = fem.mass_norm(
        M, traj.final.c3 - math.exp(-2 * math.pi ** 2 * T) * mode) \
        / fem.mass_norm(M, math.exp(-2 * math.pi ** 2 * T) * mode)
    elapsed = time.monotonic() - t0
    ok = err_c <= 0.05 and err_c3 <= 0.05 and elapsed <= 60.0
    verdict(5, "macro decay matches the analytic rates (factor 2 split)", ok,
            f"err_c {err_c:.4f}, err_c3 {err_c3:.4f}, {elapsed:.1f}s")


def test_criterion_6_sqrt_eps_boundary_estimate(fast_sweep, all_eps_sweep):
    report, elapsed_fast = fast_sweep
    _, elapsed_all = all_eps_sweep
    gap = report.errors["gamma_gap"]
    slope, residual = conv.fit_rate(gap, list(EPSILONS))
    total = elapsed_fast + elapsed_all
    ok = slope >= 0.4 and total <= 900.0
    verdict(6, "boundary gap follows the square-root law", ok,
            f"slope {slope:.3f} (residual {residual:.3f}), "
            f"sweeps {total:.0f}s")


def test_criterion_7_micro_to_macro_convergence(fast_sweep):
    report, _ = fast_sweep
    ok = all(report.monotone[name] for name in ("c1", "c2", "c3"))
    detail = "; ".join(
        f"{name}: " + " > ".join(f"{v:.5f}" for v in report.errors[name])
        for name in ("c1", "c2", "c3"))
    verdict(7, "micro-macro errors strictly decrease in epsilon", ok, detail)


def test_criterion_8_scaling_contrast(fast_sweep, all_eps_sweep):
    fast, _ = fast_sweep
    slow, _ = all_eps_sweep
    f_gap = fast.errors["gamma_gap"]
    s_gap = slow.errors["gamma_gap"]
    fast_factor = f_gap[0] / f_gap[-1]
    slow_factor = s_gap[0] / s_gap[-1]
    ok = fast_factor > 1.5 and slow_factor <= 1.5
    verdict(8, "fast and slow boundary scalings are distinguishable", ok,
            f"fast decrease x{fast_factor:.2f}, "
            f"all-eps decrease x{slow_factor:.2f}")


def test_criterion_9_positivity_and_uniform_bounds(fast_sweep, all_eps_sweep):
    ok = True
    details = []
    for label, (report, _) in (("fast", fast_sweep), ("all_eps", all_eps_sweep)):
        mins = [min(d["min"].values()) for d in report.meta["diagnostics"]]
        ok = ok and all(m >= -1e-8 for m in mins)
        for name in ("c1", "c2", "c3"):
            peaks = [d["max"][name] for d in report.meta["diagnostics"]]
            spread = max(peaks) / min(peaks) - 1.0
            ok = ok and spread <= 0.10
            details.append(f"{label}.{name} spread {spread:.3f}")
        macro_min = min(report.meta["macro_min"].values())
        ok = ok and macro_min >= -1e-8
        details.append(f"{label} min {min(mins):.1e}")
    verdict(9, "nonnegativity and uniform boundedness monitors", ok,
            "; ".join(details))


def test_criterion_10_determinism(tmp_path):
    config = {
        "geometry": {"inclusion": {"shape": "disc", "center": [0.5, 0.5],
                                   "radius": 0.25}},
        "coefficients": {"d1": 1.0, "d2": [[2, 0], [0, 1]], "d3": 1.0},
        "kinetics": "mm_triple+langmuir:a=1,b=1",
        "cell": {"h": 0.125, "s_grid": [0.0, 0.5, 1.0, 1.5],
                 "lambda_macro": 1.5},
        "sweep": {"epsilons": [0.25, 0.125], "dt": 2e-3, "t_end": 0.01,
                  "macro_h": 1 / 16, "snapshot_every": 1},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for tag, threads in (("a", "1"), ("b", "3")):
        outdir = tmp_path / tag
        code = cli.main(["sweep", "--config", str(cfg_path),
                         "--out", str(outdir), "--threads", threads])
        assert code == 0
        outs.append(outdir)
    mismatched = []
    files = sorted(os.listdir(outs[0]))
    for fname in files:
        if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
            mismatched.append(fname)
    # rerun from the materialized manifest must also reproduce bytes
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    cfg2 = tmp_path / "rerun.json"
    cfg2.write_text(json.dumps(manifest["config"]))
    outdir = tmp_path / "c"
    assert cli.main(["sweep", "--config", str(cfg2),
                     "--out", str(outdir)]) == 0
    for fname in files:
        if (outs[0] / fname).read_bytes() != (outdir / fname).read_bytes():
            mismatched.append("rerun:" + fname)
    verdict(10, "byte-identical reruns at any thread count",
            not mismatched, f"{len(files)} files compared"
            + ("" if not mismatched else f"; mismatches: {mismatched}"))


def test_all_eps_pair_tends_to_the_variant_model(disc):
    # Under all_eps the pair does not merge: its limit is the three-field
    # variant, whose exchange is a volume term weighted by |Gamma|/|Y*|.
    # The acceptance data with c2 starting at zero, so that the exchange
    # carries the pair apart from the start. Final-time L2 errors of
    # micro runs against MacroVariantSolver at eps = 1/4, 1/8, 1/16:
    # c1 5.08e-3, 2.49e-3, 1.25e-3 (ratios 2.04, 2.00);
    # c2 1.62e-4, 7.97e-5, 4.06e-5 (ratios 2.04, 1.96);
    # c3 5.32e-3, 2.61e-3, 1.31e-3 (ratios 2.04, 2.00).
    # With |Gamma|/|Y*| scaled by 1.1 the c2 ratios fall to 1.21, 1.06; with
    # the micro exchange factor dt eps^2 for dt eps, to 0.85, 0.93. (With c2
    # starting as a bump the pair stays close, and neither shows.)
    problem = sweep_problem(disc, micro.Scaling.ALL_EPS)

    def zero(x, y):
        return np.zeros_like(x)

    ctx = cell.CellContext.from_mesh(
        geo.build_unit_cell_mesh(disc, problem.cell_h))
    d1, d2, d3 = (cell.scalar_tensor_with_check(ctx, d)[0].matrix
                  for d in (problem.d1, problem.d2, problem.d3))
    mesh = geo.build_macro_mesh(problem.domain, problem.macro_h)
    x, y = mesh.nodes.T
    # the first and last snapshots only
    steps = round(problem.t_end / problem.dt)
    limit = macro.MacroVariantSolver(mesh, macro.VariantConfig(
        dt=problem.dt, t_end=problem.t_end, d1=d1, d2=d2, d3=d3,
        kinetics=problem.kinetics, gamma_length=ctx.gamma_length,
        cell_area=ctx.area, snapshot_every=steps)).run(
        macro.VariantState(0.0, bump(x, y), zero(x, y), bump(x, y))).final
    errors = {name: [] for name in ("c1", "c2", "c3")}
    for eps in EPSILONS:
        eps_mesh = geo.build_epsilon_mesh(
            geo.EpsilonDomainSpec(problem.domain, eps, disc),
            eps * problem.cell_h)
        solver = micro.MicroSolver(eps_mesh, eps, micro.MicroConfig(
            dt=problem.dt, t_end=problem.t_end, d1=problem.d1,
            d2=problem.d2, d3=problem.d3, kinetics=problem.kinetics,
            scaling=problem.scaling, snapshot_every=steps))
        final = solver.run(micro.initial_state(eps_mesh, bump, zero,
                                               bump)).final
        restrict = P1Interpolator(mesh, eps_mesh.nodes)
        for name, errs in errors.items():
            errs.append(fem.mass_norm(solver.M, getattr(final, name)
                                      - restrict(getattr(limit, name))))
    ratios = {name: [a / b for a, b in zip(errs, errs[1:])]
              for name, errs in errors.items()}
    assert all(r >= 1.7 for rs in ratios.values() for r in rs), ratios
