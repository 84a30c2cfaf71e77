import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from porodiff import cell, fem, geometry as geo, kinetics as kin, macro
from porodiff.errors import (NonFiniteValueError, PositivityViolationError,
                             TableRangeError)
from porodiff.interpolate import P1Interpolator


def identity_table(s_max=2.0):
    return cell.DispersionTable.constant(np.eye(2), s_max=s_max)


def heat_config(dt=1e-3, t_end=0.02, **kw):
    kw.setdefault("lambda_macro", 1.0)
    return macro.MacroConfig(dt=dt, t_end=t_end, d0=np.eye(2),
                             btable=identity_table(), kinetics=kin.zero_kinetics(),
                             gamma_length=0.0, cell_area=1.0, **kw)


def nan_f3_kinetics():
    nan = lambda s1, s2, s3: np.full(np.shape(s3), np.nan)
    return dataclasses.replace(kin.zero_kinetics(), f3=nan)


def sine_mode(mesh):
    x, y = mesh.nodes.T
    return np.sin(np.pi * x) * np.sin(np.pi * y)


@pytest.fixture(scope="module")
def mesh32():
    return geo.build_macro_mesh(geo.RectUnion.unit_square(), 1 / 32)


class TestMacroStep:
    def test_zero_data_stays_zero(self, macro_mesh_16):
        solver = macro.MacroSolver(macro_mesh_16, heat_config())
        state = macro.MacroState(0.0, np.zeros(macro_mesh_16.n_nodes),
                                 np.zeros(macro_mesh_16.n_nodes))
        traj = solver.run(state)
        assert np.abs(traj.final.c).max() == 0.0
        assert np.abs(traj.final.c3).max() == 0.0

    def test_analytic_decay_rates(self, mesh32):
        # with unit tensors the pair field decays at pi^2 (doubled time
        # weight) and the slow field at 2 pi^2
        cfg = heat_config(dt=1e-3, t_end=0.02)
        solver = macro.MacroSolver(mesh32, cfg)
        mode = sine_mode(mesh32)
        traj = solver.run(macro.MacroState(0.0, mode.copy(), mode.copy()))
        T = traj.times[-1]
        M = solver.M
        c_exact = math.exp(-math.pi ** 2 * T) * mode
        c3_exact = math.exp(-2 * math.pi ** 2 * T) * mode
        ec = fem.mass_norm(M, traj.final.c - c_exact) / fem.mass_norm(M, c_exact)
        e3 = fem.mass_norm(M, traj.final.c3 - c3_exact) / fem.mass_norm(M, c3_exact)
        assert ec <= 0.05
        assert e3 <= 0.05
        rate_c = -math.log(traj.series["norm_c"][-1]
                           / traj.series["norm_c"][0]) / T
        rate_c3 = -math.log(traj.series["norm_c3"][-1]
                            / traj.series["norm_c3"][0]) / T
        assert abs(rate_c3 / rate_c - 2.0) < 0.05

    def test_dispersion_matrix_symmetric_under_varying_field(self,
                                                             macro_mesh_16):
        table = cell.DispersionTable(
            np.array([0.0, 2.0]),
            np.stack([np.eye(2), np.array([[2.0, 0.3], [0.3, 1.0]])]))
        cfg = heat_config()
        cfg = dataclasses.replace(cfg, btable=table)
        solver = macro.MacroSolver(macro_mesh_16, cfg)
        c3 = 2.0 * macro_mesh_16.nodes[:, 0] * (1 - macro_mesh_16.nodes[:, 0])
        mats = solver.dispersion_matrices(c3)
        K_B = fem.assemble_stiffness_elementwise(macro_mesh_16, mats)
        assert np.abs((K_B - K_B.T).toarray()).max() <= 1e-12
        assert float(np.abs(mats - mats[0]).max()) > 0.0

    def test_table_range_error(self, macro_mesh_16):
        cfg = heat_config(lambda_macro=0.5)
        cfg = dataclasses.replace(cfg, btable=identity_table(s_max=0.5))
        solver = macro.MacroSolver(macro_mesh_16, cfg)
        state = macro.MacroState(0.0, sine_mode(macro_mesh_16),
                                 2.0 * sine_mode(macro_mesh_16))
        with pytest.raises(TableRangeError):
            solver.step(state)

    def test_config_requires_coverage(self, macro_mesh_16):
        cfg = heat_config(lambda_macro=5.0)
        with pytest.raises(TableRangeError):
            macro.MacroSolver(macro_mesh_16, cfg)

    def test_coverage_tolerance_is_1e_12(self, macro_mesh_16):
        s_max = identity_table().s_max
        macro.MacroSolver(macro_mesh_16,
                          heat_config(lambda_macro=s_max + 1e-13))
        with pytest.raises(TableRangeError):
            macro.MacroSolver(macro_mesh_16,
                              heat_config(lambda_macro=s_max + 1e-9))

    def test_step_balance_identity(self, macro_mesh_16):
        # theta = 1 free-dof balance: 2M dc + dt K c_new = dt M f
        k = kin.parse_kinetics("mm_triple")
        cfg = heat_config(dt=1e-3, t_end=1e-3)
        cfg = dataclasses.replace(cfg, kinetics=k)
        solver = macro.MacroSolver(macro_mesh_16, cfg)
        mode = sine_mode(macro_mesh_16)
        state = macro.MacroState(0.0, mode.copy(), mode.copy())
        new = solver.step(state)
        mats = solver.dispersion_matrices(state.c3)
        K_B = fem.assemble_stiffness_elementwise(macro_mesh_16, mats)
        f1, f2, _ = macro.averaged_rates(k, solver.gamma_over_cell,
                                         (state.c, state.c, state.c3))
        f = f1 + f2
        r = (2.0 * (solver.M @ (new.c - state.c))
             + cfg.dt * (K_B @ new.c) - cfg.dt * (solver.M @ f))
        free = solver.reducer.kept
        scale = np.linalg.norm(2.0 * (solver.M @ state.c))
        assert np.linalg.norm(r[free]) / scale <= 1e-10


    def test_held_preconditioner_matches_direct_solve(self, macro_mesh_16,
                                                      coarse_ctx,
                                                      identity_field,
                                                      aniso_field):
        k = kin.parse_kinetics("mm_triple+langmuir:a=1,b=1")
        table = cell.tabulate_b(coarse_ctx, identity_field, aniso_field, k.h,
                                (0.0, 0.5, 1.0, 2.0))
        cfg = dataclasses.replace(heat_config(), btable=table, kinetics=k)
        solver = macro.MacroSolver(macro_mesh_16, cfg)
        mode = sine_mode(macro_mesh_16)
        state = macro.MacroState(0.0, mode.copy(), 1.5 * mode)
        red = solver.reducer
        for _ in range(25):
            K_B = fem.assemble_stiffness_elementwise(
                macro_mesh_16, solver.dispersion_matrices(state.c3))
            f1, f2, _ = macro.averaged_rates(k, solver.gamma_over_cell,
                                             (state.c, state.c, state.c3))
            b = (2.0 * (solver.M @ state.c) + cfg.dt * (solver.M @ (f1 + f2)))
            A_r = red.restrict(2.0 * solver.M + cfg.dt * K_B)
            direct = red.expand(spla.spsolve(A_r.tocsc(), red.reduce_rhs(b)))
            state = solver.step(state)
            assert np.abs(state.c - direct).max() \
                <= 1e-9 * np.abs(direct).max()
        assert solver.held.refactors == 0

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_step_operator_is_the_reduced_sum(self, macro_mesh_16, theta,
                                              monkeypatch, same_csr):
        # A_r that a step solves is P'(2M + theta dt K_B(c3))P, bitwise
        table = cell.DispersionTable(
            np.array([0.0, 2.0]),
            np.stack([np.eye(2), np.array([[2.0, 0.3], [0.3, 1.0]])]))
        cfg = macro.MacroConfig(
            dt=1e-3, t_end=0.02, d0=np.eye(2), btable=table,
            kinetics=kin.zero_kinetics(), gamma_length=0.0, cell_area=1.0,
            theta=theta, lambda_macro=2.0)
        solver = macro.MacroSolver(macro_mesh_16, cfg)
        solved = []
        pcg = fem.pcg

        def record(A, b, *args, **kwargs):
            solved.append(A)
            return pcg(A, b, *args, **kwargs)

        monkeypatch.setattr(fem, "pcg", record)
        mode = sine_mode(macro_mesh_16)
        c3 = 2.0 * mode
        solver.step(macro.MacroState(0.0, mode, c3))
        K_B = fem.assemble_stiffness_elementwise(
            macro_mesh_16, solver.dispersion_matrices(c3))
        want = solver.reducer.restrict(
            (2.0 * solver.M + theta * cfg.dt * K_B).tocsr())
        assert len(solved) == 1 and same_csr(solved[0], want)

    def test_theta_outside_the_scheme_rejected(self, macro_mesh_16):
        for theta in (-1.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match="theta"):
                macro.MacroSolver(macro_mesh_16, heat_config(theta=theta))

    def test_c3_jump_refactors_once(self, macro_mesh_16):
        table = cell.DispersionTable(np.array([0.0, 1.0]),
                                     np.stack([np.eye(2), 1e4 * np.eye(2)]))
        solver = macro.MacroSolver(
            macro_mesh_16, dataclasses.replace(heat_config(), btable=table))
        # rough data, so that CG sees the whole spectrum of the jump
        c = np.random.default_rng(5).uniform(0.0, 1.0, macro_mesh_16.n_nodes)
        state = macro.MacroState(0.0, c, np.zeros_like(c))
        refactors = []
        for c3 in [np.zeros_like(c)] * 3 + [np.ones_like(c)] * 3:
            state = solver.step(macro.MacroState(state.t, state.c, c3))
            refactors.append(solver.held.refactors)
        assert refactors == [0, 0, 0, 1, 1, 1]

    def test_factors_owned_by_the_solver(self, macro_mesh_16):
        cached = len(fem._factor_cache)
        solver = macro.MacroSolver(macro_mesh_16, heat_config())
        mode = sine_mode(macro_mesh_16)
        solver.step(macro.MacroState(0.0, mode, mode))
        assert len(fem._factor_cache) == cached
        refs = [weakref.ref(solver.A3_handle), weakref.ref(solver.held.handle)]
        del solver
        gc.collect()
        assert all(r() is None for r in refs)

    def test_non_finite_rate_fails_at_once(self, macro_mesh_16):
        cfg = dataclasses.replace(heat_config(), kinetics=nan_f3_kinetics())
        solver = macro.MacroSolver(macro_mesh_16, cfg)
        mode = sine_mode(macro_mesh_16)
        with pytest.raises(NonFiniteValueError, match="f3.* at t=0"):
            solver.step(macro.MacroState(0.0, mode.copy(), mode.copy()))


class TestMacroRun:
    def test_mass_nonincreasing_zero_kinetics(self, macro_mesh_16):
        solver = macro.MacroSolver(macro_mesh_16, heat_config())
        mode = sine_mode(macro_mesh_16)
        traj = solver.run(macro.MacroState(0.0, mode.copy(), mode.copy()))
        assert all(b <= a + 1e-12 for a, b in
                   zip(traj.series["mass_c"], traj.series["mass_c"][1:]))

    def test_positivity_with_mm_kinetics(self, macro_mesh_16):
        k = kin.parse_kinetics("mm_triple+langmuir:a=1,b=1")
        cfg = heat_config(dt=1e-3, t_end=0.02)
        cfg = dataclasses.replace(cfg, kinetics=k)
        solver = macro.MacroSolver(macro_mesh_16, cfg)
        mode = sine_mode(macro_mesh_16)
        traj = solver.run(macro.MacroState(0.0, mode.copy(), mode.copy()))
        assert traj.min_over_run("c") >= -1e-8
        assert traj.min_over_run("c3") >= -1e-8

    def test_dt_self_convergence(self, macro_mesh_16):
        mode = sine_mode(macro_mesh_16)
        finals = {}
        for dt in (4e-3, 2e-3, 1e-3, 5e-4):
            cfg = heat_config(dt=dt, t_end=0.02)
            solver = macro.MacroSolver(macro_mesh_16, cfg)
            traj = solver.run(macro.MacroState(0.0, mode.copy(), mode.copy()))
            finals[dt] = traj.final.c
        ref = finals[5e-4]
        errs = [np.abs(finals[dt] - ref).max() for dt in (4e-3, 2e-3)]
        order = math.log(errs[0] / errs[1]) / math.log(2)
        assert order >= 0.7

    def test_positivity_policies(self, macro_mesh_16):
        neg_rate = (
            lambda s1, s2, s3: -50.0 * np.ones_like(np.asarray(s1, float)))
        bad = dataclasses.replace(kin.zero_kinetics(), f1=neg_rate,
                                  f2=neg_rate)
        mode = sine_mode(macro_mesh_16)

        cfg = dataclasses.replace(heat_config(dt=1e-2, t_end=1e-2),
                                  kinetics=bad,
                                  positivity=macro.PositivityPolicy.REJECT)
        with pytest.raises(PositivityViolationError):
            macro.MacroSolver(macro_mesh_16, cfg).run(
                macro.MacroState(0.0, mode.copy(), mode.copy()))

        cfg = dataclasses.replace(cfg,
                                  positivity=macro.PositivityPolicy.MONITOR)
        traj = macro.MacroSolver(macro_mesh_16, cfg).run(
            macro.MacroState(0.0, mode.copy(), mode.copy()))
        assert any(e["kind"] == "positivity" for e in traj.events)
        assert traj.min_over_run("c") < -1e-8

        cfg = dataclasses.replace(cfg, positivity=macro.PositivityPolicy.CLAMP)
        traj = macro.MacroSolver(macro_mesh_16, cfg).run(
            macro.MacroState(0.0, mode.copy(), mode.copy()))
        assert traj.final.c.min() >= 0.0

    def test_table_refinement_consistency(self, macro_mesh_16, coarse_ctx,
                                          identity_field, aniso_field):
        lang = lambda s: np.maximum(s, 0.0) / (1.0 + np.maximum(s, 0.0))
        problem = cell.CoupledCellProblem(coarse_ctx, identity_field,
                                          aniso_field)
        rough = problem.table(lang, (0.0, 1.0, 2.0))
        fine = cell.tabulate_b(coarse_ctx, identity_field, aniso_field, lang,
                               (0.0, 0.5, 1.0, 1.5, 2.0))
        mode = sine_mode(macro_mesh_16)
        finals = []
        for table in (rough, fine):
            cfg = heat_config(dt=1e-3, t_end=0.02)
            cfg = dataclasses.replace(cfg, btable=table,
                                      d0=np.eye(2))
            solver = macro.MacroSolver(macro_mesh_16, cfg)
            traj = solver.run(macro.MacroState(0.0, mode.copy(), mode.copy()))
            finals.append(traj.final.c)
        diff = np.abs(finals[0] - finals[1]).max()
        bound = 10.0 * problem.midpoint_error(lang, rough) * (0.02 / 1e-3)
        assert diff <= bound

    def test_csv_header(self, macro_mesh_16, tmp_path):
        solver = macro.MacroSolver(macro_mesh_16, heat_config(t_end=2e-3))
        mode = sine_mode(macro_mesh_16)
        traj = solver.run(macro.MacroState(0.0, mode.copy(), mode.copy()))
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == ("t,norm_c,norm_c3,min_c,min_c3,max_c,max_c3,"
                          "mass_c,mass_c3")


class TestVariant:
    def make_cfg(self, kinetics, gamma_over=1.0, dt=1e-3, t_end=0.02,
                 d1=None, d2=None):
        return macro.VariantConfig(
            dt=dt, t_end=t_end,
            d1=np.eye(2) if d1 is None else d1,
            d2=np.eye(2) if d2 is None else d2,
            d3=np.eye(2), kinetics=kinetics,
            gamma_length=gamma_over, cell_area=1.0)

    def test_zero_exchange_decouples(self, macro_mesh_16):
        mode = sine_mode(macro_mesh_16)
        cfg = self.make_cfg(kin.zero_kinetics())
        solver = macro.MacroVariantSolver(macro_mesh_16, cfg)
        traj = solver.run(macro.VariantState(0.0, mode.copy(), 2 * mode,
                                             0.5 * mode))
        # each field is an independent implicit heat solve
        M = solver.M
        A = (M + cfg.dt * fem.assemble_stiffness(
            macro_mesh_16, fem.CoefficientField.constant(cfg.d1))).tocsr()
        red = solver.reducer
        c = mode.copy()
        A_r = red.restrict(A)
        for _ in range(int(round(cfg.t_end / cfg.dt))):
            c = red.expand(fem.splu_factor(A_r).solve(red.reduce_rhs(M @ c)))
        assert np.abs(traj.final.c1 - c).max() < 1e-10

    def test_symmetric_pair_stays_equal(self, macro_mesh_16):
        mode = sine_mode(macro_mesh_16)
        k = kin.parse_kinetics("mm_triple+langmuir:a=1,b=1")
        cfg = self.make_cfg(k)
        solver = macro.MacroVariantSolver(macro_mesh_16, cfg)
        traj = solver.run(macro.VariantState(0.0, mode.copy(), mode.copy(),
                                             mode.copy()))
        assert np.array_equal(traj.final.c1, traj.final.c2)

    def test_large_exchange_contracts_gap(self, macro_mesh_16):
        mode = sine_mode(macro_mesh_16)
        k = dataclasses.replace(kin.zero_kinetics(),
                                h=lambda s: 50.0 * np.ones_like(
                                    np.asarray(s, float)),
                                l=50.0, lip=1.0)
        cfg = self.make_cfg(k, gamma_over=2.0)
        solver = macro.MacroVariantSolver(macro_mesh_16, cfg)
        traj = solver.run(macro.VariantState(0.0, mode.copy(), 2 * mode,
                                             mode.copy()))
        gaps = [fem.mass_norm(solver.M, f["c1"] - f["c2"])
                for _, f in traj.snapshots]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_c3_shares_a_field_factor(self, macro_mesh_16, factorize_calls):
        cfg = self.make_cfg(kin.zero_kinetics(), d2=np.diag([2.0, 1.0]))
        solver = macro.MacroVariantSolver(macro_mesh_16, cfg)
        assert solver.A3_handle is solver.exchange.factors[0]
        assert len(factorize_calls) == 2
        own = macro.MacroVariantSolver(
            macro_mesh_16, dataclasses.replace(cfg, d3=3.0 * np.eye(2)))
        assert not any(own.A3_handle is f for f in own.exchange.factors)
        assert len(factorize_calls) == 5

    def test_step_exchange_is_the_restricted_weighted_mass(
            self, macro_mesh_16, monkeypatch, same_csr):
        k = kin.parse_kinetics("mm_triple+langmuir:a=1,b=1")
        cfg = self.make_cfg(k, gamma_over=2.0, d2=np.diag([2.0, 1.0]))
        solver = macro.MacroVariantSolver(macro_mesh_16, cfg)
        used = []
        solve = fem.solve_exchange_block

        def record(block, Cr, *args, **kwargs):
            used.append(Cr)
            return solve(block, Cr, *args, **kwargs)

        monkeypatch.setattr(fem, "solve_exchange_block", record)
        mode = sine_mode(macro_mesh_16)
        solver.step(macro.VariantState(0.0, mode, 2 * mode, 1.5 * mode))
        want = solver.reducer.restrict(
            (cfg.dt * solver.gamma_over_cell)
            * fem.assemble_weighted_mass(macro_mesh_16, k.h(1.5 * mode)))
        assert len(used) == 1 and same_csr(used[0], want)

    def test_constant_exchange_in_closed_form(self):
        # With a constant exchange rate kappa and zero reactions, a discrete
        # Dirichlet eigenvector v (K_r v = lam M_r v) spans both fields:
        # c1 = alpha_n v, c2 = beta_n v, where (alpha, beta) takes one
        # 2 x 2 backward-Euler solve per step with g = dt kappa |Gamma|/|Y|.
        # Measured: 2.2e-14 (c1) and 3.5e-14 (c2) relative, lam = 50.98.
        mesh = geo.build_macro_mesh(geo.RectUnion.unit_square(), 1 / 8)
        kappa, gamma_length, cell_area, dt, a, b = 3.0, 1.5, 0.8, 1e-2, 1.0, 2.5
        red = fem.DirichletReducer(mesh.n_nodes,
                                   mesh.nodes_with(geo.EdgeMarker.OUTER))
        K_r = red.restrict(fem.assemble_stiffness(
            mesh, fem.CoefficientField.isotropic(1.0)))
        M_r = red.restrict(fem.assemble_mass(mesh))
        lams, vecs = scipy.linalg.eigh(K_r.toarray(), M_r.toarray(),
                                       subset_by_index=[1, 1])
        lam, v = lams[0], red.expand(vecs[:, 0])
        k = dataclasses.replace(
            kin.zero_kinetics(),
            h=lambda s: kappa * np.ones_like(np.asarray(s, float)))
        solver = macro.MacroVariantSolver(mesh, macro.VariantConfig(
            dt=dt, t_end=10 * dt, d1=a * np.eye(2), d2=b * np.eye(2),
            d3=np.eye(2), kinetics=k, gamma_length=gamma_length,
            cell_area=cell_area))
        traj = solver.run(macro.VariantState(0.0, v.copy(), -0.5 * v,
                                             v.copy()))
        g = dt * kappa * gamma_length / cell_area
        step = np.array([[1 + dt * a * lam + g, -g],
                         [-g, 1 + dt * b * lam + g]])
        amp = np.array([1.0, -0.5])
        for _ in range(10):
            amp = np.linalg.solve(step, amp)
        for got, want in ((traj.final.c1, amp[0] * v),
                          (traj.final.c2, amp[1] * v)):
            assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    def test_finals_converge_at_second_order_in_h(self):
        # The acceptance data (d2 = diag(2, 1), |Gamma| = pi/2,
        # |Y*| = 1 - pi/16, bump initial fields), dt = 1e-3, T = 0.02, on
        # macro meshes h = 1/4 to 1/64. Each coarse final is interpolated
        # onto the next finer mesh; the mass norms of the differences
        # shrank by 3.957 to 3.998 for c1, c2 and c3 at each halving.
        cfg = self.make_cfg(
            kin.parse_kinetics("mm_triple+langmuir:a=1,b=1"),
            d2=np.diag([2.0, 1.0]))
        cfg = dataclasses.replace(cfg, gamma_length=math.pi / 2,
                                  cell_area=1 - math.pi / 16,
                                  snapshot_every=10 ** 6)
        runs = []
        for n in (4, 8, 16, 32, 64):
            mesh = geo.build_macro_mesh(geo.RectUnion.unit_square(), 1 / n)
            x, y = mesh.nodes.T
            c = 16.0 * x * (1 - x) * y * (1 - y)
            solver = macro.MacroVariantSolver(mesh, cfg)
            final = solver.run(macro.VariantState(0.0, c, c.copy(),
                                                  c.copy())).final
            runs.append((mesh, solver.M, final))
        for name in ("c1", "c2", "c3"):
            d = [fem.mass_norm(M, getattr(fine, name) - P1Interpolator(
                     coarse_mesh, mesh.nodes)(getattr(coarse, name)))
                 for (coarse_mesh, _, coarse), (mesh, M, fine)
                 in zip(runs, runs[1:])]
            ratios = np.divide(d[:-1], d[1:])
            assert np.all((ratios >= 3.5) & (ratios <= 4.5)), (name, ratios)

    def test_non_finite_rate_fails_at_once(self, macro_mesh_16):
        solver = macro.MacroVariantSolver(
            macro_mesh_16, self.make_cfg(nan_f3_kinetics()))
        mode = sine_mode(macro_mesh_16)
        with pytest.raises(NonFiniteValueError, match="f3 .* at t=0"):
            solver.step(macro.VariantState(0.0, mode, mode, mode))


def source_kinetics(g_c, g_c3):
    """Zero kinetics whose f1 and f3 return the fixed nodal fields g_c and
    g_c3, so a step loads M g_c into the c solve and M g_c3 into the c3
    solve."""
    return dataclasses.replace(
        kin.zero_kinetics(), f1=lambda s1, s2, s3: g_c,
        f3=lambda s1, s2, s3: g_c3)


def steady_sanity(mesh, d0, btable, case="slow_sine", dt=0.01):
    """Drive manufactured steady states and report recovery errors
    (manufactured solutions: Roache, J. Fluids Eng. 2002).

    ``zero``: zero source must stay identically zero. ``slow_sine``: the
    slow field recovers a product-of-sines steady state against its analytic
    source. ``coupled``: both fields recover nodal targets whose sources come
    from the discrete operators themselves, so the steady residual is bounded
    by the residual tolerance ``fem.RESIDUAL_TOL``. A run is steady when the
    largest rate of change falls below 1e-10, and stops after 20000 steps.
    """
    steady_tol, max_steps = 1e-10, 20000
    target_c3 = sine_mode(mesh)
    M = fem.assemble_mass(mesh)

    def make_solver(kinetics):
        return macro.MacroSolver(mesh, macro.MacroConfig(
            dt=dt, t_end=dt * max_steps, d0=d0, btable=btable,
            kinetics=kinetics, gamma_length=0.0, cell_area=1.0))

    def run_to_steady(solver):
        """(final state, steps): step from zero until steady."""
        state = macro.MacroState(0.0, np.zeros(mesh.n_nodes),
                                 np.zeros(mesh.n_nodes))
        steps = 0
        while steps < max_steps:
            prev, state = state, solver.step(state)
            steps += 1
            rate = max(np.abs(state.c - prev.c).max(),
                       np.abs(state.c3 - prev.c3).max()) / dt
            if rate < steady_tol:
                break
        return state, steps

    report = {"case": case}
    if case == "zero":
        final, _ = run_to_steady(make_solver(kin.zero_kinetics()))
        report["final_max"] = float(max(np.abs(final.c).max(),
                                        np.abs(final.c3).max()))
    elif case == "slow_sine":
        d0 = np.asarray(d0, dtype=float)
        source = (d0[0, 0] + d0[1, 1]) * np.pi ** 2 * target_c3
        final, report["steps"] = run_to_steady(
            make_solver(source_kinetics(np.zeros(mesh.n_nodes), source)))
        report["l2_error"] = fem.mass_norm(M, final.c3 - target_c3)
    elif case == "coupled":
        target_c = 0.5 * target_c3
        solver = make_solver(kin.zero_kinetics())
        K_B = fem.assemble_stiffness_elementwise(
            mesh, solver.dispersion_matrices(target_c3))
        K3 = solver.K3
        src_c, src_c3 = K_B @ target_c, K3 @ target_c3
        M_lu = spla.splu(M.tocsc())
        solver = make_solver(source_kinetics(M_lu.solve(src_c),
                                             M_lu.solve(src_c3)))
        final, _ = run_to_steady(solver)
        K_Bf = fem.assemble_stiffness_elementwise(
            mesh, solver.dispersion_matrices(final.c3))
        free = solver.reducer.kept
        res_c = (K_Bf @ final.c - src_c)[free]
        res_c3 = (K3 @ final.c3 - src_c3)[free]
        report["steady_residual"] = float(
            max(np.linalg.norm(res_c), np.linalg.norm(res_c3))
            / max(np.linalg.norm(src_c), 1e-300))
        report["l2_error_c"] = fem.mass_norm(M, final.c - target_c)
        report["l2_error_c3"] = fem.mass_norm(M, final.c3 - target_c3)
    else:
        raise ValueError(f"unknown steady_sanity case {case!r}")
    return report


class TestSteadySanity:
    def test_zero(self, macro_mesh_16):
        rep = steady_sanity(macro_mesh_16, np.eye(2), identity_table(),
                            case="zero")
        assert rep["final_max"] == 0.0

    def test_slow_sine_second_order(self):
        reports = [
            steady_sanity(
                geo.build_macro_mesh(geo.RectUnion.unit_square(), h),
                np.eye(2), identity_table(), case="slow_sine", dt=0.05)
            for h in (1 / 8, 1 / 16)
        ]
        ratio = reports[0]["l2_error"] / reports[1]["l2_error"]
        assert ratio >= 3.0

    def test_coupled_residual(self, macro_mesh_16, coarse_ctx, identity_field,
                              aniso_field):
        lang = lambda s: np.maximum(s, 0.0) / (1.0 + np.maximum(s, 0.0))
        table = cell.tabulate_b(coarse_ctx, identity_field, aniso_field, lang,
                                (0.0, 0.5, 1.0, 2.0))
        rep = steady_sanity(macro_mesh_16, np.eye(2), table,
                            case="coupled", dt=0.05)
        assert rep["steady_residual"] <= 10 * 1e-10 + 1e-7


class TestThetaScheme:
    def test_crank_nicolson_more_accurate(self, macro_mesh_16):
        mode = sine_mode(macro_mesh_16)
        T = 0.02
        errs = {}
        for theta in (1.0, 0.5):
            cfg = heat_config(dt=2e-3, t_end=T, theta=theta)
            solver = macro.MacroSolver(macro_mesh_16, cfg)
            traj = solver.run(macro.MacroState(0.0, mode.copy(), mode.copy()))
            # reference at tiny dt for the same spatial discretization
            ref_cfg = heat_config(dt=1e-4, t_end=T, theta=1.0)
            ref = macro.MacroSolver(macro_mesh_16, ref_cfg).run(
                macro.MacroState(0.0, mode.copy(), mode.copy()))
            errs[theta] = np.abs(traj.final.c3 - ref.final.c3).max()
        assert errs[0.5] < 0.2 * errs[1.0]
