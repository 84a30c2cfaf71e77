import dataclasses
import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg

from porodiff import cell, fem, geometry as geo, interpolate, kinetics as kin
from porodiff import micro
from porodiff.errors import (ConfigError, NoConvergenceError,
                             NonFiniteValueError,
                             PointOutsideDomainError)
from porodiff.interpolate import P1Interpolator
from porodiff.trajectory import step_count


def bump(x, y):
    return 16.0 * x * (1 - x) * y * (1 - y)


@pytest.fixture(scope="module")
def eps_mesh(disc_spec):
    spec = geo.EpsilonDomainSpec(geo.RectUnion.unit_square(), 0.25, disc_spec)
    return geo.build_epsilon_mesh(spec, 0.25 / 8)


def heat_cfg(**kw):
    kw.setdefault("dt", 1e-3)
    kw.setdefault("t_end", 0.01)
    kw.setdefault("d1", fem.CoefficientField.isotropic(1.0))
    kw.setdefault("d2", fem.CoefficientField.isotropic(1.0))
    kw.setdefault("d3", fem.CoefficientField.isotropic(1.0))
    kw.setdefault("kinetics", kin.zero_kinetics())
    return micro.MicroConfig(**kw)


class TestMicroStep:
    def test_zero_forever(self, eps_mesh):
        solver = micro.MicroSolver(eps_mesh, 0.25, heat_cfg())
        z = np.zeros(eps_mesh.n_nodes)
        traj = solver.run(micro.MicroState(0.0, z.copy(), z.copy(), z.copy()))
        assert max(np.abs(traj.final.c1).max(),
                   np.abs(traj.final.c3).max()) == 0.0

    def test_zero_exchange_matches_scalar_heat(self, eps_mesh):
        solver = micro.MicroSolver(eps_mesh, 0.25, heat_cfg())
        state = micro.initial_state(eps_mesh, bump, bump, bump)
        traj = solver.run(state)
        # reference: single-field implicit heat stepping with the same data
        M = solver.M
        A = (M + solver.cfg.dt * solver.K[0]).tocsr()
        red = solver.reducer
        c = traj.snapshots[0][1]["c1"].copy()
        A_r = red.restrict(A)
        for _ in range(10):
            c = red.expand(fem.splu_factor(A_r).solve(red.reduce_rhs(M @ c)))
        assert np.abs(traj.final.c1 - c).max() < 1e-9
        assert np.abs(traj.final.c3 - c).max() < 1e-9

    def test_symmetric_invariance_exact(self, eps_mesh):
        k = kin.parse_kinetics("mm_triple+langmuir:a=1,b=1")
        solver = micro.MicroSolver(eps_mesh, 0.25, heat_cfg(kinetics=k))
        state = micro.initial_state(eps_mesh, bump, bump, bump)
        traj = solver.run(state)
        assert np.array_equal(traj.final.c1, traj.final.c2)

    def test_energy_decay_zero_kinetics(self, eps_mesh):
        solver = micro.MicroSolver(eps_mesh, 0.25, heat_cfg(
            d2=fem.CoefficientField.constant(np.diag([2.0, 1.0]))))
        state = micro.initial_state(eps_mesh, bump,
                                    lambda x, y: 2 * bump(x, y), bump)
        traj = solver.run(state)
        energy = [sum(traj.series[f"norm_{n}"][k] ** 2
                      for n in ("c1", "c2", "c3"))
                  for k in range(len(traj.times))]
        assert all(b <= a + 1e-13 for a, b in zip(energy, energy[1:]))

    def test_unperforated_eigenvector_decays_exactly(self):
        # Without inclusions Gamma is empty and the three fields decouple. A
        # discrete Dirichlet eigenvector v (K_r v = lam M_r v) of the
        # identity operator stays one: backward Euler on d = a I scales it
        # by 1 / (1 + dt a lam) per step. Measured: 3e-14 to 5e-14
        # relative, lam = 19.75 (about 2 pi^2).
        spec = geo.EpsilonDomainSpec(geo.RectUnion.unit_square(), 0.25,
                                     geo.InclusionSpec.none())
        mesh = geo.build_epsilon_mesh(spec, 0.25 / 8)
        red = fem.DirichletReducer(mesh.n_nodes,
                                   mesh.nodes_with(geo.EdgeMarker.OUTER))
        K_r = red.restrict(fem.assemble_stiffness(
            mesh, fem.CoefficientField.isotropic(1.0)))
        M_r = red.restrict(fem.assemble_mass(mesh))
        lams, vecs = scipy.linalg.eigh(K_r.toarray(), M_r.toarray(),
                                       subset_by_index=[0, 0])
        lam, v = lams[0], red.expand(vecs[:, 0])
        dt = 1e-3
        solver = micro.MicroSolver(mesh, 0.25, heat_cfg(
            dt=dt, t_end=5 * dt, d2=fem.CoefficientField.isotropic(2.0)))
        state = micro.MicroState(0.0, v.copy(), v.copy(), v.copy())
        for _ in range(5):
            state = solver.step(state)
            assert solver.exchange.held.last_iterations == 1
            assert solver.gamma_gap_norm(state) == 0.0
        for name, a in (("c1", 1.0), ("c2", 2.0), ("c3", 1.0)):
            want = v / (1.0 + dt * a * lam) ** 5
            got = getattr(state, name)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_c3_solve_meets_residual_contract(self, eps_mesh):
        solver = micro.MicroSolver(eps_mesh, 0.25, heat_cfg())
        exact = solver.A3_handle

        class Perturbed:
            def solve(self, b):
                return (1.0 + 1e-6) * exact.solve(b)

        solver.A3_handle = Perturbed()
        state = micro.initial_state(eps_mesh, bump, bump, bump)
        with pytest.raises(NoConvergenceError):
            solver.step(state)

    def test_factors_owned_by_the_solver(self, eps_mesh):
        cached = len(fem._factor_cache)
        solver = micro.MicroSolver(eps_mesh, 0.25, heat_cfg(
            d2=fem.CoefficientField.constant(np.diag([2.0, 1.0]))))
        factors = [solver.A3_handle, *solver.exchange.factors]
        assert all(isinstance(f, fem.LatticeFactor) for f in factors)
        assert len(fem._factor_cache) == cached
        assert not any(f is h for f in factors
                       for h in fem._factor_cache.values())
        refs = [weakref.ref(f) for f in factors]
        del solver, factors
        gc.collect()
        assert all(r() is None for r in refs)

    def test_non_finite_rate_fails_at_once(self, eps_mesh):
        nan = lambda s1, s2, s3: np.full(np.shape(s3), np.nan)
        k = dataclasses.replace(kin.zero_kinetics(), f3=nan)
        solver = micro.MicroSolver(eps_mesh, 0.25, heat_cfg(kinetics=k))
        state = micro.initial_state(eps_mesh, bump, bump, bump)
        with pytest.raises(NonFiniteValueError, match="f3 .* at t=0"):
            solver.step(state)

    def test_t_end_off_the_time_grid_rejected(self, eps_mesh):
        solver = micro.MicroSolver(eps_mesh, 0.25,
                                   heat_cfg(dt=0.004, t_end=0.01))
        z = np.zeros(eps_mesh.n_nodes)
        with pytest.raises(ConfigError, match="multiple of dt"):
            solver.run(micro.MicroState(0.0, z, z, z))

    def test_scaling_factors(self, eps_mesh):
        fast = micro.MicroSolver(eps_mesh, 0.25, heat_cfg(
            scaling=micro.Scaling.FAST_EXCHANGE))
        slow = micro.MicroSolver(eps_mesh, 0.25, heat_cfg(
            scaling=micro.Scaling.ALL_EPS))
        assert abs(fast.exchange_factor - 1e-3 / 0.25) < 1e-15
        assert abs(slow.exchange_factor - 1e-3 * 0.25) < 1e-15

    def test_fine_scale_coefficient_used(self, eps_mesh):
        osc = fem.CoefficientField(
            lambda pts: (1.5 + 0.5 * np.cos(2 * np.pi * pts[:, 0]))[
                :, None, None] * np.eye(2),
            alpha=1.0, beta=2.0)
        solver = micro.MicroSolver(eps_mesh, 0.25, heat_cfg(d1=osc))
        K_osc = solver.K[0]
        K_unit = solver.K[2]
        assert abs((K_osc - 1.5 * K_unit)).max() > 1e-3

    def test_setup_memory_high_water(self, disc_spec):
        # tracemalloc counts numpy's buffers exactly: set-up's high-water
        # against what the solver keeps, on the acceptance data at eps =
        # 1/16 with the mesh built before tracing
        spec = geo.EpsilonDomainSpec(geo.RectUnion.unit_square(), 1 / 16,
                                     disc_spec)
        mesh = geo.build_epsilon_mesh(spec, 1 / 128)
        cfg = heat_cfg(
            d2=fem.CoefficientField.constant(np.diag([2.0, 1.0])),
            kinetics=kin.parse_kinetics("mm_triple+langmuir:a=1,b=1"),
            scaling=micro.Scaling.ALL_EPS)
        tracemalloc.start()
        try:
            solver = micro.MicroSolver(mesh, 1 / 16, cfg)
            kept, high_water = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert high_water <= 1.8 * kept, high_water / kept


class TestExchangePreconditioner:
    """The acceptance data at eps = 1/8: d1 = I, d2 = diag(2, 1), d3 = I."""

    @pytest.fixture(scope="class")
    def mesh(self, disc_spec):
        spec = geo.EpsilonDomainSpec(geo.RectUnion.unit_square(), 1 / 8,
                                     disc_spec)
        return geo.build_epsilon_mesh(spec, 1 / 64)

    def config(self, scaling, d3=None):
        return heat_cfg(
            t_end=2e-3, scaling=scaling,
            d2=fem.CoefficientField.constant(np.diag([2.0, 1.0])),
            d3=d3 or fem.CoefficientField.isotropic(1.0),
            kinetics=kin.parse_kinetics("mm_triple+langmuir:a=1,b=1"))

    @pytest.mark.parametrize("scaling,bound", [
        (micro.Scaling.ALL_EPS, 4), (micro.Scaling.FAST_EXCHANGE, 9)])
    def test_few_iterations_per_exchange_solve(self, mesh, scaling, bound,
                                               factorize_calls,
                                               lattice_factors):
        solver = micro.MicroSolver(mesh, 1 / 8, self.config(scaling))
        state = micro.initial_state(mesh, bump, bump, bump)
        for _ in range(2):
            state = solver.step(state)
            assert solver.exchange.held.last_iterations <= bound
        assert solver.A3_handle is solver.exchange.factors[0]
        assert solver.A3_r is solver.exchange.A1r
        # one lattice factor per field, on one plan, and no SuperLU factor
        assert lattice_factors == [solver.lattice] * 2
        assert factorize_calls == []

    def test_distinct_c3_gets_its_own_factor(self, mesh, factorize_calls,
                                             lattice_factors):
        solver = micro.MicroSolver(mesh, 1 / 8, self.config(
            micro.Scaling.ALL_EPS, d3=fem.CoefficientField.isotropic(3.0)))
        solver.step(micro.initial_state(mesh, bump, bump, bump))
        assert not any(solver.A3_handle is f for f in solver.exchange.factors)
        assert lattice_factors == [solver.lattice] * 3
        assert factorize_calls == []

    @pytest.mark.parametrize("d3,field", [
        (fem.CoefficientField.isotropic(1.0), 0),
        (fem.CoefficientField.constant(np.diag([2.0, 1.0])), 1)])
    def test_c3_equal_to_a_field_shares_its_operators(
            self, mesh, d3, field, factorize_calls, lattice_factors,
            monkeypatch):
        assembled = []
        assemble = fem.assemble_stiffness

        def count(on, coeff, *geometry):
            assembled.append(on)
            return assemble(on, coeff, *geometry)

        monkeypatch.setattr(fem, "assemble_stiffness", count)
        solver = micro.MicroSolver(mesh, 1 / 8, self.config(
            micro.Scaling.ALL_EPS, d3=d3))
        # each distinct operator is assembled once on the mesh and once on
        # the unit cell, for its lattice factor
        assert [id(on) for on in assembled] == [id(mesh)] * 2 + [
            id(mesh.unit)] * 2
        assert len(lattice_factors) == 2
        assert factorize_calls == []
        assert solver.K[2] is solver.K[field]
        assert solver.A3_r is (solver.exchange.A1r,
                               solver.exchange.A2r)[field]
        assert solver.A3_handle is solver.exchange.factors[field]

    @pytest.mark.parametrize("scaling", list(micro.Scaling))
    def test_step_exchange_is_the_restricted_gamma_mass(
            self, mesh, scaling, monkeypatch, same_csr):
        cfg = self.config(scaling)
        solver = micro.MicroSolver(mesh, 1 / 8, cfg)
        used = []
        solve = fem.solve_exchange_block

        def record(block, Cr, *args, **kwargs):
            used.append(Cr)
            return solve(block, Cr, *args, **kwargs)

        monkeypatch.setattr(fem, "solve_exchange_block", record)
        state = micro.initial_state(mesh, bump, bump,
                                    lambda x, y: 1.5 * bump(x, y))
        solver.step(state)
        want = solver.reducer.restrict(
            solver.exchange_factor * fem.assemble_boundary_mass(
                mesh, geo.EdgeMarker.GAMMA, cfg.kinetics.h(state.c3)))
        assert len(used) == 1 and same_csr(used[0], want)

    @pytest.mark.parametrize("scaling", list(micro.Scaling))
    def test_exchange_cancels_in_the_pair_sum(self, mesh, scaling):
        # The exchange flux enters the two pair equations with opposite
        # signs, so on the reduced dofs every step satisfies
        # A1r c1' + A2r c2' = P'(M (c1 + c2) + dt M (f1 + f2)).
        # Measured over 10 steps: worst relative residual 2.49e-14 under
        # fast_exchange and 3.85e-14 under all_eps; a flux with the wrong
        # sign or factor on one side breaks it at O(1).
        solver = micro.MicroSolver(mesh, 1 / 8, self.config(scaling))
        red, M, dt = solver.reducer, solver.M, solver.cfg.dt
        state = micro.initial_state(mesh, bump, bump, bump)
        worst = 0.0
        for _ in range(10):
            f1, f2, _ = solver.rates(state)
            new = solver.step(state)
            rhs = red.reduce_rhs(M @ (state.c1 + state.c2)
                                 + dt * (M @ (f1 + f2)))
            lhs = (solver.exchange.A1r @ red.reduce_rhs(new.c1)
                   + solver.exchange.A2r @ red.reduce_rhs(new.c2))
            worst = max(worst, np.linalg.norm(lhs - rhs)
                        / np.linalg.norm(rhs))
            state = new
        assert worst <= 1e-12


class TestMicroRun:
    def test_gamma_gap_relaxes_fast_exchange(self, eps_mesh):
        k = kin.parse_kinetics("langmuir:a=1,b=1")
        solver = micro.MicroSolver(eps_mesh, 0.25, heat_cfg(
            kinetics=k, t_end=0.05))
        state = micro.initial_state(eps_mesh, bump,
                                    lambda x, y: 2 * bump(x, y), bump)
        traj = solver.run(state)
        gap = traj.series["gamma_gap"]
        assert gap[-1] < 0.25 * gap[0]

    def test_trajectory_csv_columns(self, eps_mesh, tmp_path):
        solver = micro.MicroSolver(eps_mesh, 0.25, heat_cfg(t_end=2e-3))
        state = micro.initial_state(eps_mesh, bump, bump, bump)
        traj = solver.run(state)
        path = tmp_path / "t.csv"
        traj.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("t,norm_c1,norm_c2,norm_c3,min_c1")
        gpath = tmp_path / "g.csv"
        micro.write_gamma_gap_csv(traj, gpath)
        lines = gpath.read_text().splitlines()
        assert lines[0] == "t,norm_c1_minus_c2_on_gamma"
        assert len(lines) == len(traj.times) + 1


class TestRestriction:
    def test_constant_exact(self, eps_mesh, macro_mesh_16):
        vals = micro.restrict_macro_to_micro(
            macro_mesh_16, np.full(macro_mesh_16.n_nodes, 2.5), eps_mesh)
        assert np.abs(vals - 2.5).max() < 1e-12

    def test_linear_exact(self, eps_mesh, macro_mesh_16):
        lin = 2 * macro_mesh_16.nodes[:, 0] - 0.5 * macro_mesh_16.nodes[:, 1]
        vals = micro.restrict_macro_to_micro(macro_mesh_16, lin, eps_mesh)
        exact = 2 * eps_mesh.nodes[:, 0] - 0.5 * eps_mesh.nodes[:, 1]
        assert np.abs(vals - exact).max() < 1e-12

    def test_sine_quadratic_envelope(self, eps_mesh):
        for h in (1 / 16, 1 / 32, 1 / 64):
            mm = geo.build_macro_mesh(geo.RectUnion.unit_square(), h)
            field = np.sin(np.pi * mm.nodes[:, 0]) * np.sin(np.pi * mm.nodes[:, 1])
            vals = micro.restrict_macro_to_micro(mm, field, eps_mesh)
            exact = (np.sin(np.pi * eps_mesh.nodes[:, 0])
                     * np.sin(np.pi * eps_mesh.nodes[:, 1]))
            assert np.abs(vals - exact).max() <= 2.5 * h * h

    def test_point_outside(self, macro_mesh_16):
        with pytest.raises(PointOutsideDomainError):
            P1Interpolator(macro_mesh_16, np.array([[1.5, 0.5]]))

    @staticmethod
    def _first_inside(mm, pts):
        """Scan all triangles in index order, take the first one whose
        smallest barycentric coordinate is >= -tol; its clipped,
        renormalised coordinates."""
        p = mm.nodes[mm.triangles]
        p0 = p[:, 0]
        e1 = p[:, 1] - p0
        e2 = p[:, 2] - p0
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        tri, bary = [], []
        for chunk in np.array_split(pts, -(-len(pts) // 500)):
            rel = chunk[:, None, :] - p0[None]
            l1 = (rel[..., 0] * e2[:, 1] - rel[..., 1] * e2[:, 0]) / det
            l2 = (e1[:, 0] * rel[..., 1] - e1[:, 1] * rel[..., 0]) / det
            lam = np.stack([1.0 - l1 - l2, l1, l2], axis=-1)
            inside = lam.min(axis=-1) >= -interpolate.INSIDE_TOL
            assert inside.any(axis=1).all()
            tri.append(np.argmax(inside, axis=1))
            bary.append(np.clip(lam[np.arange(len(chunk)), tri[-1]], 0.0,
                                None))
        bary = np.vstack(bary)
        bary /= bary.sum(axis=1, keepdims=True)
        return np.concatenate(tri), bary

    def test_location_matches_brute_force(self, monkeypatch, disc_spec):
        rng = np.random.default_rng(7)
        square = geo.RectUnion.unit_square()
        ell = geo.RectUnion.of((0, 0, 1, 0.5), (0, 0.5, 0.5, 1))
        for domain, mm in ((square, geo.build_macro_mesh(square, 1 / 8)),
                           (ell, geo.build_macro_mesh(ell, 1 / 12))):
            tris = mm.triangles
            p = mm.nodes[tris]
            ends = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]],
                              tris[:, [2, 0]]])
            a, b = mm.nodes[ends[:, 0]], mm.nodes[ends[:, 1]]
            on_edges = [(1 - t) * a + t * b for t in (0.5, 1 / 3, 0.1)]
            weights = rng.dirichlet(np.ones(3), len(tris))
            interior = [p.mean(axis=1), np.einsum("tk,tkd->td", weights, p)]
            queries = [np.unique(np.vstack([mm.nodes, *on_edges, *interior]),
                                 axis=0)]
            # the epsilon-mesh nodes that micro runs restrict onto
            for eps in (1 / 4, 1 / 8):
                spec = geo.EpsilonDomainSpec(domain, eps, disc_spec)
                queries.append(geo.build_epsilon_mesh(spec, eps / 8).nodes)
            for pts in queries:
                tri, bary = self._first_inside(mm, pts)
                # the bins only prune candidates: any bin count gives the same
                for density in (1, 2, 5):
                    monkeypatch.setattr(interpolate, "BIN_DENSITY", density)
                    interp = P1Interpolator(mm, pts)
                    assert np.array_equal(interp.tri_idx, tri), density
                    assert np.array_equal(interp.bary, bary), density

    @pytest.mark.parametrize("point", [(np.nan, 0.5), (0.5, np.inf),
                                       (1.5, 0.5)])
    def test_outside_message_prints_plain_floats(self, macro_mesh_16, point):
        pts = np.array([[0.5, 0.5], point])
        with pytest.raises(PointOutsideDomainError) as info:
            P1Interpolator(macro_mesh_16, pts)
        assert str(info.value) == (
            f"point {(float(point[0]), float(point[1]))} lies outside the "
            "source mesh")

    def test_non_finite_point_raises_before_any_cast(self, macro_mesh_16):
        # numpy warns when a nan is cast to an integer bin
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PointOutsideDomainError):
                P1Interpolator(macro_mesh_16, np.array([[np.nan, np.nan]]))


@pytest.mark.parametrize("domain,eps,n_cells", [
    (geo.RectUnion.unit_square(), 0.25, 16),
    (geo.RectUnion.of((0, 0, 1, 0.5), (0, 0.5, 0.5, 1)), 0.125, 48),
])
def test_epsilon_mesh_merges_shared_nodes(disc_spec, domain, eps, n_cells):
    spec = geo.EpsilonDomainSpec(domain, eps, disc_spec)
    mesh = geo.build_epsilon_mesh(spec, eps / 8)
    unit = geo.build_unit_cell_mesh(disc_spec, 1 / 8)
    assert len(np.unique(mesh.nodes, axis=0)) == mesh.n_nodes
    assert np.array_equal(np.unique(mesh.triangles), np.arange(mesh.n_nodes))
    assert (len(mesh.edges_with(geo.EdgeMarker.GAMMA))
            == n_cells * len(unit.edges_with(geo.EdgeMarker.GAMMA)))


class TestDiagnostics:
    def test_h1_accumulator_and_linf_events(self, eps_mesh):
        cfg = heat_cfg(t_end=5e-3)
        solver = micro.MicroSolver(eps_mesh, 0.25, cfg)
        state = micro.initial_state(eps_mesh, bump, bump, bump)
        traj = solver.run(state)
        acc = micro.MicroSolver.h1_accumulator(traj, "c1")
        assert acc > 0.0

    def test_h1_accumulator_bounded_in_eps(self, disc_spec):
        accs = []
        for eps in (1 / 4, 1 / 8):
            spec = geo.EpsilonDomainSpec(geo.RectUnion.unit_square(), eps,
                                         disc_spec)
            mesh = geo.build_epsilon_mesh(spec, eps / 8)
            solver = micro.MicroSolver(mesh, eps, heat_cfg(t_end=5e-3))
            traj = solver.run(micro.initial_state(mesh, bump, bump, bump))
            accs.append(micro.MicroSolver.h1_accumulator(traj, "c1"))
        assert abs(accs[1] / accs[0] - 1.0) < 0.25


@pytest.mark.parametrize("t_end,dt,steps", [
    (4 * 1e-3, 1e-3, 4), (25 * 1e-3, 1e-3, 25), (0.05, 1e-3, 50),
    (0.1, 1e-3, 100), (5e-3, 1e-3, 5), (0.0, 1e-3, 0)])
def test_step_count_on_the_grid(t_end, dt, steps):
    assert step_count(t_end, dt) == steps


@pytest.mark.parametrize("t_end,dt", [
    (0.01, 0.004), (0.0105, 1e-3), (-0.01, 1e-3), (0.05, 0), (0.05, -1e-3),
    (0.05, math.nan), (0.05, math.inf), (math.inf, 1e-3), (math.nan, 1e-3)])
def test_step_count_off_the_grid(t_end, dt):
    with pytest.raises(ConfigError):
        step_count(t_end, dt)


def sine(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def two_scale_errors(ctx, mesh, eps, M, field, decay, chi):
    """(L2, corrected L2, H1, corrected H1) errors of the nodal ``field`` on
    the eps-mesh against the limit u0 = decay sin(pi x) sin(pi y) and
    against u0 - eps chi^j(x/eps) d_j u0, with the cell correctors ``chi``
    pulled back nodally at y = x/eps mod 1. L2 uses the mass matrix ``M``,
    H1 the seminorm of the identity stiffness matrix."""
    x, y = mesh.nodes.T
    u0 = decay * sine(x, y)
    grad = decay * np.pi * np.array([np.cos(np.pi * x) * np.sin(np.pi * y),
                                     np.sin(np.pi * x) * np.cos(np.pi * y)])
    pull = P1Interpolator(ctx.mesh, np.mod(mesh.nodes / eps, 1.0))
    corrected = u0 - eps * sum(pull(chi[j]) * grad[j] for j in range(2))
    K = fem.assemble_stiffness(mesh, fem.CoefficientField.isotropic(1.0))
    out = []
    for limit in (u0, corrected):
        e = field - limit
        out.append((fem.mass_norm(M, e), math.sqrt(e @ (K @ e))))
    (l2, h1), (l2c, h1c) = out
    return l2, l2c, h1, h1c


def two_scale_c3_errors(disc_spec, eps):
    """(L2, corrected L2, H1, corrected H1) errors of the micro c3 after 50
    steps against the homogenized limit u0 and u0 - eps chi^j(x/eps) d_j u0.

    Unit square, cell h = 1/8 (the eps-mesh is the cell mesh replicated, so
    chi pulls back nodally), zero kinetics, d3 = I, c3(0) = sin(pi x)
    sin(pi y), dt = 1e-3. The limit is the eigenmode under the same
    implicit steps, decaying as (1 + lambda dt)^-50 with lambda =
    pi^2 (D0_11 + D0_22).
    """
    ctx = cell.CellContext.from_mesh(
        geo.build_unit_cell_mesh(disc_spec, 1 / 8))
    identity = fem.CoefficientField.isotropic(1.0)
    d0 = cell.scalar_tensor_with_check(ctx, identity)[0].matrix
    chi = ctx.scalar_cell(identity).correctors
    spec = geo.EpsilonDomainSpec(geo.RectUnion.unit_square(), eps, disc_spec)
    mesh = geo.build_epsilon_mesh(spec, eps / 8)
    dt, steps = 1e-3, 50
    solver = micro.MicroSolver(mesh, eps, heat_cfg(dt=dt, t_end=steps * dt))
    zero = lambda x, y: 0.0 * x
    c3 = solver.run(micro.initial_state(mesh, zero, zero, sine)).final.c3
    decay = (1.0 + np.pi ** 2 * (d0[0, 0] + d0[1, 1]) * dt) ** -steps
    return two_scale_errors(ctx, mesh, eps, solver.M, c3, decay, chi)


def test_c3_tends_to_the_two_scale_limit(disc_spec):
    # measured at eps = 1/4, 1/8, 1/16: L2 1.142e-2, 5.601e-3, 2.787e-3;
    # corrected L2 1.278e-3, 3.092e-4, 7.665e-5; H1 0.3465, 0.3418, 0.3407;
    # corrected H1 4.948e-2, 2.443e-2, 1.218e-2. So L2 falls at first order,
    # corrected L2 at second, H1 not at all and corrected H1 at first order.
    errors = np.array([two_scale_c3_errors(disc_spec, eps)
                       for eps in (1 / 4, 1 / 8, 1 / 16)])
    ratios = errors[:-1] / errors[1:]
    l2, l2c, h1, h1c = ratios.T
    assert np.all(l2 >= 1.7)
    assert np.all(l2c >= 3.4)
    assert np.all(h1 <= 1.1)
    assert np.all(h1c >= 1.7)


def two_scale_pair_errors(disc_spec, eps):
    """The errors of ``two_scale_errors`` of the micro c1 and of c2 after 50
    ``fast_exchange`` steps, against the homogenized limit u0 and the
    first-order corrector u0 - eps chi_k^j(x/eps) d_j u0 of each field.

    The set-up of ``two_scale_c3_errors`` with d1 = I, d2 = diag(2, 1), the
    constant exchange rate h = 1, c1(0) = c2(0) = sin(pi x) sin(pi y) and
    c3(0) = 0. B and the correctors chi_1, chi_2 are those of the coupled
    cell problem at exchange rate 1; the pair moves as one field with a
    doubled time weight, so the limit decays as (1 + lambda dt)^-50 with
    lambda = pi^2 (B_11 + B_22) / 2.
    """
    ctx = cell.CellContext.from_mesh(
        geo.build_unit_cell_mesh(disc_spec, 1 / 8))
    d1 = fem.CoefficientField.isotropic(1.0)
    d2 = fem.CoefficientField.constant(np.diag([2.0, 1.0]))
    b, sol = cell.coupled_tensor_with_check(ctx, d1, d2, 1.0)
    b = b.matrix
    unit_exchange = dataclasses.replace(
        kin.zero_kinetics(), h=lambda s: np.ones_like(np.asarray(s, float)))
    spec = geo.EpsilonDomainSpec(geo.RectUnion.unit_square(), eps, disc_spec)
    mesh = geo.build_epsilon_mesh(spec, eps / 8)
    dt, steps = 1e-3, 50
    solver = micro.MicroSolver(mesh, eps, heat_cfg(
        dt=dt, t_end=steps * dt, d1=d1, d2=d2, kinetics=unit_exchange,
        scaling=micro.Scaling.FAST_EXCHANGE))
    zero = lambda x, y: 0.0 * x
    final = solver.run(micro.initial_state(mesh, sine, sine, zero)).final
    decay = (1.0 + np.pi ** 2 * (b[0, 0] + b[1, 1]) / 2 * dt) ** -steps
    return [two_scale_errors(ctx, mesh, eps, solver.M, field, decay, chi)
            for field, chi in ((final.c1, sol.first), (final.c2, sol.second))]


def test_pair_tends_to_the_two_scale_limit(disc_spec):
    # measured at eps = 1/4, 1/8, 1/16, for c1 and then c2:
    # L2 1.650e-2, 5.961e-3, 2.485e-3 and 1.342e-2, 5.311e-3, 2.429e-3;
    # corrected L2 1.298e-2, 3.630e-3, 9.156e-4 and 1.009e-2, 2.594e-3,
    # 6.351e-4; H1 0.2914, 0.2823, 0.2807 and 0.3029, 0.2964, 0.2951;
    # corrected H1 8.724e-2, 3.887e-2, 1.832e-2 and 5.388e-2, 2.016e-2,
    # 8.901e-3. The rates are those of c3. The H1 rates alone pass with
    # B scaled by 1.01; the corrected L2 rate does not.
    errors = np.array([two_scale_pair_errors(disc_spec, eps)
                       for eps in (1 / 4, 1 / 8, 1 / 16)])
    ratios = errors[:-1] / errors[1:]
    l2, l2c, h1, h1c = np.moveaxis(ratios, -1, 0)
    assert np.all(l2 >= 1.7)
    assert np.all(l2c >= 3.4)
    assert np.all(h1 <= 1.1)
    assert np.all(h1c >= 1.7)


@pytest.mark.parametrize("scaling", list(micro.Scaling))
def test_finals_converge_under_cell_refinement(disc_spec, scaling):
    # The acceptance data at eps = 1/4, dt = 1e-3, 20 steps, cell h 1/8,
    # 1/16, 1/32 (2,033, 7,345 and 27,569 nodes). Successive differences of
    # the final ||c1||, Gamma gap and c2 mass shrank by 3.15, 3.11, 2.30
    # under fast_exchange and 3.21, 2.64, 2.29 under all_eps; an earlier
    # measurement gave 2.3-3.2 on to h = 1/64.
    eps = 1 / 4
    finals = []
    for cell_h in (1 / 8, 1 / 16, 1 / 32):
        mesh = geo.build_epsilon_mesh(geo.EpsilonDomainSpec(
            geo.RectUnion.unit_square(), eps, disc_spec), eps * cell_h)
        solver = micro.MicroSolver(mesh, eps, heat_cfg(
            t_end=0.02, scaling=scaling, snapshot_every=20,
            d2=fem.CoefficientField.constant(np.diag([2.0, 1.0])),
            kinetics=kin.parse_kinetics("mm_triple+langmuir:a=1,b=1")))
        series = solver.run(micro.initial_state(mesh, bump, bump,
                                                bump)).series
        finals.append([series[name][-1]
                       for name in ("norm_c1", "gamma_gap", "mass_c2")])
    steps = np.abs(np.diff(finals, axis=0))
    assert np.all(steps[0] >= 1.7 * steps[1]), steps[0] / steps[1]


@pytest.mark.parametrize("scaling", list(micro.Scaling))
def test_finals_converge_at_first_order_in_dt(eps_mesh, scaling):
    # The acceptance data at eps = 1/4, cell h eps/8, T = 0.02, dt = 4e-3
    # halved down to 2.5e-4. d_k, the mass norm of the difference between
    # the finals at successive dt, needs no reference solution. The ratios
    # d_k / d_k+1 measured 1.958, 1.979, 1.989 (c1), 1.918 to 1.978 (c2)
    # and 1.943 to 1.985 (c3) under fast_exchange, and 1.925 to 1.985
    # under all_eps; the IMEX step is first order, so 2 is the limit.
    finals = []
    for dt in (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4):
        solver = micro.MicroSolver(eps_mesh, 0.25, heat_cfg(
            dt=dt, t_end=0.02, scaling=scaling, snapshot_every=10 ** 6,
            d2=fem.CoefficientField.constant(np.diag([2.0, 1.0])),
            kinetics=kin.parse_kinetics("mm_triple+langmuir:a=1,b=1")))
        finals.append(solver.run(micro.initial_state(
            eps_mesh, bump, bump, bump)).final)
    for name in ("c1", "c2", "c3"):
        d = [fem.mass_norm(solver.M, getattr(fine, name) - getattr(coarse, name))
             for coarse, fine in zip(finals, finals[1:])]
        ratios = np.divide(d[:-1], d[1:])
        assert np.all((ratios >= 1.7) & (ratios <= 2.3)), (name, ratios)
