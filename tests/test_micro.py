import numpy as np
import pytest

from porodiff import fem, geometry as geo, kinetics as kin, micro
from porodiff.errors import PointOutsideDomainError
from porodiff.interpolate import P1Interpolator


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
        A = solver.A[0]
        red = solver.reducer
        c = traj.snapshots[0][1]["c1"].copy()
        for _ in range(10):
            A_r, b_r = red.reduce(A, M @ c)
            c = red.expand(fem.splu_factor(A_r).solve(b_r))
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

    def test_scaling_factors(self, eps_mesh):
        fast = micro.MicroSolver(eps_mesh, 0.25, heat_cfg(
            scaling=micro.Scaling.FAST_EXCHANGE))
        slow = micro.MicroSolver(eps_mesh, 0.25, heat_cfg(
            scaling=micro.Scaling.ALL_EPS))
        assert abs(fast.exchange_factor - 1e-3 / 0.25) < 1e-15
        assert abs(slow.exchange_factor - 1e-3 * 0.25) < 1e-15

    def test_fine_scale_coefficient_used(self, eps_mesh):
        osc = fem.CoefficientField.from_closure(
            lambda pts: (1.5 + 0.5 * np.cos(2 * np.pi * pts[:, 0]))[
                :, None, None] * np.eye(2),
            alpha=1.0, beta=2.0)
        solver = micro.MicroSolver(eps_mesh, 0.25, heat_cfg(d1=osc))
        K_osc = solver.K[0]
        K_unit = solver.K[2]
        assert abs((K_osc - 1.5 * K_unit)).max() > 1e-3


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

    def test_location_matches_brute_force(self):
        mm = geo.build_macro_mesh(geo.RectUnion.unit_square(), 1 / 8)
        tris = mm.triangles
        ends = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
        mids = 0.5 * (mm.nodes[ends[:, 0]] + mm.nodes[ends[:, 1]])
        rng = np.random.default_rng(7)
        pts = np.unique(np.vstack([mm.nodes, mids, rng.random((100, 2))]),
                        axis=0)
        interp = P1Interpolator(mm, pts)
        # reference: scan all triangles in index order, take the first one
        # whose smallest barycentric coordinate is >= -tol
        p = mm.nodes[tris]
        p0 = p[:, 0]
        e1 = p[:, 1] - p0
        e2 = p[:, 2] - p0
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        rel = pts[:, None, :] - p0[None]
        l1 = (rel[..., 0] * e2[:, 1] - rel[..., 1] * e2[:, 0]) / det
        l2 = (e1[:, 0] * rel[..., 1] - e1[:, 1] * rel[..., 0]) / det
        lam = np.stack([1.0 - l1 - l2, l1, l2], axis=-1)
        inside = lam.min(axis=-1) >= -1e-9
        assert inside.any(axis=1).all()
        tri = np.argmax(inside, axis=1)
        bary = np.clip(lam[np.arange(len(pts)), tri], 0.0, None)
        bary /= bary.sum(axis=1, keepdims=True)
        assert np.array_equal(interp.tri_idx, tri)
        assert np.array_equal(interp.bary, bary)


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
    assert len(np.unique(mesh.element_markers)) == n_cells
    assert (len(mesh.edges_with(geo.EdgeMarker.GAMMA))
            == n_cells * len(unit.edges_with(geo.EdgeMarker.GAMMA)))


class TestCellAverageUnfold:
    def test_constant(self, eps_mesh):
        cells, avgs = micro.cell_average_unfold(
            eps_mesh, np.full(eps_mesh.n_nodes, 3.25), 0.25)
        assert len(cells) == 16
        assert np.abs(avgs - 3.25).max() < 1e-12

    def test_coordinate_field(self, eps_mesh):
        cells, avgs = micro.cell_average_unfold(
            eps_mesh, eps_mesh.nodes[:, 0], 0.25)
        centers = (cells[:, 0] + 0.5) * 0.25
        assert np.abs(avgs - centers).max() <= 0.25

    def test_zero(self, eps_mesh):
        _, avgs = micro.cell_average_unfold(
            eps_mesh, np.zeros(eps_mesh.n_nodes), 0.25)
        assert np.abs(avgs).max() == 0.0

    def test_centroid_fallback_matches_markers(self, eps_mesh):
        vals = eps_mesh.nodes[:, 0] * eps_mesh.nodes[:, 1]
        cells1, avg1 = micro.cell_average_unfold(eps_mesh, vals, 0.25)
        stripped = geo.Mesh(eps_mesh.nodes, eps_mesh.triangles,
                            eps_mesh.edges, eps_mesh.edge_markers,
                            element_markers=None, h=eps_mesh.h)
        cells2, avg2 = micro.cell_average_unfold(stripped, vals, 0.25)
        order1 = np.lexsort((cells1[:, 1], cells1[:, 0]))
        order2 = np.lexsort((cells2[:, 1], cells2[:, 0]))
        assert np.abs(avg1[order1] - avg2[order2]).max() < 1e-12


class TestDiagnostics:
    def test_h1_accumulator_and_linf_events(self, eps_mesh):
        cfg = heat_cfg(t_end=5e-3, linf_bound=0.5)
        solver = micro.MicroSolver(eps_mesh, 0.25, cfg)
        state = micro.initial_state(eps_mesh, bump, bump, bump)
        traj = solver.run(state)
        acc = micro.MicroSolver.h1_accumulator(traj, "c1")
        assert acc > 0.0
        # bump data peaks at 1 > 0.5: the monitor must fire
        assert any(e["kind"] == "linf" for e in traj.events)

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
