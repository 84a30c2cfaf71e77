import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from porodiff import fem, geometry as geo
from porodiff.errors import (InvalidGeometryError, MeshFailureError,
                             ResourceLimitError, UnmatchedNodeError)

GAMMA = geo.EdgeMarker.GAMMA
OUTER = geo.EdgeMarker.OUTER


class TestUnitCell:
    def test_disc_area(self, cell_mesh):
        exact = 1.0 - math.pi / 16
        rel = abs(cell_mesh.area - exact) / exact
        assert rel <= 2 * 0.05 ** 2

    def test_empty_inclusion_full_square(self):
        mesh = geo.build_unit_cell_mesh(geo.InclusionSpec.disc(radius=0.0), 0.1)
        assert abs(mesh.area - 1.0) < 1e-12
        assert len(mesh.edges_with(GAMMA)) == 0

    def test_margin_violation(self):
        with pytest.raises(InvalidGeometryError):
            geo.build_unit_cell_mesh(geo.InclusionSpec.disc((0.5, 0.5), 0.48), 0.05)

    def test_h_precondition(self, disc_spec):
        with pytest.raises(ValueError):
            geo.build_unit_cell_mesh(disc_spec, 0.3)

    def test_gamma_polygon(self, cell_mesh):
        edges = cell_mesh.edges_with(GAMMA)
        p = cell_mesh.nodes[edges]
        lengths = np.hypot(*(p[:, 1] - p[:, 0]).T)
        assert lengths.max() <= 0.05 + 1e-12
        assert geo.count_marked_loops(cell_mesh) == 1
        # every boundary vertex sits exactly on the circle
        ids = cell_mesh.nodes_with(GAMMA)
        r = np.hypot(cell_mesh.nodes[ids, 0] - 0.5, cell_mesh.nodes[ids, 1] - 0.5)
        assert np.abs(r - 0.25).max() < 1e-12

    def test_element_diameter(self, cell_mesh):
        p = cell_mesh.nodes[cell_mesh.triangles]
        d = max(np.hypot(*(p[:, i] - p[:, j]).T).max()
                for i, j in ((0, 1), (1, 2), (2, 0)))
        assert d <= 2 * 0.05

    def test_area_convergence_order(self, disc_spec):
        exact = 1.0 - math.pi / 16
        errs = {h: abs(geo.build_unit_cell_mesh(disc_spec, h).area - exact)
                for h in (0.1, 0.05, 0.0125)}
        for h, err in errs.items():
            assert err <= 0.5 * h * h
        order = math.log(errs[0.05] / errs[0.0125]) / math.log(4)
        assert order >= 1.5

    def test_polygon_inclusion(self):
        square = geo.InclusionSpec.polygon(
            [(0.3, 0.3), (0.7, 0.3), (0.7, 0.7), (0.3, 0.7)])
        mesh = geo.build_unit_cell_mesh(square, 0.05)
        assert abs(mesh.area - (1 - 0.16)) < 1e-10
        assert geo.count_marked_loops(mesh) == 1

    def test_corner_error_prints_plain_floats(self):
        # a corner outside the cell (validate would reject it) has no grid
        # node within one pitch
        nodes, tris = geo._crossed_grid(4, 4, 0.25)
        far = geo.InclusionSpec.polygon([(1.5, 0.5), (0.4, 0.4), (0.6, 0.4)])
        with pytest.raises(MeshFailureError) as info:
            geo._cut_out_inclusion(nodes, tris, far, 0.25)
        assert str(info.value) == (
            "no grid node close enough to polygon corner (1.5, 0.5)")

    def test_mesh_immutable(self, cell_mesh):
        with pytest.raises(ValueError):
            cell_mesh.nodes[0, 0] = 7.0


def _scalar_bisect_interface(incl, p_pos, p_neg):
    """The one-edge-at-a-time bisection that the vectorised one replaced."""
    ta, tb = 0.0, 1.0
    seg = p_neg - p_pos
    for _ in range(60):
        tm = 0.5 * (ta + tb)
        dm = float(incl.signed_distance(p_pos + tm * seg)[0])
        if dm > 0.0:
            ta = tm
        elif dm < 0.0:
            tb = tm
        else:
            ta = tb = tm
            break
    return incl.project(p_pos + 0.5 * (ta + tb) * seg)[0]


@pytest.mark.parametrize("spec,h", [
    (geo.InclusionSpec.disc((0.5, 0.5), 0.25), 0.05),
    (geo.InclusionSpec.disc((0.5, 0.5), 0.25), 0.0125),
    (geo.InclusionSpec.polygon(
        [(0.3, 0.25), (0.75, 0.35), (0.6, 0.72), (0.28, 0.6)]), 0.05),
])
def test_vectorised_bisection_matches_scalar_loop(spec, h, monkeypatch):
    mesh = geo.build_unit_cell_mesh(spec, h)
    monkeypatch.setattr(geo, "_bisect_interface", lambda incl, pos, neg: (
        np.array([_scalar_bisect_interface(incl, p, n)
                  for p, n in zip(pos, neg)])))
    want = geo.build_unit_cell_mesh(spec, h)
    assert np.array_equal(mesh.nodes, want.nodes)
    assert np.array_equal(mesh.triangles, want.triangles)
    assert mesh.marked_length(GAMMA) > 0


@pytest.mark.parametrize("name", ["macro_mesh_16", "cell_mesh"])
def test_gradients_are_cached_read_only_and_barycentric(name, request):
    mesh = request.getfixturevalue(name)
    grads = mesh.gradients
    assert grads.shape == (mesh.n_triangles, 3, 2)
    assert mesh.gradients is grads
    with pytest.raises(ValueError):
        grads[0, 0, 0] = 1.0
    # the barycentric coordinates of a triangle sum to one and lambda_k is
    # 1 at p_k and 0 at the other vertices p_j
    scale = np.abs(grads).max(axis=(1, 2))
    assert np.all(np.abs(grads.sum(axis=1)).max(axis=1) <= 1e-13 * scale)
    p = mesh.nodes[mesh.triangles]
    for k in range(3):
        for j in {0, 1, 2} - {k}:
            step = np.einsum("md,md->m", grads[:, k], p[:, k] - p[:, j])
            assert np.abs(step - 1.0).max() <= 1e-12


class TestMacroMesh:
    def test_unit_square(self):
        mesh = geo.build_macro_mesh(geo.RectUnion.unit_square(), 0.1)
        assert mesh.n_triangles >= 200
        assert abs(mesh.area - 1.0) < 1e-12
        assert set(np.unique(mesh.edge_markers)) == {int(OUTER)}

    def test_degenerate_domain(self):
        with pytest.raises(MeshFailureError):
            geo.build_macro_mesh(geo.RectUnion.of((0, 0, 1, 0)), 0.1)

    @pytest.mark.parametrize("h", [-0.1, 0.0, 0.6, 5.0, np.nan, np.inf])
    def test_mesh_size_checked(self, h):
        with pytest.raises(ValueError, match="0 < h <= 1/2"):
            geo.build_macro_mesh(geo.RectUnion.unit_square(), h)
        assert geo.build_macro_mesh(geo.RectUnion.unit_square(),
                                    0.5).n_nodes == 13

    def test_l_shape_boundary_length(self):
        domain = geo.RectUnion.of((0, 0, 1, 2), (1, 0, 2, 1))
        mesh = geo.build_macro_mesh(domain, 0.1)
        assert abs(mesh.marked_length(OUTER) - 8.0) < 1e-10
        assert abs(mesh.area - 3.0) < 1e-12


class TestEpsilonMesh:
    def test_inclusion_loops(self, disc_spec):
        spec = geo.EpsilonDomainSpec(geo.RectUnion.unit_square(), 0.25, disc_spec)
        mesh = geo.build_epsilon_mesh(spec, 0.25 / 8)
        assert geo.count_marked_loops(mesh) == 16

    def test_non_integer_corner(self, disc_spec):
        spec = geo.EpsilonDomainSpec(
            geo.RectUnion.of((0.1, 0.1, 1.1, 1.1)), 1 / 3, disc_spec)
        with pytest.raises(InvalidGeometryError):
            geo.build_epsilon_mesh(spec, (1 / 3) / 8)

    def test_non_reciprocal_epsilon(self, disc_spec):
        spec = geo.EpsilonDomainSpec(geo.RectUnion.unit_square(), 0.3, disc_spec)
        with pytest.raises(InvalidGeometryError):
            spec.validate()

    def test_area_identity(self, disc_spec):
        eps = 1 / 8
        spec = geo.EpsilonDomainSpec(geo.RectUnion.unit_square(), eps, disc_spec)
        mesh = geo.build_epsilon_mesh(spec, eps / 8)
        unit = geo.build_unit_cell_mesh(disc_spec, 1 / 8)
        hole = 1.0 - unit.area
        expected = 1.0 - 64 * eps ** 2 * hole
        assert abs(mesh.area - expected) < 1e-12
        analytic = 1.0 - 64 * eps ** 2 * math.pi / 16
        assert abs(mesh.area - analytic) < 64 * eps ** 2 * 5 * (1 / 8) ** 2

    def test_budget_cap(self, disc_spec):
        spec = geo.EpsilonDomainSpec(geo.RectUnion.unit_square(), 1 / 8, disc_spec)
        with pytest.raises(ResourceLimitError):
            geo.build_epsilon_mesh(spec, (1 / 8) / 8, node_cap=50)

    # at n = 49 the unit cell's grid puts its far faces at (1/49) * 49 < 1
    @pytest.mark.parametrize("n,n_nodes", [(48, 61_233), (49, 64_153)])
    def test_cell_faces_merge_at_every_pitch(self, disc_spec, n, n_nodes):
        spec = geo.EpsilonDomainSpec(geo.RectUnion.unit_square(), 0.25, disc_spec)
        mesh = geo.build_epsilon_mesh(spec, 0.25 / n)
        assert mesh.n_nodes == n_nodes
        assert not cKDTree(mesh.nodes).query_pairs(1e-12)
        assert abs(mesh.marked_length(OUTER) - 4.0) < 1e-12

    def test_gamma_never_on_outer(self, disc_spec):
        spec = geo.EpsilonDomainSpec(geo.RectUnion.unit_square(), 0.25, disc_spec)
        mesh = geo.build_epsilon_mesh(spec, 0.25 / 8)
        gamma_nodes = set(mesh.nodes_with(GAMMA).tolist())
        outer_nodes = set(mesh.nodes_with(OUTER).tolist())
        assert not (gamma_nodes & outer_nodes)


class TestPeriodicPairing:
    def test_pair_count_full_square(self):
        mesh = geo.build_unit_cell_mesh(geo.InclusionSpec.none(), 0.1)
        n = 10
        pm = geo.pair_periodic_nodes(mesh)
        assert len(pm.pairs) == 2 * (n - 1) + 3

    def test_no_node_both_master_and_slave(self, cell_mesh):
        pm = geo.pair_periodic_nodes(cell_mesh)
        masters = set(pm.pairs[:, 0].tolist())
        slaves = set(pm.pairs[:, 1].tolist())
        assert not (masters & slaves)
        assert len(slaves) == len(pm.pairs)

    def test_corners_single_class(self, cell_mesh):
        pm = geo.pair_periodic_nodes(cell_mesh)
        master = pm.master_of()
        corner_ids = [
            int(np.argmin(np.abs(cell_mesh.nodes - np.array(c)).sum(axis=1)))
            for c in ((0, 0), (1, 0), (0, 1), (1, 1))
        ]
        assert len({int(master[i]) for i in corner_ids}) == 1

    @pytest.mark.parametrize("n", [49, 98, 103])
    def test_faces_exact_at_every_pitch(self, n):
        mesh = geo.build_unit_cell_mesh(geo.InclusionSpec.none(), 1 / n)
        face = []
        for axis, marker in ((0, geo.EdgeMarker.PERIODIC_X),
                             (1, geo.EdgeMarker.PERIODIC_Y)):
            ids = mesh.nodes_with(marker)
            assert np.isin(mesh.nodes[ids, axis], (0.0, 1.0)).all()
            face.extend(ids.tolist())
        pm = geo.pair_periodic_nodes(mesh)
        assert len(set(face)) == 4 * n
        assert set(pm.pairs.ravel().tolist()) == set(face)

    # a face node moved along the face, by 0.03 or by one ulp, or a face
    # with one node fewer than the opposite one
    @pytest.mark.parametrize("broken", ["shift", "one-ulp", "missing-node"])
    def test_unmatched_node(self, broken):
        mesh = geo.build_unit_cell_mesh(geo.InclusionSpec.none(), 0.25)
        nodes = mesh.nodes.copy()
        edges, markers = mesh.edges, mesh.edge_markers
        face = np.flatnonzero(nodes[:, 0] == 1.0)
        inner = [i for i in face if 0 < nodes[i, 1] < 1]
        if broken == "shift":
            nodes[inner[0], 1] += 0.03
        elif broken == "one-ulp":
            nodes[inner[0], 1] = np.nextafter(nodes[inner[0], 1], 2.0)
        else:
            # the x = 1 face loses its top corner: drop its PERIODIC_X edge
            top = np.flatnonzero(nodes[:, 0] + nodes[:, 1] == 2.0)
            keep = ~((markers == geo.EdgeMarker.PERIODIC_X)
                     & np.isin(edges, top).any(axis=1))
            edges, markers = edges[keep], markers[keep]
        broken_mesh = geo.Mesh(nodes, mesh.triangles, edges, markers, h=mesh.h)
        with pytest.raises(UnmatchedNodeError) as err:
            geo.pair_periodic_nodes(broken_mesh)
        assert len(err.value.coordinate) == 2

    def test_pairing_never_touches_gamma(self, cell_mesh):
        pm = geo.pair_periodic_nodes(cell_mesh)
        gamma_nodes = set(cell_mesh.nodes_with(GAMMA).tolist())
        paired = set(pm.pairs.reshape(-1).tolist())
        assert not (gamma_nodes & paired)

    @pytest.mark.parametrize("h", [1 / 8, 1 / 16])
    def test_periodic_laplacian_kernel(self, disc_spec, h):
        mesh = geo.build_unit_cell_mesh(disc_spec, h)
        pm = geo.pair_periodic_nodes(mesh)
        K = fem.assemble_stiffness(mesh, fem.CoefficientField.isotropic(1.0))
        red = fem.ConstraintReducer(pm, fem.lumped_integral_weights(mesh))
        # periodic pairing leaves only the constants in the kernel ...
        ev = np.linalg.eigvalsh((red.P.T @ K @ red.P).toarray())
        assert int((np.abs(ev) < 1e-10 * ev.max()).sum()) == 1
        # ... and the gauge dof removes them
        ev = np.linalg.eigvalsh(red.restrict(K).toarray())
        assert ev.min() > 1e-10 * ev.max()


class TestPoromeshIO:
    def test_roundtrip_bit_exact(self, cell_mesh, tmp_path):
        # the export is never read back; repr coordinates parse exactly
        path = tmp_path / "a.poromesh"
        geo.write_poromesh(cell_mesh, path)
        lines = path.read_text().splitlines()
        assert lines[:2] == ["poromesh v1 dim=2", f"nodes {cell_mesh.n_nodes}"]
        nodes = np.array([[float(v) for v in line.split()]
                          for line in lines[2:2 + cell_mesh.n_nodes]])
        assert nodes.tobytes() == cell_mesh.nodes.astype(float).tobytes()
