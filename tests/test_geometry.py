import math

import numpy as np
import pytest

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

    def test_mesh_immutable(self, cell_mesh):
        with pytest.raises(ValueError):
            cell_mesh.nodes[0, 0] = 7.0


class TestMacroMesh:
    def test_unit_square(self):
        mesh = geo.build_macro_mesh(geo.RectUnion.unit_square(), 0.1)
        assert mesh.n_triangles >= 200
        assert abs(mesh.area - 1.0) < 1e-12
        assert set(np.unique(mesh.edge_markers)) == {int(OUTER)}

    def test_degenerate_domain(self):
        with pytest.raises(MeshFailureError):
            geo.build_macro_mesh(geo.RectUnion.of((0, 0, 1, 0)), 0.1)

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
        assert pm.n_slaves == 2 * (n - 1) + 3
        assert pm.ndof == mesh.n_nodes - pm.n_slaves

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

    def test_unmatched_node(self):
        mesh = geo.build_unit_cell_mesh(geo.InclusionSpec.none(), 0.25)
        nodes = mesh.nodes.copy()
        nodes.setflags(write=True)
        face = np.where(np.abs(nodes[:, 0] - 1.0) < 1e-12)[0]
        inner = [i for i in face if 0 < nodes[i, 1] < 1]
        nodes[inner[0], 1] += 0.03
        broken = geo.Mesh(nodes, mesh.triangles, mesh.edges,
                          mesh.edge_markers, h=mesh.h)
        with pytest.raises(UnmatchedNodeError) as err:
            geo.pair_periodic_nodes(broken)
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
        A_r, _, _ = fem.apply_constraints(
            K, np.zeros(mesh.n_nodes), fem.ConstraintSet(periodic=pm))
        ev = np.linalg.eigvalsh(A_r.toarray())
        assert int((np.abs(ev) < 1e-10 * ev.max()).sum()) == 1


class TestPoromeshIO:
    def test_roundtrip_bit_exact(self, cell_mesh, tmp_path):
        p1 = tmp_path / "a.poromesh"
        p2 = tmp_path / "b.poromesh"
        geo.write_poromesh(cell_mesh, p1)
        mesh2 = geo.read_poromesh(p1)
        geo.write_poromesh(mesh2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert mesh2.n_nodes == cell_mesh.n_nodes
        assert np.array_equal(mesh2.nodes, cell_mesh.nodes)

    def test_import_rejects_inverted(self, tmp_path):
        text = ("poromesh v1 dim=2\nnodes 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
                "tris 1\n0 2 1\nedges 0\n")
        p = tmp_path / "bad.poromesh"
        p.write_text(text)
        with pytest.raises(MeshFailureError):
            geo.read_poromesh(p)

    @pytest.mark.parametrize("tag,wrong", [
        ("nodes", "node"), ("tris", "triangles"), ("edges", "tris")])
    def test_import_rejects_mislabelled_section(self, tmp_path, tag, wrong):
        text = ("poromesh v1 dim=2\nnodes 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
                "tris 1\n0 1 2\nedges 0\n").replace(f"{tag} ", f"{wrong} ", 1)
        p = tmp_path / "mislabelled.poromesh"
        p.write_text(text)
        with pytest.raises(MeshFailureError, match=tag):
            geo.read_poromesh(p)
