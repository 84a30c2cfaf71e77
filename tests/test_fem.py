import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from porodiff import cell, fem, geometry as geo, kinetics as kin, macro, micro
from porodiff.errors import NoConvergenceError, SingularSystemError


def two_triangle_square():
    nodes = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return geo.Mesh(nodes, tris, np.zeros((0, 2), int), np.zeros(0, np.uint8),
                    h=1.0)


class TestStiffness:
    def test_classical_laplacian_pattern(self):
        mesh = two_triangle_square()
        A = fem.assemble_stiffness(mesh, fem.CoefficientField.isotropic(1.0))
        expected = np.array([[1, -0.5, 0, -0.5],
                             [-0.5, 1, -0.5, 0],
                             [0, -0.5, 1, -0.5],
                             [-0.5, 0, -0.5, 1]])
        assert np.abs(A.toarray() - expected).max() < 1e-14
        assert np.abs(A.toarray().sum(axis=1)).max() < 1e-14

    def test_linearity_in_coefficient(self):
        mesh = two_triangle_square()
        A1 = fem.assemble_stiffness(mesh, fem.CoefficientField.isotropic(1.0))
        A2 = fem.assemble_stiffness(mesh, fem.CoefficientField.isotropic(2.0))
        assert np.abs(A2.toarray() - 2 * A1.toarray()).max() == 0.0

    def test_anisotropic_energy_of_linear_probes(self, macro_mesh_16):
        D = fem.CoefficientField.constant(np.diag([2.0, 1.0]))
        K = fem.assemble_stiffness(macro_mesh_16, D)
        ux = macro_mesh_16.nodes[:, 0]
        uy = macro_mesh_16.nodes[:, 1]
        assert abs(ux @ (K @ ux) - 2.0) < 1e-12
        assert abs(uy @ (K @ uy) - 1.0) < 1e-12

    def test_discrete_ellipticity(self, cell_mesh):
        D = fem.CoefficientField.constant(np.diag([2.0, 1.0]))
        K_D = fem.assemble_stiffness(cell_mesh, D)
        K_I = fem.assemble_stiffness(cell_mesh, fem.CoefficientField.isotropic(1.0))
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.standard_normal(cell_mesh.n_nodes)
            grad2 = u @ (K_I @ u)
            energy = u @ (K_D @ u)
            assert D.alpha * grad2 - 1e-10 <= energy <= D.beta * grad2 + 1e-10

    def test_symmetry(self, cell_mesh):
        K = fem.assemble_stiffness(cell_mesh,
                                   fem.CoefficientField.isotropic(1.0))
        d = np.abs((K - K.T).toarray()).max()
        assert d <= 1e-12 * np.abs(K.toarray()).max()

    @pytest.mark.parametrize("count", [
        100, fem.STIFFNESS_CHUNK, 7 * fem.STIFFNESS_CHUNK // 2])
    def test_chunked_elements_equal_one_einsum(self, count):
        # below one chunk, exactly one, and 3.5 chunks (the element count of
        # the eps = 1/16 mesh)
        rng = np.random.default_rng(count)
        areas = rng.uniform(0.1, 1.0, count)
        grads = rng.standard_normal((count, 3, 2))
        draw = rng.standard_normal((count, 2, 2))
        for mats in (draw + np.swapaxes(draw, 1, 2),
                     np.broadcast_to(np.diag([2.0, 1.0]), (count, 2, 2))):
            want = np.einsum("m,mid,mde,mje->mij", areas, grads, mats, grads,
                             optimize=True)
            assert np.array_equal(
                fem.stiffness_elements(areas, grads, mats), want)

    def test_scatter_equals_the_int64_coo_matrix(self, cell_mesh, same_csr):
        n = cell_mesh.n_nodes
        edges, lengths = fem.marked_edges(cell_mesh, geo.EdgeMarker.GAMMA)
        rng = np.random.default_rng(3)
        for conn, local in (
                (cell_mesh.triangles, fem.stiffness_elements(
                    cell_mesh.areas, cell_mesh.gradients,
                    rng.uniform(0.5, 1.0, (len(cell_mesh.triangles), 2, 2)))),
                (edges, fem.boundary_mass_elements(
                    cell_mesh, edges, lengths, rng.uniform(0.0, 1.0, n)))):
            conn = conn.astype(np.int64)
            k = conn.shape[1]
            want = sp.coo_matrix(
                (local.reshape(-1), (np.repeat(conn, k, axis=1).reshape(-1),
                                     np.tile(conn, (1, k)).reshape(-1))),
                shape=(n, n)).tocsr()
            assert same_csr(fem.scatter(conn, n, local), want)


class TestMass:
    def test_partition_of_unity(self, cell_mesh):
        M = fem.assemble_mass(cell_mesh)
        assert abs(M.sum() - cell_mesh.area) < 1e-12

    def test_element_closed_form(self):
        nodes = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
        mesh = geo.Mesh(nodes, np.array([[0, 1, 2]]), np.zeros((0, 2), int),
                        np.zeros(0, np.uint8), h=1.0)
        M = fem.assemble_mass(mesh).toarray()
        expected = (0.5 / 12.0) * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        assert np.abs(M - expected).max() < 1e-15

    def test_refinement_invariance(self, disc_spec):
        totals = [fem.assemble_mass(geo.build_unit_cell_mesh(
            geo.InclusionSpec.none(), h)).sum() for h in (0.25, 0.125)]
        assert abs(totals[0] - totals[1]) < 1e-12


class TestBoundaryMass:
    def test_total_equals_perimeter(self, cell_mesh):
        B = fem.assemble_boundary_mass(cell_mesh, geo.EdgeMarker.GAMMA, 1.0)
        assert abs(B.sum() - cell_mesh.marked_length(geo.EdgeMarker.GAMMA)) \
            < 1e-12
        assert abs(B.sum() - np.pi / 2) < 0.01

    def test_perimeter_converges(self, disc_spec):
        gaps = []
        for h in (0.1, 0.05):
            mesh = geo.build_unit_cell_mesh(disc_spec, h)
            gaps.append(abs(mesh.marked_length(geo.EdgeMarker.GAMMA) - np.pi / 2))
        assert gaps[1] < gaps[0]

    def test_zero_weight(self, cell_mesh):
        B = fem.assemble_boundary_mass(cell_mesh, geo.EdgeMarker.GAMMA, 0.0)
        assert abs(B).max() == 0.0

    def test_no_marked_boundary(self, macro_mesh_16):
        # no GAMMA edge is the empty set: the n x n zero matrix
        edges, lengths = fem.marked_edges(macro_mesh_16, geo.EdgeMarker.GAMMA)
        assert edges.shape == (0, 2) and lengths.shape == (0,)
        B = fem.assemble_boundary_mass(macro_mesh_16, geo.EdgeMarker.GAMMA)
        n = macro_mesh_16.n_nodes
        assert B.shape == (n, n) and B.nnz == 0

    @pytest.mark.parametrize("spec", [geo.InclusionSpec.none(),
                                      geo.InclusionSpec.disc(radius=0.0)],
                             ids=["none", "radius0"])
    def test_unperforated_cell_context(self, spec):
        ctx = cell.CellContext.from_mesh(geo.build_unit_cell_mesh(spec, 0.125))
        assert ctx.gamma_length == 0.0
        assert ctx.gamma_mass.shape == (ctx.mesh.n_nodes,) * 2
        assert ctx.gamma_mass.nnz == 0

    def test_nodal_weight_psd(self, cell_mesh):
        rng = np.random.default_rng(3)
        w = rng.uniform(0.0, 2.0, cell_mesh.n_nodes)
        B = fem.assemble_boundary_mass(cell_mesh, geo.EdgeMarker.GAMMA, w)
        ev = np.linalg.eigvalsh(B.toarray())
        assert ev.min() > -1e-12


class TestConstraints:
    def test_pure_neumann_with_mean_zero(self, cell_mesh):
        K = fem.assemble_stiffness(cell_mesh, fem.CoefficientField.isotropic(1.0))
        w = fem.lumped_integral_weights(cell_mesh)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(cell_mesh.n_nodes)
        f -= f.mean()  # compatible with the constant kernel of K
        no_pairs = geo.PeriodicMap(np.zeros((0, 2)), cell_mesh.n_nodes)
        red = fem.ConstraintReducer(no_pairs, w)
        A_r, b_r = red.reduce(K, f)
        x = fem.solve_sparse(A_r, b_r)
        assert np.linalg.norm(A_r @ x - b_r) / np.linalg.norm(b_r) <= 1e-10
        full = red.expand(x)
        assert abs(w @ full) < 1e-9
        assert np.linalg.norm(K @ full - f) <= 1e-9 * np.linalg.norm(f)

    def test_dirichlet_only_reduction_is_an_index_slice(self, macro_mesh_16):
        # restrict, reduce_rhs and expand equal P'AP, P'b and Px bit for bit,
        # P the selection of the kept dofs; the products add to +0.0, so
        # they map -0.0 to +0.0
        mesh = macro_mesh_16
        n = mesh.n_nodes
        red = fem.DirichletReducer(n, mesh.nodes_with(geo.EdgeMarker.OUTER))
        kept = np.nonzero(red.kept)[0]
        P = sp.csr_matrix((np.ones(len(kept)), (kept, np.arange(len(kept)))),
                          shape=(n, len(kept)))
        rng = np.random.default_rng(3)
        M = fem.assemble_mass(mesh)
        K = fem.assemble_stiffness(
            mesh, fem.CoefficientField.constant(np.diag([2.0, 1.0])))
        W = fem.assemble_weighted_mass(mesh, rng.uniform(0.5, 1.0, n))
        W[kept[5], kept[5]] = np.nan
        for A in ((M + 1e-3 * K).tocsr(), W):
            product = (P.T @ A @ P).tocsr()
            product.sort_indices()
            sliced = red.restrict(A)
            assert sliced.data.tobytes() == product.data.tobytes()
            for part in ("indices", "indptr"):
                assert np.array_equal(getattr(sliced, part),
                                      getattr(product, part))
        b = rng.standard_normal(n)
        b[kept[::3]] = -0.0
        b[kept[1]] = np.nan
        b[kept[2]] = -np.nan
        x = rng.standard_normal(len(kept))
        x[::3] = -0.0
        x[1] = np.nan
        x[2] = -np.nan
        assert red.reduce_rhs(b).tobytes() == (P.T @ b).tobytes()
        assert red.expand(x).tobytes() == (P @ x).tobytes()

    def test_dirichlet_everywhere(self):
        mesh = two_triangle_square()
        K = fem.assemble_stiffness(mesh, fem.CoefficientField.isotropic(1.0))
        red = fem.DirichletReducer(4, np.arange(4))
        assert red.restrict(K).shape == (0, 0)
        assert red.reduce_rhs(np.ones(4)).shape == (0,)
        assert np.array_equal(red.expand(np.zeros(0)), np.zeros(4))

    def test_periodic_solve_residual(self, cell_ctx):
        mesh = cell_ctx.mesh
        K = fem.assemble_stiffness(mesh, fem.CoefficientField.isotropic(1.0))
        rng = np.random.default_rng(1)
        f = rng.standard_normal(mesh.n_nodes)
        A_r, b_r = fem.ConstraintReducer(
            cell_ctx.periodic, cell_ctx.mean_weights).reduce(K, f)
        x = fem.solve_sparse(A_r, b_r)
        assert np.linalg.norm(A_r @ x - b_r) / np.linalg.norm(b_r) <= 1e-10

    def test_p1_reproduces_linears(self, macro_mesh_16):
        mesh = macro_mesh_16
        K = fem.assemble_stiffness(mesh, fem.CoefficientField.isotropic(1.0))
        boundary = mesh.nodes_with(geo.EdgeMarker.OUTER)
        # lift the boundary values g: x = g + u, u zero on the boundary
        g = np.zeros(mesh.n_nodes)
        g[boundary] = mesh.nodes[boundary, 0]
        red = fem.DirichletReducer(mesh.n_nodes, boundary)
        x = g + red.expand(fem.solve_sparse(red.restrict(K),
                                            red.reduce_rhs(-(K @ g))))
        assert np.abs(x - mesh.nodes[:, 0]).max() < 1e-10


class TestSolve:
    def test_identity(self):
        A = sp.identity(4, format="csr")
        b = np.arange(4.0)
        assert np.array_equal(fem.solve_sparse(A, b), b)

    def test_hand_solved_2x2(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        x = fem.solve_sparse(A, np.array([1.0, 1.0]))
        assert np.abs(x - 1 / 3).max() < 1e-14

    def test_residual_contract_random(self, cell_ctx):
        K = fem.assemble_stiffness(cell_ctx.mesh,
                                   fem.CoefficientField.isotropic(1.0))
        rng = np.random.default_rng(5)
        b = rng.standard_normal(cell_ctx.mesh.n_nodes)
        A_r, b_r = fem.ConstraintReducer(cell_ctx.periodic,
                                         cell_ctx.mean_weights).reduce(K, b)
        x = fem.solve_sparse(A_r, b_r)
        assert np.linalg.norm(A_r @ x - b_r) / np.linalg.norm(b_r) <= 1e-10

    def test_cg_matches_direct(self, macro_mesh_16):
        mesh = macro_mesh_16
        M = fem.assemble_mass(mesh)
        K = fem.assemble_stiffness(mesh, fem.CoefficientField.isotropic(1.0))
        A = (M + 0.01 * K).tocsr()
        rng = np.random.default_rng(2)
        b = rng.standard_normal(mesh.n_nodes)
        xd = fem.solve_sparse(A, b, method="direct")
        xc = fem.solve_sparse(A, b, method="cg")
        assert np.abs(xd - xc).max() < 1e-8

    def test_singular_raises(self):
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises((SingularSystemError, NoConvergenceError)):
            fem.solve_sparse(A, np.array([1.0, 0.0]))

    def test_cg_no_convergence(self, macro_mesh_16):
        K = fem.assemble_stiffness(macro_mesh_16,
                                   fem.CoefficientField.isotropic(1.0))
        A = (fem.assemble_mass(macro_mesh_16) + K).tocsr()
        b = np.ones(macro_mesh_16.n_nodes)
        with pytest.raises(NoConvergenceError) as err:
            fem.solve_sparse(A, b, method="cg", maxiter=2)
        assert err.value.iterations <= 2
        assert err.value.residual > 1e-10

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(min_value=0.01, max_value=100.0,
                           allow_nan=False, allow_infinity=False))
    def test_scaling_commutes(self, scale):
        mesh = two_triangle_square()
        K = fem.assemble_stiffness(mesh, fem.CoefficientField.isotropic(1.0))
        M = fem.assemble_mass(mesh)
        A = (M + K).tocsr()
        b = np.array([1.0, -2.0, 0.5, 0.25])
        red = fem.DirichletReducer(4, [0])
        x1 = red.expand(fem.solve_sparse(red.restrict(A), red.reduce_rhs(b)))
        x2 = red.expand(fem.solve_sparse(red.restrict((scale * A).tocsr()),
                                         red.reduce_rhs(scale * b)))
        assert np.allclose(x1, x2, rtol=1e-11, atol=1e-13)


class TestHeldFactor:
    @pytest.fixture
    def pair(self, macro_mesh_16):
        """Two SPD operators far apart, and a right-hand side."""
        M = fem.assemble_mass(macro_mesh_16)
        K = fem.assemble_stiffness(macro_mesh_16,
                                   fem.CoefficientField.isotropic(1.0))
        b = np.random.default_rng(3).standard_normal(macro_mesh_16.n_nodes)
        return (M + 1e-3 * K).tocsr(), (M + 10.0 * K).tocsr(), b

    def test_handle_less_factor_factors_its_first_operator(
            self, pair, factorize_calls):
        A, _, b = pair
        held = fem.HeldFactor()
        x = held.solve(A, b)
        assert factorize_calls == [A.shape]
        assert held.last_iterations == 1 and held.refactors == 0
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_slow_solve_refactors_once_at_the_operator(self, pair,
                                                       monkeypatch):
        near, far, b = pair
        held = fem.HeldFactor(fem.factorize(near))
        factored = []
        factorize = fem.factorize

        def record(A):
            factored.append(A)
            return factorize(A)

        monkeypatch.setattr(fem, "factorize", record)
        monkeypatch.setattr(fem, "REFACTOR_ITERS", 1)
        target = far.copy()
        held.solve(far, b, operator=lambda: target)
        assert held.last_iterations > 1
        assert held.refactors == 1 and len(factored) == 1
        assert factored[0] is target
        held.solve(far, b, operator=lambda: target)
        assert held.last_iterations == 1
        assert held.refactors == 1 and len(factored) == 1

    def test_last_iterations_is_the_pcg_count(self, pair):
        near, far, b = pair
        handle = fem.factorize(near)
        want, iters = fem.pcg(far, b, spla.LinearOperator(
            far.shape, matvec=handle.solve, dtype=float), x0=np.ones_like(b))
        held = fem.HeldFactor(handle)
        got = held.solve(far, b, x0=np.ones_like(b))
        assert held.last_iterations == iters > 1
        assert np.array_equal(got, want)


def _exchange_block(A1r, A2r, red):
    """An ExchangeBlock with a SuperLU factor of each field, one for an
    equal pair."""
    first = fem.factorize(A1r)
    return fem.ExchangeBlock(
        A1r, A2r, red, (first, first if A1r is A2r else fem.factorize(A2r)))


def _unequal_pair(mesh):
    M = fem.assemble_mass(mesh)
    K1 = fem.assemble_stiffness(mesh, fem.CoefficientField.isotropic(1.0))
    K2 = fem.assemble_stiffness(
        mesh, fem.CoefficientField.constant(np.diag([2.0, 1.0])))
    return (M + 0.5 * K1).tocsr(), (M + 0.5 * K2).tocsr()


class TestAssemblyPattern:
    """Replay on a pattern is bitwise equal to the COO assembly."""

    @pytest.fixture(scope="class", params=["macro", "cell", "eps8"])
    def case(self, request, disc_spec, macro_mesh_16, cell_mesh):
        if request.param == "eps8":
            mesh = geo.build_epsilon_mesh(geo.EpsilonDomainSpec(
                geo.RectUnion.unit_square(), 1 / 8, disc_spec), 1 / 64)
        else:
            mesh = {"macro": macro_mesh_16, "cell": cell_mesh}[request.param]
        red = fem.DirichletReducer(mesh.n_nodes,
                                   mesh.nodes_with(geo.EdgeMarker.OUTER))
        return mesh, red, fem.AssemblyPattern(mesh.triangles, mesh.n_nodes,
                                              red)

    def check(self, pattern, red, data, want, same_csr):
        assert same_csr(pattern.matrix(data), want)
        assert same_csr(pattern.restricted(data), red.restrict(want))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           scale=st.floats(min_value=1e-6, max_value=1e6))
    def test_mass_and_elementwise_stiffness(self, case, same_csr, seed,
                                            scale):
        mesh, red, pattern = case
        rng = np.random.default_rng(seed)
        mass = mesh.areas[:, None, None] * fem._MASS_LOCAL
        self.check(pattern, red, pattern.assemble(mass),
                   fem.scatter(mesh.triangles, mesh.n_nodes, mass), same_csr)
        mats = scale * rng.uniform(-1.0, 1.0, (len(mesh.triangles), 2, 2))
        mats = mats + np.swapaxes(mats, 1, 2)
        local = fem.stiffness_elements(mesh.areas, mesh.gradients, mats)
        self.check(pattern, red, pattern.assemble(local),
                   fem.scatter(mesh.triangles, mesh.n_nodes, local), same_csr)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           scale=st.floats(min_value=1e-6, max_value=1e6),
           zero_share=st.floats(min_value=0.0, max_value=1.0))
    def test_weighted_and_gamma_mass(self, case, same_csr, seed, scale,
                                     zero_share):
        mesh, red, pattern = case
        rng = np.random.default_rng(seed)
        h = scale * rng.uniform(0.0, 2.0, mesh.n_nodes)
        h[rng.uniform(size=mesh.n_nodes) < zero_share] = 0.0
        self.check(pattern, red,
                   pattern.assemble(fem.weighted_mass_elements(mesh, h)),
                   fem.assemble_weighted_mass(mesh, h), same_csr)
        if not len(mesh.edges_with(geo.EdgeMarker.GAMMA)):
            return
        edges, lengths = fem.marked_edges(mesh, geo.EdgeMarker.GAMMA)
        gamma = fem.AssemblyPattern(edges, mesh.n_nodes, red)
        local = fem.boundary_mass_elements(mesh, edges, lengths, h)
        self.check(gamma, red, gamma.assemble(local),
                   fem.assemble_boundary_mass(mesh, geo.EdgeMarker.GAMMA, h),
                   same_csr)

    def test_restricts_by_dirichlet_rows_only(self, cell_ctx):
        mesh = cell_ctx.mesh
        red = fem.ConstraintReducer(cell_ctx.periodic, cell_ctx.mean_weights)
        with pytest.raises(ValueError, match="Dirichlet"):
            fem.AssemblyPattern(mesh.triangles, mesh.n_nodes, red)


class TestTiledAssembly:
    """An EpsilonMesh's tiled operators and boundary against the whole-mesh
    computation over every epsilon-triangle."""

    OSC = fem.CoefficientField(
        lambda pts: (1.5 + 0.5 * np.cos(2 * np.pi * pts[:, 0]))[
            :, None, None] * np.eye(2),
        alpha=1.0, beta=2.0)

    # (domain, epsilon, unit-cell grid count n, so h_cell = epsilon / n);
    # at n = 49 the cell's grid puts its far faces at (1/49) * 49 < 1
    @pytest.fixture(scope="class", params=[
        ("square", 1 / 4, 8), ("square", 1 / 8, 8), ("L", 1 / 4, 8),
        ("L", 1 / 8, 8), ("square", 1 / 4, 49), ("L", 1 / 4, 49)],
        ids=lambda p: f"{p[0]}-eps{round(1 / p[1])}"
                      + (f"-n{p[2]}" if p[2] != 8 else ""))
    def case(self, request, disc_spec):
        shape, eps, n = request.param
        domain = {"square": geo.RectUnion.unit_square(),
                  "L": geo.RectUnion.of((0, 0, 1, 0.5),
                                        (0, 0.5, 0.5, 1))}[shape]
        return geo.build_epsilon_mesh(geo.EpsilonDomainSpec(
            domain, eps, disc_spec), eps / n), domain

    @staticmethod
    def assert_close(A, B):
        assert np.array_equal(A.indptr, B.indptr)
        assert np.array_equal(A.indices, B.indices)
        assert np.abs(A.data - B.data).max() <= 1e-13 * np.abs(B.data).max()

    def test_mass_and_stiffness_equal_the_whole_mesh_scatter(self, case):
        mesh = case[0]
        n, tris = mesh.n_nodes, mesh.triangles
        self.assert_close(fem.assemble_mass(mesh), fem.scatter(
            tris, n, mesh.areas[:, None, None] * fem._MASS_LOCAL))
        for coeff in (fem.CoefficientField.constant(np.diag([2.0, 1.0])),
                      self.OSC):
            mats = np.asarray(coeff.matrix_at(
                np.mod(mesh.centroids / mesh.epsilon, 1.0)))
            self.assert_close(
                fem.assemble_stiffness(mesh, coeff),
                fem.scatter(tris, n, fem.stiffness_elements(
                    mesh.areas, mesh.gradients, mats)))

    def test_boundary_equals_the_edges_used_once(self, case):
        # every edge used by one triangle is OUTER where a point just beside
        # its midpoint leaves the domain, and GAMMA otherwise
        mesh, domain = case
        n = mesh.n_nodes
        edges = geo._boundary_edges(mesh.triangles)
        mid = mesh.nodes[edges].mean(axis=1)
        outer = np.zeros(len(edges), dtype=bool)
        for step in ((1e-6, 0), (-1e-6, 0), (0, 1e-6), (0, -1e-6)):
            outer |= ~domain.contains(mid + step)
        for marker, want in ((geo.EdgeMarker.OUTER, edges[outer]),
                             (geo.EdgeMarker.GAMMA, edges[~outer])):
            got = mesh.edges_with(marker)
            assert len(got) == len(want)
            assert set((got[:, 0] * n + got[:, 1]).tolist()) == set(
                (want[:, 0] * n + want[:, 1]).tolist())
        gamma = edges[~outer]
        self.assert_close(
            fem.assemble_boundary_mass(mesh, geo.EdgeMarker.GAMMA),
            fem.scatter(gamma, n, fem.boundary_mass_elements(
                mesh, gamma, np.hypot(*(mesh.nodes[gamma[:, 1]]
                                       - mesh.nodes[gamma[:, 0]]).T), 1.0)))


class TestLatticeFactor:
    """The lattice factor of a tiled field operator against SuperLU."""

    OSC = TestTiledAssembly.OSC
    DT = 1e-3

    # (domain, epsilon, unit-cell grid count n, so h_cell = epsilon / n);
    # the two cells of "corners" share one OUTER node, so the top
    # super-cell eliminates nothing
    @pytest.fixture(scope="class", params=[
        ("square", 1 / 3, 8), ("square", 1 / 4, 8), ("L", 1 / 4, 8),
        ("square", 1 / 6, 8), ("L", 1 / 6, 8), ("square", 1 / 3, 49),
        ("L", 1 / 4, 48), ("corners", 1 / 2, 8)],
        ids=lambda p: f"{p[0]}-eps{round(1 / p[1])}-n{p[2]}")
    def case(self, request, disc_spec):
        shape, eps, n = request.param
        domain = {"square": geo.RectUnion.unit_square(),
                  "L": geo.RectUnion.of((0, 0, 1, 0.5), (0, 0.5, 0.5, 1)),
                  "corners": geo.RectUnion.of((0, 0, 0.5, 0.5),
                                              (0.5, 0.5, 1, 1))}[shape]
        mesh = geo.build_epsilon_mesh(geo.EpsilonDomainSpec(
            domain, eps, disc_spec), eps / n)
        red = fem.DirichletReducer(mesh.n_nodes,
                                   mesh.nodes_with(geo.EdgeMarker.OUTER))
        return mesh, red, fem.LatticePlan(mesh, red)

    def operator(self, mesh, red, coeff):
        """The reduced M + dt K that a lattice factor solves."""
        return red.restrict(fem.assemble_mass(mesh)
                            + self.DT * fem.assemble_stiffness(mesh, coeff))

    def test_solves_agree_with_superlu(self, case, aniso_field, monkeypatch):
        mesh, red, plan = case
        eliminated = []
        eliminate = fem._eliminate

        def count(A, X, B):
            eliminated.append(A.shape)
            return eliminate(A, X, B)

        monkeypatch.setattr(fem, "_eliminate", count)
        rng = np.random.default_rng(5)
        for coeff in (aniso_field, self.OSC):
            A = self.operator(mesh, red, coeff)
            lattice = plan.factorize(self.DT, coeff)
            lu = fem.factorize(A)
            for _ in range(2):
                b = rng.standard_normal(A.shape[0])
                x, ref = lattice.solve(b), lu.solve(b)
                assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
                for y in (x, ref):
                    res = np.linalg.norm(A @ y - b) / np.linalg.norm(b)
                    assert res <= fem.RESIDUAL_TOL
        # each class of super-cells is eliminated once per factor
        assert len(eliminated) == 2 * len(plan.classes)

    def test_factor_keeps_the_unit_cell_matrix_sparse(self, disc_spec):
        # n = 48: the dense unit-cell matrix would be 3,900^2 doubles
        # (122 MB); only each class's block of it may be dense
        mesh = geo.build_epsilon_mesh(geo.EpsilonDomainSpec(
            geo.RectUnion.unit_square(), 1 / 2, disc_spec), 1 / 96)
        plan = fem.LatticePlan(mesh, fem.DirichletReducer(
            mesh.n_nodes, mesh.nodes_with(geo.EdgeMarker.OUTER)))
        tracemalloc.start()
        try:
            plan.factorize(self.DT, fem.CoefficientField.isotropic(1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * mesh.unit.n_nodes ** 2 / 4

    def test_one_class_per_level_on_the_unit_square(self, disc_spec):
        # eps = 1/4: each front of the cell, the 2 x 2 super-cells and the
        # top one
        mesh = geo.build_epsilon_mesh(geo.EpsilonDomainSpec(
            geo.RectUnion.unit_square(), 1 / 4, disc_spec), 1 / 32)
        red = fem.DirichletReducer(mesh.n_nodes,
                                   mesh.nodes_with(geo.EdgeMarker.OUTER))
        plan = fem.LatticePlan(mesh, red)
        fronts = len(fem._cell_fronts(mesh.unit, self.faces(mesh.unit)))
        assert fronts > 1
        assert [len(c.GX) for c in plan.classes] == [16] * fronts + [4, 1]

    @staticmethod
    def faces(unit):
        return np.flatnonzero(np.isin(unit.nodes, (0.0, 1.0)).any(axis=1))

    @pytest.mark.parametrize("h", [1 / 8, 1 / 48, 1 / 49],
                             ids=["n8", "n48", "n49"])
    def test_cell_fronts_no_larger_than_the_faces(self, disc_spec, h):
        unit = geo.build_unit_cell_mesh(disc_spec, h)
        faces = self.faces(unit)
        fronts = fem._cell_fronts(unit, faces)
        eliminated = np.concatenate([X for X, _, _ in fronts])
        # each interior node is eliminated once, children before parents,
        # and the last front keeps the faces
        assert np.array_equal(np.sort(eliminated),
                              np.setdiff1d(np.arange(unit.n_nodes), faces))
        assert all(k < f for f, (_, _, kids) in enumerate(fronts)
                   for k in kids)
        assert np.array_equal(fronts[-1][1], faces)
        assert max(len(X) for X, _, _ in fronts) <= len(faces)


class TestExchangeBlock:
    def test_equal_operators_symmetric_data(self, cell_mesh):
        M = fem.assemble_mass(cell_mesh)
        K = fem.assemble_stiffness(cell_mesh, fem.CoefficientField.isotropic(1.0))
        A = (M + 0.01 * K).tocsr()
        C = fem.assemble_boundary_mass(cell_mesh, geo.EdgeMarker.GAMMA, 0.7)
        red = fem.DirichletReducer(cell_mesh.n_nodes, [])
        Ar = red.restrict(A)
        block = _exchange_block(Ar, Ar, red)
        b = np.sin(cell_mesh.nodes[:, 0] * 3.0)
        x1, x2 = fem.solve_exchange_block(block, red.restrict(C), b, b)
        assert np.array_equal(x1, x2)

    def test_block_solvable_any_parameters(self, cell_mesh):
        A1, A2 = _unequal_pair(cell_mesh)
        rng = np.random.default_rng(4)
        red = fem.DirichletReducer(cell_mesh.n_nodes, [])
        block = _exchange_block(red.restrict(A1), red.restrict(A2), red)
        for kappa in (1e-4, 1.0, 1e4):
            w = rng.uniform(0.0, 1.0, cell_mesh.n_nodes)
            C = kappa * fem.assemble_boundary_mass(
                cell_mesh, geo.EdgeMarker.GAMMA, w)
            b1 = rng.standard_normal(cell_mesh.n_nodes)
            b2 = rng.standard_normal(cell_mesh.n_nodes)
            x1, x2 = fem.solve_exchange_block(block, red.restrict(C), b1, b2)
            r1 = (A1 + C) @ x1 - C @ x2 - b1
            r2 = -(C @ x1) + (A2 + C) @ x2 - b2
            scale = np.linalg.norm(np.concatenate([b1, b2]))
            assert np.linalg.norm(np.concatenate([r1, r2])) / scale <= 1e-9

    @pytest.mark.parametrize("kappa", [1e-4, 1.0, 1e4])
    def test_matches_assembled_block_solve(self, disc_spec, kappa):
        mesh = geo.build_epsilon_mesh(geo.EpsilonDomainSpec(
            geo.RectUnion.unit_square(), 0.25, disc_spec), 0.25 / 8)
        A1, A2 = _unequal_pair(mesh)
        n = mesh.n_nodes
        rng = np.random.default_rng(6)
        red = fem.DirichletReducer(n, mesh.nodes_with(geo.EdgeMarker.OUTER))
        C = kappa * fem.assemble_boundary_mass(
            mesh, geo.EdgeMarker.GAMMA, rng.uniform(0.0, 1.0, n))
        b1 = rng.standard_normal(n)
        b2 = rng.standard_normal(n)
        x1, x2 = fem.solve_exchange_block(
            _exchange_block(red.restrict(A1), red.restrict(A2), red),
            red.restrict(C), b1, b2)
        # reference: eliminate the Dirichlet nodes of the assembled 2N block
        block = sp.bmat([[A1 + C, -C], [-C, A2 + C]], format="csr")
        free = np.concatenate([red.kept, red.kept])
        rhs = np.concatenate([b1, b2])
        want = np.zeros(2 * n)
        want[free] = spla.spsolve(block[free][:, free].tocsc(), rhs[free])
        got = np.concatenate([x1, x2])
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def _solves(self, mesh, kappa, count):
        A1, A2 = _unequal_pair(mesh)
        red = fem.DirichletReducer(mesh.n_nodes, [])
        block = _exchange_block(red.restrict(A1), red.restrict(A2), red)
        rng = np.random.default_rng(8)
        history = []
        for _ in range(count):
            C = kappa * fem.assemble_boundary_mass(
                mesh, geo.EdgeMarker.GAMMA, rng.uniform(0.5, 1.0, mesh.n_nodes))
            fem.solve_exchange_block(block, red.restrict(C),
                                     rng.standard_normal(mesh.n_nodes),
                                     rng.standard_normal(mesh.n_nodes))
            history.append((block.held.last_iterations, block.held.refactors))
        return block, history

    def test_strong_exchange_refactors_once(self, cell_mesh):
        block, history = self._solves(cell_mesh, 1e4, 3)
        (first_iters, first_refactors), *rest = history
        assert first_iters > fem.REFACTOR_ITERS and first_refactors == 1
        # the refreshed preconditioner is a factor of the whole 2N block
        assert block.held.handle.lu.shape == (2 * cell_mesh.n_nodes,) * 2
        for iters, refactors in rest:
            assert iters <= fem.REFACTOR_ITERS and refactors == 1

    def test_weak_exchange_never_refactors(self, cell_mesh):
        block, history = self._solves(cell_mesh, 1e-4, 4)
        assert all(refactors == 0 for _, refactors in history)
        assert block.held.handle.factors is block.factors

    def test_non_finite_rhs_fails_at_once(self, cell_mesh):
        A1, A2 = _unequal_pair(cell_mesh)
        n = cell_mesh.n_nodes
        red = fem.DirichletReducer(n, [])
        block = _exchange_block(red.restrict(A1), red.restrict(A2), red)
        C = fem.assemble_boundary_mass(cell_mesh, geo.EdgeMarker.GAMMA, 1.0)
        b1 = np.ones(n)
        b1[3] = np.nan
        with pytest.raises(NoConvergenceError) as err:
            fem.solve_exchange_block(block, block.reducer.restrict(C), b1,
                                     np.ones(n))
        assert err.value.iterations == 0


class TestFactorCache:
    def test_threads_share_a_bounded_cache(self):
        base = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(40, 40))
        # 12 distinct matrices, each factored by several threads
        mats = [(base + k * sp.eye(40)).tocsr() for k in range(12)]
        rng = np.random.default_rng(0)
        order = [rng.permutation(len(mats)).tolist() * 3 for _ in range(4)]
        sizes, failures = [], []

        def work(indices):
            for k in indices:
                A = mats[k]
                x = fem.splu_factor(A).solve(np.ones(40))
                sizes.append(len(fem._factor_cache))
                if not np.allclose(A @ x, 1.0, rtol=0, atol=1e-12):
                    failures.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(o,)) for o in order]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(sizes) == 4 * 3 * len(mats)
        assert max(sizes) <= fem._FACTOR_CACHE_SIZE
        assert failures == []


class TestCoefficientField:
    def test_validate_accepts_good(self):
        fem.CoefficientField.constant(np.diag([2.0, 1.0])).validate()

    def test_validate_rejects_asymmetric(self):
        bad = fem.CoefficientField(
            lambda pts: np.broadcast_to(np.array([[1.0, 0.5], [0.0, 1.0]]),
                                        (len(pts), 2, 2)),
            alpha=0.5, beta=2.0)
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_rejects_bound_violation(self):
        bad = fem.CoefficientField(
            lambda pts: np.broadcast_to(3.0 * np.eye(2), (len(pts), 2, 2)),
            alpha=1.0, beta=2.0)
        with pytest.raises(ValueError):
            bad.validate()



class TestResidualTolerance:
    """Every solve reads fem.RESIDUAL_TOL when it runs, not at import."""

    @pytest.fixture
    def cg_rtols(self, monkeypatch):
        """The ``rtol`` of each spla.cg call while the test runs."""
        rtols = []
        cg = spla.cg

        def spy(*args, **kwargs):
            rtols.append(kwargs["rtol"])
            return cg(*args, **kwargs)

        monkeypatch.setattr(spla, "cg", spy)
        return rtols

    @staticmethod
    def macro_solver(mesh):
        config = macro.MacroConfig(
            dt=1e-3, t_end=1e-3, d0=np.eye(2),
            btable=cell.DispersionTable.constant(np.eye(2)),
            kinetics=kin.zero_kinetics(), gamma_length=0.0, cell_area=1.0)
        return macro.MacroSolver(mesh, config)

    def test_cg_paths_read_the_patched_tolerance(
            self, monkeypatch, cg_rtols, cell_mesh, coarse_ctx,
            identity_field, aniso_field, macro_mesh_16):
        tol = 1e-6
        monkeypatch.setattr(fem, "RESIDUAL_TOL", tol)
        A1, A2 = _unequal_pair(cell_mesh)
        red = fem.DirichletReducer(cell_mesh.n_nodes, [])
        C = fem.assemble_boundary_mass(cell_mesh, geo.EdgeMarker.GAMMA, 0.7)
        b = np.sin(3.0 * cell_mesh.nodes[:, 0])
        x, _ = macro_mesh_16.nodes.T
        solver = self.macro_solver(macro_mesh_16)
        runs = {
            "exchange block": lambda: fem.solve_exchange_block(
                _exchange_block(red.restrict(A1), red.restrict(A2), red),
                red.restrict(C), b, 2.0 * b),
            "coupled cell rate": lambda: cell.CoupledCellProblem(
                coarse_ctx, identity_field, aniso_field).solve(0.5),
            "macro step": lambda: solver.step(macro.MacroState(
                0.0, np.sin(np.pi * x), np.sin(np.pi * x))),
        }
        for name, run in runs.items():
            del cg_rtols[:]
            run()
            assert cg_rtols, name
            assert all(r == tol * 0.1 for r in cg_rtols), name

    def test_factored_paths_fail_at_zero_tolerance(
            self, monkeypatch, coarse_ctx, identity_field, macro_mesh_16,
            disc_spec):
        eps_mesh = geo.build_epsilon_mesh(geo.EpsilonDomainSpec(
            geo.RectUnion.unit_square(), 0.25, disc_spec), 0.25 / 8)
        micro_solver = micro.MicroSolver(eps_mesh, 0.25, micro.MicroConfig(
            dt=1e-3, t_end=1e-3, d1=identity_field, d2=identity_field,
            d3=fem.CoefficientField.isotropic(2.0),
            kinetics=kin.zero_kinetics()))
        # the macro c3 solve uses a SuperLU factor, the micro one a lattice
        # factor
        for solver in (self.macro_solver(macro_mesh_16), micro_solver):
            x, _ = solver.mesh.nodes.T
            b3 = solver.M @ np.sin(np.pi * x)
            solver.solve_c3(b3)
            with monkeypatch.context() as m:
                m.setattr(fem, "RESIDUAL_TOL", 0.0)
                with pytest.raises(NoConvergenceError):
                    solver.solve_c3(b3)
        monkeypatch.setattr(fem, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NoConvergenceError):
            cell.scalar_tensor_with_check(
                cell.CellContext.from_mesh(coarse_ctx.mesh), identity_field)


class TestFactorize:
    """fem.factorize against SuperLU with its default supernode sizes."""

    @staticmethod
    def factored(build):
        """The last matrix that ``build()`` hands to fem.factorize."""
        seen = []
        factorize = fem.factorize

        def spy(A):
            seen.append(A)
            return factorize(A)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(fem, "factorize", spy)
            build()
        return seen[-1]

    @pytest.fixture(scope="class")
    def operators(self, cell_ctx, identity_field, aniso_field, macro_mesh_16):
        solver = TestResidualTolerance.macro_solver(macro_mesh_16)
        x, _ = macro_mesh_16.nodes.T
        state = macro.MacroState(0.0, np.sin(np.pi * x), np.sin(np.pi * x))
        return {
            "macro c3": self.factored(
                lambda: TestResidualTolerance.macro_solver(macro_mesh_16)),
            "coupled cell block": self.factored(
                lambda: cell.CoupledCellProblem(
                    cell_ctx, identity_field, aniso_field).solve(0.5)),
            "macro A_c": self.factored(lambda: solver.step(state)),
        }

    def test_solves_agree_with_default_supernodes(self, operators, cell_ctx):
        assert operators["coupled cell block"].shape[0] > cell_ctx.mesh.n_nodes
        rng = np.random.default_rng(3)
        for name, A in operators.items():
            b = rng.standard_normal(A.shape[0])
            x = fem.factorize(A).solve(b)
            ref = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                            options=dict(SymmetricMode=True)).solve(b)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref), name
            res = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
            assert res <= fem.RESIDUAL_TOL, name

    def test_supernode_sizes_reach_superlu(self, monkeypatch):
        calls = []
        splu = spla.splu

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", spy)
        fem.factorize(sp.identity(4, format="csc"))
        assert calls[0]["relax"] == fem.SUPERNODE_RELAX
        assert calls[0]["panel_size"] == fem.SUPERNODE_PANEL

    def test_repeated_factors_of_the_cell_block_exit_cleanly(self):
        """20 factor/solve/free cycles of the B-table's 2N cell block, then
        a normal interpreter exit: with relax = 16, panel_size = 32 SuperLU
        crashes the interpreter (SIGSEGV) within these cycles."""
        script = textwrap.dedent("""
            import gc
            import numpy as np
            from porodiff import cell, fem, geometry as geo
            spec = geo.InclusionSpec.disc((0.5, 0.5), 0.25)
            ctx = cell.CellContext.from_mesh(
                geo.build_unit_cell_mesh(spec, 0.0125))
            problem = cell.CoupledCellProblem(
                ctx, fem.CoefficientField.isotropic(1.0),
                fem.CoefficientField.constant(np.diag([2.0, 1.0])))
            problem.solve(0.5)
            A = (problem.K_r + 0.5 * problem.E_r).tocsc()
            b = np.ones(A.shape[0])
            for _ in range(20):
                fem.solve_factored(fem.factorize(A), A, b)
                gc.collect()
            print(A.shape[0])
        """)
        src = os.path.dirname(os.path.dirname(fem.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert int(proc.stdout) > 20000
