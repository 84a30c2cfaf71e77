import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from porodiff import cell, fem, geometry as geo, kinetics as kin
from porodiff.errors import MeshMismatchError, SingularSystemError
from porodiff.interpolate import P1Interpolator

# Frozen oracle for the effective coefficient of the unit-coefficient cell
# with a centered disc of radius 0.25: fine-mesh solves at h = 0.005 and
# h = 0.0025 plus Richardson extrapolation at the observed second order.
D_EFF_ORACLE = 0.835720918926602


def reflect_map(mesh, fn):
    key = {(round(x * 1e10), round(y * 1e10)): i
           for i, (x, y) in enumerate(mesh.nodes)}
    pairs = []
    for i, p in enumerate(mesh.nodes):
        q = fn(p)
        j = key.get((round(q[0] * 1e10), round(q[1] * 1e10)))
        if j is not None:
            pairs.append((i, j))
    assert len(pairs) > 0.9 * mesh.n_nodes
    return pairs


def four_operand_tensors(ctx, fields):
    """(energy, volume) tensors summed over (coefficient, correctors) pairs,
    by the formulas written as one 4-operand reduction per entry."""
    mesh = ctx.mesh
    areas = mesh.areas
    eye = np.eye(2)
    energy = np.zeros((2, 2))
    volume = np.zeros((2, 2))
    for coeff, corr in fields:
        mats = np.asarray(coeff.matrix_at(mesh.centroids))
        g = [cell._element_gradients(mesh, corr[j]) for j in range(2)]
        for j in range(2):
            flux = np.einsum("mde,me->md", mats, eye[j] - g[j])
            volume[:, j] += np.einsum("m,md->d", areas, flux) / ctx.area
            for i in range(2):
                energy[i, j] += np.einsum(
                    "m,md,mde,me->", areas, eye[i] - g[i], mats,
                    eye[j] - g[j]) / ctx.area
    return energy, volume


def scalar_correctors(ctx, coeff):
    """The context's ScalarCell of ``coeff``, with its correctors."""
    return cell.scalar_tensor_with_check(ctx, coeff)[1]


def volume_tensor(ctx, sol, coeff):
    """The volume-form scalar tensor of ``sol``, by ``cell._field_sums``."""
    mesh = ctx.mesh
    return cell._field_sums(
        mesh, np.asarray(coeff.matrix_at(mesh.centroids)),
        sol.correctors)[1] / ctx.area


def off_centre_ctx():
    """A cell whose correctors do not vanish at the gauge node, so a
    missing mean-zero shift shows."""
    mesh = geo.build_unit_cell_mesh(
        geo.InclusionSpec.disc((0.4, 0.55), 0.2), 0.1)
    return cell.CellContext.from_mesh(mesh)


def per_form_tensors(ctx, sol, coeff):
    """(energy, volume) scalar tensors, each form computed on its own."""
    mesh = ctx.mesh
    mats = np.asarray(coeff.matrix_at(mesh.centroids))
    out = []
    for energy_form in (True, False):
        weighted, flux = cell._strain_and_flux(mesh, mats, sol.correctors)
        t = np.empty((2, 2))
        for j in range(2):
            if energy_form:
                for i in range(2):
                    t[i, j] = np.einsum("md,md->", weighted[i],
                                        flux[j]) / ctx.area
            else:
                t[:, j] = np.einsum("m,md->d", mesh.areas,
                                    flux[j]) / ctx.area
        out.append(t)
    return out


class TestScalarCell:
    def test_no_inclusion_corrector_vanishes(self, aniso_field):
        mesh = geo.build_unit_cell_mesh(geo.InclusionSpec.none(), 0.1)
        ctx = cell.CellContext.from_mesh(mesh)
        sol = scalar_correctors(ctx, aniso_field)
        assert max(np.abs(sol.correctors[j]).max() for j in (0, 1)) < 1e-12
        volume = volume_tensor(ctx, sol, aniso_field)
        assert np.abs(volume - np.diag([2.0, 1.0])).max() < 1e-13

    def test_mean_zero_normalization(self, aniso_field):
        ctx = off_centre_ctx()
        sol = scalar_correctors(ctx, aniso_field)
        for j in (0, 1):
            assert abs(float(ctx.mean_weights @ sol.correctors[j])) \
                / ctx.area <= 1e-10

    def test_periodic_trace_shared(self, cell_ctx, identity_field):
        sol = scalar_correctors(cell_ctx, identity_field)
        pairs = cell_ctx.periodic.pairs
        for j in (0, 1):
            chi = sol.correctors[j]
            assert np.array_equal(chi[pairs[:, 0]], chi[pairs[:, 1]])

    def test_reflection_symmetries(self, cell_ctx, identity_field):
        # x-direction corrector: odd across the forced axis, even across the
        # other one (centered disc)
        sol = scalar_correctors(cell_ctx, identity_field)
        chi = sol.correctors[0]
        odd = reflect_map(cell_ctx.mesh, lambda p: (1 - p[0], p[1]))
        even = reflect_map(cell_ctx.mesh, lambda p: (p[0], 1 - p[1]))
        assert max(abs(chi[i] + chi[j]) for i, j in odd) < 1e-10
        assert max(abs(chi[i] - chi[j]) for i, j in even) < 1e-10

    def test_self_convergence_order(self, disc_spec, identity_field):
        fine = geo.build_unit_cell_mesh(disc_spec, 1 / 64)
        fine_ctx = cell.CellContext.from_mesh(fine)
        chi_fine = scalar_correctors(fine_ctx, identity_field).correctors[0]
        errs = []
        hs = (1 / 8, 1 / 16, 1 / 32)
        for h in hs:
            mesh = geo.build_unit_cell_mesh(disc_spec, h)
            ctx = cell.CellContext.from_mesh(mesh)
            chi = scalar_correctors(ctx, identity_field).correctors[0]
            ref = P1Interpolator(fine, mesh.nodes)(chi_fine)
            diff = chi - ref
            diff -= ctx.mean_weights @ diff / ctx.area
            K = fem.assemble_stiffness(mesh, identity_field)
            errs.append(math.sqrt(max(diff @ (K @ diff), 0.0)))
        order = math.log(errs[0] / errs[2]) / math.log(4)
        assert order >= 0.9

    def test_frozen_oracle_value(self, disc_spec, identity_field):
        mesh = geo.build_unit_cell_mesh(disc_spec, 0.025)
        ctx = cell.CellContext.from_mesh(mesh)
        tensor, _ = cell.scalar_tensor_with_check(ctx, identity_field)
        d = tensor.matrix[0, 0]
        assert abs(d - D_EFF_ORACLE) <= 1.5 * 0.025 ** 2
        assert abs(tensor.matrix[0, 1]) <= 1e-8
        assert abs(tensor.matrix[0, 0] - tensor.matrix[1, 1]) <= 1e-8

    def test_form_equivalence(self, cell_ctx, identity_field):
        tensor, _ = cell.scalar_tensor_with_check(cell_ctx, identity_field)
        assert tensor.cross_check_err <= 1e-9

    def test_tensors_match_the_four_operand_formulas(self, cell_ctx,
                                                     aniso_field):
        tensor, sol = cell.scalar_tensor_with_check(cell_ctx, aniso_field)
        want = four_operand_tensors(cell_ctx, [(aniso_field, sol.correctors)])
        forms = (tensor.matrix, volume_tensor(cell_ctx, sol, aniso_field))
        for got, ref in zip(forms, want):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_checked_tensor_is_both_forms_of_one_pass(
            self, cell_mesh, aniso_field, monkeypatch, gradient_computations):
        # the mesh's gradients, computed once, serve the solve and both
        # formulas; the matrices are bitwise those of one formula evaluated
        # per form
        ctx = cell.CellContext.from_mesh(dataclasses.replace(cell_mesh))
        tensor, sol = cell.scalar_tensor_with_check(ctx, aniso_field)
        assert len(gradient_computations) == 1
        assert gradient_computations[0] is ctx.mesh
        monkeypatch.undo()
        mesh = ctx.mesh
        mats = np.asarray(aniso_field.matrix_at(mesh.centroids))
        ref = cell._solve_scalar(
            ctx, fem.assemble_stiffness_elementwise(mesh, mats),
            cell._direction_loads(mesh, mats))
        for j in range(2):
            assert np.array_equal(sol.correctors[j], ref[j])
        assert tensor.form == cell.TensorForm.SCALAR_ENERGY
        want = per_form_tensors(ctx, sol, aniso_field)
        assert np.array_equal(tensor.matrix, want[0])
        assert tensor.cross_check_err == np.abs(want[0] - want[1]).max()

    def test_upper_bound(self, cell_ctx, aniso_field):
        tensor, _ = cell.scalar_tensor_with_check(cell_ctx, aniso_field)
        mean = cell.mean_coefficient(cell_ctx, aniso_field)
        for xi in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                   np.array([1.0, 1.0]) / math.sqrt(2)):
            assert xi @ tensor.matrix @ xi <= xi @ mean @ xi + 1e-12

    def test_mesh_mismatch(self, cell_ctx, coarse_ctx, identity_field):
        chi = dict(enumerate(
            scalar_correctors(coarse_ctx, identity_field).correctors))
        sol = cell.CoupledCellSolution(coarse_ctx.mesh, chi, chi, 0.0)
        problem = cell.CoupledCellProblem(cell_ctx, identity_field,
                                          identity_field)
        with pytest.raises(MeshMismatchError):
            problem.tensors(sol)

    def test_zero_coefficient_is_a_singular_system(self, coarse_ctx):
        # SuperLU's RuntimeError on the singular cell matrix is reported
        # as the solver error class
        with pytest.raises(SingularSystemError):
            cell.scalar_tensor_with_check(
                coarse_ctx, fem.CoefficientField.isotropic(0.0))


class TestCoupledCell:
    def test_zero_exchange_decouples(self, cell_ctx, identity_field,
                                     aniso_field):
        coupled = cell.solve_coupled_pair(cell_ctx, identity_field,
                                          aniso_field, 0.0)
        s1 = scalar_correctors(cell_ctx, identity_field)
        s2 = scalar_correctors(cell_ctx, aniso_field)
        for j in (0, 1):
            assert np.abs(coupled.first[j] - s1.correctors[j]).max() < 1e-9
            assert np.abs(coupled.second[j] - s2.correctors[j]).max() < 1e-9

    def test_decoupling_identity(self, cell_ctx, identity_field):
        two = fem.CoefficientField.isotropic(2.0)
        b0, _ = cell.coupled_tensor_with_check(cell_ctx, identity_field, two,
                                               0.0)
        t1, _ = cell.scalar_tensor_with_check(cell_ctx, identity_field)
        t2, _ = cell.scalar_tensor_with_check(cell_ctx, two)
        assert np.abs(b0.matrix - t1.matrix - t2.matrix).max() <= 1e-9

    def test_equal_coefficients_collapse(self, cell_ctx, identity_field):
        other = fem.CoefficientField.isotropic(1.0)
        t, _ = cell.scalar_tensor_with_check(cell_ctx, identity_field)
        for hv in (0.0, 0.5, 7.3):
            sol = cell.solve_coupled_pair(cell_ctx, identity_field, other, hv)
            for j in (0, 1):
                assert np.array_equal(sol.first[j], sol.second[j])
            b = cell.CoupledCellProblem(cell_ctx, identity_field,
                                        other).tensors(sol)[0]
            assert np.abs(b - 2.0 * t.matrix).max() <= 1e-12

    def test_form_equivalence_active_coupling(self, cell_ctx, identity_field,
                                              aniso_field):
        for hv in (0.5, 1.0, 10.0):
            b, _ = cell.coupled_tensor_with_check(cell_ctx, identity_field,
                                                  aniso_field, hv)
            assert b.cross_check_err <= 1e-9
            assert b.min_eig > 0
            assert b.asymmetry <= 1e-10

    def test_monotone_limit_large_exchange(self, cell_ctx, identity_field,
                                           aniso_field):
        K = fem.assemble_stiffness(cell_ctx.mesh, identity_field)
        ref = cell.solve_coupled_pair(cell_ctx, identity_field, aniso_field,
                                      1e6)
        dists = []
        for hv in (0.1, 1.0, 10.0):
            sol = cell.solve_coupled_pair(cell_ctx, identity_field,
                                          aniso_field, hv)
            d = 0.0
            for j in (0, 1):
                for a, b in ((sol.first[j], ref.first[j]),
                             (sol.second[j], ref.second[j])):
                    diff = a - b
                    d += float(diff @ (K @ diff))
            dists.append(math.sqrt(d))
        assert dists[0] > dists[1] > dists[2]

    def test_langmuir_saturation(self, cell_ctx, identity_field, aniso_field):
        h_inf = 1.0  # a/b for a = b = 1
        h_100 = 100.0 / 101.0
        b_inf, _ = cell.coupled_tensor_with_check(cell_ctx, identity_field,
                                                  aniso_field, h_inf)
        b_100, _ = cell.coupled_tensor_with_check(cell_ctx, identity_field,
                                                  aniso_field, h_100)
        rel = np.abs(b_100.matrix - b_inf.matrix).max() \
            / np.abs(b_inf.matrix).max()
        assert rel <= 0.02

    def test_shared_constant_invariance(self, cell_ctx, identity_field,
                                        aniso_field):
        b, sol = cell.coupled_tensor_with_check(cell_ctx, identity_field,
                                                aniso_field, 1.0)
        shifted = cell.CoupledCellSolution(
            cell_ctx.mesh,
            {j: sol.first[j] + 0.37 for j in (0, 1)},
            {j: sol.second[j] + 0.37 for j in (0, 1)},
            sol.exchange_rate)
        b2 = cell.CoupledCellProblem(cell_ctx, identity_field,
                                     aniso_field).tensors(shifted)[0]
        assert np.abs(b2 - b.matrix).max() < 1e-12


class TestDispersionTable:
    def test_zero_exchange_constant_table(self, coarse_ctx, identity_field,
                                          aniso_field):
        table = cell.tabulate_b(coarse_ctx, identity_field, aniso_field,
                                lambda s: 0.0 * np.asarray(s, float),
                                (0.0, 1.0, 2.0))
        spread = np.abs(table.matrices - table.matrices[0]).max()
        assert spread < 1e-12

    def test_langmuir_surface_trend(self, cell_ctx, identity_field,
                                    aniso_field):
        # over the Langmuir range the boundary-energy share grows with s
        surf = []
        for s in (0.0, 0.5, 1.0, 2.0, 4.0):
            hv = s / (1.0 + s)
            _, sol = cell.coupled_tensor_with_check(cell_ctx, identity_field,
                                                    aniso_field, hv, s=s)
            val = 0.0
            for j in (0, 1):
                d = sol.first[j] - sol.second[j]
                val += hv * float(d @ (cell_ctx.gamma_mass @ d))
            surf.append(val / cell_ctx.area)
        assert all(b > a for a, b in zip(surf, surf[1:]))

    def test_table_entries_and_interpolation(self, coarse_ctx, identity_field,
                                             aniso_field):
        lang = lambda s: np.maximum(s, 0.0) / (1.0 + np.maximum(s, 0.0))
        problem = cell.CoupledCellProblem(coarse_ctx, identity_field,
                                          aniso_field)
        table = problem.table(lang, (0.0, 0.5, 1.0, 2.0, 4.0))
        for mat in table.matrices:
            assert np.abs(mat - mat.T).max() <= 1e-10
            assert np.linalg.eigvalsh(mat).min() > 0
        assert problem.midpoint_error(lang, table) > 0
        assert table.cross_check_err <= 1e-9

    @pytest.mark.parametrize("s", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0],
                                   [0.0, np.nan, 1.0]])
    def test_abscissae_strictly_increasing(self, s):
        with pytest.raises(ValueError, match="strictly increasing"):
            cell.DispersionTable(s, np.stack([np.eye(2)] * 3))

    @settings(max_examples=25, deadline=None)
    @given(s=st.floats(min_value=-1.0, max_value=6.0, allow_nan=False))
    def test_interpolated_min_eig(self, s):
        mats = np.stack([np.diag([2.0, 1.0]), np.diag([1.5, 1.2]),
                         np.diag([1.1, 1.05])])
        table = cell.DispersionTable(np.array([0.0, 1.0, 3.0]), mats)
        val = table.evaluate_many([s])[0]
        assert np.abs(val - val.T).max() <= 1e-12
        sc = min(max(s, 0.0), 3.0)
        idx = min(int(np.searchsorted(table.s, sc, side="right")) - 1, 1)
        neighbor_min = min(np.linalg.eigvalsh(mats[idx]).min(),
                           np.linalg.eigvalsh(mats[idx + 1]).min())
        assert np.linalg.eigvalsh(val).min() >= (1 - 1e-6) * neighbor_min

    def test_grid_must_start_at_zero(self, coarse_ctx, identity_field,
                                     aniso_field):
        with pytest.raises(ValueError):
            cell.tabulate_b(coarse_ctx, identity_field, aniso_field,
                            lambda s: s, (0.5, 1.0))

    @pytest.mark.parametrize("grid", [(0.0,), (0.0, 1.0, 1.0),
                                      (0.0, np.nan, 1.0)])
    def test_bad_grid_rejected_before_any_solve(self, coarse_ctx,
                                                identity_field, aniso_field,
                                                monkeypatch, grid):
        def no_solve(*args, **kwargs):
            raise AssertionError("a cell problem was solved")

        monkeypatch.setattr(cell, "solve_coupled_pair", no_solve)
        with pytest.raises(ValueError, match="s grid"):
            cell.tabulate_b(coarse_ctx, identity_field, aniso_field,
                            lambda s: s, grid)

    def test_table_is_sorted_and_solves_only_its_samples(
            self, coarse_ctx, identity_field, aniso_field, monkeypatch):
        rates = []
        solve = cell.CoupledCellProblem.solve

        def spy(problem, rate):
            rates.append(rate)
            return solve(problem, rate)

        monkeypatch.setattr(cell.CoupledCellProblem, "solve", spy)
        table = cell.tabulate_b(coarse_ctx, identity_field, aniso_field,
                                lambda s: s / (1.0 + s), (2.0, 0.0, 1.0))
        assert table.s.tolist() == [0.0, 1.0, 2.0]
        assert rates == [0.0, 0.5, 2.0 / 3.0]

    def test_json_schema(self, coarse_ctx, identity_field, aniso_field):
        table = cell.tabulate_b(coarse_ctx, identity_field, aniso_field,
                                lambda s: np.minimum(np.maximum(s, 0.0), 1.0),
                                (0.0, 1.0))
        doc = table.as_json_dict()
        assert {"interpolation", "midpoint_error", "entries"} <= set(doc)
        assert {"s", "matrix", "min_eig"} <= set(doc["entries"][0])
        tensor, _ = cell.scalar_tensor_with_check(coarse_ctx, identity_field)
        tdoc = tensor.as_json_dict()
        assert {"form", "h", "s", "matrix", "min_eig",
                "cross_check_err"} == set(tdoc)


def periodic_selection(pm):
    """The 0/1 matrix P (nodes x masters) of a periodic map, built here."""
    masters = np.setdiff1d(np.arange(pm.n_nodes), pm.pairs[:, 1])
    return sp.csr_matrix(
        (np.ones(pm.n_nodes),
         (np.arange(pm.n_nodes), np.searchsorted(masters, pm.master_of()))),
        shape=(pm.n_nodes, len(masters)))


def bordered_solve(P, A, w, loads):
    """x = P y for each load b, from one sparse direct solve of the
    bordered multiplier system [[P'AP, P'w], [w'P, 0]] (y, lam) = (P'b, 0).
    """
    border = sp.csr_matrix((P.T @ w).reshape(-1, 1))
    A_b = sp.bmat([[P.T @ A @ P, border], [border.T, None]], format="csc")
    m = P.shape[1]
    return [P @ spla.spsolve(A_b, np.concatenate([P.T @ b, [0.0]]))[:m]
            for b in loads]


def direct_bordered_pair(ctx, coeff1, coeff2, kappa):
    """Correctors from one sparse direct solve of the assembled 2N block.

    The block [[K1 + C, -C], [-C, K2 + C]], C = kappa * Gamma mass, reduced
    by the block-periodic map and bordered by the first-field mean-zero
    multiplier.
    """
    mesh = ctx.mesh
    n = mesh.n_nodes
    K1 = fem.assemble_stiffness(mesh, coeff1)
    K2 = fem.assemble_stiffness(mesh, coeff2)
    C = kappa * ctx.gamma_mass
    A = sp.bmat([[K1 + C, -C], [-C, K2 + C]], format="csr")
    loads = [cell._direction_loads(mesh,
                                   np.asarray(c.matrix_at(mesh.centroids)))
             for c in (coeff1, coeff2)]
    xs = bordered_solve(
        periodic_selection(cell._block_periodic(ctx.periodic, n)), A,
        np.concatenate([ctx.mean_weights, np.zeros(n)]),
        [np.concatenate([loads[0][j], loads[1][j]]) for j in range(2)])
    return cell.CoupledCellSolution(mesh, {j: xs[j][:n] for j in range(2)},
                                    {j: xs[j][n:] for j in range(2)}, kappa)


class TestGaugeReduction:
    def test_gauge_system_is_sparse_spd_and_matches_the_border(
            self, coarse_ctx, identity_field, aniso_field):
        ctx = coarse_ctx
        mesh = ctx.mesh
        n = mesh.n_nodes
        w = ctx.mean_weights
        kappa = 0.7
        K1 = fem.assemble_stiffness(mesh, identity_field)
        K2 = fem.assemble_stiffness(mesh, aniso_field)
        C = kappa * ctx.gamma_mass
        loads = [cell._direction_loads(mesh,
                                       np.asarray(c.matrix_at(mesh.centroids)))
                 for c in (identity_field, aniso_field)]
        scalar = (fem.ConstraintReducer(ctx.periodic, w), ctx.periodic, K2,
                  w, list(loads[1]))
        block_pm = cell._block_periodic(ctx.periodic, n)
        w2 = np.concatenate([w, np.zeros(n)])
        coupled = (fem.ConstraintReducer(block_pm, w2), block_pm,
                   sp.bmat([[K1 + C, -C], [-C, K2 + C]], format="csr"), w2,
                   [np.concatenate([loads[0][j], loads[1][j]])
                    for j in range(2)])
        problem = cell.CoupledCellProblem(ctx, identity_field, aniso_field)
        problem.solve(kappa)
        rng = np.random.default_rng(11)
        for red, pm, A, weights, rhs in (scalar, coupled):
            A_r, _ = red.reduce(A, rhs[0])
            # no dense border row
            assert np.diff(A_r.indptr).max() < 30
            # SPD: symmetric, and a Cholesky factor exists
            assert abs(A_r - A_r.T).max() == 0.0
            np.linalg.cholesky(A_r.toarray())
            # expand: the reduced vector with the gauge (the first master
            # with a positive weight) at zero, shifted by one constant on
            # every node to w'x = 0
            P = periodic_selection(pm)
            gauge = np.flatnonzero(P.T @ weights > 0)[0]
            x_r = rng.standard_normal(A_r.shape[0])
            x = red.expand(x_r)
            shift = x - P @ np.insert(x_r, gauge, 0.0)
            assert np.abs(shift - shift[0]).max() <= 1e-12
            assert abs(weights @ x) <= 1e-12
            # the gauge solution is the bordered one
            for b, want in zip(rhs, bordered_solve(P, A, weights, rhs)):
                got = red.expand(spla.spsolve(A_r.tocsc(),
                                              red.reduce_rhs(b)))
                assert np.linalg.norm(got - want) \
                    <= 1e-12 * np.linalg.norm(want)
        A_k = (problem.K_r + kappa * problem.E_r).tocsr()
        assert np.diff(A_k.indptr).max() < 30
        assert abs(A_k - coupled[0].restrict(coupled[2])).max() \
            <= 1e-14 * abs(A_k).max()

    def test_rates_start_from_the_nearest_solved_rate(
            self, coarse_ctx, identity_field, aniso_field, monkeypatch):
        problem = cell.CoupledCellProblem(coarse_ctx, identity_field,
                                          aniso_field)
        starts = []
        solve = problem.held.solve

        def record(A, b, x0=None, operator=None):
            starts.append(x0.copy())
            return solve(A, b, x0=x0, operator=operator)

        monkeypatch.setattr(problem.held, "solve", record)
        for kappa in (1.0, 3.0, 2.0, 2.5):
            problem.solve(kappa)
        assert not np.any(starts[0]) and not np.any(starts[1])
        # 3.0 from 1.0; 2.0 is as near 1.0 as 3.0 and takes the lower rate;
        # 2.5 is as near 2.0 as 3.0
        for k, source in enumerate((1.0, 1.0, 2.0), start=1):
            for j in range(2):
                assert np.array_equal(starts[2 * k + j],
                                      problem._reduced[source][:, j])


class TestCoupledCellProblem:
    def test_matches_direct_bordered_solve(self, coarse_ctx, identity_field,
                                           aniso_field):
        # the first rate is factored and solved in one CG iteration; the
        # others are CG solves preconditioned by that held factor
        problem = cell.CoupledCellProblem(coarse_ctx, identity_field,
                                          aniso_field)
        for kappa in (1e-3, 0.1, 1.0, 10.0, 1e3):
            sol = problem.solve(kappa)
            ref = direct_bordered_pair(coarse_ctx, identity_field,
                                       aniso_field, kappa)
            for j in (0, 1):
                for got, want in ((sol.first[j], ref.first[j]),
                                  (sol.second[j], ref.second[j])):
                    assert np.linalg.norm(got - want) \
                        <= 1e-10 * np.linalg.norm(want)
            for got, want in zip(problem.tensors(sol), problem.tensors(ref)):
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_far_rates_meet_the_residual_contract(self, coarse_ctx,
                                                  identity_field,
                                                  aniso_field):
        # 1e9 apart from the held rate, CG still meets the 1e-10 contract:
        # the rates differ by a term of rank |Gamma|, which bounds the
        # iterations; the slow solve refactors at its own rate
        problem = cell.CoupledCellProblem(coarse_ctx, identity_field,
                                          aniso_field)
        problem.solve(1e-3)
        for kappa in (1e4, 1e6):
            got = problem.tensors(problem.solve(kappa))[0]
            want = problem.tensors(direct_bordered_pair(
                coarse_ctx, identity_field, aniso_field, kappa))[0]
            assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()

    def test_far_jump_refreshes_the_held_factor_once(self, coarse_ctx,
                                                     identity_field,
                                                     aniso_field,
                                                     monkeypatch):
        monkeypatch.setattr(fem, "REFACTOR_ITERS", 2)
        iterations = []
        pcg = fem.pcg

        def count(*args, **kwargs):
            x, iters = pcg(*args, **kwargs)
            iterations.append(iters)
            return x, iters

        monkeypatch.setattr(fem, "pcg", count)
        problem = cell.CoupledCellProblem(coarse_ctx, identity_field,
                                          aniso_field)
        problem.solve(1e-3)
        assert iterations == [1, 1] and problem.held.refactors == 0
        problem.solve(1e6)
        assert iterations[2] > 2 and problem.held.refactors == 1
        del iterations[:]
        problem.solve(1e6)
        assert len(iterations) == 2 and max(iterations) <= 2
        assert problem.held.refactors == 1

    def test_btable_factors_the_coupled_system_once(self, coarse_ctx,
                                                    identity_field,
                                                    aniso_field,
                                                    factorize_calls):
        # the acceptance pair and kinetics over the benchmark's s grid:
        # eight positive rates (four samples, then the four midpoints that
        # `porodiff btable` checks) share one held factor
        h = kin.parse_kinetics("mm_triple+langmuir:a=1,b=1").h
        problem = cell.CoupledCellProblem(coarse_ctx, identity_field,
                                          aniso_field)
        table = problem.table(h, (0.0, 0.25, 0.5, 1.0, 2.0))
        problem.midpoint_error(h, table)
        assert len(table.s) == 5
        n = coarse_ctx.mesh.n_nodes
        assert len([shape for shape in factorize_calls if shape[0] > n]) == 1

    def test_zero_exchange_tensor_is_the_scalar_sum(self, cell_ctx,
                                                    identity_field,
                                                    aniso_field):
        problem = cell.CoupledCellProblem(cell_ctx, identity_field,
                                          aniso_field)
        b0, _ = cell.coupled_tensor_with_check(
            cell_ctx, identity_field, aniso_field, 0.0, problem=problem)
        t1, _ = cell.scalar_tensor_with_check(cell_ctx, identity_field)
        t2, _ = cell.scalar_tensor_with_check(cell_ctx, aniso_field)
        assert np.abs(b0.matrix - t1.matrix - t2.matrix).max() <= 1e-14

    @pytest.mark.parametrize("second,fields", [("aniso", 2),
                                               ("identity", 1)])
    def test_fields_assembled_once(self, coarse_ctx, identity_field,
                                   aniso_field, monkeypatch, second, fields):
        # the coupled reference and the decoupled solves share each field's
        # stiffness matrix and loads; the scalar solve is bitwise that of a
        # fresh context
        assembled = []
        assemble = fem.assemble_stiffness_elementwise

        def count(*args):
            assembled.append(args)
            return assemble(*args)

        other = {"aniso": aniso_field, "identity": identity_field}[second]
        ctx = cell.CellContext.from_mesh(coarse_ctx.mesh)
        monkeypatch.setattr(fem, "assemble_stiffness_elementwise", count)
        problem = cell.CoupledCellProblem(ctx, identity_field, other)
        zero = problem.solve(0.0)
        for kappa in (0.5, 1.0, 0.0):
            problem.solve(kappa)
        assert len(assembled) == fields
        monkeypatch.undo()
        for field, coeff in ((zero.first, identity_field),
                             (zero.second, other)):
            scalar = scalar_correctors(
                cell.CellContext.from_mesh(coarse_ctx.mesh), coeff)
            for j in range(2):
                assert np.array_equal(field[j], scalar.correctors[j])

    @pytest.fixture
    def scalar_solves(self, monkeypatch):
        """The stiffness matrix of every ``cell._solve_scalar`` call."""
        solved = []
        solve_scalar = cell._solve_scalar

        def count(ctx, K, loads):
            solved.append(K)
            return solve_scalar(ctx, K, loads)

        monkeypatch.setattr(cell, "_solve_scalar", count)
        return solved

    def test_scalar_correctors_solved_once_per_field(self, coarse_ctx,
                                                     identity_field,
                                                     aniso_field,
                                                     scalar_solves):
        # an equal pair and the zero rate reuse each field's scalar
        # correctors; the held arrays are bitwise the scalar solve's
        mesh = coarse_ctx.mesh
        h = kin.parse_kinetics("langmuir:a=1,b=1").h
        table = cell.tabulate_b(cell.CellContext.from_mesh(mesh),
                                identity_field, identity_field, h,
                                (0.0, 0.5, 1.0, 2.0))
        assert len(scalar_solves) == 1
        del scalar_solves[:]
        ctx = cell.CellContext.from_mesh(mesh)
        problem = cell.CoupledCellProblem(ctx, identity_field, aniso_field)
        for kappa in (0.0, 0.5, 0.0):
            sol = problem.solve(kappa)
        cell.scalar_tensor_with_check(ctx, identity_field)
        assert len(scalar_solves) == 2
        t1, scalar = cell.scalar_tensor_with_check(
            cell.CellContext.from_mesh(mesh), identity_field)
        for j in range(2):
            assert np.array_equal(sol.first[j], scalar.correctors[j])
        assert np.array_equal(table.matrices,
                              np.stack([2.0 * t1.matrix] * 4))

    def test_d0_and_the_table_share_one_scalar_solve(self, coarse_ctx,
                                                     aniso_field,
                                                     scalar_solves):
        # d1 is a different field object of the same operator as d3, so
        # the table's zero-rate sample reads the correctors that D0 solved
        d3 = fem.CoefficientField.isotropic(1.0)
        d1 = fem.CoefficientField.constant(np.eye(2))
        assert d1 is not d3 and d1.same_operator(d3)
        h = kin.parse_kinetics("mm_triple+langmuir:a=1,b=1").h
        grid = (0.0, 0.25, 0.5, 1.0, 2.0)
        ctx = cell.CellContext.from_mesh(coarse_ctx.mesh)
        cell.scalar_tensor_with_check(ctx, d3)
        table = cell.tabulate_b(ctx, d1, aniso_field, h, grid)
        assert len(scalar_solves) == 2
        fresh = cell.tabulate_b(cell.CellContext.from_mesh(coarse_ctx.mesh),
                                d1, aniso_field, h, grid)
        assert np.array_equal(table.matrices, fresh.matrices)
        assert table.cross_check_err == fresh.cross_check_err

    def test_concurrent_requests_give_one_result(self, coarse_ctx,
                                                 identity_field,
                                                 aniso_field):
        # threads race on the context's first solve of each operator; at
        # worst one is solved twice, and every tensor is the serial one
        fields = [identity_field, aniso_field,
                  fem.CoefficientField.constant(np.eye(2))]
        serial = cell.CellContext.from_mesh(coarse_ctx.mesh)
        want = [cell.scalar_tensor_with_check(serial, c)[0].matrix
                for c in fields]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                ctx = cell.CellContext.from_mesh(coarse_ctx.mesh)
                with ThreadPoolExecutor(max_workers=6) as pool:
                    futures = [pool.submit(cell.scalar_tensor_with_check,
                                           ctx, fields[k % 3])
                               for k in range(12)]
                    got = [f.result(timeout=60)[0].matrix for f in futures]
                for k, matrix in enumerate(got):
                    assert np.array_equal(matrix, want[k % 3])
                assert ctx.scalar_cell(fields[0]) is ctx.scalar_cell(fields[2])
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.parametrize("kappa", [0.0, 0.2, 0.667])
    def test_tensors_match_the_four_operand_formulas(self, cell_ctx,
                                                     identity_field,
                                                     aniso_field, kappa):
        problem = cell.CoupledCellProblem(cell_ctx, identity_field,
                                          aniso_field)
        sol = problem.solve(kappa)
        energy, volume = four_operand_tensors(
            cell_ctx, [(identity_field, sol.first), (aniso_field, sol.second)])
        for i in range(2):
            for j in range(2):
                d_i = sol.first[i] - sol.second[i]
                d_j = sol.first[j] - sol.second[j]
                energy[i, j] += kappa * float(
                    d_i @ (cell_ctx.gamma_mass @ d_j)) / cell_ctx.area
        for got, want in zip(problem.tensors(sol), (energy, volume)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestCoupledNormalization:
    def test_first_field_mean_zero(self, identity_field, aniso_field):
        ctx = off_centre_ctx()
        sol = cell.solve_coupled_pair(ctx, identity_field, aniso_field, 1.0)
        for j in (0, 1):
            res = abs(float(ctx.mean_weights @ sol.first[j]))
            assert res / ctx.area <= 1e-10

    def test_both_fields_mean_zero_at_zero_exchange(self, cell_ctx,
                                                    identity_field,
                                                    aniso_field):
        sol = cell.solve_coupled_pair(cell_ctx, identity_field, aniso_field,
                                      0.0)
        for j in (0, 1):
            for chi in (sol.first[j], sol.second[j]):
                assert abs(float(cell_ctx.mean_weights @ chi)) \
                    / cell_ctx.area <= 1e-10

    def test_negative_exchange_rejected(self, cell_ctx, identity_field,
                                        aniso_field):
        for rate in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                cell.solve_coupled_pair(cell_ctx, identity_field,
                                        aniso_field, rate)
