"""Periodic cell problems and the effective tensors built from them.

The scalar problem yields the constant effective diffusion tensor of the
slow species; the two-field problem, coupled through an exchange term on the
inclusion boundary, yields the concentration-dependent dispersion tensor of
the fast pair. Each tensor is the energy formula, cross-checked against the
volume-average formula; on one discrete solution the two agree to solver
precision, which the tests pin at 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp

from . import fem
from .errors import MeshMismatchError
from .geometry import EdgeMarker, Mesh, PeriodicMap, pair_periodic_nodes


class TensorForm(str, Enum):
    SCALAR_ENERGY = "SCALAR_ENERGY"
    COUPLED_ENERGY = "COUPLED_ENERGY"


@dataclass
class CellContext:
    """Perforated unit-cell mesh with its periodic identification and
    measures.

    The context solves the scalar cell problem of each distinct operator
    (``CoefficientField.same_operator``) once and holds it, not its factor
    (``scalar_cell``). Concurrent first requests of one operator may each
    solve it; every caller gets an identical result.
    """

    mesh: Mesh
    periodic: PeriodicMap
    mean_weights: np.ndarray
    area: float
    gamma_length: float
    gamma_mass: sp.csr_matrix
    _scalar_cells: list = field(default_factory=list, repr=False)

    @classmethod
    def from_mesh(cls, mesh):
        periodic = pair_periodic_nodes(mesh)
        weights = fem.lumped_integral_weights(mesh)
        gamma_mass = fem.assemble_boundary_mass(mesh, EdgeMarker.GAMMA, 1.0)
        gamma_length = mesh.marked_length(EdgeMarker.GAMMA)
        return cls(mesh, periodic, weights, mesh.area, gamma_length, gamma_mass)

    def scalar_cell(self, coeff):
        """The ScalarCell of ``coeff``'s operator, solved on first request."""
        for held in self._scalar_cells:
            if held.coeff.same_operator(coeff):
                return held
        mats = np.asarray(coeff.matrix_at(self.mesh.centroids))
        K = fem.assemble_stiffness_elementwise(self.mesh, mats)
        loads = _direction_loads(self.mesh, mats)
        correctors = _solve_scalar(self, K, loads)
        for chi in correctors:
            chi.setflags(write=False)  # shared by every reader
        held = ScalarCell(coeff, mats, K, loads, correctors)
        self._scalar_cells.append(held)
        return held


@dataclass(frozen=True)
class ScalarCell:
    """The scalar cell problem of one coefficient operator on a CellContext:
    element coefficient matrices (M,2,2), stiffness matrix, direction loads
    (2,N) and the read-only correctors, one per direction."""

    coeff: fem.CoefficientField
    mats: np.ndarray
    K: sp.csr_matrix
    loads: np.ndarray
    correctors: tuple[np.ndarray, np.ndarray]


@dataclass
class CoupledCellSolution:
    """Corrector pair of the exchange-coupled cell problem."""

    mesh: Mesh
    first: dict[int, np.ndarray]
    second: dict[int, np.ndarray]
    exchange_rate: float


def _direction_loads(mesh, mats):
    """Load vectors f_j[i] = sum_T |T| (D_T e_j) . grad(phi_i), j = 0, 1."""
    nodes = mesh.triangles.reshape(-1)
    loads = np.empty((2, mesh.n_nodes))
    for j in range(2):
        contrib = np.einsum("m,mid,md->mi", mesh.areas, mesh.gradients,
                            mats[:, :, j])
        loads[j] = np.bincount(nodes, contrib.reshape(-1),
                               minlength=mesh.n_nodes)
    return loads


def _solve_scalar(ctx, K, loads):
    """Scalar correctors of both directions from K and the direction loads."""
    reducer = fem.ConstraintReducer(ctx.periodic, ctx.mean_weights)
    A_r, _ = reducer.reduce(K, np.zeros(ctx.mesh.n_nodes))
    handle = fem.splu_factor(A_r)
    return tuple(reducer.expand(fem.solve_factored(
        handle, A_r, reducer.reduce_rhs(b))) for b in loads)


def _element_gradients(mesh, values):
    return np.einsum("mid,mi->md", mesh.gradients, values[mesh.triangles])


def _strain_and_flux(mesh, mats, correctors):
    """Area-weighted strains and fluxes of one field's correctors.

    For each direction j: |T| (e_j - grad chi^j) and D (e_j - grad chi^j),
    both (M, 2); every tensor entry is a two-operand reduction of these.
    """
    eye = np.eye(2)
    strain = [eye[j] - _element_gradients(mesh, correctors[j])
              for j in range(2)]
    return ([mesh.areas[:, None] * e for e in strain],
            [np.einsum("mde,me->md", mats, e) for e in strain])


@dataclass
class EffectiveTensor:
    """2x2 effective matrix with its provenance and diagnostics."""

    matrix: np.ndarray
    form: TensorForm
    h: float
    s: float | None = None
    exchange_rate: float | None = None
    cross_check_err: float | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float).reshape(2, 2)

    @property
    def min_eig(self):
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.T))[0])

    @property
    def asymmetry(self):
        return float(np.abs(self.matrix - self.matrix.T).max())

    def as_json_dict(self):
        return {
            "form": self.form.value,
            "h": self.h,
            "s": self.s if self.s is not None else self.exchange_rate,
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "min_eig": self.min_eig,
            "cross_check_err": self.cross_check_err,
        }


def _field_sums(mesh, mats, correctors):
    """(energy, volume) sums of one field's correctors over the cell.

    The tensors of both formulas before the division by |Y*|; a coupled
    tensor adds the sums of its two fields and the exchange term.
    """
    weighted, flux = _strain_and_flux(mesh, mats, correctors)
    energy = np.empty((2, 2))
    volume = np.empty((2, 2))
    for j in range(2):
        volume[:, j] = np.einsum("m,md->d", mesh.areas, flux[j])
        for i in range(2):
            energy[i, j] = np.einsum("md,md->", weighted[i], flux[j])
    return energy, volume


def _block_periodic(pm, n):
    pairs = np.vstack([pm.pairs, pm.pairs + n])
    return PeriodicMap(pairs, 2 * n)


class CoupledCellProblem:
    """The exchange-coupled cell problem of one coefficient pair, at any rate.

    At exchange rate k > 0 the reduced system is A(k) = K_r + k E_r: K_r
    is diag(K1, K2) reduced by the block-periodic identification and one
    gauge dof (the first field's mean is restored on expansion), and E_r
    the Gamma mass on the corrector difference, a symmetric term of rank
    #Gamma nodes. A(k) is SPD, and every positive rate is solved by
    ``fem.HeldFactor``'s CG on a held factor of A(k_ref): k_ref is the
    first positive rate, and a slow direction moves it to its own rate.
    The rates differ by (k - k_ref) E_r, of rank #Gamma, which bounds the
    iterations, and each direction starts from its reduced solution at the
    nearest positive rate already solved (the lower one on a tie). At k = 0
    or on an empty Gamma (E_r = 0, so A(k) would leave the second field's
    mean free) the fields decouple, each with its own mean-zero condition,
    and are the context's scalar cells; an equal pair shares one scalar
    corrector at every rate.

    Each field's coefficient matrices, stiffness matrix, direction loads
    and scalar correctors are read from ``ctx.scalar_cell``; the problem
    holds only the coupled system, its factor and its reduced solutions.
    """

    def __init__(self, ctx, coeff1, coeff2):
        self.ctx = ctx
        self.coeffs = (coeff1, coeff2)
        self.equal = coeff1.same_operator(coeff2)
        self.K_r = None  # the coupled system, assembled at the first k > 0
        self.held = fem.HeldFactor()  # of A(k_ref)
        self._reduced = {}  # positive rate -> reduced solutions (N_r, 2)

    def _cells(self):
        """The context's ScalarCell of each field."""
        return [self.ctx.scalar_cell(c) for c in self.coeffs]

    def _assemble_coupled(self):
        """The rate-independent K_r, E_r and loads B of the coupled system."""
        ctx = self.ctx
        n = ctx.mesh.n_nodes
        cells = self._cells()
        K = sp.block_diag([c.K for c in cells], format="csr")
        mean_zero = np.concatenate([ctx.mean_weights, np.zeros(n)])
        reducer = fem.ConstraintReducer(_block_periodic(ctx.periodic, n),
                                        mean_zero)
        self.reducer = reducer
        self.K_r, _ = reducer.reduce(K, np.zeros(2 * n))
        self.B = np.column_stack([
            reducer.reduce_rhs(np.concatenate([c.loads[j] for c in cells]))
            for j in range(2)])
        G = ctx.gamma_mass
        self.E_r = reducer.restrict(sp.bmat([[G, -G], [-G, G]]))

    def solve(self, exchange_rate):
        """Coupled correctors for both directions at one exchange rate."""
        if not exchange_rate >= 0:  # NaN too
            raise ValueError("exchange rate must be nonnegative")
        ctx = self.ctx
        mesh = ctx.mesh
        if self.equal or exchange_rate == 0 or ctx.gamma_length == 0:
            first, second = (dict(enumerate(c.correctors))
                             for c in self._cells())
            return CoupledCellSolution(mesh, first, second, exchange_rate)
        if self.K_r is None:
            self._assemble_coupled()
        rate = float(exchange_rate)
        A = (self.K_r + rate * self.E_r).tocsr()
        start = self._reduced.get(min(
            self._reduced, default=None, key=lambda k: (abs(k - rate), k)),
            np.zeros_like(self.B))
        X = np.empty_like(self.B)
        n = mesh.n_nodes
        first, second = {}, {}
        for j in range(2):
            X[:, j] = self.held.solve(A, self.B[:, j], x0=start[:, j])
            x = self.reducer.expand(X[:, j])
            first[j], second[j] = x[:n], x[n:]
        self._reduced[rate] = X
        return CoupledCellSolution(mesh, first, second, exchange_rate)

    def tensors(self, sol):
        """(energy-form, volume-form) dispersion matrices of one solution."""
        ctx = self.ctx
        if sol.mesh is not ctx.mesh:
            raise MeshMismatchError("solution was computed on a different mesh")
        if set(sol.first) != {0, 1} or set(sol.second) != {0, 1}:
            raise MeshMismatchError("both corrector directions are required")
        (e1, v1), (e2, v2) = (
            _field_sums(ctx.mesh, c.mats, corr)
            for c, corr in zip(self._cells(), (sol.first, sol.second)))
        energy = e1 + e2
        if sol.exchange_rate > 0:
            diff = [sol.first[j] - sol.second[j] for j in range(2)]
            energy += sol.exchange_rate * np.array(
                [[diff[i] @ (ctx.gamma_mass @ diff[j]) for j in range(2)]
                 for i in range(2)])
        return energy / ctx.area, (v1 + v2) / ctx.area

    def _tensor_at(self, exchange_fn, s):
        """The checked dispersion tensor at s, solved at exchange_fn(s)."""
        return coupled_tensor_with_check(
            self.ctx, *self.coeffs, float(exchange_fn(s)), s=s,
            problem=self)[0]

    def table(self, exchange_fn, s_grid):
        """The dispersion table over the checked ``s_grid``: each sample,
        in ascending s, solves this problem at the rate exchange_fn(s)."""
        s_grid = check_s_grid(s_grid)
        tensors = [self._tensor_at(exchange_fn, s) for s in s_grid]
        return DispersionTable(
            s_grid, np.stack([t.matrix for t in tensors]),
            cross_check_err=max(t.cross_check_err for t in tensors),
            h=self.ctx.mesh.h)

    def midpoint_error(self, exchange_fn, table):
        """Largest entry gap between the tensor solved at the midpoint of
        two adjacent samples of ``table`` and the interpolated one."""
        s, mats = table.s, table.matrices
        return max(
            float(np.abs(0.5 * (mats[k] + mats[k + 1]) - self._tensor_at(
                exchange_fn, 0.5 * (s[k] + s[k + 1])).matrix).max())
            for k in range(len(s) - 1))


def solve_coupled_pair(ctx, coeff1, coeff2, exchange_rate, problem=None):
    """Coupled correctors for both directions at one exchange rate, by
    ``problem`` (a CoupledCellProblem of the same (ctx, coeff1, coeff2),
    which keeps its factor for further rates) or by a fresh one."""
    if problem is None:
        problem = CoupledCellProblem(ctx, coeff1, coeff2)
    return problem.solve(exchange_rate)


def scalar_tensor_with_check(ctx, coeff):
    """Energy-form tensor plus the cross-check against the volume form, and
    the context's ScalarCell of ``coeff``; both formulas share one strain
    and flux pass."""
    scalar = ctx.scalar_cell(coeff)
    energy, volume = (t / ctx.area for t in _field_sums(
        ctx.mesh, scalar.mats, scalar.correctors))
    te = EffectiveTensor(energy, TensorForm.SCALAR_ENERGY, h=ctx.mesh.h,
                         cross_check_err=float(np.abs(energy - volume).max()))
    return te, scalar


def coupled_tensor_with_check(ctx, coeff1, coeff2, exchange_rate, s=None,
                              problem=None):
    """Energy-form dispersion tensor plus its volume-form cross check, solved
    by ``problem`` or a fresh one as in ``solve_coupled_pair``."""
    if problem is None:
        problem = CoupledCellProblem(ctx, coeff1, coeff2)
    sol = solve_coupled_pair(ctx, coeff1, coeff2, exchange_rate,
                             problem=problem)
    energy, volume = problem.tensors(sol)
    te = EffectiveTensor(energy, TensorForm.COUPLED_ENERGY, h=ctx.mesh.h, s=s,
                         exchange_rate=exchange_rate,
                         cross_check_err=float(np.abs(energy - volume).max()))
    return te, sol


def mean_coefficient(ctx, coeff):
    """Volume average of the coefficient over the perforated cell."""
    mats = np.asarray(coeff.matrix_at(ctx.mesh.centroids))
    return np.einsum("m,mij->ij", ctx.mesh.areas, mats) / ctx.area


# ---------------------------------------------------------------------------
# dispersion table
# ---------------------------------------------------------------------------

def check_s_grid(s_grid):
    """The sorted s grid of a dispersion table; ValueError unless it has at
    least two samples, starts at 0 and repeats no entry (nor holds NaN)."""
    s = np.asarray(sorted(float(v) for v in s_grid))
    if len(s) < 2 or s[0] != 0.0 or not np.all(np.diff(s) > 0):
        raise ValueError("s grid needs two or more distinct samples from 0, "
                         f"got {list(s_grid)!r}")
    return s


@dataclass
class DispersionTable:
    """Sampled map s -> dispersion matrix with clamped linear interpolation."""

    s: np.ndarray
    matrices: np.ndarray  # (K, 2, 2)
    midpoint_error: float | None = None
    cross_check_err: float | None = None
    h: float | None = None

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.matrices = np.asarray(self.matrices, dtype=float)
        if not np.all(np.diff(self.s) > 0):  # NaN too
            raise ValueError("table abscissae must be strictly increasing")

    @property
    def s_max(self):
        return float(self.s[-1])

    def evaluate_many(self, s):
        s = np.clip(np.asarray(s, dtype=float), self.s[0], self.s[-1])
        idx = np.clip(np.searchsorted(self.s, s, side="right") - 1,
                      0, len(self.s) - 2)
        left = self.s[idx]
        width = self.s[idx + 1] - left
        t = np.where(width > 0, (s - left) / np.where(width > 0, width, 1.0), 0.0)
        return ((1.0 - t)[:, None, None] * self.matrices[idx]
                + t[:, None, None] * self.matrices[idx + 1])

    @classmethod
    def constant(cls, matrix, s_max=1.0):
        matrix = np.asarray(matrix, dtype=float)
        return cls(np.array([0.0, float(s_max)]),
                   np.stack([matrix, matrix]), h=0.0)

    def as_json_dict(self):
        return {
            "interpolation": "piecewise-linear-clamped",
            "midpoint_error": self.midpoint_error,
            "cross_check_err": self.cross_check_err,
            "h": self.h,
            "entries": [
                {
                    "s": float(s),
                    "matrix": [[float(v) for v in row] for row in mat],
                    "min_eig": float(np.linalg.eigvalsh(
                        0.5 * (mat + mat.T))[0]),
                }
                for s, mat in zip(self.s, self.matrices)
            ],
        }


def tabulate_b(ctx, coeff1, coeff2, exchange_fn, s_grid):
    """Tabulate the dispersion tensor over an s grid (see
    ``CoupledCellProblem.table``) on a fresh coupled cell problem."""
    return CoupledCellProblem(ctx, coeff1, coeff2).table(exchange_fn, s_grid)
