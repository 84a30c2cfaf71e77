"""P1 finite-element assembly and constrained sparse linear algebra.

Stiffness uses one-point (centroid) quadrature for the coefficient, mass and
boundary mass use the exact P1 closed forms. Two reductions serve the two
kinds of problems: zero Dirichlet rows and columns are dropped
(DirichletReducer), and a cell problem eliminates its periodic slaves and
fixes its constant by one gauge dof, restoring the mean-zero condition on
expansion (ConstraintReducer), so every reduced system is SPD.

Assembly scatters element contributions in a fixed order and compresses
duplicates by sorted index, so assembled matrices are bit-reproducible and
independent of any caller-side parallelism. An EpsilonMesh's mass and
stiffness tile its unit cell's (``tile``), and an operator re-assembled
every step replays its scatter from an AssemblyPattern.

Operators on an EpsilonMesh are factored on its lattice (LatticePlan), with
one dense elimination per class of identical super-cells; every other
factor is SuperLU's (``factorize``).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import NoConvergenceError, SingularSystemError
from .geometry import EdgeMarker, EpsilonMesh


@dataclass(frozen=True)
class CoefficientField:
    """Y-periodic symmetric 2x2 matrix field with ellipticity bounds.

    ``matrix_at`` maps points (P,2) to matrices (P,2,2); ``alpha`` and
    ``beta`` are the lower/upper ellipticity constants. Evaluators must be
    pure; fields are shareable across threads.
    """

    matrix_at: object
    alpha: float
    beta: float
    descriptor: str = "custom"

    @classmethod
    def constant(cls, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape == ():
            matrix = float(matrix) * np.eye(2)
        if matrix.shape != (2, 2):
            raise ValueError("constant coefficient must be scalar or 2x2")
        eigs = np.linalg.eigvalsh(0.5 * (matrix + matrix.T))
        mat = matrix.copy()
        mat.setflags(write=False)

        def evaluate(pts):
            pts = np.atleast_2d(pts)
            return np.broadcast_to(mat, (len(pts), 2, 2))

        return cls(evaluate, float(eigs[0]), float(eigs[-1]),
                   descriptor=f"constant:{matrix.tolist()}")

    @classmethod
    def isotropic(cls, value):
        return cls.constant(float(value) * np.eye(2))

    def validate(self):
        """Sample a 17 x 17 grid and check symmetry (to 1e-12) and the
        eigenvalue bounds."""
        xs = (np.arange(17) + 0.5) / 17
        gx, gy = np.meshgrid(xs, xs)
        mats = np.asarray(self.matrix_at(np.column_stack([gx.ravel(), gy.ravel()])))
        asym = np.abs(mats - np.swapaxes(mats, 1, 2)).max()
        if asym > 1e-12:
            raise ValueError(f"coefficient not symmetric (deviation {asym:.2e})")
        eigs = np.linalg.eigvalsh(mats)
        if eigs.min() < self.alpha - 1e-9 or eigs.max() > self.beta + 1e-9:
            raise ValueError(
                f"coefficient eigenvalues [{eigs.min():.6f}, {eigs.max():.6f}] "
                f"violate the declared bounds [{self.alpha}, {self.beta}]"
            )
        return True

    def same_operator(self, other):
        """True when both fields give one operator: the same field, or the
        same constant matrix."""
        return self is other or (self.descriptor.startswith("constant:")
                                 and self.descriptor == other.descriptor)


def scatter(connectivity, n, local):
    """The n x n CSR matrix of element matrices ``local`` (E,k,k) by COO.

    Element e adds local[e, i, j] at (connectivity[e, i], connectivity[e, j]).
    The COO indices are int32 where n fits, as scipy's CSR indices are.
    """
    conn = connectivity.astype(np.int32 if n < 2 ** 31 else np.int64)
    k = conn.shape[1]
    rows = np.repeat(conn, k, axis=1).reshape(-1)
    cols = np.tile(conn, (1, k)).reshape(-1)
    return sp.coo_matrix((local.reshape(-1), (rows, cols)),
                         shape=(n, n)).tocsr()


def tile(mesh, A_cell):
    """The sum over the cells c of an EpsilonMesh of P_c' A_cell P_c, P_c
    mapping the unit cell's nodes to cell c's: one COO scatter."""
    A, n = A_cell.tocoo(), mesh.n_nodes
    conn = mesh.cell_nodes.astype(np.int32 if n < 2 ** 31 else np.int64)
    # take gives C-ordered (cells, entries) arrays, so ravel copies none
    return sp.coo_matrix((np.tile(A.data, len(conn)), (
        conn.take(A.row, 1).ravel(), conn.take(A.col, 1).ravel())),
        shape=(n, n)).tocsr()


# Elements per einsum in stiffness_elements, which bounds its temporaries
STIFFNESS_CHUNK = 16384


def stiffness_elements(areas, grads, mats):
    """Element stiffness matrices (M,3,3) for coefficient matrices (M,2,2)."""
    local = np.empty((len(areas), 3, 3))
    for start in range(0, len(areas), STIFFNESS_CHUNK):
        c = slice(start, start + STIFFNESS_CHUNK)
        np.einsum("m,mid,mde,mje->mij", areas[c], grads[c], mats[c],
                  grads[c], optimize=True, out=local[c])
    return local


def assemble_stiffness(mesh, coeff):
    """Stiffness matrix for -div(D grad u), D evaluated at element centroids.

    An EpsilonMesh's is its unit cell's (from the unit cell's areas,
    gradients and centroids), tiled: P1 stiffness is scale-invariant in 2D
    and D(x/eps) is Y-periodic.
    """
    cell = mesh.unit if isinstance(mesh, EpsilonMesh) else mesh
    mats = np.asarray(coeff.matrix_at(cell.centroids))
    K = assemble_stiffness_elementwise(cell, mats)
    return K if cell is mesh else tile(mesh, K)


def assemble_stiffness_elementwise(mesh, mats):
    """Stiffness matrix from per-element 2x2 coefficient matrices (M,2,2)."""
    local = stiffness_elements(mesh.areas, mesh.gradients, mats)
    return scatter(mesh.triangles, mesh.n_nodes, local)


_MASS_LOCAL = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def assemble_mass(mesh):
    """Consistent P1 mass matrix; entries sum to the mesh area."""
    if isinstance(mesh, EpsilonMesh):
        return tile(mesh, _cell_mass(mesh))
    local = mesh.areas[:, None, None] * _MASS_LOCAL
    return scatter(mesh.triangles, mesh.n_nodes, local)


def _cell_mass(mesh):
    """The mass matrix of an EpsilonMesh's unit cell at its scale, which
    ``assemble_mass`` tiles: eps^2 times the unit cell's."""
    return mesh.epsilon ** 2 * assemble_mass(mesh.unit)


def weighted_mass_elements(mesh, weights):
    """Element mass matrices (M,3,3) with a piecewise-constant weight.

    ``weights`` is per-element (M,), or nodal (N,) in which case the element
    value is the vertex average.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape == (mesh.n_nodes,):
        weights = weights[mesh.triangles].mean(axis=1)
    return (weights * mesh.areas)[:, None, None] * _MASS_LOCAL


def assemble_weighted_mass(mesh, weights):
    """Mass matrix with a piecewise-constant element weight (see
    ``weighted_mass_elements``)."""
    return scatter(mesh.triangles, mesh.n_nodes,
                   weighted_mass_elements(mesh, weights))


_EDGE_MASS_LOCAL = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0


def marked_edges(mesh, marker):
    """The marked edges (E,2) and their lengths (E,); E = 0 on a mesh
    without them, such as the empty GAMMA of an unperforated cell."""
    edges = mesh.edges_with(marker)
    p0 = mesh.nodes[edges[:, 0]]
    p1 = mesh.nodes[edges[:, 1]]
    return edges, np.hypot(*(p1 - p0).T)


def boundary_mass_elements(mesh, edges, lengths, weight):
    """Edge mass matrices (E,2,2), weight at edge midpoints.

    ``weight`` may be a scalar or a nodal array (averaged onto midpoints).
    """
    w = np.asarray(weight, dtype=float)
    if w.shape == (mesh.n_nodes,):
        w = 0.5 * (w[edges[:, 0]] + w[edges[:, 1]])
    else:
        w = np.broadcast_to(w, (len(edges),))
    return (w * lengths)[:, None, None] * _EDGE_MASS_LOCAL


def assemble_boundary_mass(mesh, marker=EdgeMarker.GAMMA, weight=1.0):
    """Boundary mass matrix on the marked edges, weight at edge midpoints.

    ``weight`` is as in ``boundary_mass_elements``. The matrix is PSD for
    weight >= 0 and 1'B1 equals the weighted marked length.
    """
    edges, lengths = marked_edges(mesh, marker)
    return scatter(edges, mesh.n_nodes,
                   boundary_mass_elements(mesh, edges, lengths, weight))


def lumped_integral_weights(mesh):
    """Nodal weights w with w'u = integral of the P1 interpolant of u."""
    return np.bincount(mesh.triangles.reshape(-1),
                       np.repeat(mesh.areas / 3.0, 3), minlength=mesh.n_nodes)


class AssemblyPattern:
    """Where each element entry of one connectivity lands in the CSR matrix.

    For an operator re-assembled every step on a fixed connectivity (E,k):
    ``scatter`` visits the entries of ``local`` (E,k,k) in the order of a
    stable row sort (``coo_tocsr``), then sorts each row by column
    (``csr_sort_indices``, which compares columns only, so its permutation
    depends on the pattern alone) and sums runs of equal columns
    (``sum_duplicates``). The pattern records that visiting order ``perm``
    and the CSR slot each visited entry lands in, so

        data = np.bincount(slot, local.ravel()[perm])

    adds the same numbers in the same order: ``matrix(data)`` is bitwise
    equal to ``scatter``'s matrix. Built with a DirichletReducer, it also
    records which data entries the restricted matrix P'AP keeps, so
    ``restricted(data)`` is a slice of ``data``.

    Building a pattern costs about as much as one assembly, so one-shot
    assemblies do not use it.
    """

    def __init__(self, connectivity, n, reducer=None):
        conn = np.asarray(connectivity)
        k = conn.shape[1]
        rows = np.repeat(conn, k, axis=1).reshape(-1)
        cols = np.tile(conn, (1, k)).reshape(-1)
        self.shape = (int(n), int(n))
        order = np.argsort(rows, kind="stable")
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(rows, minlength=n))])
        # entry indices ride along as the data; offset by one so that no
        # payload is an explicit zero
        visit = sp.csr_matrix(((order + 1).astype(float), cols[order], indptr),
                              shape=self.shape)
        visit.sort_indices()
        self.perm = visit.data.astype(np.intp) - 1
        key = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n \
            + visit.indices
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        self.slot = np.cumsum(first) - 1
        self.nnz = int(first.sum())
        self.indices = visit.indices[first]
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(key[first] // n, minlength=n))]
        ).astype(self.indices.dtype)
        if reducer is not None and not isinstance(reducer, DirichletReducer):
            raise ValueError("a pattern restricts by Dirichlet rows only")
        self._restriction = None if reducer is None else reducer.kept_entries(self)

    def assemble(self, local):
        """CSR data of the matrix of element matrices ``local`` (E,k,k)."""
        return np.bincount(self.slot, local.reshape(-1)[self.perm],
                           minlength=self.nnz)

    def matrix(self, data):
        """The n x n CSR matrix with ``data`` on this pattern."""
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)

    def restricted(self, data):
        """P'AP for the matrix A with ``data``, as a slice of it."""
        take, indices, indptr, shape = self._restriction
        return sp.csr_matrix((data[take], indices, indptr), shape=shape)


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

class DirichletReducer:
    """Zero Dirichlet values on ``nodes``; the reduced dofs are the rest.

    The reduction P is the selection of the dofs that the boolean mask
    ``kept`` marks, so P'AP is a slice of A and P'b, Px are a slice and a
    scatter into zeros. Each adds +0.0 as the products P'b and Px do, which
    turns -0.0 into +0.0. A mask slices and scatters faster than an index
    array.
    """

    def __init__(self, n, nodes):
        self.kept = np.ones(int(n), dtype=bool)
        self.kept[np.asarray(nodes, dtype=np.int64)] = False

    def restrict(self, A):
        """P'AP: A on the kept dofs."""
        return A.tocsr()[self.kept][:, self.kept]

    def kept_entries(self, A):
        """(take, indices, indptr, shape): ``restrict`` of any CSR matrix B on
        A's pattern is B.data[take] on this pattern, entries in B's order."""
        keep = np.repeat(self.kept, np.diff(A.indptr)) & self.kept[A.indices]
        # a dropped row keeps no entry: kept rows start after earlier kept ones
        indptr = np.append(0, np.cumsum(keep))[A.indptr[np.append(self.kept, True)]]
        take = np.flatnonzero(keep)
        return (take, (np.cumsum(self.kept) - 1)[A.indices[take]].astype(
            A.indices.dtype), indptr.astype(A.indptr.dtype), (len(indptr) - 1,) * 2)

    def reduce_rhs(self, b):
        """P'b: b on the kept dofs."""
        return np.asarray(b, dtype=float)[self.kept] + 0.0

    def expand(self, x_reduced):
        """Px: the full vector, zero on the Dirichlet nodes."""
        x = np.zeros(len(self.kept))
        x[self.kept] = x_reduced + 0.0
        return x


class ConstraintReducer:
    """Periodic slave elimination plus a gauge dof for the mean-zero condition.

    P maps the periodic masters to all nodes. Every operator reduced here is
    singular only by the constant vector, so the reduced dof that is the
    first with a positive ``mean_zero`` weight w is fixed at zero: P'AP
    without its row and column is SPD. ``expand`` then shifts the full
    vector by the constant that makes w'x = 0; for a coupled pair with
    weights on the first field only, both fields shift by its mean.
    """

    def __init__(self, periodic, mean_zero):
        n = periodic.n_nodes
        keep = np.ones(n, dtype=bool)
        keep[periodic.pairs[:, 1]] = False
        red_index = np.cumsum(keep) - 1
        self.P = sp.coo_matrix(
            (np.ones(n), (np.arange(n), red_index[periodic.master_of()])),
            shape=(n, int(keep.sum())),
        ).tocsr()
        self.mean_zero = np.asarray(mean_zero, dtype=float)
        gauge = np.flatnonzero(self.P.T @ self.mean_zero > 0)[0]
        self._Pg = self.P[:, np.arange(self.P.shape[1]) != gauge]

    def restrict(self, A):
        """P'AP without the gauge row and column."""
        return (self._Pg.T @ A @ self._Pg).tocsr()

    def reduce(self, A, b):
        """The reduced SPD system (A_r, b_r)."""
        return self.restrict(A), self.reduce_rhs(b)

    def reduce_rhs(self, b):
        """The b_r of ``reduce`` alone."""
        return self._Pg.T @ np.asarray(b, dtype=float)

    def expand(self, x_reduced):
        """Full nodal vector of a reduced solution, shifted to w'x = 0."""
        x = self._Pg @ x_reduced
        return x - (self.mean_zero @ x) / self.mean_zero.sum()


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

# The relative-residual contract of every linear solve: ||A x - b|| <=
# RESIDUAL_TOL ||b||. Solves read it when they run; none takes a tolerance.
RESIDUAL_TOL = 1e-10


def solve_sparse(A, b, method="direct", maxiter=None):
    """Solve A x = b under the relative-residual contract.

    ``direct`` uses sparse LU, ``cg`` a Jacobi-preconditioned conjugate
    gradient (A must be symmetric positive definite). Raises
    SingularSystemError or NoConvergenceError when the contract fails.
    """
    b = np.asarray(b, dtype=float)
    if np.linalg.norm(b) == 0.0:
        return np.zeros_like(b)
    if method == "direct":
        return solve_factored(splu_factor(A), A, b)
    if method == "cg":
        diag = A.diagonal()
        if np.any(diag <= 0):
            raise SingularSystemError("nonpositive diagonal in CG path")
        return pcg(A, b, sp.diags(1.0 / diag), maxiter=maxiter)[0]
    raise ValueError(f"unknown solve method {method!r}")


def solve_factored(handle, A, b):
    """``handle.solve(b)`` for a factor of A, under the residual contract."""
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b)
    x = handle.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite values")
    res = np.linalg.norm(A @ x - b) / bnorm
    if res > RESIDUAL_TOL:
        raise NoConvergenceError(1, res)
    return x


def pcg(A, b, M, x0=None, maxiter=None):
    """Preconditioned CG under the residual contract; (x, iterations).

    A and M are matrices or LinearOperators; M applies the inverse of the
    preconditioner.
    """
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    if not np.isfinite(bnorm):
        # CG would run to maxiter on a non-finite right-hand side
        raise NoConvergenceError(0, bnorm)
    tol = RESIDUAL_TOL
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    x, info = spla.cg(A, b, rtol=tol * 0.1, atol=0.0, M=M, x0=x0,
                      maxiter=maxiter or 20 * A.shape[0], callback=count)
    res = np.linalg.norm(A @ x - b) / bnorm
    if info != 0 or res > tol:
        raise NoConvergenceError(iters, res)
    return x, iters


class _LUHandle:
    __slots__ = ("lu", "__weakref__")

    def __init__(self, lu):
        self.lu = lu

    def solve(self, b):
        return self.lu.solve(b)


_factor_cache: OrderedDict[bytes, _LUHandle] = OrderedDict()
_FACTOR_CACHE_SIZE = 8
_factor_lock = threading.Lock()


def _matrix_key(A):
    h = hashlib.sha1()
    h.update(np.asarray(A.shape, dtype=np.int64).tobytes())
    h.update(A.indptr.tobytes())
    h.update(A.indices.tobytes())
    h.update(A.data.tobytes())
    return h.digest()


# SuperLU's supernode sizes: no relaxed supernodes and one-column panels.
# The library defaults (relaxed supernodes of 10 columns at the leaves of the
# elimination tree, panels of 20 columns) do not pay on porodiff's 2D P1
# mesh factors: the fill is the same at every setting, the padded relaxed
# supernodes and the panel updates only add work, and the dense panel
# workspace grows with SUPERNODE_PANEL x n (2 MB per panel column at
# eps = 1/32). Against the defaults each factor family factors in 0.66-0.76
# of the time, solves as fast, and the eps = 1/32 factor holds 36 MB less.
SUPERNODE_RELAX = 1
SUPERNODE_PANEL = 1


def factorize(A):
    """Sparse LU factorization of A, owned by the caller (not cached).

    Every system porodiff factors is SPD (the steppers, and the cell
    systems with their gauge dof removed), so SuperLU orders by minimum
    degree on A'+A and prefers diagonal pivots, with the supernode sizes
    above. A matrix SuperLU cannot factor raises SingularSystemError.
    """
    try:
        return _LUHandle(spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                   relax=SUPERNODE_RELAX,
                                   panel_size=SUPERNODE_PANEL,
                                   options=dict(SymmetricMode=True)))
    except (RuntimeError, ValueError) as exc:
        raise SingularSystemError(str(exc)) from exc


def splu_factor(A):
    """``factorize`` memoized on the matrix content.

    For one-shot solves (``solve_sparse``, a CellContext's scalar cells);
    a solver that reuses a factor holds it itself. The cache is shared by
    threads; the factorization runs outside its lock.
    """
    A_csc = A.tocsc()
    key = _matrix_key(A_csc)
    with _factor_lock:
        handle = _factor_cache.get(key)
        if handle is not None:
            _factor_cache.move_to_end(key)
            return handle
    handle = factorize(A_csc)
    with _factor_lock:
        # evict before inserting, so that a reader never sees the cache
        # above its size
        if key not in _factor_cache:
            while len(_factor_cache) >= _FACTOR_CACHE_SIZE:
                _factor_cache.popitem(last=False)
        handle = _factor_cache.setdefault(key, handle)
        _factor_cache.move_to_end(key)
    return handle


def mass_norm(M, u):
    """L2 norm of the P1 field u via the mass matrix."""
    return float(np.sqrt(max(u @ (M @ u), 0.0)))


# A CG solve preconditioned by a held factor that takes more iterations
# than this refactors at that solve's operator (see HeldFactor).
REFACTOR_ITERS = 30


class HeldFactor:
    """The factor of a drifting operator, held as a CG preconditioner.

    A preconditioner only has to be spectrally close to the operator; the
    residual contract of the CG solve guards accuracy. So the factor is kept
    until a solve needs more than REFACTOR_ITERS iterations, and then
    refactored at that solve's operator for the solves after it. Without a
    ``handle`` the first solve factors its operator.
    """

    def __init__(self, handle=None):
        self.handle = handle
        self.refactors = 0
        self.last_iterations = 0

    def solve(self, A, b, x0=None, operator=None):
        """x with A x = b by CG preconditioned with the held factor.

        A is a matrix or LinearOperator; ``operator()`` is the matrix that
        is factored after a slow solve (and by a handle-less first solve),
        A itself by default.
        """
        operator = operator or (lambda: A)
        if self.handle is None:
            self.handle = factorize(operator())
        x, self.last_iterations = pcg(
            A, b, spla.LinearOperator(A.shape, matvec=self.handle.solve,
                                      dtype=float),
            x0=x0)
        if self.last_iterations > REFACTOR_ITERS:
            self.handle = factorize(operator())
            self.refactors += 1
        return x


class _BlockDiagonal:
    """Solves with diag(A1, A2) by one solve with each field's factor."""

    __slots__ = ("factors", "n")

    def __init__(self, factors, n):
        self.factors = factors
        self.n = n

    def solve(self, r):
        n = self.n
        return np.concatenate([self.factors[0].solve(r[:n]),
                               self.factors[1].solve(r[n:])])


# ---------------------------------------------------------------------------
# the lattice solver of an EpsilonMesh's field operators
# ---------------------------------------------------------------------------

def _bisect(start, size):
    """One range of cells, or its two halves, the first the smaller."""
    if size == 1:
        return ((start, 1),)
    return (start, size // 2), (start + size // 2, size - size // 2)


class _Members:
    """The members of one class (super-cells, or one region of every cell),
    which share one dense elimination: the layout of their slots and, per
    member (row), the mesh nodes of the slots they eliminate (GX) and keep
    (GB).

    ``kids`` are (class, the slots here of its kept slots); ``unit`` are the
    unit-cell nodes of the slots of a class inside one cell, whose matrix
    starts from the cell matrix (without the entries among its kept slots,
    which an ancestor adds, unless ``whole``).
    """

    def __init__(self, kids, X, B, G, unit=None, whole=True):
        self.kids, self.n_slots = kids, G.shape[1]
        self.X, self.B = X, B
        self.GX = np.ascontiguousarray(G[:, X])
        self.GB = np.ascontiguousarray(G[:, B])
        # the members' kept nodes, each once, and where each slot adds
        self.nodes_B, self.add_B = np.unique(self.GB, return_inverse=True)
        self.add_B = self.add_B.ravel()
        self.unit, self.whole = unit, whole


def _cell_fronts(unit, faces):
    """Nested dissection of the unit cell's interior nodes.

    Returns fronts (eliminated, kept, children) in unit-cell node ids,
    children before parents; the last eliminates its nodes onto ``faces``.
    A region with more nodes than ``faces`` is halved by rank along its
    longer axis, and its separator is the upper half's nodes next to the
    lower. So no front eliminates more nodes than the cell's faces hold.
    """
    adjacency = scatter(unit.triangles, unit.n_nodes,
                        np.ones((unit.n_triangles, 3, 3)))
    fronts = []

    def dissect(region):
        parts = []
        separator = region
        if len(region) > len(faces):
            pts = unit.nodes[region]
            axis = np.argmax(np.ptp(pts, axis=0))
            rank = np.lexsort((region, pts[:, axis])).argsort()
            low = rank < len(region) // 2
            cut = ~low & np.isin(region, adjacency[region[low]].indices)
            separator = region[cut]
            parts = [region[low], region[~low & ~cut]]
        kids = [dissect(p) for p in parts if len(p)]
        inside = np.concatenate([separator] + [fronts[k][3] for k in kids])
        kept = np.setdiff1d(adjacency[inside].indices, inside)
        fronts.append([separator, kept, kids, inside])
        return len(fronts) - 1

    interior = np.setdiff1d(np.arange(unit.n_nodes), faces)
    dissect(interior)
    fronts[-1][1] = faces
    return [f[:3] for f in fronts]


def _lattice_tree(cells):
    """The bisection of the bounding rectangle of the lattice ``cells``.

    Returns the grid of cell indices over the rectangle (-1 where there is
    no cell) and the super-cells (x0, y0, w, h, children, level) holding a
    cell, children before parents; the last is the whole rectangle.
    """
    corner = cells.min(axis=0)
    width, height = cells.max(axis=0) - corner + 1
    grid = np.full((height, width), -1, dtype=np.int64)
    x, y = (cells - corner).T
    grid[y, x] = np.arange(len(cells))
    tree = []

    def build(x0, w, y0, h):
        if not (grid[y0:y0 + h, x0:x0 + w] >= 0).any():
            return None
        kids = [] if w == h == 1 else [
            k for ys in _bisect(y0, h) for xs in _bisect(x0, w)
            if (k := build(*xs, *ys)) is not None]
        tree.append((x0, y0, w, h, kids,
                     1 + max(tree[k][5] for k in kids) if kids else 0))
        return len(tree) - 1

    build(0, width, 0, height)
    return grid, tree


class LatticePlan:
    """Nested dissection of an EpsilonMesh along its cell faces.

    Level 0 eliminates each cell's interior nodes onto its face nodes, by a
    nested dissection of the unit cell (``_cell_fronts``). The bounding
    rectangle of the lattice's cells is bisected on each axis, with uneven
    halves for an odd count, down to single cells; each later level merges
    what the 2 x 2 (or 2 x 1) children of a super-cell kept and eliminates
    the cross of nodes they share. The nodes that ``reducer`` drops (OUTER)
    are never eliminated: on a super-cell's boundary they are carried,
    inside it they are dropped, which is the Dirichlet reduction. The top
    super-cell's boundary is all OUTER, so it keeps nothing.

    A slot of a super-cell is a (cell, unit-cell node); it lies on the
    super-cell's boundary when its unit coordinate is exactly 0 or 1 on a
    face of the super-cell, so cell identity is exact. The class of a
    super-cell is its size, its cell mask, which of its inner nodes are
    OUTER, and its children's classes: every super-cell of a class has the
    same dense Schur complement, so ``factorize`` eliminates each class once
    and a solve treats all members of a class with one gather, two GEMMs and
    one scatter-add. Factors of every operator on the mesh share the plan.
    """

    def __init__(self, mesh, reducer):
        self.kept = reducer.kept
        self.cell, self.cell_mass = mesh.unit, _cell_mass(mesh)
        unit = mesh.unit.nodes
        faces = np.flatnonzero(np.isin(unit, (0.0, 1.0)).any(axis=1))
        self.classes = []
        fronts = _cell_fronts(mesh.unit, faces)
        for X, B, kids in fronts[:-1]:
            slots = np.concatenate([X, B])
            self.classes.append(_Members(
                self._kid_slots(kids, fronts, slots), np.arange(len(X)),
                len(X) + np.arange(len(B)), mesh.cell_nodes[:, slots],
                unit=slots, whole=False))
        cell_slots = np.concatenate(fronts[-1][:2])
        cell_kids = self._kid_slots(fronts[-1][2], fronts, cell_slots)
        grid, tree = _lattice_tree(mesh.cells)
        root = len(tree) - 1
        member = {}  # super-cell -> (class, row among its members)
        provenance = {}  # class -> (dx, dy, unit node) of each kept slot
        for level in range(tree[root][5] + 1):
            shapes = {}
            for k, (x0, y0, w, h, kids, at) in enumerate(tree):
                if at == level:
                    key = (w, h, (grid[y0:y0 + h, x0:x0 + w] >= 0).tobytes(),
                           tuple(member[c][0] for c in kids))
                    shapes.setdefault(key, []).append(k)
            for (w, h, _, kid_classes), ks in shapes.items():
                first = tree[ks[0]]
                kids, unit_slots = cell_kids, cell_slots
                if not kid_classes:
                    x0, y0 = np.array([tree[k][:2] for k in ks]).T
                    G = mesh.cell_nodes[grid[y0, x0]][:, cell_slots]
                    prov = np.column_stack([np.zeros((len(cell_slots), 2),
                                                     dtype=np.int64),
                                            cell_slots])
                else:
                    parts, provs = [], []
                    for j, c in enumerate(kid_classes):
                        kid = tree[first[4][j]]
                        parts.append(self.classes[c].GB[
                            [member[tree[k][4][j]][1] for k in ks]])
                        provs.append(provenance[c] + [kid[0] - first[0],
                                                      kid[1] - first[1], 0])
                    G, prov = np.hstack(parts), np.vstack(provs)
                    # a node that children share is one slot, numbered at
                    # its first appearance
                    _, seen, inverse = np.unique(G[0], return_index=True,
                                                 return_inverse=True)
                    order = np.argsort(seen)
                    slot = np.argsort(order)[inverse]
                    G, prov = G[:, seen[order]], prov[seen[order]]
                    ends = np.cumsum([len(p) for p in provs])
                    kids = list(zip(kid_classes, np.split(slot, ends[:-1])))
                    unit_slots = None
                u = unit[prov[:, 2]]
                edge = ((prov[:, 0] == 0) & (u[:, 0] == 0.0)
                        | (prov[:, 0] == w - 1) & (u[:, 0] == 1.0)
                        | (prov[:, 1] == 0) & (u[:, 1] == 0.0)
                        | (prov[:, 1] == h - 1) & (u[:, 1] == 1.0))
                inner = np.flatnonzero(~edge)
                B = (np.flatnonzero(edge) if ks[0] != root
                     else np.zeros(0, dtype=np.int64))
                masks, which = np.unique(self.kept[G[:, inner]], axis=0,
                                         return_inverse=True)
                for m, mask in enumerate(masks):
                    rows = np.flatnonzero(which.ravel() == m)
                    for r, i in enumerate(rows):
                        member[ks[i]] = (len(self.classes), r)
                    provenance[len(self.classes)] = prov[B]
                    self.classes.append(_Members(kids, inner[mask], B,
                                                 G[rows], unit=unit_slots))

    @staticmethod
    def _kid_slots(kids, fronts, slots):
        where = np.full(slots.max() + 1, -1, dtype=np.int64)
        where[slots] = np.arange(len(slots))
        return [(k, where[fronts[k][1]]) for k in kids]

    def factorize(self, dt, coeff):
        """The LatticeFactor of M + dt K on the dofs that the plan's reducer
        keeps, M and K the mesh's ``assemble_mass`` and ``assemble_stiffness``
        with ``coeff``.

        Built from the sparse unit-cell matrix that M + dt K tiles, never
        from the tiled matrix; only each class's block of it is dense.
        """
        cell = self.cell_mass + dt * assemble_stiffness(self.cell, coeff)
        schur, blocks = [], []
        for cls in self.classes:
            if cls.unit is None:
                merged = np.zeros((cls.n_slots, cls.n_slots))
            else:
                merged = cell[np.ix_(cls.unit, cls.unit)].toarray()
                if not cls.whole:
                    merged[np.ix_(cls.B, cls.B)] = 0.0
            for c, slots in cls.kids:
                merged[np.ix_(slots, slots)] += schur[c]
            block, S = _eliminate(merged, cls.X, cls.B)
            blocks.append(block)
            schur.append(S)
        return LatticeFactor(self, blocks)


def _eliminate(A, X, B):
    """Eliminate the slots X of the dense SPD matrix A onto the slots B.

    Returns [A_XX^-1, A_XX^-1 A_XB] (|X|, |X| + |B|) and the Schur
    complement A_BB - A_BX A_XX^-1 A_XB. SingularSystemError if A_XX is not
    positive definite.
    """
    inverse, info = lapack.dpotrf(A[np.ix_(X, X)], lower=True)
    if info == 0 and len(X):  # LAPACK rejects an empty inverse
        inverse, info = lapack.dpotri(inverse, lower=True)
    if info != 0:
        raise SingularSystemError(
            f"a lattice block is not positive definite (info {info})")
    inverse = np.tril(inverse) + np.tril(inverse, -1).T
    A_XB = A[np.ix_(X, B)]
    F = inverse @ A_XB
    return np.hstack([inverse, F]), A[np.ix_(B, B)] - A_XB.T @ F


class LatticeFactor:
    """The factor of a tiled field operator on its LatticePlan: one block
    [A_XX^-1, A_XX^-1 A_XB] per class of super-cells.

    ``solve(b)`` solves the reduced system. Forward, children before
    parents, each class takes y = A_XX^-1 b_X and subtracts A_BX y from b_B;
    backward, parents before children, x_X = y - A_XX^-1 A_XB x_B.
    """

    __slots__ = ("plan", "blocks", "__weakref__")

    def __init__(self, plan, blocks):
        self.plan = plan
        self.blocks = blocks

    def solve(self, b):
        kept = self.plan.kept
        v = np.zeros(len(kept))
        v[kept] = b
        steps = list(zip(self.plan.classes, self.blocks))
        ys = []
        for cls, block in steps:
            out = v[cls.GX] @ block
            ys.append(out[:, :len(cls.X)])
            v[cls.nodes_B] -= np.bincount(cls.add_B,
                                          out[:, len(cls.X):].ravel(),
                                          minlength=len(cls.nodes_B))
        v[~kept] = 0.0
        for (cls, block), y in zip(steps[::-1], ys[::-1]):
            v[cls.GX] = y - v[cls.GB] @ block[:, len(cls.X):].T
        return v[kept]


class ExchangeBlock:
    """The constant part of the exchange block [[A1+C, -C], [-C, A2+C]].

    Built once per stepper from the reduced A1r and A2r alone, which it
    holds with their ``factors``, handles with a ``solve`` (one shared
    factor for an equal pair).
    ``held`` is the CG preconditioner, a HeldFactor of the block itself at
    a held exchange matrix C_ref. C_ref starts at zero, where the block is
    diag(A1r, A2r) and the preconditioner is one solve with each field's
    factor, exact for C = 0 and any pair. When a solve needs more than
    REFACTOR_ITERS CG iterations, C_ref becomes that solve's exchange
    matrix and the whole 2N block is factored; that factor is about twice
    the size of a field factor and is held beside the field factors.

    ``reducer`` is the single-field DirichletReducer of A1r and A2r. When
    A1 and A2 are the same operator (A1r is A2r) the block decouples
    exactly into sum and difference fields, and ``held`` is a factor of
    A + 2 C_ref for the difference field.
    """

    def __init__(self, A1r, A2r, reducer, factors):
        self.reducer = reducer
        self.equal = A1r is A2r
        self.A1r, self.A2r = A1r, A2r
        self.factors = tuple(factors)
        self.held = HeldFactor(
            self.factors[0] if self.equal
            else _BlockDiagonal(self.factors, self.A1r.shape[0]))


def solve_exchange_block(block, Cr, b1, b2, x0=None):
    """Solve [[A1+C, -C], [-C, A2+C]] (x1, x2) = (b1, b2) for an ExchangeBlock.

    ``Cr`` is the exchange matrix C restricted to the reduced dofs,
    ``block.reducer.restrict(C)``; b1, b2, x0 and the result are full.

    The block is SPD whenever A1, A2 are SPD and C is PSD. It is applied
    matrix-free, y1 = A1r x1 + C(x1 - x2), y2 = A2r x2 - C(x1 - x2), and
    solved by CG preconditioned with the block's held factor at C_ref: at
    first diag(A1r^-1, A2r^-1), after a slow solve the factor of the block
    at that solve's C. Where the exchange is weak (C small against A1, A2)
    the block is nearly block-diagonal and CG needs a few iterations. For
    an equal pair the sum field is solved with the field factor and the
    difference field by CG against A + 2 C_ref, so equal right-hand sides
    give bitwise-equal fields. ``x0`` = (x1, x2) is the CG starting guess.
    Every solve meets the relative-residual contract.
    """
    red = block.reducer
    b1r = red.reduce_rhs(b1)
    b2r = red.reduce_rhs(b2)
    x0r = None if x0 is None else (red.reduce_rhs(x0[0]),
                                   red.reduce_rhs(x0[1]))
    n = len(b1r)
    if block.equal:
        A = block.A1r
        x_sum = solve_factored(block.factors[0], A, b1r + b2r)
        x_diff = block.held.solve(
            spla.LinearOperator(A.shape, dtype=float,
                                matvec=lambda d: A @ d + 2.0 * (Cr @ d)),
            b1r - b2r, None if x0r is None else x0r[0] - x0r[1],
            operator=lambda: A + 2.0 * Cr)
        x1r = 0.5 * (x_sum + x_diff)
        x2r = 0.5 * (x_sum - x_diff)
    else:
        A1r, A2r = block.A1r, block.A2r

        def apply(x):
            x1, x2 = x[:n], x[n:]
            flux = Cr @ (x1 - x2)
            return np.concatenate([A1r @ x1 + flux, A2r @ x2 - flux])

        x = block.held.solve(
            spla.LinearOperator((2 * n, 2 * n), matvec=apply, dtype=float),
            np.concatenate([b1r, b2r]),
            None if x0r is None else np.concatenate(x0r),
            operator=lambda: sp.bmat([[A1r + Cr, -Cr], [-Cr, A2r + Cr]],
                                     format="csc"))
        x1r, x2r = x[:n], x[n:]
    return red.expand(x1r), red.expand(x2r)

