"""Meshes for the periodic unit cell, the macroscopic domain, and the
epsilon-periodic perforated domain.

All meshes are conforming P1 triangulations built from a crossed structured
grid (four triangles per square, one centre node). Inclusion boundaries are
resolved by snapping near-boundary grid nodes onto the interface and cutting
crossed elements exactly along it, so every boundary vertex lies on the
interface and no element can invert. Meshes are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import (
    InvalidGeometryError,
    MeshFailureError,
    ResourceLimitError,
    UnmatchedNodeError,
    UnsupportedDimensionError,
)

# Fraction of the grid pitch within which nodes are snapped onto the
# interface; must stay below 0.5 so snapping cannot invert an element,
# and large enough that no grid edge crosses the interface with both
# endpoints unsnapped (guaranteed for resolved inclusions).
_SNAP_FRAC = 0.2
_FACE_TOL = 1e-12
_DISC_MARGIN = 0.05
_POLY_MARGIN = 0.02

DEFAULT_NODE_CAP = 2_000_000


class EdgeMarker(IntEnum):
    INTERIOR = 0
    GAMMA = 1
    OUTER = 2
    PERIODIC_X = 3
    PERIODIC_Y = 4


_MARKER_NAMES = {
    EdgeMarker.GAMMA: "GAMMA",
    EdgeMarker.OUTER: "OUTER",
    EdgeMarker.PERIODIC_X: "PERX",
    EdgeMarker.PERIODIC_Y: "PERY",
}
_MARKER_BY_NAME = {v: k for k, v in _MARKER_NAMES.items()}


@dataclass(frozen=True)
class InclusionSpec:
    """Closed inclusion S inside the closed unit cell, with Lipschitz boundary.

    ``disc`` and ``polygon`` are the built-in shapes; ``none`` (or a disc of
    radius zero) is the escape hatch for an unperforated cell.
    """

    kind: str
    center: tuple[float, float] | None = None
    radius: float | None = None
    vertices: tuple[tuple[float, float], ...] | None = None

    @classmethod
    def disc(cls, center=(0.5, 0.5), radius=0.25):
        return cls(kind="disc", center=(float(center[0]), float(center[1])),
                   radius=float(radius))

    @classmethod
    def polygon(cls, vertices):
        verts = tuple((float(x), float(y)) for x, y in vertices)
        if len(verts) < 3:
            raise InvalidGeometryError("polygon inclusion needs >= 3 vertices")
        return cls(kind="polygon", vertices=verts)

    @classmethod
    def none(cls):
        return cls(kind="none")

    @property
    def is_empty(self):
        return self.kind == "none" or (self.kind == "disc" and self.radius == 0.0)

    def validate(self):
        """Check admissibility: strictly inside the cell, positive area."""
        if self.is_empty:
            return
        if self.kind == "disc":
            cx, cy = self.center
            r = self.radius
            if r < 0:
                raise InvalidGeometryError("disc radius must be nonnegative")
            margin = min(cx - r, cy - r, 1.0 - cx - r, 1.0 - cy - r)
            if margin < _DISC_MARGIN:
                raise InvalidGeometryError(
                    f"disc inclusion too close to the cell boundary "
                    f"(margin {margin:.4f} < {_DISC_MARGIN})"
                )
        elif self.kind == "polygon":
            v = np.asarray(self.vertices)
            if v[:, 0].min() < _POLY_MARGIN or v[:, 0].max() > 1 - _POLY_MARGIN \
                    or v[:, 1].min() < _POLY_MARGIN or v[:, 1].max() > 1 - _POLY_MARGIN:
                raise InvalidGeometryError(
                    "polygon inclusion must stay strictly inside the cell"
                )
            if self.area() <= 0:
                raise InvalidGeometryError(
                    "polygon inclusion must be counter-clockwise with positive area"
                )
        else:
            raise InvalidGeometryError(f"unknown inclusion kind {self.kind!r}")
        if self.area() <= 0 or self.area() >= 1.0:
            raise InvalidGeometryError("inclusion area must lie in (0, 1)")

    def area(self):
        if self.is_empty:
            return 0.0
        if self.kind == "disc":
            return math.pi * self.radius ** 2
        v = np.asarray(self.vertices)
        x, y = v[:, 0], v[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def anchors(self):
        """Points that must become mesh nodes (polygon corners)."""
        if self.kind == "polygon":
            return np.asarray(self.vertices, dtype=float)
        return np.zeros((0, 2))

    def signed_distance(self, pts):
        """Signed distance to the boundary, negative inside S."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.is_empty:
            return np.full(len(pts), np.inf)
        if self.kind == "disc":
            c = np.asarray(self.center)
            return np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]) - self.radius
        return _polygon_signed_distance(pts, np.asarray(self.vertices))

    def project(self, pts):
        """Nearest point on the boundary of S."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "disc":
            c = np.asarray(self.center)
            rel = pts - c
            nrm = np.hypot(rel[:, 0], rel[:, 1])
            nrm = np.where(nrm == 0.0, 1.0, nrm)
            rel = np.where(nrm[:, None] == 0.0, np.array([1.0, 0.0]), rel)
            return c + self.radius * rel / nrm[:, None]
        return _polygon_project(pts, np.asarray(self.vertices))

    def to_config(self):
        if self.is_empty:
            return {"shape": "none"}
        if self.kind == "disc":
            return {"shape": "disc", "center": list(self.center),
                    "radius": self.radius}
        return {"shape": "polygon", "vertices": [list(v) for v in self.vertices]}

    @classmethod
    def from_config(cls, cfg):
        shape = cfg.get("shape")
        if shape == "none":
            return cls.none()
        if shape == "disc":
            return cls.disc(cfg["center"], cfg["radius"])
        if shape == "polygon":
            return cls.polygon(cfg["vertices"])
        raise InvalidGeometryError(f"unknown inclusion shape {shape!r}")


def _polygon_signed_distance(pts, verts):
    a = verts
    b = np.roll(verts, -1, axis=0)
    ab = b - a
    ab2 = np.einsum("kd,kd->k", ab, ab)
    ap = pts[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("pkd,kd->pk", ap, ab) / ab2[None, :], 0.0, 1.0)
    closest = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    dist = np.min(np.linalg.norm(pts[:, None, :] - closest, axis=2), axis=1)
    x = pts[:, 0:1]
    y = pts[:, 1:2]
    cond = (a[None, :, 1] > y) != (b[None, :, 1] > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = a[None, :, 0] + (y - a[None, :, 1]) * ab[None, :, 0] / ab[None, :, 1]
    crossings = np.sum(cond & (x < xint), axis=1)
    inside = crossings % 2 == 1
    return np.where(inside, -dist, dist)


def _polygon_project(pts, verts):
    a = verts
    b = np.roll(verts, -1, axis=0)
    ab = b - a
    ab2 = np.einsum("kd,kd->k", ab, ab)
    ap = pts[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("pkd,kd->pk", ap, ab) / ab2[None, :], 0.0, 1.0)
    closest = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    d = np.linalg.norm(pts[:, None, :] - closest, axis=2)
    best = np.argmin(d, axis=1)
    return closest[np.arange(len(pts)), best]


@dataclass
class Mesh:
    """Conforming triangle mesh with marked boundary edges.

    ``nodes`` is (N,2), ``triangles`` (M,3) counter-clockwise, ``edges`` the
    (E,2) marked boundary edges with ``edge_markers`` (E,) from
    :class:`EdgeMarker`. ``element_markers`` carries the epsilon-cell index on
    epsilon-domain meshes (-1 elsewhere). Arrays are read-only.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_markers: np.ndarray
    element_markers: np.ndarray | None = None
    h: float = 0.0

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.edges = np.ascontiguousarray(self.edges, dtype=np.int64)
        self.edge_markers = np.ascontiguousarray(self.edge_markers, dtype=np.uint8)
        if self.element_markers is None:
            self.element_markers = np.full(len(self.triangles), -1, dtype=np.int64)
        else:
            self.element_markers = np.ascontiguousarray(
                self.element_markers, dtype=np.int64)
        for arr in (self.nodes, self.triangles, self.edges,
                    self.edge_markers, self.element_markers):
            arr.setflags(write=False)

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @cached_property
    def areas(self):
        p = self.nodes[self.triangles]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        out = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        out.setflags(write=False)
        return out

    @cached_property
    def centroids(self):
        out = self.nodes[self.triangles].mean(axis=1)
        out.setflags(write=False)
        return out

    @property
    def area(self):
        return float(self.areas.sum())

    def edges_with(self, marker):
        return self.edges[self.edge_markers == marker]

    def nodes_with(self, marker):
        return np.unique(self.edges_with(marker))

    def marked_length(self, marker):
        e = self.edges_with(marker)
        if len(e) == 0:
            return 0.0
        d = self.nodes[e[:, 0]] - self.nodes[e[:, 1]]
        return float(np.hypot(d[:, 0], d[:, 1]).sum())


def validate_mesh(mesh, check_gamma_loops=True):
    """Raise MeshFailureError on inverted elements or broken GAMMA loops."""
    if mesh.nodes.shape[1] != 2:
        raise UnsupportedDimensionError("only 2D meshes are supported")
    areas = mesh.areas
    if len(areas) == 0:
        raise MeshFailureError("mesh has no triangles")
    if areas.min() <= 0.0:
        bad = int(np.argmin(areas))
        raise MeshFailureError(
            f"triangle {bad} has nonpositive area {areas.min():.3e}"
        )
    if check_gamma_loops:
        gamma = mesh.edges_with(EdgeMarker.GAMMA)
        if len(gamma):
            ids, counts = np.unique(gamma, return_counts=True)
            if not np.all(counts == 2):
                raise MeshFailureError(
                    "inclusion boundary edges do not form closed loops"
                )


def count_marked_loops(mesh, marker=EdgeMarker.GAMMA):
    """Number of connected components of the edges carrying ``marker``."""
    edges = mesh.edges_with(marker)
    if len(edges) == 0:
        return 0
    parent = {}

    def find(i):
        while parent.setdefault(i, i) != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[rj] = ri
    return len({find(int(i)) for i in np.unique(edges)})


# ---------------------------------------------------------------------------
# structured crossed grid + interface cutting
# ---------------------------------------------------------------------------

def _crossed_grid(nx, ny, g, x0=0.0, y0=0.0, keep_cell=None):
    """Crossed-pattern grid: 4 CCW triangles per kept square cell."""
    corner = lambda ix, iy: iy * (nx + 1) + ix
    n_corner = (nx + 1) * (ny + 1)
    xs = x0 + g * np.arange(nx + 1)
    ys = y0 + g * np.arange(ny + 1)
    cx, cy = np.meshgrid(xs, ys)
    corners = np.column_stack([cx.ravel(), cy.ravel()])
    mx, my = np.meshgrid(x0 + g * (np.arange(nx) + 0.5),
                         y0 + g * (np.arange(ny) + 0.5))
    centers = np.column_stack([mx.ravel(), my.ravel()])
    nodes = np.vstack([corners, centers])

    tris = []
    for iy in range(ny):
        for ix in range(nx):
            if keep_cell is not None and not keep_cell(ix, iy):
                continue
            a = corner(ix, iy)
            b = corner(ix + 1, iy)
            c = corner(ix + 1, iy + 1)
            d = corner(ix, iy + 1)
            m = n_corner + iy * nx + ix
            tris.extend([(a, b, m), (b, c, m), (c, d, m), (d, a, m)])
    return nodes, np.asarray(tris, dtype=np.int64)


def _compact(nodes, tris):
    used = np.unique(tris)
    remap = np.full(len(nodes), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return nodes[used], remap[tris]


def _bisect_interface(incl, p_pos, p_neg):
    """Point on the interface along the segment p_pos -> p_neg."""
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


def _cut_out_inclusion(nodes, tris, incl, g, bounds):
    """Remove the inclusion from a crossed grid, cutting exactly along it."""
    x0, y0, x1, y1 = bounds
    nodes = nodes.copy()
    on_face = (
        (np.abs(nodes[:, 0] - x0) <= _FACE_TOL)
        | (np.abs(nodes[:, 0] - x1) <= _FACE_TOL)
        | (np.abs(nodes[:, 1] - y0) <= _FACE_TOL)
        | (np.abs(nodes[:, 1] - y1) <= _FACE_TOL)
    )

    for anchor in incl.anchors():
        d2 = np.einsum("nd,nd->n", nodes - anchor, nodes - anchor)
        d2[on_face] = np.inf
        i = int(np.argmin(d2))
        if d2[i] > g * g:
            raise MeshFailureError(
                f"no grid node close enough to polygon corner {tuple(anchor)}"
            )
        nodes[i] = anchor

    d = incl.signed_distance(nodes)
    snap = (~on_face) & (np.abs(d) <= _SNAP_FRAC * g)
    if snap.any():
        nodes[snap] = incl.project(nodes[snap])
        d[snap] = 0.0
    d[np.abs(d) <= 1e-12] = 0.0
    if np.any(on_face & (d < g * _SNAP_FRAC)):
        raise InvalidGeometryError(
            "inclusion reaches the cell boundary at this resolution"
        )

    sign = np.sign(d).astype(np.int8)
    tsign = sign[tris]
    n_pos = (tsign > 0).sum(axis=1)
    n_neg = (tsign < 0).sum(axis=1)
    keep = (n_neg == 0) & (n_pos > 0)
    allzero = (n_neg == 0) & (n_pos == 0)
    cut = (n_pos > 0) & (n_neg > 0)
    if allzero.any():
        cen = nodes[tris[allzero]].mean(axis=1)
        keep[np.nonzero(allzero)[0]] = incl.signed_distance(cen) > 0.0

    new_nodes = [nodes]
    extra = []
    edge_point = {}

    def interface_node(i_pos, i_neg):
        key = (min(i_pos, i_neg), max(i_pos, i_neg))
        idx = edge_point.get(key)
        if idx is None:
            p = _bisect_interface(incl, nodes[i_pos], nodes[i_neg])
            idx = len(nodes) + len(extra)
            extra.append(p)
            edge_point[key] = idx
        return idx

    out_tris = [tris[keep]]
    cut_tris = []
    for t in np.nonzero(cut)[0]:
        v = tris[t]
        s = tsign[t]
        neg = [k for k in range(3) if s[k] < 0]
        pos = [k for k in range(3) if s[k] > 0]
        if len(neg) == 1 and len(pos) == 2:
            r = neg[0]
            n, p, q = v[r], v[(r + 1) % 3], v[(r + 2) % 3]
            a = interface_node(int(p), int(n))
            b = interface_node(int(q), int(n))
            cut_tris.extend([(a, int(p), int(q)), (a, int(q), b)])
        elif len(neg) == 2 and len(pos) == 1:
            r = pos[0]
            p, n1, n2 = v[r], v[(r + 1) % 3], v[(r + 2) % 3]
            a = interface_node(int(p), int(n1))
            b = interface_node(int(p), int(n2))
            cut_tris.append((int(p), a, b))
        else:  # one positive, one negative, one on the interface
            r = [k for k in range(3) if s[k] == 0][0]
            z, u, w = v[r], v[(r + 1) % 3], v[(r + 2) % 3]
            if sign[u] > 0:
                c = interface_node(int(u), int(w))
                cut_tris.append((int(z), int(u), c))
            else:
                c = interface_node(int(w), int(u))
                cut_tris.append((int(z), c, int(w)))
    if extra:
        new_nodes.append(np.asarray(extra))
    if cut_tris:
        out_tris.append(np.asarray(cut_tris, dtype=np.int64))

    all_nodes = np.vstack(new_nodes)
    all_tris = np.vstack(out_tris)
    all_nodes, all_tris = _compact(all_nodes, all_tris)

    p = all_nodes[all_tris]
    area2 = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    if len(area2) == 0 or area2.min() <= 1e-8 * g * g:
        raise MeshFailureError(
            "interface cut produced a degenerate or inverted element"
        )
    return all_nodes, all_tris


def _boundary_edges(tris):
    """Edges used by exactly one triangle, as sorted index pairs."""
    e = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    e.sort(axis=1)
    n = int(tris.max()) + 1
    keys, counts = np.unique(e[:, 0] * n + e[:, 1], return_counts=True)
    keys = keys[counts == 1]
    return np.column_stack([keys // n, keys % n])


def _classify_cell_boundary(nodes, bedges, bounds):
    x0, y0, x1, y1 = bounds
    p = nodes[bedges]
    on_x = (np.all(np.abs(p[:, :, 0] - x0) <= _FACE_TOL, axis=1)
            | np.all(np.abs(p[:, :, 0] - x1) <= _FACE_TOL, axis=1))
    on_y = (np.all(np.abs(p[:, :, 1] - y0) <= _FACE_TOL, axis=1)
            | np.all(np.abs(p[:, :, 1] - y1) <= _FACE_TOL, axis=1))
    markers = np.full(len(bedges), EdgeMarker.GAMMA, dtype=np.uint8)
    markers[on_x] = EdgeMarker.PERIODIC_X
    markers[on_y] = EdgeMarker.PERIODIC_Y
    return markers


def build_unit_cell_mesh(spec, h):
    """Mesh the perforated unit cell with periodic face and GAMMA markers."""
    if not 0.0 < h <= 0.25:
        raise ValueError("target edge length must satisfy 0 < h <= 0.25")
    spec.validate()
    n = max(4, math.ceil(1.0 / h - 1e-9))
    g = 1.0 / n
    nodes, tris = _crossed_grid(n, n, g)
    if not spec.is_empty:
        nodes, tris = _cut_out_inclusion(nodes, tris, spec, g, (0, 0, 1, 1))
    bedges = _boundary_edges(tris)
    markers = _classify_cell_boundary(nodes, bedges, (0, 0, 1, 1))
    if spec.is_empty and np.any(markers == EdgeMarker.GAMMA):
        raise MeshFailureError("unexpected interior boundary on full cell")
    mesh = Mesh(nodes, tris, bedges, markers, h=h)
    validate_mesh(mesh)
    if not spec.is_empty:
        hole = 1.0 - mesh.area
        if abs(hole - spec.area()) > max(5 * g * g, 1e-12):
            raise MeshFailureError(
                f"inclusion area {hole:.6f} deviates from spec {spec.area():.6f}"
            )
    return mesh


@dataclass(frozen=True)
class RectUnion:
    """Union of axis-aligned rectangles (x0, y0, x1, y1)."""

    rects: tuple[tuple[float, float, float, float], ...]

    @classmethod
    def of(cls, *rects):
        return cls(tuple(tuple(float(v) for v in r) for r in rects))

    @classmethod
    def unit_square(cls):
        return cls.of((0.0, 0.0, 1.0, 1.0))

    def validate(self):
        if not self.rects:
            raise MeshFailureError("empty domain")
        for r in self.rects:
            if not (r[2] > r[0] and r[3] > r[1]):
                raise MeshFailureError(f"degenerate rectangle {r}")

    def bbox(self):
        r = np.asarray(self.rects)
        return (r[:, 0].min(), r[:, 1].min(), r[:, 2].max(), r[:, 3].max())

    def contains(self, pts):
        pts = np.atleast_2d(pts)
        inside = np.zeros(len(pts), dtype=bool)
        for x0, y0, x1, y1 in self.rects:
            inside |= ((pts[:, 0] >= x0 - _FACE_TOL) & (pts[:, 0] <= x1 + _FACE_TOL)
                       & (pts[:, 1] >= y0 - _FACE_TOL) & (pts[:, 1] <= y1 + _FACE_TOL))
        return inside

    def to_config(self):
        return {"rectangles": [list(r) for r in self.rects]}

    @classmethod
    def from_config(cls, cfg):
        return cls.of(*cfg["rectangles"])


def build_macro_mesh(domain, h):
    """Mesh a rectangle-union domain; every boundary edge is marked OUTER."""
    if isinstance(domain, (tuple, list)):
        domain = RectUnion.of(*domain)
    domain.validate()
    n = max(2, math.ceil(1.0 / h - 1e-9))
    g = 1.0 / n
    x0, y0, x1, y1 = domain.bbox()
    for r in domain.rects:
        for v in r:
            if abs(v / g - round(v / g)) > 1e-9:
                raise MeshFailureError(
                    f"rectangle corner {v} is not aligned with grid pitch {g}"
                )
    nx = int(round((x1 - x0) / g))
    ny = int(round((y1 - y0) / g))
    centers_x = x0 + g * (np.arange(nx) + 0.5)
    centers_y = y0 + g * (np.arange(ny) + 0.5)
    keep = {}
    for iy, cy in enumerate(centers_y):
        row = domain.contains(np.column_stack(
            [centers_x, np.full(nx, cy)]))
        for ix in range(nx):
            keep[(ix, iy)] = bool(row[ix])
    if not any(keep.values()):
        raise MeshFailureError("domain contains no grid cells at this pitch")
    nodes, tris = _crossed_grid(nx, ny, g, x0, y0,
                                keep_cell=lambda ix, iy: keep[(ix, iy)])
    nodes, tris = _compact(nodes, tris)
    bedges = _boundary_edges(tris)
    markers = np.full(len(bedges), EdgeMarker.OUTER, dtype=np.uint8)
    mesh = Mesh(nodes, tris, bedges, markers, h=h)
    validate_mesh(mesh)
    return mesh


@dataclass(frozen=True)
class EpsilonDomainSpec:
    """Perforated domain: rectangle-union macro domain, period eps = 1/m."""

    domain: RectUnion
    epsilon: float
    inclusion: InclusionSpec

    def validate(self):
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidGeometryError("epsilon must lie in (0, 1)")
        m = 1.0 / self.epsilon
        if abs(m - round(m)) > 1e-9:
            raise InvalidGeometryError("epsilon must be the reciprocal of an integer")
        self.domain.validate()
        m = round(m)
        for r in self.domain.rects:
            for v in r:
                if abs(v * m - round(v * m)) > 1e-9:
                    raise InvalidGeometryError(
                        f"domain corner {v} is not an integer multiple of epsilon"
                    )
        self.inclusion.validate()

    @property
    def cells_per_unit(self):
        return round(1.0 / self.epsilon)


def _epsilon_cells(spec):
    """Integer lattice cells k (K,2), row by row, with eps*(k + unit cell)
    inside the domain."""
    m = spec.cells_per_unit
    x0, y0, x1, y1 = spec.domain.bbox()
    kx, ky = np.meshgrid(np.arange(round(x0 * m), round(x1 * m)),
                         np.arange(round(y0 * m), round(y1 * m)))
    cells = np.column_stack([kx.ravel(), ky.ravel()])
    return cells[spec.domain.contains((cells + 0.5) / m)]


def build_epsilon_mesh(spec, h_cell, node_cap=DEFAULT_NODE_CAP):
    """Mesh the perforated epsilon-domain by tiling a scaled unit-cell mesh.

    Nodes of neighbouring cells with exactly equal coordinates are merged;
    merged nodes are numbered in order of first appearance, cell by cell.
    """
    spec.validate()
    eps = spec.epsilon
    if h_cell > eps / 8 * (1 + 1e-9):
        raise ValueError("h_cell must resolve the scaled inclusion (h_cell <= eps/8)")
    unit = build_unit_cell_mesh(spec.inclusion, h_cell / eps)
    cells = _epsilon_cells(spec)
    if not len(cells):
        raise MeshFailureError("no epsilon cells inside the domain")
    estimated = len(cells) * unit.n_nodes
    if estimated > node_cap:
        raise ResourceLimitError(
            f"estimated {estimated} nodes exceeds cap {node_cap}"
        )

    shifted = (unit.nodes[None] + cells[:, None].astype(float)) * eps
    shifted = shifted.reshape(-1, 2)
    # one complex number per node, so that np.unique merges equal (x, y)
    _, first, inverse = np.unique(shifted.view(np.complex128).ravel(),
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    local = np.argsort(order)[inverse].reshape(len(cells), unit.n_nodes)
    nodes = shifted[first[order]]
    tris = local[:, unit.triangles].reshape(-1, 3)
    elem_cell = np.repeat(np.arange(len(cells)), unit.n_triangles)
    bedges = _boundary_edges(tris)

    n = len(nodes)
    ge = np.sort(local[:, unit.edges_with(EdgeMarker.GAMMA)].reshape(-1, 2), axis=1)
    gamma_keys = np.unique(ge[:, 0] * n + ge[:, 1])
    is_gamma = np.isin(bedges[:, 0] * n + bedges[:, 1], gamma_keys)
    markers = np.where(is_gamma, EdgeMarker.GAMMA, EdgeMarker.OUTER).astype(np.uint8)
    if int(is_gamma.sum()) != len(gamma_keys):
        raise MeshFailureError("an inclusion boundary touches the outer boundary")
    mesh = Mesh(nodes, tris, bedges, markers, element_markers=elem_cell, h=h_cell)
    validate_mesh(mesh)
    return mesh


# ---------------------------------------------------------------------------
# periodic identification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicMap:
    """Master/slave identification of opposite-face nodes (corners collapsed)."""

    pairs: np.ndarray  # (K, 2) rows (master, slave)
    n_nodes: int

    def __post_init__(self):
        object.__setattr__(
            self, "pairs",
            np.ascontiguousarray(self.pairs, dtype=np.int64).reshape(-1, 2))
        self.pairs.setflags(write=False)

    @property
    def n_slaves(self):
        return len(self.pairs)

    @property
    def ndof(self):
        return self.n_nodes - self.n_slaves

    def master_of(self):
        """Full-length map i -> representative node index."""
        out = np.arange(self.n_nodes, dtype=np.int64)
        out[self.pairs[:, 1]] = self.pairs[:, 0]
        return out


def _match_face(nodes, lo_ids, hi_ids, axis, snap_tol):
    other = 1 - axis
    lo = lo_ids[np.lexsort((nodes[lo_ids, axis], nodes[lo_ids, other]))]
    hi = hi_ids[np.lexsort((nodes[hi_ids, axis], nodes[hi_ids, other]))]
    if len(lo) != len(hi):
        extra = hi if len(hi) > len(lo) else lo
        raise UnmatchedNodeError(nodes[extra[-1]])
    gap = np.abs(nodes[lo, other] - nodes[hi, other])
    if len(gap) and gap.max() > snap_tol:
        bad = int(np.argmax(gap))
        raise UnmatchedNodeError(nodes[hi[bad]])
    return list(zip(lo.tolist(), hi.tolist()))


def pair_periodic_nodes(mesh, snap_tol=None):
    """Pair opposite periodic faces into a bijection; corners become one class."""
    if snap_tol is None:
        span = mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)
        snap_tol = 1e-9 * float(np.hypot(*span))
    raw_pairs = []
    for axis, marker in ((0, EdgeMarker.PERIODIC_X), (1, EdgeMarker.PERIODIC_Y)):
        ids = mesh.nodes_with(marker)
        if len(ids) == 0:
            raise UnmatchedNodeError(
                (math.nan, math.nan),
                "mesh has no periodic face markers on axis "
                f"{'xy'[axis]}",
            )
        coord = mesh.nodes[ids, axis]
        lo_val, hi_val = coord.min(), coord.max()
        lo_ids = ids[np.abs(coord - lo_val) <= snap_tol]
        hi_ids = ids[np.abs(coord - hi_val) <= snap_tol]
        if len(lo_ids) + len(hi_ids) != len(ids):
            stray = ids[(np.abs(coord - lo_val) > snap_tol)
                        & (np.abs(coord - hi_val) > snap_tol)][0]
            raise UnmatchedNodeError(mesh.nodes[stray])
        raw_pairs.extend(_match_face(mesh.nodes, lo_ids, hi_ids, axis, snap_tol))

    parent = np.arange(mesh.n_nodes, dtype=np.int64)

    def find(i):
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    for a, b in raw_pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    pairs = []
    for i in range(mesh.n_nodes):
        r = find(i)
        if r != i:
            pairs.append((r, i))
    return PeriodicMap(np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
                       mesh.n_nodes)


# ---------------------------------------------------------------------------
# poromesh text format
# ---------------------------------------------------------------------------

def write_poromesh(mesh, path):
    """Write the line-oriented poromesh v1 format (round-trip exact)."""
    lines = ["poromesh v1 dim=2", f"nodes {mesh.n_nodes}"]
    lines.extend(f"{float(x)!r} {float(y)!r}" for x, y in mesh.nodes)
    lines.append(f"tris {mesh.n_triangles}")
    lines.extend(f"{i} {j} {k}" for i, j, k in mesh.triangles)
    lines.append(f"edges {len(mesh.edges)}")
    lines.extend(
        f"{i} {j} {_MARKER_NAMES[EdgeMarker(m)]}"
        for (i, j), m in zip(mesh.edges, mesh.edge_markers)
    )
    text = "\n".join(lines) + "\n"
    with open(path, "w") as f:
        f.write(text)


def _section_count(line, tag):
    """Item count from a poromesh section header ``<tag> <count>``."""
    parts = line.split()
    if len(parts) != 2 or parts[0] != tag:
        raise MeshFailureError(f"expected a {tag!r} section, got {line!r}")
    return int(parts[1])


def read_poromesh(path):
    """Read a poromesh v1 file and validate the mesh."""
    with open(path) as f:
        lines = f.read().splitlines()
    it = iter(lines)
    header = next(it).split()
    if header[:2] != ["poromesh", "v1"]:
        raise MeshFailureError("not a poromesh v1 file")
    if header[2] != "dim=2":
        raise UnsupportedDimensionError("only dim=2 poromesh files are supported")
    n = _section_count(next(it), "nodes")
    nodes = np.array([[float(v) for v in next(it).split()] for _ in range(n)])
    m = _section_count(next(it), "tris")
    tris = np.array([[int(v) for v in next(it).split()] for _ in range(m)],
                    dtype=np.int64).reshape(m, 3)
    e = _section_count(next(it), "edges")
    edges = []
    markers = []
    for _ in range(e):
        i, j, name = next(it).split()
        edges.append((int(i), int(j)))
        markers.append(_MARKER_BY_NAME[name])
    edges = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
    markers = np.asarray(markers, dtype=np.uint8)
    if len(tris):
        p = nodes[tris]
        lengths = np.concatenate([
            np.hypot(*(p[:, 1] - p[:, 0]).T),
            np.hypot(*(p[:, 2] - p[:, 1]).T),
            np.hypot(*(p[:, 0] - p[:, 2]).T),
        ])
        h = float(lengths.max())
    else:
        h = 0.0
    mesh = Mesh(nodes, tris, edges, markers, h=h)
    validate_mesh(mesh)
    return mesh
