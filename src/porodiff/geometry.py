"""Meshes for the periodic unit cell, the macroscopic domain, and the
epsilon-periodic perforated domain.

All meshes are conforming P1 triangulations built from a crossed structured
grid (four triangles per square, one centre node). Inclusion boundaries are
resolved by snapping near-boundary grid nodes onto the interface and cutting
crossed elements exactly along it, so every boundary vertex lies on the
interface and no element can invert. Meshes are immutable after construction
and safe to share across threads.

The unit cell's face nodes lie exactly on 0 and 1: its grid puts the far
faces at g * n with g = 1/n, which rounds below 1 for some n (49 is the
first), so they are set to 1. Every face test, the tiling's merge and the
periodic pairing included, is then an exact comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    InvalidGeometryError,
    MeshFailureError,
    ResourceLimitError,
    UnmatchedNodeError,
)

# Fraction of the grid pitch within which nodes are snapped onto the
# interface; must stay below 0.5 so snapping cannot invert an element,
# and large enough that no grid edge crosses the interface with both
# endpoints unsnapped (guaranteed for resolved inclusions).
_SNAP_FRAC = 0.2
_DISC_MARGIN = 0.05
_POLY_MARGIN = 0.02
# the config keys of each inclusion shape besides "shape", in the order of
# the arguments of its constructor
_INCLUSION_KEYS = {"none": (), "disc": ("center", "radius"),
                   "polygon": ("vertices",)}

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


@dataclass(frozen=True)
class InclusionSpec:
    """Closed inclusion S inside the closed unit cell, with Lipschitz boundary.

    ``disc`` and ``polygon`` are the built-in shapes; ``none`` (or a disc of
    radius zero) is an unperforated cell, whose inclusion boundary is empty.
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
        """Check admissibility: finite, strictly inside the cell, area > 0."""
        values = ((*self.center, self.radius) if self.kind == "disc"
                  else self.vertices if self.kind == "polygon" else ())
        if not np.all(np.isfinite(values)):
            raise InvalidGeometryError(
                f"inclusion coordinates must be finite, got {values!r}")
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

    @classmethod
    def from_config(cls, cfg):
        """The inclusion of a config mapping. ConfigError on a key its shape
        does not take or a point that is not an (x, y) pair; KeyError on a
        missing key."""
        shape = cfg.get("shape")
        if shape not in _INCLUSION_KEYS:
            raise InvalidGeometryError(f"unknown inclusion shape {shape!r}")
        extra = sorted(set(cfg) - {"shape", *_INCLUSION_KEYS[shape]})
        if extra:
            raise ConfigError(f"inclusion shape {shape!r} takes no key "
                              f"{', '.join(map(repr, extra))}")
        args = [cfg[key] for key in _INCLUSION_KEYS[shape]]
        points = args[0] if shape == "polygon" else args[:1]
        if any(len(p) != 2 for p in points):
            raise ConfigError(f"every point of a {shape} inclusion must be "
                              f"an (x, y) pair, got {points!r}")
        return getattr(cls, shape)(*args)


def _polygon_closest(pts, verts):
    """(closest point of every polygon edge (P,K,2), its distance (P,K))."""
    a = verts
    ab = np.roll(verts, -1, axis=0) - a
    ab2 = np.einsum("kd,kd->k", ab, ab)
    ap = pts[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("pkd,kd->pk", ap, ab) / ab2[None, :], 0.0, 1.0)
    closest = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    return closest, np.linalg.norm(pts[:, None, :] - closest, axis=2)


def _polygon_signed_distance(pts, verts):
    dist = np.min(_polygon_closest(pts, verts)[1], axis=1)
    a = verts
    b = np.roll(verts, -1, axis=0)
    ab = b - a
    x = pts[:, 0:1]
    y = pts[:, 1:2]
    cond = (a[None, :, 1] > y) != (b[None, :, 1] > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = a[None, :, 0] + (y - a[None, :, 1]) * ab[None, :, 0] / ab[None, :, 1]
    crossings = np.sum(cond & (x < xint), axis=1)
    inside = crossings % 2 == 1
    return np.where(inside, -dist, dist)


def _polygon_project(pts, verts):
    closest, d = _polygon_closest(pts, verts)
    best = np.argmin(d, axis=1)
    return closest[np.arange(len(pts)), best]


@dataclass
class Mesh:
    """Conforming triangle mesh with marked boundary edges.

    ``nodes`` is (N,2), ``triangles`` (M,3) counter-clockwise, ``edges`` the
    (E,2) marked boundary edges with ``edge_markers`` (E,) from
    :class:`EdgeMarker`. Arrays are read-only.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_markers: np.ndarray
    h: float = 0.0

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.edges = np.ascontiguousarray(self.edges, dtype=np.int64)
        self.edge_markers = np.ascontiguousarray(self.edge_markers, dtype=np.uint8)
        for arr in [a for a in vars(self).values() if hasattr(a, "setflags")]:
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
    def gradients(self):
        """P1 basis gradients (M,3,2) of every triangle."""
        p = self.nodes[self.triangles]
        out = np.empty((len(p), 3, 2))
        for k in range(3):
            pj = p[:, (k + 1) % 3]
            pk = p[:, (k + 2) % 3]
            out[:, k, 0] = pj[:, 1] - pk[:, 1]
            out[:, k, 1] = pk[:, 0] - pj[:, 0]
        out /= (2.0 * self.areas)[:, None, None]
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
        d = self.nodes[e[:, 0]] - self.nodes[e[:, 1]]
        return float(np.hypot(d[:, 0], d[:, 1]).sum())


@dataclass(kw_only=True)
class EpsilonMesh(Mesh):
    """A Mesh tiling the unit-cell mesh ``unit`` (unit coordinates) over the
    epsilon-lattice: lattice cell c has the integer index ``cells[c]`` (K,2)
    and occupies epsilon * (cells[c] + unit cell); its node i is node
    ``cell_nodes[c, i]``."""

    unit: Mesh
    cells: np.ndarray
    cell_nodes: np.ndarray
    epsilon: float


def validate_mesh(mesh):
    """Raise MeshFailureError on inverted elements or broken GAMMA loops."""
    areas = mesh.areas
    if len(areas) == 0:
        raise MeshFailureError("mesh has no triangles")
    if areas.min() <= 0.0:
        bad = int(np.argmin(areas))
        raise MeshFailureError(
            f"triangle {bad} has nonpositive area {areas.min():.3e}"
        )
    gamma = mesh.edges_with(EdgeMarker.GAMMA)
    _, counts = np.unique(gamma, return_counts=True)
    if not np.all(counts == 2):
        raise MeshFailureError(
            "inclusion boundary edges do not form closed loops"
        )


def _least_joined(n, links):
    """For each of n nodes, the least node the (K, 2) links join it to."""
    links = np.asarray(links, dtype=np.int64).reshape(-1, 2)
    least = np.arange(n, dtype=np.int64)
    while True:
        step = least.copy()
        for a, b in (links.T, links.T[::-1]):
            np.minimum.at(step, a, least[b])
        step = step[step]  # jump along the chain of least nodes
        if np.array_equal(step, least):
            return least
        least = step


def count_marked_loops(mesh):
    """Number of connected components of the inclusion boundary edges."""
    edges = mesh.edges_with(EdgeMarker.GAMMA)
    return len(np.unique(_least_joined(mesh.n_nodes, edges)[edges]))


# ---------------------------------------------------------------------------
# structured crossed grid + interface cutting
# ---------------------------------------------------------------------------

def _crossed_grid(nx, ny, g, x0=0.0, y0=0.0, keep=None):
    """Crossed-pattern grid: 4 CCW triangles per square cell, row by row.

    ``keep`` optionally masks the cells, ny * nx booleans in row order.
    """
    cx, cy = np.meshgrid(x0 + g * np.arange(nx + 1), y0 + g * np.arange(ny + 1))
    corners = np.column_stack([cx.ravel(), cy.ravel()])
    mx, my = np.meshgrid(x0 + g * (np.arange(nx) + 0.5),
                         y0 + g * (np.arange(ny) + 0.5))
    centers = np.column_stack([mx.ravel(), my.ravel()])
    nodes = np.vstack([corners, centers])

    cell = np.arange(nx * ny, dtype=np.int64)
    if keep is not None:
        cell = cell[np.asarray(keep).ravel()]
    iy, ix = np.divmod(cell, nx)
    a = iy * (nx + 1) + ix
    b, c, d = a + 1, a + nx + 2, a + nx + 1
    m = (nx + 1) * (ny + 1) + cell  # the centre node
    tris = np.array([(a, b, m), (b, c, m), (c, d, m), (d, a, m)])
    return nodes, tris.transpose(2, 0, 1).reshape(-1, 3)


def _compact(nodes, tris):
    used = np.unique(tris)
    remap = np.full(len(nodes), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return nodes[used], remap[tris]


def _bisect_interface(incl, p_pos, p_neg):
    """Points on the interface along the segments p_pos -> p_neg, (E, 2).

    60 halvings of every segment at once; a midpoint exactly on the
    interface sets ta = tb = tm, which later halvings keep fixed.
    """
    ta = np.zeros(len(p_pos))
    tb = np.ones(len(p_pos))
    seg = p_neg - p_pos
    for _ in range(60):
        tm = 0.5 * (ta + tb)
        dm = incl.signed_distance(p_pos + tm[:, None] * seg)
        ta = np.where(dm >= 0.0, tm, ta)
        tb = np.where(dm <= 0.0, tm, tb)
    return incl.project(p_pos + (0.5 * (ta + tb))[:, None] * seg)


def _cut_out_inclusion(nodes, tris, incl, g):
    """Remove the inclusion from a unit-cell grid, cutting exactly along it."""
    nodes = nodes.copy()
    on_face = np.isin(nodes, (0.0, 1.0)).any(axis=1)

    for anchor in incl.anchors():
        d2 = np.einsum("nd,nd->n", nodes - anchor, nodes - anchor)
        d2[on_face] = np.inf
        i = int(np.argmin(d2))
        if d2[i] > g * g:
            raise MeshFailureError("no grid node close enough to polygon "
                                   f"corner {tuple(map(float, anchor))}")
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
    extra = []    # (pos, neg) node pairs of the cut edges, in first-use order
    edge_point = {}

    def interface_node(i_pos, i_neg):
        key = (min(i_pos, i_neg), max(i_pos, i_neg))
        idx = edge_point.get(key)
        if idx is None:
            idx = len(nodes) + len(extra)
            extra.append((i_pos, i_neg))
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
        pairs = np.asarray(extra)
        new_nodes.append(_bisect_interface(incl, nodes[pairs[:, 0]],
                                           nodes[pairs[:, 1]]))
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


def check_cell_h(h):
    """ValueError unless the unit-cell edge length satisfies 0 < h <= 1/4."""
    if not 0.0 < h <= 0.25:
        raise ValueError("target edge length must satisfy 0 < h <= 0.25")


def build_unit_cell_mesh(spec, h):
    """Mesh the perforated unit cell with periodic face and GAMMA markers."""
    check_cell_h(h)
    spec.validate()
    n = max(4, math.ceil(1.0 / h - 1e-9))
    g = 1.0 / n
    nodes, tris = _crossed_grid(n, n, g)
    nodes[nodes == g * n] = 1.0  # the far faces, where g * n rounds below 1
    nodes, tris = _cut_out_inclusion(nodes, tris, spec, g)
    bedges = _boundary_edges(tris)
    on_x, on_y = np.isin(nodes[bedges], (0.0, 1.0)).all(axis=1).T
    markers = np.full(len(bedges), EdgeMarker.GAMMA, dtype=np.uint8)
    markers[on_x] = EdgeMarker.PERIODIC_X
    markers[on_y] = EdgeMarker.PERIODIC_Y
    if spec.is_empty and np.any(markers == EdgeMarker.GAMMA):
        raise MeshFailureError("unexpected interior boundary on full cell")
    mesh = Mesh(nodes, tris, bedges, markers, h=h)
    validate_mesh(mesh)
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
            inside |= ((pts[:, 0] >= x0) & (pts[:, 0] <= x1)
                       & (pts[:, 1] >= y0) & (pts[:, 1] <= y1))
        return inside


def macro_grid_pitch(domain, h):
    """The pitch of the macro grid at size ``h``; ValueError unless 0 < h
    <= 1/2, MeshFailureError unless ``domain`` is a union of grid cells."""
    if not 0.0 < h <= 0.5:
        raise ValueError(f"macro mesh size must satisfy 0 < h <= 1/2, got {h!r}")
    domain.validate()
    g = 1.0 / max(2, math.ceil(1.0 / h - 1e-9))
    for r in domain.rects:
        for v in r:
            if abs(v / g - round(v / g)) > 1e-9:
                raise MeshFailureError(
                    f"rectangle corner {v} is not aligned with grid pitch {g}"
                )
    if not any(round((x1 - x0) / g) and round((y1 - y0) / g)
               for x0, y0, x1, y1 in domain.rects):
        raise MeshFailureError("domain contains no grid cells at this pitch")
    return g


def build_macro_mesh(domain, h):
    """Mesh a rectangle-union domain; every boundary edge is marked OUTER."""
    g = macro_grid_pitch(domain, h)
    x0, y0, x1, y1 = domain.bbox()
    nx = int(round((x1 - x0) / g))
    ny = int(round((y1 - y0) / g))
    cx, cy = np.meshgrid(x0 + g * (np.arange(nx) + 0.5),
                         y0 + g * (np.arange(ny) + 0.5))
    keep = domain.contains(np.column_stack([cx.ravel(), cy.ravel()]))
    nodes, tris = _crossed_grid(nx, ny, g, x0, y0, keep=keep)
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


def check_node_budget(spec, unit, node_cap):
    """Integer lattice cells k (K,2), row by row, with eps*(k + unit cell)
    inside the domain; MeshFailureError if there is none, ResourceLimitError
    if they hold more than ``node_cap`` nodes of ``unit`` before merging."""
    m = spec.cells_per_unit
    x0, y0, x1, y1 = spec.domain.bbox()
    kx, ky = np.meshgrid(np.arange(round(x0 * m), round(x1 * m)),
                         np.arange(round(y0 * m), round(y1 * m)))
    cells = np.column_stack([kx.ravel(), ky.ravel()])
    cells = cells[spec.domain.contains((cells + 0.5) / m)]
    if not len(cells):
        raise MeshFailureError("no epsilon cells inside the domain")
    projected = len(cells) * unit.n_nodes
    if projected > node_cap:
        raise ResourceLimitError(
            f"epsilon={spec.epsilon} needs about {projected} nodes "
            f"(budget {node_cap})")
    return cells


def check_epsilon_h(eps, h_cell):
    """ValueError unless the cell edge length resolves the scaled inclusion."""
    if not 0.0 < h_cell <= eps / 8 * (1 + 1e-9):
        raise ValueError("h_cell must resolve the scaled inclusion "
                         "(0 < h_cell <= eps/8)")


def build_epsilon_mesh(spec, h_cell, node_cap=DEFAULT_NODE_CAP):
    """Mesh the perforated epsilon-domain by tiling a unit-cell mesh.

    Nodes of neighbouring cells at exactly equal coordinates are merged, so
    every shared face joins (the unit cell's faces lie exactly on 0 and 1);
    merged nodes are numbered in order of first appearance, cell by cell.
    The mesh keeps its tiling; its GAMMA edges are the cells', its OUTER
    edges the cells' face edges with no lattice cell across them.
    """
    spec.validate()
    eps = spec.epsilon
    check_epsilon_h(eps, h_cell)
    unit = build_unit_cell_mesh(spec.inclusion, h_cell / eps)
    cells = check_node_budget(spec, unit, node_cap)
    gamma = unit.edges_with(EdgeMarker.GAMMA)
    faces = unit.edges[unit.edge_markers != EdgeMarker.GAMMA]
    if np.isin(gamma, faces).all(axis=1).any():
        raise MeshFailureError("an inclusion boundary touches the outer boundary")

    shifted = ((unit.nodes[None] + cells[:, None]) * eps).reshape(-1, 2)
    # one complex number per node, so that np.unique merges equal (x, y)
    _, first, inverse = np.unique(shifted.view(np.complex128).ravel(),
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    local = np.argsort(order)[inverse].reshape(len(cells), unit.n_nodes)
    mid = unit.nodes[faces].mean(axis=1)
    across = (mid == 1).astype(np.int64) - (mid == 0)
    key = cells @ np.array([1, 2 ** 32])  # one integer per lattice cell
    outer = local.take(faces, 1)[~np.isin(key[:, None] + across @ [1, 2 ** 32], key)]
    edges = np.sort(np.vstack([local.take(gamma, 1).reshape(-1, 2), outer]), axis=1)
    markers = np.full(len(edges), EdgeMarker.GAMMA, dtype=np.uint8)
    markers[len(edges) - len(outer):] = EdgeMarker.OUTER
    mesh = EpsilonMesh(shifted[first[order]],
                       local.take(unit.triangles, 1).reshape(-1, 3), edges,
                       markers, h=h_cell, unit=unit, cells=cells,
                       cell_nodes=local, epsilon=eps)
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

    def master_of(self):
        """Full-length map i -> representative node index."""
        out = np.arange(self.n_nodes, dtype=np.int64)
        out[self.pairs[:, 1]] = self.pairs[:, 0]
        return out


def pair_periodic_nodes(mesh):
    """Pair opposite periodic faces into a bijection; corners become one class.

    Face nodes lie exactly on 0 or 1 on their axis and pair at exactly equal
    other coordinates; UnmatchedNodeError on a node without such a partner.
    """
    raw_pairs = []
    for axis, marker in ((0, EdgeMarker.PERIODIC_X), (1, EdgeMarker.PERIODIC_Y)):
        ids = mesh.nodes_with(marker)
        if len(ids) == 0:
            raise UnmatchedNodeError(
                (math.nan, math.nan),
                "mesh has no periodic face markers on axis "
                f"{'xy'[axis]}",
            )
        # sorted along the face, then across it, each node on 0 comes just
        # before its partner on 1; an odd node out is paired with itself
        ids = ids[np.lexsort((mesh.nodes[ids, axis], mesh.nodes[ids, 1 - axis]))]
        if len(ids) % 2:
            ids = np.append(ids, ids[-1])
        pairs = ids.reshape(-1, 2)
        lo, hi = mesh.nodes[pairs].transpose(1, 0, 2)
        bad = (lo[:, axis] != 0.0) | (hi - lo != np.eye(2)[axis]).any(axis=1)
        if bad.any():
            k = np.argmax(bad)  # report the node of the pair that is astray
            raise UnmatchedNodeError(
                hi[k] if lo[k, axis] == 0.0 and hi[k, axis] != 1.0 else lo[k])
        raw_pairs.extend(pairs.tolist())

    # a node's master is the least node of its class (corners join four)
    master = _least_joined(mesh.n_nodes, raw_pairs)
    slaves = np.flatnonzero(master != np.arange(mesh.n_nodes))
    return PeriodicMap(np.column_stack([master[slaves], slaves]), mesh.n_nodes)


# ---------------------------------------------------------------------------
# poromesh text format
# ---------------------------------------------------------------------------

def write_poromesh(mesh, path):
    """Write the line-oriented poromesh v1 format, an export that porodiff
    never reads back; coordinates are written with ``repr``, so exactly."""
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
