"""P1 interpolation between meshes (point location + barycentric weights)."""

from __future__ import annotations

import numpy as np

from .errors import PointOutsideDomainError

# a point whose smallest barycentric coordinate in a triangle is at least
# -INSIDE_TOL lies inside it
INSIDE_TOL = 1e-9

# bins per axis of the location grid, per square root of the triangle count
BIN_DENSITY = 2


def _expand(counts):
    """Owner and rank within its owner of each of ``counts.sum()`` items."""
    owner = np.repeat(np.arange(len(counts)), counts)
    start = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - start[owner]


class P1Interpolator:
    """Evaluate P1 fields of a source mesh at fixed query points.

    Location is done once at construction; evaluation is a sparse weighted
    gather, cheap enough to run per snapshot.

    Triangles are bucketed by bounding box on a square grid of
    BIN_DENSITY sqrt(T) bins per axis, for T triangles. The bins only prune
    the candidates: every triangle whose bounding box holds a point is in
    that point's bin at any bin count. A point goes to the first triangle of
    its bin, by ascending triangle index, whose smallest barycentric
    coordinate is >= -INSIDE_TOL, so a point on a shared vertex or edge goes
    to the lowest-numbered triangle holding it. If there is none, it goes to
    the first triangle with the largest smallest coordinate, and
    PointOutsideDomainError is raised when the bin is empty or that
    coordinate is below -1e-6. The weights are clipped at
    zero and renormalised.
    """

    def __init__(self, mesh, points):
        self.mesh = mesh
        points = np.atleast_2d(np.asarray(points, dtype=float))
        self.points = points
        tri_pts = mesh.nodes[mesh.triangles]
        bbox_lo = mesh.nodes.min(axis=0)
        bbox_hi = mesh.nodes.max(axis=0)
        span = np.maximum(bbox_hi - bbox_lo, 1e-300)
        nbin = max(1, int(BIN_DENSITY * np.sqrt(mesh.n_triangles)))

        def bin_of(xy):
            b = np.floor((xy - bbox_lo) / span * nbin).astype(np.int64)
            b = np.clip(b, 0, nbin - 1)
            return b[:, 0] * nbin + b[:, 1]

        # bin -> triangles in CSR form, ascending triangle index in each bin
        blo = bin_of(tri_pts.min(axis=1))
        bhi = bin_of(tri_pts.max(axis=1))
        ny = bhi % nbin - blo % nbin + 1
        t_of, k = _expand((bhi // nbin - blo // nbin + 1) * ny)
        bins = blo[t_of] + (k // ny[t_of]) * nbin + k % ny[t_of]
        bin_tris = t_of[np.argsort(bins, kind="stable")]
        bin_start = np.concatenate(
            [[0], np.cumsum(np.bincount(bins, minlength=nbin * nbin))])

        # every (point, candidate triangle) pair, grouped by point
        pb = bin_of(points)
        n_cand = bin_start[pb + 1] - bin_start[pb]
        pt, k = _expand(n_cand)
        t = bin_tris[bin_start[pb[pt]] + k]

        p0 = tri_pts[:, 0]
        e1 = tri_pts[:, 1] - p0
        e2 = tri_pts[:, 2] - p0
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        rel = points[pt] - p0[t]
        e1, e2, det = e1[t], e2[t], det[t]
        l1 = (rel[:, 0] * e2[:, 1] - rel[:, 1] * e2[:, 0]) / det
        l2 = (e1[:, 0] * rel[:, 1] - e1[:, 1] * rel[:, 0]) / det
        lam = np.column_stack([1.0 - l1 - l2, l1, l2])
        short = lam.min(axis=1)

        # Any candidate inside scores +inf, so the first maximum of the score
        # is the first candidate inside, else the first largest ``short``.
        score = np.where(short >= -INSIDE_TOL, np.inf, short)
        n = len(points)
        has = n_cand > 0
        best = np.full(n, np.nan)
        best[has] = np.fmax.reduceat(score, (np.cumsum(n_cand) - n_cand)[has])
        hit = np.flatnonzero(score == best[pt])
        hit_pt, first = np.unique(pt[hit], return_index=True)
        chosen = np.full(n, -1)
        chosen[hit_pt] = hit[first]
        bad = chosen < 0
        bad[~bad] = short[chosen[~bad]] < -1e-6
        if bad.any():
            i = int(np.argmax(bad))
            raise PointOutsideDomainError(
                f"point {tuple(points[i])} lies outside the source mesh"
            )
        bary = np.clip(lam[chosen], 0.0, None)
        bary /= bary.sum(axis=1, keepdims=True)
        self.tri_idx = t[chosen]
        self.bary = bary
        self._verts = mesh.triangles[self.tri_idx]

    def __call__(self, values):
        values = np.asarray(values, dtype=float)
        return np.einsum("pk,pk->p", values[self._verts], self.bary)
