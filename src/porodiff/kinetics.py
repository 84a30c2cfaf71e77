"""Nonlinear reaction data: volume rates, surface rate, exchange rate.

Rates follow the saturating multi-species enzyme forms, with absolute values
in every denominator term so the denominators stay positive for any real
arguments. Hypothesis checks are sampled (rates are user-supplied closures,
so the universally quantified conditions can only be falsified, not proven);
the report records the worst sample per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import MeshRequiredError, UnknownNameError
from .geometry import EdgeMarker


@dataclass(frozen=True)
class Rate:
    """Reaction rate r(y, s1, s2, s3); ``y`` is ignored when y_independent.

    Separable rates r = a0(y) * g(s) carry both factors so cell averaging
    needs the mean of a0 only. Evaluators must be pure and vectorize
    over numpy arrays.
    """

    func: object
    y_dependent: bool = False
    a0: object = None
    s_part: object = None

    @classmethod
    def zero(cls):
        return cls.of_s(lambda s1, s2, s3: np.zeros(np.broadcast(s1, s2, s3).shape))

    @classmethod
    def of_s(cls, fn):
        return cls(lambda y, s1, s2, s3: fn(s1, s2, s3), y_dependent=False)

    @classmethod
    def separable(cls, a0, fn):
        return cls(lambda y, s1, s2, s3: a0(y) * fn(s1, s2, s3),
                   y_dependent=True, a0=a0, s_part=fn)

    @classmethod
    def of_ys(cls, fn):
        return cls(fn, y_dependent=True)

    def __call__(self, y, s1, s2, s3):
        return self.func(y, s1, s2, s3)


@dataclass(frozen=True)
class KineticsSet:
    """Volume rates f1..f3, surface rate g3, exchange rate h, and constants.

    ``l`` bounds h, ``lip`` bounds |h'|, ``lam`` is the invariant-region
    bound, ``growth`` the linear-growth constant for large concentrations.
    Instances are immutable and safe to share.
    """

    f1: Rate
    f2: Rate
    f3: Rate
    g3: Rate
    h: object
    l: float = 1.0
    lip: float = 1.0
    lam: float = 1.0
    growth: float = 1.0
    name: str = "custom"

    @property
    def y_dependent(self):
        return any(r.y_dependent for r in (self.f1, self.f2, self.f3, self.g3))

    def volume_rate(self, i):
        return (self.f1, self.f2, self.f3)[i - 1]


def _mm_triple(s1, s2, s3):
    s1, s2, s3 = np.asarray(s1, float), np.asarray(s2, float), np.asarray(s3, float)
    denom = (1.0 + np.abs(s1) + np.abs(s2) + np.abs(s3)
             + np.abs(s1 * s2) + np.abs(s1 * s3) + np.abs(s2 * s3)
             + np.abs(s1 * s2 * s3))
    return s1 * s2 * s3 / denom


def _mm_pair(si, sj, sk):
    si, sj, sk = np.asarray(si, float), np.asarray(sj, float), np.asarray(sk, float)
    denom = (1.0 + np.abs(si) + np.abs(sj) + np.abs(si * sj)
             + np.abs(si * sj * sk))
    return si * sj / denom


def _g3_saturating(s1, s2, s3):
    s1 = np.asarray(s1, float)
    s3 = np.asarray(s3, float)
    return s1 ** 4 / (1.0 + s1 ** 4) * s3 + s3


def langmuir(a, b):
    """Saturating exchange rate a*s/(1+b*s), clamped to 0 for s < 0."""
    a = float(a)
    b = float(b)
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise UnknownNameError(
            f"langmuir parameters must be finite and positive, got a={a}, b={b}")

    def h(s):
        sp = np.maximum(np.asarray(s, float), 0.0)
        return a * sp / (1.0 + b * sp)

    return h, a / b, a


def zero_kinetics():
    z = Rate.zero()
    return KineticsSet(z, z, z, z, h=lambda s: np.zeros_like(np.asarray(s, float)),
                       l=1.0, lip=1.0, lam=1.0, growth=1.0, name="zero")


def mm_triple_kinetics(a0=None):
    """All three volume rates share the fully saturating triple-product form."""
    if a0 is None:
        f = Rate.of_s(_mm_triple)
    else:
        f = Rate.separable(a0, _mm_triple)
    zero_h = lambda s: np.zeros_like(np.asarray(s, float))
    return KineticsSet(f, f, f, Rate.zero(), h=zero_h,
                       l=1.0, lip=1.0, lam=1.0, growth=1.0, name="mm_triple")


def mm_mixed_kinetics(a0=None):
    """Mixed saturating volume rates plus the saturating surface rate."""
    if a0 is None:
        f1 = Rate.of_s(lambda s1, s2, s3: _mm_pair(s1, s2, s3)
                       + np.asarray(s1, float))
    else:
        f1 = Rate.of_ys(lambda y, s1, s2, s3: a0(y) * _mm_pair(s1, s2, s3)
                        + np.asarray(s1, float))
    f2 = Rate.of_s(lambda s1, s2, s3: _mm_pair(s2, s3, s1))
    f3 = Rate.of_s(lambda s1, s2, s3: _mm_pair(s1, s3, s2)
                   + np.asarray(s3, float))
    zero_h = lambda s: np.zeros_like(np.asarray(s, float))
    return KineticsSet(f1, f2, f3, Rate.of_s(_g3_saturating), h=zero_h,
                       l=1.0, lip=1.0, lam=1.0, growth=2.0, name="mm_mixed")


def builtin(name, **params):
    """Builtin kinetics by name: ZERO, MM_TRIPLE, MM_MIXED, LANGMUIR_EXCHANGE."""
    key = name.strip().lower()
    if key == "zero":
        return zero_kinetics()
    if key == "mm_triple":
        return mm_triple_kinetics(params.get("a0"))
    if key == "mm_mixed":
        return mm_mixed_kinetics(params.get("a0"))
    if key in ("langmuir", "langmuir_exchange"):
        a = float(params.get("a", 1.0))
        b = float(params.get("b", 1.0))
        h, l, lip = langmuir(a, b)
        base = zero_kinetics()
        return replace(base, h=h, l=l, lip=lip, name=f"langmuir:a={a},b={b}")
    raise UnknownNameError(f"unknown builtin kinetics {name!r}")


def parse_kinetics(text):
    """Parse CLI-style kinetics, e.g. ``mm_triple+langmuir:a=1,b=1``.

    Parts are joined with ``+``, at most one volume/surface part and one
    langmuir part; the langmuir part overrides the exchange rate of the
    volume/surface part. Only langmuir takes parameters from text, its
    ``a`` and ``b``.
    """
    parts = [p.strip() for p in text.split("+") if p.strip()]
    if not parts:
        raise UnknownNameError("empty kinetics specification")
    result = None
    exchange = None
    for part in parts:
        name, _, argtext = part.partition(":")
        is_langmuir = name.strip().lower() in ("langmuir", "langmuir_exchange")
        params = {}
        if argtext:
            for item in argtext.split(","):
                k, _, v = item.partition("=")
                if not _:
                    raise UnknownNameError(f"malformed kinetics parameter {item!r}")
                k = k.strip()
                if not (is_langmuir and k in ("a", "b")):
                    raise UnknownNameError(
                        f"unknown parameter {k!r} of kinetics {name!r}")
                params[k] = float(v)
        k = builtin(name, **params)
        if is_langmuir:
            if exchange is not None:
                raise UnknownNameError("at most one langmuir exchange part allowed")
            exchange = k
        else:
            if result is not None:
                raise UnknownNameError("at most one volume kinetics part allowed")
            result = k
    if result is None:
        return exchange if exchange is not None else zero_kinetics()
    if exchange is not None:
        result = replace(result, h=exchange.h, l=exchange.l, lip=exchange.lip,
                         name=f"{result.name}+{exchange.name}")
    return result


# ---------------------------------------------------------------------------
# hypothesis validation (sampled)
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_value: float
    worst_point: tuple | None = None
    measured_constant: float | None = None

    def as_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "worst_value": float(self.worst_value),
            "worst_point": [float(v) for v in self.worst_point]
            if self.worst_point else None,
            "measured_constant": None if self.measured_constant is None
            else float(self.measured_constant),
        }


@dataclass
class ValidationReport:
    checks: list

    @property
    def passed(self):
        return bool(all(c.passed for c in self.checks))

    def as_dict(self):
        return {"passed": self.passed,
                "checks": [c.as_dict() for c in self.checks]}

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


RATIO_CAP = 100.0


def _worst(values, floor=-math.inf):
    """(largest sample, index of the first sample reaching it) of ``values``.

    A NaN sample is the largest. The index is None when the largest does not
    exceed ``floor``; no samples give (0.0, None).
    """
    values = np.asarray(values, dtype=float)
    if not values.size:
        return 0.0, None
    worst = float(values.max())
    return worst, None if worst <= floor else int(np.argmax(values))


def validate(kin):
    """Sampled hypothesis checks; the report carries failures, never raises.

    Each concentration is sampled at 7 points of [-lam, 2 lam], the cell at
    the centres of a 4 x 4 grid; growth ratios must stay within RATIO_CAP.
    A check fails when its worst sample exceeds its bound or is NaN.
    """
    lam = kin.lam
    axis = np.linspace(-lam, 2 * lam, 7)
    s1, s2, s3 = (a.ravel() for a in np.meshgrid(axis, axis, axis,
                                                 indexing="ij"))
    grid = np.column_stack([s1, s2, s3])
    ys = np.array([[0.5, 0.5]])
    if kin.y_dependent:
        centres = (np.arange(4) + 0.5) / 4
        gx, gy = np.meshgrid(centres, centres)
        ys = np.column_stack([gx.ravel(), gy.ravel()])
    checks = []

    def check(name, bound, values, points=None, floor=-math.inf,
              constant=False, also=True):
        """Record a check on the worst of ``values``; ``points`` holds the
        witness point of each sample, ``also`` a further pass condition."""
        worst, k = _worst(np.concatenate([np.ravel(v) for v in values]),
                          floor)
        point = (None if points is None or k is None
                 else tuple(float(v) for v in points[k]))
        checks.append(CheckResult(name, bool(worst <= bound and also), worst,
                                  point, worst if constant else None))

    saxis = np.linspace(-lam, 2 * lam, 101)
    hv = np.asarray(kin.h(saxis), dtype=float)
    check("exchange_rate_bounds", 1e-12, [np.maximum(hv - kin.l, -hv)],
          saxis[:, None])
    check("exchange_rate_zero_at_zero", 1e-12,
          [abs(float(np.asarray(kin.h(0.0))))], [(0.0,)])
    check("exchange_rate_lipschitz", kin.lip * (1 + 1e-9),
          [np.abs(np.diff(hv)) / np.diff(saxis)], constant=True)

    zero = np.zeros(1)

    def at_origin(rate, y):
        return np.max(np.abs(np.asarray(rate(y[None, :], zero, zero, zero))))

    volume = (kin.f1, kin.f2, kin.f3)
    check("volume_rate_zero_at_zero", 1e-12,
          [[at_origin(r, y) for r in volume for y in ys]],
          [(i, *y) for i in (1, 2, 3) for y in ys], floor=0.0)
    check("surface_rate_zero_at_zero", 1e-12,
          [[at_origin(kin.g3, y) for y in ys]], floor=0.0)

    y_mid = ys[len(ys) // 2][None, :]
    f1, f2, f3, g3 = (np.asarray(r(y_mid, s1, s2, s3), dtype=float)
                      for r in (*volume, kin.g3))
    total = np.abs(s1) + np.abs(s2) + np.abs(s3)
    nz = total > 0
    for label, values in (("volume_rate_linear_growth", (f1, f2, f3)),
                          ("surface_rate_linear_growth", (g3,))):
        check(label, RATIO_CAP, [np.abs(v)[nz] / total[nz] for v in values],
              np.tile(grid[nz], (len(values), 1)), floor=0.0, constant=True)

    s1n, s2n, s3n = (np.minimum(s, 0.0) for s in (s1, s2, s3))
    denom = s1n ** 2 + s2n ** 2 + s3n ** 2
    mask = denom > 0
    lhs = f1 * s1n + f2 * s2n + f3 * s3n
    check("negative_orthant_sign_volume", RATIO_CAP, [lhs[mask] / denom[mask]],
          grid[mask], constant=True, also=not (lhs[~mask] > 1e-12).any())
    g_lhs = g3 * s3n
    check("negative_orthant_sign_surface", RATIO_CAP,
          [g_lhs[mask] / denom[mask]], constant=True,
          also=not (g_lhs[~mask] > 1e-12).any())

    large = [s >= lam for s in (s1, s2, s3)]
    check("large_value_growth_volume", 1e-9,
          [f[m] - kin.growth * s[m]
           for f, s, m in zip((f1, f2, f3), (s1, s2, s3), large)],
          np.concatenate([grid[m] for m in large]))
    check("large_value_growth_surface", 1e-9,
          [g3[large[2]] - kin.growth * s3[large[2]]])
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# cell averages
# ---------------------------------------------------------------------------

def _average(rate, s, ctx, quadrature):
    """Weighted mean of rate(., s) over the points of ``quadrature(mesh)``.

    ``quadrature`` maps the cell mesh to (points, weights). A y-independent
    rate is its pointwise value, a separable one the weighted mean of a0
    times its s-part; a general rate is evaluated at every point.
    """
    s1, s2, s3 = s
    if not rate.y_dependent:
        return rate(None, s1, s2, s3)
    if ctx is None:
        raise MeshRequiredError("y-dependent kinetics need a cell mesh")
    points, weights = quadrature(ctx.mesh)
    total = weights.sum()
    if rate.a0 is not None:
        mean = float(np.asarray(rate.a0(points), dtype=float) @ weights) / total
        return mean * rate.s_part(s1, s2, s3)
    vals = rate(points, np.asarray(s1)[..., None],
                np.asarray(s2)[..., None], np.asarray(s3)[..., None])
    return np.einsum("...m,m->...", np.asarray(vals), weights) / total


def _centroids(mesh):
    return mesh.centroids, mesh.areas


def _gamma_midpoints(mesh):
    edges = mesh.edges_with(EdgeMarker.GAMMA)
    if len(edges) == 0:
        raise MeshRequiredError("cell mesh has no inclusion boundary")
    p0 = mesh.nodes[edges[:, 0]]
    p1 = mesh.nodes[edges[:, 1]]
    return 0.5 * (p0 + p1), np.hypot(*(p1 - p0).T)


def cell_average_rate(rate, s, ctx=None):
    """Volume average of rate(., s) over the perforated cell, by centroid
    quadrature."""
    return _average(rate, s, ctx, _centroids)


def cell_average_f(kin, i, s, ctx=None):
    """Volume average of the i-th volume rate (i in {1,2,3})."""
    return cell_average_rate(kin.volume_rate(i), s, ctx)


def surface_average_g3(kin, s, ctx=None):
    """Boundary average of the surface rate over the inclusion boundary, by
    edge-midpoint quadrature."""
    return _average(kin.g3, s, ctx, _gamma_midpoints)
