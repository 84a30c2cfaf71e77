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

    Separable rates r = a0(y) * g(s) carry both factors so cell averaging can
    reuse the precomputed mean of a0. Evaluators must be pure and vectorize
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

    def with_exchange(self, h, l, lip, name=None):
        return replace(self, h=h, l=l, lip=lip,
                       name=name or f"{self.name}+exchange")


def _mm_triple(s1, s2, s3):
    s1, s2, s3 = np.asarray(s1, float), np.asarray(s2, float), np.asarray(s3, float)
    denom = (1.0 + np.abs(s1) + np.abs(s2) + np.abs(s3)
             + np.abs(s1 * s2) + np.abs(s1 * s3) + np.abs(s2 * s3)
             + np.abs(s1 * s2 * s3))
    return s1 * s2 * s3 / denom


def _mm_pair(si, sj, sk):
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
    if a <= 0 or b <= 0:
        raise UnknownNameError("langmuir parameters must be positive")

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
    pair12 = lambda s1, s2, s3: _mm_pair(np.asarray(s1, float),
                                         np.asarray(s2, float),
                                         np.asarray(s3, float))
    if a0 is None:
        f1 = Rate.of_s(lambda s1, s2, s3: pair12(s1, s2, s3) + np.asarray(s1, float))
    else:
        f1 = Rate.of_ys(lambda y, s1, s2, s3: a0(y) * pair12(s1, s2, s3)
                        + np.asarray(s1, float))
    f2 = Rate.of_s(lambda s1, s2, s3: _mm_pair(np.asarray(s2, float),
                                               np.asarray(s3, float),
                                               np.asarray(s1, float)))
    f3 = Rate.of_s(lambda s1, s2, s3: _mm_pair(np.asarray(s1, float),
                                               np.asarray(s3, float),
                                               np.asarray(s2, float))
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

    Parts are joined with ``+``; the langmuir part overrides the exchange
    rate of the volume/surface part. Only langmuir takes parameters from
    text, its ``a`` and ``b``.
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
            exchange = k
        else:
            if result is not None:
                raise UnknownNameError("at most one volume kinetics part allowed")
            result = k
    if result is None:
        result = exchange if exchange is not None else zero_kinetics()
    elif exchange is not None:
        result = result.with_exchange(exchange.h, exchange.l, exchange.lip,
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


def validate(kin):
    """Sampled hypothesis checks; the report carries failures, never raises.

    Each concentration is sampled at 7 points of [-lam, 2 lam], the cell at
    the centres of a 4 x 4 grid; growth ratios must stay within RATIO_CAP.
    """
    lam = kin.lam
    axis = np.linspace(-lam, 2 * lam, 7)
    s1, s2, s3 = (a.ravel() for a in np.meshgrid(axis, axis, axis,
                                                 indexing="ij"))
    ys = np.array([[0.5, 0.5]])
    if kin.y_dependent:
        centres = (np.arange(4) + 0.5) / 4
        gx, gy = np.meshgrid(centres, centres)
        ys = np.column_stack([gx.ravel(), gy.ravel()])
    checks = []

    saxis = np.linspace(-lam, 2 * lam, 101)
    hv = np.asarray(kin.h(saxis), dtype=float)
    bad = (hv < -1e-12) | (hv > kin.l + 1e-12)
    worst = float(np.max(np.maximum(hv - kin.l, -hv)))
    wp = (float(saxis[np.argmax(np.maximum(hv - kin.l, -hv))]),)
    checks.append(CheckResult("exchange_rate_bounds", not bad.any(), worst, wp))

    h0 = float(np.asarray(kin.h(0.0)))
    checks.append(CheckResult("exchange_rate_zero_at_zero",
                              abs(h0) <= 1e-12, abs(h0), (0.0,)))

    dh = np.abs(np.diff(hv)) / np.diff(saxis)
    worst_lip = float(dh.max()) if len(dh) else 0.0
    checks.append(CheckResult(
        "exchange_rate_lipschitz", worst_lip <= kin.lip * (1 + 1e-9),
        worst_lip, None, measured_constant=worst_lip))

    zero = np.zeros(1)
    worst_f0 = 0.0
    point = None
    for i in (1, 2, 3):
        rate = kin.volume_rate(i)
        for y in ys:
            v = float(np.max(np.abs(np.asarray(
                rate(y[None, :], zero, zero, zero)))))
            if v > worst_f0:
                worst_f0, point = v, (i, float(y[0]), float(y[1]))
    checks.append(CheckResult("volume_rate_zero_at_zero",
                              worst_f0 <= 1e-12, worst_f0, point))

    worst_g0 = 0.0
    for y in ys:
        v = float(np.max(np.abs(np.asarray(kin.g3(y[None, :], zero, zero, zero)))))
        worst_g0 = max(worst_g0, v)
    checks.append(CheckResult("surface_rate_zero_at_zero",
                              worst_g0 <= 1e-12, worst_g0))

    total = np.abs(s1) + np.abs(s2) + np.abs(s3)
    nz = total > 0
    y_mid = ys[len(ys) // 2]

    for label, rates in (("volume_rate_linear_growth", (kin.f1, kin.f2, kin.f3)),
                         ("surface_rate_linear_growth", (kin.g3,))):
        worst_ratio = 0.0
        point = None
        for rate in rates:
            v = np.abs(np.asarray(rate(y_mid[None, :], s1, s2, s3), dtype=float))
            r = v[nz] / total[nz]
            k = int(np.argmax(r))
            if r[k] > worst_ratio:
                worst_ratio = float(r[k])
                idx = np.nonzero(nz)[0][k]
                point = (float(s1[idx]), float(s2[idx]), float(s3[idx]))
        checks.append(CheckResult(label, worst_ratio <= RATIO_CAP,
                                  worst_ratio, point,
                                  measured_constant=worst_ratio))

    neg = np.minimum
    s1n, s2n, s3n = neg(s1, 0.0), neg(s2, 0.0), neg(s3, 0.0)
    denom = s1n ** 2 + s2n ** 2 + s3n ** 2
    lhs = (np.asarray(kin.f1(y_mid[None, :], s1, s2, s3), float) * s1n
           + np.asarray(kin.f2(y_mid[None, :], s1, s2, s3), float) * s2n
           + np.asarray(kin.f3(y_mid[None, :], s1, s2, s3), float) * s3n)
    mask = denom > 0
    ratios = lhs[mask] / denom[mask]
    viol_zero = lhs[~mask] > 1e-12
    worst_ratio = float(ratios.max()) if mask.any() else 0.0
    k = int(np.argmax(ratios)) if mask.any() else 0
    idx = np.nonzero(mask)[0][k] if mask.any() else 0
    checks.append(CheckResult(
        "negative_orthant_sign_volume",
        (worst_ratio <= RATIO_CAP) and not viol_zero.any(),
        worst_ratio,
        (float(s1[idx]), float(s2[idx]), float(s3[idx])),
        measured_constant=worst_ratio))

    g_lhs = np.asarray(kin.g3(y_mid[None, :], s1, s2, s3), float) * s3n
    g_ratios = g_lhs[mask] / denom[mask]
    g_worst = float(g_ratios.max()) if mask.any() else 0.0
    checks.append(CheckResult(
        "negative_orthant_sign_surface",
        (g_worst <= RATIO_CAP) and not (g_lhs[~mask] > 1e-12).any(),
        g_worst, None, measured_constant=g_worst))

    above = [(s1, kin.f1, "f1"), (s2, kin.f2, "f2"), (s3, kin.f3, "f3")]
    worst_gap = -math.inf
    point = None
    ok = True
    for si, rate, _tag in above:
        mask_i = si >= lam
        if not mask_i.any():
            continue
        v = np.asarray(rate(y_mid[None, :], s1, s2, s3), float)[mask_i]
        gap = v - kin.growth * si[mask_i]
        k = int(np.argmax(gap))
        if gap[k] > worst_gap:
            worst_gap = float(gap[k])
            idx = np.nonzero(mask_i)[0][k]
            point = (float(s1[idx]), float(s2[idx]), float(s3[idx]))
        ok = ok and gap.max() <= 1e-9
    checks.append(CheckResult("large_value_growth_volume", ok,
                              worst_gap if worst_gap > -math.inf else 0.0,
                              point))

    mask3 = s3 >= lam
    if mask3.any():
        v = np.asarray(kin.g3(y_mid[None, :], s1, s2, s3), float)[mask3]
        gap = v - kin.growth * s3[mask3]
        checks.append(CheckResult("large_value_growth_surface",
                                  float(gap.max()) <= 1e-9, float(gap.max())))
    else:
        checks.append(CheckResult("large_value_growth_surface", True, 0.0))

    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# cell averages
# ---------------------------------------------------------------------------

def _require_ctx(rate, ctx):
    if rate.y_dependent and ctx is None:
        raise MeshRequiredError("y-dependent kinetics need a cell mesh")


def cell_average_rate(rate, s, ctx=None):
    """Volume average of rate(., s) over the perforated cell.

    For y-independent rates this is the pointwise value; separable rates use
    the cached mean of their y factor; general rates fall back to centroid
    quadrature.
    """
    s1, s2, s3 = s
    _require_ctx(rate, ctx)
    if not rate.y_dependent:
        return rate(None, s1, s2, s3)
    if rate.a0 is not None:
        return mean_a0(rate, ctx) * rate.s_part(s1, s2, s3)
    mesh = ctx.mesh
    vals = rate(mesh.centroids, np.asarray(s1)[..., None],
                np.asarray(s2)[..., None], np.asarray(s3)[..., None])
    return np.einsum("...m,m->...", np.asarray(vals), mesh.areas) / ctx.area


def cell_average_f(kin, i, s, ctx=None):
    """Volume average of the i-th volume rate (i in {1,2,3})."""
    return cell_average_rate(kin.volume_rate(i), s, ctx)


def surface_average_g3(kin, s, ctx=None):
    """Boundary average of the surface rate over the inclusion boundary."""
    rate = kin.g3
    s1, s2, s3 = s
    _require_ctx(rate, ctx)
    if not rate.y_dependent:
        return rate(None, s1, s2, s3)
    mesh = ctx.mesh
    edges = mesh.edges_with(EdgeMarker.GAMMA)
    if len(edges) == 0:
        raise MeshRequiredError("cell mesh has no inclusion boundary")
    p0 = mesh.nodes[edges[:, 0]]
    p1 = mesh.nodes[edges[:, 1]]
    mids = 0.5 * (p0 + p1)
    lengths = np.hypot(*(p1 - p0).T)
    if rate.a0 is not None:
        mean = float(np.asarray(rate.a0(mids)) @ lengths) / lengths.sum()
        return mean * rate.s_part(s1, s2, s3)
    vals = rate(mids, np.asarray(s1)[..., None],
                np.asarray(s2)[..., None], np.asarray(s3)[..., None])
    return np.einsum("...m,m->...", np.asarray(vals), lengths) / lengths.sum()


def mean_a0(rate, ctx):
    mesh = ctx.mesh
    vals = np.asarray(rate.a0(mesh.centroids), dtype=float)
    return float(vals @ mesh.areas) / ctx.area
