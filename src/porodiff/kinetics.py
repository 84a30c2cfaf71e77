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

from .errors import UnknownNameError


def _zero_rate(s1, s2, s3):
    return np.zeros(np.broadcast(s1, s2, s3).shape)


@dataclass(frozen=True)
class KineticsSet:
    """Volume rates f1..f3, surface rate g3, exchange rate h, and constants.

    Every rate is a function r(s1, s2, s3) of the concentrations alone,
    pure and vectorized over numpy arrays. ``l`` bounds h, ``lip`` bounds
    |h'|, ``lam`` is the invariant-region bound, ``growth`` the linear-growth
    constant for large concentrations. Instances are immutable and safe to
    share.
    """

    f1: object
    f2: object
    f3: object
    g3: object
    h: object
    l: float = 1.0
    lip: float = 1.0
    lam: float = 1.0
    growth: float = 1.0


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


def _zero_exchange(s):
    return np.zeros_like(np.asarray(s, float))


def zero_kinetics():
    z = _zero_rate
    return KineticsSet(z, z, z, z, h=_zero_exchange)


def mm_triple_kinetics():
    """All three volume rates share the fully saturating triple-product form."""
    f = _mm_triple
    return KineticsSet(f, f, f, _zero_rate, h=_zero_exchange)


def mm_mixed_kinetics():
    """Mixed saturating volume rates plus the saturating surface rate."""
    f1 = lambda s1, s2, s3: _mm_pair(s1, s2, s3) + np.asarray(s1, float)
    f2 = lambda s1, s2, s3: _mm_pair(s2, s3, s1)
    f3 = lambda s1, s2, s3: _mm_pair(s1, s3, s2) + np.asarray(s3, float)
    return KineticsSet(f1, f2, f3, _g3_saturating, h=_zero_exchange,
                       growth=2.0)


_VOLUME = {"zero": zero_kinetics, "mm_triple": mm_triple_kinetics,
           "mm_mixed": mm_mixed_kinetics}


def parse_kinetics(text):
    """Parse kinetics such as ``mm_triple+langmuir:a=1,b=1``.

    Parts are joined with ``+``: at most one builtin (ZERO, MM_TRIPLE or
    MM_MIXED) and at most one LANGMUIR or LANGMUIR_EXCHANGE part, whose
    exchange rate replaces the builtin's. Names are case-insensitive; only
    langmuir takes parameters, its ``a`` and ``b`` (default 1), each at most
    once.
    """
    parts = [p.strip() for p in text.split("+") if p.strip()]
    if not parts:
        raise UnknownNameError("empty kinetics specification")
    result = None
    exchange = None
    for part in parts:
        name, _, argtext = part.partition(":")
        key = name.strip().lower()
        is_langmuir = key in ("langmuir", "langmuir_exchange")
        params = {}
        if argtext:
            for item in argtext.split(","):
                k, _, v = item.partition("=")
                if not _:
                    raise UnknownNameError(f"malformed kinetics parameter {item!r}")
                k = k.strip()
                if k in params:
                    raise UnknownNameError(
                        f"parameter {k!r} of kinetics {name!r} given twice")
                params[k] = float(v)
        for k in params:
            if not (is_langmuir and k in ("a", "b")):
                raise UnknownNameError(
                    f"unknown parameter {k!r} of kinetics {name!r}")
        if is_langmuir:
            rate = langmuir(params.get("a", 1.0), params.get("b", 1.0))
            if exchange is not None:
                raise UnknownNameError("at most one langmuir exchange part allowed")
            exchange = rate
        elif key in _VOLUME:
            if result is not None:
                raise UnknownNameError("at most one volume kinetics part allowed")
            result = _VOLUME[key]()
        else:
            raise UnknownNameError(f"unknown builtin kinetics {name!r}")
    if result is None:
        result = zero_kinetics()
    if exchange is not None:
        h, l, lip = exchange
        result = replace(result, h=h, l=l, lip=lip)
    return result


# ---------------------------------------------------------------------------
# hypothesis validation (sampled)
# ---------------------------------------------------------------------------

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

    The report is ``{"passed", "checks"}``; each check is a JSON-ready dict
    ``{"name", "passed", "worst_value", "worst_point", "measured_constant"}``.

    Each concentration is sampled at 7 points of [-lam, 2 lam]; growth
    ratios must stay within RATIO_CAP. A check fails when its worst sample
    exceeds its bound or is NaN.
    """
    lam = kin.lam
    axis = np.linspace(-lam, 2 * lam, 7)
    s1, s2, s3 = (a.ravel() for a in np.meshgrid(axis, axis, axis,
                                                 indexing="ij"))
    grid = np.column_stack([s1, s2, s3])
    checks = []

    def check(name, bound, values, points=None, floor=-math.inf,
              constant=False, also=True):
        """Record a check on the worst of ``values``; ``points`` holds the
        witness point of each sample, ``also`` a further pass condition."""
        worst, k = _worst(np.concatenate([np.ravel(v) for v in values]),
                          floor)
        point = (None if points is None or k is None
                 else [float(v) for v in points[k]])
        checks.append({"name": name, "passed": bool(worst <= bound and also),
                       "worst_value": worst, "worst_point": point,
                       "measured_constant": worst if constant else None})

    saxis = np.linspace(-lam, 2 * lam, 101)
    hv = np.asarray(kin.h(saxis), dtype=float)
    check("exchange_rate_bounds", 1e-12, [np.maximum(hv - kin.l, -hv)],
          saxis[:, None])
    check("exchange_rate_zero_at_zero", 1e-12,
          [abs(float(np.asarray(kin.h(0.0))))], [(0.0,)])
    check("exchange_rate_lipschitz", kin.lip * (1 + 1e-9),
          [np.abs(np.diff(hv)) / np.diff(saxis)], constant=True)

    zero = np.zeros(1)

    def at_origin(rate):
        return np.max(np.abs(np.asarray(rate(zero, zero, zero))))

    volume = (kin.f1, kin.f2, kin.f3)
    check("volume_rate_zero_at_zero", 1e-12,
          [[at_origin(r) for r in volume]], [(i,) for i in (1, 2, 3)],
          floor=0.0)
    check("surface_rate_zero_at_zero", 1e-12, [[at_origin(kin.g3)]],
          floor=0.0)

    f1, f2, f3, g3 = (np.asarray(r(s1, s2, s3), dtype=float)
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
    return {"passed": all(c["passed"] for c in checks), "checks": checks}


def cell_average_f(kin, i, s):
    """Cell average of the i-th volume rate (i in {1,2,3}) at the
    concentrations ``s``: a rate of the concentrations alone is its own
    average."""
    return (kin.f1, kin.f2, kin.f3)[i - 1](*s)
