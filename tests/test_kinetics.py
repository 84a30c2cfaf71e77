import dataclasses
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from porodiff import cell, geometry as geo, kinetics as kin
from porodiff.errors import MeshRequiredError, UnknownNameError


class TestBuiltins:
    def test_langmuir_spot_value(self):
        k = kin.builtin("langmuir_exchange", a=1, b=1)
        assert abs(k.h(2.0) - 2.0 / 3.0) < 1e-15
        assert k.l == 1.0
        assert k.lip == 1.0

    def test_mm_triple_spot_value(self):
        k = kin.builtin("mm_triple")
        assert abs(k.f1(None, 1.0, 1.0, 1.0) - 0.125) < 1e-15

    def test_zero(self):
        k = kin.builtin("zero")
        s = np.linspace(-2, 2, 5)
        assert np.abs(k.f1(None, s, s, s)).max() == 0.0
        assert np.abs(k.h(s)).max() == 0.0

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            kin.builtin("nope")
        with pytest.raises(UnknownNameError):
            kin.parse_kinetics("mm_triple+mm_mixed")
        for text in ("langmuir:a=1,b=1+langmuir:a=3,b=1",
                     "mm_triple+langmuir:a=1,b=1+langmuir:a=3,b=1"):
            with pytest.raises(UnknownNameError, match="one langmuir"):
                kin.parse_kinetics(text)

    @pytest.mark.parametrize("name", ["zero", "mm_triple", "mm_mixed"])
    def test_builtins_validate(self, name):
        assert kin.validate(kin.builtin(name)).passed

    def test_langmuir_validates(self):
        assert kin.validate(kin.builtin("langmuir", a=2, b=0.5)).passed

    def test_compose(self):
        k = kin.parse_kinetics("mm_triple+langmuir:a=2,b=1")
        assert abs(k.h(1.0) - 1.0) < 1e-15
        assert abs(k.f1(None, 1.0, 1.0, 1.0) - 0.125) < 1e-15
        assert k.l == 2.0


class TestValidationFixtures:
    def test_unbounded_exchange_fails_with_witness(self):
        bad = dataclasses.replace(kin.zero_kinetics(),
                                  h=lambda s: np.asarray(s, float))
        report = kin.validate(bad)
        check = report["exchange_rate_bounds"]
        assert not check.passed
        assert check.worst_point is not None
        assert not report.passed

    def test_exchange_not_zero_at_zero(self):
        bad = dataclasses.replace(kin.zero_kinetics(),
                                  h=lambda s: np.asarray(s, float) * 0 + 0.5)
        assert not kin.validate(bad)["exchange_rate_zero_at_zero"].passed

    def test_sign_condition_violation(self):
        bad = dataclasses.replace(
            kin.zero_kinetics(),
            f1=kin.Rate.of_s(lambda s1, s2, s3: -200.0 * np.asarray(s2, float)))
        report = kin.validate(bad)
        check = report["negative_orthant_sign_volume"]
        assert not check.passed
        assert check.measured_constant > 100.0
        assert check.worst_point is not None

    def test_volume_rate_nonzero_at_origin(self):
        bad = dataclasses.replace(
            kin.zero_kinetics(),
            f2=kin.Rate.of_s(lambda s1, s2, s3: np.ones_like(
                np.asarray(s1, float))))
        assert not kin.validate(bad)["volume_rate_zero_at_zero"].passed


def _a0(y):
    y = np.atleast_2d(y)
    return 1.0 + 0.5 * np.cos(2 * np.pi * y[:, 0]) * np.sin(2 * np.pi * y[:, 1])


def _zero_with(**rates):
    """zero kinetics with the given fields replaced; rates map (s1, s2, s3)."""
    return dataclasses.replace(kin.zero_kinetics(), **{
        k: kin.Rate.of_s(v) if k in ("f1", "f2", "f3", "g3") else v
        for k, v in rates.items()})


# every builtin, the composed string, the a0 variants, and one case that
# fails each check, with its witness point
VALIDATE_CASES = {
    "zero": lambda: kin.builtin("zero"),
    "mm_triple": lambda: kin.builtin("mm_triple"),
    "mm_mixed": lambda: kin.builtin("mm_mixed"),
    "langmuir": lambda: kin.builtin("langmuir"),
    "langmuir:a=2,b=0.5": lambda: kin.parse_kinetics("langmuir:a=2,b=0.5"),
    "mm_mixed+langmuir:a=1,b=1":
        lambda: kin.parse_kinetics("mm_mixed+langmuir:a=1,b=1"),
    "mm_triple_a0": lambda: kin.mm_triple_kinetics(a0=_a0),
    "mm_mixed_a0": lambda: kin.mm_mixed_kinetics(a0=_a0),
    "fail_exchange_rate_bounds":
        lambda: dataclasses.replace(kin.builtin("langmuir"), l=0.25),
    "fail_exchange_rate_zero_at_zero":
        lambda: _zero_with(h=lambda s: 0.5 + 0.0 * np.asarray(s, float)),
    "fail_exchange_rate_lipschitz":
        lambda: dataclasses.replace(kin.builtin("langmuir"), lip=0.5),
    "fail_volume_rate_zero_at_zero": lambda: dataclasses.replace(
        kin.zero_kinetics(), f2=kin.Rate.of_ys(
            lambda y, s1, s2, s3: 0.1 * _a0(y) + np.asarray(s1, float))),
    "fail_surface_rate_zero_at_zero": lambda: _zero_with(
        g3=lambda s1, s2, s3: 0.2 + np.asarray(s3, float)),
    "fail_volume_rate_linear_growth": lambda: _zero_with(
        f1=lambda s1, s2, s3: 1000.0 * np.asarray(s1, float) ** 2),
    "fail_surface_rate_linear_growth": lambda: _zero_with(
        g3=lambda s1, s2, s3: 1000.0 * np.asarray(s3, float) ** 2),
    "fail_negative_orthant_sign_volume": lambda: _zero_with(
        f1=lambda s1, s2, s3: -200.0 * np.asarray(s2, float)),
    "fail_negative_orthant_sign_surface": lambda: _zero_with(
        g3=lambda s1, s2, s3: -200.0 * np.asarray(s1, float)),
    "fail_large_value_growth_volume": lambda: _zero_with(
        f3=lambda s1, s2, s3: 3.0 * np.asarray(s3, float)),
    "fail_large_value_growth_surface": lambda: _zero_with(
        g3=lambda s1, s2, s3: 3.0 * np.asarray(s3, float)),
}

# validate(k).as_dict() of every case, recorded before the checks shared
# one worst-sample helper
VALIDATE_REFERENCE = pathlib.Path(__file__).with_name("validate_reference.json")


@pytest.mark.parametrize("case", sorted(VALIDATE_CASES))
def test_validate_report_pinned(case):
    got = kin.validate(VALIDATE_CASES[case]()).as_dict()
    want = json.loads(VALIDATE_REFERENCE.read_text())[case]
    assert got == want
    # == takes -0.0 for 0.0; the serialized report tells them apart
    assert json.dumps(got) == json.dumps(want)
    if case.startswith("fail_"):
        failed = [c["name"] for c in got["checks"] if not c["passed"]]
        assert case[len("fail_"):] in failed


class TestNonFinite:
    @pytest.mark.parametrize("a,b", [(np.nan, 1.0), (np.inf, 1.0),
                                     (1.0, np.nan), (1.0, np.inf)])
    def test_langmuir_parameters_finite(self, a, b):
        with pytest.raises(UnknownNameError, match="finite"):
            kin.langmuir(a, b)

    def test_nan_exchange_sample_fails_bounds(self):
        k = dataclasses.replace(
            kin.zero_kinetics(),
            h=lambda s: np.where(np.asarray(s, float) > 1.0, np.nan, 0.0))
        check = kin.validate(k)["exchange_rate_bounds"]
        assert not check.passed
        assert np.isnan(check.worst_value)
        # the witness is the first NaN sample of [-1, 2]
        assert check.worst_point == pytest.approx((1.01,))

    def test_nan_volume_sample_fails_linear_growth(self):
        k = dataclasses.replace(kin.zero_kinetics(), f2=kin.Rate.of_s(
            lambda s1, s2, s3: np.where(np.asarray(s2) < 0, np.nan, 0.0)))
        report = kin.validate(k)
        assert not report["volume_rate_linear_growth"].passed
        assert report["volume_rate_zero_at_zero"].passed
        assert not report.passed


class TestLangmuirShape:
    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(min_value=0.1, max_value=5.0),
           b=st.floats(min_value=0.1, max_value=5.0),
           s=st.floats(min_value=-10.0, max_value=50.0),
           t=st.floats(min_value=-10.0, max_value=50.0))
    def test_bounds_and_lipschitz(self, a, b, s, t):
        h, l, lip = kin.langmuir(a, b)
        assert -1e-15 <= h(s) <= l + 1e-12
        assert abs(h(s) - h(t)) <= (lip + 1e-9) * abs(s - t) + 1e-15

    def test_monotone_concave(self):
        h, _, _ = kin.langmuir(1.0, 1.0)
        s = np.linspace(0.0, 10.0, 200)
        vals = h(s)
        d = np.diff(vals)
        assert np.all(d >= -1e-15)
        assert np.all(np.diff(d) <= 1e-12)


class TestAverages:
    def test_y_independent_is_pointwise(self, coarse_ctx):
        k = kin.builtin("mm_triple")
        v = kin.cell_average_f(k, 1, (1.0, 1.0, 1.0), coarse_ctx)
        assert abs(v - 0.125) < 1e-15
        assert abs(kin.cell_average_f(k, 1, (1.0, 1.0, 1.0)) - 0.125) < 1e-15

    def test_zero_average(self, coarse_ctx):
        k = kin.builtin("zero")
        assert kin.cell_average_f(k, 2, (1.0, 2.0, 3.0), coarse_ctx) == 0.0
        assert kin.surface_average_g3(k, (1.0, 2.0, 3.0), coarse_ctx) == 0.0

    def test_separable_against_fine_quadrature(self, cell_ctx):
        a0 = lambda y: 1.0 + 0.5 * np.cos(2 * np.pi * np.atleast_2d(y)[:, 0])
        k = kin.mm_triple_kinetics(a0=a0)
        v = kin.cell_average_f(k, 1, (1.0, 1.0, 1.0), cell_ctx)
        nq = 1500
        xs = (np.arange(nq) + 0.5) / nq
        gx, gy = np.meshgrid(xs, xs)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        outside = (pts[:, 0] - 0.5) ** 2 + (pts[:, 1] - 0.5) ** 2 > 0.25 ** 2
        oracle = a0(pts[outside]).mean() * 0.125
        assert abs(v - oracle) < 5e-4

    def test_general_path_matches_separable(self, coarse_ctx):
        a0 = lambda y: 1.0 + 0.5 * np.cos(2 * np.pi * np.atleast_2d(y)[:, 0])
        sep = kin.mm_triple_kinetics(a0=a0)
        gen = dataclasses.replace(
            sep, f1=kin.Rate.of_ys(
                lambda y, s1, s2, s3: a0(y) * kin._mm_triple(s1, s2, s3)))
        v1 = kin.cell_average_f(sep, 1, (1.0, 1.0, 1.0), coarse_ctx)
        v2 = kin.cell_average_f(gen, 1, (1.0, 1.0, 1.0), coarse_ctx)
        assert abs(v1 - v2) < 1e-14

    def test_mesh_required(self):
        a0 = lambda y: np.atleast_2d(y)[:, 0]
        k = kin.mm_triple_kinetics(a0=a0)
        with pytest.raises(MeshRequiredError):
            kin.cell_average_f(k, 1, (1.0, 1.0, 1.0), None)

    def test_linearity_and_homogeneity(self, coarse_ctx):
        a0 = lambda y: 1.0 + 0.5 * np.cos(2 * np.pi * np.atleast_2d(y)[:, 0])
        base = kin.Rate.separable(a0, kin._mm_triple)
        doubled = kin.Rate.separable(lambda y: 2.0 * a0(y), kin._mm_triple)
        s = (0.7, 1.3, 2.1)
        v1 = kin.cell_average_rate(base, s, coarse_ctx)
        v2 = kin.cell_average_rate(doubled, s, coarse_ctx)
        assert abs(v2 - 2.0 * v1) < 1e-14

    def test_surface_average_separable(self, cell_ctx):
        a0 = lambda y: 2.0 + np.atleast_2d(y)[:, 1]
        g3 = kin.Rate.separable(a0, lambda s1, s2, s3: np.asarray(s3, float))
        k = dataclasses.replace(kin.zero_kinetics(), g3=g3)
        v = kin.surface_average_g3(k, (0.0, 0.0, 1.0), cell_ctx)
        # boundary average of 2 + y over the centered circle is 2.5
        assert abs(v - 2.5) < 1e-3


def test_builtin_names_case_insensitive():
    assert kin.builtin("MM_TRIPLE").name == "mm_triple"
    assert abs(kin.builtin("LANGMUIR_EXCHANGE", a=1, b=1).h(2.0) - 2 / 3) < 1e-15
