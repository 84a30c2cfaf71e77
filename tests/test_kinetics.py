import dataclasses
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from porodiff import kinetics as kin
from porodiff.errors import UnknownNameError


class TestBuiltins:
    def test_langmuir_spot_value(self):
        k = kin.parse_kinetics("langmuir_exchange:a=1,b=1")
        assert abs(k.h(2.0) - 2.0 / 3.0) < 1e-15
        assert k.l == 1.0
        assert k.lip == 1.0

    def test_mm_triple_spot_value(self):
        k = kin.parse_kinetics("mm_triple")
        assert abs(k.f1(1.0, 1.0, 1.0) - 0.125) < 1e-15

    def test_zero(self):
        k = kin.parse_kinetics("zero")
        s = np.linspace(-2, 2, 5)
        assert np.abs(k.f1(s, s, s)).max() == 0.0
        assert np.abs(k.h(s)).max() == 0.0

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            kin.parse_kinetics("nope")
        with pytest.raises(UnknownNameError):
            kin.parse_kinetics("mm_triple+mm_mixed")
        for text in ("langmuir:a=1,b=1+langmuir:a=3,b=1",
                     "mm_triple+langmuir:a=1,b=1+langmuir:a=3,b=1"):
            with pytest.raises(UnknownNameError, match="one langmuir"):
                kin.parse_kinetics(text)

    @pytest.mark.parametrize("name,params", [
        ("mm_triple", {"a0": 1.0}), ("mm_mixed", {"a": 1.0}),
        ("zero", {"b": 1.0}), ("langmuir", {"c": 1.0})])
    def test_only_langmuir_takes_parameters(self, name, params):
        text = name + ":" + ",".join(f"{k}={v}" for k, v in params.items())
        with pytest.raises(UnknownNameError, match="unknown parameter"):
            kin.parse_kinetics(text)

    @pytest.mark.parametrize("name", ["zero", "mm_triple", "mm_mixed"])
    def test_builtins_validate(self, name):
        assert kin.validate(kin.parse_kinetics(name))["passed"]

    def test_langmuir_validates(self):
        assert kin.validate(kin.parse_kinetics("langmuir:a=2,b=0.5"))["passed"]

    def test_compose(self):
        k = kin.parse_kinetics("mm_triple+langmuir:a=2,b=1")
        assert abs(k.h(1.0) - 1.0) < 1e-15
        assert abs(k.f1(1.0, 1.0, 1.0) - 0.125) < 1e-15
        assert k.l == 2.0


def _check(report, name):
    """The check called ``name`` of a ``validate`` report."""
    (check,) = [c for c in report["checks"] if c["name"] == name]
    return check


class TestValidationFixtures:
    def test_unbounded_exchange_fails_with_witness(self):
        bad = dataclasses.replace(kin.zero_kinetics(),
                                  h=lambda s: np.asarray(s, float))
        report = kin.validate(bad)
        check = _check(report, "exchange_rate_bounds")
        assert not check["passed"]
        assert check["worst_point"] is not None
        assert not report["passed"]

    def test_exchange_not_zero_at_zero(self):
        bad = dataclasses.replace(kin.zero_kinetics(),
                                  h=lambda s: np.asarray(s, float) * 0 + 0.5)
        assert not _check(kin.validate(bad),
                          "exchange_rate_zero_at_zero")["passed"]

    def test_sign_condition_violation(self):
        bad = dataclasses.replace(
            kin.zero_kinetics(),
            f1=lambda s1, s2, s3: -200.0 * np.asarray(s2, float))
        check = _check(kin.validate(bad), "negative_orthant_sign_volume")
        assert not check["passed"]
        assert check["measured_constant"] > 100.0
        assert check["worst_point"] is not None

    def test_volume_rate_nonzero_at_origin(self):
        bad = dataclasses.replace(
            kin.zero_kinetics(),
            f2=lambda s1, s2, s3: np.ones_like(np.asarray(s1, float)))
        assert not _check(kin.validate(bad),
                          "volume_rate_zero_at_zero")["passed"]


def _zero_with(**fields):
    """zero kinetics with the given fields replaced."""
    return dataclasses.replace(kin.zero_kinetics(), **fields)


# every builtin, the composed string, and one case that fails each check,
# with its witness point
VALIDATE_CASES = {
    "zero": lambda: kin.parse_kinetics("zero"),
    "mm_triple": lambda: kin.parse_kinetics("mm_triple"),
    "mm_mixed": lambda: kin.parse_kinetics("mm_mixed"),
    "langmuir": lambda: kin.parse_kinetics("langmuir"),
    "langmuir:a=2,b=0.5": lambda: kin.parse_kinetics("langmuir:a=2,b=0.5"),
    "mm_mixed+langmuir:a=1,b=1":
        lambda: kin.parse_kinetics("mm_mixed+langmuir:a=1,b=1"),
    "fail_exchange_rate_bounds":
        lambda: dataclasses.replace(kin.parse_kinetics("langmuir"), l=0.25),
    "fail_exchange_rate_zero_at_zero":
        lambda: _zero_with(h=lambda s: 0.5 + 0.0 * np.asarray(s, float)),
    "fail_exchange_rate_lipschitz":
        lambda: dataclasses.replace(kin.parse_kinetics("langmuir"), lip=0.5),
    "fail_volume_rate_zero_at_zero": lambda: _zero_with(
        f2=lambda s1, s2, s3: 0.1 + np.asarray(s1, float)),
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

# validate(k) of every case, recorded before the checks shared one
# worst-sample helper
VALIDATE_REFERENCE = pathlib.Path(__file__).with_name("validate_reference.json")


@pytest.mark.parametrize("case", sorted(VALIDATE_CASES))
def test_validate_report_pinned(case):
    got = kin.validate(VALIDATE_CASES[case]())
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
        check = _check(kin.validate(k), "exchange_rate_bounds")
        assert not check["passed"]
        assert np.isnan(check["worst_value"])
        # the witness is the first NaN sample of [-1, 2]
        assert check["worst_point"] == pytest.approx([1.01])

    def test_nan_volume_sample_fails_linear_growth(self):
        k = dataclasses.replace(
            kin.zero_kinetics(),
            f2=lambda s1, s2, s3: np.where(np.asarray(s2) < 0, np.nan, 0.0))
        report = kin.validate(k)
        assert not _check(report, "volume_rate_linear_growth")["passed"]
        assert _check(report, "volume_rate_zero_at_zero")["passed"]
        assert not report["passed"]


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
    def test_y_independent_is_pointwise(self):
        k = kin.parse_kinetics("mm_triple")
        assert abs(kin.cell_average_f(k, 1, (1.0, 1.0, 1.0)) - 0.125) < 1e-15

    def test_zero_average(self):
        k = kin.parse_kinetics("zero")
        assert kin.cell_average_f(k, 2, (1.0, 2.0, 3.0)) == 0.0
        assert k.g3(1.0, 2.0, 3.0) == 0.0


def test_builtin_names_case_insensitive():
    assert kin.parse_kinetics("MM_TRIPLE").f1 is kin.parse_kinetics("mm_triple").f1
    assert abs(kin.parse_kinetics("LANGMUIR_EXCHANGE:a=1,b=1").h(2.0)
               - 2 / 3) < 1e-15
