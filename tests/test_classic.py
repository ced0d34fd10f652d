"""Classical IID bound formulas against arbitrary-precision oracles."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbounds.classic import (
    BoundValue,
    dkw_bound,
    dkw_eta,
    gc_bound,
    gc_eta,
    hoeffding_bound,
    hoeffding_eta,
    multivariate_dkw_bound,
    vc_bound,
    vc_eta,
)

mpmath.mp.dps = 50


def mp_dkw(n, eta):
    return float(2 * mpmath.exp(-2 * n * mpmath.mpf(eta) ** 2))


def mp_gc(n, eta, d=1):
    return float(8 * mpmath.mpf(n + 1) ** d * mpmath.exp(-n * mpmath.mpf(eta) ** 2 / 32))


class TestDkw:
    def test_closed_form(self):
        assert dkw_bound(100, 0.1).raw == pytest.approx(2 * math.exp(-2), rel=1e-14)

    def test_large_eta_limit(self):
        assert dkw_bound(100, 50.0).raw == 0.0

    def test_against_mpmath(self):
        for n, eta in [(50, 0.015), (8000, 0.015), (7, 0.9), (123456, 0.004)]:
            assert dkw_bound(n, eta).raw == pytest.approx(mp_dkw(n, eta), rel=1e-12)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            dkw_bound(0, 0.1)
        with pytest.raises(ValueError):
            dkw_bound(10, 0.0)

    def test_eta_closed_form(self):
        assert dkw_eta(50, 0.05) == pytest.approx(math.sqrt(math.log(40) / 100), rel=1e-14)

    def test_eta_at_two(self):
        assert dkw_eta(10, 2.0) == 0.0

    @given(st.integers(1, 10**6), st.floats(1e-6, 1.999))
    def test_round_trip(self, n, delta):
        eta = dkw_eta(n, delta)
        if eta > 0:
            assert dkw_bound(n, eta).raw == pytest.approx(delta, abs=1e-12, rel=1e-9)


class TestGcVc:
    def test_gc_requires_positive_n(self):
        with pytest.raises(ValueError):
            gc_bound(0, 0.5)

    def test_gc_arithmetic(self):
        assert gc_bound(32, 1.0).raw == pytest.approx(8 * 33 * math.exp(-1.0), rel=1e-13)

    def test_gc_against_mpmath(self):
        for n, eta in [(50_000, 0.05), (100, 0.3), (10**7, 0.01)]:
            assert gc_bound(n, eta).raw == pytest.approx(mp_gc(n, eta), rel=1e-11)

    def test_vc_d1_equals_gc(self):
        for n, eta in [(10, 0.5), (1000, 0.1)]:
            assert vc_bound(n, eta, 1).raw == pytest.approx(gc_bound(n, eta).raw, rel=1e-14)

    def test_vc_against_log_space_oracle(self):
        assert vc_bound(50, 0.3, 2).raw == pytest.approx(mp_gc(50, 0.3, 2), rel=1e-12)

    def test_vc_overflow_safe(self):
        # (n+1)^d would overflow naive evaluation well before this
        v = vc_bound(50_000, 1e-6, 40)
        assert math.isfinite(v.raw)
        assert v.probability == 1.0

    def test_vc_dimension_validation(self):
        with pytest.raises(ValueError):
            vc_bound(10, 0.1, 0)

    def test_benchmarks_flagged_approximate(self):
        assert gc_bound(10, 0.1).approximate
        assert vc_bound(10, 0.1, 2).approximate
        assert hoeffding_bound(10, 0.1).approximate
        assert not dkw_bound(10, 0.1).approximate

    def test_inverses_round_trip(self):
        for n, delta in [(100, 0.05), (50_000, 0.1)]:
            assert gc_bound(n, gc_eta(n, delta)).raw == pytest.approx(delta, rel=1e-10)
            assert vc_bound(n, vc_eta(n, delta, 2), 2).raw == pytest.approx(delta, rel=1e-10)


class TestHoeffding:
    @given(st.integers(1, 10**6), st.floats(1e-6, 5.0))
    def test_equals_dkw_numerically(self, n, eta):
        assert hoeffding_bound(n, eta).raw == dkw_bound(n, eta).raw

    def test_value(self):
        assert hoeffding_bound(100, 0.1).raw == pytest.approx(0.2707, abs=1e-4)

    def test_eta_alias(self):
        assert hoeffding_eta(50, 0.05) == dkw_eta(50, 0.05)


class TestMultivariateDkw:
    def test_dim1_reduces_to_dkw(self):
        for n, eta in [(10, 0.2), (500, 0.05)]:
            assert multivariate_dkw_bound(n, eta, 1).raw == pytest.approx(
                dkw_bound(n, eta).raw, rel=1e-14)

    def test_dim2_arithmetic(self):
        assert multivariate_dkw_bound(100, 0.1, 2).raw == pytest.approx(
            4 * math.exp(-2), rel=1e-13)

    @given(st.integers(1, 1000), st.floats(0.01, 1.0), st.integers(1, 10))
    def test_linear_in_dim(self, n, eta, dim):
        one = multivariate_dkw_bound(n, eta, 1).raw
        assert multivariate_dkw_bound(n, eta, dim).raw == pytest.approx(
            dim * one, rel=1e-12)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            multivariate_dkw_bound(10, 0.1, 0)


class TestBoundValue:
    def test_probability_clamped(self):
        assert BoundValue(3.5).probability == 1.0
        assert BoundValue(0.25).probability == 0.25

    def test_trivial_forces_one(self):
        assert BoundValue(0.1, trivial=True).probability == 1.0

    def test_negative_raw_rejected(self):
        with pytest.raises(ValueError):
            BoundValue(-0.1)


@settings(max_examples=40)
@given(st.integers(1, 10**5), st.floats(0.01, 0.5), st.floats(0.01, 0.5))
def test_strictly_decreasing_in_eta(n, eta_a, eta_b):
    lo, hi = sorted((eta_a, eta_b))
    if hi - lo < 1e-9:
        return
    for fn in (dkw_bound, gc_bound, lambda n, e: vc_bound(n, e, 2), hoeffding_bound,
               lambda n, e: multivariate_dkw_bound(n, e, 3)):
        assert fn(n, hi).raw <= fn(n, lo).raw


@settings(max_examples=40)
@given(st.integers(1, 10**5), st.integers(1, 10**5), st.floats(0.01, 1.0))
def test_dkw_nonincreasing_in_n(n_a, n_b, eta):
    lo, hi = sorted((n_a, n_b))
    assert dkw_bound(hi, eta).raw <= dkw_bound(lo, eta).raw + 1e-15
    assert hoeffding_bound(hi, eta).raw <= hoeffding_bound(lo, eta).raw + 1e-15


@settings(max_examples=40)
@given(st.integers(1, 10**5), st.integers(1, 10**5), st.floats(0.05, 1.0))
def test_prefactor_bounds_nonincreasing_in_n_as_probabilities(n_a, n_b, eta):
    # the (n+1)^d prefactor makes the raw value grow at small n, but the
    # clamped probability is still nonincreasing in the sample count
    lo, hi = sorted((n_a, n_b))
    assert gc_bound(hi, eta).probability <= gc_bound(lo, eta).probability + 1e-15
    assert vc_bound(hi, eta, 2).probability <= vc_bound(lo, eta, 2).probability + 1e-15


@settings(max_examples=60)
@given(st.integers(1, 10**6), st.integers(1, 4),
       st.lists(st.floats(1e-6, 30.0) | st.sampled_from([1e-6, 0.015, 1.0]),
                min_size=1, max_size=20))
def test_array_eta_equals_scalar_calls(n, d, etas):
    # one np.exp serves scalar and array eta, so the values agree to the bit
    for fn in (dkw_bound, gc_bound, hoeffding_bound, lambda n, e: vc_bound(n, e, d),
               lambda n, e: multivariate_dkw_bound(n, e, d)):
        got = fn(n, np.array(etas))
        want = [fn(n, eta) for eta in etas]
        assert all(type(w.raw) is float and type(w.probability) is float for w in want)
        assert got.raw.tolist() == [w.raw for w in want]
        assert got.probability.tolist() == [w.probability for w in want]
        assert got.approximate == want[0].approximate


@pytest.mark.parametrize("bad", [0.0, -0.1, float("nan"), float("inf")])
def test_array_eta_with_one_bad_element_rejected(bad):
    with pytest.raises(ValueError, match="eta"):
        dkw_bound(10, np.array([0.1, bad, 0.2]))
