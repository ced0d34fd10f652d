"""Region-decomposed deviation bounds: oracles, identities, inverses."""
import math
from dataclasses import fields

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import xlog1py

from cfbounds.censored import (
    MassSpec,
    RegionPartition,
    _region_terms,
    bound_three_region,
    bound_two_region,
    bound_two_region_apriori,
    censored_term,
    check_prop1,
    check_prop2,
    eta_for_confidence,
    partition,
    region_weights,
)
from cfbounds.classic import BoundValue, dkw_bound, dkw_eta
from cfbounds.rng import SeededRng
from cfbounds.stats import GaussianCdf

mpmath.mp.dps = 50


# exploration frequencies outside [0, 1], as scalars and as one bad element of an array
BAD_EPSILONS = [-0.1, 1.5, math.nan, np.array([0.0, 0.5, 1.5]), np.array([0.5, math.nan])]


def mp_term(count, eff, denom, lead=2):
    return float(lead * mpmath.exp(-2 * count * mpmath.mpf(eff) ** 2 / mpmath.mpf(denom) ** 2))


def disclosed_term(part, mass, eta):
    """The two-region bound's disclosed term: the kernel's last region."""
    value, trivial = _region_terms((part.m, part.n - part.m + part.k), (mass.alpha,),
                                   (part.m / part.n, (part.n - part.m) / part.n), eta, 2.0)[-1]
    return BoundValue(float(value), trivial=bool(trivial))


class TestPartition:
    def test_reference_scenario_no_exploration(self):
        pop = GaussianCdf(7, 1)
        scores = pop.inverse(SeededRng(2).substream(0).generator().random(50))
        part = partition(scores, 7.0)
        assert (part.n, part.m, part.k) == (50, 24, 0)

    def test_reference_scenario_with_exploration(self):
        pop = GaussianCdf(7, 1)
        scores = pop.inverse(SeededRng(1).substream(0).generator().random(50))
        part = partition(scores, 7.0, 6.0)
        assert part == RegionPartition(n=50, m=27, l=7)

    def test_theta_below_all_scores(self):
        part = partition([5.0, 6.0], 1.0)
        assert part == RegionPartition(n=2, m=0)

    def test_one_disclosed_count_in_both_modes(self):
        # k counts the new disclosed samples of two- and three-region
        # partitions alike, and the three-region bound reads it
        assert [f.name for f in fields(RegionPartition)] == ["n", "m", "l", "k", "k1"]
        mass = MassSpec.theoretical(0.5, 0.1)
        idle, busy = (bound_three_region(RegionPartition(n=50, m=25, l=5, k=k), mass, 0.0,
                                         0.2).raw for k in (0, 10_000))
        assert busy < idle

    def test_at_threshold_counts_as_disclosed(self):
        part = partition([7.0, 6.9], 7.0)
        assert part.m == 1

    @pytest.mark.parametrize("lb", [5.0, 5.5])
    def test_lb_ordering_enforced(self, lb):
        with pytest.raises(ValueError, match="lb < theta"):
            partition([4.0, 6.0], 5.0, lb)

    @pytest.mark.parametrize("theta, lb", [(math.nan, None), (math.inf, None),
                                           (-math.inf, None), (math.nan, 0.0),
                                           (math.inf, 0.0), (0.0, -math.inf),
                                           (0.0, math.nan), (0.0, math.inf)])
    def test_non_finite_region_rejected(self, theta, lb):
        with pytest.raises(ValueError, match="finite"):
            partition([1.0, 2.0], theta, lb)

    def test_counts_invariants(self):
        with pytest.raises(ValueError):
            RegionPartition(n=10, m=4, l=5)
        with pytest.raises(ValueError):
            RegionPartition(n=10, m=11)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_rejected(self, bad):
        # NaN used to be counted as disclosed, and -inf as censored
        for lb in (None, 0.0):
            with pytest.raises(ValueError, match="finite"):
                partition([bad, 1.0, 0.2], 0.5, lb)

    @pytest.mark.parametrize("counts", [dict(k=1.5), dict(n=50.5), dict(m=True),
                                        dict(k=math.nan), dict(k=math.inf),
                                        dict(k1=np.array([0, 2, 2.5]), l=3),
                                        dict(k=np.array([True, False]))])
    def test_non_integral_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="whole numbers"):
            RegionPartition(**{"n": 50, "m": 24, **counts})

    def test_integral_counts_of_any_type_accepted(self):
        part = RegionPartition(n=np.int32(50), m=24.0, k=np.array([0, 3], dtype=np.uint8))
        assert bound_two_region(part, MassSpec.theoretical(0.5), 0.3).raw.shape == (2,)


class TestCensoredTerm:
    def test_empty_region_zero_mass(self):
        part = RegionPartition(n=50, m=0)
        value = censored_term(part, MassSpec.theoretical(0.0), 0.1)
        assert value.raw == 0.0 and not value.trivial

    def test_formula_against_oracle(self):
        part = RegionPartition(n=50, m=24)
        got = censored_term(part, MassSpec.theoretical(0.5), 0.3)
        want = mp_term(24, 0.3 - 0.02, 0.48)
        assert got.raw == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_exact_boundary_is_trivial(self):
        part = RegionPartition(n=50, m=24)
        value = censored_term(part, MassSpec.theoretical(0.5), 0.02)
        assert value.trivial and value.probability == 1.0

    def test_empty_region_positive_mass(self):
        part = RegionPartition(n=50, m=0)
        assert censored_term(part, MassSpec.theoretical(0.05), 0.1).raw == 0.0
        big = censored_term(part, MassSpec.theoretical(0.4), 0.1)
        assert big.trivial and big.probability == 1.0

    @pytest.mark.parametrize("part", [RegionPartition(n=50, m=25, l=10, k1=5),
                                      RegionPartition(n=50, m=25, l=10),
                                      RegionPartition(n=50, m=25, k1=5)])
    def test_three_region_partition_rejected(self, part):
        # the term reads only n and m, so l and k1 would be dropped unseen
        with pytest.raises(ValueError, match="two-region"):
            censored_term(part, MassSpec.theoretical(0.5, 0.2), 0.3)

    def test_plugin_mass_zeroes_shift(self):
        part = RegionPartition(n=50, m=24)
        got = censored_term(part, MassSpec.theoretical(part.m / part.n), 0.3)
        assert got.raw == pytest.approx(mp_term(24, 0.3, 0.48), rel=1e-12, abs=0.0)


class TestDisclosedTerm:
    def test_zero_shift_reduction(self):
        part = RegionPartition(n=50, m=25, k=10)
        got = disclosed_term(part, MassSpec.theoretical(0.5), 0.3)
        assert got.raw == pytest.approx(mp_term(35, 0.3, 0.5), rel=1e-12, abs=0.0)

    def test_formula_against_oracle(self):
        part = RegionPartition(n=50, m=24, k=0)
        got = disclosed_term(part, MassSpec.theoretical(0.5), 0.3)
        want = mp_term(26, 0.3 - 0.04, 0.5)
        assert got.raw == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_monotone_in_k(self):
        part = lambda k: RegionPartition(n=50, m=24, k=k)
        mass = MassSpec.theoretical(0.5)
        vals = [disclosed_term(part(k), mass, 0.3).raw for k in (0, 10, 100, 10_000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_double_shift_trivial(self):
        part = RegionPartition(n=50, m=24)
        value = disclosed_term(part, MassSpec.theoretical(0.5), 0.04)
        assert value.trivial


class TestTwoRegionBound:
    def test_dkw_recovery(self):
        part = RegionPartition(n=50, m=0, k=10)
        got = bound_two_region(part, MassSpec.theoretical(0.0), 0.1)
        assert got.raw == dkw_bound(60, 0.1).raw

    def test_sum_of_terms(self):
        part = RegionPartition(n=50, m=24)
        mass = MassSpec.theoretical(0.5)
        total = bound_two_region(part, mass, 0.3)
        assert total.raw == pytest.approx(
            censored_term(part, mass, 0.3).raw + disclosed_term(part, mass, 0.3).raw,
            rel=1e-15)

    def test_trivial_dominates(self):
        part = RegionPartition(n=50, m=24)
        value = bound_two_region(part, MassSpec.theoretical(0.5), 0.035)
        assert value.trivial and value.probability == 1.0

    def test_three_region_mode_rejected(self):
        part = RegionPartition(n=50, m=24, l=3)
        with pytest.raises(ValueError):
            bound_two_region(part, MassSpec.theoretical(0.5, 0.1), 0.3)


class TestAprioriBound:
    def test_wait_zero_equals_realized_zero(self):
        part = RegionPartition(n=50, m=24)
        mass = MassSpec.theoretical(0.5)
        assert bound_two_region_apriori(part, mass, 0.35, 0).raw == pytest.approx(
            bound_two_region(part, mass, 0.35).raw, rel=1e-15)

    def test_matches_exact_enumeration(self):
        # oracle: direct arbitrary-precision sum over all binomial outcomes
        n, m, alpha, eta, wait = 50, 24, 0.5, 0.35, 10
        part = RegionPartition(n=n, m=m)
        got = bound_two_region_apriori(part, MassSpec.theoretical(alpha), eta, wait)
        u = abs(alpha - m / n)
        denom = min(1 - alpha, (n - m) / n)
        total = mpmath.mpf(0)
        for k in range(wait + 1):
            pmf = mpmath.binomial(wait, k) * mpmath.mpf(1 - alpha) ** k * mpmath.mpf(alpha) ** (wait - k)
            total += pmf * 2 * mpmath.exp(-2 * (n - m + k) * mpmath.mpf(eta - 2 * u) ** 2 / mpmath.mpf(denom) ** 2)
        want = mp_term(m, eta - u, min(alpha, m / n)) + float(total)
        assert got.raw == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("wait", [37, 40_000])
    def test_trivial_disclosed_term_is_kept_exactly(self, wait):
        # eta below the doubled shift: the disclosed term is trivial for
        # every outcome, so its expectation is exactly 1 at any wait
        part = RegionPartition(n=50, m=24)
        got = bound_two_region_apriori(part, MassSpec.theoretical(0.5), 0.03, wait)
        censored = censored_term(part, MassSpec.theoretical(0.5), 0.03).raw
        assert got.trivial
        assert got.raw == censored + 1.0

    def test_outcomes_of_small_probability_count(self):
        # the outcomes with few disclosed arrivals are unlikely (each below
        # 1e-15) but carry the largest disclosed terms, which make up most
        # of the expectation
        n, m, alpha, eta, wait = 294, 63, 0.2947151855895082, 0.6420067581902654, 357
        got = bound_two_region_apriori(RegionPartition(n=n, m=m), MassSpec.theoretical(alpha),
                                       eta, wait)
        want, trivial = mp_apriori(n, m, alpha, eta, wait, 2.0)
        assert want == pytest.approx(3.2991161183300657e-180, rel=1e-12, abs=0.0)
        assert got.raw == pytest.approx(want, rel=1e-12, abs=0.0) and got.trivial == trivial

    def test_large_wait_no_overflow_and_sandwich(self):
        pop = GaussianCdf(7, 3)
        alpha = float(pop.cdf(8.0))
        n = 8000
        m = int(round(n * alpha))
        part = RegionPartition(n=n, m=m)
        mass = MassSpec.theoretical(alpha)
        eta = 0.015
        apriori = bound_two_region_apriori(part, mass, eta, 40_000)
        assert math.isfinite(apriori.raw)
        floor = censored_term(part, mass, eta).raw
        ceil = bound_two_region(part, mass, eta).raw
        assert floor <= apriori.raw <= ceil + 1e-15

    def test_alpha_edge_cases(self):
        part = RegionPartition(n=50, m=0)
        got = bound_two_region_apriori(part, MassSpec.theoretical(0.0), 0.1, 25)
        assert got.raw == pytest.approx(dkw_bound(75, 0.1).raw, rel=1e-12, abs=0.0)


def random_three_region_configs(draw):
    n = draw(st.integers(4, 400))
    m = draw(st.integers(1, n - 1))
    k = draw(st.integers(0, 500))
    alpha = draw(st.floats(0.05, 0.95))
    eta = draw(st.floats(0.01, 0.8))
    eps = draw(st.floats(0.0, 1.0))
    return n, m, k, alpha, eta, eps


class TestThreeRegionBound:
    def test_pure_exploration_kills_first_term(self):
        # beta = 0, l = 0: the still-censored term vanishes exactly and the
        # total equals the exploration + disclosed terms alone
        n, m, k, k1, eps, eta = 50, 24, 5, 5, 0.5, 0.4
        part = RegionPartition(n=n, m=m, l=0, k=k, k1=k1)
        mass = MassSpec.theoretical(0.5, 0.0)
        value = bound_three_region(part, mass, eps, eta)
        s = (n / n) * ((m + k1) / (n + k1 + eps * k))
        w = (n / n) * ((n - m + eps * k) / (n + k1 + eps * k))
        want = (mp_term(m + k1, eta - abs(0.5 - s), min(0.5, s))
                + mp_term(n - m + k, eta - 2 * abs(0.5 - s), min(0.5, w)))
        assert value.raw == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_weights_without_samples_above_lb(self):
        # every initial sample below LB and no arrivals: the upper weights are 0
        part = RegionPartition(n=3, m=3, l=3)
        assert tuple(map(float, region_weights(part, 0.0))) == (1.0, 0.0, 0.0)
        assert bound_three_region(part, MassSpec.theoretical(0.5, 0.2), 0.0, 0.3).raw >= 0.0

    @settings(max_examples=300)
    @given(st.data())
    def test_reduction_to_two_region(self, data):
        n, m, k, alpha, eta, eps = random_three_region_configs(data.draw)
        part3 = RegionPartition(n=n, m=m, l=m, k=k)
        part2 = RegionPartition(n=n, m=m, k=k)
        three = bound_three_region(part3, MassSpec.theoretical(alpha, alpha), eps, eta)
        two = bound_two_region(part2, MassSpec.theoretical(alpha), eta)
        assert three.raw == pytest.approx(two.raw, abs=1e-12)
        assert three.trivial == two.trivial

    def test_formula_against_oracle(self):
        n, m, l, k, k1, eps = 50, 27, 7, 9, 4, 0.5
        alpha, beta, eta = 0.5, 0.16, 0.35
        part = RegionPartition(n=n, m=m, l=l, k=k, k1=k1)
        got = bound_three_region(part, MassSpec.theoretical(alpha, beta), eps, eta)
        u1 = abs(beta - l / n)
        s = ((n - l) / n) * ((m - l + k1) / ((n - l) + k1 + eps * k))
        u2 = abs(alpha - beta - s)
        u3 = abs(alpha - l / n - s)
        w = ((n - l) / n) * ((n - m + eps * k) / ((n - l) + k1 + eps * k))
        want = (mp_term(l, eta - u1, min(beta, l / n))
                + mp_term(m - l + k1, eta - u1 - u2, min(alpha - beta, s))
                + mp_term(n - m + k, eta - 2 * u3, min(1 - alpha, w)))
        assert got.raw == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_nonincreasing_under_coupled_arrival_growth(self):
        # k and k1 must co-vary with the arrival process for the weight
        # re-estimation to stay calibrated; scaling both down the arrival
        # stream shrinks the bound
        alpha, beta, eps = 0.6, 0.3, 1.0
        mass = MassSpec.theoretical(alpha, beta)
        vals = []
        for wait in (0, 100, 1000, 10_000):
            k1 = round(eps * wait * (alpha - beta))
            k = round(wait * (1 - alpha))
            part = RegionPartition(n=100, m=60, l=30, k=k, k1=k1)
            vals.append(bound_three_region(part, mass, eps, 0.3).raw)
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("eps", BAD_EPSILONS)
    def test_epsilon_outside_unit_interval_rejected(self, eps):
        part = RegionPartition(n=50, m=27, l=7, k=9, k1=4)
        with pytest.raises(ValueError, match="epsilon"):
            region_weights(part, eps)
        with pytest.raises(ValueError, match="epsilon"):
            bound_three_region(part, MassSpec.theoretical(0.5, 0.16), eps, 0.35)


def serial_eta(bound, delta):
    """Serial bisection over [0, 1] to a bracket at most 1e-9 wide, one bound
    call per midpoint: the reference that ``eta_for_confidence`` must equal
    for any elementwise bound."""
    reachable = np.asarray(bound(1.0).probability <= delta)
    if reachable.ndim == 0 and not reachable:
        return None
    lo = np.zeros(reachable.shape)[()]
    hi = np.ones(reachable.shape)[()]
    while np.max(hi - lo) > 1e-9:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            break
        ok = bound(mid).probability <= delta
        hi = np.where(ok, mid, hi)[()]
        lo = np.where(ok, lo, mid)[()]
    return float(hi) if reachable.ndim == 0 else np.where(reachable, hi, np.nan)


class TestEtaForConfidence:
    def test_matches_closed_form_inverse(self):
        got = eta_for_confidence(lambda e: dkw_bound(50, e), 0.05)
        assert got == pytest.approx(dkw_eta(50, 0.05), abs=2e-9)

    def test_unreachable_below_floor(self):
        # tiny regions keep the bound floor well above zero at eta = 1
        part = RegionPartition(n=2, m=1)
        mass = MassSpec.theoretical(0.5)
        bound = lambda e: bound_two_region(part, mass, e)
        floor = bound(1.0).probability
        assert floor > 1e-4
        assert eta_for_confidence(bound, floor / 10) is None
        reachable = eta_for_confidence(bound, min(0.9, floor * 10))
        assert reachable is not None

    def test_matches_dense_grid_scan(self):
        part = RegionPartition(n=50, m=27, l=7)
        mass = MassSpec.theoretical(0.5, 0.158655)
        bound = lambda e: bound_three_region(part, mass, 0.5, e)
        delta = 0.015
        got = eta_for_confidence(bound, delta)
        grid = np.linspace(1e-6, 1.0, 2_000_001)
        ok = np.array([bound(e).probability <= delta for e in
                       np.linspace(got - 1e-3, got + 1e-3, 41)])
        # monotone crossing sits inside the bisection tolerance
        crossing_idx = int(np.argmax(ok))
        assert ok[-1]
        lo = got - 1e-3 + crossing_idx * (2e-3 / 40)
        assert abs(lo - got) <= 1e-3 / 20 + 1e-9
        del grid

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            eta_for_confidence(lambda e: dkw_bound(10, e), 0.0)

    @pytest.mark.parametrize("bound", [
        lambda e: dkw_bound(50, e),
        # attained everywhere: the bracket closes in on 0
        lambda e: BoundValue(np.zeros(np.shape(e))[()]),
    ], ids=["dkw", "always-met"])
    def test_thirty_exact_halvings(self, bound):
        # [0, 1] halves exactly, and 2^-30 is the first width at most 1e-9,
        # so the always-met bound ends at 2^-30
        got = eta_for_confidence(bound, 0.05)
        assert got == serial_eta(bound, 0.05)
        assert got % 2.0**-30 == 0.0 and 2.0**-30 <= got < 1.0

    def test_scalar_inversion_makes_five_bound_calls(self):
        part, mass = RegionPartition(n=50, m=24, k=200), MassSpec.theoretical(0.5)
        calls = []

        def bound(e):
            calls.append(np.shape(e))
            return bound_two_region(part, mass, e)

        got = eta_for_confidence(bound, 0.015)
        # 30 steps at 8 per call, after the reachability call
        assert len(calls) == 5
        assert got == serial_eta(lambda e: bound_two_region(part, mass, e), 0.015)
        # the reachability call at hi, then 255 midpoints per round
        assert calls[0] == () and set(calls[1:]) == {(255,)}

    @pytest.mark.parametrize("size", [1, 2, 7, 85, 255, 300])
    def test_large_array_settles_one_level_per_call(self, size):
        # an array of any size: one midpoint per element and call, passed
        # without a leading axis, as serial bisection makes them
        part = RegionPartition(n=50, m=24, k=np.arange(size))
        mass = MassSpec.theoretical(0.5)
        calls = []

        def bound(e):
            calls.append(np.shape(e))
            return bound_two_region(part, mass, e)

        eta_for_confidence(bound, 0.015)
        serial_calls = []
        serial_eta(lambda e: serial_calls.append(1) or bound_two_region(part, mass, e), 0.015)
        assert len(calls) == len(serial_calls) == 31
        assert calls[0] == () and set(calls[1:]) == {(size,)}


class TestProp1:
    def test_fig_sweep_nondecreasing(self):
        pop = GaussianCdf(7, 3)
        thetas = np.linspace(6.0, 9.0, 25)
        report = check_prop1(pop, 8000, thetas, c=10.0, eta=0.015)
        assert report.ok, report.first_violation
        assert report.precondition_met

    def test_single_point_vacuous(self):
        report = check_prop1(GaussianCdf(7, 3), 100, [7.0], c=10.0, eta=0.1)
        assert report.ok

    def test_c_zero_flags_precondition(self):
        pop = GaussianCdf(7, 3)
        thetas = np.linspace(6.0, 9.0, 10)
        report = check_prop1(pop, 8000, thetas, c=0.0, eta=0.015)
        assert not report.precondition_met

    @pytest.mark.parametrize("n, c, eta", [(8000, 10.0, 0.015), (8000, 0.0, 0.015),
                                           (100, 10.0, 0.1), (37, 0.3, 0.4)])
    def test_values_equal_scalar_bound_calls(self, n, c, eta):
        # the sweep's one array call against one scalar call per theta
        pop = GaussianCdf(7, 3)
        thetas = np.concatenate([np.linspace(-5.0, 19.0, 41), [7.0, 7.5, 8.0]])
        values, precondition = [], True
        for theta in thetas:
            alpha = float(pop.cdf(theta))
            m = int(round(n * alpha))
            part = RegionPartition(n=n, m=m, k=int(round(c * (n - m))))
            values.append(bound_two_region(part, MassSpec.theoretical(alpha), eta).raw)
            u = abs(alpha - m / n)
            if m > 0 and eta > 2.0 * u:
                precondition &= c >= (n - m) * (eta - u) ** 2 / (m * (eta - 2.0 * u) ** 2) - 1.0
        report = check_prop1(pop, n, thetas, c=c, eta=eta)
        assert report.values == tuple(values)
        assert report.precondition_met == precondition


class TestProp2:
    def _fig_setting(self):
        pop = GaussianCdf(7, 3)
        alpha = float(pop.cdf(8.0))
        beta = float(pop.cdf(6.0))
        n, wait = 8000, 40_000
        part = RegionPartition(n=n, m=int(round(n * alpha)), l=int(round(n * beta)),
                               k=int(round(wait * (1 - alpha))))
        k1_max = int(round(wait * (alpha - beta)))
        return part, MassSpec.theoretical(alpha, beta), k1_max

    def test_fig_grid_nonincreasing(self):
        part, mass, k1_max = self._fig_setting()
        report = check_prop2(part, mass, 0.015, np.round(np.arange(0, 1.01, 0.1), 3), k1_max)
        assert report.ok, report.first_violation

    def test_k1max_zero_without_arrivals_constant(self):
        # with no admitted arrivals at all epsilon cannot move the bound
        part0, mass, _ = self._fig_setting()
        part = RegionPartition(n=part0.n, m=part0.m, l=part0.l)
        report = check_prop2(part, mass, 0.015, [0.0, 0.5, 1.0], 0)
        assert report.ok
        assert max(report.values) == min(report.values)

    def test_k1_frozen_moves_only_through_thinning(self):
        # freezing k1 while k stays large decalibrates the re-estimated
        # weights as epsilon grows; the sweep surfaces that as a violation
        part, mass, _ = self._fig_setting()
        report = check_prop2(part, mass, 0.015, [0.0, 0.5, 1.0], 0)
        assert not report.ok
        assert report.first_violation is not None

    @pytest.mark.parametrize("eps_grid", BAD_EPSILONS)
    def test_epsilon_outside_unit_interval_rejected(self, eps_grid):
        part, mass, _ = self._fig_setting()
        with pytest.raises(ValueError, match="epsilon"):
            check_prop2(part, mass, 0.015, eps_grid, 0)


@settings(max_examples=60)
@given(st.data())
def test_bounds_nonincreasing_in_eta(data):
    # the clamped probability is globally nonincreasing in eta (trivial
    # regimes plateau at 1); the raw sum is nonincreasing wherever no term
    # crosses its validity edge, since a re-activated exponential restarts
    # at the leading constant rather than at 1
    n = data.draw(st.integers(2, 2000))
    m = data.draw(st.integers(1, n - 1))
    l = data.draw(st.integers(0, m))
    k1 = data.draw(st.integers(0, 200))
    k = data.draw(st.integers(0, 200))
    beta = data.draw(st.floats(0.0, 0.45))
    alpha = data.draw(st.floats(0.5, 0.95))
    eps = data.draw(st.floats(0.0, 1.0))
    eta_lo = data.draw(st.floats(0.01, 0.5))
    eta_hi = data.draw(st.floats(0.5, 0.99))
    two = lambda e: bound_two_region(RegionPartition(n=n, m=m, k=k),
                                     MassSpec.theoretical(alpha), e)
    assert two(eta_hi).probability <= two(eta_lo).probability + 1e-15
    if not two(eta_lo).trivial:
        assert two(eta_hi).raw <= two(eta_lo).raw + 1e-15
    part = RegionPartition(n=n, m=m, l=l, k=k, k1=k1)
    three = lambda e: bound_three_region(part, MassSpec.theoretical(alpha, beta), eps, e)
    assert three(eta_hi).probability <= three(eta_lo).probability + 1e-15
    if not three(eta_lo).trivial:
        assert three(eta_hi).raw <= three(eta_lo).raw + 1e-15


def test_apriori_rejects_realized_k():
    part = RegionPartition(n=50, m=24, k=3)
    with pytest.raises(ValueError, match="k = 0"):
        bound_two_region_apriori(part, MassSpec.theoretical(0.5), 0.3, 5)


@pytest.mark.parametrize("wait", [2.5, True, -1, math.nan, math.inf, np.array([1, 2])])
def test_apriori_rejects_bad_wait(wait):
    # 2.5 used to give a value and True ran as 1
    part = RegionPartition(n=50, m=24)
    with pytest.raises(ValueError, match="wait"):
        bound_two_region_apriori(part, MassSpec.theoretical(0.5), 0.3, wait)


def test_apriori_accepts_integral_wait_of_any_type():
    part, mass = RegionPartition(n=50, m=24), MassSpec.theoretical(0.5)
    want = bound_two_region_apriori(part, mass, 0.3, 5)
    for wait in (np.int64(5), 5.0):
        assert bound_two_region_apriori(part, mass, 0.3, wait) == want


# ---------------------------------------------------------------------------
# The one bound kernel: properties of scalar and array calls
# ---------------------------------------------------------------------------


@st.composite
def region_configs(draw):
    """Partitions, masses and levels that reach every branch of the kernel:
    empty regions (m, l or n - m zero), masses at 0 and at the region
    fractions, and eta both below and above the shift terms."""
    n = draw(st.integers(1, 300))
    m = draw(st.integers(0, n))
    l = draw(st.integers(0, m))
    counts = st.integers(0, 300)
    alpha = draw(st.sampled_from([0.0, m / n, 1.0]) | st.floats(0.0, 1.0))
    beta = draw(st.sampled_from([0.0, l / n, alpha]) | st.floats(0.0, alpha))
    beta = min(beta, alpha)
    return dict(n=n, m=m, l=l, k=draw(counts), k1=draw(counts),
                alpha=alpha, beta=beta, eps=draw(st.floats(0.0, 1.0)),
                eta=draw(st.sampled_from([1.0, 1e-3]) | st.floats(1e-3, 1.0)))


def _two(c, eta=None):
    part = RegionPartition(n=c["n"], m=c["m"], k=c["k"])
    return bound_two_region(part, MassSpec.theoretical(c["alpha"]),
                            c["eta"] if eta is None else eta)


def _three(c, eta=None):
    part = RegionPartition(n=c["n"], m=c["m"], l=c["l"], k=c["k"], k1=c["k1"])
    return bound_three_region(part, MassSpec.theoretical(c["alpha"], c["beta"]), c["eps"],
                              c["eta"] if eta is None else eta)


def _stacked(configs):
    return {key: np.array([c[key] for c in configs]) for key in configs[0]}


@settings(max_examples=80, deadline=None)
@given(st.lists(region_configs(), min_size=1, max_size=8),
       st.integers(0, 40), st.floats(1e-6, 0.5))
def test_array_call_equals_scalar_calls(configs, wait, delta):
    arrays = _stacked(configs)
    for bound in (_two, _three):
        got = bound(arrays)
        want = [bound(c) for c in configs]
        assert all(type(w.raw) is float and type(w.trivial) is bool for w in want)
        assert got.raw.tolist() == [w.raw for w in want]
        assert got.trivial.tolist() == [w.trivial for w in want]
        assert got.probability.tolist() == [w.probability for w in want]

        got_eta = eta_for_confidence(lambda e: bound(arrays, e), delta)
        want_eta = [eta_for_confidence(lambda e: bound(c, e), delta) for c in configs]
        assert [None if np.isnan(e) else e for e in got_eta.tolist()] == want_eta

    def apriori(c):
        part = RegionPartition(n=c["n"], m=c["m"])
        return bound_two_region_apriori(part, MassSpec.theoretical(c["alpha"]),
                                        c["eta"], wait)

    got = apriori(arrays)
    want = [apriori(c) for c in configs]
    assert got.raw.tolist() == [w.raw for w in want]
    assert got.trivial.tolist() == [w.trivial for w in want]


@settings(max_examples=100, deadline=None)
@given(region_configs())
def test_bounds_nonincreasing_in_counts(c):
    # both bounds in k, the three-region one at eps = 0, where k is only
    # the disclosed count (for eps > 0, and for k1, a count also moves the
    # re-estimated weights and with them the shifts)
    grid = np.arange(0, 600, 7)
    two = _two(dict(c, k=grid)).probability
    three = _three(dict(c, k=grid, eps=0.0)).probability
    for values in (two, three):
        assert np.all(np.diff(values) <= 1e-15)


@settings(max_examples=100, deadline=None)
@given(region_configs(), st.floats(1e-6, 0.5))
def test_eta_inverse_attains_delta(c, delta):
    tol = 1e-9
    for bound in (_two, _three):
        eta = eta_for_confidence(lambda e: bound(c, e), delta)
        if eta is None:
            assert bound(c, 1.0).probability > delta
            continue
        assert bound(c, eta).probability <= delta
        if eta > tol:
            assert bound(c, eta - tol).probability > delta


@st.composite
def inversion_cases(draw):
    """An elementwise bound of shape () or of 1 to 300 elements, monotone or
    not, reachable or not per element, and an inversion's delta."""
    size = draw(st.sampled_from([None, 1, 2, 7, 255, 256, 300]) | st.integers(1, 300))
    shape = () if size is None else (size,)
    kind = draw(st.sampled_from(["wavy", "two", "three"]))
    if kind == "wavy":
        # not monotone in eta, and above any delta at hi for some elements
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale, freq, phase = (rng.uniform(0.0, 2.0, shape), rng.uniform(0.0, 50.0, shape),
                              rng.uniform(0.0, 6.3, shape))
        bound = lambda e: BoundValue(scale * (1.0 + np.sin(freq * e + phase)) / 2.0)
    else:
        configs = draw(st.lists(region_configs(), min_size=1, max_size=4))
        c = {key: (v[0] if size is None else np.resize(v, size))
             for key, v in _stacked(configs).items()}
        bound = lambda e: (_two if kind == "two" else _three)(c, e)
    return bound, draw(st.floats(1e-6, 1.0 - 1e-6))


@settings(max_examples=100, deadline=None)
@given(inversion_cases())
def test_eta_inverse_equals_serial_bisection(case):
    bound, delta = case
    got = eta_for_confidence(bound, delta)
    want = serial_eta(bound, delta)
    if want is None or np.ndim(want) == 0:
        assert got == want and type(got) is type(want)
    else:
        assert np.array_equal(got, want, equal_nan=True)


# ---------------------------------------------------------------------------
# The region-term kernel against the hand-written formulas it replaced
# ---------------------------------------------------------------------------


def ref_term(count, mass_th, mass_emp, eta, shift, lead):
    denom = np.minimum(mass_th, mass_emp)
    degenerate = (count <= 0) | (denom <= 0.0)
    eff = eta - shift
    trivial = np.where(degenerate, np.maximum(mass_th, mass_emp) > eta, eff <= 0.0)
    with np.errstate(all="ignore"):
        ratio = eff / denom
        value = lead * np.exp(-2.0 * count * ratio * ratio)
    return np.where(trivial, 1.0, np.where(degenerate, 0.0, value)), trivial


def ref_two_region_terms(n, m, k, alpha, eta, lead):
    frac = m / n
    return (ref_term(m, alpha, frac, eta, abs(alpha - frac), lead),
            ref_term(n - m + k, 1.0 - alpha, (n - m) / n, eta, 2.0 * abs(alpha - frac), lead))


def ref_apriori(n, m, alpha, eta, wait, lead):
    (c, c_trivial), (d, d_trivial) = ref_two_region_terms(n, m, 0, alpha, eta, lead)
    denom = np.minimum(1.0 - alpha, (n - m) / n)
    with np.errstate(all="ignore"):
        ratio = (eta - 2.0 * abs(alpha - m / n)) / denom
        # E[q^k] = (alpha + (1 - alpha) q)^wait for k ~ Binomial(wait, 1 - alpha)
        scale = np.exp(xlog1py(wait, (alpha - 1.0) * -np.expm1(-2.0 * ratio * ratio)))
    return (c + np.where(d_trivial | (denom <= 0.0), d, d * scale),
            c_trivial | d_trivial)


def mp_apriori(n, m, alpha, eta, wait, lead):
    """The expected-wait bound by enumerating every binomial outcome k in
    mpmath: (value, trivial).  Each outcome's disclosed term follows
    ``ref_term``; a populated nontrivial one is re-evaluated in mpmath from
    the float ratio of its reduced tolerance to its mass."""
    (c, c_trivial), _ = ref_two_region_terms(n, m, 0, alpha, eta, lead)
    shift = 2.0 * abs(alpha - m / n)
    denom = min(1.0 - alpha, (n - m) / n)
    total, trivial = mpmath.mpf(float(c)), bool(c_trivial)
    p = 1 - mpmath.mpf(alpha)
    for k in range(wait + 1):
        value, k_trivial = ref_term(n - m + k, 1.0 - alpha, (n - m) / n, eta, shift, lead)
        trivial |= bool(k_trivial)
        value = float(value)
        if not k_trivial and denom > 0.0:
            value = lead * mpmath.exp(-2 * (n - m + k) * mpmath.mpf((eta - shift) / denom) ** 2)
        total += mpmath.binomial(wait, k) * p ** k * (1 - p) ** (wait - k) * value
    return float(total), trivial


def ref_three_region(part, alpha, beta, eps, eta, lead):
    n, m, l, k, k1 = part.n, part.m, part.l, part.k, part.k1
    l_frac, explore_w, disclosed_w = region_weights(part, eps)
    u1 = abs(beta - l_frac)
    u2 = abs(alpha - beta - explore_w)
    u3 = abs(alpha - l_frac - explore_w)
    v1, t1 = ref_term(l, beta, l_frac, eta, u1, lead)
    v2, t2 = ref_term(m - l + k1, alpha - beta, explore_w, eta, u1 + u2, lead)
    v3, t3 = ref_term(n - m + k, 1.0 - alpha, disclosed_w, eta, 2.0 * u3, lead)
    return v1 + v2 + v3, t1 | t2 | t3


def assert_same(got, raw, trivial):
    assert np.array_equal(got.raw, raw) and np.array_equal(got.trivial, trivial)


@settings(max_examples=200, deadline=None)
@given(st.lists(region_configs(), min_size=1, max_size=6), st.booleans(),
       st.sampled_from([2.0, 4.0]), st.integers(0, 40), st.data())
def test_kernel_equals_hand_written_formulas(configs, as_array, lead, wait, data):
    # epsilon at its ends, m = n and empty regions are drawn often; the
    # bounds must equal the pre-kernel formulas exactly, value and flag
    for c in configs:
        c["eps"] = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        if data.draw(st.booleans()):
            c["m"] = c["n"]
    c = _stacked(configs) if as_array else configs[0]
    n, m, alpha, eta = c["n"], c["m"], c["alpha"], c["eta"]
    part2 = RegionPartition(n=n, m=m, k=c["k"])
    mass2 = MassSpec.theoretical(alpha)
    (cv, ct), (dv, dt) = ref_two_region_terms(n, m, c["k"], alpha, eta, lead)
    assert_same(censored_term(part2, mass2, eta, lead), cv, ct)
    assert_same(bound_two_region(part2, mass2, eta, lead), cv + dv, ct | dt)
    assert_same(bound_two_region_apriori(RegionPartition(n=n, m=m), mass2, eta, wait, lead),
                *ref_apriori(n, m, alpha, eta, wait, lead))
    beta = c["beta"]
    part3 = RegionPartition(n=n, m=m, l=c["l"], k=c["k"], k1=c["k1"])
    assert_same(bound_three_region(part3, MassSpec.theoretical(alpha, beta), c["eps"], eta,
                                   lead),
                *ref_three_region(part3, alpha, beta, c["eps"], eta, lead))


@settings(max_examples=200, deadline=None)
@given(region_configs(), st.integers(0, 40), st.sampled_from([2.0, 4.0]))
@example(dict(n=178, m=59, alpha=0.25640922100347385, eta=0.976506381299942), 40, 2.0)
def test_apriori_equals_binomial_enumeration(c, wait, lead):
    # a result below the smallest normal float holds no relative precision
    n, m, alpha, eta = c["n"], c["m"], c["alpha"], c["eta"]
    got = bound_two_region_apriori(RegionPartition(n=n, m=m), MassSpec.theoretical(alpha),
                                   eta, wait, lead)
    want, trivial = mp_apriori(n, m, alpha, eta, wait, lead)
    assert got.raw == pytest.approx(want, rel=1e-12, abs=np.finfo(float).tiny)
    assert got.trivial == trivial
