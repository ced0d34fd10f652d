"""Threshold risk, threshold training, and the assembled bound."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr

from cfbounds.generalization import (
    gen_bound_from_counts,
    optimal_threshold,
    sort_labeled,
    thresholds_from_sorted,
    threshold_risk,
    train_thresholds,
)
from cfbounds.classic import dkw_eta
from cfbounds.rng import SeededRng
from cfbounds.stats import GaussianCdf, MixtureModel


def _model(p1=0.5):
    return MixtureModel(p1=p1, cdf0=GaussianCdf(9, 1), cdf1=GaussianCdf(10, 1))


def _expected_risk(theta, model):
    return threshold_risk(model.p0, model.p1, model.cdf0.cdf(theta), model.cdf1.cdf(theta))


def _empirical_risk(x0, x1, theta):
    """``threshold_risk`` at theta from the initial label proportions and
    each label's count strictly below theta."""
    n0, n1 = len(x0), len(x1)
    n = n0 + n1
    return threshold_risk(n0 / n, n1 / n, np.sum(np.asarray(x0) < theta) / n0,
                          np.sum(np.asarray(x1) < theta) / n1)


def _error_rate(x0, x1, theta):
    """The brute-force confusion tally: label-1 scores below theta and
    label-0 scores at or above it, over all scores."""
    x0, x1 = np.asarray(x0, dtype=float), np.asarray(x1, dtype=float)
    return (np.sum(x1 < theta) + np.sum(x0 >= theta)) / (len(x0) + len(x1))


def _fit(x0, x1):
    return optimal_threshold(*sort_labeled(np.asarray(x0, dtype=float),
                                           np.asarray(x1, dtype=float)))


class TestExpectedRisk:
    def test_low_threshold_limit(self):
        model = _model(p1=0.3)
        assert _expected_risk(-1e9, model) == pytest.approx(model.p0, abs=1e-12)

    def test_high_threshold_limit(self):
        model = _model(p1=0.3)
        assert _expected_risk(1e9, model) == pytest.approx(model.p1, abs=1e-12)

    def test_symmetric_midpoint(self):
        # oracle: risk at the midpoint of two symmetric unit Gaussians
        model = _model(p1=0.5)
        want = 0.5 * ndtr(9.5 - 10) + 0.5 * (1 - ndtr(9.5 - 9))
        assert _expected_risk(9.5, model) == pytest.approx(want, abs=1e-14)
        assert _expected_risk(9.5, model) == pytest.approx(
            ndtr(-0.5), abs=1e-12)

    def test_bounded_by_extreme_priors(self):
        model = _model(p1=0.3)
        risks = _expected_risk(np.linspace(4, 15, 111), model)
        assert np.all((0 <= risks) & (risks <= 1))
        assert risks[0] == pytest.approx(model.p0, abs=1e-6)
        assert risks[-1] == pytest.approx(model.p1, abs=1e-6)

    def test_elementwise_equals_scalar_calls(self):
        gen = SeededRng(5).generator()
        w1, f0, f1 = gen.random(3), gen.random(3), gen.random(3)
        risks = threshold_risk(1.0 - w1, w1, f0, f1)
        for i in range(3):
            assert risks[i] == threshold_risk(1.0 - w1[i], w1[i], f0[i], f1[i])


class TestEmpiricalRisk:
    def test_perfect_separation(self):
        assert _empirical_risk([1.0, 2.0], [5.0, 6.0], 3.0) == 0.0

    def test_total_misclassification(self):
        assert _empirical_risk([11.0], [1.0, 2.0], 10.0) == 1.0

    def test_at_threshold_admitted(self):
        # a label-1 score at the threshold is admitted, hence correct
        assert _empirical_risk([5.0], [7.0], 7.0) == pytest.approx(0.0)
        # a label-0 score at the threshold is admitted, hence an error
        assert _empirical_risk([7.0], [9.0], 7.0) == pytest.approx(0.5)

    def test_matches_confusion_tally(self):
        # oracle: brute-force confusion counting on seeded mixed samples
        scores, labels = [], []
        gen = SeededRng(77).generator()
        model = _model()
        u = gen.random(20)
        v = gen.random(20)
        for i in range(20):
            label = int(u[i] < 0.5)
            cdf = model.cdf1 if label else model.cdf0
            scores.append(float(cdf.inverse(v[i])))
            labels.append(label)
        scores = np.asarray(scores)
        labels = np.asarray(labels)
        x0, x1 = scores[labels == 0], scores[labels == 1]
        for theta in (8.5, 9.5, 10.5):
            errors = np.sum((labels == 1) & (scores < theta)) + \
                np.sum((labels == 0) & (scores >= theta))
            assert _empirical_risk(x0, x1, theta) == pytest.approx(errors / 20)

    def test_piecewise_constant(self):
        x0, x1 = [1.0, 3.0], [2.0, 4.0]
        assert _empirical_risk(x0, x1, 2.3) == _empirical_risk(x0, x1, 2.9)
        assert _empirical_risk(x0, x1, 1.5) != _empirical_risk(x0, x1, 2.5)


class TestOptimalThreshold:
    def test_single_label1_sample(self):
        assert _fit(np.empty(0), [5.0]) == -np.inf

    def test_two_separable_points(self):
        assert _fit([0.0], [1.0]) == pytest.approx(0.5)

    def test_matches_dense_grid_oracle(self):
        # oracle: empirical risk minimized over a dense threshold grid
        model = _model()
        gen = SeededRng(123).generator()
        u = gen.random(100)
        x0 = np.asarray(model.cdf0.inverse(u[:50]))
        x1 = np.asarray(model.cdf1.inverse(u[50:]))
        theta = _fit(x0, x1)
        got = _error_rate(x0, x1, theta)
        grid = np.linspace(6, 13, 200_001)
        best = min(_error_rate(x0, x1, t) for t in grid[::400])
        dense = np.asarray([_error_rate(x0, x1, t)
                            for t in np.linspace(theta - 0.5, theta + 0.5, 2001)])
        assert got <= best + 1e-12
        assert got <= dense.min() + 1e-12

    def test_risk_at_candidates_never_better(self):
        gen = SeededRng(9).generator()
        scores = gen.random(12) * 4
        labels = (gen.random(12) < 0.5).astype(int)
        x0, x1 = scores[labels == 0], scores[labels == 1]
        base = _error_rate(x0, x1, _fit(x0, x1))
        candidates = np.concatenate([[-np.inf, np.inf],
                                     (np.sort(scores)[1:] + np.sort(scores)[:-1]) / 2])
        for cand in candidates:
            assert base <= _error_rate(x0, x1, cand) + 1e-12

    def test_tie_breaks_toward_smallest(self):
        # both sides of the lone boundary give equal risk; prefer smaller
        assert _fit([2.0], [1.0]) == -np.inf

    def test_batched_rows_match_candidate_scan(self):
        # oracle: scan -inf, every midpoint of adjacent distinct scores and
        # +inf in ascending order and keep the first minimum error count;
        # integer scores make ties within and across labels common
        gen = SeededRng(17).generator()
        x0 = np.floor(gen.random((40, 7)) * 6)
        x1 = np.floor(gen.random((40, 5)) * 6 + 1)
        theta, risk = train_thresholds(x0, x1)
        for r in range(len(x0)):
            distinct = np.unique(np.concatenate([x0[r], x1[r]]))
            candidates = [-np.inf, *(0.5 * (distinct[:-1] + distinct[1:])), np.inf]
            errors = [np.sum(x1[r] < t) + np.sum(x0[r] >= t) for t in candidates]
            best = int(np.argmin(errors))
            assert theta[r] == candidates[best]
            assert risk[r] == errors[best] / 12
            assert _fit(x0[r], x1[r]) == theta[r]

    @pytest.mark.parametrize("seed", range(10))
    def test_merged_pool_equals_train_thresholds(self, seed):
        # a pool grown by merging sorted batches, as the simulator's refit
        # keeps it, and the same pool in a random order among tied scores
        # give == thresholds and risks to sorting the concatenation; grid
        # scores make ties within and across labels common, and one-label
        # parts give thresholds of -inf and +inf
        rng = np.random.default_rng(seed)
        for _ in range(40):
            parts = [rng.integers(0, 9, rng.integers(0, 12)) / 4 for _ in range(6)]
            if not sum(map(len, parts[:2])):
                parts[0] = np.array([1.0])
            x0, x1 = np.concatenate(parts[0::2]), np.concatenate(parts[1::2])
            pool, pool1 = sort_labeled(parts[0], parts[1])
            for new0, new1 in (parts[2:4], parts[4:6]):
                new, flags = sort_labeled(new0, new1)
                at = np.searchsorted(pool, new, side="right")
                pool, pool1 = np.insert(pool, at, new), np.insert(pool1, at, flags)
            shuffled = np.lexsort((rng.random(len(pool)), pool))
            want = train_thresholds(x0[None, :], x1[None, :])
            for xs, is1 in ((pool, pool1), (pool[shuffled], pool1[shuffled])):
                theta, risk = thresholds_from_sorted(xs[None, :], is1[None, :])
                assert theta[0] == want[0][0] and risk[0] == want[1][0]
                assert optimal_threshold(xs, is1) == want[0][0]


class TestGenBound:
    def test_prior_term_zero_when_balanced(self):
        gb = gen_bound_from_counts(50, 50, 0.5, {0: 0.1, 1: 0.2}, 0.05)
        assert gb.prior_term == 0.0
        assert gb.total == pytest.approx(0.5 * 0.1 + 0.5 * 0.2)
        assert gb.confidence == pytest.approx(0.9)

    def test_dkw_specialization_closed_form(self):
        # per-label deviation levels sqrt(log(2/delta) / (2 n_y)) reproduce
        # the closed-form assembled bound
        n0, n1, delta, p1 = 60, 40, 0.05, 0.5
        sup = {0: dkw_eta(n0, delta), 1: dkw_eta(n1, delta)}
        gb = gen_bound_from_counts(n0, n1, p1, sup, delta)
        n = n0 + n1
        want = 3 * abs(0.5 - n0 / n) \
            + min(0.5, n0 / n) * math.sqrt(math.log(2 / delta) / (2 * n0)) \
            + min(0.5, n1 / n) * math.sqrt(math.log(2 / delta) / (2 * n1))
        assert gb.total == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_unbalanced_prior_term(self):
        gb = gen_bound_from_counts(2, 1, 0.5, {0: 0.1, 1: 0.1}, 0.1)
        assert gb.prior_term == pytest.approx(3 * abs(0.5 - 2 / 3))

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_monotone_in_sup_bounds(self, a0, a1, b0, b1):
        lo = {0: min(a0, b0), 1: min(a1, b1)}
        hi = {0: max(a0, b0), 1: max(a1, b1)}
        g_lo = gen_bound_from_counts(30, 70, 0.4, lo, 0.05)
        g_hi = gen_bound_from_counts(30, 70, 0.4, hi, 0.05)
        assert g_lo.total <= g_hi.total + 1e-15

    def test_array_bounds_equal_scalar_calls(self):
        gen = SeededRng(4).generator()
        sup0, sup1 = gen.random(50), gen.random(50)
        gb = gen_bound_from_counts(30, 70, 0.4, {0: sup0, 1: sup1}, 0.05)
        for i in range(50):
            one = gen_bound_from_counts(30, 70, 0.4, {0: sup0[i], 1: sup1[i]}, 0.05)
            assert gb.total[i] == one.total
            assert (gb.contributions[0][i], gb.contributions[1][i]) == one.contributions
        with pytest.raises(ValueError):
            gen_bound_from_counts(30, 70, 0.4, {0: sup0, 1: sup1 - 0.5}, 0.05)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                gen_bound_from_counts(30, 70, 0.4, {0: np.where(sup0 < 0.5, bad, sup0),
                                                    1: sup1}, 0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_bound_from_counts(10, 10, 1.5, {0: 0.1, 1: 0.1}, 0.05)
        with pytest.raises(ValueError):
            gen_bound_from_counts(10, 10, 0.5, {0: 0.1, 1: 0.1}, 0.6)
