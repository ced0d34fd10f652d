"""Distribution, empirical-CDF, and sup-deviation tests."""
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbounds.rng import SeededRng
from cfbounds.stats import (
    EmpiricalCdf,
    GaussianCdf,
    MixtureModel,
    PiecewiseCdf,
    RestrictedCdf,
    StitchedCdf,
    sample_labeled,
    stitched_from_partition,
    sup_deviation,
)

finite_scores = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60)


class TestEmpiricalCdf:
    def test_counting_definition(self):
        ecdf = EmpiricalCdf([1, 2, 3])
        assert ecdf.cdf(2) == pytest.approx(2 / 3)

    def test_single_step(self):
        ecdf = EmpiricalCdf([5])
        assert ecdf.cdf(4.999) == 0.0
        assert ecdf.cdf(5) == 1.0

    def test_ties(self):
        ecdf = EmpiricalCdf([1, 1, 2])
        assert ecdf.cdf(1) == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            EmpiricalCdf([])

    def test_restrict_half_open(self):
        ecdf = EmpiricalCdf([1, 2, 3, 4])
        sub = ecdf.restrict(2, 4)          # [2, 4): keeps 2 and 3
        assert sub.n == 2
        assert sub.cdf(2) == 0.5

    @given(finite_scores)
    def test_monotone_bounded(self, scores):
        ecdf = EmpiricalCdf(scores)
        xs = np.sort(np.concatenate([ecdf.sorted_scores, [-1e9, 0.0, 1e9]]))
        vals = ecdf.cdf(xs)
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals <= 1))
        assert ecdf.cdf(1e19) == 1.0
        assert ecdf.cdf(-1e19) == 0.0


class TestGaussianCdf:
    def test_symmetry(self):
        assert GaussianCdf(7, 1).cdf(7) == pytest.approx(0.5, abs=1e-15)

    def test_high_precision_vs_mpmath(self):
        # independent oracle: mpmath normal CDF at 50 digits
        mpmath.mp.dps = 50
        for x, mu, sd in [(8, 7, 1), (5.5, 7, 3), (-2, 0, 1), (13.1, 7, 3)]:
            want = float(mpmath.ncdf((x - mu) / sd))
            assert abs(GaussianCdf(mu, sd).cdf(x) - want) < 1e-12

    def test_frozen_reference_value(self):
        assert GaussianCdf(7, 1).cdf(8) == pytest.approx(0.8413447460685429, abs=1e-13)

    def test_limits(self):
        assert GaussianCdf(7, 1).cdf(-1e9) == 0.0
        assert GaussianCdf(7, 1).cdf(1e9) == 1.0

    def test_bad_stddev(self):
        with pytest.raises(ValueError):
            GaussianCdf(0, 0)
        with pytest.raises(ValueError):
            GaussianCdf(0, -1)

    @pytest.mark.parametrize("mean, stddev", [(np.nan, 1.0), (np.inf, 1.0),
                                              (0.0, np.inf), (0.0, np.nan)])
    def test_non_finite_parameters_rejected(self, mean, stddev):
        with pytest.raises(ValueError, match="finite"):
            GaussianCdf(mean, stddev)

    def test_inverse_round_trip(self):
        g = GaussianCdf(7, 3)
        ps = np.linspace(0.001, 0.999, 101)
        assert np.allclose(g.cdf(g.inverse(ps)), ps, atol=1e-12)


class TestPiecewiseCdf:
    def test_linear_interpolation(self):
        uniform = PiecewiseCdf(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert uniform.cdf(0.25) == pytest.approx(0.25)
        assert uniform.cdf(-1) == 0.0
        assert uniform.cdf(2) == 1.0

    def test_jump_encoding_right_continuous(self):
        table = PiecewiseCdf(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.5, 1.0]))
        assert table.cdf(0.0) == pytest.approx(0.5)
        assert table.cdf_left(0.0) == pytest.approx(0.0)

    def test_inverse(self):
        uniform = PiecewiseCdf(np.array([2.0, 4.0]), np.array([0.0, 1.0]))
        assert uniform.inverse(0.5) == pytest.approx(3.0)

    FLATS = PiecewiseCdf([6, 8, 9.5, 10, 11, 11, 15], [0, 0.1, 0.4, 0.4, 0.6, 0.85, 1.0])

    def test_inverse_leaves_a_flat_stretch_from_its_right_end(self):
        # F is 0.4 on [9.5, 10], so a level just above 0.4 lies right of 10
        got = self.FLATS.inverse(0.45)
        assert 10.0 < got < 11.0 and self.FLATS.cdf(got) == pytest.approx(0.45)
        assert self.FLATS.inverse(0.4) == 9.5              # inf{x : F(x) >= 0.4}
        jumpy = PiecewiseCdf([5, 8, 8, 9, 11, 11, 14], [0, 0.3, 0.5, 0.5, 0.8, 0.9, 1.0])
        assert jumpy.inverse(0.4) == 8.0                   # inside the jump at 8
        assert 9.0 < jumpy.inverse(0.6) < 11.0

    def test_inverse_is_the_generalized_inverse(self):
        # inverse(p) = inf{x : F(x) >= p}: F reaches p there and not before it
        for table in (self.FLATS, PiecewiseCdf([5, 8, 8, 9, 11, 11, 14],
                                               [0, 0.3, 0.5, 0.5, 0.8, 0.9, 1.0])):
            p = np.concatenate([np.linspace(0.0, 1.0, 2001), table.ps])
            x = table.inverse(p)
            assert np.all(table.cdf(x) >= p - 1e-12)
            assert np.all(table.cdf_left(x) <= p + 1e-12)
            assert np.all(np.diff(x[:2001]) >= 0)

    def test_no_draw_lands_in_a_zero_mass_interval(self):
        x = self.FLATS.inverse(SeededRng(0).generator().random(100_000))
        assert not np.any((x > 9.5) & (x < 10.0))
        assert np.all((x >= 6.0) & (x <= 15.0))

    @pytest.mark.parametrize("xs, ps", [([0.0, np.nan, 2.0], [0.0, 0.5, 1.0]),
                                        ([0.0, 1.0, 2.0], [0.0, np.nan, 1.0]),
                                        ([0.0, 1.0, np.inf], [0.0, 0.5, 1.0])])
    def test_non_finite_table_rejected(self, xs, ps):
        with pytest.raises(ValueError, match="finite"):
            PiecewiseCdf(np.array(xs), np.array(ps))


class TestRestrictedCdf:
    def test_censored_region_identity(self):
        # restriction of F to scores below the threshold equals F(x)/alpha
        base = GaussianCdf(7, 1)
        theta = 7.0
        alpha = float(base.cdf(theta))
        g = RestrictedCdf(base, hi=theta)
        for x in np.linspace(2, 6.999, 50):
            assert abs(g.cdf(x) - base.cdf(x) / alpha) < 1e-12
        assert g.cdf(theta) == pytest.approx(1.0, abs=1e-12)

    def test_disclosed_region_identity(self):
        base = GaussianCdf(7, 1)
        alpha = float(base.cdf(7.0))
        k = RestrictedCdf(base, lo=7.0)
        for x in np.linspace(7.0, 12, 50):
            assert abs(k.cdf(x) - (base.cdf(x) - alpha) / (1 - alpha)) < 1e-12

    def test_zero_mass_region_rejected(self):
        with pytest.raises(ValueError):
            RestrictedCdf(GaussianCdf(0, 1), lo=5, hi=5)

    def test_inverse_stays_in_region(self):
        r = RestrictedCdf(GaussianCdf(7, 1), lo=6, hi=7)
        xs = r.inverse(np.linspace(0.01, 0.99, 25))
        assert np.all((xs >= 6) & (xs <= 7))


class TestSupDeviation:
    def test_identity_is_zero(self):
        ecdf = EmpiricalCdf([1.0, 2.5, 4.0])
        # the eCDF's own jump table: each sample's x twice, stepping up by 1/3
        table = PiecewiseCdf(np.array([1, 1, 2.5, 2.5, 4, 4], dtype=float),
                             np.array([0, 1 / 3, 1 / 3, 2 / 3, 2 / 3, 1]))
        assert sup_deviation(table, ecdf) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_vs_single_point(self):
        uniform = PiecewiseCdf(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        ecdf = EmpiricalCdf([0.5])
        assert sup_deviation(uniform, ecdf) == pytest.approx(0.5, abs=1e-12)

    def test_matches_dense_grid_oracle(self):
        # oracle: brute-force scan of |F - F_n| on a 10^6-point grid
        pop = GaussianCdf(7, 1)
        scores = pop.inverse(SeededRng(13).generator().random(50))
        ecdf = EmpiricalCdf(scores)
        got = sup_deviation(pop, ecdf)
        grid = np.linspace(scores.min() - 1, scores.max() + 1, 1_000_000)
        coarse = np.max(np.abs(np.asarray(pop.cdf(grid)) - np.asarray(ecdf.cdf(grid))))
        assert got >= coarse - 1e-12
        assert got <= coarse + 1e-4   # grid resolution slack on the left limits
        # left limits at the sample points close the remaining gap
        exact = max(
            np.max(np.abs(np.asarray(pop.cdf(scores)) - np.asarray(ecdf.cdf(scores)))),
            np.max(np.abs(np.asarray(pop.cdf(scores)) - np.asarray(ecdf.cdf_left(scores)))),
        )
        assert got == pytest.approx(exact, abs=1e-9)

    def test_region_restriction(self):
        pop = GaussianCdf(7, 1)
        ecdf = EmpiricalCdf([6.0, 6.5, 8.0])
        full = sup_deviation(pop, ecdf)
        left = sup_deviation(pop, ecdf, region=(-np.inf, 7.0))
        right = sup_deviation(pop, ecdf, region=(7.0, np.inf))
        assert max(left, right) == pytest.approx(full, abs=1e-12)

    def test_degenerate_region_rejected(self):
        ecdf = EmpiricalCdf([1.0])
        with pytest.raises(ValueError):
            sup_deviation(GaussianCdf(), ecdf, region=(2.0, 2.0))


class TestStitchedCdf:
    def test_matches_plain_ecdf_without_new_samples(self):
        scores = np.array([5.0, 6.2, 6.8, 7.5, 9.0])
        ecdf = EmpiricalCdf(scores)
        theta = 7.0
        cens = scores[scores < theta]
        disc = scores[scores >= theta]
        stitched = StitchedCdf(
            edges=(theta,),
            weights=(len(cens) / len(scores), len(disc) / len(scores)),
            segments=(EmpiricalCdf(cens), EmpiricalCdf(disc)),
        )
        xs = np.linspace(4, 10, 301)
        assert np.allclose(stitched.cdf(xs), ecdf.cdf(xs), atol=1e-12)
        assert np.allclose(stitched.cdf_left(xs), ecdf.cdf_left(xs), atol=1e-12)

    def test_empty_segment_is_flat(self):
        stitched = StitchedCdf(edges=(0.0,), weights=(0.3, 0.7),
                               segments=(None, EmpiricalCdf(np.array([1.0]))))
        assert stitched.cdf(-5.0) == pytest.approx(0.0)
        assert stitched.cdf(0.5) == pytest.approx(0.3)
        assert stitched.cdf(1.5) == pytest.approx(1.0)

    def test_censored_weight_fixed_as_disclosed_grows(self):
        initial = np.array([5.0, 6.0, 8.0, 9.0])
        stitched = StitchedCdf(
            edges=(7.0,),
            weights=(0.5, 0.5),
            segments=(EmpiricalCdf(initial[initial < 7.0]),
                      EmpiricalCdf(np.concatenate([initial[initial >= 7.0],
                                                   np.full(100, 7.5)]))),
        )
        assert stitched.cdf(6.99) == pytest.approx(0.5)

    def test_clamped_when_weights_sum_above_one(self):
        stitched = StitchedCdf(edges=(0.0,), weights=(0.25, 0.75 + 2.0 ** -52),
                               segments=(EmpiricalCdf(np.array([-1.0])),
                                         EmpiricalCdf(np.array([1.0]))))
        assert stitched.cdf(2.0) == 1.0
        assert np.max(stitched.cdf(np.array([0.5, 1.0, 3.0]))) == 1.0
        assert stitched.cdf_left(1.0) == 0.25

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=40), st.floats(-3.0, 3.0),
           st.one_of(st.none(), st.floats(0.0, 3.0)), st.floats(0.0, 1.0),
           st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30),
           st.lists(st.floats(0.0, 5.0), max_size=80))
    def test_estimate_is_a_cdf(self, initial, theta, width, epsilon, explore, above):
        lb = None if width is None else theta - width
        explore = np.array(explore) * width + lb if lb is not None else np.empty(0)
        explore = explore[explore < theta]
        estimate = stitched_from_partition(np.round(initial, 1), explore,
                                           theta + np.array(above), theta, lb, epsilon)
        pts = np.unique(np.concatenate([estimate.jump_points(), [theta]]))
        xs = np.unique(np.concatenate([pts, (pts[1:] + pts[:-1]) / 2,
                                       [pts[0] - 1.0, pts[-1] + 1.0]]))
        values = np.column_stack([estimate.cdf_left(xs), estimate.cdf(xs)]).ravel()
        assert np.all(np.diff(values) >= 0.0)
        assert values[0] == 0.0 and values.max() <= 1.0
        # the region weights may sum to up to two ulps below 1
        assert values[-1] >= 1.0 - 4 * np.finfo(float).eps

    @pytest.mark.parametrize("epsilon", [-0.1, 1.5, np.nan, np.array([0.5, 1.5])])
    def test_three_region_rejects_epsilon_outside_unit_interval(self, epsilon):
        initial = np.array([-1.0, 0.5, 1.5, 2.5])
        with pytest.raises(ValueError, match="epsilon"):
            stitched_from_partition(initial, np.array([0.7]), np.array([3.0]), 2.0, 0.0,
                                    epsilon)

    @pytest.mark.parametrize("theta, lb", [(np.nan, None), (np.nan, 0.0), (2.0, np.nan)])
    def test_nan_threshold_rejected(self, theta, lb):
        initial = np.array([-1.0, 0.5, 1.5, 2.5])
        with pytest.raises(ValueError, match="NaN"):
            stitched_from_partition(initial, np.empty(0), np.array([3.0]), theta, lb, 0.5)

    @pytest.mark.parametrize("theta", [np.inf, -np.inf])
    def test_infinite_threshold_allowed(self, theta):
        # a trained threshold may be infinite: every sample then lies on one side
        initial = np.array([-1.0, 0.5, 1.5, 2.5])
        estimate = stitched_from_partition(initial, np.empty(0), np.empty(0), theta, None, 0.0)
        assert estimate.cdf(0.5) == 0.5 and estimate.cdf(3.0) == 1.0

    def test_two_region_is_the_pooled_estimator(self):
        gen = SeededRng(8).generator()
        initial, new, theta = gen.normal(0.0, 1.0, 30), 0.2 + gen.random(45), 0.2
        # the two-region formula: weight m/n below theta, the rest over the
        # initial samples at or above it together with the new ones
        cens = initial[initial < theta]
        m = len(cens)
        two = StitchedCdf(edges=(theta,), weights=(m / 30, 1.0 - m / 30),
                          segments=(EmpiricalCdf(cens),
                                    EmpiricalCdf(np.concatenate([initial[initial >= theta], new]))))
        pooled = stitched_from_partition(initial, np.empty(0), new, theta, None, 0.3)
        xs = np.concatenate([initial, new, np.linspace(-4.0, 4.0, 81)])
        assert pooled.edges == two.edges and pooled.weights == two.weights
        assert all(np.array_equal(a.sorted_scores, b.sorted_scores)
                   for a, b in zip(pooled.segments, two.segments))
        assert np.array_equal(pooled.cdf(xs), two.cdf(xs))
        assert np.array_equal(pooled.cdf_left(xs), two.cdf_left(xs))

    def test_fig4_estimate_stays_in_unit_interval(self):
        # seed 101 at eps 0 has region weights summing one ulp above 1
        from cfbounds.presets import fig4_band

        estimate = fig4_band(0.0, seed=101)["estimate"]
        assert estimate.max() == 1.0
        assert estimate.min() >= 0.0


class TestSampling:
    def _model(self):
        return MixtureModel(p1=0.5, cdf0=GaussianCdf(9, 1), cdf1=GaussianCdf(10, 1))

    def test_count_zero(self):
        scores, labels = sample_labeled(self._model(), 0, SeededRng(1))
        assert len(scores) == 0 and len(labels) == 0

    def test_determinism(self):
        a = sample_labeled(self._model(), 100, SeededRng(7, 3))
        b = sample_labeled(self._model(), 100, SeededRng(7, 3))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_label_fraction_binomial(self):
        # 3-sigma binomial band around p1 = 0.5 with 1e5 draws
        _, labels = sample_labeled(self._model(), 100_000, SeededRng(5))
        frac = labels.mean()
        assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / 100_000) + 1e-12

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample_labeled(self._model(), -1, SeededRng(0))

    def test_inverse_cdf_sampling_ks(self):
        # KS statistic of 1e4 inverse-CDF draws under the 1% critical value
        # in at least 98 of 100 seeded trials
        pop = GaussianCdf(7, 1)
        crit = 1.6276 / np.sqrt(10_000)
        passed = 0
        for trial in range(100):
            u = SeededRng(1234, trial).generator().random(10_000)
            ecdf = EmpiricalCdf(pop.inverse(u))
            if sup_deviation(pop, ecdf) < crit:
                passed += 1
        assert passed >= 98


class TestMixtureModel:
    def test_prior_validation(self):
        with pytest.raises(ValueError):
            MixtureModel(p1=1.0, cdf0=GaussianCdf(), cdf1=GaussianCdf())


@settings(max_examples=25)
@given(st.integers(10, 200), st.integers(0, 2**32 - 1))
def test_sup_deviation_matches_grid_on_random_pairs(n, seed):
    pop = GaussianCdf(7, 1)
    scores = pop.inverse(SeededRng(seed).generator().random(n))
    ecdf = EmpiricalCdf(scores)
    got = sup_deviation(pop, ecdf)
    vals = np.asarray(pop.cdf(ecdf.sorted_scores))
    steps_hi = np.arange(1, n + 1) / n
    steps_lo = np.arange(n) / n
    want = max(np.max(np.abs(vals - steps_hi)), np.max(np.abs(vals - steps_lo)))
    assert got == pytest.approx(want, abs=1e-12)


@st.composite
def deviation_cases(draw):
    """A theory CDF (Gaussian, or a table with jumps and flat stretches on a
    grid of 0.5), an empirical CDF on [0, 10] whose samples may tie with each
    other and with the knots, and a region: the line, (-inf, hi] with hi
    anywhere, or [lo, inf) with lo off every grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        theory = GaussianCdf(draw(st.floats(2.0, 8.0)), draw(st.floats(0.3, 3.0)))
    else:
        knots = np.sort(rng.choice(np.arange(0.0, 10.5, 0.5), draw(st.integers(2, 8))))
        ps = np.sort(np.round(rng.uniform(0.0, 1.0, len(knots)) * 4) / 4)
        ps[0], ps[-1] = 0.0, 1.0
        theory = PiecewiseCdf(knots, ps)
    count = draw(st.integers(1, 40))
    if draw(st.booleans()):
        scores = rng.choice(np.arange(0.0, 10.25, 0.25), count)
    else:
        scores = rng.uniform(0.0, 10.0, count)
    region = draw(st.sampled_from([
        (-np.inf, np.inf),
        (-np.inf, float(rng.choice([rng.uniform(0.0, 10.0), *scores]))),
        (float(rng.uniform(0.0, 10.0)), np.inf)]))
    return theory, EmpiricalCdf(scores), region


@settings(max_examples=60, deadline=None)
@given(deviation_cases())
def test_sup_deviation_matches_dense_grid_oracle(case):
    theory, empirical, (lo, hi) = case
    got = sup_deviation(theory, empirical, region=(lo, hi))

    def deviation(x):
        x = x[(x >= lo) & (x <= hi)]
        return np.max(np.abs(np.asarray(theory.cdf(x)) - np.asarray(empirical.cdf(x))))

    grid = np.linspace(max(lo, -1.0), min(hi, 11.0), 100_001)
    # no grid point lies above the supremum
    assert got >= deviation(grid) - 1e-12
    # the grid plus every jump and the float just below it, where both
    # curves take their left limits to within a slope of 2 times an ulp
    jumps = np.concatenate([empirical.sorted_scores, np.asarray(theory.knots(), dtype=float),
                            [v for v in (hi,) if np.isfinite(v)]])
    dense = np.concatenate([grid, jumps, np.nextafter(jumps, -np.inf)])
    assert got == pytest.approx(deviation(dense), abs=1e-12)


class TestPiecewiseKnotPrecision:
    def test_near_knot_points_interpolate(self):
        # evaluation 1e-7 away from a jump knot must NOT snap to it
        table = PiecewiseCdf(np.array([0.0, 7.0, 7.0, 14.0]),
                             np.array([0.0, 0.2, 0.8, 1.0]))
        just_below = 7.0 - 1e-7
        just_above = 7.0 + 1e-7
        assert abs(table.cdf(just_below) - 0.2) < 1e-7
        assert abs(table.cdf(just_above) - 0.8) < 1e-7
        assert table.cdf(7.0) == pytest.approx(0.8)
        assert table.cdf_left(7.0) == pytest.approx(0.2)

    def test_outside_table(self):
        table = PiecewiseCdf(np.array([1.0, 2.0]), np.array([0.0, 1.0]))
        assert table.cdf(0.0) == 0.0
        assert table.cdf_left(0.5) == 0.0
        assert table.cdf(3.0) == 1.0
        assert table.cdf_left(3.0) == 1.0


class TestRegionRestrictedDeviation:
    def test_censored_region_pair(self):
        # deviation of the censored-region conditional CDF against the
        # censored-region empirical CDF, evaluated on its own region
        pop = GaussianCdf(7, 1)
        scores = np.asarray(pop.inverse(SeededRng(77).generator().random(60)))
        theta = 7.0
        g = RestrictedCdf(pop, hi=theta)
        g_emp = EmpiricalCdf(scores).restrict(-np.inf, theta)
        got = sup_deviation(g, g_emp, region=(-np.inf, theta))
        vals = np.asarray(g.cdf(g_emp.sorted_scores))
        c = g_emp.n
        want = max(np.max(np.abs(vals - np.arange(1, c + 1) / c)),
                   np.max(np.abs(vals - np.arange(c) / c)))
        assert got == pytest.approx(want, abs=1e-12)
