"""Exploration cost quadrature and the strategy optimizer."""
import numpy as np
import pytest
from scipy.integrate import quad

from cfbounds.explore import (
    BoundContext,
    CostModel,
    _gl_adaptive,
    cost_single,
    default_eps_grid,
    optimize_exploration,
)
from cfbounds.rng import SeededRng
from cfbounds.stats import GaussianCdf, PiecewiseCdf


def _model(c=5.0):
    return CostModel(c=c, f0=GaussianCdf(7, 3))


class TestCostSingle:
    def test_zero_epsilon(self):
        assert cost_single(6.0, 8.0, 0.0, _model()) == 0.0

    def test_empty_interval(self):
        assert cost_single(8.0, 8.0, 1.0, _model()) == 0.0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            cost_single(9.0, 8.0, 0.5, _model())
        with pytest.raises(ValueError):
            cost_single(6.0, 8.0, 1.5, _model())

    @pytest.mark.parametrize("lb, theta", [(np.nan, 8.0), (-np.inf, 8.0), (6.0, np.nan),
                                           (6.0, np.inf)])
    def test_non_finite_range_rejected(self, lb, theta):
        # NaN used to cost 0.0 and lb = -inf NaN
        with pytest.raises(ValueError, match="finite"):
            cost_single(lb, theta, 0.5, _model())

    def test_distribution_without_density_rejected(self):
        # a finite-difference density missed this CDF's jump at 5: the cost
        # over [4, 6) came out 0.511 against an exact 1.0548
        jump = PiecewiseCdf([0.0, 5.0, 5.0, 10.0], [0.0, 0.4, 0.6, 1.0])
        with pytest.raises(ValueError, match="density"):
            CostModel(c=1.0, f0=jump)

    def test_against_monte_carlo_oracle(self):
        # oracle: 1e7-draw Monte Carlo estimate of the cost integral
        model = _model(c=5.0)
        got = cost_single(6.0, 8.0, 1.0, model)
        pop = GaussianCdf(7, 3)
        draws = np.asarray(pop.inverse(SeededRng(31).generator().random(10_000_000)))
        inside = (draws >= 6.0) & (draws < 8.0)
        values = np.where(inside, np.exp((8.0 - draws) / 5.0), 0.0)
        mc = values.mean()
        mc_se = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(got - mc) < 3 * mc_se

    def test_against_scipy_quad_oracle(self):
        model = _model(c=2.0)
        got = cost_single(5.0, 8.0, 0.7, model)
        pop = GaussianCdf(7, 3)
        want, err = quad(lambda x: np.exp((8.0 - x) / 2.0) * float(pop.density(x)),
                         5.0, 8.0)
        assert got == pytest.approx(0.7 * want, rel=1e-8)

    def test_overflowing_panel_sum_settles_at_once(self):
        # exp((8 - x) / 0.001) overflows over most of [1, 8): the first panel
        # sum is inf, and doubling the panels up to 2^20 nodes cannot mend it
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp((8.0 - x) / 0.001)

        with np.errstate(over="ignore"):
            assert _gl_adaptive(f, 1.0, 8.0) == np.inf
        assert sizes == [16]

    def test_overflow_times_underflow_rejected(self):
        # at c = 0.16 the factor exp((8 - x) / c) overflows and the density
        # underflows below about -108: inf * 0 has no value, so no cost either
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="inf \\* 0"):
            cost_single(-200.0, 8.0, 0.5, _model(c=0.16))

    def test_monotone_in_epsilon_and_lb(self):
        model = _model()
        costs_eps = [cost_single(6.0, 8.0, e, model) for e in (0.1, 0.4, 0.9)]
        assert costs_eps[0] < costs_eps[1] < costs_eps[2]
        costs_lb = [cost_single(lb, 8.0, 0.5, model) for lb in (4.0, 6.0, 7.5)]
        assert costs_lb[0] > costs_lb[1] > costs_lb[2]


class TestOptimizer:
    def _ctx(self, **kw):
        base = dict(population=GaussianCdf(7, 3), n=200, theta=8.0, eta=0.1,
                    arrivals=400, initial_samples=None)
        base.update(kw)
        return BoundContext(**base)

    def test_zero_cost_prefers_max_epsilon(self):
        # zero cost (density support misses the exploration range): the
        # objective inherits the bound's monotone gain in epsilon; modest
        # counts keep the exploration term from underflowing to a tie
        ctx = self._ctx(n=100, arrivals=150, eta=0.05)
        zero = CostModel(c=5.0, f0=GaussianCdf(-100, 0.1))
        result = optimize_exploration(ctx, zero, [6.0], np.linspace(0, 1, 21))
        assert result.epsilon == 1.0

    def test_prohibitive_cost_prefers_zero(self):
        ctx = self._ctx()
        pricey = CostModel(c=0.05, f0=GaussianCdf(7.9, 0.05))
        result = optimize_exploration(ctx, pricey, [6.0], np.linspace(0, 1, 21))
        assert result.epsilon == 0.0

    def test_overflowing_cost_leaves_zero_epsilon_free(self):
        # the full cost over [1, 8) at c = 0.001 overflows to inf; epsilon = 0
        # must still cost 0, as 0 * inf is NaN, which argmax would pick
        with np.errstate(over="ignore"):
            res = optimize_exploration(self._ctx(), _model(c=0.001), [1.0], [0.0, 0.5, 1.0])
        assert res.epsilon == 0.0 and np.isfinite(res.objective)
        assert res.objective_grid[0, 1:].tolist() == [-np.inf, -np.inf]

    def test_exhaustive_grid_maximum(self):
        ctx = self._ctx()
        model = _model()
        lb_grid = [5.0, 6.0, 7.0]
        eps_grid = np.linspace(0, 1, 11)
        result = optimize_exploration(ctx, model, lb_grid, eps_grid)
        for i, lb in enumerate(lb_grid):
            for j, eps in enumerate(eps_grid):
                assert result.objective >= result.objective_grid[i, j] - 1e-15

    def test_tie_break_cheapest(self):
        # a flat objective must choose the smallest epsilon / largest lb
        flat_ctx = self._ctx(eta=0.9)   # bounds saturate at ~0 everywhere
        zero = CostModel(c=5.0, f0=GaussianCdf(-100, 0.1))
        result = optimize_exploration(flat_ctx, zero, [5.0, 6.0], [0.0, 0.5, 1.0])
        assert result.epsilon == 0.0
        assert result.lb == 6.0

    @staticmethod
    def _scan_in_preference_order(obj):
        best = (obj.shape[0] - 1, 0)
        for j in range(obj.shape[1]):
            for i in range(obj.shape[0] - 1, -1, -1):
                if obj[i, j] > obj[best]:
                    best = (i, j)
        return best

    @staticmethod
    def _optimize_table(obj):
        """Optimize a given objective table: zero cost, improvement read from ``obj``."""
        class TableContext:
            theta = 0.0      # every lb >= theta, so the exploration cost is 0

            @staticmethod
            def improvement(lb, epsilon):
                return obj[int(lb)]

        lb_grid = np.arange(obj.shape[0], dtype=float)
        eps_grid = np.linspace(0.0, 1.0, obj.shape[1])
        result = optimize_exploration(TableContext(), _model(), lb_grid, eps_grid)
        assert np.array_equal(result.objective_grid, obj)
        return int(result.lb), int(np.flatnonzero(eps_grid == result.epsilon)[0])

    @pytest.mark.parametrize("obj, want", [
        (np.zeros((3, 4)), (2, 0)),                          # flat: largest lb, eps 0
        (np.array([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0]]), (2, 0)),
        (np.array([[0.0, 5.0, 5.0], [0.0, 5.0, 5.0]]), (1, 1)),
        (np.array([[0.0, 5.0], [0.0, 4.0], [0.0, 5.0]]), (2, 1)),
        (np.array([[3.0, 0.0], [0.0, 3.0]]), (0, 0)),        # smaller eps beats larger lb
        (np.array([[7.0]]), (0, 0)),
        (np.array([[1.0, 1.0, 1.0]]), (0, 0)),
        (np.array([[1.0], [1.0], [0.0]]), (1, 0)),
    ])
    def test_ties_pick_cheapest(self, obj, want):
        assert self._optimize_table(obj) == want == self._scan_in_preference_order(obj)

    def test_random_tie_heavy_grids_match_the_preference_scan(self):
        gen = SeededRng(44).generator()
        for _ in range(300):
            shape = tuple(gen.integers(1, 8, size=2))
            obj = gen.integers(0, 3, size=shape).astype(float)
            assert self._optimize_table(obj) == self._scan_in_preference_order(obj)

    @pytest.mark.parametrize("exact_mass", [True, False])
    def test_lb_at_or_above_theta_explores_nothing(self, exact_mass):
        # theta below the population median: an lb above theta used to
        # count more initial samples below lb than below theta and raise
        # "need 0 <= l <= m <= n"
        gen = SeededRng(6).generator()
        samples = None if exact_mass else (GaussianCdf(7, 3).inverse(gen.random(200)),)
        ctx = self._ctx(theta=6.0, initial_samples=samples)
        eps = np.linspace(0.0, 1.0, 5)
        for lb in (6.0, 6.5, 7.0, 9.0):
            assert ctx.improvement(lb, eps).tolist() == [0.0] * 5
            assert ctx.improvement(lb, 0.5) == 0.0
        result = optimize_exploration(ctx, _model(), [5.0, 6.0, 7.0], eps)
        assert result.objective_grid[1:].tolist() == [[0.0] * 5] * 2

    @pytest.mark.parametrize("theta, lb", [(np.nan, 6.0), (np.inf, 6.0), (8.0, -np.inf),
                                           (8.0, np.nan)])
    def test_improvement_rejects_non_finite_region(self, theta, lb):
        with pytest.raises(ValueError, match="finite"):
            self._ctx(theta=theta).improvement(lb, 0.5)

    @pytest.mark.parametrize("eps", [-0.1, 1.5, np.nan, np.array([0.0, 0.5, 1.5])])
    def test_improvement_rejects_epsilon_outside_unit_interval(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            self._ctx().improvement(6.0, eps)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            optimize_exploration(self._ctx(), _model(), [], [0.5])

    def test_empty_ensemble_rejected(self):
        # no sample set used to give an all-NaN objective and eps* = 0
        with pytest.raises(ValueError, match="initial_samples"):
            self._ctx(initial_samples=())

    @pytest.mark.parametrize("step", [0.0, -0.1, 1.5, np.nan, np.inf])
    def test_default_eps_grid_rejects_bad_step(self, step):
        with pytest.raises(ValueError, match="step"):
            default_eps_grid(step)

    def test_default_eps_grid_resolution(self):
        grid = default_eps_grid()
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert 0.1175 in np.round(grid, 6)
