"""Sequential admission process: determinism, censorship integrity, replay."""
import io
import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfbounds.censored import (
    MassSpec,
    RegionPartition,
    bound_three_region,
    bound_two_region,
)
from cfbounds.classic import dkw_eta
from cfbounds.generalization import train_thresholds
from cfbounds.rng import SeededRng, splitmix64
import cfbounds.simulate as simulate
from cfbounds.simulate import (
    REGION_CENSORED,
    REGION_DISCLOSED,
    REGION_EXPLORE,
    _JSON_BLOCK,
    SimulationConfig,
    SimulationTrace,
    finalize,
    ingest_scores,
    run_arrivals,
    run_simulation,
    run_stage1,
)
from cfbounds.stats import (
    GaussianCdf,
    MixtureModel,
    PiecewiseCdf,
    sample_labeled,
    stitched_from_partition,
    sup_deviation,
)

POP = GaussianCdf(7.0, 1.0)
MODEL = MixtureModel(p1=0.5, cdf0=GaussianCdf(9, 1), cdf1=GaussianCdf(10, 1))


def pooled_config(**kw):
    base = dict(population=POP, n=50, theta=7.0, arrivals=200, seed=3)
    base.update(kw)
    return SimulationConfig(**base)


def labeled_config(**kw):
    base = dict(model=MODEL, n0=50, n1=50, arrivals=100, seed=3)
    base.update(kw)
    return SimulationConfig(**base)


def _json_text(trace) -> str:
    """The text that ``trace.write_json`` writes."""
    fh = io.StringIO()
    trace.write_json(fh)
    return fh.getvalue()


def _replay(trace):
    """Recompute decisions from scores, threshold history, and coins."""
    config = trace.config
    thetas = dict(trace.threshold_history)
    theta = thetas[0]
    admitted = np.zeros(len(trace.arrival_scores), dtype=bool)
    region = np.zeros(len(trace.arrival_scores), dtype=np.uint8)
    for t, x in enumerate(trace.arrival_scores):
        if t in thetas:
            theta = thetas[t]
        if x >= theta:
            region[t] = REGION_DISCLOSED
            admitted[t] = True
        elif config.lb is not None and x >= config.lb:
            region[t] = REGION_EXPLORE
            admitted[t] = trace.arrival_coins[t] < config.epsilon
        else:
            region[t] = REGION_CENSORED
    return region, admitted


def _per_arrival_reference(config, arrival_stream=None):
    """The admission process decided one arrival at a time.

    One scalar coin per exploration arrival, and after every
    ``retrain_every`` arrivals a refit on the initial samples plus the
    admitted arrivals of each label.
    """
    state = run_stage1(config)
    root = SeededRng(config.seed)
    if arrival_stream is not None:
        scores, labels = np.asarray(arrival_stream[0], dtype=float), arrival_stream[1]
    elif config.pooled:
        gen = root.substream(1).generator()
        scores = np.asarray(config.population.inverse(gen.random(config.arrivals)))
        labels = None
    else:
        scores, labels = sample_labeled(config.model, config.arrivals, root.substream(1))
    T = len(scores)
    coin_gen = root.substream(2).generator()
    coins = np.full(T, np.nan)
    theta = state.theta0
    history = [(0, state.theta0)]
    region = np.empty(T, dtype=np.uint8)
    admitted = np.zeros(T, dtype=bool)
    obs0 = [state.initial0]
    obs1 = [state.initial1]
    for t in range(T):
        x = scores[t]
        if x >= theta:
            region[t] = REGION_DISCLOSED
            admitted[t] = True
        elif config.lb is not None and x >= config.lb:
            region[t] = REGION_EXPLORE
            coins[t] = coin_gen.random()
            admitted[t] = coins[t] < config.epsilon
        else:
            region[t] = REGION_CENSORED
        if config.retrain_every is None:
            continue
        if admitted[t]:
            (obs1 if labels[t] == 1 else obs0).append(scores[t: t + 1])
        if (t + 1) % config.retrain_every == 0:
            theta = float(train_thresholds(np.concatenate(obs0)[None, :],
                                           np.concatenate(obs1)[None, :])[0][0])
            history.append((t + 1, theta))
    return SimulationTrace(
        config=config, theta0=state.theta0, initial_scores=state.initial_scores,
        initial0=state.initial0, initial1=state.initial1, arrival_scores=scores,
        arrival_labels=labels, arrival_region=region, arrival_admitted=admitted,
        arrival_coins=coins, threshold_history=tuple(history))


@st.composite
def admission_runs(draw):
    """A config and an optional labeled arrival stream for it."""
    T = draw(st.integers(0, 240))
    divisors = [b for b in range(1, T + 1) if T % b == 0]
    retrain_every = draw(st.one_of(
        st.none(), st.just(1), st.sampled_from(divisors or [1]),
        st.integers(T + 1, T + 40), st.integers(1, max(T, 1))))
    pooled = retrain_every is None and draw(st.booleans())
    theta = draw(st.floats(8.5, 10.5)) if pooled or draw(st.booleans()) else None
    if retrain_every is not None:
        lb = None       # retraining takes no lb
    elif theta is None:
        # a trained theta lies near 9.5; lb may land at or above it
        lb = draw(st.one_of(st.none(), st.floats(8.0, 11.0)))
    else:
        lb = draw(st.one_of(st.none(), st.floats(theta - 2.0, theta, exclude_max=True)))
    epsilon = draw(st.one_of(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]), st.floats(0.0, 1.0)))
    seed = draw(st.integers(0, 2**32))
    kwargs = dict(arrivals=T, seed=seed, theta=theta, lb=lb, epsilon=epsilon,
                  retrain_every=retrain_every)
    if pooled:
        config = SimulationConfig(population=GaussianCdf(9.0, 1.5), n=30, **kwargs)
    else:
        config = SimulationConfig(model=MODEL, n0=draw(st.integers(1, 30)),
                                  n1=draw(st.integers(1, 30)), **kwargs)
    stream = None
    if draw(st.booleans()):
        scores = draw(st.lists(st.floats(7.0, 12.0), min_size=T, max_size=T))
        labels = draw(st.lists(st.integers(0, 1), min_size=T, max_size=T))
        stream = (np.array(scores), np.array(labels, dtype=np.int8))
    return config, stream


def _check_batches_against_reference(config, stream):
    trace = run_simulation(config, stream)
    assert _json_text(trace) == _json_text(_per_arrival_reference(config, stream))
    region, admitted = _replay(trace)
    assert np.array_equal(region, trace.arrival_region)
    assert np.array_equal(admitted, trace.arrival_admitted)


@settings(max_examples=150, deadline=None)
@given(admission_runs())
def test_batches_equal_the_per_arrival_process(run):
    _check_batches_against_reference(*run)


GRID = np.arange(28, 49) / 4           # multiples of 0.25 in [7, 12]


def _grid_cdf(weights):
    """Discrete CDF with point masses proportional to ``weights`` on GRID."""
    steps = np.cumsum(weights)[:-1] / np.sum(weights)
    return PiecewiseCdf(np.repeat(GRID, 2), np.concatenate([[0.0], np.repeat(steps, 2), [1.0]]))


GRID_WEIGHTS = st.lists(st.integers(0, 3), min_size=len(GRID), max_size=len(GRID)).filter(any)


def _grid_stream(draw, T: int):
    """None, or a stream of ``T`` scores on GRID with labels of one or both kinds."""
    if not draw(st.booleans()):
        return None
    label_set = draw(st.sampled_from([(0,), (1,), (0, 1)]))
    scores = draw(st.lists(st.sampled_from(GRID), min_size=T, max_size=T))
    labels = draw(st.lists(st.sampled_from(label_set), min_size=T, max_size=T))
    return np.array(scores), np.array(labels, dtype=np.int8)


@st.composite
def tied_runs(draw):
    """A retraining config and an optional stream, all scores on GRID.

    Refits meet tied scores within and across labels, and streams of one
    label or label CDFs in reversed order drive thresholds to -inf or +inf.
    """
    T = draw(st.integers(0, 240))
    model = MixtureModel(p1=draw(st.sampled_from([0.05, 0.5, 0.95])),
                         cdf0=_grid_cdf(draw(GRID_WEIGHTS)), cdf1=_grid_cdf(draw(GRID_WEIGHTS)))
    theta = draw(st.one_of(st.none(), st.sampled_from(GRID[1:])))
    config = SimulationConfig(
        model=model, n0=draw(st.integers(1, 8)), n1=draw(st.integers(1, 8)),
        arrivals=T, seed=draw(st.integers(0, 2**32)),
        theta=None if theta is None else float(theta),
        retrain_every=draw(st.integers(1, max(T, 1))))
    return config, _grid_stream(draw, T)


@settings(max_examples=150, deadline=None)
@given(tied_runs())
def test_tied_batches_equal_the_per_arrival_process(run):
    _check_batches_against_reference(*run)


@st.composite
def explored_grid_runs(draw):
    """A static config with an exploration bound, theta, lb and all scores on GRID.

    Scores land exactly on theta and on lb.  A trained theta is a midpoint
    of GRID scores or -inf or +inf, and lb, drawn from all of GRID, may
    lie at or above it, which leaves no exploration region.
    """
    T = draw(st.integers(0, 240))
    theta = draw(st.one_of(st.none(), st.sampled_from(GRID[1:])))
    lb = draw(st.sampled_from(GRID if theta is None else GRID[GRID < theta]))
    kwargs = dict(arrivals=T, seed=draw(st.integers(0, 2**32)),
                  theta=None if theta is None else float(theta), lb=float(lb),
                  epsilon=draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                                         st.floats(0.0, 1.0))))
    if theta is not None and draw(st.booleans()):
        return SimulationConfig(population=_grid_cdf(draw(GRID_WEIGHTS)),
                                n=draw(st.integers(1, 8)), **kwargs), None
    model = MixtureModel(p1=draw(st.sampled_from([0.05, 0.5, 0.95])),
                         cdf0=_grid_cdf(draw(GRID_WEIGHTS)), cdf1=_grid_cdf(draw(GRID_WEIGHTS)))
    config = SimulationConfig(model=model, n0=draw(st.integers(1, 8)),
                              n1=draw(st.integers(1, 8)), **kwargs)
    return config, _grid_stream(draw, T)


def _one_point_model(x0: float, x1: float) -> MixtureModel:
    """Labels 0 and 1 always scoring ``x0`` and ``x1``: the trained theta is
    their midpoint."""
    return MixtureModel(p1=0.5, cdf0=_grid_cdf(GRID == x0), cdf1=_grid_cdf(GRID == x1))


_EVERY_GRID_SCORE = (np.tile(GRID, 4), np.repeat(np.array([0, 1, 1, 0], dtype=np.int8), len(GRID)))


@settings(max_examples=150, deadline=None)
@given(explored_grid_runs())
# trained theta 7.25 equal to lb, and below lb, with every GRID score arriving
@example((SimulationConfig(model=_one_point_model(7.0, 7.5), n0=3, n1=3, arrivals=0,
                           seed=5, lb=7.25, epsilon=0.5), _EVERY_GRID_SCORE))
@example((SimulationConfig(model=_one_point_model(7.0, 7.5), n0=3, n1=3, arrivals=0,
                           seed=5, lb=9.0, epsilon=0.5), _EVERY_GRID_SCORE))
# fixed theta and lb with every GRID score arriving, at each end of epsilon
@example((SimulationConfig(model=MODEL, n0=3, n1=3, arrivals=0, seed=5, theta=10.0,
                           lb=8.5, epsilon=0.0), _EVERY_GRID_SCORE))
@example((SimulationConfig(model=MODEL, n0=3, n1=3, arrivals=0, seed=5, theta=10.0,
                           lb=8.5, epsilon=1.0), _EVERY_GRID_SCORE))
def test_explored_grid_runs_equal_the_per_arrival_process(run):
    _check_batches_against_reference(*run)


class TestStage1:
    def test_fixed_theta_respected(self):
        state = run_stage1(pooled_config(theta=6.5))
        assert state.theta0 == 6.5

    def test_trained_theta_near_bayes_midpoint(self):
        # oracle: symmetric unit Gaussians at 9 and 10 have their optimal
        # threshold at 9.5; the trained value concentrates around it
        thetas = []
        for seed in range(40):
            state = run_stage1(labeled_config(seed=seed))
            thetas.append(state.theta0)
        assert abs(np.mean(thetas) - 9.5) < 0.15

    def test_determinism(self):
        a = run_stage1(pooled_config())
        b = run_stage1(pooled_config())
        assert np.array_equal(a.initial_scores, b.initial_scores)

    def test_zero_initial_rejected(self):
        with pytest.raises(ValueError):
            pooled_config(n=0)

    @pytest.mark.parametrize("ps", [[0.2, 0.9], [0.0, 0.9], [0.2, 1.0]])
    def test_partial_piecewise_table_rejected(self, ps):
        # a table that is no distribution used to run, and the tripwire
        # then reported its own bound violated
        partial = PiecewiseCdf([0.0, 10.0], ps)
        full = PiecewiseCdf([0.0, 10.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="piecewise"):
            pooled_config(population=partial, theta=5.0)
        for cdf0, cdf1 in ((partial, full), (full, partial)):
            with pytest.raises(ValueError, match="piecewise"):
                labeled_config(model=MixtureModel(p1=0.5, cdf0=cdf0, cdf1=cdf1))
        pooled_config(population=full, theta=5.0)

    @pytest.mark.parametrize("build, counts", [(pooled_config, dict(n0=5)),
                                               (pooled_config, dict(n1=5)),
                                               (labeled_config, dict(n=50))])
    def test_other_modes_counts_rejected(self, build, counts):
        # to_dict would drop them, so the manifest would not show them
        with pytest.raises(ValueError, match="takes no"):
            build(**counts)

    @pytest.mark.parametrize("changes", [dict(theta=np.nan), dict(theta=np.inf),
                                         dict(lb=np.nan), dict(lb=-np.inf)])
    def test_non_finite_threshold_rejected(self, changes):
        # a NaN theta used to reject every arrival and report m = 0
        with pytest.raises(ValueError, match="finite"):
            pooled_config(**changes)


class TestArrivals:
    def test_epsilon_zero_no_exploration_admissions(self):
        config = pooled_config(lb=6.0, epsilon=0.0)
        trace = run_simulation(config)
        explored = trace.arrival_admitted & (trace.arrival_region == REGION_EXPLORE)
        assert not np.any(explored)
        part = finalize(trace)[None].part
        assert part.k1 == 0

    def test_epsilon_one_admits_whole_exploration_region(self):
        config = pooled_config(lb=6.0, epsilon=1.0)
        trace = run_simulation(config)
        in_region = trace.arrival_region == REGION_EXPLORE
        assert np.all(trace.arrival_admitted[in_region])
        assert finalize(trace)[None].part.k1 == int(np.sum(in_region))

    def test_below_lb_always_rejected(self):
        config = pooled_config(lb=6.0, epsilon=1.0)
        trace = run_simulation(config)
        censored = trace.arrival_region == REGION_CENSORED
        assert not np.any(trace.arrival_admitted[censored])

    def test_realized_counts_within_binomial_band(self):
        # 3-sigma binomial check on the realized admission counts
        config = SimulationConfig(population=GaussianCdf(7, 3), n=8000,
                                  theta=8.0, lb=6.0, epsilon=0.5,
                                  arrivals=40_000, seed=11)
        trace = run_simulation(config)
        part = finalize(trace)[None].part
        alpha = float(GaussianCdf(7, 3).cdf(8.0))
        beta = float(GaussianCdf(7, 3).cdf(6.0))
        t = config.arrivals
        p2 = 1 - alpha
        p1 = 0.5 * (alpha - beta)
        assert abs(part.k - t * p2) < 3 * np.sqrt(t * p2 * (1 - p2))
        assert abs(part.k1 - t * p1) < 3 * np.sqrt(t * p1 * (1 - p1))

    def test_shared_trace_partitions_match_per_epsilon_runs(self):
        from dataclasses import replace

        from cfbounds.censored import RegionPartition
        from cfbounds.presets import fig3_partitions

        config = SimulationConfig(population=GaussianCdf(7, 3), n=300, theta=8.0,
                                  lb=6.0, epsilon=0.0, arrivals=3000, seed=5)
        eps_grid = np.round(np.arange(0.0, 1.0001, 0.05), 6)
        part_t, part_l, part = fig3_partitions(config, eps_grid)
        assert part.k1[0] == 0 < part.k1[-1]
        for i, eps in enumerate(eps_grid):
            want = finalize(run_simulation(replace(config, epsilon=float(eps))))[None].part
            assert replace(part, k1=int(part.k1[i])) == want
        assert part_t == finalize(run_simulation(replace(config, lb=None)))[None].part
        assert part_l == finalize(run_simulation(
            replace(config, theta=config.lb, lb=None)))[None].part

    def test_coins_consumed_only_in_exploration_region(self):
        config = pooled_config(lb=6.0, epsilon=0.5)
        trace = run_simulation(config)
        has_coin = ~np.isnan(trace.arrival_coins)
        assert np.array_equal(has_coin, trace.arrival_region == REGION_EXPLORE)

    def test_json_coins_are_null_where_no_coin_was_drawn(self):
        trace = run_simulation(pooled_config(lb=6.0, epsilon=0.5))
        text = _json_text(trace)
        coins = json.loads(text)["arrival_coins"]
        drawn = ~np.isnan(trace.arrival_coins)
        assert "NaN" not in text
        assert [c is not None for c in coins] == drawn.tolist()
        assert [c for c in coins if c is not None] == trace.arrival_coins[drawn].tolist()

    def test_coin_alignment_across_epsilon(self):
        # same seed: identical arrivals and coins regardless of epsilon
        t_a = run_simulation(pooled_config(lb=6.0, epsilon=0.2))
        t_b = run_simulation(pooled_config(lb=6.0, epsilon=0.9))
        assert np.array_equal(t_a.arrival_scores, t_b.arrival_scores)
        mask = ~np.isnan(t_a.arrival_coins)
        assert np.array_equal(mask, ~np.isnan(t_b.arrival_coins))
        assert np.array_equal(t_a.arrival_coins[mask], t_b.arrival_coins[mask])

    def test_byte_identical_reruns(self):
        a = run_simulation(pooled_config(lb=6.0, epsilon=0.5))
        b = run_simulation(pooled_config(lb=6.0, epsilon=0.5))
        assert _json_text(a) == _json_text(b)


class TestReplayAndIntegrity:
    def test_replay_reproduces_decisions(self):
        for kwargs in (dict(lb=6.0, epsilon=0.5), dict(), dict(lb=5.0, epsilon=1.0)):
            trace = run_simulation(pooled_config(**kwargs))
            region, admitted = _replay(trace)
            assert np.array_equal(region, trace.arrival_region)
            assert np.array_equal(admitted, trace.arrival_admitted)

    def test_adaptive_replay(self):
        trace = run_simulation(labeled_config(theta=None, retrain_every=25, arrivals=100))
        region, admitted = _replay(trace)
        assert np.array_equal(admitted, trace.arrival_admitted)

    def test_no_rejected_label_in_estimates(self):
        # censorship integrity: every score in the final CDFs is either an
        # initial sample or an admitted arrival
        trace = run_simulation(labeled_config(lb=9.0, epsilon=0.3, theta=9.5))
        final = finalize(trace)
        for label in (0, 1):
            observed = np.sort(final[label].ecdf.sorted_scores)
            adm = trace.arrival_admitted & (trace.arrival_labels == label)
            want = np.sort(np.concatenate([
                trace.initial0 if label == 0 else trace.initial1,
                trace.arrival_scores[adm]]))
            assert np.array_equal(observed, want)
        rejected = trace.arrival_scores[~trace.arrival_admitted]
        pool = np.concatenate([final[0].ecdf.sorted_scores, final[1].ecdf.sorted_scores])
        for score in rejected[:20]:
            assert score not in pool

    def test_counts_round_trip(self):
        trace = run_simulation(pooled_config(lb=6.0, epsilon=0.5))
        final = finalize(trace)[None]
        assert final.part.n + final.part.k + final.part.k1 == final.ecdf.n


class TestFinalize:
    def test_final_theta_at_or_below_lb_rejected(self):
        from dataclasses import replace

        trace = run_simulation(labeled_config(theta=None, lb=11.0, epsilon=0.5))
        with pytest.raises(ValueError, match=r"final theta \S+ is at or below lb 11\.0"):
            finalize(trace)
        at_lb = replace(trace, threshold_history=trace.threshold_history + ((100, 11.0),))
        with pytest.raises(ValueError, match="final theta 11.0 is at or below lb 11.0"):
            finalize(at_lb)

    def test_no_arrivals_keeps_stage1_cdf(self):
        trace = run_simulation(pooled_config(arrivals=0))
        final = finalize(trace)[None]
        assert np.array_equal(np.sort(trace.initial_scores), final.ecdf.sorted_scores)

    def test_reference_partition(self):
        trace = run_simulation(pooled_config(seed=2, arrivals=0))
        part = finalize(trace)[None].part
        assert (part.n, part.m) == (50, 24)

    @pytest.mark.parametrize("kwargs", [dict(), dict(lb=6.0, epsilon=0.0),
                                        dict(lb=6.0, epsilon=0.5), dict(lb=6.0, epsilon=1.0)])
    def test_estimate_is_the_stitched_estimator_of_the_admitted_arrivals(self, kwargs):
        trace = run_simulation(pooled_config(**kwargs))
        adm = trace.arrival_admitted
        want = stitched_from_partition(
            trace.initial_scores,
            trace.arrival_scores[adm & (trace.arrival_region == REGION_EXPLORE)],
            trace.arrival_scores[adm & (trace.arrival_region == REGION_DISCLOSED)],
            7.0, kwargs.get("lb"), kwargs.get("epsilon", 0.0))
        got = finalize(trace)[None].estimate
        xs = np.union1d(want.jump_points(), got.jump_points())
        assert np.array_equal(got.cdf(xs), want.cdf(xs))
        assert np.array_equal(got.cdf_left(xs), want.cdf_left(xs))


class TestDeviationBound:
    ALPHA, BETA = float(POP.cdf(7.0)), float(POP.cdf(6.0))

    @pytest.mark.parametrize("part", [
        RegionPartition(n=50, m=24, k=30),
        RegionPartition(n=50, m=np.array([20, 24, 31]), k=np.array([0, 30, 150])),
    ])
    def test_two_region_without_lb(self, part):
        got = pooled_config().deviation_bound(part, 0.2)
        want = bound_two_region(part, MassSpec.theoretical(self.ALPHA), 0.2)
        assert np.array_equal(got.raw, want.raw)
        assert np.array_equal(got.trivial, want.trivial)

    @pytest.mark.parametrize("part", [
        RegionPartition(n=50, m=27, l=7, k=90, k1=12),
        RegionPartition(n=50, m=np.array([20, 27, 31]), l=np.array([5, 7, 9]),
                        k=np.array([0, 90, 150]), k1=np.array([0, 12, 40])),
    ])
    def test_three_region_with_lb(self, part):
        got = pooled_config(lb=6.0, epsilon=0.5).deviation_bound(part, 0.2)
        want = bound_three_region(part, MassSpec.theoretical(self.ALPHA, self.BETA), 0.5, 0.2)
        assert np.array_equal(got.raw, want.raw)
        assert np.array_equal(got.trivial, want.trivial)

    @pytest.mark.parametrize("change", [
        dict(theta=6.5), dict(lb=5.5), dict(lb=5.0, epsilon=0.25), dict(epsilon=0.5),
        dict(population=GaussianCdf(7.5, 2.0)), dict(seed=11), dict(arrivals=7),
    ])
    def test_replaced_config_keeps_no_stale_masses(self, change):
        # the masses are cached per instance; a replaced config computes its own
        parts = {False: RegionPartition(n=50, m=27, k=90),
                 True: RegionPartition(n=50, m=27, l=7, k=90, k1=12)}
        for config in (pooled_config(lb=6.0, epsilon=0.75), pooled_config()):
            config.deviation_bound(parts[config.lb is not None], 0.2)    # fills the cache
            replaced = replace(config, **change)
            part = parts[replaced.lb is not None]
            fresh = SimulationConfig(**{**{f.name: getattr(replaced, f.name)
                                           for f in fields(replaced)}})
            got, want = replaced.deviation_bound(part, 0.2), fresh.deviation_bound(part, 0.2)
            assert np.array_equal(got.raw, want.raw) and got.trivial == want.trivial
            assert replaced._bound_masses == fresh._bound_masses

    @pytest.mark.parametrize("theta", [None, 9.5])
    def test_labeled_config_rejected(self, theta):
        with pytest.raises(ValueError, match="pooled"):
            labeled_config(theta=theta).deviation_bound(RegionPartition(n=50, m=24), 0.2)


class TestAdaptive:
    def test_batch_larger_than_stream_equals_fixed(self):
        fixed = run_simulation(labeled_config(theta=9.5, arrivals=60))
        adaptive = run_simulation(labeled_config(theta=9.5, arrivals=60,
                                                 retrain_every=61))
        a = json.loads(_json_text(fixed))
        b = json.loads(_json_text(adaptive))
        a.pop("config")
        b.pop("config")
        assert a == b

    def test_batch_equal_to_stream_same_decisions(self):
        fixed = run_simulation(labeled_config(theta=9.5, arrivals=60))
        adaptive = run_simulation(labeled_config(theta=9.5, arrivals=60,
                                                 retrain_every=60))
        assert np.array_equal(fixed.arrival_admitted, adaptive.arrival_admitted)
        assert len(adaptive.threshold_history) == 2

    def test_retrain_event_count(self, tmp_path):
        # 450 rows with batch 50: nine retrain events
        rng = SeededRng(5).generator()
        path = tmp_path / "scores.csv"
        with open(path, "w") as fh:
            fh.write("score,label\n")
            for i in range(450):
                fh.write(f"{9 + rng.random():.6f},{i % 2}\n")
        stream = ingest_scores(path)
        config = labeled_config(theta=9.5, retrain_every=50, arrivals=450)
        trace = run_arrivals(run_stage1(config), config, arrival_stream=stream)
        assert len(trace.threshold_history) == 1 + 9

    def test_retraining_uses_all_observed_data(self):
        config = labeled_config(theta=12.0, retrain_every=50, arrivals=100, seed=9)
        trace = run_simulation(config)
        # with theta = 12 nearly everything is rejected; retrained theta
        # must be computable from initial + admitted data only
        assert len(trace.threshold_history) >= 2
        assert np.isfinite(trace.final_theta) or trace.final_theta in (np.inf, -np.inf)

    @pytest.mark.parametrize("theta, retrain_every, arrivals, calls", [
        (None, 30, 100, 1 + 100 // 30),
        (None, 25, 100, 1 + 100 // 25),
        (None, None, 100, 1),
        (9.5, 25, 100, 100 // 25),
        (9.5, None, 100, 0),
    ])
    def test_every_fit_goes_through_optimal_threshold(self, monkeypatch, theta,
                                                      retrain_every, arrivals, calls):
        fits, fit = [], simulate.optimal_threshold

        def counted(xs, is1):
            fits.append(fit(xs, is1))
            return fits[-1]

        monkeypatch.setattr(simulate, "optimal_threshold", counted)
        trace = run_simulation(labeled_config(theta=theta, retrain_every=retrain_every,
                                              arrivals=arrivals))
        assert len(fits) == calls
        thetas = [theta for _, theta in trace.threshold_history]
        assert fits == (thetas if theta is None else thetas[1:])


class TestIngest:
    def test_valid_file_round_trip(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("score,label\n1.5,0\n2.5,1\n-0.5,0\n")
        scores, labels = ingest_scores(path)
        assert np.array_equal(scores, [1.5, 2.5, -0.5])
        assert np.array_equal(labels, [0, 1, 0])

    def test_bad_score_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,label\nabc,1\n")
        with pytest.raises(ValueError, match=":2"):
            ingest_scores(path)

    def test_bad_label_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,label\n1.0,1\n2.0,7\n")
        with pytest.raises(ValueError, match=":3"):
            ingest_scores(path)

    @pytest.mark.parametrize("row, message", [
        ("3.0,7", "label"), ("x,1", "bad score"), ("inf,1", "score must be finite"),
        ("3.0,1,2", "expected 2 fields")])
    def test_line_after_a_quoted_field_spanning_two_lines(self, tmp_path, row, message):
        # the record on lines 3-4 is the second one, and the bad row is on line 5
        path = tmp_path / "bad.csv"
        path.write_text(f'score,label\n1.0,1\n"2.0\n",0\n{row}\n')
        with pytest.raises(ValueError, match=rf"bad\.csv:5: {message}"):
            ingest_scores(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,1\n")
        with pytest.raises(ValueError, match="header"):
            ingest_scores(path)

    def test_nonfinite_score(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,label\ninf,1\n")
        with pytest.raises(ValueError, match="finite"):
            ingest_scores(path)

    def test_stream_replaces_synthetic_arrivals(self):
        stream = (np.array([9.9, 8.0, 12.0]), np.array([1, 0, 1]))
        config = labeled_config(theta=9.5, arrivals=3)
        trace = run_arrivals(run_stage1(config), config, arrival_stream=stream)
        assert np.array_equal(trace.arrival_scores, stream[0])
        assert np.array_equal(trace.arrival_admitted, [True, False, True])


class TestConvergence:
    def test_full_admission_ecdf_converges(self):
        # epsilon = 1 with lb below the whole domain: plain IID growth, so
        # the final estimate meets the classical deviation level in at
        # least 99 of 100 seeded trials
        failures = 0
        t = 100_000
        for trial in range(100):
            config = SimulationConfig(population=POP, n=50, theta=7.0,
                                      lb=-30.0, epsilon=1.0, arrivals=t,
                                      seed=splitmix64(999) ^ trial)
            trace = run_simulation(config)
            est = stitched_from_partition(
                trace.initial_scores,
                trace.arrival_scores[trace.arrival_region == REGION_EXPLORE],
                trace.arrival_scores[trace.arrival_region == REGION_DISCLOSED],
                7.0, -30.0, 1.0)
            sup = sup_deviation(POP, est)
            failures += sup >= dkw_eta(50 + t, 0.01)
        assert failures <= 1

    def test_trace_json_serializable(self):
        trace = run_simulation(pooled_config(lb=6.0, epsilon=0.5, arrivals=5))
        payload = json.loads(_json_text(trace))
        assert payload["config"]["n"] == 50
        assert len(payload["arrival_scores"]) == 5


class TestConfigSerialization:
    def test_round_trip_pooled(self):
        config = pooled_config(lb=6.0, epsilon=0.25)
        again = SimulationConfig.from_dict(config.to_dict())
        assert again.to_dict() == config.to_dict()
        assert _json_text(run_simulation(again)) == _json_text(run_simulation(config))

    def test_round_trip_labeled(self):
        config = labeled_config(theta=9.5, retrain_every=40)
        again = SimulationConfig.from_dict(config.to_dict())
        assert again.to_dict() == config.to_dict()

    def test_piecewise_population_round_trip(self):
        from cfbounds.stats import PiecewiseCdf

        pop = PiecewiseCdf(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.7, 1.0]))
        config = SimulationConfig(population=pop, n=10, theta=1.5,
                                  arrivals=5, seed=1)
        again = SimulationConfig.from_dict(config.to_dict())
        assert _json_text(run_simulation(again)) == _json_text(run_simulation(config))


class TestStrictConfigDict:
    @staticmethod
    def _dict(config=None, **changes):
        data = (config or labeled_config(theta=9.5)).to_dict()
        data.update(changes)
        return data

    @pytest.mark.parametrize("changes, match", [
        ({"epsilom": 0.5}, "unknown"),
        ({"n": 50}, "unknown"),                   # a pooled key in a labeled config
        ({"theta": float("nan")}, "finite"),
        ({"theta": float("inf")}, "finite"),
        ({"theta": "7"}, "finite number"),
        ({"epsilon": "0.5"}, "finite number"),
        ({"n0": 2.9}, "integer"),
        ({"arrivals": "100"}, "integer"),
        ({"seed": True}, "integer"),
        ({"retrain_every": 2.5}, "integer"),
        ({"lb": 9.0, "retrain_every": 5}, "retraining does not support"),
    ])
    def test_rejects_top_level_probe(self, changes, match):
        with pytest.raises(ValueError, match=match):
            SimulationConfig.from_dict(self._dict(**changes))

    @pytest.mark.parametrize("model, match", [
        ({"p1": float("nan")}, "finite"),
        ({"p1": "0.5"}, "finite number"),
        ({"cdf0": {"family": "gaussian", "mean": "9", "stddev": 1.0}}, "finite number"),
        ({"cdf1": {"family": "gaussian", "mean": 10.0, "stddev": 1.0, "sd": 2}}, "unknown"),
        ({"cdf1": {"family": "piecewise", "xs": [0.0, float("nan")], "ps": [0.0, 1.0]}},
         "finite"),
        ({"cdf1": {"family": "piecewise", "xs": "01", "ps": [0.0, 1.0]}}, "list"),
        ({"bias": 0.0}, "unknown"),
    ])
    def test_rejects_model_probe(self, model, match):
        data = self._dict()
        data["model"] = {**data["model"], **model}
        with pytest.raises(ValueError, match=match):
            SimulationConfig.from_dict(data)

    def test_rejects_labeled_key_in_pooled_config(self):
        with pytest.raises(ValueError, match="unknown"):
            SimulationConfig.from_dict(self._dict(pooled_config(), n0=5))

    def test_integral_floats_and_large_seeds_accepted(self):
        seed = splitmix64(999) ^ 7
        config = SimulationConfig.from_dict(self._dict(n0=50.0, arrivals=100.0, seed=seed))
        assert config == labeled_config(theta=9.5, seed=seed)
        assert type(config.n0) is int and type(config.arrivals) is int


def test_labeled_config_rejects_unlabeled_stream():
    config = labeled_config(theta=9.5, arrivals=2)
    with pytest.raises(ValueError, match="labels"):
        run_arrivals(run_stage1(config), config,
                     arrival_stream=(np.array([9.9, 8.0]), None))


class TestMalformedStream:
    @pytest.mark.parametrize("scores, labels, match", [
        (np.array([[9.9, 8.0], [9.0, 10.0]]), np.array([1, 0]), "1-d"),
        (np.float64(9.9), np.array([1]), "1-d"),
        (np.array([9.9, np.nan, 8.0]), np.array([1, 0, 1]), "finite"),
        (np.array([9.9, np.inf, 8.0]), np.array([1, 0, 1]), "finite"),
        (np.array([9.9, 8.0, 12.0]), np.array([1, 0]), "labels of shape"),
        (np.array([9.9, 8.0]), np.array([1, 0, 1]), "labels of shape"),
        (np.array([9.9, 8.0]), np.array([[1, 0]]), "labels of shape"),
        (np.array([9.9, 8.0, 12.0]), np.array([1, 2, 0]), "0 or 1"),
        (np.array([9.9, 8.0, 12.0]), np.array([1, -1, 0]), "0 or 1"),
        (np.array([9.9, 8.0, 12.0]), np.array([1.0, 0.5, 0.0]), "0 or 1"),
    ])
    @pytest.mark.parametrize("retrain_every", [None, 2])
    def test_labeled_config_rejects(self, scores, labels, match, retrain_every):
        config = labeled_config(theta=9.5, arrivals=3, retrain_every=retrain_every)
        with pytest.raises(ValueError, match=match):
            run_arrivals(run_stage1(config), config, arrival_stream=(scores, labels))

    def test_pooled_config_checks_optional_labels(self):
        config = pooled_config(arrivals=2)
        with pytest.raises(ValueError, match="finite"):
            run_arrivals(run_stage1(config), config, arrival_stream=([7.5, np.nan], None))
        with pytest.raises(ValueError, match="0 or 1"):
            run_arrivals(run_stage1(config), config, arrival_stream=([7.5, 6.0], [0, 2]))

    def test_boolean_and_float_labels_accepted(self):
        config = labeled_config(theta=9.5, arrivals=3, retrain_every=2)
        scores = np.array([9.9, 8.0, 12.0])
        want = run_arrivals(run_stage1(config), config,
                            arrival_stream=(scores, np.array([1, 0, 1])))
        for labels in (np.array([True, False, True]), np.array([1.0, 0.0, 1.0])):
            got = run_arrivals(run_stage1(config), config, arrival_stream=(scores, labels))
            assert got.threshold_history == want.threshold_history
            assert np.array_equal(got.arrival_admitted, want.arrival_admitted)


# ---------------------------------------------------------------------------
# trace.json: the streaming writer against json.dumps of one dict of lists
# ---------------------------------------------------------------------------


def _reference_json(trace) -> str:
    """``trace.json`` as ``json.dumps`` of one dict of lists wrote it.

    Only ``theta0`` is spelled as the other thresholds are: the dict wrote
    it as a bare float, so a non-finite one became ``-Infinity``.
    """
    def threshold(x):
        return ("inf" if x > 0 else "-inf") if np.isinf(x) else float(x)

    coins = trace.arrival_coins.astype(object)
    coins[np.isnan(trace.arrival_coins)] = None
    labels = trace.arrival_labels
    return json.dumps({
        "config": trace.config.to_dict(),
        "theta0": threshold(trace.theta0),
        "final_theta": threshold(trace.final_theta),
        "initial_scores": trace.initial_scores.tolist(),
        "initial0": trace.initial0.tolist(),
        "initial1": trace.initial1.tolist(),
        "arrival_scores": trace.arrival_scores.tolist(),
        "arrival_labels": None if labels is None else labels.tolist(),
        "arrival_region": trace.arrival_region.tolist(),
        "arrival_admitted": trace.arrival_admitted.tolist(),
        "arrival_coins": coins.tolist(),
        "threshold_history": [[t, threshold(th)] for t, th in trace.threshold_history],
    }, sort_keys=True)


SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                    1e-5, 1e16, 9.5, 1 / 3])


def _floats(rng, size: int, special: bool) -> np.ndarray:
    """``size`` scores, a third of them repeats, with special values if asked."""
    values = rng.normal(9.0, 1.0, size)
    repeat = rng.random(size) < 0.3
    values[repeat] = rng.choice(values[:5], int(repeat.sum())) if size else 0.0
    if special:
        odd = rng.random(size) < 0.1
        values[odd] = rng.choice(SPECIAL, int(odd.sum()))
    return values


@st.composite
def json_traces(draw):
    """A trace of a real run, or one built directly with any values."""
    config = draw(st.sampled_from([
        pooled_config(), pooled_config(lb=6.0, epsilon=0.5), labeled_config(),
        labeled_config(theta=9.5, retrain_every=7), labeled_config(retrain_every=3000)]))
    block = _JSON_BLOCK
    sizes = st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block + 1]) | st.integers(0, 40)
    if draw(st.booleans()):
        return run_simulation(replace(config, arrivals=draw(sizes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T, special = draw(sizes), draw(st.booleans())
    theta0 = draw(st.sampled_from([9.5, -0.0, np.inf, -np.inf, np.nan]))
    refits = draw(st.sampled_from([0, 2, block + 1]))
    history = ((0, theta0),) + tuple(zip(np.sort(rng.integers(1, 10**6, refits)).tolist(),
                                         _floats(rng, refits, special).tolist()))
    coins = np.where(rng.random(T) < 0.5, np.nan, _floats(rng, T, special))
    labels = None if config.pooled else rng.integers(0, 2, T).astype(
        draw(st.sampled_from([np.int8, np.int64, bool, float])))
    n = draw(st.integers(0, 60))
    return SimulationTrace(
        config=config, theta0=theta0,
        initial_scores=_floats(rng, n if config.pooled else 0, special),
        initial0=_floats(rng, 0 if config.pooled else n, special),
        initial1=_floats(rng, 0 if config.pooled else n // 2, special),
        arrival_scores=_floats(rng, T, special), arrival_labels=labels,
        arrival_region=rng.integers(0, 3, T).astype(np.uint8),
        arrival_admitted=rng.random(T) < 0.5, arrival_coins=coins,
        threshold_history=history)


@settings(max_examples=60, deadline=None)
@given(json_traces())
def test_trace_writer_equals_json_dumps_of_a_dict(trace):
    assert _json_text(trace) == _reference_json(trace)


def test_non_finite_theta0_is_valid_json():
    # indistinguishable labels and one label-0 sample: the trained threshold
    # is -inf, which trace.json used to write as a bare -Infinity
    model = MixtureModel(0.5, GaussianCdf(9, 1), GaussianCdf(9, 1))
    trace = run_simulation(SimulationConfig(model=model, n0=1, n1=5, arrivals=3, seed=1))
    assert trace.theta0 == -np.inf
    payload = json.loads(_json_text(trace), parse_constant=lambda name: pytest.fail(name))
    assert payload["theta0"] == payload["final_theta"] == "-inf"
    assert payload["threshold_history"] == [[0, "-inf"]]
