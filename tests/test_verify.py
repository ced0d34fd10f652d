"""Monte Carlo harness: Wilson intervals, kernels, coverage reports."""
import os
import subprocess
import sys
import tracemalloc
from itertools import chain, starmap
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfbounds.verify as verify
from cfbounds.censored import (
    MassSpec,
    RegionPartition,
    RegionSpec,
    bound_three_region,
    bound_two_region,
)
from cfbounds.generalization import LabeledDataset, empirical_risk, train_thresholds
from cfbounds.presets import bench_config, fig1_config
from cfbounds.rng import SeededRng, splitmix64
from cfbounds.simulate import SimulationConfig, finalize, run_simulation
from cfbounds.stats import GaussianCdf, MixtureModel, PiecewiseCdf
from cfbounds.verify import (
    CoverageReport,
    _batch_sup_conditioned,
    _censored_sup,
    _gen_gap_samples,
    _initial_samples,
    _sup_chunk,
    _sup_risk_gap,
    _sup_task,
    _sup_tasks,
    _with_grid,
    _with_seed,
    compare_bounds,
    mc_cdf_deviation,
    mc_gen_gap,
    vc_gen_eta,
    wilson_interval,
    wilson_stderr,
)

POP = GaussianCdf(7.0, 1.0)


def fig1_like(arrivals=0, seed=1):
    return SimulationConfig(population=POP, n=50, theta=7.0,
                            arrivals=arrivals, seed=seed)


class TestWilson:
    def test_interval_contains_frequency_mostly(self):
        # coverage sanity: interval contains the true p in >= 93/100 trials
        p = 0.3
        gen = SeededRng(123).generator()
        hits = 0
        for _ in range(100):
            s = int(np.sum(gen.random(400) < p))
            lo, hi = wilson_interval(s, 400)
            hits += lo <= p <= hi
        assert hits >= 93

    def test_edge_counts(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and lo > 0.95

    def test_stderr_never_zero(self):
        assert wilson_stderr(0, 1000) > 0.0


class TestCoverageReport:
    def test_verdicts(self):
        holds = CoverageReport.build(10, 1000, 0, 0.1, bound=0.05)
        assert holds.verdict == "bound-holds"
        noise = CoverageReport.build(56, 1000, 0, 0.1, bound=0.05)
        assert noise.verdict == "bound-violated-within-noise"
        assert noise.holds
        violated = CoverageReport.build(300, 1000, 0, 0.1, bound=0.05)
        assert violated.verdict == "bound-violated"
        assert not violated.holds

    def test_json_round_trip_deterministic(self):
        a = CoverageReport.build(10, 1000, 7, 0.1, bound=0.5, meta={"x": 1})
        b = CoverageReport.build(10, 1000, 7, 0.1, bound=0.5, meta={"x": 1})
        assert a.to_json() == b.to_json()


class TestConditionedKernel:
    def test_matches_direct_computation_small(self):
        # oracle: explicit stitched-estimator deviation from the same draws
        # (the kernel draws region-by-region across all replications)
        masses = (0.5, 0.5)
        counts = (3, 2)
        gen_a = SeededRng(42).substream(0).generator()
        sup = _batch_sup_conditioned(masses, counts, 4, gen_a)
        gen_c = SeededRng(42).substream(0).generator()
        u_all = np.sort(gen_c.random((4, 3)), axis=1)
        v_all = np.sort(gen_c.random((4, 2)), axis=1)
        for r in range(4):
            cands = [abs(0.5 - 3 / 5)]
            for i, uu in enumerate(u_all[r]):
                f = 0.5 * uu
                cands.append(abs(f - (3 / 5) * (i + 1) / 3))
                cands.append(abs(f - (3 / 5) * i / 3))
            for j, vv in enumerate(v_all[r]):
                f = 0.5 + 0.5 * vv
                cands.append(abs(f - (3 / 5 + (2 / 5) * (j + 1) / 2)))
                cands.append(abs(f - (3 / 5 + (2 / 5) * j / 2)))
            assert sup[r] == pytest.approx(max(cands), abs=1e-12)

    def test_eta_zero_always_exceeded(self):
        config = fig1_like()
        report = mc_cdf_deviation(config, 1e-12, 200, 3,
                                  condition=RegionPartition(n=50, m=24))
        assert report.frequency == 1.0

    def test_eta_above_one_never_exceeded(self):
        config = fig1_like()
        report = mc_cdf_deviation(config, 1.0001, 200, 3,
                                  condition=RegionPartition(n=50, m=24))
        assert report.frequency == 0.0

    def test_determinism(self):
        config = fig1_like()
        cond = RegionPartition(n=50, m=24)
        a = mc_cdf_deviation(config, 0.2, 500, 9, condition=cond)
        b = mc_cdf_deviation(config, 0.2, 500, 9, condition=cond)
        assert a.to_json() == b.to_json()

    def test_minimum_replications(self):
        with pytest.raises(ValueError):
            mc_cdf_deviation(fig1_like(), 0.1, 10, 0,
                             condition=RegionPartition(n=50, m=24))


def _batch_sup_one_shot(masses, counts, replications, gen):
    """``_batch_sup_conditioned`` before row blocks: each region's draws for
    every replication made, sorted and scored at once."""
    masses = np.asarray(masses, dtype=float)
    counts = np.asarray(counts, dtype=int)
    n = int(counts.sum())
    mass_edges = np.concatenate([[0.0], np.cumsum(masses)])
    weight_edges = np.concatenate([[0.0], np.cumsum(counts / n)])
    sup = np.zeros(replications)
    for edge_mass, edge_weight in zip(mass_edges[1:-1], weight_edges[1:-1]):
        sup = np.maximum(sup, abs(edge_mass - edge_weight))
    for i, c in enumerate(counts):
        if c == 0:
            continue
        u = np.sort(gen.random((replications, c)), axis=1)
        fvals = mass_edges[i] + masses[i] * u
        w = weight_edges[i + 1] - weight_edges[i]
        hi = weight_edges[i] + w * (np.arange(1, c + 1) / c)
        lo = weight_edges[i] + w * (np.arange(c) / c)
        dev = np.maximum(np.abs(fvals - hi), np.abs(fvals - lo))
        sup = np.maximum(sup, dev.max(axis=1))
    return sup


class TestRowBlocks:
    @pytest.mark.parametrize("group, width, rows", [
        (1, 24, 1), (8 * 7 * 24, 24, 7), (8 * 8 * 24 - 1, 24, 7), (80, 24, 1),
        (1 << 18, 24, 1365), (1 << 18, 100, 327)])
    def test_slices_cover_the_rows_in_order(self, monkeypatch, group, width, rows):
        monkeypatch.setattr(verify, "_SUP_GROUP", group)
        blocks = verify._row_blocks(1003, width)
        assert [b.stop - b.start for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert list(chain.from_iterable(range(b.start, b.stop) for b in blocks)) == list(
            range(1003))
        assert verify._row_blocks(0, width) == []

    # fig1's and fig2's conditioned partitions (an empty region below lb in
    # fig1), an empty last region and a mismatched interior edge
    @pytest.mark.parametrize("masses, counts", [
        ((0.0, 0.5, 0.5), (0, 24, 26)), ((0.16, 0.34, 0.5), (7, 20, 23)),
        ((0.5, 0.5), (5, 0)), ((0.3, 0.7), (3, 4))])
    @pytest.mark.parametrize("rows", [None, 1, 7])
    def test_conditioned_kernel_equals_one_shot(self, monkeypatch, masses, counts, rows):
        # 1003 replications: blocks of 7 rows leave a last block of 2
        if rows:
            monkeypatch.setattr(verify, "_SUP_GROUP", 8 * rows * max(counts))
        gen, ref = (SeededRng(42).substream(0).generator() for _ in range(2))
        sup = _batch_sup_conditioned(masses, counts, 1003, gen)
        assert sup.tolist() == _batch_sup_one_shot(masses, counts, 1003, ref).tolist()
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_conditioned_kernel_equals_one_shot_at_full_blocks(self):
        # 5000 replications are three blocks of 1365 rows of 24 draws and a
        # shorter fourth one
        masses, counts = (0.0, 0.5, 0.5), (0, 24, 26)
        gen, ref = (SeededRng(7).substream(0).generator() for _ in range(2))
        sup = _batch_sup_conditioned(masses, counts, 5000, gen)
        assert sup.tolist() == _batch_sup_one_shot(masses, counts, 5000, ref).tolist()
        assert gen.bit_generator.state == ref.bit_generator.state


def _initial_samples_one_shot(config, replications, seed):
    """``_initial_samples`` before row blocks: every replication's draws,
    scores, sorts and training at once."""
    model = config.model
    n0, n1 = config.n0, config.n1
    gen = SeededRng(seed).substream(0).generator()
    u = gen.random((replications, n0 + n1))
    x0 = np.asarray(model.cdf0.inverse(u[:, :n0]), dtype=float)
    x1 = np.asarray(model.cdf1.inverse(u[:, n0:]), dtype=float)
    x0.sort(axis=1)
    x1.sort(axis=1)
    if config.theta is not None:
        theta = np.full(replications, float(config.theta))
        remp = np.array([
            empirical_risk(config.theta, LabeledDataset(x0[r], x1[r]))
            for r in range(replications)])
    else:
        theta, remp = train_thresholds(x0, x1)
    a0 = np.asarray(model.cdf0.cdf(theta), dtype=float)
    a1 = np.asarray(model.cdf1.cdf(theta), dtype=float)
    rtrue = model.p1 * a1 + model.p0 * (1.0 - a0)
    gaps = np.abs(rtrue - remp)
    m0 = np.sum(x0 < theta[:, None], axis=1)
    m1 = np.sum(x1 < theta[:, None], axis=1)
    return theta, gaps, x0, x1, a0, a1, m0, m1


class TestInitialSampleBlocks:
    MODEL = MixtureModel(p1=0.4, cdf0=GaussianCdf(9, 1), cdf1=GaussianCdf(10, 1.5))
    PIECEWISE = MixtureModel(p1=0.5, cdf0=PiecewiseCdf([6, 8, 9.5, 11, 13], [0, .1, .4, .8, 1]),
                             cdf1=PiecewiseCdf([7, 9, 10, 12, 14], [0, .2, .5, .9, 1]))

    @pytest.mark.parametrize("config", [
        SimulationConfig(model=MODEL, n0=30, n1=20, arrivals=0, seed=1),
        SimulationConfig(model=MODEL, n0=30, n1=20, arrivals=0, seed=1, theta=9.6),
        SimulationConfig(model=PIECEWISE, n0=25, n1=25, arrivals=0, seed=1),
    ], ids=["trained", "fixed-theta", "piecewise"])
    @pytest.mark.parametrize("rows", [None, 1, 7])
    def test_equal_one_shot(self, monkeypatch, config, rows):
        # 103 replications: blocks of 7 rows leave a last block of 5
        if rows:
            monkeypatch.setattr(verify, "_SUP_GROUP", 8 * rows * (config.n0 + config.n1))
        made = []
        generator = SeededRng.generator

        def spy(self):
            made.append(generator(self))
            return made[-1]

        with patch.object(SeededRng, "generator", spy):
            got = _initial_samples(config, 103, 5)
        want = _initial_samples_one_shot(config, 103, 5)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tolist() == w.tolist()
        ref = SeededRng(5).substream(0).generator()
        ref.random((103, config.n0 + config.n1))
        assert [gen.bit_generator.state for gen in made] == [ref.bit_generator.state]


def _peak_mb(run) -> float:
    """The ``tracemalloc`` peak of ``run()``, in MB."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    """The verify kernels at the acceptance budgets keep cache-sized
    temporaries: one block of replications at a time, not all of them."""

    def test_conditioned_cdf_deviation(self):
        # about 118 MB with every replication's draws made at once
        peak = _peak_mb(lambda: mc_cdf_deviation(fig1_config(), 0.2, 100_000, 0,
                                                 condition=RegionPartition(n=50, m=24)))
        assert peak < 16

    def test_gen_gap(self):
        # about 40 MB with every replication's draws made at once; the
        # sorted samples that ``_initial_samples`` returns hold 8 MB of it
        assert _peak_mb(lambda: mc_gen_gap(bench_config(), 10_000, 0)) < 16


class TestUnconditionedPath:
    def test_runs_with_arrivals_and_reports_mean_bound(self):
        config = SimulationConfig(population=POP, n=40, theta=7.0, lb=6.0,
                                  epsilon=0.5, arrivals=30, seed=4)
        report = mc_cdf_deviation(config, 0.35, 120, 8)
        assert report.meta["mode"] == "unconditioned"
        assert 0.0 <= report.frequency <= 1.0
        assert report.holds

    @pytest.mark.parametrize("lb, epsilon", [(None, 0.0), (6.0, 0.5)])
    def test_bound_is_the_mean_of_scalar_bound_calls(self, lb, epsilon):
        # the bound column's one array call against one scalar call per replication
        config = SimulationConfig(population=POP, n=40, theta=7.0, lb=lb,
                                  epsilon=epsilon, arrivals=30, seed=4)
        alpha, beta = float(POP.cdf(7.0)), float(POP.cdf(6.0))
        bounds = []
        for r in range(100):
            part = finalize(run_simulation(_with_seed(config, splitmix64(8) ^ r)))[None].part
            if lb is None:
                bound = bound_two_region(part, MassSpec.theoretical(alpha), 0.35)
            else:
                bound = bound_three_region(part, MassSpec.theoretical(alpha, beta),
                                           RegionSpec(7.0, lb, epsilon), 0.35)
            bounds.append(bound.probability)
        assert len(set(bounds)) > 1
        assert mc_cdf_deviation(config, 0.35, 100, 8).bound == float(np.mean(bounds))


class TestGenGap:
    def _config(self, arrivals=500, seed=2):
        model = MixtureModel(p1=0.5, cdf0=GaussianCdf(9, 1), cdf1=GaussianCdf(10, 1))
        return SimulationConfig(model=model, n0=50, n1=50, arrivals=arrivals, seed=seed)

    def test_report_fields(self):
        report = mc_gen_gap(self._config(), 200, 5, delta=0.05)
        assert report.bound == pytest.approx(0.1)
        assert report.meta["mode"] == "gen-gap"
        assert report.holds

    def test_degenerate_identical_cdfs(self):
        # indistinguishable labels: the gap concentrates near the prior
        # mismatch terms and stays inside the bound
        model = MixtureModel(p1=0.5, cdf0=GaussianCdf(9, 1), cdf1=GaussianCdf(9, 1))
        config = SimulationConfig(model=model, n0=50, n1=50, arrivals=0, seed=3)
        report = mc_gen_gap(config, 300, 11, delta=0.05)
        assert report.holds

    def test_pooled_config_rejected(self):
        with pytest.raises(ValueError):
            mc_gen_gap(fig1_like(), 200, 0)

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_delta_rejected_before_sampling(self, monkeypatch, delta):
        def no_samples(*args):
            raise AssertionError("sampled before checking delta")

        monkeypatch.setattr(verify, "_initial_samples", no_samples)
        with pytest.raises(ValueError, match="delta"):
            mc_gen_gap(self._config(), 200, 0, delta=delta)


class TestCompareBounds:
    def test_gen_mode_schema_and_monotone_benchmarks(self):
        model = MixtureModel(p1=0.5, cdf0=GaussianCdf(9, 1), cdf1=GaussianCdf(10, 1))
        config = SimulationConfig(model=model, n0=50, n1=50, arrivals=0, seed=2)
        table = compare_bounds(config, arrival_grid=[0, 2000, 8000],
                               replications=60, seed=9, delta=0.05)
        assert table.columns == ("arrivals", "gap_quantile", "gap_mean", "ours",
                                 "hoeffding", "gc", "vc_gen", "dkw")
        hoeff = table.column("hoeffding")
        assert hoeff[0] > hoeff[1] > hoeff[2]

    def test_mode_exclusivity(self):
        # the only mode left takes a grid of arrival counts, and a labeled config
        with pytest.raises(TypeError):
            compare_bounds(fig1_like(), replications=100, seed=0)
        with pytest.raises(TypeError):
            compare_bounds(fig1_like(), eta_grid=[0.2], replications=100, seed=0)
        with pytest.raises(ValueError, match="labeled"):
            compare_bounds(fig1_like(), arrival_grid=[0], replications=100, seed=0)

    def test_gen_mode_rejects_exploration_region(self):
        # gen mode samples the two-region estimator too; it used to return
        # the rows of the same config without lb and epsilon
        model = MixtureModel(p1=0.5, cdf0=GaussianCdf(9, 1), cdf1=GaussianCdf(10, 1))
        config = SimulationConfig(model=model, n0=50, n1=50, arrivals=0, seed=2,
                                  theta=9.5, lb=8.5, epsilon=0.5)
        with pytest.raises(ValueError, match="lb"):
            compare_bounds(config, arrival_grid=[0], replications=60, seed=9)

    def test_vc_gen_eta_decreasing(self):
        assert vc_gen_eta(100, 0.05) > vc_gen_eta(10_000, 0.05)
        with pytest.raises(ValueError):
            vc_gen_eta(0, 0.05)


def _oracle_gaps(theta, x0, x1, k0, k1, a0, a1, model, gen):
    """Direct searchsorted evaluation of every left and right limit.

    Returns the sorted pooled points, |gap| at their left and right
    limits, and each label's sorted disclosed samples.
    """
    n0, n1 = len(x0), len(x1)
    n = n0 + n1
    segs = {}
    for label, x, k, a, cdf in ((0, x0, k0, a0, model.cdf0), (1, x1, k1, a1, model.cdf1)):
        cens = np.sort(x[x < theta])
        disc = x[x >= theta]
        if k:
            u = a + (1.0 - a) * gen.random(k)
            draws = np.asarray(cdf.inverse(u), dtype=float)
            disc = np.concatenate([disc, np.maximum(draws, theta)])
        segs[label] = (cens, np.sort(disc), len(cens) / len(x))
    zs = np.sort(np.concatenate([arr for seg in segs.values() for arr in seg[:2]]))
    f0 = np.asarray(model.cdf0.cdf(zs), dtype=float)
    f1 = np.asarray(model.cdf1.cdf(zs), dtype=float)

    def fhat(label, side):
        cens, disc, w = segs[label]
        below = (np.searchsorted(cens, zs, side=side) / len(cens) * w
                 if len(cens) else np.zeros(len(zs)))
        above = (np.searchsorted(disc, zs, side=side) / len(disc) * (1.0 - w)
                 if len(disc) else np.zeros(len(zs)))
        return np.where(zs < theta, below, w + above)

    w1, w0 = n1 / n, n0 / n
    gaps = [np.abs((model.p1 * f1 - w1 * fhat(1, side)) - (model.p0 * f0 - w0 * fhat(0, side))
                   + (model.p0 - w0))
            for side in ("left", "right")]
    return zs, gaps, (segs[0][1], segs[1][1])


def _sup_risk_gap_oracle(theta, x0, x1, k0, k1, a0, a1, model, gen):
    _, gaps, _ = _oracle_gaps(theta, x0, x1, k0, k1, a0, a1, model, gen)
    return max(0.0, *(float(np.max(g)) for g in gaps))


class _RoundedGaussian(GaussianCdf):
    """Gaussian whose draws are rounded to one decimal (ties everywhere)."""

    def inverse(self, p):
        return np.round(super().inverse(p), 1)


class _LowGaussian(GaussianCdf):
    """Gaussian whose admitted draws may land below the threshold."""

    def inverse(self, p):
        return super().inverse(p) - 2.0


class _PointGaussian(GaussianCdf):
    """Gaussian whose admitted draws all land at ``point``."""

    point = 9.5

    def inverse(self, p):
        return np.full(np.shape(p), self.point)


class _BelowGaussian(_PointGaussian):
    point = 9.0


@pytest.fixture
def paths(monkeypatch):
    """One entry per replication that tries the probability-space path: None
    when it served the replication, else the check that sent it to score
    every draw ("levels": two levels of a label within the window;
    "points": a point's CDF value near a level of a label it does not belong
    to, a draw's score at or below theta, or a draw outside its block)."""
    out, pair, seen = [], [], [0]
    levels, probability_sups = verify._levels, verify._probability_sups

    def spy_levels(v, cdf):
        got = levels(v, cdf)
        pair.append(got is None)
        if len(pair) == 2:
            out.append("levels" if any(pair) else None)
            pair.clear()
        return got

    def spy_sups(*args):
        # the chunk's replications that passed ``_levels`` since the last call
        sups, ok = probability_sups(*args)
        tried = [i for i in range(seen[0], len(out)) if out[i] is None]
        assert len(tried) == len(ok)
        for i, good in zip(tried, ok):
            if not good:
                out[i] = "points"
        seen[0] = len(out)
        return sups, ok

    monkeypatch.setattr(verify, "_levels", spy_levels)
    monkeypatch.setattr(verify, "_probability_sups", spy_sups)
    return out


class TestSupRiskGapOracle:
    MODEL = MixtureModel(p1=0.5, cdf0=GaussianCdf(9, 1), cdf1=GaussianCdf(10, 1))

    def _check(self, theta, x0, x1, k0, k1, model=None, seed=0):
        model = model or self.MODEL
        a0, a1 = float(model.cdf0.cdf(theta)), float(model.cdf1.cdf(theta))
        args = (theta, x0, x1, k0, k1, a0, a1, model)
        gen_old = SeededRng(seed).generator()
        want = _sup_risk_gap_oracle(*args, gen_old)
        gen_new = SeededRng(seed).generator()
        assert _sup_risk_gap(*args, gen_new, _censored_sup(theta, x0, x1, model)) == want
        assert gen_new.bit_generator.state == gen_old.bit_generator.state
        return want

    def _initial(self, seed, n0=50, n1=50):
        gen = SeededRng(seed).generator()
        return gen.normal(9.0, 1.0, n0), gen.normal(10.0, 1.0, n1)

    def _check_bench(self, arrivals, replications=200):
        from cfbounds.presets import bench_config

        config = _with_grid(bench_config(), arrivals)
        theta, _, _, (x0, x1, a0, a1, k0, k1) = _gen_gap_samples(config, replications, 3, 0.015)
        gen_new = SeededRng(3).substream(2).generator()
        gen_old = SeededRng(3).substream(2).generator()
        for r in range(replications):
            args = (theta[r], x0[r], x1[r], int(k0[r]), int(k1[r]),
                    float(a0[r]), float(a1[r]), config.model)
            censored = _censored_sup(theta[r], x0[r], x1[r], config.model)
            assert (_sup_risk_gap(*args, gen_new, censored)
                    == _sup_risk_gap_oracle(*args, gen_old))
            assert gen_new.bit_generator.state == gen_old.bit_generator.state

    @pytest.mark.parametrize("arrivals", [0, 2_000, 20_000, 50_000])
    def test_bench_mixture(self, arrivals, paths):
        self._check_bench(arrivals)
        # with draws, the probability-space path serves every side above the cutoff
        assert paths == [] if arrivals == 0 else paths and set(paths) == {None}

    @pytest.mark.parametrize("arrivals", [2_000, 50_000])
    def test_window_of_one_always_falls_back(self, arrivals, paths, monkeypatch):
        # every two levels lie within a window of 1, so each call scores every draw
        monkeypatch.setattr(verify, "_window", lambda cdf: 1.0)
        self._check_bench(arrivals, 50)
        assert paths and set(paths) == {"levels"}

    def test_cross_label_check_falls_back(self, paths, monkeypatch):
        # a window just below a replication's closest two levels passes the
        # pairwise check; in some replications a point's level of the other
        # label then lies within half of it
        from cfbounds.presets import bench_config

        config = _with_grid(bench_config(), 50_000)
        theta, _, _, (x0, x1, a0, a1, k0, k1) = _gen_gap_samples(config, 200, 3, 0.015)
        gen = SeededRng(3).substream(2).generator()
        for r in range(200):
            state = gen.bit_generator.state
            # the levels as the kernel draws them
            levels = [a + (1.0 - a) * gen.random(k) for a, k in ((a0[r], k0[r]), (a1[r], k1[r]))]
            closest = min(np.min(np.diff(np.sort(v))) for v in levels)
            monkeypatch.setattr(verify, "_window", lambda cdf, w=0.99 * closest: w)
            gen.bit_generator.state = state
            gen_old = SeededRng(0).generator()
            gen_old.bit_generator.state = state
            args = (theta[r], x0[r], x1[r], int(k0[r]), int(k1[r]),
                    float(a0[r]), float(a1[r]), config.model)
            censored = _censored_sup(theta[r], x0[r], x1[r], config.model)
            assert _sup_risk_gap(*args, gen, censored) == _sup_risk_gap_oracle(*args, gen_old)
            assert gen.bit_generator.state == gen_old.bit_generator.state
        assert len(paths) == 200 and "levels" not in paths and "points" in paths

    def test_levels_below_the_threshold(self, paths):
        # with a = 0, a share of the draws lands below theta and is clamped to
        # it, so their scores tie; such a call must not count them by level
        x0, x1 = self._initial(7)
        for seed in range(3):
            args = (9.5, x0, x1, 900, 1100, 0.0, 0.0, self.MODEL)
            gen_new, gen_old = SeededRng(seed).generator(), SeededRng(seed).generator()
            assert (_sup_risk_gap(*args, gen_new, _censored_sup(9.5, x0, x1, self.MODEL))
                    == _sup_risk_gap_oracle(*args, gen_old))
            assert gen_new.bit_generator.state == gen_old.bit_generator.state
        assert paths == ["points"] * 3

    def test_tiny_stddev_mixture(self, paths):
        # scores of 1000 +- a few stddevs of 1e-3 are only 1e-10 stddevs
        # apart per ulp, so the window grows with mean/stddev
        model = MixtureModel(p1=0.5, cdf0=GaussianCdf(1e3, 1e-3),
                             cdf1=GaussianCdf(1e3 + 1e-3, 1e-3))
        for seed in range(5):
            gen = SeededRng(seed).generator()
            x0, x1 = gen.normal(1e3, 1e-3, 50), gen.normal(1e3 + 1e-3, 1e-3, 50)
            self._check(1e3 + 5e-4, x0, x1, 1500, 2500, model, seed)
            self._check(1e3 - 2e-3, x0, x1, 2500, 1500, model, seed)
        assert len(paths) == 10 and paths.count(None) >= 8

    @pytest.mark.parametrize("theta", [-np.inf, 3.0])
    def test_theta_below_every_score(self, theta):
        x0, x1 = self._initial(1)
        self._check(theta, x0, x1, 400, 700)
        self._check(theta, x0, x1, 0, 0)

    @pytest.mark.parametrize("theta", [np.inf, 20.0])
    def test_theta_above_every_score(self, theta):
        x0, x1 = self._initial(2)
        self._check(theta, x0, x1, 0, 0)

    @pytest.mark.parametrize("k0, k1", [(0, 900), (600, 0)])
    def test_one_label_without_arrivals(self, k0, k1):
        x0, x1 = self._initial(4)
        self._check(9.5, x0, x1, k0, k1)

    def test_ties_within_and_across_labels(self):
        model = MixtureModel(p1=0.4, cdf0=_RoundedGaussian(9, 1), cdf1=_RoundedGaussian(10, 1))
        for seed in range(20):
            x0, x1 = (np.round(x, 1) for x in self._initial(seed, 40, 60))
            x0[:5] = x1[:5]                       # cross-label duplicates
            x0[5:10] = 9.5                        # duplicates at the threshold
            assert len(np.unique(np.concatenate([x0, x1]))) < 100
            self._check(9.5, x0, x1, 300, 500, model, seed)
            self._check(9.5, x0, x1, 0, 0, model, seed)

    @pytest.mark.parametrize("p1", [0.5, 0.9])
    @pytest.mark.parametrize("n", [5, 50])
    def test_admitted_draws_below_threshold(self, p1, n):
        # an admitted draw below theta is counted as disclosed at theta
        low = MixtureModel(p1=p1, cdf0=_LowGaussian(9, 1), cdf1=_RoundedGaussian(10, 1))
        below = MixtureModel(p1=p1, cdf0=_BelowGaussian(9, 1), cdf1=_BelowGaussian(10, 1))
        at = MixtureModel(p1=p1, cdf0=_PointGaussian(9, 1), cdf1=_PointGaussian(10, 1))
        for seed in range(10):
            x0, x1 = self._initial(seed, n, n)
            self._check(9.5, x0, x1, 200, 300, low, seed)
            got = self._check(9.5, x0, x1, 200, 300, below, seed)
            assert got == self._check(9.5, x0, x1, 200, 300, at, seed)

    def test_single_samples(self):
        self._check(9.5, np.array([9.0]), np.array([10.0]), 0, 0)
        self._check(9.5, np.array([9.7]), np.array([9.7]), 3, 0)

    def test_supremum_strictly_inside_a_block(self):
        # both labels share one CDF, so the gap is half the difference of the
        # empirical CDFs; label 0's samples 160..199 are packed just below
        # label 1's sample 160, which puts the supremum at the right limit of
        # label 0's sample 199, which is none of the block cuts
        model = MixtureModel(p1=0.5, cdf0=GaussianCdf(300, 100), cdf1=GaussianCdf(300, 100))
        x1 = np.arange(600.0)
        x0 = x1 + 0.5
        x0[160:200] = np.linspace(159.6, 159.9, 40)
        args = (-np.inf, x0, x1, 0, 0, 0.0, 0.0, model, SeededRng(0).generator())
        zs, gaps, disc = _oracle_gaps(*args)
        assert zs[np.argmax(np.maximum(*gaps))] == x0[199] and 199 % verify._BLOCK
        cuts = np.concatenate([s[::verify._BLOCK] for s in disc] + [s[-1:] for s in disc])
        assert x0[199] not in cuts
        want = self._check(-np.inf, x0, x1, 0, 0, model)
        assert want == pytest.approx(0.5 * 40 / 600)
        # a side without draws is evaluated at every point (``_row_sups``);
        # the pruned evaluation of the same side finds the same value
        assert self._pruned(x0, x1, model) == want

    def test_supremum_just_above_a_cut(self):
        # with a nearly flat CDF, the gap at the left limit of label 1's
        # sample 188 beats the one at the cut just below it (label 0's
        # sample 192) by about 1e-8, and its block's bound beats that cut
        # by less than 1e-6: only a nonnegative margin evaluates the block
        model = MixtureModel(p1=0.6, cdf0=GaussianCdf(0, 1e6), cdf1=GaussianCdf(0, 1e6))
        x0 = np.arange(600.0)
        x1 = np.arange(600.0) + 0.5
        x1[188:193] = [192.1, 192.2, 192.3, 192.4, 192.45]
        args = (-np.inf, x0, x1, 0, 0, 0.0, 0.0, model, SeededRng(0).generator())
        zs, gaps, disc = _oracle_gaps(*args)
        assert zs[np.argmax(np.maximum(*gaps))] == x1[188]
        cuts = np.concatenate([s[::verify._BLOCK] for s in disc] + [s[-1:] for s in disc])
        assert x0[192] in cuts and x1[188] not in cuts
        assert self._pruned(x0, x1, model) == self._check(-np.inf, x0, x1, 0, 0, model)

    @staticmethod
    def _pruned(x0, x1, model):
        """``_side_sup`` of the samples as one disclosed side below no threshold."""
        n = len(x0) + len(x1)
        samples, empty = (np.sort(x0), np.sort(x1)), (np.empty(0), np.empty(0))
        return verify._scored_sup(-np.inf, samples, empty, (0.0, 0.0), len(x0) / n, len(x1) / n,
                                  model, 0.0)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_pool_sizes_at_the_pruning_cutoff(self, extra):
        # sides of 16 * _BLOCK samples are evaluated at every point, larger ones by blocks
        size = 16 * verify._BLOCK + extra
        x0, x1 = self._initial(5)
        self._check(-np.inf, x0, x1, 60, size - 160)          # disclosed side
        self._check(9.5, x0[x0 >= 9.5], x1[x1 >= 9.5], 60,
                    size - 60 - np.sum(x0 >= 9.5) - np.sum(x1 >= 9.5))
        x0, x1 = self._initial(6, size // 2, size - size // 2)
        self._check(np.inf, x0, x1, 0, 0)                     # censored side

    @pytest.mark.parametrize("both", [False, True])
    def test_blocks_of_tied_values(self, both, paths):
        # label 1's admitted draws all land at 9.5: several whole blocks of ties
        cdf0 = _PointGaussian(9, 1) if both else GaussianCdf(9, 1)
        model = MixtureModel(p1=0.5, cdf0=cdf0, cdf1=_PointGaussian(10, 1))
        for seed in range(5):
            x0, x1 = self._initial(seed)
            self._check(9.0, x0, x1, 1000, 16 * verify._BLOCK, model, seed)
        # a subclass of GaussianCdf keeps every draw's score
        assert paths == []

    PIECEWISE = MixtureModel(
        p1=0.4,
        cdf0=PiecewiseCdf([5, 8, 8, 9, 11, 11, 14], [0, 0.3, 0.5, 0.5, 0.8, 0.9, 1.0]),
        cdf1=PiecewiseCdf([6, 8, 9.5, 10, 11, 11, 15], [0, 0.1, 0.4, 0.4, 0.6, 0.85, 1.0]))

    @pytest.mark.parametrize("theta", [7.0, 8.0, 8.5, 9.7, 11.0])
    def test_piecewise_mixture_with_flats_and_jumps(self, theta, paths):
        # F0 is flat on [8, 9] and F1 on [9.5, 10]; both jump, so draws tie
        model = self.PIECEWISE
        for seed in range(5):
            gen = SeededRng(seed).generator()
            x0, x1 = model.cdf0.inverse(gen.random(50)), model.cdf1.inverse(gen.random(50))
            self._check(theta, x0, x1, 700, 500, model, seed)
        assert paths == []

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_small_blocks(self, block, monkeypatch):
        # small blocks send every one of these pools through the pruned path
        from cfbounds.presets import bench_config

        monkeypatch.setattr(verify, "_BLOCK", block)
        config = _with_grid(bench_config(), 500)
        theta, _, _, (x0, x1, _, _, k0, k1) = _gen_gap_samples(config, 40, 3, 0.015)
        for r in range(40):
            self._check(theta[r], x0[r], x1[r], int(k0[r]), int(k1[r]), seed=r)
        rounded = MixtureModel(p1=0.4, cdf0=_RoundedGaussian(9, 1), cdf1=_RoundedGaussian(10, 1))
        for seed in range(5):
            x0, x1 = (np.round(x, 1) for x in self._initial(seed, 40, 60))
            self._check(9.5, x0, x1, 300, 500, rounded, seed)
            gen = SeededRng(seed).generator()
            p0, p1 = self.PIECEWISE.cdf0, self.PIECEWISE.cdf1
            self._check(8.5, p0.inverse(gen.random(30)), p1.inverse(gen.random(30)),
                        70, 90, self.PIECEWISE, seed)


_CHUNK_MODELS = {
    "gaussian": MixtureModel(p1=0.5, cdf0=GaussianCdf(9, 1), cdf1=GaussianCdf(10, 1)),
    "wide": MixtureModel(p1=0.8, cdf0=GaussianCdf(9, 1), cdf1=GaussianCdf(10, 2)),
    "piecewise": TestSupRiskGapOracle.PIECEWISE,
}


@st.composite
def _chunks(draw):
    """A chunk of replications: model, per-label sample counts, thresholds,
    per-label draw counts, per-label windows (None for ``_window``'s own), a
    group size in draws and a seed."""
    size = draw(st.integers(1, 6))
    per_rep = lambda values: st.lists(st.sampled_from(values), min_size=size, max_size=size)
    # 900 draws of each label or 1500 of one pass 16 * _BLOCK points; 0 leaves a label
    # without draws
    counts = [0, 0, 5, 300, 900, 1500]
    return (draw(st.sampled_from(sorted(_CHUNK_MODELS))), draw(st.integers(1, 60)),
            draw(st.integers(1, 60)), draw(per_rep([-np.inf, 8.0, 9.0, 9.5, 10.5])),
            draw(per_rep(counts)), draw(per_rep(counts)),
            draw(st.lists(st.sampled_from([None, None, None, 1e-7, 1e-6, 1e-2, 1.0]), min_size=2,
                          max_size=2)),
            draw(st.sampled_from([verify._SUP_GROUP, 2000])), draw(st.integers(0, 2**16)))


@settings(max_examples=200, deadline=None)
@given(_chunks())
def test_sup_chunk_equals_the_oracle(chunk):
    # a chunk mixes replications on the probability-space path, ones sent
    # back by a window check (a window of 1e-7 or 1e-6 fails the spacing of
    # some labels' levels; one of 1e-2 passes that of 5 levels and catches
    # the other label's cuts), sides of at most 16 * _BLOCK points, labels
    # without draws and PiecewiseCdf
    name, n0, n1, theta, k0, k1, windows, group, seed = chunk
    model = _CHUNK_MODELS[name]
    gen = SeededRng(seed).generator()
    x0 = np.sort([model.cdf0.inverse(gen.random(n0)) for _ in theta], axis=1)
    x1 = np.sort([model.cdf1.inverse(gen.random(n1)) for _ in theta], axis=1)
    theta, k0, k1 = np.array(theta), np.array(k0), np.array(k1)
    a0, a1 = (np.asarray(cdf.cdf(theta), dtype=float) for cdf in (model.cdf0, model.cdf1))
    censored = np.array([_censored_sup(*args, model) for args in zip(theta, x0, x1)])
    gen_old = SeededRng(seed).substream(1).generator()
    want = [_sup_risk_gap_oracle(*args, model, gen_old)
            for args in zip(theta, x0, x1, k0.tolist(), k1.tolist(), a0, a1)]
    gen_new = SeededRng(seed).substream(1).generator()
    own = verify._window

    def window(cdf):
        w = windows[0] if cdf is model.cdf0 else windows[1]
        return own(cdf) if w is None else w

    with patch.object(verify, "_SUP_GROUP", group), patch.object(verify, "_window", window):
        got = _sup_chunk(gen_new, theta, x0, x1, a0, a1, k0, k1, model, censored)
    assert got == want
    # the generator ends exactly the chunk's draws in
    end = SeededRng(seed).substream(1).generator()
    end.bit_generator.advance(int((k0 + k1).sum()))
    assert gen_new.bit_generator.state == gen_old.bit_generator.state == end.bit_generator.state


class TestChunkHelpers:
    def test_limit_counts_equal_direct_counts(self):
        gen = np.random.default_rng(5)
        for _ in range(200):
            size = gen.integers(0, 6, gen.integers(1, 5))
            z = np.concatenate([np.sort(gen.integers(0, 4, s).astype(float)) for s in size])
            flags = gen.random((2, len(z))) < 0.5
            run = np.repeat(np.arange(len(size)), size)
            if not len(z):
                continue
            below, upto = verify._limit_counts(z, flags, size)
            for f, b, u in zip(flags, below, upto):
                same = run[:, None] == run[None, :]
                assert np.array_equal(b, (f & same & (z[None, :] < z[:, None])).sum(axis=1))
                assert np.array_equal(u, (f & same & (z[None, :] <= z[:, None])).sum(axis=1))

    def test_sort_rows_orders_every_run(self):
        gen = np.random.default_rng(6)
        for _ in range(200):
            runs = int(gen.integers(1, 5))
            counts = [gen.integers(0, 5, runs) for _ in range(3)]
            parts = [(gen.integers(0, 4, c.sum()).astype(float), c) for c in counts]
            z, origin, offsets, size = verify._sort_rows(parts, runs)
            assert np.array_equal(size, sum(counts))
            start = np.cumsum(size) - size
            for r in range(runs):
                want = np.concatenate([v[c[:r].sum():c[:r + 1].sum()] for v, c in parts])
                assert np.array_equal(z[start[r]:start[r] + size[r]], np.sort(want))
            # the column a value came from holds it
            piece = np.searchsorted(offsets, origin, "right") - 1
            rank = origin - offsets[piece]
            run = np.repeat(np.arange(runs), size)
            for value, p, k, r in zip(z, piece, rank, run):
                values, c = parts[p]
                assert values[c[:r].sum() + k] == value


class TestProbabilityWindow:
    """``verify._window`` against scipy's ndtri and ndtr, which are not
    monotone at the ulp level near ndtri's branch points."""

    COUNT = 2**20

    @classmethod
    def _sweep(cls, place, a, stride):
        """COUNT doubles ``stride`` ulps apart in one binade: centred on e^-2
        or 1 - e^-2, starting at ``a`` or ending just below 1."""
        ref = {"e^-2": np.exp(-2.0), "1 - e^-2": 1.0 - np.exp(-2.0), "above a": a,
               "below 1": 0.5}[place]
        step = stride * np.spacing(ref)
        start = {"above a": a, "below 1": 1.0 - cls.COUNT * step}.get(
            place, ref - cls.COUNT // 2 * step)
        v = start + np.arange(cls.COUNT) * step
        assert np.spacing(v[0]) == np.spacing(v[-1]) == np.spacing(ref)
        return v

    @pytest.mark.parametrize("cdf", [GaussianCdf(9, 1), GaussianCdf(10, 1), GaussianCdf(300, 100),
                                     GaussianCdf(0, 1e6), GaussianCdf(1e3, 1e-3)], ids=str)
    @pytest.mark.parametrize("place", ["e^-2", "1 - e^-2", "above a", "below 1"])
    def test_window_orders_levels_and_bounds_the_round_trip(self, cdf, place):
        window = verify._window(cdf)
        a = float(cdf.cdf(cdf.mean - 0.5 * cdf.stddev))
        consecutive = self._sweep(place, a, 1)
        assert np.array_equal(np.nextafter(consecutive[:-1], 1.0), consecutive[1:])
        # a second sweep spans several windows where the consecutive one does not
        stride = max(1, int(np.ceil(4 * window / (self.COUNT * np.spacing(consecutive[0])))))
        for v in (consecutive, self._sweep(place, a, stride)):
            scores = cdf.inverse(v)
            assert np.max(np.abs(cdf.cdf(scores) - v)) <= window / 100
            # each score lies above every score of a level more than a window below
            below = np.searchsorted(v, v - window) - 1
            apart = below >= 0
            assert apart.any() or v is consecutive
            highest = np.maximum.accumulate(scores)
            assert np.all(highest[below[apart]] < scores[apart])


def _shared_stream_sups(config, grid, replications, seed, delta):
    """Truth-column values with every draw taken from one generator in loop order."""
    gen = SeededRng(seed).substream(2).generator()
    out = []
    for T in grid:
        theta, _, _, (x0, x1, a0, a1, k0, k1) = _gen_gap_samples(
            _with_grid(config, T), replications, seed, delta)
        out.append([_sup_risk_gap(theta[r], x0[r], x1[r], int(k0[r]), int(k1[r]),
                                  float(a0[r]), float(a1[r]), config.model, gen,
                                  _censored_sup(theta[r], x0[r], x1[r], config.model))
                    for r in range(replications)])
    return out


class TestTruthColumnPool:
    GRID = [0, 2_000, 5_000]
    R, SEED, DELTA = 200, 11, 0.015

    @pytest.fixture(scope="class")
    def config(self):
        from cfbounds.presets import bench_config

        return bench_config()

    @pytest.fixture(scope="class")
    def shared(self, config):
        return _shared_stream_sups(config, self.GRID, self.R, self.SEED, self.DELTA)

    @pytest.fixture(scope="class")
    def censored(self, config):
        theta, _, x0, x1, *_ = _initial_samples(config, self.R, self.SEED)
        return np.array([_censored_sup(*args, config.model) for args in zip(theta, x0, x1)])

    def _table(self, config):
        return compare_bounds(config, arrival_grid=self.GRID, replications=self.R,
                              seed=self.SEED, delta=self.DELTA)

    def _samples(self, config, T):
        return _gen_gap_samples(_with_grid(config, T), self.R, self.SEED, self.DELTA)

    def test_pool_and_one_cpu_give_the_shared_stream_table(self, config, shared, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pooled = self._table(config)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        single = self._table(config)
        assert pooled.rows == single.rows and pooled.meta == single.meta
        quant = 1.0 - 2.0 * self.DELTA
        assert pooled.column("gap_quantile") == [float(np.quantile(v, quant)) for v in shared]
        assert pooled.column("gap_mean") == [float(np.mean(v)) for v in shared]

    def test_replay_one_replication_at_its_offset(self, config, shared, censored):
        stream = SeededRng(self.SEED).substream(2)
        start = 0
        for T, values in zip(self.GRID, shared):
            theta, _, _, (x0, x1, a0, a1, k0, k1) = self._samples(config, T)
            draws = k0 + k1
            if T == 0:
                assert not draws.any()            # the next grid point starts at 0
            for r in (0, 1, 117, self.R - 1):
                one = slice(r, r + 1)
                got = _sup_task(stream, start + int(draws[:r].sum()), theta[one], x0[one],
                                x1[one], a0[one], a1[one], k0[one], k1[one], config.model,
                                censored[one])
                assert got == [values[r]]
            start += int(draws.sum())

    def test_table_equals_per_grid_point_loop(self, config, shared, monkeypatch):
        # the grid shares one set of initial samples; a loop drawing them
        # afresh at every grid point gives the same table
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        table = self._table(config)
        initial = _initial_samples(config, self.R, self.SEED)
        ours = []
        for T in self.GRID:
            theta, gaps, totals, rest = self._samples(config, T)
            reused = _gen_gap_samples(_with_grid(config, T), self.R, self.SEED, self.DELTA,
                                      initial)
            for want, got in zip((theta, gaps, totals, *rest), (*reused[:3], *reused[3])):
                assert np.array_equal(want, got)
            ours.append(float(np.mean(totals)))
        quant = 1.0 - 2.0 * self.DELTA
        assert table.column("ours") == ours
        assert table.column("gap_quantile") == [float(np.quantile(v, quant)) for v in shared]
        assert table.column("gap_mean") == [float(np.mean(v)) for v in shared]
        assert table.meta["gap_at_theta_mean"] == float(np.mean(self._samples(config, 0)[1]))

    def test_hoisted_censored_side_gives_the_shared_stream_values(self, config, shared,
                                                                   censored):
        stream = SeededRng(self.SEED).substream(2)
        start = 0
        for T, values in zip(self.GRID, shared):
            theta, _, _, (x0, x1, a0, a1, k0, k1) = self._samples(config, T)
            tasks, start = _sup_tasks(stream, start, theta, x0, x1, a0, a1, k0, k1,
                                      config.model, censored)
            assert np.array_equal(np.concatenate([task[-1] for task in tasks]), censored)
            assert list(chain.from_iterable(starmap(_sup_task, tasks))) == values

    def test_calling_process_runs_the_first_chunk(self, config, shared, monkeypatch):
        # forked workers' calls never reach this process's list
        calls, workers = [], []
        kernel = verify._sup_chunk

        def counted(gen, theta, *args):
            calls.extend(theta)
            return kernel(gen, theta, *args)

        class Pool(verify.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(verify, "_sup_chunk", counted)
        monkeypatch.setattr(verify, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        table = self._table(config)
        assert len(calls) == verify._SUP_CHUNK
        assert workers == [8]
        quant = 1.0 - 2.0 * self.DELTA
        assert table.column("gap_quantile") == [float(np.quantile(v, quant)) for v in shared]
        # two chunks: the calling process runs one and one worker the other
        calls.clear()
        table = compare_bounds(config, arrival_grid=self.GRID[:1], replications=100,
                               seed=self.SEED, delta=self.DELTA)
        assert len(calls) == 50 and workers == [8, 1]
        # no chunk: nothing runs
        calls.clear()
        table = compare_bounds(config, arrival_grid=[], replications=100,
                               seed=self.SEED, delta=self.DELTA)
        assert table.rows == () and calls == [] and workers == [8, 1, 1]

    def _run_script(self, tmp_path, setup):
        """Run a guard-less script calling gen mode after ``setup``, in a subprocess."""
        script = tmp_path / "table.py"
        script.write_text(
            "import os, sys\n"
            "from cfbounds.presets import bench_config\n"
            "from cfbounds.verify import compare_bounds\n"
            f"{setup}\n"
            f"table = compare_bounds(bench_config(), arrival_grid={self.GRID!r},\n"
            f"                       replications={self.R}, seed={self.SEED}, delta={self.DELTA})\n"
            "print(repr(table.column('gap_quantile')))\n")
        src = os.path.dirname(os.path.dirname(verify.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        return subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              env=env, timeout=60)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the pool forks its workers only on Linux")
    def test_pooled_script_needs_no_main_guard(self, config, shared, tmp_path):
        # a forked worker does not re-run the calling script's top level
        run = self._run_script(tmp_path, "os.sched_getaffinity = lambda pid: {0, 1}")
        assert run.returncode == 0, run.stderr
        quant = 1.0 - 2.0 * self.DELTA
        assert run.stdout.strip() == repr([float(np.quantile(v, quant)) for v in shared])

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the spawned workers are forced through sys.platform")
    def test_spawned_pool_without_main_guard_fails_fast(self, tmp_path):
        # a spawned worker re-runs the script's top level, which tries to
        # start another pool; the call must fail, not hang
        run = self._run_script(tmp_path, "sys.platform = 'darwin'")
        assert run.returncode != 0
        assert "if __name__ == '__main__'" in run.stderr

    @pytest.mark.parametrize("chunk, group", [(1, None), (7, None), (50, None), (50, 3000)])
    def test_chunk_size_not_dividing_replications(self, config, shared, censored,
                                                  monkeypatch, chunk, group):
        # chunks of 1, 7 (not dividing 200) and 50 replications, and groups of
        # about one replication's draws at 5000 arrivals
        monkeypatch.setattr(verify, "_SUP_CHUNK", chunk)
        if group:
            monkeypatch.setattr(verify, "_SUP_GROUP", group)
        stream = SeededRng(self.SEED).substream(2)
        start = 0
        for T, values in zip(self.GRID, shared):
            theta, _, _, (x0, x1, a0, a1, k0, k1) = self._samples(config, T)
            tasks, end = _sup_tasks(stream, start, theta, x0, x1, a0, a1, k0, k1, config.model,
                                    censored)
            draws = k0 + k1
            assert [len(task[2]) for task in tasks] == (
                [chunk] * (self.R // chunk) + [self.R % chunk] * (self.R % chunk > 0))
            assert [task[1] for task in tasks] == [start + int(draws[:lo].sum())
                                                   for lo in range(0, self.R, chunk)]
            assert end == start + int(draws.sum())
            assert list(chain.from_iterable(starmap(_sup_task, tasks))) == values
            start = end
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        quant = 1.0 - 2.0 * self.DELTA
        assert self._table(config).column("gap_quantile") == [
            float(np.quantile(v, quant)) for v in shared]


class TestConfigVariants:
    def test_with_seed_and_grid_replace_one_field(self):
        config = SimulationConfig(population=POP, n=40, theta=7.0, lb=6.0,
                                  epsilon=0.5, arrivals=30, seed=4)
        seeded = _with_seed(config, np.int64(11))
        assert seeded.seed == 11 and type(seeded.seed) is int
        assert seeded.to_dict() == {**config.to_dict(), "seed": 11}
        grown = _with_grid(config, np.int64(500))
        assert grown.arrivals == 500 and type(grown.arrivals) is int
        assert grown.to_dict() == {**config.to_dict(), "arrivals": 500}

    def test_invalid_replacement_still_validated(self):
        with pytest.raises(ValueError):
            _with_grid(fig1_like(), -1)


class TestReportCsvExport:
    def test_single_row_schema(self, tmp_path):
        import csv

        report = CoverageReport.build(10, 1000, 7, 0.1, bound=0.5)
        path = tmp_path / "report.csv"
        report.write_csv(path)
        rows = list(csv.reader(open(path)))
        assert rows[0][0] == "replications"
        assert rows[1][0] == "1000"
        assert rows[1][rows[0].index("verdict")] == "bound-holds"
