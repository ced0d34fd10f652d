"""Monte Carlo harness: Wilson intervals, kernels, coverage reports."""
import os
from itertools import chain, starmap

import numpy as np
import pytest

import cfbounds.verify as verify
from cfbounds.censored import RegionPartition
from cfbounds.rng import SeededRng
from cfbounds.simulate import SimulationConfig
from cfbounds.stats import GaussianCdf, MixtureModel
from cfbounds.verify import (
    CoverageReport,
    _batch_sup_conditioned,
    _gen_gap_samples,
    _sup_chunk,
    _sup_risk_gap,
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


class TestUnconditionedPath:
    def test_runs_with_arrivals_and_reports_mean_bound(self):
        config = SimulationConfig(population=POP, n=40, theta=7.0, lb=6.0,
                                  epsilon=0.5, arrivals=30, seed=4)
        report = mc_cdf_deviation(config, 0.35, 120, 8)
        assert report.meta["mode"] == "unconditioned"
        assert 0.0 <= report.frequency <= 1.0
        assert report.holds


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


class TestCompareBounds:
    def test_cdf_mode_single_point(self):
        config = fig1_like()
        table = compare_bounds(config, eta_grid=[0.2], replications=500, seed=5)
        assert table.columns[0] == "eta"
        (row,) = table.rows
        assert 0.0 <= row[1] <= 1.0             # frequency
        assert row[2] <= 1.0                     # ours, clamped

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
        with pytest.raises(ValueError):
            compare_bounds(fig1_like(), replications=100, seed=0)

    def test_vc_gen_eta_decreasing(self):
        assert vc_gen_eta(100, 0.05) > vc_gen_eta(10_000, 0.05)
        with pytest.raises(ValueError):
            vc_gen_eta(0, 0.05)


def _sup_risk_gap_oracle(theta, x0, x1, k0, k1, a0, a1, model, gen):
    """Direct searchsorted evaluation of every left and right limit."""
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
    best = 0.0
    for side in ("left", "right"):
        diff = (model.p1 * f1 - w1 * fhat(1, side)) - (model.p0 * f0 - w0 * fhat(0, side)) \
            + (model.p0 - w0)
        best = max(best, float(np.max(np.abs(diff))))
    return best


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


class TestSupRiskGapOracle:
    MODEL = MixtureModel(p1=0.5, cdf0=GaussianCdf(9, 1), cdf1=GaussianCdf(10, 1))

    def _check(self, theta, x0, x1, k0, k1, model=None, seed=0):
        model = model or self.MODEL
        a0, a1 = float(model.cdf0.cdf(theta)), float(model.cdf1.cdf(theta))
        gen_new, gen_old = SeededRng(seed).generator(), SeededRng(seed).generator()
        got = _sup_risk_gap(theta, x0, x1, k0, k1, a0, a1, model, gen_new)
        want = _sup_risk_gap_oracle(theta, x0, x1, k0, k1, a0, a1, model, gen_old)
        assert got == want
        assert gen_new.bit_generator.state == gen_old.bit_generator.state
        return got

    def _initial(self, seed, n0=50, n1=50):
        gen = SeededRng(seed).generator()
        return gen.normal(9.0, 1.0, n0), gen.normal(10.0, 1.0, n1)

    @pytest.mark.parametrize("arrivals", [0, 2_000, 20_000])
    def test_bench_mixture(self, arrivals):
        from cfbounds.presets import bench_config

        config = _with_grid(bench_config(), arrivals)
        theta, _, _, (x0, x1, a0, a1, k0, k1) = _gen_gap_samples(config, 200, 3, 0.015)
        gen_new = SeededRng(3).substream(2).generator()
        gen_old = SeededRng(3).substream(2).generator()
        for r in range(200):
            args = (theta[r], x0[r], x1[r], int(k0[r]), int(k1[r]),
                    float(a0[r]), float(a1[r]), config.model)
            assert _sup_risk_gap(*args, gen_new) == _sup_risk_gap_oracle(*args, gen_old)
            assert gen_new.bit_generator.state == gen_old.bit_generator.state

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


def _shared_stream_sups(config, grid, replications, seed, delta):
    """Truth-column values with every draw taken from one generator in loop order."""
    gen = SeededRng(seed).substream(2).generator()
    out = []
    for T in grid:
        theta, _, _, (x0, x1, a0, a1, k0, k1) = _gen_gap_samples(
            _with_grid(config, T), replications, seed, delta)
        out.append([_sup_risk_gap(theta[r], x0[r], x1[r], int(k0[r]), int(k1[r]),
                                  float(a0[r]), float(a1[r]), config.model, gen)
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

    def test_replay_one_replication_at_its_offset(self, config, shared):
        stream = SeededRng(self.SEED).substream(2)
        start = 0
        for T, values in zip(self.GRID, shared):
            theta, _, _, (x0, x1, a0, a1, k0, k1) = self._samples(config, T)
            draws = k0 + k1
            if T == 0:
                assert not draws.any()            # the next grid point starts at 0
            for r in (0, 1, 117, self.R - 1):
                one = slice(r, r + 1)
                got = _sup_chunk(stream, start + int(draws[:r].sum()), theta[one], x0[one],
                                 x1[one], a0[one], a1[one], k0[one], k1[one], config.model)
                assert got == [values[r]]
            start += int(draws.sum())

    def test_chunk_size_not_dividing_replications(self, config, shared, monkeypatch):
        monkeypatch.setattr(verify, "_SUP_CHUNK", 7)
        stream = SeededRng(self.SEED).substream(2)
        start = 0
        for T, values in zip(self.GRID, shared):
            theta, _, _, (x0, x1, a0, a1, k0, k1) = self._samples(config, T)
            tasks, end = _sup_tasks(stream, start, theta, x0, x1, a0, a1, k0, k1, config.model)
            draws = k0 + k1
            assert [len(task[2]) for task in tasks] == [7] * 28 + [4]
            assert [task[1] for task in tasks] == [start + int(draws[:lo].sum())
                                                   for lo in range(0, self.R, 7)]
            assert end == start + int(draws.sum())
            assert list(chain.from_iterable(starmap(_sup_chunk, tasks))) == values
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
