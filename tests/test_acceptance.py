"""Acceptance criteria: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Budgets: the slowest criteria (Monte Carlo soundness) stay well inside
their stated runtime limits on commodity hardware.
"""
import hashlib
import math
import time

import mpmath
import numpy as np
import pytest

from cfbounds.censored import (
    MassSpec,
    RegionPartition,
    bound_three_region,
    bound_two_region,
    bound_two_region_apriori,
    censored_term,
    check_prop1,
    check_prop2,
    eta_for_confidence,
)
from cfbounds.classic import dkw_bound
from cfbounds.planar import Boundary2D, Gaussian2D, adjusted_cdf_empirical, bound_2d_three_region, bound_2d_two_region, partition_2d
from cfbounds.presets import (
    BENCH_SEED,
    FIG3_SEED,
    FIG4_SEED,
    bench_config,
    fig1_config,
    fig2_config,
    fig3_curves,
    fig4_band,
    optimize_fig3,
    reproduce,
)
from cfbounds.rng import SeededRng
from cfbounds.stats import EmpiricalCdf, GaussianCdf
from cfbounds.verify import compare_bounds, mc_cdf_deviation, mc_gen_gap, wilson_stderr

mpmath.mp.dps = 40


def report(num: int, name: str, detail: str) -> None:
    print(f"[ACCEPTANCE] criterion {num:2d} ({name}): PASS -- {detail}")


def test_criterion_01_dkw_recovery():
    """Two-region bound with an empty censored region is exactly classical."""
    start = time.perf_counter()
    gen = SeededRng(1001).generator()
    worst = 0.0
    for _ in range(1000):
        n = int(gen.integers(1, 100_000))
        k = int(gen.integers(0, 100_000))
        eta = float(gen.random() * 0.99 + 0.005)
        ours = bound_two_region(RegionPartition(n=n, m=0, k=k),
                                MassSpec.theoretical(0.0), eta).raw
        ref = dkw_bound(n + k, eta).raw
        worst = max(worst, abs(ours - ref))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(1, "classical recovery", f"max |diff| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_three_region_reduction():
    """Exploration bound collapses to the two-region bound when lb = theta."""
    start = time.perf_counter()
    gen = SeededRng(1002).generator()
    worst = 0.0
    for _ in range(1000):
        n = int(gen.integers(2, 5000))
        m = int(gen.integers(1, n))
        k = int(gen.integers(0, 5000))
        alpha = float(gen.random() * 0.9 + 0.05)
        eta = float(gen.random() * 0.9 + 0.01)
        eps = float(gen.random())
        three = bound_three_region(
            RegionPartition(n=n, m=m, l=m, k=k),
            MassSpec.theoretical(alpha, alpha), eps, eta).raw
        two = bound_two_region(RegionPartition(n=n, m=m, k=k),
                               MassSpec.theoretical(alpha), eta).raw
        worst = max(worst, abs(three - two))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(2, "reduction identity", f"max |diff| = {worst:.2e}, {elapsed:.2f}s")


def _fig3_masses():
    pop = GaussianCdf(7, 3)
    return pop, float(pop.cdf(8.0)), float(pop.cdf(6.0))


def test_criterion_03_exploration_monotonicity():
    """Bound nonincreasing in the exploration frequency on the staged config."""
    _, alpha, beta = _fig3_masses()
    n, wait = 8000, 40_000
    part = RegionPartition(n=n, m=int(round(n * alpha)), l=int(round(n * beta)),
                           k=int(round(wait * (1 - alpha))))
    k1_max = int(round(wait * (alpha - beta)))
    eps_grid = np.round(np.arange(0.0, 1.0001, 0.05), 6)
    result = check_prop2(part, MassSpec.theoretical(alpha, beta), 0.015, eps_grid, k1_max)
    assert result.ok, f"violation at {result.first_violation}"
    report(3, "monotone in exploration",
           f"{len(eps_grid)} grid points, span {result.values[0]:.3e} -> {result.values[-1]:.3e}")


def test_criterion_04_threshold_monotonicity():
    """Bound nondecreasing in the threshold under proportional growth."""
    pop = GaussianCdf(7, 3)
    quantiles = np.linspace(0.25, 0.75, 21)
    thetas = np.asarray(pop.inverse(quantiles))
    result = check_prop1(pop, 8000, thetas, c=10.0, eta=0.015)
    assert result.precondition_met, "growth factor below the required level"
    assert result.ok, f"violation at {result.first_violation}"
    report(4, "monotone in threshold",
           f"theta in [{thetas[0]:.3f}, {thetas[-1]:.3f}], "
           f"bounds {result.values[0]:.3e} -> {result.values[-1]:.3e}")


def test_criterion_05_exploration_frequency_curves():
    """Seed-averaged curves: crossing location and convergence level."""
    start = time.perf_counter()
    curves = fig3_curves(FIG3_SEED)
    elapsed = time.perf_counter() - start
    assert curves.crossing is not None
    assert 0.05 <= curves.crossing <= 0.20, curves.crossing
    diff = curves.diff_at(0.25)
    assert diff <= 0.02, diff
    assert elapsed < 120.0
    report(5, "frequency curves",
           f"crossing at eps={curves.crossing}, |B_e(0.25)-B(lb)|={diff:.4f}, {elapsed:.1f}s")


def test_criterion_06_optimizer_frequency():
    """Cost-aware optimizer picks the documented exploration frequency."""
    start = time.perf_counter()
    result = optimize_fig3(FIG3_SEED)
    elapsed = time.perf_counter() - start
    assert abs(result["eps_star"] - 0.1175) <= 0.025, result["eps_star"]
    assert elapsed < 120.0
    report(6, "optimizer frequency",
           f"eps* = {result['eps_star']:.4f} (target 0.1175 +/- 0.025), {elapsed:.1f}s")


def test_criterion_07_expected_bound_enumeration():
    """Waiting-time bound equals exact enumeration; huge waits stay finite."""
    gen = SeededRng(1007).generator()
    worst = 0.0
    for _ in range(25):
        n = int(gen.integers(2, 200))
        m = int(gen.integers(1, n))
        wait = int(gen.integers(0, 21))
        alpha = float(gen.random() * 0.9 + 0.05)
        eta = float(gen.random() * 0.6 + 0.05)
        part = RegionPartition(n=n, m=m)
        got = bound_two_region_apriori(part, MassSpec.theoretical(alpha), eta, wait).raw
        u = abs(alpha - m / n)
        denom = min(1 - alpha, (n - m) / n)
        eff = eta - 2 * u
        total = mpmath.mpf(0)
        for k in range(wait + 1):
            pmf = (mpmath.binomial(wait, k) * mpmath.mpf(1 - alpha) ** k
                   * mpmath.mpf(alpha) ** (wait - k))
            if eff <= 0:
                total += pmf
            else:
                total += pmf * 2 * mpmath.exp(
                    -2 * (n - m + k) * mpmath.mpf(eff) ** 2 / mpmath.mpf(denom) ** 2)
        want = float(total) + censored_term(part, MassSpec.theoretical(alpha), eta).raw
        worst = max(worst, abs(got - want))
    assert worst <= 1e-10

    pop, alpha, _ = _fig3_masses()
    n = 8000
    part = RegionPartition(n=n, m=int(round(n * alpha)))
    mass = MassSpec.theoretical(alpha)
    big = bound_two_region_apriori(part, mass, 0.015, 40_000)
    assert math.isfinite(big.raw)
    floor = censored_term(part, mass, 0.015).raw
    ceil = bound_two_region(part, mass, 0.015).raw
    assert floor <= big.raw <= ceil + 1e-15
    report(7, "expected-wait bound",
           f"enumeration max |diff| = {worst:.2e}; wait=40000 value {big.raw:.6f} "
           f"in [{floor:.6f}, {ceil:.6f}]")


def test_criterion_08_mc_soundness_cdf():
    """Deviation-event frequency never beats the bound (both region modes)."""
    start = time.perf_counter()
    pop = GaussianCdf(7, 1)
    alpha = float(pop.cdf(7.0))
    beta = float(pop.cdf(6.0))
    details = []

    part1 = RegionPartition(n=50, m=24)
    bound1 = lambda e: bound_two_region(part1, MassSpec.theoretical(alpha), e)
    part2 = RegionPartition(n=50, m=27, l=7)
    bound2 = lambda e: bound_three_region(part2, MassSpec.theoretical(alpha, beta), 0.5, e)
    cases = [("two-region", fig1_config(), part1, bound1),
             ("three-region", fig2_config(), part2, bound2)]
    for name, config, part, bound_fn in cases:
        for delta in (0.05, 0.1):
            eta = eta_for_confidence(bound_fn, delta)
            assert eta is not None
            rep = mc_cdf_deviation(config, eta, 100_000, 1008, condition=part)
            assert rep.frequency <= rep.bound + 3 * rep.stderr, rep
            assert rep.holds
            details.append(f"{name}@{delta}: freq={rep.frequency:.4f} <= {rep.bound:.3f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(8, "deviation soundness", "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_09_mc_soundness_generalization():
    """Generalization-gap exceedance stays inside the failure budget."""
    start = time.perf_counter()
    delta = 0.05
    rep = mc_gen_gap(bench_config(arrivals=50_000), 10_000, 1009, delta=delta)
    assert rep.bound == pytest.approx(2 * delta)
    assert rep.frequency <= rep.bound + 3 * rep.stderr
    assert rep.holds
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(9, "generalization soundness",
           f"exceedance {rep.frequency:.4f} <= {rep.bound:.2f} + 3se, "
           f"mean gap {rep.meta['mean_gap']:.4f} vs mean bound {rep.meta['mean_bound']:.4f}, "
           f"{elapsed:.1f}s")


# sha256 of the bench preset's bench_bounds.csv (`cfbounds reproduce bench`)
BENCH_CSV_SHA256 = "9415ecef38bfe0ae5ee98f9f329310af3cc56ef62da82bbc84a45bdff82dbc4f"

# sha256 of every file the cheap presets write (`cfbounds reproduce <name>`)
PRESET_SHA256 = {
    "fig1_curves.csv": "ae90b2be3316bf2cc905f775663e408a263d6141f7d1b546df1758cdb49fc476",
    "fig2_curves.csv": "224b70168df6b08cfbdac9f4f709fcde38e5479271cbe1d4230caf3d1d6e0008",
    "fig3_bounds.csv": "e05e0efa6e8970033e2a79f44dbb2afec5870617c7ba941415f5b79843d0fa68",
    "fig4_band_eps0.0.csv": "04e9099a94794d4c9d5d29caf1903099f0c5ff1c0b73e7f04e20f578e3c8e71c",
    "fig4_band_eps0.5.csv": "05c173392fd7ee58f869a527b39426c4e5a897d0173e9137912c29cf6a7c7393",
    "fig4_band_eps1.0.csv": "c793bb861bd8221a7dce710f346231fbfde7408ba2f0db5d5ec6a594aae36e91",
    "appendixJ_bands.csv": "5020a90bf619f86a5e0100c45dbda069bd5234efcfb149cb17f42c0b443ea9e3",
}


def test_cheap_presets_are_byte_identical(tmp_path):
    for name in ("fig1", "fig2", "fig3", "fig4", "appendixJ"):
        reproduce(name, tmp_path)
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == PRESET_SHA256


def test_criterion_10_benchmark_crossings(tmp_path):
    """IID-world benchmarks undershoot the realized uniform risk deviation."""
    start = time.perf_counter()
    grid = [0, 10_000, 20_000, 30_000, 40_000, 50_000]
    table = compare_bounds(bench_config(), arrival_grid=grid, replications=1000,
                           seed=BENCH_SEED, delta=0.015)
    # the same table as the bench preset, so the same bytes
    table.write_csv(tmp_path / "bench_bounds.csv")
    digest = hashlib.sha256((tmp_path / "bench_bounds.csv").read_bytes()).hexdigest()
    assert digest == BENCH_CSV_SHA256
    truth = table.column("gap_quantile")
    crossings = {}
    for name in ("hoeffding", "gc", "vc_gen"):
        vals = table.column(name)
        crossed = [t for t, b, q in zip(grid, vals, truth) if b < q]
        assert crossed, f"{name} never dropped below the measured gap"
        crossings[name] = crossed[0]
    ours = table.column("ours")
    assert all(o >= q for o, q in zip(ours, truth)), "our bound dipped below the gap"
    elapsed = time.perf_counter() - start
    report(10, "benchmark crossings",
           f"first crossings {crossings}; ours stays above at all {len(grid)} points, "
           f"{elapsed:.1f}s")


def test_criterion_11_band_enclosure():
    """Confidence bands contain the true CDF; widths shrink with exploration."""
    pop = GaussianCdf(7, 1)
    xs = np.round(np.arange(3.0, 11.0001, 0.005), 6)
    widths = []
    for eps in (0.0, 0.5, 1.0):
        band = fig4_band(eps, FIG4_SEED, xs=xs)
        f = band["f_true"]
        assert np.all(f >= band["lo"] - 1e-12), f"lower band breach at eps={eps}"
        assert np.all(f <= band["hi"] + 1e-12), f"upper band breach at eps={eps}"
        in_explore = (xs >= 6.0) & (xs < 7.0)
        widths.append(float(np.mean(band["hi"][in_explore] - band["lo"][in_explore])))
    assert widths[0] >= widths[1] - 1e-12 >= widths[2] - 2e-12, widths
    report(11, "band enclosure",
           f"enclosed at {len(xs)} points; explore-region widths "
           f"{widths[0]:.3f} >= {widths[1]:.3f} >= {widths[2]:.3f}")


def test_criterion_12_planar_soundness():
    """Planar bound covers the projected deviation; reductions are exact."""
    cloud = Gaussian2D(mean=(7.0, 7.0), cov=((1.0, 0.0), (0.0, 1.0)))
    boundary = Boundary2D(w=(1.0, 1.0), b=14.0)
    proj_cdf = cloud.projection(boundary.w)
    alpha = float(proj_cdf.cdf(14.0))
    n, m = 100, 50
    part = RegionPartition(n=n, m=m)

    # projection-reduction identities on sampled clouds
    worst = 0.0
    for seed in range(50):
        pts = cloud.sample(60, SeededRng(4000 + seed))
        proj = boundary.project(pts)
        p2 = partition_2d(pts, boundary)
        worst = max(worst, abs(p2.m - int(np.sum(proj < 14.0))))
        ecdf = EmpiricalCdf(proj)
        for b_prime in (13.0, 14.0, 15.5):
            worst = max(worst, abs(adjusted_cdf_empirical(pts, boundary, b_prime)
                                   - ecdf.cdf(b_prime)))
    gen = SeededRng(4100).generator()
    for _ in range(200):
        nn = int(gen.integers(4, 400))
        mm = int(gen.integers(1, nn))
        kk = int(gen.integers(0, 300))
        a = float(gen.random() * 0.9 + 0.05)
        e = float(gen.random() * 0.85 + 0.05)
        pp = RegionPartition(n=nn, m=mm, k=kk)
        two_d = bound_2d_two_region(pp, a, e)
        one_d = bound_two_region(pp, MassSpec.theoretical(a), e)
        if not one_d.trivial and not two_d.trivial:
            worst = max(worst, abs(two_d.raw - 2.0 * one_d.raw))
        p3 = RegionPartition(n=nn, m=mm, l=mm, k=kk)
        collapse = bound_2d_three_region(p3, a, a, e, e)
        worst = max(worst, abs(collapse.raw - two_d.raw))
    assert worst <= 1e-12

    # Monte Carlo: deviation of the line-mass estimate, conditioned on the
    # realized split, against the doubled-constant bound
    delta = 0.2
    bound_fn = lambda e: bound_2d_two_region(part, alpha, e)
    eta = eta_for_confidence(bound_fn, delta)
    assert eta is not None
    R = 10_000
    gen = SeededRng(1012).generator()
    ortho_sd = math.sqrt(2.0)
    sup = np.full(R, abs(alpha - m / n))
    for (lo_p, hi_p, count, w_lo) in ((0.0, alpha, m, 0.0), (alpha, 1.0, n - m, m / n)):
        u = gen.random((R, count))
        pvals = np.asarray(proj_cdf.inverse(lo_p + (hi_p - lo_p) * u))
        ortho = ortho_sd * np.asarray(GaussianCdf(0, 1).inverse(gen.random((R, count))))
        pts_x1 = 0.5 * (pvals + ortho)
        pts_x2 = 0.5 * (pvals - ortho)
        proj = pts_x1 + pts_x2            # w=(1,1) projection of the cloud
        fvals = np.sort(np.asarray(proj_cdf.cdf(proj)), axis=1)
        width = (n - m) / n if lo_p else m / n
        hi = w_lo + width * (np.arange(1, count + 1) / count)
        lo = w_lo + width * (np.arange(count) / count)
        dev = np.maximum(np.abs(fvals - hi), np.abs(fvals - lo)).max(axis=1)
        sup = np.maximum(sup, dev)
    freq = float(np.mean(sup >= eta))
    bound_val = bound_fn(eta).probability
    se = wilson_stderr(int(freq * R), R)
    assert freq <= bound_val + 3 * se
    report(12, "planar soundness",
           f"identities max |diff| = {worst:.2e}; MC freq {freq:.4f} <= "
           f"bound {bound_val:.3f} + 3se")
