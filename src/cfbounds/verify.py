"""Monte Carlo coverage harness.

Estimates the probabilities that the deviation bounds claim to control
(uniform CDF deviation events, generalization gaps) over seeded
replications, compares the empirical frequencies against the bounds, and
emits coverage reports.  A bound "fails" only when the frequency exceeds
it by more than three Wilson standard errors; since the bounds are
provable, a stable failure indicates an implementation bug, which makes
this module the regression tripwire for the whole package.

The deviation theorems are statements conditional on the realized region
counts, so the CDF-deviation verifier conditions its replications on the
configured partition (drawing each region's samples from the restricted
distribution).  The generalization verifier re-realizes everything per
replication and checks the per-replication bound at its stated
confidence.
"""
from __future__ import annotations

import copy
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, replace
from functools import partial
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .censored import (
    MassSpec,
    RegionPartition,
    bound_two_region,
    eta_for_confidence,
)
from .classic import dkw_eta, gc_eta, hoeffding_eta
from .generalization import gen_bound_from_counts, threshold_risk, train_thresholds
from .rng import SeededRng, splitmix64
from .simulate import SimulationConfig, _count, distinct_text, finalize, run_simulation
from .stats import GaussianCdf, sup_deviation

__all__ = [
    "CoverageReport",
    "TableReport",
    "wilson_interval",
    "wilson_stderr",
    "mc_cdf_deviation",
    "mc_gen_gap",
    "compare_bounds",
    "vc_gen_eta",
]


def wilson_interval(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if total < 1:
        raise ValueError("need at least one trial")
    s, n = float(successes), float(total)
    center = (s + z * z / 2.0) / (n + z * z)
    half = (z / (n + z * z)) * math.sqrt(s * (n - s) / n + z * z / 4.0)
    return max(0.0, center - half), min(1.0, center + half)


def wilson_stderr(successes: int, total: int) -> float:
    """Half-width of the z=1 Wilson interval; a never-zero stderr proxy."""
    lo, hi = wilson_interval(successes, total, z=1.0)
    return 0.5 * (hi - lo)


def _verdict(freq: float, bound: float, stderr: float) -> str:
    if freq <= bound:
        return "bound-holds"
    if freq <= bound + 3.0 * stderr:
        return "bound-violated-within-noise"
    return "bound-violated"


@dataclass(frozen=True)
class CoverageReport:
    """Empirical event frequency versus a claimed probability bound."""

    replications: int
    seed: int
    threshold: float            # the eta (or delta) defining the event
    successes: int
    frequency: float
    wilson_lo: float
    wilson_hi: float
    stderr: float
    bound: float
    verdict: str
    meta: dict = field(default_factory=dict)

    @classmethod
    def build(cls, successes: int, replications: int, seed: int, threshold: float,
              bound: float, meta: Optional[dict] = None) -> "CoverageReport":
        freq = successes / replications
        lo, hi = wilson_interval(successes, replications)
        se = wilson_stderr(successes, replications)
        return cls(
            replications=replications,
            seed=seed,
            threshold=threshold,
            successes=successes,
            frequency=freq,
            wilson_lo=lo,
            wilson_hi=hi,
            stderr=se,
            bound=bound,
            verdict=_verdict(freq, bound, se),
            meta=dict(meta or {}),
        )

    @property
    def holds(self) -> bool:
        return self.verdict != "bound-violated"

    _CSV_FIELDS = ("replications", "seed", "threshold", "successes", "frequency",
                   "wilson_lo", "wilson_hi", "stderr", "bound", "verdict")

    def to_json(self) -> str:
        out = {k: getattr(self, k) for k in (*self._CSV_FIELDS, "meta")}
        return json.dumps(out, sort_keys=True)

    def write_csv(self, path) -> None:
        write_columns(path, self._CSV_FIELDS, [[getattr(self, k)] for k in self._CSV_FIELDS])


@dataclass(frozen=True)
class TableReport:
    """Comparison table with a stable schema: named columns, one tuple per row."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    meta: dict = field(default_factory=dict)

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def write_csv(self, path) -> None:
        write_columns(path, self.columns, [self.column(name) for name in self.columns])


def write_columns(path, header: Sequence[str], columns) -> None:
    """Write equal-length ``columns`` under ``header`` as CSV at ``path``.

    The bytes are those of ``csv.writer`` with its defaults, for cells
    that need no quoting: a header row, cells joined by ``,``, every line
    ended by ``\\r\\n``, floats as Python ``repr`` and every other value
    as ``str`` of its ``.tolist()`` item.  Each column goes through
    ``np.asarray``, so one that mixes ints and floats is written as
    floats.  A float64 column formats each distinct value once
    (``distinct_text``, which ``trace.json`` shares); empirical CDFs are step
    functions, so their columns repeat most values.
    """
    cells = []
    for col in map(np.asarray, columns):
        if col.dtype == np.float64:
            cells.append(distinct_text(col).tolist())
        else:
            cells.append(list(map(str, col.tolist())))
    lines = [",".join(header), *map(",".join, zip(*cells))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


# ---------------------------------------------------------------------------
# CDF deviation events
# ---------------------------------------------------------------------------


_SUP_GROUP = 1 << 18    # draws per probability-space group, doubles of a chunk's arrays: 2 MB


def _replicate(kernel, args, chunk: int, gen: np.random.Generator, pool=None, draws=None):
    """Run ``kernel`` over the replications, ``chunk`` consecutive ones at a time.

    This is the one stream layout of the Monte Carlo referees.  Each array
    of ``args`` holds one row per replication, and chunk ``rows`` runs
    ``kernel(g, *(a[rows] for a in args))``, where g is a generator at the
    chunk's offset: replication r's draws, one 64-bit PCG64 output per
    double, come right after those of replication r - 1, so a chunk starts
    at ``gen``'s position plus the draws of the replications before it.  A
    referee that reads one stream in several passes (region by region, grid
    point by grid point) makes one call per pass with the same generator.
    The draws, and so the results, do not depend on the chunk size or on
    where a chunk ran.

    Without ``pool`` each chunk runs now, in the calling process and in
    order, with ``g = gen``.  With ``pool`` (an executor), replication r
    draws ``draws[r]`` doubles: each chunk is submitted with a copy of
    ``gen`` at the chunk's offset, and ``gen`` then jumps ahead past the
    chunk's draws (PCG64 does so in O(log n) steps); a chunk's result is
    waited for when it is reached.  Either way an iterator over the
    chunks' results, in replication order, is returned, and ``gen`` ends
    after the last replication's draws.

    A kernel that draws ``width`` doubles per replication keeps about eight
    arrays of a chunk's shape alive at once (draws, scores, sort order,
    training counts); with ``chunk = max(1, _SUP_GROUP // 8 // width)`` they
    stay within the ``_SUP_GROUP`` doubles of a core's cache.
    """
    chunks = [slice(lo, lo + chunk) for lo in range(0, len(args[0]), chunk)]
    if pool is None:
        return iter([kernel(gen, *(a[rows] for a in args)) for rows in chunks])
    futures = []
    for rows in chunks:
        futures.append(pool.submit(kernel, copy.deepcopy(gen), *(a[rows] for a in args)))
        gen.bit_generator.advance(int(np.sum(draws[rows])))
    return (future.result() for future in futures)


class _InCaller:
    """An executor whose submitted call runs in the calling process when asked for."""

    def submit(self, fn, *args):
        return SimpleNamespace(result=partial(fn, *args))


def _batch_sup_conditioned(masses: Sequence[float], counts: Sequence[int],
                           replications: int, gen: np.random.Generator) -> np.ndarray:
    """Uniform deviation of the region-weighted estimator, conditioned on counts.

    Regions carry theoretical masses ``masses`` (summing to 1) and exactly
    ``counts`` samples each.  Draws use the probability integral transform:
    a region sample's CDF value is uniform on the region's mass interval,
    so the deviation can be computed from sorted uniforms alone.  With the
    counts realized, the estimator weight of region i is counts[i]/n.

    Region by region, each replication draws its region's ``counts[i]``
    doubles from ``gen``, and they are sorted and scored one chunk of
    replications at a time (``_replicate``).
    """
    masses = np.asarray(masses, dtype=float)
    counts = np.asarray(counts, dtype=int)
    n = int(counts.sum())
    mass_edges = np.concatenate([[0.0], np.cumsum(masses)])
    weight_edges = np.concatenate([[0.0], np.cumsum(counts / n)])
    sup = np.zeros(replications)
    # interior boundary mismatches are approached one-sidedly
    for edge_mass, edge_weight in zip(mass_edges[1:-1], weight_edges[1:-1]):
        sup = np.maximum(sup, abs(edge_mass - edge_weight))
    for i, c in enumerate(counts):
        if c == 0:
            continue
        w = weight_edges[i + 1] - weight_edges[i]
        hi = weight_edges[i] + w * (np.arange(1, c + 1) / c)
        lo = weight_edges[i] + w * (np.arange(c) / c)

        def region(gen, sup):
            """Raise the rows ``sup`` of a chunk to its deviations in region i."""
            # the sorted draws become their CDF values in place
            fvals = gen.random((len(sup), c))
            fvals.sort(axis=1)
            fvals *= masses[i]
            fvals += mass_edges[i]
            dev = np.abs(fvals - hi)
            fvals -= lo
            np.maximum(dev, np.abs(fvals, out=fvals), out=dev)
            np.maximum(sup, dev.max(axis=1), out=sup)

        _replicate(region, (sup,), max(1, _SUP_GROUP // 8 // c), gen)
    return sup


def mc_cdf_deviation(config: SimulationConfig, eta: float, replications: int,
                     seed: int, condition: Optional[RegionPartition] = None,
                     ) -> CoverageReport:
    """Estimate P(sup |F - F_hat| >= eta) and compare it to the bound.

    With ``condition`` given (no arrivals, and no new samples in it),
    every replication draws exactly the conditioned initial counts per
    region from the restricted distributions, matching the bounds'
    conditional statements; the bound is evaluated once at that
    partition.  Otherwise each replication re-realizes counts via the
    full simulator and the frequency is compared against the mean of the
    per-replication bounds.
    """
    if replications < 100:
        raise ValueError("need at least 100 replications")
    if not config.pooled:
        raise ValueError("CDF-deviation verification runs on pooled configs")

    if condition is not None:
        if config.arrivals:
            raise ValueError("conditioned verification requires zero arrivals")
        if np.any(condition.k) or np.any(condition.k1):
            raise ValueError("conditioned verification draws only initial samples; "
                             "pass a condition with k = k1 = 0")
        part = condition
        bound = config.deviation_bound(part, eta)
        # without lb the region below it is empty (beta = l = 0), and an
        # empty region draws nothing
        alpha, beta = config._bound_masses.alpha, config._bound_masses.beta
        gen = SeededRng(seed).substream(0).generator()
        sup = _batch_sup_conditioned((beta, alpha - beta, 1.0 - alpha),
                                     (part.l, part.m - part.l, part.n - part.m),
                                     replications, gen)
        successes = int(np.sum(sup >= eta))
        return CoverageReport.build(successes, replications, seed, eta,
                                    bound.probability,
                                    meta={"mode": "conditioned", "eta": eta})

    successes = 0
    parts = []
    run_seed0 = splitmix64(seed)
    for r in range(replications):
        final = finalize(run_simulation(replace(config, seed=int(run_seed0 ^ r))))[None]
        successes += sup_deviation(config.population, final.estimate) >= eta
        parts.append(astuple(final.part))
    # one bound call over every replication's counts
    part = RegionPartition(*(np.array(counts) for counts in zip(*parts)))
    bounds = config.deviation_bound(part, eta).probability
    return CoverageReport.build(int(successes), replications, seed, eta,
                                float(np.mean(bounds)),
                                meta={"mode": "unconditioned", "eta": eta})


# ---------------------------------------------------------------------------
# Generalization gap events
# ---------------------------------------------------------------------------


def _eta_two_region_vec(n: int, m, k, alpha, delta: float) -> np.ndarray:
    """Per-replication inverse of the two-region bound; 1.0 where unreachable.

    The deterministic cap sup <= 1 makes eta = 1 a valid fallback bound
    whenever the requested confidence lies below the censored-region
    floor.
    """
    part = RegionPartition(n=n, m=m, k=k)
    mass = MassSpec.theoretical(alpha)
    eta = eta_for_confidence(lambda e: bound_two_region(part, mass, e), delta)
    return np.where(np.isnan(eta), 1.0, eta)


def _initial_samples(config: SimulationConfig, replications: int, seed: int,
                     x0: Optional[np.ndarray] = None, x1: Optional[np.ndarray] = None):
    """Per-replication scalars of the initial samples.

    Each replication draws its ``n0 + n1`` doubles from
    ``SeededRng(seed).substream(0)``, label 0's first, and they are scored,
    sorted and trained one chunk of replications at a time
    (``_replicate``).  Returns the thresholds, the gaps |R - R_emp| at
    them, F0 and F1 at the thresholds, and the per-label counts below
    them.  The sorted samples are kept in the ``(replications, n)`` arrays
    ``x0`` and ``x1`` when given, and dropped chunk by chunk otherwise.
    ``config.arrivals`` does not enter.
    """
    model = config.model
    n0, n1 = config.n0, config.n1
    theta, remp = np.empty(replications), np.empty(replications)
    m0, m1 = np.empty(replications, dtype=np.intp), np.empty(replications, dtype=np.intp)

    def block(gen, theta, remp, m0, m1, s0=None, s1=None):
        """Fill a chunk's rows of the outputs, and of the samples if given."""
        size = len(theta)
        s0 = np.empty((size, n0)) if s0 is None else s0
        s1 = np.empty((size, n1)) if s1 is None else s1
        u = gen.random((size, n0 + n1))
        s0[...] = model.cdf0.inverse(u[:, :n0])
        s1[...] = model.cdf1.inverse(u[:, n0:])
        del u       # freeing the draws lowers the peak memory of training
        s0.sort(axis=1)
        s1.sort(axis=1)
        if config.theta is None:
            theta[...], remp[...] = train_thresholds(s0, s1)
        else:
            theta[...] = float(config.theta)
        m0[...] = np.sum(s0 < theta[:, None], axis=1)
        m1[...] = np.sum(s1 < theta[:, None], axis=1)
        if config.theta is not None:
            n = n0 + n1
            remp[...] = threshold_risk(n0 / n, n1 / n, m0 / n0, m1 / n1)

    kept = () if x0 is None else (x0, x1)
    _replicate(block, (theta, remp, m0, m1, *kept), max(1, _SUP_GROUP // 8 // (n0 + n1)),
               SeededRng(seed).substream(0).generator())
    a0 = np.asarray(model.cdf0.cdf(theta), dtype=float)
    a1 = np.asarray(model.cdf1.cdf(theta), dtype=float)
    gaps = np.abs(threshold_risk(model.p0, model.p1, a0, a1) - remp)
    return theta, gaps, a0, a1, m0, m1


def _sorted_samples(config: SimulationConfig, replications: int, seed: int):
    """``_initial_samples`` and the sorted samples x0 and x1 themselves, one
    replication per row, which the truth column needs."""
    x0, x1 = np.empty((replications, config.n0)), np.empty((replications, config.n1))
    return _initial_samples(config, replications, seed, x0, x1), x0, x1


def _gen_gap_samples(config: SimulationConfig, replications: int, seed: int,
                     delta: float, initial=None):
    """Per-replication trained thresholds, gaps, and assembled bounds.

    ``initial`` is ``_initial_samples(config, replications, seed)``, computed
    here when not given; a grid over ``config.arrivals`` can share one.
    Returns the thresholds, the gaps, the bounds and ``(a0, a1, k0, k1)``:
    F0 and F1 at the thresholds and each label's admitted-arrival count.
    """
    model = config.model
    n0, n1 = config.n0, config.n1
    if initial is None:
        initial = _initial_samples(config, replications, seed)
    theta, gaps, a0, a1, m0, m1 = initial
    bin_gen = SeededRng(seed).substream(1).generator()
    T = config.arrivals
    t1 = bin_gen.binomial(T, model.p1, size=replications) if T else np.zeros(replications, dtype=int)
    k1 = bin_gen.binomial(t1, 1.0 - a1) if T else np.zeros(replications, dtype=int)
    k0 = bin_gen.binomial(T - t1, 1.0 - a0) if T else np.zeros(replications, dtype=int)

    eta0 = _eta_two_region_vec(n0, m0, k0, a0, delta)
    eta1 = _eta_two_region_vec(n1, m1, k1, a1, delta)
    totals = gen_bound_from_counts(n0, n1, model.p1, {0: eta0, 1: eta1}, delta).total
    return theta, gaps, totals, (a0, a1, k0, k1)


def mc_gen_gap(config: SimulationConfig, replications: int, seed: int,
               delta: float = 0.05) -> CoverageReport:
    """Frequency of |expected - empirical| risk at the trained threshold
    exceeding its bound.

    Each replication draws fresh initial data (``_initial_samples``, whose
    stream ``_replicate`` lays out), trains (or takes) the threshold,
    realizes the admitted-arrival counts, assembles the
    generalization bound with per-label deviation inversions at delta,
    and checks the realized gap at that one threshold against it.  The
    bound covers the uniform gap sup_theta |R - R_emp|, which exceeds it
    at least as often, so this is a weaker check than the bound's claim.
    The exceedance frequency is compared to the claimed failure budget
    2*delta.
    """
    if replications < 100:
        raise ValueError("need at least 100 replications")
    if config.pooled:
        raise ValueError("generalization verification needs a labeled config")
    if config.lb is not None:
        raise ValueError("exploration-mode generalization verification is not supported")
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must be in (0, 0.5), got {delta}")
    _, gaps, totals, _ = _gen_gap_samples(config, replications, seed, delta)
    successes = int(np.sum(gaps > totals))
    return CoverageReport.build(successes, replications, seed, delta,
                                2.0 * delta,
                                meta={"mode": "gen-gap", "delta": delta,
                                      "mean_gap": float(np.mean(gaps)),
                                      "mean_bound": float(np.mean(totals))})


# ---------------------------------------------------------------------------
# Benchmark comparison
# ---------------------------------------------------------------------------


_VC_DIM = 2         # of the one-dimensional threshold classifiers


def vc_gen_eta(n: int, delta: float) -> float:
    """Classic uniform risk-deviation level: invert 4*(2n+1)^d*exp(-n*eta^2/8).

    Standard symmetrization-based classifier bound with the shattering
    coefficient bounded polynomially, at VC dimension d = ``_VC_DIM``; an
    approximate benchmark form.
    """
    if n < 1 or not delta > 0:
        raise ValueError("need n >= 1, delta > 0")
    return math.sqrt(8.0 * (math.log(4.0 / delta) + _VC_DIM * math.log(2.0 * n + 1.0)) / n)


_BLOCK = 64         # every _BLOCK-th sample of each label cuts a side into blocks
_MARGIN = 1e-9      # slack on a block's bound, far above CDF rounding


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The indices ``starts[i] <= j < stops[i]`` of every i, in order
    (none for an i with ``stops[i] <= starts[i]``)."""
    lengths = np.maximum(stops - starts, 0)
    return np.repeat(stops - np.cumsum(lengths), lengths) + np.arange(lengths.sum())


def _gap(terms, shift: float) -> np.ndarray:
    """The signed gap p1*F1 - w1*fhat1 - (p0*F0 - w0*fhat0) + shift from its
    terms (p0*F0, p1*F1, w0*fhat0, w1*fhat1), with shift = p0 - w0."""
    pf0, pf1, wf0, wf1 = terms
    return (pf1 - wf1) - (pf0 - wf0) + shift


def _block_bounds(terms, shift: float) -> np.ndarray:
    """Bounds on the gap's magnitude strictly between consecutive points.

    ``terms`` are the gap's terms at points in score order, with each
    fhat_l at both limits; entry i bounds the gap between points i and i + 1.
    """
    pf0, pf1, wf0, wf1 = terms
    upper = _gap((pf0[:-1], pf1[1:], wf0[0, 1:], wf1[1, :-1]), shift)
    lower = _gap((pf0[1:], pf1[:-1], wf0[1, :-1], wf1[0, 1:]), shift)
    return np.maximum(upper, -lower)


def _fhat_above(count, wc, nd):
    """A label's estimator at ``count`` of its ``nd`` disclosed points, with
    weight ``wc`` below the threshold (``wc`` when ``nd`` and so ``count``
    are 0)."""
    return wc + count / np.maximum(nd, 1) * (1.0 - wc)


def _sort_rows(parts, runs: int):
    """Sort the values of several pieces together within each run.

    ``parts`` holds one (values, count) pair per piece: its values grouped
    by run, runs in order, and its number of values in each of the
    ``runs`` runs.  Each piece gets a block of columns of one array padded
    with +inf, one row per run, and a sort along the rows orders every run
    at once, at far less cost than a sort on two keys.  Values must lie
    below +inf.  Returns the sorted values of each run in turn, the column
    each came from, the first column of each piece and the size of each run.
    """
    offsets = np.cumsum([0] + [int(count.max(initial=0)) for _, count in parts])
    rows = np.full((runs, offsets[-1]), np.inf)
    at = np.arange(runs) * offsets[-1]
    for (values, count), offset in zip(parts, offsets):
        # each value's place in its row: its run's row start, plus its rank in the run
        place = (at - (count.cumsum() - count) + offset).repeat(count)
        place += np.arange(len(values))
        rows.ravel()[place] = values
    order = rows.argsort(axis=1)
    size = sum(count for _, count in parts)
    valid = np.arange(offsets[-1]) < size[:, None]
    order = order[valid]
    return rows.ravel()[order + at.repeat(size)], order, offsets, size


def _limit_counts(z: np.ndarray, flags, size: np.ndarray):
    """Per row of ``flags``, the flagged entries below each entry of ``z`` and
    at or below it, among the entries of its run.

    The runs are consecutive, of ``size`` entries each, and ascend in ``z``;
    tied entries get the same counts.
    """
    n = len(z)
    starts = size.cumsum() - size
    tied = z[1:] == z[:-1]
    tied[starts[(starts > 0) & (starts < n)] - 1] = False
    tied = tied.nonzero()[0]
    if len(tied):
        at = np.arange(n)
        first, last = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
        first[tied + 1] = last[tied] = False
        low = np.maximum.accumulate(np.where(first, at, 0))
        high = np.minimum.accumulate(np.where(last, at, n)[::-1])[::-1]
    below, upto = [], []
    for f in flags:
        # the count steps up by one at each flagged entry
        steps = np.concatenate([[0], f.nonzero()[0], [n]])
        up = np.arange(len(steps) - 1).repeat(steps[1:] - steps[:-1])
        lo = up - f
        base = lo[np.minimum(starts, n - 1)].repeat(size)
        if len(tied):
            lo, up = lo[low], up[high]
        below.append(lo - base)
        upto.append(up - base)
    return below, upto


def _row_sups(theta: np.ndarray, x0: np.ndarray, x1: np.ndarray, model, n0: int, n1: int):
    """Per replication, the largest |gap| at the points below ``theta`` and
    at the points at or above it (0 if none).

    Row r of ``x0`` and ``x1`` holds replication r's points of each label:
    its ``n0`` and ``n1`` initial samples, and after them the scores of its
    admitted draws, if any, which lie at or above ``theta[r]``.  The initial
    counts set the weights; every point is evaluated, in one pass over all
    rows.
    """
    R, width0 = x0.shape
    width = width0 + x1.shape[1]
    n = n0 + n1
    z = np.concatenate([x0, x1], axis=1)
    order = np.argsort(z, axis=1)
    z = np.take_along_axis(z, order, axis=1).ravel()
    is0 = (order < width0).ravel()
    run = np.repeat(np.arange(R), width)
    below, upto = _limit_counts(z, (is0, ~is0), np.full(R, width))
    lower = (z < theta[run]).reshape(R, width)
    # a row's points below theta come first: the censored branch is evaluated
    # up to the last row's count of them, _fhat_above from the first row's on
    cut = np.count_nonzero(lower, axis=1)
    first, last = cut.min(initial=width), cut.max(initial=0)
    fhat = []
    for label, size, x in ((0, n0, x0), (1, n1, x1)):
        nc = np.sum(x < theta[:, None], axis=1)[:, None]
        wc = nc / size
        counts = np.stack([below[label], upto[label]]).reshape(2, R, width)
        f = np.empty(counts.shape)
        # censored samples lie below every point at or above theta
        f[..., first:] = _fhat_above(counts[..., first:] - nc, wc, x.shape[1] - nc)
        f[..., :last] = np.where(lower[:, :last], counts[..., :last] / np.maximum(nc, 1) * wc,
                                 f[..., :last])
        fhat.append(f.reshape(2, -1))
    terms = (model.p0 * np.asarray(model.cdf0.cdf(z), dtype=float),
             model.p1 * np.asarray(model.cdf1.cdf(z), dtype=float),
             n0 / n * fhat[0], n1 / n * fhat[1])
    point = np.abs(_gap(terms, model.p0 - n0 / n)).max(axis=0).reshape(R, width)
    return np.where(lower, point, 0.0).max(axis=1), np.where(lower, 0.0, point).max(axis=1)


def _window(cdf: GaussianCdf) -> float:
    """Distance in probability beyond which two levels keep their order
    through ``cdf.inverse``; |cdf(inverse(v)) - v| stays far below it.

    A score mean + stddev*ndtri(v) is rounded to a few ulps of
    |mean| + 40*stddev, which moves its standardized value, and so its CDF
    value, by a few 2^-52 * (|mean|/stddev + 40).
    """
    return 1e-12 + 16 * 2.0**-52 * (abs(cdf.mean) / cdf.stddev + 40.0)


def _levels(v: np.ndarray, cdf: GaussianCdf) -> Optional[np.ndarray]:
    """The admitted draws' levels ``v``, sorted in place, or None when two
    lie within ``_window(cdf)`` of each other."""
    v.sort()
    if len(v) > 1 and not (v[1:] - v[:-1]).min() > _window(cdf):
        return None
    return v


def _levels_below(levels, label: int, q: np.ndarray, bounds):
    """Per point, label ``label``'s levels below ``q`` and the level there.

    ``levels[p]`` holds replication p's sorted levels per label and its
    points are ``bounds[p]:bounds[p + 1]``.  Where every level lies below
    ``q``, the level read is the last one (-inf if there is none).
    """
    below, level = [], []
    for lv, s, e in zip(levels, bounds[:-1], bounds[1:]):
        v = lv[label]
        i = v.searchsorted(q[s:e])
        below.append(i)
        level.append(v.take(i, mode="clip") if len(v) else np.full(e - s, -np.inf))
    return np.concatenate(below), np.concatenate(level)


def _probability_sups(theta, x0, x1, m0, m1, levels, model, best):
    """The disclosed side's supremum of replications whose draws stay levels.

    Row p of ``x0`` and ``x1`` holds replication p's sorted initial samples,
    of which the first ``m0[p]`` and ``m1[p]`` lie below ``theta[p]``;
    ``levels[p]`` holds its draws' sorted levels per label, which passed
    ``_levels``, and ``best[p]`` is its censored-side supremum.  Returns the
    suprema and whether each was computed; ``_sup_chunk`` describes the
    checks behind the second.

    The cuts are every disclosed sample and every ``_BLOCK``-th draw of each
    label and its last one.  A cut draw of label l is the i-th of its
    label's draws, so i of them lie below it and i + 1 at or below it.  At
    every other cut, label l's draws below it are its levels below
    F_l(cut) - W_l/2, with W_l = ``_window(cdf_l)``, and none may lie
    within W_l/2 of F_l(cut).  The draws inside an evaluated block are
    those of level between its cuts' counts; they are scored, sorted with
    each other, and counted by their scores.
    """
    P = len(theta)
    n0, n1 = x0.shape[1], x1.shape[1]
    w0, w1 = n0 / (n0 + n1), n1 / (n0 + n1)
    shift = model.p0 - w0
    cdfs = (model.cdf0, model.cdf1)
    ok = np.ones(P, dtype=bool)
    k = [np.array([len(lv[label]) for lv in levels]) for label in (0, 1)]
    wc = [m0 / n0, m1 / n1]
    nd = [n0 - m0 + k[0], n1 - m1 + k[1]]

    def gaps(f, count, counts):
        """The gap's terms at the points of ``count`` points per replication
        and the larger |gap| of each point's two limits, from each label's
        CDF values and its counts at both limits."""
        terms = (model.p0 * f[0], model.p1 * f[1],
                 *(w * _fhat_above(c, wl.repeat(count), ndl.repeat(count))
                   for w, c, wl, ndl in zip((w0, w1), counts, wc, nd)))
        return terms, np.abs(_gap(terms, shift)).max(axis=0)

    # the cuts: every disclosed sample, and every _BLOCK-th level and the last one of each label
    parts = [(x[x >= theta[:, None]], x.shape[1] - m) for x, m in ((x0, m0), (x1, m1))]
    for label, cdf in enumerate(cdfs):
        count = -(-k[label] // _BLOCK) + (k[label] > 0)
        scores = cdf.inverse(np.concatenate(
            [piece for lv in levels for piece in (lv[label][::_BLOCK], lv[label][-1:])]))
        # the lowest draw's score lies above theta, so no draw is clamped to it
        has = count > 0
        ok[has] &= scores[(count.cumsum() - count)[has]] > theta[has]
        ok[np.arange(P).repeat(count)[~(scores < np.inf)]] = False
        parts.append((np.minimum(scores, np.finfo(float).max), count))
    z, origin, offsets, size = _sort_rows(parts, P)
    below, upto = _limit_counts(z, (origin < offsets[1], (origin >= offsets[1])
                                    & (origin < offsets[2])), size)
    f = [cdf.cdf(z) for cdf in cdfs]
    drawn = []
    for label, cdf in enumerate(cdfs):
        own = (origin >= offsets[2 + label]) & (origin < offsets[3 + label])
        # the last cut of each label is its last draw
        index = np.minimum(np.where(own, (origin - offsets[2 + label]) * _BLOCK, 0),
                           (k[label] - 1).repeat(size))
        other = (~own).nonzero()[0]
        half = _window(cdf) / 2
        q = f[label][other] - half
        count, level = _levels_below(levels, label, q, np.concatenate(
            [[0], (size - parts[2 + label][1]).cumsum()]))
        near = other[(level >= q) & (level < f[label][other] + half)]
        ok[np.arange(P).repeat(size)[near]] = False
        index[other] = count
        drawn.append((index, index + own))
    terms, gap = gaps(f, size, [np.stack([lo + b, hi + u])
                                for (lo, hi), b, u in zip(drawn, below, upto)])
    best = np.maximum(best, np.maximum.reduceat(gap, size.cumsum() - size))

    # blocks between consecutive cuts whose bound reaches the best value; only
    # draws lie strictly inside one
    run = np.arange(P).repeat(size)
    hit = ((run[1:] == run[:-1]) & ok[run[1:]]
           & (_block_bounds(terms, shift) + _MARGIN >= best[run[1:]])).nonzero()[0]
    parts, per_rep = [], 0
    for label, (cdf, (lo, hi)) in enumerate(zip(cdfs, drawn)):
        start, stop = hi[hit], lo[hit + 1]
        count = np.maximum(stop - start, 0)
        index = _ranges(start, stop)
        per_label = np.bincount(run[hit], weights=count, minlength=P).astype(np.intp)
        edges = np.concatenate([[0], per_label.cumsum()])
        got = [lv[label].take(index[s:e])
               for lv, s, e in zip(levels, edges[:-1], edges[1:]) if e > s]
        parts.append((cdf.inverse(np.concatenate(got)) if got else np.empty(0), count))
        per_rep = per_rep + per_label
    if not np.any(per_rep):
        return best, ok
    point, origin, offsets, count = _sort_rows(parts, len(hit))
    cut = hit.repeat(count)
    # no sample lies strictly between two cuts, so only the block's own draws
    # lie between a point inside it and the lower cut
    ok[run[cut[~((z[cut] < point) & (point < z[cut + 1]))]]] = False
    inner = _limit_counts(point, (origin < offsets[1], origin >= offsets[1]), count)
    counts = [np.stack([hi[cut] + u[cut] + b, hi[cut] + u[cut] + v])
              for (_, hi), u, b, v in zip(drawn, upto, *inner)]
    _, gap = gaps([cdf.cdf(point) for cdf in cdfs], per_rep, counts)
    has = per_rep > 0
    best[has] = np.maximum(best[has], np.maximum.reduceat(gap, (per_rep.cumsum() - per_rep)[has]))
    return best, ok


def _sup_chunk(gen: np.random.Generator, theta, x0, x1, a0, a1, k0, k1, censored,
               model) -> list[float]:
    """``_sup_risk_gap`` of consecutive replications, drawing from ``gen``.

    Row r of ``x0`` and ``x1`` holds replication r's initial samples,
    sorted, and ``censored[r]`` its censored-side supremum.  Replication r
    draws its ``k0[r] + k1[r]`` doubles in replication order, label 0
    first.  Only the steps that touch every draw run per replication: the
    draws, their levels a_l + (1 - a_l)*u, the sort and window check of
    ``_levels`` and the search of each label's levels
    (``_levels_below``).  The rest runs in array passes over many
    replications at once: the disclosed side of the replications without
    draws (``_row_sups``), and for the replications that try the
    probability-space path (``_sup_risk_gap``) the scores and CDF values at
    the cuts, the sample counts, the gap, the block pruning, the scores and
    CDF values in the evaluated blocks and each replication's maximum
    (``_probability_sups``).  Those replications are evaluated in groups of
    at most ``_SUP_GROUP`` draws, whose levels fit in a core's cache while
    they are searched; the values do not depend on the grouping.

    Every other replication with draws is evaluated at every point by
    ``_row_sups``, on one row of its initial samples and its draws' scores
    max(inverse_l(v), theta) from the same levels.  That holds for a
    replication that does not try the probability-space path, and for one
    that leaves it: when two of its levels of a label lie within the window
    of each other, when a label's lowest draw's score is not above
    ``theta`` or a cut draw's score is not finite, when a cut's CDF value
    of a label lies within half a window of a level of that label while the
    cut is none of its draws, or when a draw of an evaluated block does not
    lie strictly between the block's cuts.  Its value and the generator
    state are the same on either path.
    """
    theta = np.asarray(theta, dtype=float)
    n0, n1 = x0.shape[1], x1.shape[1]
    m0, m1 = (np.sum(x < theta[:, None], axis=1) for x in (x0, x1))
    sups = np.array(censored, dtype=float)
    free = k0 + k1 == 0
    if free.any():
        sups[free] = np.maximum(sups[free], _row_sups(theta[free], x0[free], x1[free], model,
                                                      n0, n1)[1])
    cdfs = (model.cdf0, model.cdf1)
    tries = (type(cdfs[0]) is GaussianCdf and type(cdfs[1]) is GaussianCdf) & (
        n0 - m0 + k0 + n1 - m1 + k1 > 16 * _BLOCK)
    tried, levels, scored = [], [], []

    def evaluate():
        """Evaluate the replications tried since the last call."""
        if tried:
            rows = np.array(tried)
            sup, ok = _probability_sups(theta[rows], x0[rows], x1[rows], m0[rows], m1[rows],
                                        levels, model, sups[rows])
            sups[rows[ok]] = sup[ok]
            scored.extend((r, draws) for r, draws, good in zip(tried, levels, ok) if not good)
            tried.clear()
            levels.clear()

    held = 0
    for r in np.flatnonzero(~free):
        u = gen.random(int(k0[r] + k1[r]))
        draws = (u[:k0[r]], u[k0[r]:])
        for v, a in zip(draws, (a0[r], a1[r])):
            v *= 1.0 - a
            v += a
        if tries[r] and all([_levels(v, cdf) is not None for v, cdf in zip(draws, cdfs)]):
            if held + len(u) > _SUP_GROUP:
                evaluate()
                held = 0
            tried.append(r)
            levels.append(draws)
            held += len(u)
        else:
            scored.append((r, draws))
    evaluate()
    for r, draws in scored:
        # the initial samples, then the draws' scores clamped to at least theta
        rows = [np.concatenate([x[r], np.maximum(cdf.inverse(v), theta[r])])[None]
                for x, v, cdf in zip((x0, x1), draws, cdfs)]
        sups[r] = max(sups[r], _row_sups(theta[r:r + 1], *rows, model, n0, n1)[1][0])
    return sups.tolist()


def _sup_risk_gap(theta: float, x0: np.ndarray, x1: np.ndarray,
                  k0: int, k1: int, a0: float, a1: float,
                  model, gen: np.random.Generator, censored: float) -> float:
    """sup over thresholds of |expected - empirical| risk, region-weighted.

    Disclosed parts of the per-label estimators are extended with the
    realized numbers of admitted arrivals (drawn from the restricted
    upper-region distributions, label 0 first).  An admitted draw of label
    l has the level v = a_l + (1 - a_l)*u for a uniform u and the score
    max(inverse_l(v), theta): it is clamped to at least ``theta``, so one
    that rounds below it through the inverse CDF still lies on the
    disclosed side.  Label l's estimator spends weight w_l =
    #censored/len(x_l) evenly over its censored samples below ``theta``
    and 1 - w_l evenly over its disclosed samples.

    The supremum is attained at a left or right limit at a pooled sample.
    Points below ``theta`` are evaluated against the censored samples and
    the others against the disclosed ones.  The censored side reads only
    the initial samples, so its supremum ``censored``, which is
    ``_row_sups(theta, x0, x1, model, len(x0), len(x1))[0]`` on one row, is
    passed in and serves as the starting best value of the disclosed side.
    The disclosed side is evaluated at every point (``_row_sups``), unless
    the next paragraphs' probability-space path serves it.

    When both label CDFs are exactly ``GaussianCdf`` and the disclosed side
    has admitted draws and more than ``16 * _BLOCK`` points, it is not
    evaluated at every point.  Every ``_BLOCK``-th draw of each label, each
    label's last one and every disclosed initial sample cut it into blocks
    of fewer than ``2 * _BLOCK`` points strictly between two cuts, and the
    gap is evaluated exactly at the cuts.  The signed gap is p1*F1 -
    w1*fhat1 - (p0*F0 - w0*fhat0) + const, and F0, F1, fhat0 and fhat1 are
    all nondecreasing, so inside a block it lies between bounds built from
    F_l at the two cuts and fhat_l at the right limit of the lower cut and
    the left limit of the upper one.  Only a block whose bound plus
    ``_MARGIN`` reaches the best exact value (the censored side's included)
    is evaluated point by point.  ``_MARGIN`` is far above the rounding of
    these terms and any ulp-level non-monotonicity of a computed CDF, so
    every skipped point's computed value lies below that best value.  The
    result is therefore the maximum of the same floating-point values as an
    evaluation at every point, whichever points cut the blocks, and the
    draws are the same.

    The draws stay in probability space on this path
    (``_probability_sups``): each label's levels are sorted, and a score is
    computed only at a cut or in an evaluated block, not at every draw.  At
    a cut that is none of label l's draws, label l's draws below it are
    counted among its levels at F_l of the cut, which the gap evaluates
    anyway; the draws inside a block are counted by their scores.  This is
    exact only away from the ulp-level non-monotonicity of ndtri and ndtr,
    so it relies on a window W (``_window``): at least 1e-12, far above
    |F(inverse(v)) - v|, and wide enough that levels more than W apart keep
    their order as scores (``tests/test_verify.py::TestProbabilityWindow``
    sweeps it).  Two levels of a label within W of each other, or the CDF
    value at a cut within W/2 of a level of a label the cut does not belong
    to, send the replication back to computing every draw's score and
    evaluating every point (``_row_sups``), from the same levels, so the
    value and the generator state do not depend on the path.  On the
    ``bench`` grid about 1 replication in 1500 does so.

    This is the one-replication case of ``_sup_chunk``, which evaluates
    many replications at once.
    """
    return _sup_chunk(gen, np.array([theta], dtype=float), np.sort(x0)[None], np.sort(x1)[None],
                      np.array([a0]), np.array([a1]), np.array([k0]), np.array([k1]),
                      np.array([censored]), model)[0]


_SUP_CHUNK = 50     # replications per truth-column task


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sup_replications(gen: np.random.Generator, theta, x0, x1, a0, a1, k0, k1, censored,
                      model) -> list[float]:
    """``_sup_chunk`` one replication at a time, through ``_sup_risk_gap``."""
    return [_sup_risk_gap(theta[r], x0[r], x1[r], int(k0[r]), int(k1[r]), float(a0[r]),
                          float(a1[r]), model, gen, float(censored[r]))
            for r in range(len(theta))]


def compare_bounds(config: SimulationConfig, *, arrival_grid: Sequence[int],
                   replications: int = 1000, seed: int = 0,
                   delta: float = 0.015) -> TableReport:
    """Evaluate our generalization bound, classic benchmarks, and the MC truth
    on a grid of arrival counts.

    The truth column is the empirical (1-2*delta)-quantile of the uniform
    risk deviation sup_theta |R - R_emp| -- the quantity every
    uniform-convergence bound in the table claims to control at confidence
    1-2*delta.  Benchmarks are evaluated as if all n + T samples were IID
    (they do not model censoring); ours averages the per-replication
    assembled bound.

    The admitted draws come from ``SeededRng(seed).substream(2)``, grid
    point by grid point, each laid out by ``_replicate``: replication r
    draws ``k0[r] + k1[r]`` doubles, and those counts are known before any
    draw is made.  Each chunk of ``_SUP_CHUNK`` replications is evaluated
    in a few array passes (``_sup_chunk``).  The supremum's censored side
    depends only on the initial samples, which the grid shares, so it is
    computed once per replication, a chunk's worth of rows per array pass
    (``_row_sups``), and not at every grid point.

    A pool with one worker process per available CPU (at most one per
    chunk after the first) runs the chunks.  Each grid point's chunks are
    submitted as soon as its counts are drawn (``_gen_gap_samples``), so
    the workers start on the first grid point while the calling process
    still prepares the later ones; before the first submit it only draws
    the initial samples and computes the censored side and the first grid
    point's counts, about 0.05 s for the ``bench`` preset.  Once every
    chunk is submitted, the calling process runs the first chunk itself,
    one replication at a time through ``_sup_risk_gap`` so that a profile
    of it sees the per-replication kernel, and collects the rest.  The
    draws, and so the table, do not depend on the worker count, on which
    process ran a chunk or on the chunk size.  The pool forks its workers
    on Linux and spawns them elsewhere; with spawned workers a calling
    script must keep its top-level code under ``if __name__ ==
    "__main__":``, or the call fails with ``BrokenProcessPool``.

    The truth column samples the two-region estimator, so a config with an
    exploration region (``lb``) is rejected.  ``replications`` and every
    grid entry must be whole numbers, at least 1 and 0; they are checked
    before any sample is drawn.
    """
    if config.lb is not None:
        raise ValueError("bound comparison covers the two-region estimator only; "
                         "got a config with an exploration region (lb)")
    if config.pooled:
        raise ValueError("generalization comparison needs a labeled config")
    replications = _count(replications, "replications")
    grid = [_count(t, "arrival count") for t in arrival_grid]
    if replications < 1 or any(t < 0 for t in grid):
        raise ValueError("need at least 1 replication and nonnegative arrival counts, "
                         f"got {replications} and {grid}")
    model = config.model
    n = config.n0 + config.n1
    quant = 1.0 - 2.0 * delta

    initial, x0, x1 = _sorted_samples(config, replications, seed)
    # in chunks, which keeps the calling process's peak memory low
    censored = np.concatenate([
        _row_sups(*(a[lo:lo + _SUP_CHUNK] for a in (initial[0], x0, x1)),
                  model, config.n0, config.n1)[0] for lo in range(0, replications, _SUP_CHUNK)])
    chunks = len(grid) * -(-replications // _SUP_CHUNK)
    # forked workers start with every module imported; fork is unsafe on
    # macOS and missing on Windows, which spawn
    method = "fork" if sys.platform.startswith("linux") else "spawn"
    gen = SeededRng(seed).substream(2).generator()
    ours, calls = [], []
    with ProcessPoolExecutor(max(1, min(_cpu_count(), chunks - 1)),
                             mp_context=multiprocessing.get_context(method)) as pool:
        for T in grid:
            theta, _, totals, (a0, a1, k0, k1) = _gen_gap_samples(
                replace(config, arrivals=int(T)), replications, seed, delta, initial)
            ours.append(totals)
            args, draws = [theta, x0, x1, a0, a1, k0, k1, censored], k0 + k1
            if not calls:
                # the calling process runs the first chunk itself once every chunk
                # is submitted, one replication at a time, so that a profile of it
                # sees the per-replication kernel
                calls.append(_replicate(partial(_sup_replications, model=model),
                                        [a[:_SUP_CHUNK] for a in args], _SUP_CHUNK, gen,
                                        _InCaller(), draws))
                args, draws = [a[_SUP_CHUNK:] for a in args], draws[_SUP_CHUNK:]
            calls.append(_replicate(partial(_sup_chunk, model=model), args, _SUP_CHUNK, gen,
                                    pool, draws))
        sups = [v for call in calls for chunk in call for v in chunk]
    sup_by_t = np.reshape(sups, (len(grid), replications))
    rows = []
    for T, sup, totals in zip(grid, sup_by_t, ours):
        n_iid = n + T
        rows.append((
            T,
            float(np.quantile(sup, quant)),
            float(np.mean(sup)),
            float(np.mean(totals)),
            hoeffding_eta(n_iid, 2.0 * delta),
            gc_eta(n_iid, 2.0 * delta),
            vc_gen_eta(n_iid, 2.0 * delta),
            dkw_eta(n_iid, 2.0 * delta),
        ))
    return TableReport(
        columns=("arrivals", "gap_quantile", "gap_mean", "ours",
                 "hoeffding", "gc", "vc_gen", "dkw"),
        rows=tuple(rows),
        meta={"mode": "gen", "replications": replications, "seed": seed,
              "delta": delta, "quantile": quant,
              "gap_at_theta_mean": float(np.mean(initial[1])) if grid else None},
    )
