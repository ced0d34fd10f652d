"""Distributions, empirical CDFs, seeded sampling, and sup-deviation.

This is the shared substrate for every bound and experiment in the
package: theoretical CDFs (Gaussian or piecewise tables), their
restrictions to score regions, step-function empirical CDFs, the
region-weighted ("stitched") estimator used when data is collected under
censored feedback, and the exact supremum of |theory - empirical| over a
region.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, runtime_checkable

import numpy as np
from scipy.special import ndtr, ndtri

from .censored import RegionPartition, region_weights
from .rng import SeededRng

__all__ = [
    "TheoreticalCdf",
    "GaussianCdf",
    "PiecewiseCdf",
    "RestrictedCdf",
    "EmpiricalCdf",
    "StitchedCdf",
    "stitched_from_partition",
    "MixtureModel",
    "sup_deviation",
    "sample_labeled",
]


@runtime_checkable
class TheoreticalCdf(Protocol):
    """A nondecreasing map from scores to probabilities in [0, 1]."""

    def cdf(self, x): ...

    def cdf_left(self, x): ...

    def inverse(self, p): ...

    def knots(self) -> np.ndarray: ...


@dataclass(frozen=True)
class GaussianCdf:
    """Normal distribution function, accurate to better than 1e-12 absolute."""

    mean: float = 0.0
    stddev: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.stddev)):
            raise ValueError(f"mean and stddev must be finite, got {self.mean}, {self.stddev}")
        if not self.stddev > 0:
            raise ValueError(f"stddev must be positive, got {self.stddev}")

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=float) - self.mean) / self.stddev)

    def cdf_left(self, x):
        return self.cdf(x)

    def inverse(self, p):
        return self.mean + self.stddev * ndtri(np.asarray(p, dtype=float))

    def density(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.stddev
        return np.exp(-0.5 * z * z) / (self.stddev * np.sqrt(2.0 * np.pi))

    def knots(self) -> np.ndarray:
        return np.empty(0)


@dataclass(frozen=True)
class PiecewiseCdf:
    """CDF given by a table of (x, p) pairs with linear interpolation.

    Duplicate x values encode jumps: evaluation at a duplicated x returns
    the last p (right-continuous), while ``cdf_left`` returns the first.
    Below the table the value is ``ps[0]``, above it ``ps[-1]``; supply
    tables starting at 0 and ending at 1 to represent a full distribution.
    """

    xs: np.ndarray
    ps: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ps = np.asarray(self.ps, dtype=float)
        if xs.ndim != 1 or xs.shape != ps.shape or len(xs) < 2:
            raise ValueError("need matching 1-d tables with at least two points")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ps))):
            raise ValueError("x and p tables must be finite")
        if np.any(np.diff(xs) < 0):
            raise ValueError("x table must be sorted")
        if np.any(np.diff(ps) < -1e-15):
            raise ValueError("p table must be nondecreasing")
        if np.any((ps < -1e-15) | (ps > 1 + 1e-15)):
            raise ValueError("p table must lie in [0, 1]")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ps", np.clip(ps, 0.0, 1.0))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.xs, self.ps)
        # exact knot hits take the last duplicate's p (right-continuous)
        idx = np.searchsorted(self.xs, x, side="right")
        prev = np.clip(idx - 1, 0, len(self.xs) - 1)
        exact = (idx > 0) & (self.xs[prev] == x)
        out = np.where(exact, self.ps[prev], out)
        return out if out.ndim else float(out)

    def cdf_left(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.xs, self.ps)
        # exact knot hits take the first duplicate's p (left limit)
        idx = np.searchsorted(self.xs, x, side="left")
        first = np.clip(idx, 0, len(self.xs) - 1)
        exact = (idx < len(self.xs)) & (self.xs[first] == x)
        out = np.where(exact, self.ps[first], out)
        return out if out.ndim else float(out)

    def inverse(self, p):
        """The generalized inverse inf{x : F(x) >= p}, with p clipped to the table.

        A level that a knot attains maps to the first such knot.  Any other
        level is interpolated between the last knot below it and the first
        above it, so a flat stretch (equal p at distinct x) is left from its
        right end and no value lands inside it.
        """
        xs, ps = self.xs, self.ps
        p = np.clip(np.asarray(p, dtype=float), ps[0], ps[-1])
        hi = np.minimum(np.searchsorted(ps, p, side="left"), len(ps) - 1)
        lo = np.maximum(hi - 1, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inside = xs[lo] + (p - ps[lo]) / (ps[hi] - ps[lo]) * (xs[hi] - xs[lo])
        out = np.where(ps[hi] == p, xs[hi], inside)
        return out if out.ndim else float(out)

    def knots(self) -> np.ndarray:
        return self.xs


@dataclass(frozen=True)
class RestrictedCdf:
    """A base CDF conditioned on a score region [lo, hi].

    Evaluates to ``(F(x) - F(lo)) / (F(hi) - F(lo))`` inside the region,
    0 below and 1 above.  Requires the region to carry positive mass.
    """

    base: TheoreticalCdf
    lo: float = -np.inf
    hi: float = np.inf
    lo_p: float = field(init=False)
    hi_p: float = field(init=False)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"degenerate region ({self.lo}, {self.hi})")
        lo_p = float(self.base.cdf(self.lo)) if np.isfinite(self.lo) else 0.0
        hi_p = float(self.base.cdf(self.hi)) if np.isfinite(self.hi) else 1.0
        if not hi_p > lo_p:
            raise ValueError("restriction region has zero mass")
        object.__setattr__(self, "lo_p", lo_p)
        object.__setattr__(self, "hi_p", hi_p)

    def _scale(self, p):
        return np.clip((p - self.lo_p) / (self.hi_p - self.lo_p), 0.0, 1.0)

    def cdf(self, x):
        return self._scale(self.base.cdf(x))

    def cdf_left(self, x):
        return self._scale(self.base.cdf_left(x))

    def inverse(self, p):
        p = np.asarray(p, dtype=float)
        return self.base.inverse(self.lo_p + p * (self.hi_p - self.lo_p))

    def knots(self) -> np.ndarray:
        base_knots = np.asarray(self.base.knots(), dtype=float)
        inside = base_knots[(base_knots >= self.lo) & (base_knots <= self.hi)]
        edges = [v for v in (self.lo, self.hi) if np.isfinite(v)]
        return np.concatenate([inside, np.asarray(edges)])


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous step function of a finite sample.

    Value at x is (#scores <= x) / n: zero before the first score, one at
    and after the last.
    """

    sorted_scores: np.ndarray

    def __post_init__(self):
        scores = np.sort(np.asarray(self.sorted_scores, dtype=float).ravel())
        if scores.size == 0:
            raise ValueError("empty sample")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        object.__setattr__(self, "sorted_scores", scores)

    @property
    def n(self) -> int:
        return len(self.sorted_scores)

    def cdf(self, x):
        out = np.searchsorted(self.sorted_scores, np.asarray(x, dtype=float), side="right") / self.n
        return out if np.ndim(x) else float(out)

    def cdf_left(self, x):
        out = np.searchsorted(self.sorted_scores, np.asarray(x, dtype=float), side="left") / self.n
        return out if np.ndim(x) else float(out)

    def jump_points(self) -> np.ndarray:
        return self.sorted_scores

    def restrict(self, lo: float = -np.inf, hi: float = np.inf) -> "EmpiricalCdf":
        """Empirical CDF of the scores falling in [lo, hi)."""
        sel = self.sorted_scores[(self.sorted_scores >= lo) & (self.sorted_scores < hi)]
        return EmpiricalCdf(sel)


@dataclass(frozen=True)
class StitchedCdf:
    """Region-weighted empirical estimate of a full-domain CDF.

    Under censored collection the observed sample is not identically
    distributed across regions, so the full-domain estimate keeps each
    region's probability weight fixed and spends it along that region's
    own empirical CDF:

        F_hat(x) = offset_i + weight_i * E_i(x)   for x in region i,

    where the regions partition the line, offsets are the cumulative
    weights, and E_i is the empirical CDF of the samples observed in
    region i.  A region with weight w but no samples contributes a flat
    segment.

    The weights sum to 1 only up to rounding: values are clamped at 1,
    and the top value may lie up to 4 ulps (4 * 2**-52) below it.
    """

    edges: tuple[float, ...]          # interior boundaries, ascending
    weights: tuple[float, ...]        # one per region, sums to ~1
    segments: tuple[EmpiricalCdf | None, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.edges) + 1 or len(self.segments) != len(self.weights):
            raise ValueError("need one weight and one segment per region")
        if any(w < -1e-12 for w in self.weights):
            raise ValueError("negative region weight")
        if list(self.edges) != sorted(self.edges):
            raise ValueError("edges must be ascending")

    def _offsets(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(self.weights)))

    def _eval(self, x, left: bool):
        x = np.asarray(x, dtype=float)
        side = "left" if left else "right"
        region = np.searchsorted(np.asarray(self.edges), x, side=side)
        offsets = self._offsets()
        out = np.empty(x.shape)
        for i, seg in enumerate(self.segments):
            mask = region == i
            if not np.any(mask):
                continue
            if seg is None:
                frac = 0.0
            else:
                frac = (seg.cdf_left(x[mask]) if left else seg.cdf(x[mask]))
            out[mask] = offsets[i] + self.weights[i] * frac
        # the region weights may sum to one ulp above 1
        np.minimum(out, 1.0, out=out)
        return out if out.ndim else float(out)

    def cdf(self, x):
        return self._eval(x, left=False)

    def cdf_left(self, x):
        return self._eval(x, left=True)

    def jump_points(self) -> np.ndarray:
        pts = [seg.sorted_scores for seg in self.segments if seg is not None]
        pts.append(np.asarray(self.edges, dtype=float))
        return np.sort(np.concatenate(pts)) if pts else np.empty(0)


def stitched_from_partition(initial: np.ndarray, new_explore: np.ndarray,
                            new_above: np.ndarray, theta: float,
                            lb: Optional[float], epsilon: float) -> StitchedCdf:
    """Region-weighted full-domain CDF estimate from observed samples.

    ``new_above`` lies at or above ``theta`` and ``new_explore`` in
    [``lb``, ``theta``).  Two-region form (no lb; ``new_explore`` and
    ``epsilon`` are not used): the m of the n ``initial`` samples below
    ``theta`` keep weight m/n, and the rest, (n-m)/n, is spent over the
    initial samples at or above ``theta`` together with ``new_above``.
    Three-region form: the weights of ``censored.region_weights``, which
    re-estimate the split above lb from the arrival counts and refuse an
    ``epsilon`` outside [0, 1].  A NaN ``theta`` or ``lb`` raises
    ``ValueError``; +-inf is allowed, as a trained threshold may be.  As
    for any ``StitchedCdf``, the estimate's top value may lie up to 4 ulps
    (4 * 2**-52) below 1.
    """
    if np.isnan(theta) or (lb is not None and np.isnan(lb)):
        raise ValueError(f"theta and lb must not be NaN, got theta={theta} lb={lb}")
    initial = np.asarray(initial, dtype=float)
    disc = np.concatenate([initial[initial >= theta], new_above])
    if lb is None:
        cens = initial[initial < theta]
        w = len(cens) / len(initial)
        edges, weights, samples = (theta,), (w, 1.0 - w), (cens, disc)
    else:
        cens = initial[initial < lb]
        expl = np.concatenate([initial[(initial >= lb) & (initial < theta)], new_explore])
        part = RegionPartition(n=len(initial), m=int(np.sum(initial < theta)), l=len(cens),
                               k=len(new_above), k1=len(new_explore))
        edges, weights, samples = (lb, theta), region_weights(part, epsilon), (cens, expl, disc)
    # a region without samples gets a flat segment
    return StitchedCdf(edges=edges, weights=tuple(float(w) for w in weights),
                       segments=tuple(EmpiricalCdf(x) if len(x) else None for x in samples))


@dataclass(frozen=True)
class MixtureModel:
    """Two-label population: label priors plus per-label score CDFs."""

    p1: float
    cdf0: TheoreticalCdf
    cdf1: TheoreticalCdf

    def __post_init__(self):
        if not 0.0 < self.p1 < 1.0:
            raise ValueError(f"p1 must be in (0, 1), got {self.p1}")

    @property
    def p0(self) -> float:
        return 1.0 - self.p1


def _candidate_points(theory, empirical, lo: float, hi: float) -> np.ndarray:
    jumps = empirical.jump_points()
    pts = [jumps[(jumps >= lo) & (jumps <= hi)]]
    theory_knots = np.asarray(theory.knots(), dtype=float)
    if theory_knots.size:
        pts.append(theory_knots[(theory_knots >= lo) & (theory_knots <= hi)])
    pts.append(np.asarray([v for v in (lo, hi) if np.isfinite(v)]))
    return np.unique(np.concatenate(pts))


def sup_deviation(theory, empirical, region: tuple[float, float] = (-np.inf, np.inf)) -> float:
    """Exact supremum of |theory - empirical| over a score region.

    Both curves are monotone and the empirical side is a step function,
    so the supremum is attained (or approached one-sidedly) at a sample
    point, a theory-table knot, or a region endpoint; it suffices to
    compare values and left limits at those points.
    """
    lo, hi = region
    if not lo < hi:
        raise ValueError(f"degenerate region ({lo}, {hi})")
    xs = _candidate_points(theory, empirical, lo, hi)
    if xs.size == 0:
        return 0.0
    t_right = np.asarray(theory.cdf(xs), dtype=float)
    t_left = np.asarray(theory.cdf_left(xs), dtype=float)
    e_right = np.asarray(empirical.cdf(xs), dtype=float)
    e_left = np.asarray(empirical.cdf_left(xs), dtype=float)
    gaps = np.maximum(np.abs(t_right - e_right), np.abs(t_left - e_left))
    return float(np.max(gaps))


def sample_labeled(model: MixtureModel, count: int, rng: SeededRng):
    """Draw (scores, labels) for `count` arrivals from a mixture model.

    Labels are Bernoulli(p1); scores come from the label's distribution
    via inverse-CDF transform.  Deterministic for a fixed (seed, stream).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    gen = rng.generator()
    labels = (gen.random(count) < model.p1).astype(np.int8)
    u = gen.random(count)
    scores = np.empty(count)
    mask1 = labels == 1
    if np.any(mask1):
        scores[mask1] = np.asarray(model.cdf1.inverse(u[mask1]), dtype=float)
    if np.any(~mask1):
        scores[~mask1] = np.asarray(model.cdf0.inverse(u[~mask1]), dtype=float)
    return scores, labels
