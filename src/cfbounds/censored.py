"""CDF error bounds for samples collected under censored feedback.

A decision threshold theta splits the score line into a censored region
(below theta, where labels of new arrivals are never observed) and a
disclosed region (at and above theta, where they are).  With bounded
exploration an additional lower bound LB < theta defines an exploration
region [LB, theta) whose arrivals are admitted with probability epsilon.

The observed sample is IID within each region but not across regions, so
uniform deviation bounds are assembled region by region: each region
contributes a DKW-type exponential term whose tolerance is reduced by
scaling/shifting errors |alpha - m/n| between the true region masses and
their empirical estimates.  Every bound here takes its terms from one
kernel, ``_region_terms``, which applies that shift rule to any number of
regions.

Conventions for regimes the formulas do not cover:

* If a term's reduced tolerance (eta minus its shift errors) is not
  positive, the DKW step backing it is invalid and the term contributes
  probability 1; the result is flagged ``trivial``.
* A degenerate region (no samples or no estimator weight) is handled
  deterministically: the estimator is flat there, so the deviation is at
  most max(theoretical mass, estimator weight).  The term contributes 0
  when that bound is <= eta and 1 otherwise.

The bounds broadcast over numpy arrays: any count of a partition, the
masses, epsilon and eta may be arrays, and the result then holds one
value and one trivial flag per element.  Scalar inputs give Python
scalars.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import xlog1py

from .classic import BoundValue

__all__ = [
    "RegionPartition",
    "MassSpec",
    "MonotonicityReport",
    "partition",
    "region_weights",
    "censored_term",
    "bound_two_region",
    "bound_two_region_apriori",
    "bound_three_region",
    "eta_for_confidence",
    "check_prop1",
    "check_prop2",
]


def _holds(cond) -> bool:
    """Whether a scalar or elementwise condition holds everywhere."""
    return bool(np.logical_and.reduce(cond, axis=None))


def _integral(value) -> bool:
    """Whether a scalar or array holds only whole numbers (booleans do not count)."""
    if type(value) is int:      # the common case, without numpy's per-call cost
        return True
    kind = np.asarray(value).dtype.kind
    if kind != "f":
        return kind in "iu"
    with np.errstate(invalid="ignore"):      # inf mod 1 is NaN, and not whole
        return _holds(np.mod(value, 1) == 0)


@dataclass(frozen=True)
class RegionPartition:
    """Sample counts per region relative to the threshold(s).

    n initial samples split into l below LB, m - l in [LB, theta) and
    n - m at or above theta; k counts new disclosed samples (at or above
    theta) and k1 new exploration samples (in [LB, theta)).  A partition
    is two-region exactly when l == k1 == 0.  Counts are whole numbers
    (booleans are refused) and may be arrays; every check then holds
    elementwise.
    """

    n: int
    m: int
    l: int = 0
    k: int = 0
    k1: int = 0

    def __post_init__(self):
        if not (_integral(self.n) and _integral(self.m) and _integral(self.l)
                and _integral(self.k) and _integral(self.k1)):
            raise ValueError(f"counts must be whole numbers, got {self}")
        if not _holds(np.greater_equal(self.n, 1)):
            raise ValueError("need at least one initial sample")
        if not _holds((0 <= self.l) & (self.l <= self.m) & (self.m <= self.n)):
            raise ValueError(f"need 0 <= l <= m <= n, got l={self.l} m={self.m} n={self.n}")
        if not _holds((self.k >= 0) & (self.k1 >= 0)):
            raise ValueError("new-sample counts must be nonnegative")

    @property
    def two_region(self) -> bool:
        return _holds((self.l == 0) & (self.k1 == 0))


@dataclass(frozen=True)
class MassSpec:
    """True region masses alpha = F(theta) and beta = F(LB), which the bounds
    are stated with.  The masses may be arrays; the check then holds
    elementwise.
    """

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if not _holds((0.0 <= self.beta) & (self.beta <= self.alpha) & (self.alpha <= 1.0)):
            raise ValueError(f"need 0 <= beta <= alpha <= 1, got beta={self.beta} alpha={self.alpha}")

    @classmethod
    def theoretical(cls, alpha: float, beta: float = 0.0) -> "MassSpec":
        return cls(alpha, beta)


def partition(initial_scores: Sequence[float], theta: float,
              lb: Optional[float] = None) -> RegionPartition:
    """Count initial samples per region; the new-sample counts are 0.

    ``theta`` is the decision threshold and ``lb`` < theta, if given, the
    lower end of the exploration region; both must be finite.  Samples
    exactly at a boundary belong to the upper region (a score at theta is
    admitted, hence disclosed).
    """
    if not np.all(np.isfinite(theta if lb is None else (theta, lb))):
        raise ValueError(f"theta and lb must be finite, got theta={theta} lb={lb}")
    if lb is not None and not lb < theta:
        raise ValueError(f"need lb < theta, got lb={lb} theta={theta}")
    scores = np.asarray(initial_scores, dtype=float)
    if scores.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    return RegionPartition(n=len(scores), m=int(np.sum(scores < theta)),
                           l=0 if lb is None else int(np.sum(scores < lb)))


def region_weights(part: RegionPartition, epsilon) -> tuple:
    """Estimator weights (censored, exploration, disclosed) of three regions.

    The censored region below LB keeps its initial weight l/n.  The rest,
    (n - l)/n, is split between the exploration and disclosed regions by
    their sample counts, with disclosed arrivals thinned by epsilon to stay
    comparable with the epsilon-thinned exploration arrivals.  Both upper
    weights are 0 when no sample lies at or above LB.  Elementwise over
    array counts and epsilon, which must lie in [0, 1].
    """
    _check_epsilon(epsilon)
    n, m, l, k, k1 = part.n, part.m, part.l, part.k, part.k1
    upper_total = np.asarray((n - l) + k1 + epsilon * k, dtype=float)
    upper = (n - l) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        explore_w = np.where(upper_total > 0, upper * ((m - l + k1) / upper_total), 0.0)
        disclosed_w = np.where(upper_total > 0, upper * ((n - m + epsilon * k) / upper_total),
                               0.0)
    return l / n, explore_w, disclosed_w


def _term(count, mass_th, mass_emp, eta, shift, lead: float):
    """One region's contribution: (value, trivial flag), elementwise.

    value = lead * exp(-2*count*(eta-shift)^2 / min(mass_th, mass_emp)^2)
    when the region is populated and eta exceeds the shift; degenerate
    and invalid regimes follow the module conventions.
    """
    denom = np.minimum(mass_th, mass_emp)
    degenerate = (count <= 0) | (denom <= 0.0)
    eff = eta - shift
    trivial = np.where(degenerate, np.maximum(mass_th, mass_emp) > eta, eff <= 0.0)
    with np.errstate(all="ignore"):
        ratio = eff / denom          # squared afterward: safe for subnormal masses
        value = lead * np.exp(-2.0 * count * ratio * ratio)
    return np.where(trivial, 1.0, np.where(degenerate, 0.0, value)), trivial


def _check_eta(eta) -> None:
    if not _holds(np.isfinite(eta) & np.greater(eta, 0)):
        raise ValueError(f"eta must be positive and finite, got {eta}")


def _check_epsilon(epsilon) -> None:
    inside = (0.0 <= epsilon) & (epsilon <= 1.0)
    # a Python float's check is a Python bool, settled without numpy's per-call cost
    if not (inside is True or _holds(inside)):
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")


def _bound_value(raw, trivial) -> BoundValue:
    """Wrap an elementwise result; a 0-d result becomes Python scalars."""
    if np.ndim(raw) == 0:
        return BoundValue(float(raw), trivial=bool(trivial))
    return BoundValue(raw, trivial=trivial)


def _region_terms(counts, edges, weights, eta, lead: float) -> list:
    """Each region's (value, trivial) term, for R >= 2 regions in line order.

    Region r holds ``counts[r]`` samples and estimator weight ``weights[r]``
    = W_r; ``edges`` holds the true CDF A_1 <= ... <= A_{R-1} at the
    interior region ends (A_0 = 0, A_R = 1), so region r has mass
    dA_r = A_r - A_{r-1}.  With e_j = |A_j - W_1 - ... - W_j|, the shift
    is e_1 for the first region, e_{r-1} + |dA_r - W_r| for a middle one
    and 2 e_{R-1} for the last.
    """
    last = len(counts) - 1
    errs = []
    for j, edge in enumerate(edges):
        gap = edge
        for weight in weights[:j + 1]:
            gap = gap - weight
        errs.append(abs(gap))
    terms = [_term(counts[0], edges[0], weights[0], eta, errs[0], lead)]
    for r in range(1, last):
        mass = edges[r] - edges[r - 1]
        terms.append(_term(counts[r], mass, weights[r], eta,
                           errs[r - 1] + abs(mass - weights[r]), lead))
    terms.append(_term(counts[last], 1.0 - edges[-1], weights[last], eta, 2.0 * errs[-1],
                       lead))
    return terms


def _two_region_terms(n, m, k, alpha, eta, lead: float) -> list:
    """The censored and disclosed terms of the two-region bound."""
    return _region_terms((m, n - m + k), (alpha,), (m / n, (n - m) / n), eta, lead)


def censored_term(part: RegionPartition, mass: MassSpec, eta: float,
                  lead: float = 2.0) -> BoundValue:
    """Censored-region error term of the two-region bound (constant in k)."""
    if not part.two_region:
        raise ValueError("partition is not in two-region mode")
    _check_eta(eta)
    return _bound_value(*_two_region_terms(part.n, part.m, part.k, mass.alpha, eta, lead)[0])


def bound_two_region(part: RegionPartition, mass: MassSpec, eta: float,
                     lead: float = 2.0) -> BoundValue:
    """Deviation bound for censored collection without exploration.

    Sum of the censored and disclosed terms; with theta below the whole
    domain (m = 0, alpha = 0) this reduces exactly to the classical bound
    with n + k IID samples.
    """
    if not part.two_region:
        raise ValueError("partition is not in two-region mode")
    _check_eta(eta)
    (c, c_trivial), (d, d_trivial) = _two_region_terms(part.n, part.m, part.k, mass.alpha,
                                                       eta, lead)
    return _bound_value(c + d, c_trivial | d_trivial)


def bound_two_region_apriori(part: RegionPartition, mass: MassSpec, eta: float,
                             wait: int, lead: float = 2.0) -> BoundValue:
    """Expected two-region bound after waiting for `wait` arrivals.

    Each arrival lands above theta with probability 1 - alpha, so the
    disclosed count k is Binomial(wait, 1 - alpha).  The disclosed term is
    d * q^k, with d its value at k = 0 and q = exp(-2 r^2) for the ratio r
    of its reduced tolerance to its mass, so its expectation is
    d * (alpha + (1 - alpha) q)^wait, computed as
    exp(wait * log1p((alpha - 1)(1 - q))).  A trivial or degenerate
    disclosed term does not depend on k and is kept as it is.  ``wait`` is
    a scalar whole number; the other inputs may be arrays.
    """
    if not part.two_region:
        raise ValueError("partition is not in two-region mode")
    if np.any(part.k):
        raise ValueError("expected-wait bound replaces k; pass a partition with k = 0")
    if np.ndim(wait) or not _integral(wait) or wait < 0:
        raise ValueError(f"wait must be a nonnegative whole number, got {wait!r}")
    _check_eta(eta)
    n, m, alpha = part.n, part.m, mass.alpha
    (c, c_trivial), (d, d_trivial) = _two_region_terms(n, m, 0, alpha, eta, lead)
    denom = np.minimum(1.0 - alpha, (n - m) / n)
    with np.errstate(all="ignore"):     # a degenerate term's ratio is not used
        ratio = (eta - 2.0 * abs(alpha - m / n)) / denom
        factor = np.exp(xlog1py(wait, (alpha - 1.0) * -np.expm1(-2.0 * ratio * ratio)))
    expected = np.where(d_trivial | (denom <= 0.0), d, d * factor)
    return _bound_value(c + expected, c_trivial | d_trivial)


def bound_three_region(part: RegionPartition, mass: MassSpec, epsilon, eta: float,
                       lead: float = 2.0) -> BoundValue:
    """Deviation bound for censored collection with bounded exploration.

    Three terms: the still-censored region below LB (constant), the
    exploration region [LB, theta) (vanishing as k1 grows), and the
    disclosed region (vanishing as k grows).  The estimator weights of
    the regions at and above LB are re-estimated from the arrival counts
    and the exploration frequency ``epsilon`` by ``region_weights``.
    """
    _check_eta(eta)
    n, m, l = part.n, part.m, part.l
    (v1, t1), (v2, t2), (v3, t3) = _region_terms(
        (l, m - l + part.k1, n - m + part.k), (mass.beta, mass.alpha),
        region_weights(part, epsilon), eta, lead)
    return _bound_value(v1 + v2 + v3, t1 | t2 | t3)


# Most bound evaluations in one round of ``eta_for_confidence``, which spends
# 2^L - 1 of them per element to settle L bisection levels in one call.  A
# bound call's fixed cost is about that of a thousand more elements in it
# (70 µs for a scalar two-region call, 130 µs for 1000 elements), so deeper
# rounds would cost more than the calls they save.
_ROUND_ELEMENTS = 256

_ETA_MAX = 1.0      # sup |F - F_hat| <= 1, so a bound's inverse lies in [0, 1]
_ETA_TOL = 1e-9     # the widest final bracket
# the halvings of [0, _ETA_MAX] down to a bracket at most _ETA_TOL wide: 30
_STEPS = math.ceil(math.log2(_ETA_MAX / _ETA_TOL))


def eta_for_confidence(bound: Callable[[float | np.ndarray], BoundValue], delta: float):
    """Smallest eta with bound(eta).probability <= delta, or None.

    Bisection over [0, ``_ETA_MAX``]; assumes the bound probability is
    nonincreasing in eta (it is 1 on the trivial plateau and strictly
    decreasing past it).  Returns None ("unreachable") when even eta =
    ``_ETA_MAX`` exceeds delta, which happens whenever delta lies below the
    constant censored-region floor of the bound.  Every bracket halves
    exactly (its ends are multiples of its width, a power of two), so
    bisection runs ``_STEPS`` steps, until the brackets are at most
    ``_ETA_TOL`` wide, and returns their upper ends.

    ``bound`` must be elementwise in eta and broadcast a leading axis:
    called with the scalar ``_ETA_MAX``, or with eta of shape ``s`` or
    ``(K,) + s``, where ``s`` is the shape of its probability, it returns
    a probability of eta's shape whose ``[j]`` is the probability at
    ``eta[j]``.  Every bound of this module and
    ``SimulationConfig.deviation_bound`` qualify.  Each round evaluates,
    in one call, the 2^L - 1 midpoints that the next L serial bisection
    steps can reach, each formed as ``0.5 * (lo + hi)`` from the bracket
    ends a serial step would hold, and then replays those steps from the
    table.  So the result equals serial bisection's, one bound call per
    midpoint, for any such bound, monotone or not.  L keeps a call to
    about 256 evaluations: 8 for a scalar bound, whose inversion then
    makes 5 calls instead of 31, and 1, one call per step as in serial
    bisection, for 256 elements or more.  A scalar bound's steps run on
    Python floats (``_bisect_scalar``), not on 0-d arrays.

    A bound whose probability is an array of shape ``s`` is bisected
    elementwise, with the same midpoints per element as a scalar bound;
    the result is then an array that holds NaN where the level is
    unreachable.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    reachable = np.asarray(bound(_ETA_MAX).probability <= delta)
    if reachable.ndim == 0 and not reachable:
        return None
    # the largest L with (2^L - 1) * size <= _ROUND_ELEMENTS, and at least 1
    levels = max(1, (_ROUND_ELEMENTS // max(reachable.size, 1) + 1).bit_length() - 1)
    width = 2 ** levels
    if reachable.ndim == 0:
        return _bisect_scalar(bound, delta, width)
    # nodes[0] and nodes[width] hold the bracket, updated in place; a round
    # fills the rows between them with the midpoints of its next `levels`
    # steps, each from the two nodes a serial step would hold as its bracket
    nodes = np.empty((width + 1,) + reachable.shape)
    nodes[0], nodes[width] = 0.0, _ETA_MAX
    lo, hi = nodes[0, ...], nodes[width, ...]
    table = None        # the decisions at the midpoints this round can still reach
    for _ in range(_STEPS):
        if table is None:
            _fill_midpoints(nodes)
            if width > 2:
                table = bound(nodes[1:-1]).probability <= delta
            else:
                # a lone row goes in without its leading axis: numpy broadcasts
                # a (1, n) operand against (n,) ones a few µs slower per operation
                table = (bound(nodes[1]).probability <= delta)[None]
        # this step's midpoint is the middle row; the step keeps one half
        mid = 0.5 * (lo + hi)
        half = len(table) // 2
        ok = table[half]
        np.copyto(hi, mid, where=ok)
        np.copyto(lo, mid, where=~ok)
        table = np.where(ok, table[:half], table[half + 1:]) if half else None
    return np.where(reachable, hi, np.nan)


def _fill_midpoints(nodes: np.ndarray) -> None:
    """Fill the rows between ``nodes[0]`` and ``nodes[-1]`` (2^L + 1 rows) with
    the midpoints of L serial bisection steps from that bracket, each as
    ``0.5 * (a + b)`` of the two nodes a serial step would hold as its bracket."""
    step = len(nodes) - 1
    while step > 1:
        level = nodes[step // 2::step]
        np.add(nodes[:-1:step], nodes[step::step], out=level)
        level *= 0.5
        step //= 2


def _bisect_scalar(bound, delta: float, width: int) -> float:
    """``eta_for_confidence`` of a reachable scalar bound, ``width`` - 1
    midpoints per bound call.

    The same rounds, midpoints and steps as the array path, but each step
    runs on Python floats: the bracket is two floats and a round's
    decisions a list, of which each step keeps one half as a window of
    indices.
    """
    nodes = np.empty(width + 1)
    lo, hi, start, stop = 0.0, _ETA_MAX, 0, 0
    for _ in range(_STEPS):
        if start == stop:
            nodes[0], nodes[width] = lo, hi
            _fill_midpoints(nodes)
            table = (bound(nodes[1:-1]).probability <= delta).tolist()
            start, stop = 0, width - 1
        # this step's midpoint is the middle of the window; the step keeps one half
        mid = 0.5 * (lo + hi)
        middle = (start + stop) // 2
        if table[middle]:
            hi, stop = mid, middle
        else:
            lo, start = mid, middle + 1
    return hi


_MONOTONE_SLACK = 1e-12     # a step against the direction this small is rounding


@dataclass(frozen=True)
class MonotonicityReport:
    """Result of sweeping a bound along one parameter axis."""

    direction: str                     # "nondecreasing" or "nonincreasing"
    grid: tuple[float, ...]
    values: tuple[float, ...]
    ok: bool
    first_violation: Optional[tuple[int, float]]   # (index, signed slack breach)
    precondition_met: bool = True

    @staticmethod
    def from_values(direction: str, grid, values,
                    precondition_met: bool = True) -> "MonotonicityReport":
        values = tuple(float(v) for v in values)
        sign = 1.0 if direction == "nondecreasing" else -1.0
        violation = None
        for i in range(1, len(values)):
            step = sign * (values[i] - values[i - 1])
            if step < -_MONOTONE_SLACK:
                violation = (i, step)
                break
        return MonotonicityReport(
            direction=direction,
            grid=tuple(float(g) for g in grid),
            values=values,
            ok=violation is None,
            first_violation=violation,
            precondition_met=precondition_met,
        )


def check_prop1(cdf, n: int, thetas: Sequence[float], c: float,
                eta: float) -> MonotonicityReport:
    """Check that the two-region bound grows with the censored mass.

    The sweep removes estimation error by setting m = round(n * F(theta))
    and supplies k = round(c * (n - m)) new disclosed samples.  The growth
    factor c must satisfy c >= (n-m)*(eta-u)^2 / (m*(eta-2u)^2) - 1 at
    every grid point for the monotonicity claim to apply; the report
    flags whether it does.
    """
    alpha = np.asarray(cdf.cdf(np.asarray(thetas, dtype=float)), dtype=float)
    m = np.round(n * alpha).astype(int)
    k = np.round(c * (n - m)).astype(int)
    u = np.abs(alpha - m / n)
    applies = (m > 0) & (eta > 2.0 * u)
    with np.errstate(divide="ignore", invalid="ignore"):
        c_min = (n - m) * (eta - u) ** 2 / (m * (eta - 2.0 * u) ** 2) - 1.0
    values = bound_two_region(RegionPartition(n=n, m=m, k=k), MassSpec.theoretical(alpha),
                              eta).raw
    return MonotonicityReport.from_values("nondecreasing", thetas, values,
                                          precondition_met=_holds(c >= c_min[applies]))


def check_prop2(part: RegionPartition, mass: MassSpec, eta: float,
                eps_grid: Sequence[float], k1_max: int) -> MonotonicityReport:
    """Check that the three-region bound shrinks with exploration frequency.

    All inputs are held fixed except epsilon and the induced exploration
    count k1(eps) = round(eps * k1_max).  Every epsilon must lie in [0, 1].
    """
    eps = np.asarray(eps_grid, dtype=float)
    _check_epsilon(eps)     # before k1 is derived from it
    p = replace(part, k1=np.round(eps * k1_max).astype(int))
    values = bound_three_region(p, mass, eps, eta).raw
    return MonotonicityReport.from_values("nonincreasing", eps_grid, values)
