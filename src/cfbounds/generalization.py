"""Threshold-classifier risks and the assembled generalization bound.

The classifier admits exactly the scores at or above its threshold, so a
label-1 sample is misclassified when it falls strictly below the
threshold and a label-0 sample when it does not.  Expected risk uses the
theoretical per-label CDFs; empirical risk counts the same events on a
dataset, keeping the initial label proportions as weights and using the
region-weighted per-label estimators when data was extended under
censored collection.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .stats import EmpiricalCdf, MixtureModel, stitched_from_partition

__all__ = [
    "LabeledDataset",
    "GenBound",
    "RiskPair",
    "expected_risk",
    "empirical_risk",
    "optimal_threshold",
    "sort_labeled",
    "train_thresholds",
    "thresholds_from_sorted",
    "gen_bound",
    "gen_bound_from_counts",
    "risks",
]

_EMPTY = np.empty(0)


@dataclass(frozen=True)
class LabeledDataset:
    """Per-label score samples: initial IID draws plus censored-mode extras.

    ``new0`` / ``new1`` hold samples admitted after the initial draw; they
    must all lie at or above ``admission_threshold``, the threshold that
    governed their collection.
    """

    initial0: np.ndarray
    initial1: np.ndarray
    new0: np.ndarray = field(default_factory=lambda: _EMPTY)
    new1: np.ndarray = field(default_factory=lambda: _EMPTY)
    admission_threshold: float | None = None

    def __post_init__(self):
        for name in ("initial0", "initial1", "new0", "new1"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).ravel())
        if self.n < 1:
            raise ValueError("dataset needs at least one sample")
        if (len(self.new0) or len(self.new1)) and self.admission_threshold is None:
            raise ValueError("new samples require the admission threshold that produced them")
        if self.admission_threshold is not None:
            th = self.admission_threshold
            if (len(self.new0) and self.new0.min() < th) or (len(self.new1) and self.new1.min() < th):
                raise ValueError("new samples must lie at or above the admission threshold")

    @property
    def n0(self) -> int:
        return len(self.initial0)

    @property
    def n1(self) -> int:
        return len(self.initial1)

    @property
    def n(self) -> int:
        return self.n0 + self.n1

    @property
    def k0(self) -> int:
        return len(self.new0)

    @property
    def k1(self) -> int:
        return len(self.new1)

    def estimator(self, label: int):
        """Per-label CDF estimate: plain eCDF, or region-weighted when extended.

        With extra admitted samples the censored part (below the admission
        threshold) keeps its initial weight m_y/n_y and the disclosed part
        spends the remaining weight over all disclosed samples.
        """
        initial = self.initial1 if label else self.initial0
        new = self.new1 if label else self.new0
        if len(new) == 0:
            return EmpiricalCdf(initial) if len(initial) else None
        return stitched_from_partition(initial, (), new, self.admission_threshold, None, 0.0)


@dataclass(frozen=True)
class RiskPair:
    """Expected and empirical risk of one threshold, with their gap."""

    expected: float
    empirical: float

    def __post_init__(self):
        for value in (self.expected, self.empirical):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"risk must lie in [0, 1], got {value}")

    @property
    def gap(self) -> float:
        return abs(self.expected - self.empirical)


def expected_risk(theta: float, model: MixtureModel) -> float:
    """Population misclassification probability of the threshold classifier."""
    return float(model.p1 * model.cdf1.cdf(theta) + model.p0 * (1.0 - model.cdf0.cdf(theta)))


def risks(theta: float, model: MixtureModel, data: LabeledDataset) -> RiskPair:
    """Expected and empirical risk of one threshold as a pair."""
    return RiskPair(expected=expected_risk(theta, model),
                    empirical=empirical_risk(theta, data))


def empirical_risk(theta: float, data: LabeledDataset) -> float:
    """Training misclassification estimate at a threshold.

    Scores exactly at the threshold are admitted, so label-1 errors are
    counted strictly below it.  Initial label proportions n_y / n stay as
    the class weights even after the dataset grows, since admitted-only
    extras say nothing about the priors.
    """
    n0, n1, n = data.n0, data.n1, data.n
    est1 = data.estimator(1)
    est0 = data.estimator(0)
    part1 = est1.cdf_left(theta) if est1 is not None else 0.0
    part0 = est0.cdf_left(theta) if est0 is not None else 0.0
    return float((n1 / n) * part1 + (n0 / n) * (1.0 - part0))


def sort_labeled(x0: np.ndarray, x1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Label-0 and label-1 scores sorted together, with label-1 flags.

    Works on one dataset (1-d) or row-wise on several (2-d); the sort is
    stable along the last axis.
    """
    scores = np.concatenate([x0, x1], axis=-1)
    order = np.argsort(scores, axis=-1, kind="stable")
    return np.take_along_axis(scores, order, axis=-1), order >= x0.shape[-1]


def train_thresholds(x0: np.ndarray, x1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise empirical-risk-minimizing thresholds and their risks.

    Row r of ``x0`` and ``x1`` holds one dataset's label-0 and label-1
    scores; ``thresholds_from_sorted`` of the rows sorted by
    ``sort_labeled``.
    """
    return thresholds_from_sorted(*sort_labeled(x0, x1))


def thresholds_from_sorted(xs: np.ndarray, is1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ERM thresholds and risks from ascending scores and label-1 flags.

    Candidates are midpoints between adjacent distinct scores plus
    -inf/+inf sentinels (risk is constant between adjacent scores, and
    midpoints avoid the at-threshold admission ambiguity).  Ties break
    toward the smallest threshold.  Only positions between distinct scores
    are scored, and a midpoint reads only the two neighbouring values, so
    the result does not depend on how tied scores are ordered.
    """
    R, n = xs.shape
    # errors[:, j]: threshold placed after the j smallest scores, which
    # hold below1[:, j] label-1 scores; the n0 - (j - below1) label-0
    # scores above it are errors too
    below1 = np.zeros((R, n + 1), dtype=np.intp)
    np.cumsum(is1, axis=1, out=below1[:, 1:])
    n0 = n - below1[:, -1:]
    errors = below1 + (n0 - (np.arange(n + 1) - below1))
    # positions between tied scores admit no strictly-between threshold
    valid = np.ones((R, n + 1), dtype=bool)
    valid[:, 1:n] = xs[:, 1:] > xs[:, :-1]
    errors = np.where(valid, errors, n + 1)
    j = np.argmin(errors, axis=1)
    risks = errors[np.arange(R), j] / n
    theta = np.empty(R)
    interior = (j > 0) & (j < n)
    theta[j == 0] = -np.inf
    theta[j == n] = np.inf
    ji = j[interior]
    rows = np.arange(R)[interior]
    theta[interior] = 0.5 * (xs[rows, ji - 1] + xs[rows, ji])
    return theta, risks


def optimal_threshold(data: LabeledDataset) -> float:
    """Threshold minimizing the empirical risk on the initial samples.

    The one-row case of ``train_thresholds``.
    """
    theta, _ = train_thresholds(data.initial0[None, :], data.initial1[None, :])
    return float(theta[0])


@dataclass(frozen=True)
class GenBound:
    """Assembled generalization-error bound and its pieces.

    The contributions and the total are arrays, elementwise, when the
    per-label deviation bounds are.
    """

    prior_term: float
    contributions: tuple[float | np.ndarray, float | np.ndarray]   # labels 0 and 1
    total: float | np.ndarray
    confidence: float

    def __post_init__(self):
        if not all(np.all(np.isfinite(term) & (term >= 0))
                   for term in (self.prior_term, *self.contributions)):
            raise ValueError("bound terms must be finite and nonnegative")


def gen_bound_from_counts(n0: int, n1: int, p1: float,
                          sup_bounds: Mapping[int, float | np.ndarray],
                          delta: float) -> GenBound:
    """Assemble the generalization bound from initial label counts.

    Each ``sup_bounds`` value may be an array; the bound is then evaluated
    elementwise.  A negative or non-finite value, or array element, raises
    ``ValueError``.
    """
    if not 0.0 < p1 < 1.0:
        raise ValueError(f"p1 must be in (0, 1), got {p1}")
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must be in (0, 0.5), got {delta}")
    if min(n0, n1) < 1:
        raise ValueError("need at least one initial sample per label")
    n = n0 + n1
    p0 = 1.0 - p1
    prior = 3.0 * abs(p0 - n0 / n)
    c0 = min(p0, n0 / n) * sup_bounds[0]
    c1 = min(p1, n1 / n) * sup_bounds[1]
    return GenBound(
        prior_term=prior,
        contributions=(c0, c1),
        total=prior + c0 + c1,
        confidence=1.0 - 2.0 * delta,
    )


def gen_bound(data: LabeledDataset, p1: float,
              sup_bounds: Mapping[int, float], delta: float) -> GenBound:
    """Bound on |expected - empirical| risk of the trained threshold.

    ``sup_bounds`` maps each label to a high-confidence bound on the
    uniform deviation between that label's true CDF and its estimator
    (each inverted at confidence delta, from whichever deviation bound
    applies).  Holds with probability at least 1 - 2*delta by a union
    over the two labels:

        3*|p0 - n0/n| + sum_y min(p_y, n_y/n) * sup_bound_y.
    """
    return gen_bound_from_counts(data.n0, data.n1, p1, sup_bounds, delta)
