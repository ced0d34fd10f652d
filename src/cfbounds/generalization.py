"""Threshold-classifier risk, ERM threshold training and the assembled
generalization bound.

The classifier admits exactly the scores at or above its threshold, so a
label-1 sample is misclassified when it falls strictly below the
threshold and a label-0 sample when it does not.  ``threshold_risk``
weighs the two labels' masses below a threshold into a risk: the
expected risk from the per-label CDFs and the class priors, the
empirical risk from the per-label counts below the threshold and the
initial label proportions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "GenBound",
    "threshold_risk",
    "optimal_threshold",
    "sort_labeled",
    "train_thresholds",
    "thresholds_from_sorted",
    "gen_bound_from_counts",
]


def threshold_risk(w0, w1, f0, f1):
    """Misclassification risk of a threshold, elementwise: w1*f1 + w0*(1 - f0).

    ``w_y`` weighs label y and ``f_y`` is label y's mass strictly below the
    threshold: label-1 mass there and label-0 mass at or above it are the
    errors.
    """
    return w1 * f1 + w0 * (1.0 - f0)


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


def optimal_threshold(xs: np.ndarray, is1: np.ndarray) -> float:
    """ERM threshold of one ascending pool of scores with label-1 flags.

    The one-row case of ``thresholds_from_sorted``.
    """
    theta, _ = thresholds_from_sorted(xs[None, :], is1[None, :])
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
    """Bound on |expected - empirical| risk of the trained threshold, from
    the initial label counts.

    ``sup_bounds`` maps each label to a high-confidence bound on the
    uniform deviation between that label's true CDF and its estimator
    (each inverted at confidence delta, from whichever deviation bound
    applies).  Holds with probability at least 1 - 2*delta by a union
    over the two labels:

        3*|p0 - n0/n| + sum_y min(p_y, n_y/n) * sup_bound_y.

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
