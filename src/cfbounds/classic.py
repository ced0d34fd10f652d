"""Classical IID deviation bounds used as baselines and building blocks.

All bounds return a :class:`BoundValue` holding the raw formula output
(which may exceed 1) alongside the clamped probability.  Exponentials are
evaluated in log space so that polynomial prefactors like (n+1)^d cannot
overflow before the exponential damping is applied.  The bounds are
elementwise in eta: an array eta gives arrays, a scalar one Python floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundValue",
    "dkw_bound",
    "dkw_eta",
    "gc_bound",
    "gc_eta",
    "vc_bound",
    "vc_eta",
    "hoeffding_bound",
    "hoeffding_eta",
    "multivariate_dkw_bound",
]

_LOG_MAX = 700.0  # exp(700) is near the double-precision ceiling


@dataclass(frozen=True)
class BoundValue:
    """Raw bound value plus its probability interpretation.

    ``trivial`` marks results where a validity precondition of the
    formula failed (the deviation tolerance did not exceed the shift
    terms) and the probability was forced to 1.  ``approximate`` marks
    benchmark bounds implemented with standard textbook constants rather
    than exactly specified ones.  ``raw`` and ``trivial`` may be arrays
    of one shape (a bound evaluated elementwise); ``probability`` is then
    an array too.
    """

    raw: float
    trivial: bool = False
    approximate: bool = False

    def __post_init__(self):
        if not np.greater_equal(self.raw, 0).all():   # also rejects NaN
            raise ValueError(f"raw bound must be nonnegative, got {self.raw}")

    @property
    def probability(self) -> float:
        p = np.where(self.trivial, 1.0, np.minimum(self.raw, 1.0))
        return p if p.ndim else float(p)


def _from_log(log_raw, approximate: bool = False) -> BoundValue:
    """exp(log_raw), elementwise; a 0-d result becomes a Python float."""
    raw = np.exp(np.minimum(log_raw, _LOG_MAX))
    return BoundValue(float(raw) if raw.ndim == 0 else raw, approximate=approximate)


def _check_n_eta(n: int, eta) -> None:
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if not np.all(np.isfinite(eta) & np.greater(eta, 0)):
        raise ValueError(f"eta must be positive and finite, got {eta}")


def dkw_bound(n: int, eta: float) -> BoundValue:
    """Two-sided uniform eCDF deviation bound 2*exp(-2*n*eta^2)."""
    return multivariate_dkw_bound(n, eta, 1)


def dkw_eta(n: int, delta: float) -> float:
    """Deviation level eta with dkw_bound(n, eta) == delta.

    Returns sqrt(ln(2/delta) / (2n)); delta >= 2 gives 0.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if delta >= 2.0:
        return 0.0
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def gc_bound(n: int, eta: float) -> BoundValue:
    """Uniform eCDF deviation bound 8*(n+1)*exp(-n*eta^2/32).

    The shattering-coefficient form with S(n) replaced by n+1; marked
    approximate because it is used here as a benchmark whose exact
    constants vary across statements in the literature.
    """
    return vc_bound(n, eta, 1)


def gc_eta(n: int, delta: float) -> float:
    """Inverse of gc_bound in eta at confidence level delta."""
    return vc_eta(n, delta, 1)


def vc_bound(n: int, eta: float, d: int = 2) -> BoundValue:
    """Uniform deviation bound 8*(n+1)^d*exp(-n*eta^2/32) for VC dimension d."""
    _check_n_eta(n, eta)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return _from_log(math.log(8.0) + d * math.log(n + 1.0) - n * eta * eta / 32.0, approximate=True)


def vc_eta(n: int, delta: float, d: int = 2) -> float:
    """Inverse of vc_bound in eta at confidence level delta."""
    if n < 1 or not delta > 0 or d < 1:
        raise ValueError("need n >= 1, delta > 0, d >= 1")
    arg = 32.0 * (math.log(8.0 / delta) + d * math.log(n + 1.0)) / n
    return math.sqrt(max(arg, 0.0))


def hoeffding_bound(n: int, eta: float) -> BoundValue:
    """Fixed-hypothesis two-sided Hoeffding bound 2*exp(-2*n*eta^2).

    Standard textbook form, marked approximate: it stands in for
    martingale-style benchmark bounds whose exact constants are not
    pinned down here.
    """
    return BoundValue(dkw_bound(n, eta).raw, approximate=True)


def hoeffding_eta(n: int, delta: float) -> float:
    """Inverse of hoeffding_bound in eta; same closed form as dkw_eta."""
    return dkw_eta(n, delta)


def multivariate_dkw_bound(n: int, eta: float, dim: int) -> BoundValue:
    """Uniform eCDF deviation bound 2*dim*exp(-2*n*eta^2) in dim dimensions."""
    _check_n_eta(n, eta)
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return _from_log(math.log(2.0 * dim) - 2.0 * n * eta * eta)
