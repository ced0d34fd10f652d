"""Two-dimensional extension with linear decision boundaries.

A line w.x = b splits the plane into a censored half (w.x - b < 0) and a
disclosed half.  All probability bookkeeping happens through projected
scores w.x, so every 2D quantity reduces exactly to its 1D counterpart
on the projections; only the leading constants change (a factor 2 per
dimension in the base inequality, so 4 instead of 2 here).

The distribution of mass below a line parallel to the boundary, as a
function of its intercept, plays the role of the 1D CDF ("adjusted"
CDF): for a Gaussian cloud it is the Gaussian CDF of the projection,
``Gaussian2D.projection(w)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .censored import (
    MassSpec,
    RegionPartition,
    bound_three_region,
    bound_two_region,
    partition,
)
from .classic import BoundValue
from .stats import GaussianCdf

__all__ = [
    "Boundary2D",
    "Gaussian2D",
    "partition_2d",
    "adjusted_cdf_empirical",
    "bound_2d_two_region",
    "bound_2d_three_region",
]


@dataclass(frozen=True)
class Boundary2D:
    """Decision line w.x = b, with an optional exploration line w.x = b_lb."""

    w: tuple[float, float]
    b: float
    b_lb: Optional[float] = None

    def __post_init__(self):
        w = (float(self.w[0]), float(self.w[1]))
        lines = (self.b,) if self.b_lb is None else (self.b, self.b_lb)
        if not np.all(np.isfinite(w + lines)):
            raise ValueError(f"w, b and b_lb must be finite, got w={self.w} b={self.b} "
                             f"b_lb={self.b_lb}")
        if w[0] == 0.0 and w[1] == 0.0:
            raise ValueError("weight vector must be nonzero")
        object.__setattr__(self, "w", w)
        if self.b_lb is not None and not self.b_lb < self.b:
            raise ValueError(f"need b_lb < b, got b_lb={self.b_lb} b={self.b}")

    def project(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[1] != 2:
            raise ValueError("points must be (n, 2)")
        with np.errstate(over="ignore", invalid="ignore"):
            proj = pts @ np.asarray(self.w)
        if not np.all(np.isfinite(proj)):
            raise ValueError("points must have finite projections w.x")
        return proj


@dataclass(frozen=True)
class Gaussian2D:
    """Bivariate Gaussian cloud N(mean, cov)."""

    mean: tuple[float, float]
    cov: tuple[tuple[float, float], tuple[float, float]]

    def projection(self, w: tuple[float, float]) -> GaussianCdf:
        """Distribution of w.X: Gaussian with mean w.mu, variance w'Sigma w."""
        wv = np.asarray(w, dtype=float)
        mu = float(wv @ np.asarray(self.mean))
        var = float(wv @ np.asarray(self.cov) @ wv)
        if not var > 0:
            raise ValueError("projection variance must be positive")
        return GaussianCdf(mu, np.sqrt(var))

    def sample(self, count: int, rng) -> np.ndarray:
        """Draw points via inverse-CDF on independent axes then correlate."""
        gen = rng.generator()
        z = ndtri(gen.random((count, 2)))
        chol = np.linalg.cholesky(np.asarray(self.cov, dtype=float))
        return np.asarray(self.mean, dtype=float)[None, :] + z @ chol.T


def partition_2d(points, boundary: Boundary2D) -> RegionPartition:
    """Count points per region by the sign of w.x - b (and w.x - b_lb).

    ``censored.partition`` on the projections w.x: points exactly on a
    line count as the upper (disclosed/explored) side, matching the 1D
    at-threshold admission rule.
    """
    return partition(boundary.project(points), boundary.b, boundary.b_lb)


def adjusted_cdf_empirical(points, boundary: Boundary2D, b_prime: float) -> float:
    """Fraction of points at or below the line w.x = b_prime."""
    proj = boundary.project(points)
    if proj.size == 0:
        raise ValueError("empty sample")
    return float(np.mean(proj <= b_prime))


def bound_2d_two_region(part: RegionPartition, alpha: float, eta: float) -> BoundValue:
    """Two-region deviation bound in 2D: the 1D form with constants 4."""
    return bound_two_region(part, MassSpec.theoretical(alpha), eta, lead=4.0)


def bound_2d_three_region(part: RegionPartition, alpha: float, beta: float,
                          epsilon: float, eta: float) -> BoundValue:
    """Three-region deviation bound in 2D: the 1D form with constants 4."""
    return bound_three_region(part, MassSpec.theoretical(alpha, beta), epsilon, eta, lead=4.0)
