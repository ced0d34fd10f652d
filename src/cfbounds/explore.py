"""Exploration cost models and the bound-improvement-minus-cost chooser.

Admitting an otherwise-rejected sample at score x costs exp((theta-x)/c):
cheap near the threshold, exponentially dearer further below it.  The
expected per-arrival cost of exploring [lb, theta) at frequency eps is

    C(lb, theta, eps) = eps * integral_lb^theta exp((theta-x)/c) f0(x) dx,

with f0 the density of the costly (label-0) population.  The optimizer
maximizes avg[B(theta) - B_e(lb, theta, eps)] - C over a grid, where the
bound improvement is evaluated with expected arrival counts plugged in.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .censored import (MassSpec, RegionPartition, _check_epsilon, bound_three_region,
                       bound_two_region)
from .stats import TheoreticalCdf

__all__ = [
    "CostModel",
    "BoundContext",
    "OptimizationResult",
    "cost_single",
    "optimize_exploration",
]

_GL_PANEL_ORDER = 16
_MAX_NODES = 1 << 20
_GL_REL_TOL = 1e-8


@dataclass(frozen=True)
class CostModel:
    """Cost-decay constant c > 0 and the costly population's distribution,
    which needs an analytic ``density``: a quadrature never sees a jump."""

    c: float
    f0: TheoreticalCdf

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"cost decay constant must be positive, got {self.c}")
        if not callable(getattr(self.f0, "density", None)):
            raise ValueError(f"f0 has no analytic density: {type(self.f0).__name__}")


def _gl_adaptive(f, a: float, b: float) -> float:
    """Composite Gauss-Legendre with panel doubling to a relative tolerance.

    A panel sum that is not finite is settled at once, since more panels
    cannot mend an overflowed integrand: inf is returned, and NaN (an
    overflow times an underflow, inf * 0) raises ``ValueError``.
    """
    if not a < b:
        return 0.0
    nodes0, weights0 = leggauss(_GL_PANEL_ORDER)
    panels = 1
    prev = None
    while panels * _GL_PANEL_ORDER <= _MAX_NODES:
        edges = np.linspace(a, b, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        xs = mid + half * nodes0[None, :]
        total = float(np.sum(half * weights0[None, :] * f(xs)))
        if not np.isfinite(total):
            if np.isnan(total):
                raise ValueError(f"the integrand over [{a}, {b}] overflows to inf * 0")
            return total
        if prev is not None and abs(total - prev) <= _GL_REL_TOL * max(abs(total), 1e-300):
            return total
        prev = total
        panels *= 2
    return prev


def cost_single(lb: float, theta: float, epsilon: float, model: CostModel) -> float:
    """Expected exploration cost over [lb, theta) at frequency epsilon."""
    if not (np.isfinite(lb) and np.isfinite(theta)):
        raise ValueError(f"lb and theta must be finite, got lb={lb} theta={theta}")
    if lb > theta:
        raise ValueError(f"need lb <= theta, got lb={lb} theta={theta}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if epsilon == 0.0 or lb == theta:
        return 0.0
    integrand = lambda x: np.exp((theta - x) / model.c) * model.f0.density(x)
    return epsilon * _gl_adaptive(integrand, lb, theta)


@dataclass(frozen=True)
class BoundContext:
    """Everything the optimizer needs to evaluate bound improvement.

    Counts are plugged in as expectations over the arrival process:
    k = T*(1-alpha) disclosed samples for both bounds, and
    k1 = eps*T*(alpha-beta) exploration samples for the exploration
    bound.  The initial partition is either exact-mass (m = round(n*F(t)))
    or realized from supplied initial samples, averaged over the supplied
    ensemble.
    """

    population: TheoreticalCdf
    n: int
    theta: float
    eta: float
    arrivals: int
    initial_samples: Optional[tuple[np.ndarray, ...]] = None

    def __post_init__(self):
        if self.initial_samples is not None and not len(self.initial_samples):
            raise ValueError("initial_samples must hold at least one sample set, or be None")

    def _partitions(self, lb: float) -> list[tuple[int, int]]:
        alpha = float(self.population.cdf(self.theta))
        beta = float(self.population.cdf(lb))
        if self.initial_samples is None:
            return [(int(round(self.n * alpha)), int(round(self.n * beta)))]
        return [(int(np.sum(x < self.theta)), int(np.sum(x < lb)))
                for x in self.initial_samples]

    def improvement(self, lb: float, epsilon):
        """avg over the ensemble of B(theta) - B_e(lb, theta, epsilon).

        Elementwise over an array of epsilon values.  An lb at or above
        theta explores nothing: it counts as lb = theta.  theta must be
        finite, and so must lb unless it lies above theta.
        """
        lb = min(lb, self.theta)
        if not np.isfinite((self.theta, lb)).all():
            raise ValueError(f"theta and lb must be finite, got theta={self.theta} lb={lb}")
        alpha = float(self.population.cdf(self.theta))
        beta = float(self.population.cdf(lb))
        T = self.arrivals
        eps = np.asarray(epsilon, dtype=float)
        _check_epsilon(eps)     # before k1 is derived from it
        k = int(round(T * (1.0 - alpha)))
        k1 = np.round(eps * T * (alpha - beta)).astype(int)
        diffs = []
        for m, l in self._partitions(lb):
            base = bound_two_region(RegionPartition(n=self.n, m=m, k=k),
                                    MassSpec.theoretical(alpha), self.eta)
            expl = bound_three_region(RegionPartition(n=self.n, m=m, l=l, k=k, k1=k1),
                                      MassSpec.theoretical(alpha, beta), eps, self.eta)
            diffs.append(base.probability - expl.probability)
        mean = np.mean(diffs, axis=0)
        return mean if mean.ndim else float(mean)


@dataclass(frozen=True)
class OptimizationResult:
    lb: float
    epsilon: float
    objective: float
    grid_lb: tuple[float, ...]
    grid_eps: tuple[float, ...]
    objective_grid: np.ndarray      # shape (len(grid_lb), len(grid_eps))


def default_eps_grid(step: float = 0.0025) -> np.ndarray:
    if not 0.0 < step <= 1.0:
        raise ValueError(f"eps step must be in (0, 1], got {step}")
    return np.round(np.arange(0.0, 1.0 + step / 2, step), 10)


def default_lb_grid(population, count: int = 50) -> np.ndarray:
    """Percentile-based exploration lower bounds (1st through 50th)."""
    qs = np.linspace(0.01, 0.50, count)
    return np.asarray(population.inverse(qs), dtype=float)


def optimize_exploration(ctx: BoundContext, model: CostModel,
                         lb_grid: Sequence[float],
                         eps_grid: Sequence[float]) -> OptimizationResult:
    """Grid-maximize (bound improvement) - (exploration cost).

    Exhaustive evaluation; ties break toward smaller epsilon, then larger
    lb (the cheaper policy).
    """
    lb_grid = np.asarray(list(lb_grid), dtype=float)
    eps_grid = np.asarray(list(eps_grid), dtype=float)
    if lb_grid.size == 0 or eps_grid.size == 0:
        raise ValueError("grids must be nonempty")
    obj = np.empty((len(lb_grid), len(eps_grid)))
    for i, lb in enumerate(lb_grid):
        cost_full = cost_single(min(lb, ctx.theta), ctx.theta, 1.0, model)
        # epsilon = 0 explores nothing and costs 0, as in cost_single, even
        # where the full cost overflows to inf
        cost = np.multiply(eps_grid, cost_full, out=np.zeros_like(eps_grid),
                           where=eps_grid > 0)
        obj[i] = ctx.improvement(lb, eps_grid) - cost
    # the first maximum in preference order (eps ascending, lb descending)
    # is the cheapest policy among ties
    j, r = np.unravel_index(np.argmax(obj[::-1].T), (len(eps_grid), len(lb_grid)))
    i = len(lb_grid) - 1 - r
    return OptimizationResult(
        lb=float(lb_grid[i]),
        epsilon=float(eps_grid[j]),
        objective=float(obj[i, j]),
        grid_lb=tuple(float(v) for v in lb_grid),
        grid_eps=tuple(float(v) for v in eps_grid),
        objective_grid=obj,
    )
