"""Exploration cost models and the bound-improvement-minus-cost chooser.

Admitting an otherwise-rejected sample at score x costs exp((theta-x)/c):
cheap near the threshold, exponentially dearer further below it.  The
expected per-arrival cost of exploring [lb, theta) at frequency eps is

    C(lb, theta, eps) = eps * integral_lb^theta exp((theta-x)/c) f0(x) dx,

with f0 the density of the costly (label-0) population, a Gaussian
N(mu, sigma^2).  With s = sigma/c and z(x) = (x - mu)/sigma the integral is

    exp((theta - mu)/c + s^2/2) * [Phi(z(theta) + s) - Phi(z(lb) + s)].

The optimizer maximizes avg[B(theta) - B_e(lb, theta, eps)] - C over a
grid, where the bound improvement is evaluated with expected arrival
counts plugged in.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import erfcx, ndtr

from .censored import (MassSpec, RegionPartition, _check_epsilon, bound_three_region,
                       bound_two_region)
from .stats import GaussianCdf, TheoreticalCdf

__all__ = [
    "CostModel",
    "BoundContext",
    "OptimizationResult",
    "cost_single",
    "optimize_exploration",
]

_SQRT2 = np.sqrt(2.0)
_SQRT2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class CostModel:
    """Cost-decay constant c > 0 and the costly population's distribution,
    a ``GaussianCdf``: the cost integral is closed-form for its density."""

    c: float
    f0: GaussianCdf

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"cost decay constant must be positive, got {self.c}")
        if not isinstance(self.f0, GaussianCdf):
            raise ValueError(f"f0 needs a Gaussian density, got {type(self.f0).__name__}")


def _scaled_tail_gap(u: float, v: float, w: float) -> float:
    """exp(u^2/2) * (Q(u) - Q(v)) for 0 < u <= v, with Q the standard normal
    upper tail and w = v - u taken from the interval's width, not from u and v.

    ``erfcx`` scales each tail by its own exp(t^2/2), so neither underflows.
    """
    return 0.5 * (erfcx(u / _SQRT2) - erfcx(v / _SQRT2) * np.exp(-0.5 * w * (u + v)))


def _narrow_gap(m: float, w: float) -> float:
    """exp(m^2/2) * (Phi(m + w/2) - Phi(m - w/2)) from its series in the
    width w around the midpoint m, for w * max(1, |m|) below ``_NARROW``.

    The mass is w phi(m) (1 + (m^2 - 1) w^2/24 + (m^4 - 6 m^2 + 3) w^4/1920
    + ...), and the first dropped term is below 3e-16 of it there.
    """
    m2, w2 = m * m, w * w
    series = 1.0 + (m2 - 1.0) * w2 / 24.0 + (m2 * m2 - 6.0 * m2 + 3.0) * w2 * w2 / 1920.0
    return w * series / _SQRT2PI


_NARROW = 1e-2      # below this w * max(1, |m|) the two tails' difference cancels


def cost_single(lb: float, theta: float, epsilon: float, model: CostModel) -> float:
    """Expected exploration cost over [lb, theta) at frequency epsilon.

    inf where the cost is beyond the float range.  A narrow interval,
    (theta - lb) * max(1, |m|) below ``_NARROW`` sigma with m its midpoint
    in the shifted z, takes its Gaussian mass from the series in its width
    (``_narrow_gap``), where the difference of the two tails would cancel.
    """
    if not (np.isfinite(lb) and np.isfinite(theta)):
        raise ValueError(f"lb and theta must be finite, got lb={lb} theta={theta}")
    if lb > theta:
        raise ValueError(f"need lb <= theta, got lb={lb} theta={theta}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if epsilon == 0.0 or lb == theta:
        return 0.0
    mu, sigma = model.f0.mean, model.f0.stddev
    s = sigma / model.c
    zl, zt = (lb - mu) / sigma, (theta - mu) / sigma
    a, b, w = zl + s, zt + s, (theta - lb) / sigma
    m = 0.5 * (a + b)
    narrow = w * max(1.0, abs(m)) < _NARROW
    # the integral is exp(log_scale) * mass, with exp(log_scale) sqrt(2 pi)
    # times the peak over [lb, theta] of the integrand in z
    if a > 0:       # the peak is at lb
        log_scale = (theta - lb) / model.c - 0.5 * zl * zl
        mass = (_narrow_gap(m, w) * np.exp(-0.25 * w * (a + m)) if narrow
                else _scaled_tail_gap(a, b, w))
    elif b < 0:     # the peak is at theta
        log_scale = -0.5 * zt * zt
        mass = (_narrow_gap(m, w) * np.exp(0.25 * w * (b + m)) if narrow
                else _scaled_tail_gap(-b, -a, w))
    else:           # the peak is at mu - sigma^2 / c, inside
        log_scale = (theta - mu) / model.c + 0.5 * s * s
        mass = _narrow_gap(m, w) * np.exp(-0.5 * m * m) if narrow else ndtr(b) - ndtr(a)
    with np.errstate(over="ignore", divide="ignore"):
        return epsilon * float(np.exp(log_scale + np.log(mass)))


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
