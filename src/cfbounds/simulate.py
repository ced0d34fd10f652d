"""Sequential data-collection process with censored feedback.

Stage 1 draws the initial sample(s) and fixes (or trains) the decision
threshold.  Stage 2 decides each arrival: a score at or above the
threshold is always admitted; a score in the exploration range
[LB, theta) is admitted with probability epsilon (one coin per eligible
arrival, consumed in arrival order); anything else is rejected and its
label is never observed.  With ``retrain_every = B`` the threshold is
refit after every B arrivals on the initial samples and every arrival
admitted so far.  The threshold is fixed between refits, so arrivals are
decided a batch of B at a time (the whole stream without retraining),
which gives exactly the decisions and coins of deciding them one by one.
Stage 3 tallies the admitted samples into per-region counts, the plain
empirical CDF and the region-weighted estimate.

Labels of rejected arrivals are recorded in the trace for auditing but
are never used by any estimate built from it.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .censored import (
    MassSpec,
    RegionPartition,
    RegionSpec,
    bound_three_region,
    bound_two_region,
    region_weights,
)
from .classic import BoundValue
from .generalization import sort_labeled, thresholds_from_sorted
from .rng import SeededRng
from .stats import (
    EmpiricalCdf,
    GaussianCdf,
    MixtureModel,
    PiecewiseCdf,
    StitchedCdf,
    TheoreticalCdf,
    sample_labeled,
)

__all__ = [
    "SimulationConfig",
    "Stage1State",
    "SimulationTrace",
    "FinalEstimate",
    "run_stage1",
    "run_arrivals",
    "run_simulation",
    "finalize",
    "stitched_from_partition",
    "ingest_scores",
    "cdf_to_spec",
    "cdf_from_spec",
]

REGION_CENSORED, REGION_EXPLORE, REGION_DISCLOSED = 0, 1, 2


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation run.

    Exactly one of ``population`` (pooled, unlabeled scores) or ``model``
    (two-label mixture) must be given.  ``theta=None`` trains the
    threshold on the initial labeled data.  ``retrain_every=B`` refits
    the threshold on all observed labeled data after every B arrivals.
    """

    arrivals: int
    seed: int
    theta: Optional[float] = None
    lb: Optional[float] = None
    epsilon: float = 0.0
    population: Optional[TheoreticalCdf] = None
    n: int = 0
    model: Optional[MixtureModel] = None
    n0: int = 0
    n1: int = 0
    retrain_every: Optional[int] = None

    def __post_init__(self):
        if (self.population is None) == (self.model is None):
            raise ValueError("exactly one of population/model must be set")
        if self.population is not None and self.n < 1:
            raise ValueError("pooled mode needs n >= 1 initial samples")
        if self.model is not None and (self.n0 < 1 or self.n1 < 1):
            raise ValueError("labeled mode needs n0, n1 >= 1")
        if self.arrivals < 0:
            raise ValueError("arrivals must be nonnegative")
        if self.retrain_every is not None and self.retrain_every < 1:
            raise ValueError("retrain batch size must be >= 1")
        if self.theta is None and self.model is None:
            raise ValueError("training the threshold requires labeled data")
        if self.lb is not None and self.theta is not None and not self.lb < self.theta:
            raise ValueError("need lb < theta")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if self.retrain_every is not None and self.model is None:
            raise ValueError("adaptive retraining requires labeled data")

    @property
    def pooled(self) -> bool:
        return self.population is not None

    def deviation_bound(self, part: RegionPartition, eta) -> BoundValue:
        """Deviation bound of this pooled config's estimate at the counts ``part``.

        The two-region bound without ``lb``, the three-region bound with
        it, both at the population's true region masses.  ``part`` and
        ``eta`` may be arrays.  A labeled config raises ``ValueError``.
        """
        if not self.pooled:
            raise ValueError("deviation bounds need a pooled config")
        mass, spec = self._bound_masses
        if spec is None:
            return bound_two_region(part, mass, eta)
        return bound_three_region(part, mass, spec, eta)

    @cached_property
    def _bound_masses(self) -> tuple[MassSpec, Optional[RegionSpec]]:
        """The true region masses and, with ``lb``, the region spec.

        Computed once per config: an ``eta_for_confidence`` inversion
        evaluates the bound some 30 times.  The value lives in the
        instance's ``__dict__``, which ``dataclasses.replace`` does not copy.
        """
        alpha = float(self.population.cdf(self.theta))
        if self.lb is None:
            return MassSpec.theoretical(alpha), None
        beta = float(self.population.cdf(self.lb))
        return MassSpec.theoretical(alpha, beta), RegionSpec(self.theta, self.lb, self.epsilon)

    def to_dict(self) -> dict:
        out = {
            "arrivals": self.arrivals,
            "seed": self.seed,
            "theta": self.theta,
            "lb": self.lb,
            "epsilon": self.epsilon,
            "retrain_every": self.retrain_every,
        }
        if self.pooled:
            out["population"] = cdf_to_spec(self.population)
            out["n"] = self.n
        else:
            out["model"] = {
                "p1": self.model.p1,
                "cdf0": cdf_to_spec(self.model.cdf0),
                "cdf1": cdf_to_spec(self.model.cdf1),
            }
            out["n0"] = self.n0
            out["n1"] = self.n1
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        """Parse ``to_dict`` output, e.g. a JSON config file.

        Unknown keys (including the other mode's keys), strings in place
        of numbers, non-finite numbers and non-integral counts raise
        ``ValueError``.  Integral floats are accepted as counts.
        """
        pooled = isinstance(data, dict) and "population" in data
        _check_keys(data, _CONFIG_KEYS | (_POOLED_KEYS if pooled else _LABELED_KEYS),
                    "pooled config" if pooled else "labeled config")

        def optional(parse, key):
            value = data.get(key)
            return None if value is None else parse(value, key)

        kwargs = {
            "arrivals": _count(data["arrivals"], "arrivals"),
            "seed": _count(data["seed"], "seed"),
            "theta": optional(_number, "theta"),
            "lb": optional(_number, "lb"),
            "epsilon": _number(data.get("epsilon", 0.0), "epsilon"),
            "retrain_every": optional(_count, "retrain_every"),
        }
        if pooled:
            kwargs["population"] = cdf_from_spec(data["population"])
            kwargs["n"] = _count(data["n"], "n")
        else:
            m = data["model"]
            _check_keys(m, _MODEL_KEYS, "model")
            kwargs["model"] = MixtureModel(
                p1=_number(m["p1"], "p1"),
                cdf0=cdf_from_spec(m["cdf0"]),
                cdf1=cdf_from_spec(m["cdf1"]),
            )
            kwargs["n0"] = _count(data["n0"], "n0")
            kwargs["n1"] = _count(data["n1"], "n1")
        return cls(**kwargs)


_CONFIG_KEYS = frozenset({"arrivals", "seed", "theta", "lb", "epsilon", "retrain_every"})
_POOLED_KEYS = frozenset({"population", "n"})
_LABELED_KEYS = frozenset({"model", "n0", "n1"})
_MODEL_KEYS = frozenset({"p1", "cdf0", "cdf1"})
_CDF_KEYS = {"gaussian": frozenset({"family", "mean", "stddev"}),
             "piecewise": frozenset({"family", "xs", "ps"})}


def _check_keys(data, allowed: frozenset, what: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _count(value, name: str) -> int:
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _numbers(values, name: str) -> np.ndarray:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list of numbers, got {values!r}")
    return np.array([_number(v, name) for v in values], dtype=float)


def cdf_to_spec(cdf) -> dict:
    if isinstance(cdf, GaussianCdf):
        return {"family": "gaussian", "mean": cdf.mean, "stddev": cdf.stddev}
    if isinstance(cdf, PiecewiseCdf):
        return {"family": "piecewise", "xs": cdf.xs.tolist(), "ps": cdf.ps.tolist()}
    raise TypeError(f"cannot serialize CDF of type {type(cdf).__name__}")


def cdf_from_spec(spec: dict):
    family = spec.get("family") if isinstance(spec, dict) else None
    if family not in _CDF_KEYS:
        raise ValueError(f"unknown CDF family {family!r}")
    _check_keys(spec, _CDF_KEYS[family], f"{family} CDF")
    if family == "gaussian":
        return GaussianCdf(_number(spec["mean"], "mean"), _number(spec["stddev"], "stddev"))
    return PiecewiseCdf(_numbers(spec["xs"], "xs"), _numbers(spec["ps"], "ps"))


@dataclass(frozen=True)
class Stage1State:
    theta0: float
    initial_scores: np.ndarray                 # pooled scores, or empty
    initial0: np.ndarray
    initial1: np.ndarray


@dataclass(frozen=True)
class SimulationTrace:
    """Complete record of one run; sufficient to replay every decision."""

    config: SimulationConfig
    theta0: float
    initial_scores: np.ndarray
    initial0: np.ndarray
    initial1: np.ndarray
    arrival_scores: np.ndarray
    arrival_labels: Optional[np.ndarray]       # None in pooled mode
    arrival_region: np.ndarray                 # region codes at decision time
    arrival_admitted: np.ndarray
    arrival_coins: np.ndarray                  # NaN where no coin was consumed
    threshold_history: tuple[tuple[int, float], ...]   # (time, theta) pairs

    @property
    def final_theta(self) -> float:
        return self.threshold_history[-1][1]

    def to_json_dict(self) -> dict:
        coins = self.arrival_coins.astype(object)
        coins[np.isnan(self.arrival_coins)] = None
        return {
            "config": self.config.to_dict(),
            "theta0": self.theta0,
            "final_theta": _json_float(self.final_theta),
            "initial_scores": self.initial_scores.tolist(),
            "initial0": self.initial0.tolist(),
            "initial1": self.initial1.tolist(),
            "arrival_scores": self.arrival_scores.tolist(),
            "arrival_labels": None if self.arrival_labels is None else self.arrival_labels.tolist(),
            "arrival_region": self.arrival_region.tolist(),
            "arrival_admitted": self.arrival_admitted.tolist(),
            "arrival_coins": coins.tolist(),
            "threshold_history": [[t, _json_float(th)] for t, th in self.threshold_history],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)


def _json_float(x: float):
    if np.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def run_stage1(config: SimulationConfig) -> Stage1State:
    """Draw the initial data and fix the starting threshold."""
    gen = SeededRng(config.seed).substream(0).generator()
    if config.pooled:
        scores = np.asarray(config.population.inverse(gen.random(config.n)), dtype=float)
        return Stage1State(theta0=float(config.theta), initial_scores=scores,
                           initial0=np.empty(0), initial1=np.empty(0))
    u = gen.random(config.n0 + config.n1)
    x0 = np.asarray(config.model.cdf0.inverse(u[: config.n0]), dtype=float)
    x1 = np.asarray(config.model.cdf1.inverse(u[config.n0:]), dtype=float)
    if config.theta is not None:
        theta0 = float(config.theta)
    else:
        theta0 = _erm_threshold(*sort_labeled(x0, x1))
    return Stage1State(theta0=theta0, initial_scores=np.empty(0), initial0=x0, initial1=x1)


def _erm_threshold(pool: np.ndarray, pool1: np.ndarray) -> float:
    """ERM threshold of one sorted pool of scores with label-1 flags."""
    theta, _ = thresholds_from_sorted(pool[None, :], pool1[None, :])
    return float(theta[0])


def _region_of(scores, theta, lb):
    region = np.full(len(scores), REGION_CENSORED, dtype=np.uint8)
    region[scores >= theta] = REGION_DISCLOSED
    if lb is not None:
        region[(scores >= lb) & (scores < theta)] = REGION_EXPLORE
    return region


def _checked_stream(scores, labels, pooled: bool):
    """The arrival stream as arrays; malformed streams raise ``ValueError``."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1:
        raise ValueError(f"arrival scores must be 1-d, got shape {scores.shape}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("arrival scores must be finite")
    if labels is None:
        if not pooled:
            raise ValueError("labeled configs need labels in the arrival stream")
        return scores, None
    labels = np.asarray(labels)
    if labels.shape != scores.shape:
        raise ValueError(f"arrival stream has {len(scores)} scores "
                         f"but labels of shape {labels.shape}")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("arrival labels must be 0 or 1")
    return scores, labels


def run_arrivals(state: Stage1State, config: SimulationConfig,
                 arrival_stream: Optional[tuple[np.ndarray, Optional[np.ndarray]]] = None,
                 ) -> SimulationTrace:
    """Process the arrival sequence and record every decision.

    ``arrival_stream`` replaces synthetic draws with externally supplied
    (scores, labels), consumed in order; scores must be 1-d and finite and
    labels, when given, 0 or 1 with one per score.  Exploration coins are
    drawn from their own stream and consumed only for arrivals that fall
    in [LB, theta) at decision time, so runs sharing a seed see identical
    coins for those arrivals regardless of epsilon.

    Arrivals are decided in batches of ``retrain_every`` (the whole stream
    when it is None).  Theta is fixed within a batch, so deciding a batch
    at once, with its coins drawn in arrival order, equals deciding its
    arrivals one by one.  After each full batch a retraining config refits
    theta on the initial samples plus every arrival admitted so far.  Those
    are kept as one sorted pool with label-1 flags: a refit merges the
    batch's sorted admissions into it and reads the ERM threshold off it
    (``thresholds_from_sorted``) without sorting the pool again.
    """
    root = SeededRng(config.seed)
    if arrival_stream is not None:
        scores, labels = _checked_stream(*arrival_stream, config.pooled)
    elif config.pooled:
        gen = root.substream(1).generator()
        scores = np.asarray(config.population.inverse(gen.random(config.arrivals)),
                            dtype=float)
        labels = None
    else:
        scores, labels = sample_labeled(config.model, config.arrivals, root.substream(1))

    T = len(scores)
    coin_gen = root.substream(2).generator()
    coins = np.full(T, np.nan)
    region = np.empty(T, dtype=np.uint8)
    admitted = np.empty(T, dtype=bool)
    theta, history = state.theta0, [(0, state.theta0)]
    pool, pool1 = sort_labeled(state.initial0, state.initial1)
    B = config.retrain_every or max(T, 1)
    for start in range(0, T, B):
        batch = slice(start, min(start + B, T))
        region[batch] = _region_of(scores[batch], theta, config.lb)
        explore = region[batch] == REGION_EXPLORE
        coins[batch][explore] = coin_gen.random(int(np.sum(explore)))
        admitted[batch] = (region[batch] == REGION_DISCLOSED) | (coins[batch] < config.epsilon)
        if config.retrain_every is not None and batch.stop - start == B:
            kept, x = admitted[batch], scores[batch]
            new, new1 = sort_labeled(x[kept & (labels[batch] == 0)],
                                     x[kept & (labels[batch] == 1)])
            at = np.searchsorted(pool, new, side="right")
            pool, pool1 = np.insert(pool, at, new), np.insert(pool1, at, new1)
            theta = _erm_threshold(pool, pool1)
            history.append((batch.stop, theta))

    return SimulationTrace(
        config=config,
        theta0=state.theta0,
        initial_scores=state.initial_scores,
        initial0=state.initial0,
        initial1=state.initial1,
        arrival_scores=scores,
        arrival_labels=labels,
        arrival_region=region,
        arrival_admitted=admitted,
        arrival_coins=coins,
        threshold_history=tuple(history),
    )


def run_simulation(config: SimulationConfig,
                   arrival_stream=None) -> SimulationTrace:
    return run_arrivals(run_stage1(config), config, arrival_stream)


@dataclass(frozen=True)
class FinalEstimate:
    """Per-population outcome of a run.

    ``part`` holds the region counts, ``ecdf`` the plain empirical CDF of
    every observed sample, and ``estimate`` the region-weighted estimate
    (``stitched_from_partition``) that the deviation bounds describe at
    those counts.
    """

    part: RegionPartition
    ecdf: EmpiricalCdf
    estimate: StitchedCdf


def _finalize_one(initial: np.ndarray, admitted: np.ndarray, admitted_region: np.ndarray,
                  theta: float, lb: Optional[float], epsilon: float) -> FinalEstimate:
    new_explore = admitted[admitted_region == REGION_EXPLORE]
    new_above = admitted[admitted_region == REGION_DISCLOSED]
    m = int(np.sum(initial < theta))
    if lb is None:
        part = RegionPartition(n=len(initial), m=m, k=len(new_above))
    else:
        part = RegionPartition(n=len(initial), m=m, l=int(np.sum(initial < lb)),
                               k1=len(new_explore), k2=len(new_above))
    return FinalEstimate(
        part=part, ecdf=EmpiricalCdf(np.concatenate([initial, admitted])),
        estimate=stitched_from_partition(initial, new_explore, new_above, theta, lb, epsilon))


def finalize(trace: SimulationTrace) -> dict:
    """Tally the trace into per-label (or pooled) partitions and estimates.

    Counts are taken against the final threshold; only admitted arrivals
    enter the estimates, each in the region recorded when it was admitted.
    The region-weighted estimate uses the configured lb and epsilon.

    The deviation and generalization bounds are claimed for fixed-threshold
    runs only.  A retrained run's partition counts the initial samples
    against the final theta but the arrivals by the region recorded when
    each was decided, and no bound is claimed for it.  A retrained run
    whose final theta lies at or below lb has no exploration region and
    raises ``ValueError``.
    """
    theta = trace.final_theta
    lb, eps = trace.config.lb, trace.config.epsilon
    if lb is not None and not theta > lb:
        raise ValueError(f"final theta {theta} is at or below lb {lb}; "
                         "the exploration region [lb, theta) is empty")
    adm = trace.arrival_admitted
    if trace.config.pooled:
        return {None: _finalize_one(trace.initial_scores, trace.arrival_scores[adm],
                                    trace.arrival_region[adm], theta, lb, eps)}
    out = {}
    for label, initial in ((0, trace.initial0), (1, trace.initial1)):
        mask = adm & (trace.arrival_labels == label)
        out[label] = _finalize_one(initial, trace.arrival_scores[mask],
                                   trace.arrival_region[mask], theta, lb, eps)
    return out


def stitched_from_partition(initial: np.ndarray, new_explore: np.ndarray,
                            new_above: np.ndarray, theta: float,
                            lb: Optional[float], epsilon: float) -> StitchedCdf:
    """Region-weighted full-domain CDF estimate from observed samples.

    Two-region form (no lb): ``StitchedCdf.two_region``, with weights m/n
    and (n-m)/n.  Three-region form: the weights of
    ``censored.region_weights``, which re-estimate the split above lb from
    the arrival counts.  As for any ``StitchedCdf``, the estimate's top
    value may lie up to 4 ulps (4 * 2**-52) below 1.
    """
    if lb is None:
        return StitchedCdf.two_region(initial, new_above, theta)
    initial = np.asarray(initial, dtype=float)
    cens = initial[initial < lb]
    expl = np.concatenate([initial[(initial >= lb) & (initial < theta)], new_explore])
    disc = np.concatenate([initial[initial >= theta], new_above])
    part = RegionPartition(n=len(initial), m=int(np.sum(initial < theta)), l=len(cens),
                           k1=len(new_explore), k2=len(new_above))
    return StitchedCdf.from_samples((lb, theta), region_weights(part, epsilon),
                                    (cens, expl, disc))


def ingest_scores(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a `score,label` CSV into an arrival stream (file order).

    Labels must be 0 or 1 and scores finite; malformed rows raise with
    their line number.
    """
    scores, labels = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["score", "label"]:
            raise ValueError(f"{path}: expected header 'score,label', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            try:
                score = float(row[0])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad score {row[0]!r}") from None
            if not math.isfinite(score):
                raise ValueError(f"{path}:{lineno}: score must be finite")
            label_txt = row[1].strip()
            if label_txt not in ("0", "1"):
                raise ValueError(f"{path}:{lineno}: label must be 0 or 1, got {row[1]!r}")
            scores.append(score)
            labels.append(int(label_txt))
    return np.asarray(scores, dtype=float), np.asarray(labels, dtype=np.int8)
