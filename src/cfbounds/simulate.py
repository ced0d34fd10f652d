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
    bound_three_region,
    bound_two_region,
)
from .classic import BoundValue
from .generalization import optimal_threshold, sort_labeled
from .rng import SeededRng
from .stats import (
    EmpiricalCdf,
    GaussianCdf,
    MixtureModel,
    PiecewiseCdf,
    StitchedCdf,
    TheoreticalCdf,
    sample_labeled,
    stitched_from_partition,
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
    "ingest_scores",
    "cdf_to_spec",
    "cdf_from_spec",
]

# ``_region_of`` sums comparisons into these codes, so they must stay 0, 1, 2
REGION_CENSORED, REGION_EXPLORE, REGION_DISCLOSED = 0, 1, 2


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation run.

    Exactly one of ``population`` (pooled, unlabeled scores) or ``model``
    (two-label mixture) must be given.  ``theta=None`` trains the
    threshold on the initial labeled data.  ``retrain_every=B`` refits
    the threshold on all observed labeled data after every B arrivals; it
    takes no ``lb``.
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
        if self.population is not None and (self.n0 or self.n1):
            raise ValueError("pooled mode takes no n0 or n1")
        if self.model is not None and self.n:
            raise ValueError("labeled mode takes no n")
        # a partial table is no distribution, and the draws do not follow it
        cdfs = (self.population,) if self.pooled else (self.model.cdf0, self.model.cdf1)
        if any(isinstance(cdf, PiecewiseCdf) and not (cdf.ps[0] == 0.0 and cdf.ps[-1] == 1.0)
               for cdf in cdfs):
            raise ValueError("a piecewise CDF table must start at p = 0 and end at p = 1")
        if self.arrivals < 0:
            raise ValueError("arrivals must be nonnegative")
        if self.retrain_every is not None and self.retrain_every < 1:
            raise ValueError("retrain batch size must be >= 1")
        if any(v is not None and not math.isfinite(v) for v in (self.theta, self.lb)):
            raise ValueError(f"theta and lb must be finite, got theta={self.theta} lb={self.lb}")
        if self.theta is None and self.model is None:
            raise ValueError("training the threshold requires labeled data")
        if self.lb is not None and self.theta is not None and not self.lb < self.theta:
            raise ValueError("need lb < theta")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if self.retrain_every is not None and self.model is None:
            raise ValueError("adaptive retraining requires labeled data")
        if self.retrain_every is not None and self.lb is not None:
            # refits may move theta to or below lb and back, and no bound
            # covers arrivals decided against an exploration region that moved
            raise ValueError("adaptive retraining does not support an exploration bound lb")

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
        if self.lb is None:
            return bound_two_region(part, self._bound_masses, eta)
        return bound_three_region(part, self._bound_masses, self.epsilon, eta)

    @cached_property
    def _bound_masses(self) -> MassSpec:
        """The true region masses alpha = F(theta) and, with ``lb``, beta = F(lb).

        Computed once per config: an ``eta_for_confidence`` inversion
        evaluates the bound 5 times for a scalar partition, and some 30
        times for an array of 256 or more.  The value lives in the
        instance's ``__dict__``, which ``dataclasses.replace`` does not copy.
        """
        alpha = float(self.population.cdf(self.theta))
        if self.lb is None:
            return MassSpec.theoretical(alpha)
        return MassSpec.theoretical(alpha, float(self.population.cdf(self.lb)))

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

    def write_json(self, fh) -> None:
        """Write the trace to the text file ``fh`` as one JSON object.

        The text is that of ``json.dumps`` with sorted keys over the
        arrays as lists, except that a coin never drawn is ``null`` and a
        non-finite threshold (``theta0``, ``final_theta`` and the thetas
        of ``threshold_history``) is the string ``"inf"`` or ``"-inf"``.
        Each array goes out ``_JSON_BLOCK`` values at a time, every block
        formatting its distinct values once (``distinct_text``), so the text
        of a long run is never held whole.
        """
        fh.writelines(self._json_pieces())

    def _json_pieces(self):
        times, thetas = (np.array(v) for v in zip(*self.threshold_history))
        values = {
            "arrival_admitted": _json_array(self.arrival_admitted),
            "arrival_coins": _json_array(self.arrival_coins, _JSON_COINS),
            "arrival_labels": ("null",) if self.arrival_labels is None
            else _json_array(self.arrival_labels),
            "arrival_region": _json_array(self.arrival_region),
            "arrival_scores": _json_array(self.arrival_scores),
            "config": (json.dumps(self.config.to_dict(), sort_keys=True),),
            "final_theta": _json_items(np.array([self.final_theta]), _JSON_THETAS),
            "initial0": _json_array(self.initial0),
            "initial1": _json_array(self.initial1),
            "initial_scores": _json_array(self.initial_scores),
            "theta0": _json_items(np.array([self.theta0]), _JSON_THETAS),
            "threshold_history": _json_array(times, items=lambda block: map(
                "[{}, {}]".format, _json_items(times[block]),
                _json_items(thetas[block], _JSON_THETAS))),
        }
        for i, key in enumerate(sorted(values)):
            yield f'{", " if i else "{"}"{key}": '
            yield from values[key]
        yield "}"


_JSON_BLOCK = 8192      # values per formatted block of a trace.json array
# json.dumps's spellings of the non-finite floats; a coin never drawn (NaN)
# is null, and a non-finite threshold the string "inf" or "-inf"
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_COINS = {**_JSON_FLOATS, "nan": "null"}
_JSON_THETAS = {**_JSON_FLOATS, "inf": '"inf"', "-inf": '"-inf"'}


def distinct_text(values: np.ndarray, nonfinite: Optional[dict] = None) -> np.ndarray:
    """``str`` of every ``.tolist()`` item of the 1-d numeric array
    ``values``, as an object array of strings.

    Each distinct value is formatted once and its text indexed back to
    every place it occurs; float64 values are told apart by bit pattern,
    so ``-0.0`` and NaN payloads stay apart.  ``nonfinite`` respells the
    float texts ``"nan"``, ``"inf"`` and ``"-inf"``.
    """
    values = np.asarray(values)
    floats = values.dtype == np.float64
    keys, inverse = np.unique(values.view(np.int64) if floats else values,
                              return_inverse=True)
    if not floats:
        return np.array(list(map(str, keys.tolist())), dtype=object)[inverse]
    keys = keys.view(np.float64)
    text = np.array(list(map(float.__repr__, keys.tolist())), dtype=object)
    if nonfinite:
        for i in np.flatnonzero(~np.isfinite(keys)):
            text[i] = nonfinite[text[i]]
    return text[inverse]


_JSON_BOOLS = np.array(["false", "true"], dtype=object)


def _json_items(values: np.ndarray, nonfinite: dict = _JSON_FLOATS) -> list[str]:
    """The JSON text of each item of the 1-d array ``values``, as
    ``json.dumps`` spells it, floats respelled by ``nonfinite``."""
    if values.dtype == bool:
        return _JSON_BOOLS[values.view(np.uint8)].tolist()
    if values.dtype.kind == "f":
        values = values.astype(np.float64, copy=False)
    return distinct_text(values, nonfinite).tolist()


def _json_array(values: np.ndarray, nonfinite: dict = _JSON_FLOATS, items=None):
    """The pieces of a JSON list of ``values``, ``_JSON_BLOCK`` items at a time.

    ``items(block)`` gives a block's item texts; by default they are
    ``_json_items(values[block], nonfinite)``.
    """
    if items is None:
        items = lambda block: _json_items(values[block], nonfinite)     # noqa: E731
    yield "["
    for start in range(0, len(values), _JSON_BLOCK):
        if start:
            yield ", "
        yield ", ".join(items(slice(start, start + _JSON_BLOCK)))
    yield "]"


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
        theta0 = optimal_threshold(*sort_labeled(x0, x1))
    return Stage1State(theta0=theta0, initial_scores=np.empty(0), initial0=x0, initial1=x1)


def _region_of(scores, theta, lb):
    """The region code of each score: disclosed at or above ``theta``,
    explored in [``lb``, ``theta``) when there is an ``lb``, else censored.

    A ``theta`` at or below ``lb`` leaves no score in the exploration region.
    """
    above = scores >= theta
    region = above.view(np.uint8) * np.uint8(REGION_DISCLOSED)
    if lb is not None:
        region += (scores >= lb) & ~above
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
    drawn from their own stream, in arrival order, one for each arrival
    that falls in [LB, theta) at decision time and none for any other (so
    none without an LB).  Runs sharing a seed therefore see identical coins
    for those arrivals regardless of epsilon.

    Arrivals are decided in batches of ``retrain_every`` (the whole stream
    when it is None).  Theta is fixed within a batch, so deciding a batch
    at once, with its coins drawn in arrival order, equals deciding its
    arrivals one by one.  After each full batch a retraining config refits
    theta on the initial samples plus every arrival admitted so far.  Those
    are kept as one sorted pool with label-1 flags: a refit merges the
    batch's sorted admissions into it and reads the ERM threshold off it
    (``optimal_threshold``) without sorting the pool again.
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
        admitted[batch] = region[batch] == REGION_DISCLOSED
        if config.lb is not None:
            explore = start + np.flatnonzero(region[batch] == REGION_EXPLORE)
            coin = coin_gen.random(len(explore))
            coins[explore] = coin
            admitted[explore] = coin < config.epsilon
        if config.retrain_every is not None and batch.stop - start == B:
            kept, x = admitted[batch], scores[batch]
            new, new1 = sort_labeled(x[kept & (labels[batch] == 0)],
                                     x[kept & (labels[batch] == 1)])
            at = np.searchsorted(pool, new, side="right")
            pool, pool1 = np.insert(pool, at, new), np.insert(pool1, at, new1)
            theta = optimal_threshold(pool, pool1)
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
    part = RegionPartition(n=len(initial), m=int(np.sum(initial < theta)),
                           l=0 if lb is None else int(np.sum(initial < lb)),
                           k=len(new_above), k1=len(new_explore))
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
    each was decided, and no bound is claimed for it.  A trained threshold
    at or below lb leaves no exploration region and raises ``ValueError``.
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
        for row in reader:
            lineno = reader.line_num    # the record's last line; a quoted field can span lines
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
