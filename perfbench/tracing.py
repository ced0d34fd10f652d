"""Run-time span tracing of cfbounds layers, installed from outside the package.

``installed(tracer)`` replaces each hooked function or method with a timing
wrapper in every ``cfbounds`` module namespace that holds it (``from .x
import f`` copies the reference into the importing module), and restores
the originals on exit, so the package source stays untouched.

Spans are kept in memory.  A span's self time is its duration minus the
durations of its direct child spans; a layer's numbers are summed over its
spans.  A hook whose target no longer exists is skipped and reported, so a
refactor that renames a layer reads as zeros instead of crashing the run.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "counts")

    def __init__(self, name: str, parent: Optional["Span"]):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.counts: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects nested spans of one thread; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def enter(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = self.clock()
        return span

    def exit(self, span: Span) -> None:
        span.end = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if span.parent is not None:
            span.parent.child_s += span.duration

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``count(args, kwargs, result)`` gives work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def reset(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("reset with open spans")
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# Hooked layers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    attr: str
    owner: Optional[str] = None          # class name when the target is a method
    count: Optional[Callable] = None


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _sup_points(args, kwargs, result):
    # _sup_risk_gap(theta, x0, x1, k0, k1, ...): pooled samples = initial + admitted
    return {"points": len(_arg(args, kwargs, 1, "x0")) + len(_arg(args, kwargs, 2, "x1"))
            + int(_arg(args, kwargs, 3, "k0")) + int(_arg(args, kwargs, 4, "k1"))}


def _gaussian_points(args, kwargs, result):
    return {"points": int(np.size(args[1] if len(args) > 1 else next(iter(kwargs.values()))))}


def _sim_arrivals(args, kwargs, result):
    return {"arrivals": len(result.arrival_scores)}


def _ingest_rows(args, kwargs, result):
    return {"rows": len(result[0])}


def _batch_reps(args, kwargs, result):
    return {"reps": int(_arg(args, kwargs, 2, "replications"))}


# ``classic`` (closed form, <1% of any pass) and ``planar`` (on no workload's
# path) are deliberately not hooked.
HOOKS = (
    Hook("presets.reproduce", "cfbounds.presets", "reproduce"),
    Hook("presets.optimize", "cfbounds.presets", "optimize_fig3"),
    Hook("cli.main", "cfbounds.cli", "main"),
    Hook("simulate.run", "cfbounds.simulate", "run_simulation", count=_sim_arrivals),
    Hook("simulate.finalize", "cfbounds.simulate", "finalize"),
    Hook("simulate.ingest", "cfbounds.simulate", "ingest_scores", count=_ingest_rows),
    Hook("generalization.optimal_threshold", "cfbounds.generalization", "optimal_threshold"),
    Hook("censored.bound", "cfbounds.censored", "bound_two_region"),
    Hook("censored.bound", "cfbounds.censored", "bound_three_region"),
    Hook("censored.bound", "cfbounds.censored", "bound_two_region_apriori"),
    Hook("censored.eta_inverse", "cfbounds.censored", "eta_for_confidence"),
    Hook("explore.improvement", "cfbounds.explore", "improvement", owner="BoundContext"),
    Hook("explore.cost", "cfbounds.explore", "cost_single"),
    Hook("verify.sup_risk_gap", "cfbounds.verify", "_sup_risk_gap", count=_sup_points),
    Hook("verify.gen_gap_samples", "cfbounds.verify", "_gen_gap_samples"),
    Hook("verify.eta_vec", "cfbounds.verify", "_eta_two_region_vec"),
    Hook("verify.batch_sup", "cfbounds.verify", "_batch_sup_conditioned", count=_batch_reps),
    Hook("stats.gaussian", "cfbounds.stats", "cdf", owner="GaussianCdf", count=_gaussian_points),
    Hook("stats.gaussian", "cfbounds.stats", "inverse", owner="GaussianCdf",
         count=_gaussian_points),
    Hook("stats.ecdf", "cfbounds.stats", "__post_init__", owner="EmpiricalCdf"),
    Hook("stats.ecdf", "cfbounds.stats", "cdf", owner="EmpiricalCdf"),
    Hook("stats.ecdf", "cfbounds.stats", "cdf_left", owner="EmpiricalCdf"),
    Hook("stats.ecdf", "cfbounds.stats", "restrict", owner="EmpiricalCdf"),
    Hook("rng.generator", "cfbounds.rng", "generator", owner="SeededRng"),
)


def _target(hook: Hook):
    """(namespace holding the target, the target itself or None)."""
    owner = sys.modules.get(hook.module)
    if owner is not None and hook.owner is not None:
        owner = getattr(owner, hook.owner, None)
    return owner, (vars(owner).get(hook.attr) if owner is not None else None)


def missing_hooks(hooks=HOOKS) -> list[str]:
    """Hook targets that the imported package does not define."""
    return [f"{hook.module}.{hook.owner + '.' if hook.owner else ''}{hook.attr}"
            for hook in hooks if _target(hook)[1] is None]


@contextlib.contextmanager
def installed(tracer: Tracer, hooks=HOOKS):
    """Swap every hooked target for a traced wrapper for the duration of the block."""
    patches = []            # (namespace object, attribute, original)
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "cfbounds" or name.startswith("cfbounds."))]
    try:
        for hook in hooks:
            owner, target = _target(hook)
            if target is None:
                continue
            wrapper = tracer.wrap(hook.layer, target, hook.count)
            if hook.owner is not None:
                patches.append((owner, hook.attr, target))
                setattr(owner, hook.attr, wrapper)
                continue
            for module in modules:
                names = [k for k, v in vars(module).items() if v is target]
                for k in names:
                    patches.append((module, k, target))
                    setattr(module, k, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _has_ancestor(span: Span, pred: Callable[[Span], bool]) -> bool:
    p = span.parent
    while p is not None:
        if pred(p):
            return True
        p = p.parent
    return False


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per layer: calls, self_s, total_s (outermost spans only) and summed counts.

    ``censored.eta_inverse`` also gets ``bound_evals``: the bound spans
    nested inside it.
    """
    out: dict[str, dict] = {}
    for span in spans:
        agg = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += span.self_s
        if not _has_ancestor(span, lambda p: p.name == span.name):
            agg["total_s"] += span.duration
        for key, value in (span.counts or {}).items():
            agg[key] = agg.get(key, 0) + value
        if span.name == "censored.bound" and _has_ancestor(
                span, lambda p: p.name == "censored.eta_inverse"):
            inv = out.setdefault("censored.eta_inverse",
                                 {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            inv["bound_evals"] = inv.get("bound_evals", 0) + 1
    return out


def covered_share(spans: list[Span], layers: tuple[str, ...], ops: tuple[str, ...]) -> float:
    """Share of the ``ops`` spans' time spent inside spans of ``layers``."""
    in_layers = lambda s: s.name in layers
    in_ops = lambda s: s.name in ops
    scope = sum(s.duration for s in spans if in_ops(s))
    covered = sum(s.duration for s in spans
                  if in_layers(s) and not _has_ancestor(s, in_layers)
                  and _has_ancestor(s, in_ops))
    return covered / scope if scope > 0 else 0.0


def span_cost_s(calls: int = 20_000) -> float:
    """Measured cost of one traced call of a no-op, minus the untraced call."""
    noop = lambda: None
    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def dump_spans(spans: list[Span]) -> list[list]:
    """Spans as [name, start offset s, duration s, parent index, counts]."""
    index = {id(s): i for i, s in enumerate(spans)}
    t0 = spans[0].start if spans else 0.0
    return [[s.name, s.start - t0, s.duration,
             index.get(id(s.parent)) if s.parent is not None else None, s.counts]
            for s in spans]
