"""Span bookkeeping, self time and hook installation of the benchmark tracer."""
import cfbounds
import cfbounds.cli  # noqa: F401  (the cli.main hook needs the module loaded)
from cfbounds import censored, explore, presets
from cfbounds.censored import MassSpec, RegionPartition

from tracing import (
    Hook,
    Tracer,
    aggregate,
    covered_share,
    dump_spans,
    installed,
    missing_hooks,
)


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_nested_span_self_time_is_parent_minus_child():
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 4.0, 10.0))
    inner = tracer.wrap("inner", lambda: "x")
    outer = tracer.wrap("outer", lambda: inner())
    assert outer() == "x"
    parent, child = tracer.spans
    assert child.parent is parent
    assert (parent.duration, child.duration) == (10.0, 3.0)
    assert parent.self_s == 7.0 and child.self_s == 3.0
    agg = aggregate(tracer.spans)
    assert agg["outer"] == {"calls": 1, "self_s": 7.0, "total_s": 10.0}
    assert agg["inner"] == {"calls": 1, "self_s": 3.0, "total_s": 3.0}
    assert dump_spans(tracer.spans) == [["outer", 0.0, 10.0, None, None],
                                        ["inner", 1.0, 3.0, 0, None]]


def test_self_time_subtracts_every_direct_child_only():
    # outer [0, 20] > mid [2, 12] > leaf [3, 5]; outer > leaf [14, 15]
    tracer = Tracer(clock=FakeClock(0, 2, 3, 5, 12, 14, 15, 20))
    outer = tracer.enter("outer")
    mid = tracer.enter("mid")
    tracer.exit(tracer.enter("leaf"))
    tracer.exit(mid)
    tracer.exit(tracer.enter("leaf"))
    tracer.exit(outer)
    agg = aggregate(tracer.spans)
    assert agg["outer"]["self_s"] == 20 - 10 - 1
    assert agg["mid"]["self_s"] == 10 - 2
    assert agg["leaf"] == {"calls": 2, "self_s": 3, "total_s": 3}


def test_recursive_layer_counts_outermost_time_once():
    tracer = Tracer(clock=FakeClock(0, 1, 3, 4))
    outer = tracer.enter("a")
    tracer.exit(tracer.enter("a"))
    tracer.exit(outer)
    agg = aggregate(tracer.spans)["a"]
    assert agg["calls"] == 2 and agg["total_s"] == 4 and agg["self_s"] == 4


def test_span_closed_on_exception():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    traced = tracer.wrap("boom", boom)
    try:
        traced()
    except ValueError:
        pass
    assert tracer.reset()[0].end > 0


def test_installed_patches_every_namespace_and_restores():
    originals = (censored.bound_two_region, presets.bound_two_region,
                 explore.bound_two_region, cfbounds.bound_two_region)
    assert len({id(f) for f in originals}) == 1
    tracer = Tracer()
    with installed(tracer):
        patched = (censored.bound_two_region, presets.bound_two_region,
                   explore.bound_two_region, cfbounds.bound_two_region)
        assert all(f is not originals[0] for f in patched)
        assert len({id(f) for f in patched}) == 1
        part = RegionPartition(n=50, m=24)
        eta = censored.eta_for_confidence(
            lambda e: presets.bound_two_region(part, MassSpec.theoretical(0.5), e), 0.1)
        assert eta is not None
    assert (censored.bound_two_region, presets.bound_two_region,
            explore.bound_two_region, cfbounds.bound_two_region) == originals
    agg = aggregate(tracer.spans)
    assert agg["censored.eta_inverse"]["calls"] == 1
    assert agg["censored.eta_inverse"]["bound_evals"] == agg["censored.bound"]["calls"] > 1


def test_method_hooks_patch_the_class():
    from cfbounds.stats import GaussianCdf

    original = GaussianCdf.__dict__["cdf"]
    tracer = Tracer()
    with installed(tracer):
        GaussianCdf(0.0, 1.0).cdf([0.0, 1.0, 2.0])
    assert GaussianCdf.__dict__["cdf"] is original
    assert aggregate(tracer.spans)["stats.gaussian"]["points"] == 3


def test_missing_hook_is_skipped_and_reported():
    hooks = (Hook("gone.layer", "cfbounds.verify", "no_such_function"),)
    assert missing_hooks(hooks) == ["cfbounds.verify.no_such_function"]
    tracer = Tracer()
    with installed(tracer, hooks):
        pass
    assert tracer.spans == []
    assert missing_hooks() == []


def test_covered_share_counts_outermost_target_spans_inside_ops():
    # op [0, 10] > sim [1, 6] > sim-child finalize [2, 3]; op > other [7, 9]
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 6, 7, 9, 10))
    op = tracer.enter("op.x")
    sim = tracer.enter("simulate.run")
    tracer.exit(tracer.enter("simulate.finalize"))
    tracer.exit(sim)
    tracer.exit(tracer.enter("other"))
    tracer.exit(op)
    share = covered_share(tracer.spans, ("simulate.run", "simulate.finalize"), ("op.x",))
    assert share == 0.5
