"""Metric names, units and how each is computed from a run's passes.

End-to-end metrics are measured on untraced passes and exist for every
workload; per-layer metrics come from traced passes, read 0 where a
workload does not reach the layer, and are reported per pass.
"""
from __future__ import annotations

import statistics

# (name, unit, better, bound); setup_s is filled in by run.py.  Timing bounds
# are wide because on a shared host without CPU pinning, neighbouring load
# moves whole runs by 10-25% over minutes.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("target_op_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_COUNT, _S = "count", "s"
# (name, unit, better); each names the layer and the work it counts or times
PER_LAYER = (
    ("verify.sup_risk_gap.calls", _COUNT, "lower"),
    ("verify.sup_risk_gap.points", _COUNT, "lower"),
    ("verify.sup_risk_gap.self_s", _S, "lower"),
    ("verify.sup_risk_gap.us_per_point", "us", "lower"),
    ("stats.gaussian.points", _COUNT, "lower"),
    ("stats.gaussian.self_s", _S, "lower"),
    ("rng.generator.calls", _COUNT, "lower"),
    ("rng.generator.self_s", _S, "lower"),
    ("verify.gen_gap_samples.calls", _COUNT, "lower"),
    ("verify.gen_gap_samples.self_s", _S, "lower"),
    ("verify.eta_vec.calls", _COUNT, "lower"),
    ("verify.eta_vec.self_s", _S, "lower"),
    ("verify.batch_sup.reps", _COUNT, "lower"),
    ("verify.batch_sup.self_s", _S, "lower"),
    ("simulate.run.calls", _COUNT, "lower"),
    ("simulate.run.arrivals", _COUNT, "lower"),
    ("simulate.run.self_s", _S, "lower"),
    ("simulate.arrivals_per_s", "1/s", "higher"),
    ("simulate.finalize.calls", _COUNT, "lower"),
    ("simulate.finalize.self_s", _S, "lower"),
    ("stats.ecdf.self_s", _S, "lower"),
    ("simulate.ingest.rows", _COUNT, "lower"),
    ("simulate.ingest.self_s", _S, "lower"),
    ("generalization.optimal_threshold.calls", _COUNT, "lower"),
    ("generalization.optimal_threshold.self_s", _S, "lower"),
    ("censored.bound.calls", _COUNT, "lower"),
    ("censored.bound.self_s", _S, "lower"),
    ("censored.bound.us_per_call", "us", "lower"),
    ("censored.eta_inverse.calls", _COUNT, "lower"),
    ("censored.eta_inverse.bound_evals", _COUNT, "lower"),
    ("censored.eta_inverse.self_s", _S, "lower"),
    ("explore.improvement.calls", _COUNT, "lower"),
    ("explore.improvement.self_s", _S, "lower"),
    ("explore.cost.calls", _COUNT, "lower"),
    ("explore.cost.self_s", _S, "lower"),
    ("presets.reproduce.self_s", _S, "lower"),
    ("presets.optimize.self_s", _S, "lower"),
    ("presets.output_bytes", "bytes", "lower"),
    ("cli.main.self_s", _S, "lower"),
    ("cli.trace_bytes", "bytes", "lower"),
    ("trace.unattributed_s", _S, "lower"),
    ("trace.target_share", "ratio", "lower"),
    ("trace.spans", _COUNT, "lower"),
    ("trace.span_cost_s", _S, "lower"),
    ("trace.overhead_s", _S, "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

COUNT_METRICS = frozenset(name for name, unit, _ in PER_LAYER if unit in (_COUNT, "bytes"))


def _output_bytes(files: dict, pred) -> int:
    return sum(f["bytes"] for key, f in files.items() if pred(key))


def pass_layer_metrics(rec: dict) -> dict:
    """Per-layer metrics of one traced pass record (run-level trace.* excluded)."""
    layers = rec["layers"]
    out = {}
    for name, _, _ in PER_LAYER:
        layer, key = name.rsplit(".", 1)
        agg = layers.get(layer, {})
        if key == "us_per_point":
            out[name] = 1e6 * agg["total_s"] / agg["points"] if agg.get("points") else 0.0
        elif key == "us_per_call":
            out[name] = 1e6 * agg["total_s"] / agg["calls"] if agg.get("calls") else 0.0
        elif name == "simulate.arrivals_per_s":
            run = layers.get("simulate.run", {})
            out[name] = run["arrivals"] / run["total_s"] if run.get("arrivals") else 0.0
        elif name == "presets.output_bytes":
            out[name] = _output_bytes(rec["files"], lambda k: k.startswith("reproduce_"))
        elif name == "cli.trace_bytes":
            out[name] = _output_bytes(rec["files"], lambda k: k.endswith("/trace.json"))
        elif layer != "trace":
            out[name] = agg.get(key, 0)
    out["trace.unattributed_s"] = rec["unattributed_s"]
    out["trace.target_share"] = rec["target_share"]
    out["trace.spans"] = rec["spans"]
    return out


def run_metrics(passes: list[dict], target_op: str, trace: bool, span_cost: float,
                peak_rss_mb: float) -> tuple[dict, bool]:
    """The run's metrics (setup_s excluded) and whether counts repeated in every traced pass."""
    plain = [p for p in passes if not p["traced"]]
    pass_s = statistics.median(p["pass_s"] for p in plain)
    if not trace:
        return {
            "pass_s": pass_s,
            "target_op_s": statistics.median(p["ops"][target_op] for p in plain),
            "peak_rss_mb": peak_rss_mb,
        }, True
    per_pass = [pass_layer_metrics(p) for p in passes if p["traced"]]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    stable = all(m[name] == per_pass[0][name] for m in per_pass for name in COUNT_METRICS)
    traced_s = statistics.median(p["pass_s"] for p in passes if p["traced"])
    out["trace.span_cost_s"] = out["trace.spans"] * span_cost
    out["trace.overhead_s"] = traced_s - pass_s
    out["trace.overhead_frac"] = (traced_s - pass_s) / pass_s
    return out, stable
