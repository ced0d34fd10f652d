"""One workload run in a fresh process: set up, then timed passes.

    python3 perfbench/worker.py --workload W --seed S --seconds N --trace 0|1 \
        --workdir DIR [--setup-only]

Prints ``READY`` on stdout once ``cfbounds.cli`` is imported and the
workload's inputs exist; ``run.py`` times process start to that line as
set-up.  With ``--setup-only`` it exits there.  Otherwise it runs passes
until the next one would overrun ``--seconds`` (always at least one; in
traced mode, untraced and traced passes alternate in pairs) and writes
``DIR/result.json``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_package():
    """Import cfbounds from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cfbounds" / "__init__.py").is_file():
        raise SystemExit(f"error: no cfbounds sources under {src}")
    sys.path.insert(0, str(src))
    import cfbounds
    import cfbounds.cli  # noqa: F401  (set-up ends once the CLI is importable)

    if Path(cfbounds.__file__).resolve().parent != (src / "cfbounds").resolve():
        raise SystemExit(f"error: imported cfbounds from {cfbounds.__file__}")
    return cfbounds


def hash_outputs(out: Path, op: str) -> dict:
    """Size and sha256 of every file an op wrote, except its timing-bearing manifests."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            data = path.read_bytes()
            files[f"{op}/{path.relative_to(out).as_posix()}"] = {
                "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return files


def run_pass(workload, ctx, tracer=None) -> dict:
    """Every op of the workload once; op times exclude output checks."""
    rec = {"traced": tracer is not None, "ops": {}, "failures": [], "notes": [], "files": {}}
    wall0 = time.perf_counter()
    for op in workload.ops:
        out = ctx.root / "out" / op.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        gc.collect()            # each op starts without the previous op's garbage
        span = tracer.enter("op." + op.name) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            value, problems = op.run(ctx, out), None
        except Exception:
            value, problems = None, [traceback.format_exc()]
        finally:
            rec["ops"][op.name] = time.perf_counter() - t0
            if span is not None:
                tracer.exit(span)
        if problems is None:
            ctx.notes.clear()
            try:
                problems = op.check(ctx, out, value)
            except Exception:
                problems = [traceback.format_exc()]
            if ctx.notes:
                rec["notes"].append({"op": op.name, "notes": list(ctx.notes)})
            if op.name == "reproduce_small":
                rec["small_rep_s"] = value["rep_s"]
        if problems:
            rec["failures"].append({"op": op.name, "problems": problems})
        rec["files"].update(hash_outputs(out, op.name))
    rec["pass_s"] = sum(rec["ops"].values())
    rec["wall_s"] = time.perf_counter() - wall0
    return rec


def traced_pass(workload, ctx, keep_spans: bool) -> tuple[dict, list]:
    from tracing import Tracer, aggregate, covered_share, dump_spans, installed

    tracer = Tracer()
    with installed(tracer):
        rec = run_pass(workload, ctx, tracer)
    spans = tracer.reset()
    rec["layers"] = aggregate(spans)
    rec["target_share"] = covered_share(spans, workload.target_layers,
                                        tuple("op." + o for o in workload.target_ops))
    rec["unattributed_s"] = sum(s.self_s for s in spans if s.name.startswith("op."))
    rec["spans"] = len(spans)
    return rec, (dump_spans(spans) if keep_spans else [])


def run(workload, ctx, seconds: float, trace: bool) -> dict:
    """Passes until the next would overrun ``seconds``; returns the result record."""
    import numpy
    import scipy

    import metrics
    from tracing import missing_hooks, span_cost_s

    span_cost = span_cost_s() if trace else 0.0
    passes, spans = [], []
    t_start = time.perf_counter()
    while True:
        if trace and len(passes) % 2 == 1:
            rec, dumped = traced_pass(workload, ctx, keep_spans=not spans)
            spans = spans or dumped
        else:
            rec = run_pass(workload, ctx)
        passes.append(rec)
        if trace and len(passes) % 2 == 1:
            continue
        step = statistics.median(p["wall_s"] for p in passes) * (2 if trace else 1)
        if time.perf_counter() - t_start + step > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values, counts_stable = metrics.run_metrics(passes, workload.target_op, trace,
                                                span_cost, peak_rss_mb)
    plain = [p for p in passes if not p["traced"]]
    op_medians = {f"{op.name}_s": statistics.median(p["ops"][op.name] for p in plain)
                  for op in workload.ops}
    small = [t for p in plain for t in p.get("small_rep_s", [])]
    if small:
        op_medians["reproduce_small_rep_s"] = statistics.median(small)
    return {
        "metrics": values,
        "attempted": sum(len(p["ops"]) for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "failures": [dict(f, pass_index=i) for i, p in enumerate(passes)
                     for f in p["failures"]][:20],
        "notes": [dict(n, pass_index=i) for i, p in enumerate(passes)
                  for n in p["notes"]][:20],
        "op_medians_s": op_medians,
        "passes": len(passes),
        "pass_s_all": [p["pass_s"] for p in passes],
        "files": passes[0]["files"],
        "files_stable": all(p["files"] == passes[0]["files"] for p in passes),
        "counts_stable": counts_stable,
        "span_cost_s_per_span": span_cost,
        "missing_hooks": missing_hooks(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "spans": spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_package()
    from workloads import FULL, WORKLOADS, Context

    workload = WORKLOADS[args.workload]
    ctx = Context(root=args.workdir, seed=args.seed, budget=FULL)
    workload.make_inputs(ctx)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = run(workload, ctx, args.seconds, bool(args.trace))
    (args.workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
