"""Smoke passes of every workload at shrunk budgets, output checks, and run.py."""
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfbounds import presets

import metrics
import worker
from workloads import WORKLOADS, Budget, Context, read_table

ROOT = Path(__file__).resolve().parents[2]
SMOKE = Budget(verify_cdf_reps=1000, verify_gen_reps=200, sim_arrivals=2000,
               retrain_every=500, csv_rows=2000, small_repeats=1)
TARGET_COUNT = {
    "bench-table": "verify.sup_risk_gap.points",
    "figure-sweep": "simulate.run.arrivals",
    "cli-session": "simulate.ingest.rows",
}


@pytest.fixture
def small_bench(monkeypatch):
    monkeypatch.setitem(presets.REPRODUCERS, "bench",
                        functools.partial(presets.reproduce_bench, replications=10))


# figure-sweep runs at full size in about a second, so it also covers the pinned checks
@pytest.mark.parametrize("name,seed", [("bench-table", 1), ("figure-sweep", 0),
                                       ("cli-session", 1)])
def test_smoke_pass(name, seed, tmp_path, small_bench):
    workload = WORKLOADS[name]
    ctx = Context(root=tmp_path, seed=seed, budget=SMOKE)
    workload.make_inputs(ctx)
    plain = worker.run_pass(workload, ctx)
    traced, spans = worker.traced_pass(workload, ctx, keep_spans=True)
    assert plain["failures"] == [] and traced["failures"] == []
    assert set(plain["ops"]) == {op.name for op in workload.ops}
    assert plain["files"] == traced["files"], "tracing changed an output"
    assert spans and traced["spans"] == len(spans)

    values, stable = metrics.run_metrics([plain, traced], workload.target_op, True, 1e-6, 1.0)
    assert stable
    assert set(values) == {n for n, _, _ in metrics.PER_LAYER}
    assert values[TARGET_COUNT[name]] > 0
    assert 0.0 < values["trace.target_share"] <= 1.0
    e2e, _ = metrics.run_metrics([plain], workload.target_op, False, 0.0, 1.0)
    assert all(v > 0 for v in e2e.values())


def test_workloads_isolate_their_layers(tmp_path, small_bench):
    ctx = Context(root=tmp_path, seed=1, budget=SMOKE)
    bench, _ = worker.traced_pass(WORKLOADS["bench-table"], ctx, keep_spans=False)
    assert not {"simulate.run", "explore.improvement", "presets.optimize"} & set(bench["layers"])
    fig, _ = worker.traced_pass(WORKLOADS["figure-sweep"], ctx, keep_spans=False)
    assert "verify.sup_risk_gap" not in fig["layers"]


def test_checks_flag_bad_tables(tmp_path):
    cols = ("x", "p")
    path = tmp_path / "t.csv"
    path.write_text("x,p\n1,0.5\n2,nan\n3,1.5\n", encoding="utf-8")
    _, problems = read_table(path, cols, rows=4, unit=("p",))
    assert len(problems) == 3          # row count, non-finite, outside [0, 1]
    _, problems = read_table(path, ("x", "q"))
    assert problems and "columns" in problems[0]
    _, problems = read_table(tmp_path / "absent.csv", cols)
    assert problems == ["absent.csv: missing"]


def test_roundoff_outside_unit_interval_is_noted_not_failed(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,p\n1,1.0000000000000002\n2,0\n", encoding="utf-8")
    notes = []
    _, problems = read_table(path, ("x", "p"), rows=2, unit=("p",), notes=notes)
    assert problems == [] and notes == ["t.csv: p leaves [0, 1] by 2.22e-16"]


def test_fig4_roundoff_seed_passes_with_a_note(tmp_path):
    # workload seed 101 runs fig4 at seed 101, whose eps=0 estimate reaches 1 + 2**-52
    workload = WORKLOADS["figure-sweep"]
    ctx = Context(root=tmp_path, seed=101, budget=SMOKE)
    rec = worker.run_pass(workload, ctx)
    assert rec["failures"] == []
    assert all("leaves [0, 1] by" in n for entry in rec["notes"] for n in entry["notes"])


def test_pinned_check_catches_a_wrong_headline(tmp_path):
    op = WORKLOADS["figure-sweep"].ops[1]
    ctx = Context(root=tmp_path, seed=0, budget=SMOKE)
    result = op.run(ctx, tmp_path)
    assert op.check(ctx, tmp_path, result) == []
    bad = dict(result, summary=dict(result["summary"], diff_at_025=0.5))
    assert op.check(ctx, tmp_path, bad)
    ctx_any = Context(root=tmp_path, seed=5, budget=SMOKE)
    assert op.check(ctx_any, tmp_path, bad) == []


def test_benchmark_json_declares_what_run_py_emits():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == list(metrics.PER_LAYER)


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_py_reports_end_to_end_metrics():
    done = _run(ROOT, "--workload", "figure-sweep", "--seed", "2", "--seconds", "1")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 3
    assert list(line["metrics"]) == [name for name, *_ in metrics.END_TO_END]
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_run_py_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--workload", "figure-sweep", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""


def test_inputs_follow_the_seed(tmp_path):
    scores = []
    for i, seed in enumerate((3, 3, 4)):
        ctx = Context(root=tmp_path / str(i), seed=seed, budget=SMOKE)
        WORKLOADS["cli-session"].make_inputs(ctx)
        scores.append(ctx.inputs["csv_scores"])
    assert np.array_equal(scores[0], scores[1])
    assert not np.array_equal(scores[0], scores[2])
