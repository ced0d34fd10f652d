"""The three workloads: their inputs, operations and output checks.

Every operation is a call into a public cfbounds entry point
(``presets.reproduce``, ``presets.optimize_fig3`` or ``cli.main``).  The
workload seed ``s`` shifts every preset seed to ``pinned + s`` and seeds
the CLI commands and generated files; ``s = 0`` is the pinned reference
run, where the documented headline values are checked as well as the
checks that hold for any seed.

Why these workloads (each loads one layer and leaves the others idle):

* ``bench-table`` -- ``reproduce bench`` at preset size.  About 99% of it
  is ``verify._sup_risk_gap`` with the Gaussian CDF calls inside it; no
  simulator, optimizer or figure code runs, so figure-side changes must
  read flat here.
* ``figure-sweep`` -- every other preset plus ``optimize_fig3``.  It loads
  the static simulator path, ``finalize``, the censored bound formulas,
  their inversion and the exploration grid, and never touches
  ``_sup_risk_gap``.
* ``cli-session`` -- the commands a user types: ``verify`` at the
  acceptance budgets, an adaptive ``simulate`` (per-arrival loop plus
  threshold retraining) and a static ``simulate --arrivals-csv``
  (CSV ingestion), with the CLI's JSON, manifest and trace writes.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Budget:
    """Problem sizes; ``FULL`` is what the benchmark measures."""

    verify_cdf_reps: int = 100_000
    verify_gen_reps: int = 10_000
    sim_arrivals: int = 50_000
    retrain_every: int = 500
    csv_rows: int = 50_000
    small_repeats: int = 10          # fig1+fig2+fig4+appendixJ repeats per pass


FULL = Budget()


@dataclass
class Context:
    """One workload's inputs, shared by all passes of a run."""

    root: Path                       # work directory of the run
    seed: int
    budget: Budget
    inputs: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)    # findings of the last check that do not fail it

    @property
    def pinned(self) -> bool:
        return self.seed == 0


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[Context, Path], object]
    check: Callable[[Context, Path, object], list]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    target_op: str                   # reported as the end-to-end ``target_op_s``
    target_layers: tuple[str, ...]   # traced layers the workload is built to load
    target_ops: tuple[str, ...]      # ops whose time the target share is taken of
    make_inputs: Callable[[Context], None] = lambda ctx: None


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _preset_seed(name: str, seed: int) -> int:
    from cfbounds import presets

    pinned = {"fig1": presets.FIG1_SEED, "fig2": presets.FIG2_SEED,
              "fig3": presets.FIG3_SEED, "fig4": presets.FIG4_SEED,
              "appendixJ": presets.FIG4_SEED, "bench": presets.BENCH_SEED}
    return pinned[name] + seed


def _reproduce(ctx: Context, name: str, out: Path) -> dict:
    from cfbounds import presets

    return presets.reproduce(name, out, seed=_preset_seed(name, ctx.seed))


# Probabilities may leave [0, 1] by float roundoff (the acceptance suite allows
# 1e-12 in its band checks); smaller excursions are noted, not failed.
UNIT_TOL = 1e-12


def read_table(path: Path, columns: tuple[str, ...], rows: int | None = None,
               unit: tuple[str, ...] = (), notes: list | None = None,
               ) -> tuple[np.ndarray, list[str]]:
    """Parse a numeric CSV and check its header, row count, finiteness and [0, 1] columns."""
    problems = []
    if not path.is_file():
        return np.empty((0, len(columns))), [f"{path.name}: missing"]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        body = [row for row in reader if row]
    if tuple(header) != columns:
        return np.empty((0, len(columns))), [f"{path.name}: columns {header} != {list(columns)}"]
    try:
        data = np.array(body, dtype=float).reshape(len(body), len(columns))
    except ValueError as exc:
        return np.empty((0, len(columns))), [f"{path.name}: non-numeric cell ({exc})"]
    if rows is not None and len(data) != rows:
        problems.append(f"{path.name}: {len(data)} rows, expected {rows}")
    if not np.all(np.isfinite(data)):
        problems.append(f"{path.name}: non-finite values")
    for name in unit:
        col = data[:, columns.index(name)]
        excess = max(float(np.nanmax(col, initial=0.0)) - 1.0,
                     -float(np.nanmin(col, initial=0.0)))
        if excess > UNIT_TOL:
            problems.append(f"{path.name}: {name} outside [0, 1]")
        elif excess > 0.0 and notes is not None:
            notes.append(f"{path.name}: {name} leaves [0, 1] by {excess:.3g}")
    return data, problems


def _col(data: np.ndarray, columns: tuple[str, ...], name: str) -> np.ndarray:
    return data[:, columns.index(name)]


def _encloses(data, columns, truth, lo, hi) -> bool:
    f = _col(data, columns, truth)
    return bool(np.all((f >= _col(data, columns, lo) - 1e-12)
                       & (f <= _col(data, columns, hi) + 1e-12)))


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# bench-table
# ---------------------------------------------------------------------------

BENCH_COLS = ("arrivals", "gap_quantile", "gap_mean", "ours", "hoeffding", "gc", "vc_gen", "dkw")
BENCH_GRID = (0, 10_000, 20_000, 30_000, 40_000, 50_000)


def _run_bench(ctx: Context, out: Path) -> dict:
    return _reproduce(ctx, "bench", out)


def _check_bench(ctx: Context, out: Path, result: dict) -> list:
    data, problems = read_table(out / "bench_bounds.csv", BENCH_COLS, len(BENCH_GRID),
                                unit=("gap_quantile", "gap_mean"), notes=ctx.notes)
    if problems:
        return problems
    if tuple(_col(data, BENCH_COLS, "arrivals").astype(int)) != BENCH_GRID:
        problems.append("bench: arrivals grid differs from the preset")
    if np.any(data[:, 3:] <= 0):
        problems.append("bench: a bound column is not positive")
    truth = _col(data, BENCH_COLS, "gap_quantile")
    if ctx.pinned:
        for name in ("hoeffding", "gc", "vc_gen"):
            if not np.any(_col(data, BENCH_COLS, name) < truth):
                problems.append(f"bench: {name} never crosses below the truth column")
        if not np.all(_col(data, BENCH_COLS, "ours") >= truth):
            problems.append("bench: ours dips below the truth column")
        if result["summary"].get("ours_stays_above") is not True:
            problems.append("bench: summary says ours does not stay above")
    return problems


# ---------------------------------------------------------------------------
# figure-sweep
# ---------------------------------------------------------------------------

FIG1_COLS = ("x", "f_true", "f_emp", "g_true", "g_emp", "k_true", "k_emp")
FIG2_COLS = ("x", "f_true", "f_emp", "g_true", "g_emp", "e_true", "e_emp", "k_true", "k_emp")
FIG3_COLS = ("eps", "bound_explore", "bound_theta", "bound_lb", "dkw_initial")
FIG4_COLS = ("x", "f_true", "estimate", "band_lo", "band_hi")
APPJ_COLS = ("x", "f_true", "weighted_est", "ours_lo", "ours_hi", "naive_est",
             "dkw_lo", "dkw_hi", "gc_lo", "gc_hi", "vc_lo", "vc_hi")
CURVE_ROWS = 401                     # x grid 3.00, 3.02, ..., 11.00
SMALL_PRESETS = ("fig1", "fig2", "fig4", "appendixJ")


def _run_small(ctx: Context, out: Path) -> dict:
    """fig1+fig2+fig4+appendixJ, repeated; each repetition is timed."""
    rep_s = []
    for _ in range(ctx.budget.small_repeats):
        t0 = time.perf_counter()
        summaries = {name: _reproduce(ctx, name, out)["summary"] for name in SMALL_PRESETS}
        rep_s.append(time.perf_counter() - t0)
    return {"summaries": summaries, "rep_s": rep_s}


def _check_small(ctx: Context, out: Path, result: dict) -> list:
    problems = []
    s = result["summaries"]
    d1, p = read_table(out / "fig1_curves.csv", FIG1_COLS, CURVE_ROWS, unit=FIG1_COLS[1:],
                       notes=ctx.notes)
    problems += p
    d2, p = read_table(out / "fig2_curves.csv", FIG2_COLS, CURVE_ROWS, unit=FIG2_COLS[1:],
                       notes=ctx.notes)
    problems += p
    bands = {}
    for eps in (0.0, 0.5, 1.0):
        bands[eps], p = read_table(out / f"fig4_band_eps{eps:.1f}.csv", FIG4_COLS, CURVE_ROWS,
                                   unit=FIG4_COLS[1:], notes=ctx.notes)
        problems += p
        if not p and np.any(_col(bands[eps], FIG4_COLS, "band_lo")
                            > _col(bands[eps], FIG4_COLS, "band_hi")):
            problems.append(f"fig4 eps={eps}: band_lo above band_hi")
    dj, p = read_table(out / "appendixJ_bands.csv", APPJ_COLS, CURVE_ROWS, unit=APPJ_COLS[1:],
                       notes=ctx.notes)
    problems += p
    if s["fig1"]["n"] != 50 or not 0 <= s["fig1"]["m"] <= 50:
        problems.append(f"fig1: bad partition {s['fig1']}")
    if not 0 <= s["fig2"]["l"] <= s["fig2"]["m"] <= 50:
        problems.append(f"fig2: bad partition {s['fig2']}")
    if not all(0 < e <= 1 for e in s["fig4"]["eta"].values()):
        problems.append(f"fig4: eta outside (0, 1]: {s['fig4']['eta']}")
    if ctx.pinned and not problems:
        if s["fig1"]["m"] != 24:
            problems.append(f"fig1: m={s['fig1']['m']}, pinned 24")
        if (s["fig2"]["l"], s["fig2"]["m"]) != (7, 27):
            problems.append(f"fig2: (l, m)=({s['fig2']['l']}, {s['fig2']['m']}), pinned (7, 27)")
        for eps, data in bands.items():
            if not _encloses(data, FIG4_COLS, "f_true", "band_lo", "band_hi"):
                problems.append(f"fig4 eps={eps}: band misses the true CDF")
        if not _encloses(dj, APPJ_COLS, "f_true", "ours_lo", "ours_hi"):
            problems.append("appendixJ: ours band misses the true CDF")
    return problems


def _run_fig3(ctx: Context, out: Path) -> dict:
    return _reproduce(ctx, "fig3", out)


def _check_fig3(ctx: Context, out: Path, result: dict) -> list:
    _, problems = read_table(out / "fig3_bounds.csv", FIG3_COLS, 41, unit=FIG3_COLS,
                             notes=ctx.notes)
    s = result["summary"]
    if not _finite(s["bound_theta"], s["bound_lb"], s["diff_at_025"]):
        problems.append(f"fig3: non-finite summary {s}")
    if ctx.pinned:
        if s["crossing_eps"] is None or abs(s["crossing_eps"] - 0.10) > 0.025 + 1e-9:
            problems.append(f"fig3: crossing at {s['crossing_eps']}, pinned near 0.10")
        if not s["diff_at_025"] <= 0.02:
            problems.append(f"fig3: diff_at_025={s['diff_at_025']} > 0.02")
    return problems


def _run_optimize(ctx: Context, out: Path) -> dict:
    from cfbounds import presets

    result = presets.optimize_fig3(seed=_preset_seed("fig3", ctx.seed), lb=6.0, cost_c=5.0)
    # the optimizer writes no file; its grid stands in for one in the byte-drift record
    np.save(out / "objective_grid.npy", result["result"].objective_grid)
    return result


def _check_optimize(ctx: Context, out: Path, result: dict) -> list:
    problems = []
    grid = result["result"].objective_grid
    if grid.shape != (1, 401) or not np.all(np.isfinite(grid)):
        problems.append(f"optimize: objective grid shape {grid.shape} or non-finite")
    if not (_finite(result["eps_star"], result["objective"]) and 0 <= result["eps_star"] <= 1):
        problems.append(f"optimize: eps_star={result['eps_star']} objective={result['objective']}")
    if result["lb_star"] != 6.0:
        problems.append(f"optimize: lb_star={result['lb_star']}, fixed at 6")
    if ctx.pinned and abs(result["eps_star"] - 0.10) > 1e-9:
        problems.append(f"optimize: eps_star={result['eps_star']}, pinned 0.10")
    return problems


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str, str]:
    from cfbounds import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _make_cli_inputs(ctx: Context) -> None:
    """Simulation configs and the arrival CSV, all derived from the seed."""
    from cfbounds import presets

    b = ctx.budget
    base = presets.bench_config(arrivals=b.sim_arrivals,
                                seed=_preset_seed("bench", ctx.seed)).to_dict()
    adaptive = dict(base, theta=None, retrain_every=b.retrain_every)
    static = dict(base, theta=None, retrain_every=None, arrivals=0)
    gen = np.random.default_rng([ctx.seed, 0x5EED])
    labels = (gen.random(b.csv_rows) < base["model"]["p1"]).astype(np.int64)
    means = np.where(labels == 1, base["model"]["cdf1"]["mean"], base["model"]["cdf0"]["mean"])
    scores = means + gen.standard_normal(b.csv_rows)
    inputs = ctx.root / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for name, cfg in (("adaptive", adaptive), ("static", static)):
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        ctx.inputs[name] = path
    csv_path = inputs / "arrivals.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("score,label\n")
        fh.writelines(f"{s!r},{l}\n" for s, l in zip(scores.tolist(), labels.tolist()))
    ctx.inputs["csv"] = csv_path
    ctx.inputs["csv_scores"] = scores


def _run_verify_cdf(ctx: Context, out: Path) -> dict:
    return {preset: _cli(["verify", "cdf", "--preset", preset, "--eta", "auto",
                          "-R", str(ctx.budget.verify_cdf_reps), "--seed", str(ctx.seed),
                          "--out", str(out / preset)])
            for preset in ("fig1", "fig2")}


def _run_verify_gen(ctx: Context, out: Path) -> dict:
    return {"bench": _cli(["verify", "gen", "--preset", "bench",
                           "-R", str(ctx.budget.verify_gen_reps), "--seed", str(ctx.seed),
                           "--out", str(out / "bench")])}


def _check_verify(budget_field: str):
    def check(ctx: Context, out: Path, result: dict) -> list:
        reps = getattr(ctx.budget, budget_field)
        problems = []
        for preset, (code, _, stderr) in result.items():
            where = f"verify {preset}"
            if code != 0:
                problems.append(f"{where}: exit code {code} ({stderr.strip()[:200]})")
                continue
            files = [out / preset / f for f in ("report.json", "report.csv", "manifest.json")]
            if not all(f.is_file() for f in files):
                problems.append(f"{where}: missing outputs")
                continue
            rep = json.loads(files[0].read_text(encoding="utf-8"))
            if rep["replications"] != reps or rep["seed"] != ctx.seed:
                problems.append(f"{where}: report replications/seed {rep['replications']}"
                                f"/{rep['seed']}")
            probs = (rep["frequency"], rep["bound"], rep["wilson_lo"], rep["wilson_hi"])
            if not (_finite(*probs) and all(0.0 <= p <= 1.0 for p in probs)
                    and rep["wilson_lo"] <= rep["frequency"] <= rep["wilson_hi"]):
                problems.append(f"{where}: probabilities out of range {probs}")
            if rep["verdict"] == "bound-violated":
                problems.append(f"{where}: bound violated")
        return problems

    return check


def _simulate(ctx: Context, out: Path, config: str, extra: list[str]) -> tuple:
    return _cli(["simulate", "--config", str(ctx.inputs[config]), "--out", str(out)] + extra)


def _run_sim_adaptive(ctx: Context, out: Path) -> tuple:
    return _simulate(ctx, out, "adaptive", [])


def _run_sim_csv(ctx: Context, out: Path) -> tuple:
    return _simulate(ctx, out, "static", ["--arrivals-csv", str(ctx.inputs["csv"])])


def _check_simulate(adaptive: bool):
    def check(ctx: Context, out: Path, result: tuple) -> list:
        code, _, stderr = result
        if code != 0:
            return [f"simulate: exit code {code} ({stderr.strip()[:200]})"]
        files = [out / f for f in ("trace.json", "summary.json", "manifest.json")]
        if not all(f.is_file() for f in files):
            return ["simulate: missing outputs"]
        b = ctx.budget
        arrivals = b.sim_arrivals if adaptive else b.csv_rows
        trace = json.loads(files[0].read_text(encoding="utf-8"))
        summary = json.loads(files[1].read_text(encoding="utf-8"))
        problems = []
        scores = np.asarray(trace["arrival_scores"], dtype=float)
        admitted = trace["arrival_admitted"]
        if len(scores) != arrivals or len(admitted) != arrivals:
            problems.append(f"simulate: {len(scores)} arrivals recorded, expected {arrivals}")
        elif not adaptive and not np.array_equal(scores, ctx.inputs["csv_scores"]):
            problems.append("simulate: trace scores differ from the ingested CSV")
        expected_history = 1 + (arrivals // b.retrain_every if adaptive else 0)
        if len(summary["theta_history"]) != expected_history:
            problems.append(f"simulate: {len(summary['theta_history'])} threshold updates, "
                            f"expected {expected_history}")
        for label in ("label0", "label1"):
            part = summary[label]
            if not (part["n"] == 50 and 0 <= part["m"] <= part["n"]
                    and part["observed"] >= part["n"]):
                problems.append(f"simulate: bad {label} partition {part}")
        if sum(summary[k]["observed"] - summary[k]["n"] for k in ("label0", "label1")) \
                != sum(admitted):
            problems.append("simulate: observed counts disagree with admitted arrivals")
        return problems

    return check


# ---------------------------------------------------------------------------

WORKLOADS = {
    "bench-table": Workload(
        name="bench-table",
        ops=(Op("reproduce_bench", _run_bench, _check_bench),),
        target_op="reproduce_bench",
        target_layers=("verify.sup_risk_gap",),
        target_ops=("reproduce_bench",),
    ),
    "figure-sweep": Workload(
        name="figure-sweep",
        ops=(Op("reproduce_small", _run_small, _check_small),
             Op("reproduce_fig3", _run_fig3, _check_fig3),
             Op("optimize", _run_optimize, _check_optimize)),
        target_op="reproduce_fig3",
        target_layers=("simulate.run", "simulate.finalize"),
        target_ops=("reproduce_fig3",),
    ),
    "cli-session": Workload(
        name="cli-session",
        ops=(Op("verify_cdf", _run_verify_cdf, _check_verify("verify_cdf_reps")),
             Op("verify_gen", _run_verify_gen, _check_verify("verify_gen_reps")),
             Op("simulate_adaptive", _run_sim_adaptive, _check_simulate(adaptive=True)),
             Op("simulate_csv", _run_sim_csv, _check_simulate(adaptive=False))),
        target_op="simulate_adaptive",
        target_layers=("simulate.run", "simulate.finalize", "simulate.ingest"),
        target_ops=("simulate_adaptive", "simulate_csv"),
        make_inputs=_make_cli_inputs,
    ),
}
