#!/usr/bin/env python3
"""Per-replication time of the bench truth-column kernel, ``verify._sup_chunk``,
and the times of the other verify kernels, the simulator and the bounds.

Times the kernel in this one process on the ``bench`` preset's samples
(``verify._gen_gap_samples`` at the pinned seed) at 0, 1000, 2000, 5000,
10 000 and 50 000 arrivals, run in chunks of ``verify._SUP_CHUNK``
replications by the replication driver ``verify._replicate``, inline, and
prints one JSON object with the median and minimum time per replication
over the repeats, the repeat count and the machine facts.  Each
replication gets its censored-side supremum (``verify._row_sups``,
computed before the clock starts), as ``compare_bounds`` passes it.
Every repeat replays the same chunks from the start of the admitted-draw
stream, so each one does the same work.  An untimed pass before the
repeats counts the replications that tried the probability-space path
and those of them that fell back to scoring every draw because a window
check failed.  The
``conditioned`` entry gives the time of one ``_batch_sup_conditioned``
call over 100 000 replications at the fig1 and fig2 partitions that
``cfbounds verify cdf`` conditions on, and its ``tracemalloc`` peak.  The
``gen_gap`` entry gives the time and ``tracemalloc`` peak of one
``mc_gen_gap`` call over 10 000 replications of the bench preset at 50 000
arrivals, which is ``cfbounds verify gen``.  The ``trace`` entry gives
the time and ``tracemalloc`` peak of writing ``trace.json``
(``SimulationTrace.write_json``) for a run of 50 000 arrivals of the bench
model, adaptive (trained, ``retrain_every=500``) and driven by an arrival
stream as ``--arrivals-csv`` reads it; the runs are made before the clock
starts.  The
``arrivals`` entry gives the time of one ``run_arrivals`` call over
100 000 arrivals of the bench model, with no retraining and with
``retrain_every=500``, from the same stage-1 state, and over 100 000
arrivals of the fig3 preset's population (theta 8, lb 6) at epsilon
0.5, which draws an exploration coin for every arrival in [6, 8).  The
``bounds`` entry gives the time of one call of each censored bound, and of
``eta_for_confidence`` over the two-region and the three-region bound,
with scalar inputs and with 1000-element arrays (of eta for a bound, of
arrival counts for an inversion), and of the inversions over 10 000
arrival counts too; with each inversion, the bound calls it makes.  The
expected-wait bound is also timed in a scalar call at the fig3 preset's
exact-mass partition (n 8000) and its 40 000 arrivals.  A
peak is measured in an untimed call of its own.  The ``cost`` entry gives
the time of one ``cost_single`` call at the fig3 preset's setting (f0
N(7, 3), c 5, lb 6, theta 8), and of the 50 calls ``cfbounds optimize``
makes over its default lb grid at that setting.  The ``csv`` entry gives
the time of ``verify.write_columns`` over the tables of one repetition of
the fig1, fig2, fig4 and appendixJ presets, their cell count, the cells
distinct within their column (the values the writer formats) and the
values distinct across all the tables, each with its share of the cells.

    PYTHONPATH=src python scripts/bench_kernel.py [--replications R] [--repeats N]
"""
import argparse
import json
import os
import platform
import statistics
import tempfile
import time
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest.mock import patch

import numpy as np
import scipy

from cfbounds import presets, verify
from cfbounds.censored import (
    MassSpec,
    RegionPartition,
    bound_three_region,
    bound_two_region,
    bound_two_region_apriori,
    eta_for_confidence,
)
from cfbounds.explore import CostModel, cost_single, default_lb_grid
from cfbounds.presets import (
    BENCH_SEED,
    FIG3_SEED,
    bench_config,
    fig1_config,
    fig2_config,
    fig3_config,
)
from cfbounds.rng import SeededRng
from cfbounds.simulate import run_arrivals, run_simulation, run_stage1
from cfbounds.verify import (
    _gen_gap_samples,
    _replicate,
    _row_sups,
    _sorted_samples,
    _sup_chunk,
    mc_gen_gap,
)

ARRIVALS = (0, 1000, 2000, 5000, 10_000, 50_000)
DELTA = 0.015           # the bench preset's confidence parameter
SIM_ARRIVALS = 100_000
FIG3_EXPLORE_EPSILON = 0.5  # half the exploration arrivals admitted, the other half censored
CONDITIONED_REPS = 100_000
GEN_GAP_REPS = 10_000       # the replications of ``cfbounds verify gen`` at the acceptance budget
GEN_GAP_ARRIVALS = 50_000
TRACE_ARRIVALS = 50_000     # the arrivals of perfbench's cli-session simulate runs
ARRAY_SIZE = 1000           # elements of an array call of a bound or inversion
LARGE_ARRAY_SIZE = 10_000   # elements of an inversion in ``cfbounds verify gen`` at 1e4 replications
BOUND_ARRIVALS = 200        # the fig4 preset's arrivals, for the bounds' partitions
FIG3_ETA = 0.015            # the fig3 preset's deviation level
FIG3_COST_C = 5.0           # the cost decay constant of ``presets.optimize_fig3``
CSV_PRESETS = ("fig1", "fig2", "fig4", "appendixJ")     # the curve and band tables
# the partitions ``cfbounds verify cdf --preset fig1/fig2`` conditions on: (n, m, l)
CONDITIONS = {"fig1": (fig1_config, (50, 24, 0)), "fig2": (fig2_config, (50, 27, 7))}


def timed(call, repeats: int, number: int = 1) -> dict:
    """Median and minimum time of ``call()`` in µs, over ``repeats`` runs of
    ``number`` calls each."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            call()
        times.append((time.perf_counter() - start) / number * 1e6)
    return {"median_us": round(statistics.median(times), 1), "min_us": round(min(times), 1)}


def peak_mb(call) -> float:
    """The ``tracemalloc`` peak of one ``call()``, in MB."""
    tracemalloc.start()
    try:
        call()
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def path_counts(run) -> tuple[int, int]:
    """Replications of ``run()`` that tried the probability-space path, and
    those that fell back."""
    levels, sups = verify._levels, verify._probability_sups
    pair, tried, fell_back = [], [0], [0]

    def spy_levels(v, cdf):
        got = levels(v, cdf)
        pair.append(got is None)
        if len(pair) == 2:
            tried[0] += 1
            fell_back[0] += any(pair)
            pair.clear()
        return got

    def spy_sups(*args):
        sup, ok = sups(*args)
        fell_back[0] += int(np.count_nonzero(~ok))
        return sup, ok

    verify._levels, verify._probability_sups = spy_levels, spy_sups
    try:
        run()
    finally:
        verify._levels, verify._probability_sups = levels, sups
    return tried[0], fell_back[0]


def time_kernel(arrivals: int, replications: int, repeats: int) -> dict:
    """Per-replication times of the chunk kernel at one arrival count."""
    config = replace(bench_config(), arrivals=arrivals)
    initial, x0, x1 = _sorted_samples(config, replications, BENCH_SEED)
    theta, _, _, (a0, a1, k0, k1) = _gen_gap_samples(
        config, replications, BENCH_SEED, DELTA, initial)
    censored = _row_sups(theta, x0, x1, config.model, config.n0, config.n1)[0]

    def run():
        _replicate(partial(_sup_chunk, model=config.model),
                   (theta, x0, x1, a0, a1, k0, k1, censored), verify._SUP_CHUNK,
                   SeededRng(BENCH_SEED).substream(2).generator())

    taken, fell_back = path_counts(run)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append((time.perf_counter() - start) / replications * 1e6)
    return {
        "arrivals": arrivals,
        "median_us": round(statistics.median(times), 1),
        "min_us": round(min(times), 1),
        "repeats": repeats,
        "replications": replications,
        "chunk": verify._SUP_CHUNK,
        "mean_pooled_points": float(np.mean(x0.shape[1] + x1.shape[1] + k0 + k1)),
        "probability_path_replications": taken,
        "fallback_replications": fell_back,
    }


def time_conditioned(repeats: int) -> dict:
    """Time and peak of one ``_batch_sup_conditioned`` call per 1e5 replications."""
    out = {"replications": CONDITIONED_REPS, "repeats": repeats}
    for name, (make, (n, m, l)) in CONDITIONS.items():
        config = make()
        alpha = float(config.population.cdf(config.theta))
        beta = 0.0 if config.lb is None else float(config.population.cdf(config.lb))

        def call():
            gen = SeededRng(0).substream(0).generator()
            verify._batch_sup_conditioned((beta, alpha - beta, 1.0 - alpha),
                                          (l, m - l, n - m), CONDITIONED_REPS, gen)

        out[name] = {**timed(call, repeats), "peak_mb": peak_mb(call)}
    return out


def time_gen_gap(repeats: int) -> dict:
    """Time and peak of one ``mc_gen_gap`` call per 1e4 replications."""
    config = bench_config(GEN_GAP_ARRIVALS)

    def call():
        mc_gen_gap(config, GEN_GAP_REPS, BENCH_SEED)

    return {"replications": GEN_GAP_REPS, "arrivals": GEN_GAP_ARRIVALS, "repeats": repeats,
            **timed(call, repeats), "peak_mb": peak_mb(call)}


def time_trace(repeats: int, arrivals: int = TRACE_ARRIVALS) -> dict:
    """Time and peak of writing one ``trace.json``, adaptive and stream-driven."""
    adaptive = replace(bench_config(arrivals), theta=None, retrain_every=500)
    gen = np.random.default_rng(0)
    labels = (gen.random(arrivals) < adaptive.model.p1).astype(np.int8)
    scores = np.where(labels == 1, adaptive.model.cdf1.mean, adaptive.model.cdf0.mean) \
        + gen.standard_normal(arrivals)
    traces = {"adaptive": run_simulation(adaptive),
              "csv": run_simulation(replace(adaptive, retrain_every=None, arrivals=0),
                                    (scores, labels))}
    out = {"arrivals": arrivals, "repeats": repeats}
    with tempfile.TemporaryDirectory() as tmp:
        for name, trace in traces.items():
            def call():
                with open(Path(tmp) / "trace.json", "w", encoding="utf-8") as fh:
                    trace.write_json(fh)

            out[name] = {**timed(call, repeats), "peak_mb": peak_mb(call),
                         "bytes": (Path(tmp) / "trace.json").stat().st_size}
    return out


def time_arrivals(repeats: int) -> dict:
    """Time of one ``run_arrivals`` call per 1e5 arrivals: the bench model
    static and retraining, and fig3's population with its exploration region."""
    out = {"arrivals": SIM_ARRIVALS, "repeats": repeats}
    bench = bench_config(SIM_ARRIVALS)
    configs = {"static": bench, "retrain_every_500": replace(bench, retrain_every=500),
               "fig3_explore": replace(fig3_config(FIG3_SEED), arrivals=SIM_ARRIVALS,
                                       epsilon=FIG3_EXPLORE_EPSILON)}
    for name, config in configs.items():
        state = run_stage1(config)
        out[name] = timed(lambda: run_arrivals(state, config), repeats)
    return out


def bound_calls(bound) -> int:
    """The bound calls of one ``eta_for_confidence`` inversion of ``bound``."""
    calls = 0

    def counted(eta):
        nonlocal calls
        calls += 1
        return bound(eta)

    eta_for_confidence(counted, DELTA)
    return calls


def time_bounds(repeats: int) -> dict:
    """Time of one scalar and one 1000-element call of each bound and
    inversion, of a 10 000-element inversion, and each inversion's bound calls;
    and of one scalar expected-wait call at fig3's partition and arrivals.

    The partitions are fig1's and fig2's conditioned ones after
    ``BOUND_ARRIVALS`` arrivals (fig2's split 1:3 between its exploration
    and disclosed regions), at their presets' masses; they are built
    before the clock starts.
    """
    fig1, fig2 = fig1_config(), fig2_config()
    alpha = float(fig1.population.cdf(fig1.theta))
    beta = float(fig2.population.cdf(fig2.lb))
    two_mass, three_mass = MassSpec.theoretical(alpha), MassSpec.theoretical(alpha, beta)

    def bounds(k) -> dict:
        """The two- and three-region bounds at ``k`` arrivals, as functions of eta."""
        two = RegionPartition(n=50, m=24, k=k)
        three = RegionPartition(n=50, m=27, l=7, k=k - k // 4, k1=k // 4)
        return {"two_region": lambda eta: bound_two_region(two, two_mass, eta),
                "three_region": lambda eta: bound_three_region(three, three_mass,
                                                               fig2.epsilon, eta)}

    scalar, array = bounds(BOUND_ARRIVALS), bounds(np.arange(ARRAY_SIZE))
    large = bounds(np.arange(LARGE_ARRAY_SIZE))
    apriori = RegionPartition(n=50, m=24)
    # fig3's exact-mass partition (m = round(n F(theta))) over its arrivals
    fig3 = fig3_config(FIG3_SEED)
    fig3_mass = MassSpec.theoretical(float(fig3.population.cdf(fig3.theta)))
    fig3_part = RegionPartition(n=fig3.n, m=round(fig3.n * fig3_mass.alpha))
    calls = {f"bound_{name}": bound for name, bound in scalar.items()}
    calls["bound_two_region_apriori"] = lambda eta: bound_two_region_apriori(
        apriori, two_mass, eta, BOUND_ARRIVALS)
    etas = np.linspace(0.05, 0.5, ARRAY_SIZE)
    out = {"repeats": repeats, "array_size": ARRAY_SIZE}
    for name, bound in calls.items():
        out[name] = {"scalar": timed(lambda: bound(0.2), repeats, 100),
                     "array": timed(lambda: bound(etas), repeats, 10)}
    for name in scalar:
        out[f"eta_for_confidence_{name}"] = {
            "scalar": timed(lambda: eta_for_confidence(scalar[name], DELTA), repeats, 5),
            "array": timed(lambda: eta_for_confidence(array[name], DELTA), repeats, 5),
            f"array_{LARGE_ARRAY_SIZE}": timed(lambda: eta_for_confidence(large[name], DELTA),
                                               repeats),
            "bound_calls": {"scalar": bound_calls(scalar[name]),
                            "array": bound_calls(array[name]),
                            f"array_{LARGE_ARRAY_SIZE}": bound_calls(large[name])}}
    out["bound_two_region_apriori"]["scalar_fig3"] = timed(
        lambda: bound_two_region_apriori(fig3_part, fig3_mass, FIG3_ETA, fig3.arrivals),
        repeats, 100)
    return out


def time_cost(repeats: int) -> dict:
    """Time of one exploration cost at fig3's setting, and of ``cfbounds
    optimize``'s default lb grid of them."""
    fig3 = fig3_config(FIG3_SEED)
    model = CostModel(c=FIG3_COST_C, f0=fig3.population)
    lbs = default_lb_grid(fig3.population).tolist()

    def grid():
        for lb in lbs:
            cost_single(min(lb, fig3.theta), fig3.theta, 1.0, model)

    return {"repeats": repeats, "grid_size": len(lbs),
            "fig3": timed(lambda: cost_single(fig3.lb, fig3.theta, 1.0, model), repeats, 100),
            "default_lb_grid": timed(grid, repeats, 5)}


def time_csv(repeats: int) -> dict:
    """Time of writing the ``CSV_PRESETS`` tables once, and their distinct cells.

    The tables are captured from one run of each preset, before the clock
    starts.  Cells are told apart by their float64 bit pattern (every
    column of these tables is float64).
    """
    tables = []

    def record(path, header, columns):
        tables.append((Path(path).name, header, [np.asarray(c) for c in columns]))

    with tempfile.TemporaryDirectory() as tmp:
        with patch.object(presets, "write_columns", record):
            for name in CSV_PRESETS:
                presets.reproduce(name, tmp)

        def call():
            for name, header, columns in tables:
                verify.write_columns(Path(tmp) / name, header, columns)

        timing = timed(call, repeats)
    bits = [c.view(np.int64) for _, _, cols in tables for c in cols]
    cells = sum(map(len, bits))
    formatted = sum(len(np.unique(c)) for c in bits)
    distinct = len(np.unique(np.concatenate(bits)))
    return {"presets": list(CSV_PRESETS), "files": len(tables), "repeats": repeats,
            **timing, "cells": cells,
            "distinct_in_column": formatted, "distinct_in_column_share": round(formatted / cells, 4),
            "distinct_overall": distinct, "distinct_overall_share": round(distinct / cells, 4)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replications", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=7)
    opts = parser.parse_args()
    if opts.replications < 1 or opts.repeats < 1:
        parser.error("--replications and --repeats must be positive")
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    out = {
        "kernel": "verify._sup_chunk",
        "machine": {"nproc": nproc, "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__},
        "per_replication": [time_kernel(t, opts.replications, opts.repeats) for t in ARRIVALS],
        "conditioned": time_conditioned(opts.repeats),
        "gen_gap": time_gen_gap(opts.repeats),
        "trace": time_trace(opts.repeats),
        "arrivals": time_arrivals(opts.repeats),
        "bounds": time_bounds(opts.repeats),
        "cost": time_cost(opts.repeats),
        "csv": time_csv(opts.repeats),
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
