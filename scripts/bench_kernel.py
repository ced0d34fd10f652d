#!/usr/bin/env python3
"""Per-replication time of the bench truth-column kernel, ``verify._sup_chunk``,
and the times of the other verify kernels, the simulator and the bounds.

Times the kernel in this one process on the ``bench`` preset's samples
(``verify._gen_gap_samples`` at the pinned seed) at 0, 1000, 2000, 5000,
10 000 and 50 000 arrivals, cut into tasks of ``verify._SUP_CHUNK``
replications as ``compare_bounds`` cuts them, and prints one JSON object
with the median and minimum time per replication over the repeats, the
repeat count and the machine facts.  Each replication gets its
censored-side supremum (``verify._row_sups``, computed before the clock
starts), as ``compare_bounds`` passes it.  Every repeat replays the same
tasks from their offsets in the admitted-draw stream, so each one does
the same work.  An untimed pass before the repeats counts the
replications that tried the probability-space path and those of them
that fell back to scoring every draw because a window check failed.  The
``conditioned`` entry gives the time of one ``_batch_sup_conditioned``
call over 100 000 replications at the fig1 and fig2 partitions that
``cfbounds verify cdf`` conditions on, and its ``tracemalloc`` peak.  The
``gen_gap`` entry gives the time and ``tracemalloc`` peak of one
``_gen_gap_samples`` call over 10 000 replications of the bench preset at
50 000 arrivals, the kernel behind ``cfbounds verify gen``.  The
``arrivals`` entry gives the time of one ``run_arrivals`` call over
100 000 arrivals of the bench model, with no retraining and with
``retrain_every=500``, from the same stage-1 state.  The ``bounds`` entry
gives the time of one call of each censored bound, and of
``eta_for_confidence`` over the two-region and the three-region bound,
with scalar inputs and with 1000-element arrays (of eta for a bound, of
arrival counts for an inversion).  A peak is measured in an untimed call
of its own.

    PYTHONPATH=src python scripts/bench_kernel.py [--replications R] [--repeats N]
"""
import argparse
import json
import os
import platform
import statistics
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import scipy

from cfbounds import verify
from cfbounds.censored import (
    MassSpec,
    RegionPartition,
    RegionSpec,
    bound_three_region,
    bound_two_region,
    bound_two_region_apriori,
    eta_for_confidence,
)
from cfbounds.presets import BENCH_SEED, bench_config, fig1_config, fig2_config
from cfbounds.rng import SeededRng
from cfbounds.simulate import run_arrivals, run_stage1
from cfbounds.verify import _gen_gap_samples, _row_sups, _sup_task, _sup_tasks, _with_grid

ARRIVALS = (0, 1000, 2000, 5000, 10_000, 50_000)
DELTA = 0.015           # the bench preset's confidence parameter
SIM_ARRIVALS = 100_000
CONDITIONED_REPS = 100_000
GEN_GAP_REPS = 10_000       # the replications of ``cfbounds verify gen`` at the acceptance budget
GEN_GAP_ARRIVALS = 50_000
ARRAY_SIZE = 1000           # elements of an array call of a bound or inversion
BOUND_ARRIVALS = 200        # the fig4 preset's arrivals, for the bounds' partitions
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


def path_counts(tasks) -> tuple[int, int]:
    """Replications that tried the probability-space path, and those that fell back."""
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
        for task in tasks:
            _sup_task(*task)
    finally:
        verify._levels, verify._probability_sups = levels, sups
    return tried[0], fell_back[0]


def time_kernel(arrivals: int, replications: int, repeats: int) -> dict:
    """Per-replication times of the chunk kernel at one arrival count."""
    config = _with_grid(bench_config(), arrivals)
    theta, _, _, (x0, x1, a0, a1, k0, k1) = _gen_gap_samples(
        config, replications, BENCH_SEED, DELTA)
    censored = _row_sups(theta, x0, x1, config.model)[0]
    tasks, _ = _sup_tasks(SeededRng(BENCH_SEED).substream(2), 0, theta, x0, x1, a0, a1,
                          k0, k1, config.model, censored)
    taken, fell_back = path_counts(tasks)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for task in tasks:
            _sup_task(*task)
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
    """Time and peak of one ``_gen_gap_samples`` call per 1e4 replications."""
    config = bench_config(GEN_GAP_ARRIVALS)

    def call():
        _gen_gap_samples(config, GEN_GAP_REPS, BENCH_SEED, DELTA)

    return {"replications": GEN_GAP_REPS, "arrivals": GEN_GAP_ARRIVALS, "repeats": repeats,
            **timed(call, repeats), "peak_mb": peak_mb(call)}


def time_arrivals(repeats: int) -> dict:
    """Time of one ``run_arrivals`` call per 1e5 arrivals, static and retraining."""
    out = {"arrivals": SIM_ARRIVALS, "repeats": repeats}
    for name, retrain_every in (("static", None), ("retrain_every_500", 500)):
        config = replace(bench_config(SIM_ARRIVALS), retrain_every=retrain_every)
        state = run_stage1(config)
        out[name] = timed(lambda: run_arrivals(state, config), repeats)
    return out


def time_bounds(repeats: int) -> dict:
    """Time of one scalar and one 1000-element call of each bound and inversion.

    The partitions are fig1's and fig2's conditioned ones after
    ``BOUND_ARRIVALS`` arrivals (fig2's split 1:3 between its exploration
    and disclosed regions), at their presets' masses; they are built
    before the clock starts.
    """
    fig1, fig2 = fig1_config(), fig2_config()
    alpha = float(fig1.population.cdf(fig1.theta))
    beta = float(fig2.population.cdf(fig2.lb))
    two_mass, three_mass = MassSpec.theoretical(alpha), MassSpec.theoretical(alpha, beta)
    spec = RegionSpec(fig2.theta, fig2.lb, fig2.epsilon)

    def bounds(k) -> dict:
        """The two- and three-region bounds at ``k`` arrivals, as functions of eta."""
        two = RegionPartition(n=50, m=24, k=k)
        three = RegionPartition(n=50, m=27, l=7, k1=k // 4, k2=k - k // 4)
        return {"two_region": lambda eta: bound_two_region(two, two_mass, eta),
                "three_region": lambda eta: bound_three_region(three, three_mass, spec, eta)}

    scalar, array = bounds(BOUND_ARRIVALS), bounds(np.arange(ARRAY_SIZE))
    apriori = RegionPartition(n=50, m=24)
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
            "array": timed(lambda: eta_for_confidence(array[name], DELTA), repeats, 5)}
    return out


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
        "arrivals": time_arrivals(opts.repeats),
        "bounds": time_bounds(opts.repeats),
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
