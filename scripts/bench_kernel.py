#!/usr/bin/env python3
"""Per-call time of the bench truth-column kernel, ``verify._sup_risk_gap``,
and of the simulator, ``simulate.run_arrivals``.

Times the kernel in this one process on the ``bench`` preset's samples
(``verify._gen_gap_samples`` at the pinned seed) at 0, 1000, 2000, 5000,
10 000 and 50 000 arrivals, and prints one JSON object with the median and
minimum time per call over the repeats, the repeat count and the machine
facts.  Each call gets its replication's censored-side supremum
(``verify._censored_sup``, computed before the clock starts), as
``compare_bounds`` passes it.  Every repeat replays the same replications
from the start of the admitted-draw stream, so each one does the same work.
An untimed pass before the repeats counts the calls that took the
probability-space path and those of them that fell back to scoring every
draw because a window check failed.  The ``arrivals`` entry gives the time
of one ``run_arrivals`` call over 100 000 arrivals of the bench model, with
no retraining and with ``retrain_every=500``, from the same stage-1 state.

    PYTHONPATH=src python scripts/bench_kernel.py [--replications R] [--repeats N]
"""
import argparse
import json
import os
import platform
import statistics
import time
from dataclasses import replace

import numpy as np
import scipy

from cfbounds import verify
from cfbounds.presets import BENCH_SEED, bench_config
from cfbounds.rng import SeededRng
from cfbounds.simulate import run_arrivals, run_stage1
from cfbounds.verify import _censored_sup, _gen_gap_samples, _sup_risk_gap, _with_grid

ARRIVALS = (0, 1000, 2000, 5000, 10_000, 50_000)
DELTA = 0.015           # the bench preset's confidence parameter
SIM_ARRIVALS = 100_000


def path_counts(args, censored) -> tuple[int, int]:
    """Calls that took the probability-space path, and those that fell back."""
    outcomes = []

    def spy(real):
        def wrapped(*a):
            out = real(*a)
            outcomes.append(out is None)
            return out
        return wrapped

    real = verify._levels, verify._probability_sup
    verify._levels, verify._probability_sup = map(spy, real)
    taken = fell_back = 0
    try:
        gen = SeededRng(BENCH_SEED).substream(2).generator()
        for arg, cens in zip(args, censored):
            outcomes.clear()
            _sup_risk_gap(*arg, gen, cens)
            taken += bool(outcomes)
            fell_back += any(outcomes)
    finally:
        verify._levels, verify._probability_sup = real
    return taken, fell_back


def time_kernel(arrivals: int, replications: int, repeats: int) -> dict:
    """Per-call times of the kernel at one arrival count."""
    config = _with_grid(bench_config(), arrivals)
    theta, _, _, (x0, x1, a0, a1, k0, k1) = _gen_gap_samples(
        config, replications, BENCH_SEED, DELTA)
    args = [(theta[r], x0[r], x1[r], int(k0[r]), int(k1[r]), float(a0[r]), float(a1[r]),
             config.model) for r in range(replications)]
    censored = [_censored_sup(theta[r], x0[r], x1[r], config.model)
                for r in range(replications)]
    taken, fell_back = path_counts(args, censored)
    times = []
    for _ in range(repeats):
        gen = SeededRng(BENCH_SEED).substream(2).generator()
        start = time.perf_counter()
        for arg, cens in zip(args, censored):
            _sup_risk_gap(*arg, gen, cens)
        times.append((time.perf_counter() - start) / replications * 1e6)
    return {
        "arrivals": arrivals,
        "median_us": round(statistics.median(times), 1),
        "min_us": round(min(times), 1),
        "repeats": repeats,
        "calls_per_repeat": replications,
        "mean_pooled_points": float(np.mean(len(x0[0]) + len(x1[0]) + k0 + k1)),
        "probability_path_calls": taken,
        "fallback_calls": fell_back,
    }


def time_arrivals(repeats: int) -> dict:
    """Time of one ``run_arrivals`` call per 1e5 arrivals, static and retraining."""
    out = {"arrivals": SIM_ARRIVALS, "repeats": repeats}
    for name, retrain_every in (("static", None), ("retrain_every_500", 500)):
        config = replace(bench_config(SIM_ARRIVALS), retrain_every=retrain_every)
        state = run_stage1(config)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            run_arrivals(state, config)
            times.append((time.perf_counter() - start) * 1e6)
        out[name] = {"median_us": round(statistics.median(times), 1),
                     "min_us": round(min(times), 1)}
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
        "kernel": "verify._sup_risk_gap",
        "machine": {"nproc": nproc, "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__},
        "per_call": [time_kernel(t, opts.replications, opts.repeats) for t in ARRIVALS],
        "arrivals": time_arrivals(opts.repeats),
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
