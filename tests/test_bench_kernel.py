"""Smoke test of ``scripts/bench_kernel.py``, which imports private verify names."""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_kernel.py"


@pytest.fixture(scope="module")
def bench_kernel():
    spec = importlib.util.spec_from_file_location("bench_kernel", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# 500 arrivals leave a disclosed side of at most 16 * _BLOCK points, which is
# evaluated at every point; 5000 take the probability-space path
@pytest.mark.parametrize("arrivals", [500, 5000])
def test_time_kernel_runs(bench_kernel, arrivals):
    out = bench_kernel.time_kernel(arrivals, 3, 1)
    assert out["arrivals"] == arrivals and out["replications"] == 3 and out["repeats"] == 1
    assert out["median_us"] > 0 and out["mean_pooled_points"] > 0
    assert 0 <= out["fallback_replications"] <= out["probability_path_replications"] <= 3
    assert (out["probability_path_replications"] > 0) == (arrivals == 5000)


def test_time_bounds_counts_bound_calls(bench_kernel):
    out = bench_kernel.time_bounds(1)
    for name in ("two_region", "three_region"):
        calls = out[f"eta_for_confidence_{name}"]["bound_calls"]
        # a scalar inversion settles 8 levels per call; arrays of 256 or more
        # elements one, as serial bisection: the reachability call and 30 steps
        assert calls == {"scalar": 5, "array": 31, "array_10000": 31}


def test_time_bounds_times_apriori_at_fig3(bench_kernel):
    out = bench_kernel.time_bounds(1)["bound_two_region_apriori"]
    assert set(out) == {"scalar", "array", "scalar_fig3"}
    assert out["scalar_fig3"]["median_us"] > 0


def test_time_csv_counts_the_cells(bench_kernel):
    out = bench_kernel.time_csv(1)
    # fig1 (7 columns), fig2 (9), fig4's three bands (5 each) and
    # appendixJ (12), 401 rows each
    assert out["files"] == 6 and out["repeats"] == 1 and out["median_us"] > 0
    assert out["cells"] == 401 * (7 + 9 + 3 * 5 + 12) == 17_243
    assert 0 < out["distinct_overall"] <= out["distinct_in_column"] < out["cells"]


def test_time_trace_writes_both_runs(bench_kernel):
    out = bench_kernel.time_trace(1, arrivals=2000)
    assert out["arrivals"] == 2000 and out["repeats"] == 1
    for name in ("adaptive", "csv"):
        assert out[name]["median_us"] > 0 and out[name]["peak_mb"] > 0
        assert out[name]["bytes"] > 2000 * len("0.0, ")


def test_time_arrivals_times_every_run(bench_kernel):
    out = bench_kernel.time_arrivals(1)
    assert out["arrivals"] == 100_000 and out["repeats"] == 1
    for name in ("static", "retrain_every_500", "fig3_explore"):
        assert out[name]["median_us"] > 0
