"""cfbounds benchmark runner.

    python3 perfbench/run.py --workload {bench-table,figure-sweep,cli-session} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a cfbounds checkout; the package is imported from
its ``src``.  The runner times set-up in several fresh worker processes
(process start until ``cfbounds.cli`` is imported and the inputs are
generated) and reports their median as ``setup_s``; one more worker then
runs the workload's passes for ``--seconds``.  BLAS/OpenMP threads are
capped at the CPU count.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (operations that raised or failed their output
check) and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.  A run record with machine facts, op
medians, output sha256 digests and failures is written under
``.perfbench/records/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("bench-table", "figure-sweep", "cli-session")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0                 # whole run, including set-up probes


class RunError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    threads = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _start_worker(args, workdir: Path, deadline: float, setup_only: bool):
    """Start a worker and wait for its READY line; returns (process, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            ready = sel.select(max(deadline - time.monotonic(), 0.0))
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RunError(f"worker set-up failed (exit code {proc.poll()})")
    except BaseException:
        _stop(proc)
        raise
    return proc, elapsed


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_facts() -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cfbounds").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _stop_after_exit(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise RunError(f"worker exceeded the {TIME_LIMIT_S:.0f} s run limit") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")


def measure(args) -> tuple[dict, dict]:
    """Run set-up probes and the measured worker; returns (result line, run record)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    base = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        setup = []
        for i in range(SETUP_SAMPLES - 1):
            proc, elapsed = _start_worker(args, base / f"probe{i}", deadline, setup_only=True)
            _stop_after_exit(proc, deadline)
            setup.append(elapsed)
        proc, elapsed = _start_worker(args, base / "run", deadline, setup_only=False)
        setup.append(elapsed)
        _stop_after_exit(proc, deadline)
        result = json.loads((base / "run" / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(base, ignore_errors=True)

    metrics = dict(result.pop("metrics"))
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, *_ in _declared(args.trace)},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": started,
        "machine": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                    "platform": platform.platform(), **result.pop("versions")},
        "source": _source_facts(),
        "setup_s_samples": setup,
        "fail_frac": result["failed"] / result["attempted"],
        "result": line,
        **result,
    }
    return line, record


def _declared(trace: int):
    from metrics import END_TO_END, PER_LAYER

    return PER_LAYER if trace else END_TO_END


def _write_record(record: dict, args) -> Path:
    records = ROOT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = records / f"{stamp}-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 runs every preset at its pinned seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "cfbounds" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no cfbounds sources (src/cfbounds)", file=sys.stderr)
        return 2
    try:
        line, record = measure(args)
    except (RunError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = _write_record(record, args)
    for failure in record["failures"]:
        print(f"FAILED {failure['op']}: {failure['problems']}", file=sys.stderr)
    for note in record["notes"]:
        print(f"note {note['op']}: {note['notes']}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
