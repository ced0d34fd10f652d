"""Command-line surface.

Subcommands:

* ``bound``      -- evaluate any bound formula from flags, print JSON.
* ``simulate``   -- run the admission process, write trace + summary.
* ``reproduce``  -- regenerate a named preset's data files.
* ``optimize``   -- choose an exploration frequency against a cost model.
* ``verify``     -- Monte Carlo coverage checks (exit 3 on violation).

Every command that writes files also writes a ``manifest.json`` next to
them recording the resolved configuration, seed, outputs and duration.
Randomized commands never default to wall-clock seeds: a seed comes from
an explicit flag, a config file, or a documented preset constant.

Exit codes: 0 success; 1 usage error, when argparse rejects the command
line; 2 a bad value or file (an invalid config, input file or parameter)
or another runtime error; 3 verification violation.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .censored import (
    MassSpec,
    RegionPartition,
    bound_three_region,
    bound_two_region,
    bound_two_region_apriori,
    eta_for_confidence,
)
from .classic import (
    BoundValue,
    dkw_bound,
    gc_bound,
    hoeffding_bound,
    multivariate_dkw_bound,
    vc_bound,
)
from .explore import BoundContext, CostModel, default_eps_grid, optimize_exploration
from .generalization import gen_bound_from_counts
from .planar import bound_2d_three_region, bound_2d_two_region
from .presets import REPRODUCERS, fig1_config, fig2_config, reproduce
from .rng import check_seed
from .simulate import SimulationConfig, finalize, ingest_scores, run_simulation
from .stats import GaussianCdf
from .verify import mc_cdf_deviation, mc_gen_gap, write_columns

USAGE_ERROR, RUNTIME_ERROR, VERIFY_VIOLATION = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int | None
    version: str
    outputs: list[str]
    duration_s: float

    def write(self, outdir: Path) -> Path:
        path = outdir / "manifest.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _print_bound(value: BoundValue, extra: dict | None = None) -> None:
    out = {
        "raw": value.raw,
        "probability": value.probability,
        "trivial": value.trivial,
        "approximate": value.approximate,
    }
    if extra:
        out.update(extra)
    print(json.dumps(out, sort_keys=True))


def _cmd_bound(args) -> int:
    kind = args.kind
    if kind == "dkw":
        _print_bound(dkw_bound(args.n, args.eta))
    elif kind == "gc":
        _print_bound(gc_bound(args.n, args.eta))
    elif kind == "vc":
        _print_bound(vc_bound(args.n, args.eta, args.d))
    elif kind == "hoeffding":
        _print_bound(hoeffding_bound(args.n, args.eta))
    elif kind == "mdkw":
        _print_bound(multivariate_dkw_bound(args.n, args.eta, args.dim))
    elif kind in ("two-region", "two-region-2d"):
        part = RegionPartition(n=args.n, m=args.m, k=args.k)
        if kind == "two-region":
            _print_bound(bound_two_region(part, MassSpec.theoretical(args.alpha), args.eta))
        else:
            _print_bound(bound_2d_two_region(part, args.alpha, args.eta))
    elif kind == "apriori":
        part = RegionPartition(n=args.n, m=args.m)
        _print_bound(bound_two_region_apriori(
            part, MassSpec.theoretical(args.alpha), args.eta, args.wait))
    elif kind in ("three-region", "three-region-2d"):
        part = RegionPartition(n=args.n, m=args.m, l=args.l, k=args.k2, k1=args.k1)
        if kind == "three-region":
            _print_bound(bound_three_region(
                part, MassSpec.theoretical(args.alpha, args.beta), args.epsilon, args.eta))
        else:
            _print_bound(bound_2d_three_region(part, args.alpha, args.beta,
                                               args.epsilon, args.eta))
    elif kind == "gen":
        gb = gen_bound_from_counts(args.n0, args.n1, args.p1,
                                   {0: args.sup0, 1: args.sup1}, args.delta)
        print(json.dumps({
            "prior_term": gb.prior_term,
            "contribution0": gb.contributions[0],
            "contribution1": gb.contributions[1],
            "total": gb.total,
            "confidence": gb.confidence,
        }, sort_keys=True))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown bound kind {kind!r}")
    return 0


def _load_config(path: str, seed_flag: int | None) -> SimulationConfig:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    if seed_flag is not None:
        data["seed"] = seed_flag
    if "seed" not in data or data["seed"] is None:
        raise ValueError("config has no seed; pass --seed")
    return SimulationConfig.from_dict(data)


def _cmd_simulate(args) -> int:
    start = time.time()
    config = _load_config(args.config, args.seed)
    stream = ingest_scores(args.arrivals_csv) if args.arrivals_csv else None
    trace = run_simulation(config, arrival_stream=stream)
    finals = finalize(trace)    # may raise; nothing is written before it
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    trace_path = outdir / "trace.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        trace.write_json(fh)
        fh.write("\n")
    summary = {}
    for label, final in finals.items():
        key = "pooled" if label is None else f"label{label}"
        summary[key] = {**asdict(final.part), "observed": final.ecdf.n}
    summary["theta_history"] = [[t, th if np.isfinite(th) else str(th)]
                                for t, th in trace.threshold_history]
    summary_path = outdir / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs = [str(trace_path), str(summary_path)]
    RunManifest("simulate", config.to_dict(), config.seed, __version__,
                outputs, time.time() - start).write(outdir)
    print(json.dumps({"outputs": outputs, "summary": summary}, sort_keys=True))
    return 0


def _cmd_reproduce(args) -> int:
    start = time.time()
    outdir = Path(args.out)
    result = reproduce(args.figure, outdir, seed=args.seed)
    RunManifest(f"reproduce {args.figure}", {"figure": args.figure},
                args.seed if args.seed is not None else result["summary"].get("seed"),
                __version__, result["files"], time.time() - start).write(outdir)
    print(json.dumps(result["summary"], sort_keys=True, default=str))
    return 0


def _cmd_optimize(args) -> int:
    start = time.time()
    from .presets import run_seeds
    from .simulate import run_stage1

    population = GaussianCdf(args.pop_mean, args.pop_std)
    if args.exact_mass:
        check_seed(args.seed)       # no stream is drawn, so nothing else checks it
        samples = None
    else:
        samples = tuple(
            run_stage1(SimulationConfig(population=population, n=args.n,
                                        theta=args.theta, arrivals=0,
                                        seed=s)).initial_scores
            for s in run_seeds(args.seed, args.members))
    ctx = BoundContext(population=population, n=args.n, theta=args.theta,
                       eta=args.eta, arrivals=args.arrivals,
                       initial_samples=samples)
    model = CostModel(c=args.c, f0=population)
    lb_grid = [args.lb] if args.lb is not None else None
    if lb_grid is None:
        from .explore import default_lb_grid
        lb_grid = default_lb_grid(population).tolist()
    result = optimize_exploration(ctx, model, lb_grid,
                                  default_eps_grid(args.eps_step))
    payload = {
        "eps_star": result.epsilon,
        "lb_star": result.lb,
        "objective": result.objective,
    }
    outputs = []
    resolved = {k: v for k, v in vars(args).items() if k != "command"}
    manifest = RunManifest("optimize", resolved, args.seed, __version__,
                           outputs, time.time() - start)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        grid_path = outdir / "objective_grid.csv"
        n_lb, n_eps = result.objective_grid.shape
        write_columns(grid_path, ["lb", "eps", "objective"],
                      [np.repeat(result.grid_lb, n_eps), np.tile(result.grid_eps, n_lb),
                       result.objective_grid.ravel()])
        outputs.append(str(grid_path))
        manifest.duration_s = time.time() - start
        manifest.write(outdir)
        print(json.dumps(payload | {"outputs": outputs}, sort_keys=True))
    else:
        # no output directory: the manifest travels on stdout instead
        print(json.dumps(payload | {"manifest": asdict(manifest)}, sort_keys=True))
    return 0


def _verify_preset(name: str):
    """A preset's config and the partition its own seeded run realizes."""
    if name == "fig1":
        config = fig1_config()
    elif name == "fig2":
        config = fig2_config()
    else:
        raise ValueError(f"unknown verification preset {name!r}")
    return config, finalize(run_simulation(config))[None].part


def _cmd_verify(args) -> int:
    start = time.time()
    if args.target == "cdf":
        if args.preset:
            if args.preset not in ("fig1", "fig2"):
                raise ValueError(f"target 'cdf' supports presets fig1/fig2, got {args.preset!r}")
            config, condition = _verify_preset(args.preset)
        else:
            config = _load_config(args.config, None)
            condition = None
        if args.eta == "auto":
            if condition is None:
                raise ValueError("--eta auto needs a preset with a conditioned partition")
            eta = eta_for_confidence(lambda e: config.deviation_bound(condition, e),
                                     args.delta)
            if eta is None:
                raise ValueError("requested confidence is unreachable for this bound")
        else:
            eta = float(args.eta)
        report = mc_cdf_deviation(config, eta, args.replications, args.seed,
                                  condition=condition)
    else:
        if args.preset:
            if args.preset != "bench":
                raise ValueError(f"target 'gen' supports preset bench, got {args.preset!r}")
            from .presets import bench_config

            config = bench_config()
        else:
            config = _load_config(args.config, None)
        report = mc_gen_gap(config, args.replications, args.seed, delta=args.delta)

    resolved = {"preset": args.preset, "config": args.config,
                "delta": args.delta, "replications": args.replications}
    if args.out:
        print(report.to_json())
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        report_path = outdir / "report.json"
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        csv_path = outdir / "report.csv"
        report.write_csv(csv_path)
        RunManifest(f"verify {args.target}", resolved, args.seed, __version__,
                    [str(report_path), str(csv_path)],
                    time.time() - start).write(outdir)
    else:
        manifest = RunManifest(f"verify {args.target}", resolved, args.seed,
                               __version__, [], time.time() - start)
        payload = json.loads(report.to_json())
        payload["manifest"] = asdict(manifest)
        print(json.dumps(payload, sort_keys=True))
    return 0 if report.holds else VERIFY_VIOLATION


def build_parser() -> _Parser:
    parser = _Parser(prog="cfbounds", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="evaluate a bound formula")
    bs = b.add_subparsers(dest="kind", required=True)

    def classic(name):
        p = bs.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--eta", type=float, required=True)
        return p

    classic("dkw")
    classic("gc")
    classic("hoeffding")
    classic("vc").add_argument("--d", type=int, default=2)
    classic("mdkw").add_argument("--dim", type=int, required=True)

    for name in ("two-region", "two-region-2d"):
        p = bs.add_parser(name)
        for flag, typ in (("--n", int), ("--m", int), ("--k", int)):
            p.add_argument(flag, type=typ, required=flag != "--k", default=0)
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--eta", type=float, required=True)

    p = bs.add_parser("apriori")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--wait", type=int, required=True)

    for name in ("three-region", "three-region-2d"):
        p = bs.add_parser(name)
        for flag in ("--n", "--m", "--l", "--k1", "--k2"):
            p.add_argument(flag, type=int, required=flag in ("--n", "--m", "--l"),
                           default=0)
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--beta", type=float, required=True)
        p.add_argument("--epsilon", type=float, required=True)
        p.add_argument("--eta", type=float, required=True)

    p = bs.add_parser("gen")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--sup0", type=float, required=True)
    p.add_argument("--sup1", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)

    s = sub.add_parser("simulate", help="run the admission process")
    s.add_argument("--config", required=True, help="SimulationConfig JSON file")
    s.add_argument("--seed", type=int, help="override the config seed")
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--arrivals-csv", help="score,label CSV replacing synthetic arrivals")

    r = sub.add_parser("reproduce", help="regenerate preset experiment data")
    r.add_argument("figure", choices=sorted(REPRODUCERS))
    r.add_argument("--out", required=True)
    r.add_argument("--seed", type=int, help="override the preset seed")

    o = sub.add_parser("optimize", help="choose an exploration frequency")
    o.add_argument("--c", type=float, required=True, help="cost decay constant")
    o.add_argument("--lb", type=float, help="fixed exploration lower bound")
    o.add_argument("--eta", type=float, default=0.015)
    o.add_argument("--n", type=int, default=8000)
    o.add_argument("--theta", type=float, default=8.0)
    o.add_argument("--arrivals", type=int, default=40_000)
    o.add_argument("--pop-mean", type=float, default=7.0)
    o.add_argument("--pop-std", type=float, default=3.0)
    o.add_argument("--members", type=int, default=5)
    o.add_argument("--eps-step", type=float, default=0.0025)
    o.add_argument("--exact-mass", action="store_true",
                   help="use expected region counts instead of sampled ensembles")
    o.add_argument("--seed", type=int, required=True)
    o.add_argument("--out")

    v = sub.add_parser("verify", help="Monte Carlo coverage checks")
    v.add_argument("target", choices=("cdf", "gen"))
    group = v.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=("fig1", "fig2", "bench"))
    group.add_argument("--config")
    v.add_argument("--eta", default="auto", help="deviation level or 'auto'")
    v.add_argument("--delta", type=float, default=0.05)
    v.add_argument("-R", "--replications", type=int, required=True)
    v.add_argument("--seed", type=int, required=True)
    v.add_argument("--out")

    return parser


_HANDLERS = {
    "bound": _cmd_bound,
    "simulate": _cmd_simulate,
    "reproduce": _cmd_reproduce,
    "optimize": _cmd_optimize,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> _Parser:
    """The parser ``main`` uses, built on its first call and then reused."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
