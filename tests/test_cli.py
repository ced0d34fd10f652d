"""Command-line surface: outputs, schemas, exit codes, manifests."""
import csv
import hashlib
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cfbounds import cli
from cfbounds.cli import main
from cfbounds.presets import bench_config, fig4_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_dkw_value(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "dkw", "--n", "100", "--eta", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["raw"] == pytest.approx(2 * math.exp(-2), rel=1e-12, abs=0.0)

    def test_two_region_recovery_identity(self, capsys):
        _, out_two, _ = run_cli(capsys, "bound", "two-region", "--n", "50", "--m", "0",
                                "--alpha", "0", "--k", "10", "--eta", "0.1")
        _, out_dkw, _ = run_cli(capsys, "bound", "dkw", "--n", "60", "--eta", "0.1")
        assert json.loads(out_two)["raw"] == json.loads(out_dkw)["raw"]

    def test_two_region_value(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "two-region", "--n", "50", "--m", "24",
                               "--alpha", "0.5", "--k", "0", "--eta", "0.3")
        payload = json.loads(out)
        want = 2 * math.exp(-48 * 0.28**2 / 0.48**2) + 2 * math.exp(-52 * 0.26**2 / 0.25)
        assert payload["raw"] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_gen_breakdown(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "gen", "--n0", "50", "--n1", "50",
                               "--p1", "0.5", "--sup0", "0.1", "--sup1", "0.2",
                               "--delta", "0.05")
        payload = json.loads(out)
        assert payload["total"] == pytest.approx(0.15)
        assert payload["confidence"] == pytest.approx(0.9)

    @pytest.mark.parametrize("sup", ["nan", "inf"])
    def test_gen_non_finite_sup_exit_code(self, capsys, sup):
        code, out, err = run_cli(capsys, "bound", "gen", "--n0", "50", "--n1", "50",
                                 "--p1", "0.5", "--sup0", sup, "--sup1", "0.1",
                                 "--delta", "0.05")
        assert code == 2
        assert out == "" and "finite" in err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "dkw", "--n", "100"])
        assert exc.value.code == 1

    def test_runtime_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "bound", "dkw", "--n", "0", "--eta", "0.1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("eta", ["inf", "nan"])
    @pytest.mark.parametrize("kind", [
        ["three-region", "--n", "50", "--m", "27", "--l", "7", "--alpha", "0.5",
         "--beta", "0.16", "--epsilon", "0.5"],
        ["two-region", "--n", "50", "--m", "24", "--alpha", "0.5"],
        ["dkw", "--n", "50"]], ids=["three-region", "two-region", "dkw"])
    def test_non_finite_eta_exit_code(self, capsys, kind, eta):
        code, out, err = run_cli(capsys, "bound", *kind, "--eta", eta)
        assert code == 2
        assert out == "" and "eta" in err

    @pytest.mark.parametrize("epsilon", ["1.5", "-0.1", "nan"])
    @pytest.mark.parametrize("kind", ["three-region", "three-region-2d"])
    def test_epsilon_outside_unit_interval_exit_code(self, capsys, kind, epsilon):
        code, out, err = run_cli(capsys, "bound", kind, "--n", "50", "--m", "27", "--l", "7",
                                 "--alpha", "0.5", "--beta", "0.16", "--eta", "0.3",
                                 "--epsilon", epsilon)
        assert code == 2
        assert out == "" and "epsilon" in err


class TestSimulateCommand:
    def test_outputs_and_manifest(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(fig4_config(0.5).to_dict()))
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--out", str(out_dir))
        assert code == 0
        trace = json.loads((out_dir / "trace.json").read_text())
        assert len(trace["arrival_scores"]) == 200
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["pooled"]["n"] == 50
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert set(manifest["outputs"]) == {str(out_dir / "trace.json"),
                                            str(out_dir / "summary.json")}

    def test_seed_required(self, capsys, tmp_path):
        cfg_dict = fig4_config(0.5).to_dict()
        del cfg_dict["seed"]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(cfg_dict))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--out", str(tmp_path / "x"))
        assert code == 2
        assert "seed" in err

    def test_misspelled_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(fig4_config(0.5).to_dict() | {"epsilom": 0.5}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--out", str(tmp_path / "x"))
        assert code == 2
        assert "epsilom" in err

    def test_non_object_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--seed", "3",
                               "--out", str(tmp_path / "x"))
        assert code == 2
        assert "JSON object" in err

    def test_byte_identical_reruns(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(fig4_config(0.5).to_dict()))
        run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "a"))
        run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "b"))
        assert (tmp_path / "a/trace.json").read_bytes() == \
            (tmp_path / "b/trace.json").read_bytes()

    def test_final_theta_below_lb_fails_before_writing(self, capsys, tmp_path):
        # lb with a trained theta: the fit lands below lb, which finalize
        # rejects before any output file is opened
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(bench_config(arrivals=1000).to_dict() | {
            "theta": None, "lb": 9.8, "epsilon": 0.5}))
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg),
                                 "--out", str(out_dir))
        assert code == 2
        assert out == ""
        assert "final theta" in err and "at or below lb 9.8" in err
        assert list(out_dir.iterdir()) == []

    def test_lb_with_retraining_rejected(self, capsys, tmp_path):
        # refits may move theta across lb, so the config itself is refused
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(bench_config(arrivals=2000).to_dict() | {
            "theta": None, "lb": 8.5, "retrain_every": 100}))
        out_dir = tmp_path / "run"
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg),
                                 "--out", str(out_dir))
        assert code == 2
        assert out == ""
        assert "retraining does not support" in err
        assert not out_dir.exists()

    def test_arrivals_csv(self, capsys, tmp_path):
        cfg_dict = fig4_config(1.0).to_dict()
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(cfg_dict))
        stream = tmp_path / "arrivals.csv"
        stream.write_text("score,label\n8.0,1\n5.0,0\n6.5,1\n")
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--out", str(out_dir), "--arrivals-csv", str(stream))
        assert code == 0
        trace = json.loads((out_dir / "trace.json").read_text())
        assert trace["arrival_scores"] == [8.0, 5.0, 6.5]
        # theta=7, lb=6, eps=1: admit 8.0 (disclosed) and 6.5 (explored)
        assert trace["arrival_admitted"] == [True, False, True]


def _simulate(capsys, tmp_path, config: dict, *extra) -> Path:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir),
                           *extra)
    assert code == 0, err
    return out_dir


def _arrivals_csv(path, rows: int, seed: int) -> Path:
    gen = np.random.default_rng(seed)
    scores = 7.0 + 1.5 * gen.standard_normal(rows)
    labels = (gen.random(rows) < 0.5).astype(int)
    path.write_text("score,label\n" + "".join(
        f"{s!r},{l}\n" for s, l in zip(scores.tolist(), labels.tolist())))
    return path


class TestSimulateOutputBytes:
    """sha256 of ``trace.json``, as the dict-of-lists serializer wrote it
    before the streaming writer replaced it, and of ``summary.json``, whose
    keys are the ``RegionPartition`` fields and ``observed``."""

    def _digests(self, out_dir):
        return [hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                for name in ("trace.json", "summary.json")]

    def test_retrained_run(self, capsys, tmp_path):
        config = bench_config(arrivals=2000).to_dict() | {"theta": None, "retrain_every": 100}
        assert self._digests(_simulate(capsys, tmp_path, config)) == [
            "b8617e9980a91ed76e6bd085d1dc53f1b4cfd4c0a5e8b2c7251446e2f7994c47",
            "8aae05bc6997221ed01fbf682880fbbce8893723884d8518e87b20bb61d04dba"]

    def test_adaptive_bench_run(self, capsys, tmp_path):
        # perfbench's cli-session simulate_adaptive at seed 0: 50 000 distinct scores
        config = bench_config(arrivals=50_000).to_dict() | {"theta": None, "retrain_every": 500}
        assert self._digests(_simulate(capsys, tmp_path, config)) == [
            "0c145c535f8b3510c900a84373bd94129d4cd40e40d2fdeb3a60fb5f3b2880e5",
            "f6ebd84a93108599bd2aa71caf3617f6e7085effbef47de9c6f9e6c050699b90"]

    def test_arrivals_csv_run(self, capsys, tmp_path):
        # 9000 arrivals cross one block of the writer; lb = 6 draws coins
        stream = _arrivals_csv(tmp_path / "arrivals.csv", 9000, 2024)
        out_dir = _simulate(capsys, tmp_path, fig4_config(0.5).to_dict(),
                            "--arrivals-csv", str(stream))
        assert self._digests(out_dir) == [
            "e7975e22a42bb265353c0cb158d7ac57cf8920c4e02ad551716fa8a27282afd1",
            "7e19a222ea20acd6781b89be91c0cbc037ca329a677fe57fb7bb289a8b0f383e"]


class TestSimulateMemory:
    """``cfbounds simulate`` writes trace.json a block at a time, so its
    ``tracemalloc`` peak stays far below the text of the trace."""

    def _peak_mb(self, run) -> float:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_adaptive(self, capsys, tmp_path):
        # about 10 MB when trace.json was one json.dumps of a dict of lists
        config = bench_config(arrivals=50_000).to_dict() | {"theta": None, "retrain_every": 500}
        assert self._peak_mb(lambda: _simulate(capsys, tmp_path, config)) < 4

    def test_arrivals_csv(self, capsys, tmp_path):
        stream = _arrivals_csv(tmp_path / "arrivals.csv", 50_000, 7)
        config = bench_config(arrivals=0).to_dict() | {"theta": None}
        assert self._peak_mb(lambda: _simulate(capsys, tmp_path, config, "--arrivals-csv",
                                               str(stream))) < 4


class TestReproduceCommand:
    @pytest.mark.parametrize("figure", ["fig1", "fig2", "fig4", "appendixJ"])
    def test_csvs_parse(self, capsys, tmp_path, figure):
        out_dir = tmp_path / figure
        code, out, _ = run_cli(capsys, "reproduce", figure, "--out", str(out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["outputs"]
        for path in manifest["outputs"]:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            header, *data = rows
            assert data, f"{path} has no data rows"
            for row in data:
                assert len(row) == len(header)
                values = [float(v) for v in row]
                assert all(np.isfinite(values))

    def test_fig1_partition_summary(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "reproduce", "fig1", "--out", str(tmp_path / "f"))
        summary = json.loads(out)
        assert summary["m"] == 24 and summary["n"] == 50


class TestVerifyCommand:
    def test_cdf_preset_holds(self, capsys, tmp_path):
        out_dir = tmp_path / "v"
        code, out, _ = run_cli(capsys, "verify", "cdf", "--preset", "fig1",
                               "--delta", "0.1", "-R", "500", "--seed", "3",
                               "--out", str(out_dir))
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["verdict"] == "bound-holds"
        assert (out_dir / "manifest.json").exists()

    def test_gen_preset(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "gen", "--preset", "bench",
                               "-R", "150", "--seed", "4", "--delta", "0.05")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == pytest.approx(0.1)

    @pytest.mark.parametrize("argv, digest", [
        (("cdf", "--preset", "fig1", "-R", "1000"),
         "3fd3cd8379ef3efdeccc0366b14c30141fb0951c14fd7a8c475b27281d4fd7ea"),
        (("cdf", "--preset", "fig2", "-R", "1000"),
         "6801ffd6e5b52424e8998a45a03335f06198f98ed2304727c3c8e422dff1c6dc"),
        (("gen", "--preset", "bench", "-R", "200"),
         "a9877e9d74d5eb7808d08527f1cc376a455cf203ae33d96d529663750ffe358c"),
    ], ids=["cdf-fig1", "cdf-fig2", "gen-bench"])
    def test_preset_report_is_byte_identical(self, capsys, tmp_path, argv, digest):
        # sha256 of report.json, pinned so a refactor keeps every verify
        # report's bytes, as the preset CSVs are kept
        code, _, _ = run_cli(capsys, "verify", *argv, "--seed", "5", "--out", str(tmp_path))
        assert code == 0
        assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("delta", ["0.5", "0.6"])
    def test_gen_delta_without_confidence_exit_code(self, capsys, delta):
        # the bound holds at confidence 1 - 2*delta, which is not positive here
        code, out, err = run_cli(capsys, "verify", "gen", "--preset", "bench",
                                 "-R", "100", "--seed", "4", "--delta", delta)
        assert code == 2
        assert out == "" and "delta" in err

    def test_violation_exit_code(self, capsys, monkeypatch):
        # a sound implementation never violates its own bounds, so the
        # exit-code path is exercised with a stubbed violated report
        from cfbounds.verify import CoverageReport
        import cfbounds.cli as cli_mod

        def fake(config, eta, replications, seed, condition=None):
            return CoverageReport.build(int(0.9 * replications), replications,
                                        seed, eta, bound=0.05)

        monkeypatch.setattr(cli_mod, "mc_cdf_deviation", fake)
        code, out, _ = run_cli(capsys, "verify", "cdf", "--preset", "fig1",
                               "--eta", "0.2", "-R", "200", "--seed", "5")
        assert code == 3
        assert json.loads(out)["verdict"] == "bound-violated"


class TestOptimizeCommand:
    def test_exact_mass_mode(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "optimize", "--c", "5", "--lb", "6",
                               "--seed", "1", "--exact-mass", "--eps-step", "0.25",
                               "--out", str(tmp_path / "o"))
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["eps_star"] <= 1.0
        path = tmp_path / "o" / "objective_grid.csv"
        grid = list(csv.reader(open(path)))
        assert grid[0] == ["lb", "eps", "objective"]
        assert len(grid) == 1 + 5
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "c16ef2c05eba0f6300f9c6d7ad4b57e3610fd09998d820635d32f409388ed4b9"


    def test_overflowing_cost_prints_valid_json(self, capsys):
        # the full cost at c = 0.001 overflows to inf: epsilon = 0 must still
        # cost 0, or stdout carries NaN, which is not JSON
        with np.errstate(over="ignore"):
            code, out, _ = run_cli(capsys, "optimize", "--c", "0.001", "--lb", "1",
                                   "--seed", "1", "--exact-mass", "--eps-step", "0.25")
        assert code == 0
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in stdout"))
        assert payload["eps_star"] == 0.0 and payload["lb_star"] == 1.0
        assert 0.0 < payload["objective"] < 1.0

    def test_huge_cost_prints_valid_json(self, capsys):
        # at c = 0.16 the full cost over [-200, 8) is about 1.1e79, finite;
        # the quadrature formed inf * 0 there and the command exited 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "optimize", "--c", "0.16", "--lb", "-200",
                                     "--seed", "1", "--exact-mass", "--eps-step", "0.25")
        assert code == 0 and err == ""
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in stdout"))
        assert payload["eps_star"] == 0.0

    def test_theta_below_the_grid_lbs(self, capsys, tmp_path):
        # the default lb grid reaches the population median, 7.0, above
        # theta = 6; those lbs explore nothing and score 0 at every eps
        code, out, err = run_cli(capsys, "optimize", "--c", "5", "--seed", "1",
                                 "--members", "1", "--theta", "6", "--eps-step", "0.25",
                                 "--out", str(tmp_path / "o"))
        assert code == 0, err
        rows = list(csv.DictReader(open(tmp_path / "o" / "objective_grid.csv")))
        assert len(rows) == 50 * 5
        above = [float(r["objective"]) for r in rows if float(r["lb"]) >= 6.0]
        assert len(above) == 14 * 5 and set(above) == {0.0}
        assert float(json.loads(out)["lb_star"]) < 6.0

    @pytest.mark.parametrize("flags", [["--eps-step", "0"], ["--members", "0"]])
    def test_bad_value_exit_code(self, capsys, tmp_path, flags):
        # a zero step used to die with a ZeroDivisionError traceback, and no
        # members to exit 0 with the eps* of an all-NaN objective
        code, out, err = run_cli(capsys, "optimize", "--c", "5", "--lb", "6", "--seed", "1",
                                 *flags, "--out", str(tmp_path / "o"))
        assert code == 2
        assert out == "" and err.startswith("error:")
        assert not (tmp_path / "o").exists()


class TestSeedRange:
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", [
        ["simulate", "--config", "CONFIG"],
        ["reproduce", "fig1"],
        ["optimize", "--c", "5", "--lb", "6", "--eps-step", "0.25"],
        ["optimize", "--c", "5", "--lb", "6", "--eps-step", "0.25", "--exact-mass"],
        ["verify", "cdf", "--preset", "fig1", "-R", "100"],
        ["verify", "gen", "--preset", "bench", "-R", "100"],
    ], ids=["simulate", "reproduce", "optimize", "optimize-exact-mass", "verify-cdf",
            "verify-gen"])
    def test_seed_outside_range_exit_code(self, capsys, tmp_path, command, seed):
        # a seed is not wrapped into [0, 2^64): -1 would draw 2^64 - 1's stream
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(fig4_config(0.5).to_dict()))
        argv = [str(cfg) if arg == "CONFIG" else arg for arg in command]
        code, out, err = run_cli(capsys, *argv, "--seed", seed, "--out", str(tmp_path / "o"))
        assert code == 2
        assert out == "" and err.startswith("error: seed must be an integer in [0, 2^64)")
        assert not (tmp_path / "o").exists()

    def test_config_seed_outside_range_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**fig4_config(0.5).to_dict(), "seed": -1}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg),
                                 "--out", str(tmp_path / "o"))
        assert code == 2 and out == "" and "[0, 2^64)" in err
        assert not (tmp_path / "o").exists()


class TestParserReuse:
    def test_repeated_calls_match_fresh_ones(self, capsys, tmp_path):
        # main builds its parser once per process; a usage error between two
        # good calls must leave nothing behind for the next call
        calls = [["bound", "dkw", "--n", "100", "--eta", "0.1"],
                 ["bound", "dkw", "--n", "100"],
                 ["bound", "two-region", "--n", "50", "--m", "24", "--alpha", "0.5",
                  "--eta", "0.3"],
                 ["bound", "dkw", "--n", "100", "--eta", "0.1"]]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return (code,) + tuple(capsys.readouterr())

        cli._parser.cache_clear()
        shared = [outcome(argv) for argv in calls]
        assert cli._parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(outcome(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 1, 0, 0]
        assert shared[0] == shared[3] and shared[1][2].startswith("usage: cfbounds")


class TestReproduceDeterminism:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        run_cli(capsys, "reproduce", "fig1", "--out", str(tmp_path / "a"))
        run_cli(capsys, "reproduce", "fig1", "--out", str(tmp_path / "b"))
        assert (tmp_path / "a/fig1_curves.csv").read_bytes() == \
            (tmp_path / "b/fig1_curves.csv").read_bytes()


class TestRemainingPresetSchemas:
    def test_fig3_csv_parses(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "reproduce", "fig3", "--out", str(tmp_path))
        assert code == 0
        rows = list(csv.reader(open(tmp_path / "fig3_bounds.csv")))
        header, *data = rows
        assert header == ["eps", "bound_explore", "bound_theta", "bound_lb",
                          "dkw_initial"]
        assert len(data) == 41
        for row in data:
            assert all(np.isfinite(float(v)) for v in row)

    def test_bench_csv_parses(self, tmp_path):
        # small replication budget: schema only, not the acceptance margins
        from cfbounds.presets import reproduce_bench

        result = reproduce_bench(tmp_path, replications=40)
        rows = list(csv.reader(open(result["files"][0])))
        header, *data = rows
        assert header == ["arrivals", "gap_quantile", "gap_mean", "ours",
                          "hoeffding", "gc", "vc_gen", "dkw"]
        assert len(data) == 6
        for row in data:
            assert all(np.isfinite(float(v)) for v in row)


class TestVerifyPresetValidation:
    def test_gen_rejects_cdf_presets(self, capsys):
        code, _, err = run_cli(capsys, "verify", "gen", "--preset", "fig1",
                               "-R", "150", "--seed", "1")
        assert code == 2
        assert "bench" in err

    def test_cdf_rejects_gen_preset(self, capsys):
        code, _, err = run_cli(capsys, "verify", "cdf", "--preset", "bench",
                               "-R", "150", "--seed", "1")
        assert code == 2
        assert "fig1" in err


class TestVerifyConfigFile:
    def test_unconditioned_cdf_run(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(fig4_config(0.5).to_dict() | {"arrivals": 30}))
        code, out, _ = run_cli(capsys, "verify", "cdf", "--config", str(cfg),
                               "--eta", "0.4", "-R", "120", "--seed", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["mode"] == "unconditioned"

    def test_eta_auto_needs_condition(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(fig4_config(0.5).to_dict()))
        code, _, err = run_cli(capsys, "verify", "cdf", "--config", str(cfg),
                               "--eta", "auto", "-R", "120", "--seed", "6")
        assert code == 2
        assert "auto" in err

    def test_partial_piecewise_table_exit_code(self, capsys, tmp_path):
        # the table [0.2, 0.9] is no distribution; the run used to report
        # frequency 1.0, bound-violated, and exit 3
        cfg = tmp_path / "config.json"
        population = {"family": "piecewise", "xs": [0, 10], "ps": [0.2, 0.9]}
        cfg.write_text(json.dumps({"arrivals": 0, "seed": 1, "theta": 5.0, "n": 5000,
                                   "population": population}))
        code, out, err = run_cli(capsys, "verify", "cdf", "--config", str(cfg),
                                 "--eta", "0.05", "-R", "200", "--seed", "1")
        assert code == 2
        assert out == "" and err.startswith("error: ") and "piecewise" in err

    @pytest.mark.parametrize("theta", [None, 9.5])
    def test_labeled_config_exit_code(self, capsys, tmp_path, theta):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(bench_config(arrivals=10).to_dict() | {"theta": theta}))
        code, _, err = run_cli(capsys, "verify", "cdf", "--config", str(cfg),
                               "-R", "120", "--seed", "6")
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
