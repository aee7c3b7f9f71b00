import csv
import json

import numpy as np
import pytest

from ncslqr import cli
from conftest import divergent_config, long_horizon_config, random_config, s2_config


@pytest.fixture
def s2_path(tmp_path):
    path = tmp_path / "s2.json"
    path.write_text(json.dumps(s2_config()))
    return str(path)


class TestSolve:
    def test_prints_cost_and_writes_bundle(self, s2_path, tmp_path, capsys):
        out = tmp_path / "bundle.json"
        rc = cli.main(["solve", "--config", s2_path, "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "j_star = 5.05" in captured
        assert "t=0" in captured and "t=1" in captured
        saved = json.loads(out.read_text())
        assert saved["j_star"] == pytest.approx(5.05)

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        rc = cli.main(["solve", "--config", str(path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_probabilities_exit_code(self, tmp_path):
        cfg = s2_config()
        cfg["channel"]["p1"] = -0.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["solve", "--config", str(path)]) == 2


class TestSimulate:
    def test_report_csv(self, s2_path, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        rc = cli.main([
            "simulate", "--config", s2_path, "--runs", "200", "--seed", "3",
            "--out", str(out),
        ])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["policy"] == "optimal"
        assert int(rows[0]["runs"]) == 200
        assert float(rows[0]["std_err"]) > 0.0
        assert "mean_cost" in capsys.readouterr().out

    def test_deterministic_given_seed(self, s2_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert cli.main([
                "simulate", "--config", s2_path, "--runs", "100",
                "--seed", "7", "--out", str(out),
            ]) == 0
        assert a.read_text() == b.read_text()

    def test_threads_do_not_change_results(self, s2_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for threads, out in (("1", a), ("8", b)):
            assert cli.main([
                "--threads", threads, "simulate", "--config", s2_path,
                "--runs", "100", "--seed", "7", "--out", str(out),
            ]) == 0
        assert a.read_text() == b.read_text()

    def test_solution_reuse(self, s2_path, tmp_path):
        bundle = tmp_path / "bundle.json"
        assert cli.main(["solve", "--config", s2_path, "--out", str(bundle)]) == 0
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main([
            "simulate", "--config", s2_path, "--runs", "50", "--seed", "1",
            "--out", str(a),
        ]) == 0
        assert cli.main([
            "simulate", "--config", s2_path, "--solution", str(bundle),
            "--runs", "50", "--seed", "1", "--out", str(b),
        ]) == 0
        assert a.read_text() == b.read_text()

    def test_divergent_run_exit_code(self, tmp_path, capsys):
        path = tmp_path / "divergent.json"
        path.write_text(json.dumps(divergent_config()))
        rc = cli.main([
            "simulate", "--config", str(path), "--policy", "zero",
            "--runs", "700", "--seed", "8",
        ])
        assert rc == 3
        assert "run 567: state or action non-finite at t=3" in capsys.readouterr().err

    def test_dump_trajectories(self, s2_path, tmp_path):
        dump = tmp_path / "trajs"
        rc = cli.main([
            "simulate", "--config", s2_path, "--runs", "3", "--seed", "0",
            "--dump-trajectories", str(dump),
        ])
        assert rc == 0
        files = sorted(p.name for p in dump.iterdir())
        assert files == ["run_000000.csv", "run_000001.csv", "run_000002.csv"]
        with open(dump / "run_000000.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2  # T + 1 steps


class TestEvaluateExact:
    def test_optimal_report(self, s2_path, capsys):
        rc = cli.main(["evaluate-exact", "--config", s2_path])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact_cost"] == pytest.approx(5.05, abs=1e-10)
        assert report["rel_diff"] < 1e-10
        assert report["stationarity"]["ok"] is True

    def test_reference_policy_no_stationarity(self, s2_path, capsys):
        rc = cli.main(["evaluate-exact", "--config", s2_path, "--policy", "zero"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["policy"] == "zero"
        assert "stationarity" not in report
        assert report["exact_cost"] == pytest.approx(7.0, abs=1e-10)

    def test_long_horizon_exit_code(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(long_horizon_config()))
        rc = cli.main(["evaluate-exact", "--config", str(path), "--policy", "zero"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert np.isfinite(report["exact_cost"])
        assert report["sequence_probability_mass"] == pytest.approx(1.0, abs=1e-12)


class TestValidate:
    def test_all_checks_pass(self, s2_path, capsys):
        rc = cli.main(["validate", "--config", s2_path, "--runs", "3000"])
        out = capsys.readouterr().out
        assert rc == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["all_pass"] is True
        names = {c["check"] for c in summary["checks"]}
        assert {
            "solve", "psd-tables", "centralized-match",
            "oracle-analytic-identity", "mc-consistency",
            "estimator-unbiasedness",
        } <= names
        assert "FAIL" not in out

    def test_random_instance(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        cfg = random_config(rng, p1=0.7, T=2)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["validate", "--config", str(path), "--runs", "3000"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["all_pass"]


class TestSweep:
    def test_sweep_csv(self, s2_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = cli.main([
            "sweep", "--config", s2_path, "--values", "0.1,0.5,0.5,0.9",
            "--runs", "200", "--out", str(out),
        ])
        assert rc == 0
        assert "duplicate" in capsys.readouterr().err
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["p1"]) for r in rows] == [0.1, 0.5, 0.9]
        j = [float(r["j_star"]) for r in rows]
        assert j == sorted(j, reverse=True)  # better channel, lower cost
        assert j[1] == pytest.approx(5.05, abs=1e-10)

    def test_bad_value_exit_code(self, s2_path):
        assert cli.main(["sweep", "--config", s2_path, "--values", "0.1,1.5"]) == 2
