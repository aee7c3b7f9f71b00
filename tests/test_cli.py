import base64
import contextlib
import copy
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncslqr
from ncslqr import cli, control, errors, matkit, model, oracle, sim, solver
from ncslqr.errors import NonFiniteError, ParseError, ShapeError
from conftest import (
    battery_configs,
    bundle_document,
    document_table,
    divergent_config,
    long_horizon_config,
    random_config,
    reference_rollout,
    s2_config,
    with_entry,
    with_table,
    zero_weight_mode_config,
)

DATA = Path(__file__).resolve().parent / "data"
# The JSON object of the S2 instance's bundle file.
S2_BUNDLE = bundle_document(solver.solve_backward(model.load_config(s2_config())))
S2_DATA = S2_BUNDLE["P"]["data"]
S2_RAW = base64.b64decode(S2_DATA)


@pytest.fixture
def divergent_path(tmp_path):
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps(divergent_config()))
    return str(path)


def _first_reference_failure(cfg, kind, seed, runs):
    """The stderr line `simulate` owes the first run that `reference_rollout`
    finds non-finite."""
    spec = model.load_config(cfg)
    policy = control.make_policy(kind, spec)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(runs):
            try:
                reference_rollout(spec, policy, seed, i)
            except NonFiniteError as exc:
                return f"numerical error: run {i}: {exc}\n"
    raise AssertionError("no run went non-finite")


@pytest.fixture
def s2_path(tmp_path):
    path = tmp_path / "s2.json"
    path.write_text(json.dumps(s2_config()))
    return str(path)


class TestSolve:
    def test_stage_report_is_min_eig_of_tables(self, tmp_path, capsys):
        # The report reads the eigenvalues solve_backward's PSD check took;
        # they are the ones matkit.min_eig gives on the whole stacks.
        path = tmp_path / "cfg.json"
        for cfg in battery_configs():
            spec = model.load_config(cfg)
            path.write_text(json.dumps(cfg))
            assert cli.main(["solve", "--config", str(path)]) == 0
            bundle = solver.solve_backward(model.load_problem(path))
            steps = spec.T + 1
            lo_p = matkit.min_eig(bundle.values.P).min(axis=(1, 2))[:steps]
            lo_pt = matkit.min_eig(bundle.values.Ptilde).min(axis=(1, 2))[:steps]
            assert np.array_equal(bundle.stage_min_eig, np.stack([lo_p, lo_pt], axis=1))
            e = bundle.values.e
            assert capsys.readouterr().out.splitlines() == [f"j_star = {bundle.j_star:.12g}"] + [
                f"t={t}: min eig P {lo_p[t]:.3e}, min eig Ptilde {lo_pt[t]:.3e}, e {e[t]:.6g}"
                for t in range(steps)
            ]

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

    @pytest.mark.parametrize("path, value, message", [
        (("modes", "pi_m0"), [True], "modes.pi_m0 must hold numbers, got True"),
        (("stoch", "init", "mu_x1"), ["0.5"], "stoch.init.mu_x1 must hold numbers, got '0.5'"),
        (("cost", "Q"), [[[1.0, True], [True, 1.0]]], "cost.Q must hold numbers, got True"),
    ], ids=["bool-leaf", "numeric-string-leaf", "mixed"])
    def test_config_arrays_take_only_numbers(self, tmp_path, capsys, path, value, message):
        # numpy casts true and "0.5" to floats, but neither is a JSON number.
        assert cli.main(["solve", "--config", _config_path(tmp_path, _with(s2_config(), path, value))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    def test_deeply_nested_config_exit_code(self, tmp_path, capsys):
        # json's scanner recurses once per nesting level.
        path = tmp_path / "deep.json"
        path.write_text('{"a": ' * 100000 + "1" + "}" * 100000)
        assert cli.main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: malformed JSON in {path}: nested too deeply (")

    @pytest.mark.parametrize("text", [
        b'{"a": "\xff"}', b'{"a": ' + b"1" * 4301 + b"}",
    ], ids=["not-utf8", "over-long-integer"])
    def test_undecodable_config_exit_code(self, tmp_path, capsys, text):
        # A byte that is not UTF-8, and an integer literal past Python's
        # 4300-digit limit: json.load raises a ValueError that is not a
        # JSONDecodeError for each.
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        assert cli.main(["solve", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"config error: malformed JSON in {path}: ")

    def test_invalid_probabilities_exit_code(self, tmp_path):
        cfg = s2_config()
        cfg["channel"]["p1"] = -0.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["solve", "--config", str(path)]) == 2

    def test_singular_block_exit_code(self, tmp_path, capsys):
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(zero_weight_mode_config()))
        assert cli.main(["solve", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: H^UU not PD at t=1, m0=1, ztilde=empty: ")

    @pytest.mark.parametrize("argv", [
        ["solve"], ["evaluate-exact"], ["validate"], ["simulate", "--policy", "optimal"],
    ])
    def test_non_finite_recursion_exit_code(self, divergent_path, capsys, argv):
        # The rare 1e200 mode overflows the t=2 empty-branch H^UU.
        assert cli.main(argv + ["--config", divergent_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical error: H^UU non-finite at t=2, m0=1, ztilde=empty\n"

    @pytest.mark.parametrize("command", ["simulate", "evaluate-exact"])
    @pytest.mark.parametrize("policy", ["ce", "centralized"])
    def test_non_finite_centralized_reference_exit_code(self, divergent_path, capsys, command, policy):
        # The same overflow reaches the centralized recursion's t=2 H.
        assert cli.main([command, "--config", divergent_path, "--policy", policy]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical error: centralized H non-finite at t=2, m0=1, m1=1\n"

    def test_unwritable_bundle_exit_code(self, s2_path, tmp_path, capsys):
        out = tmp_path / "missing" / "bundle.json"
        assert cli.main(["solve", "--config", s2_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: cannot write solution bundle: ")


class TestOutputs:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--runs", "5", "--out"],
        ["simulate", "--runs", "5", "--dump-trajectories"],
        ["evaluate-exact", "--out"],
        ["sweep", "--values", "0.5", "--runs", "5", "--out"],
    ])
    def test_unwritable_output_fails_before_work(self, s2_path, tmp_path, capsys, monkeypatch, argv):
        # The output's parent is a regular file, so nothing can be created
        # under it; the command must say so before it solves anything.
        blocker = tmp_path / "blocker"
        blocker.write_text("")

        def no_work(spec):
            raise AssertionError("the work started")

        monkeypatch.setattr(solver, "solve_backward", no_work)
        command, *rest = argv
        rc = cli.main([command, "--config", s2_path] + rest + [str(blocker / "out")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: cannot write ")

    @pytest.mark.parametrize("argv", [
        ["solve", "--out"],
        ["simulate", "--runs", "5", "--out"],
        ["simulate", "--runs", "5", "--dump-trajectories"],
        ["evaluate-exact", "--out"],
        ["sweep", "--values", "0.5", "--runs", "5", "--out"],
    ])
    def test_empty_output_path_fails_before_work(self, s2_path, capsys, monkeypatch, argv):
        # An empty path names no file: it is refused, not taken as absent.
        def no_work(spec):
            raise AssertionError("the work started")

        monkeypatch.setattr(solver, "solve_backward", no_work)
        command, *rest = argv
        assert cli.main([command, "--config", s2_path] + rest + [""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: cannot write ")



    def test_closed_stdout_exits_quietly(self, s2_path):
        # The reader closes its end of the pipe before the command prints:
        # the write fails with EPIPE, and the command exits 1 with no
        # traceback, as it does at exit when the reader leaves early.
        src = str(Path(ncslqr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "ncslqr.cli", "evaluate-exact", "--config", s2_path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.communicate(timeout=60)[1]
        assert (proc.returncode, err) == (1, b"")

class TestArguments:
    @pytest.mark.parametrize("command", ["simulate", "validate", "sweep"])
    @pytest.mark.parametrize("runs", ["0", "-3", "2.5", "many"])
    def test_runs_must_be_positive_integer(self, s2_path, capsys, command, runs):
        extra = ["--values", "0.5"] if command == "sweep" else []
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", s2_path, "--runs", runs] + extra)
        assert exc.value.code == 2
        want = "an integer >= 2" if command == "validate" else "a positive integer"
        assert f"argument --runs: expected {want}, got '{runs}'" in capsys.readouterr().err

    def test_validate_needs_two_runs(self, s2_path, capsys):
        # Both Monte Carlo checks divide by a standard error.
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "--config", s2_path, "--runs", "1"])
        assert exc.value.code == 2
        assert "argument --runs: expected an integer >= 2, got '1'" in capsys.readouterr().err
        cli.main(["validate", "--config", s2_path, "--runs", "2"])
        assert "nan" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["simulate", "validate", "sweep"])
    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_seed_must_be_non_negative_integer(self, s2_path, capsys, command, seed):
        extra = ["--values", "0.5"] if command == "sweep" else []
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", s2_path, "--seed", seed] + extra)
        assert exc.value.code == 2
        assert f"argument --seed: expected a non-negative integer, got '{seed}'" in capsys.readouterr().err

    def test_sweep_values_must_be_numbers(self, s2_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", s2_path, "--values", "0.5,abc"])
        assert exc.value.code == 2
        assert "argument --values: expected comma-separated numbers, got '0.5,abc'" in capsys.readouterr().err


class TestSolutionBundle:
    @pytest.mark.parametrize("command", ["simulate", "evaluate-exact"])
    @pytest.mark.parametrize("content", [None, "{broken", '{"P": {}}', "[1]"])
    def test_unreadable_bundle_exit_code(self, s2_path, tmp_path, capsys, command, content):
        bundle = tmp_path / "bundle.json"
        if content is not None:
            bundle.write_text(content)
        rc = cli.main([command, "--config", s2_path, "--solution", str(bundle)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"solution error: cannot read solution bundle {bundle}: ")

    @pytest.mark.parametrize("command", ["simulate", "evaluate-exact"])
    def test_empty_solution_path_exit_code(self, s2_path, capsys, command):
        # An empty path names no bundle: it is not taken as absent, which
        # would solve afresh.
        assert cli.main([command, "--config", s2_path, "--solution", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("solution error: cannot read solution bundle : ")

    @pytest.mark.parametrize("command", ["simulate", "evaluate-exact"])
    def test_invalid_utf8_bundle_exit_code(self, s2_path, tmp_path, capsys, command):
        # The reader decodes the file's bytes itself: a byte that is not
        # UTF-8 (here 0xff inside j_star's key) is still a solution error.
        bundle = tmp_path / "bundle.json"
        solver.save_bundle(solver.solve_backward(model.load_config(s2_config())), bundle)
        bundle.write_bytes(bundle.read_bytes().replace(b'"j_star"', b'"j_st\xffar"'))
        assert cli.main([command, "--config", s2_path, "--solution", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"solution error: cannot read solution bundle {bundle}: UnicodeDecodeError: ")

    def test_simulate_frees_the_loaded_value_tables(self, s2_path, tmp_path, monkeypatch):
        # simulate keeps the policy, not the bundle: the value tables it
        # loaded are freed before the Monte Carlo runs start.
        bundle = tmp_path / "bundle.json"
        assert cli.main(["solve", "--config", s2_path, "--out", str(bundle)]) == 0
        load_bundle, monte_carlo = solver.load_bundle, sim.monte_carlo
        values, alive = [], []

        def loading(path):
            loaded = load_bundle(path)
            values.append(weakref.ref(loaded.values))
            return loaded

        def running(*args, **kwargs):
            alive.append(values[0]() is not None)
            return monte_carlo(*args, **kwargs)

        monkeypatch.setattr(solver, "load_bundle", loading)
        monkeypatch.setattr(sim, "monte_carlo", running)
        assert cli.main(["simulate", "--config", s2_path, "--solution", str(bundle), "--runs", "5"]) == 0
        assert alive == [False]

    @pytest.mark.parametrize("content", [
        "[" * 100000 + "]" * 100000, '{"a": ' * 100000 + "1" + "}" * 100000,
    ], ids=["arrays", "objects"])
    def test_deeply_nested_bundle_exit_code(self, s2_path, tmp_path, capsys, content):
        # Nested arrays recurse in json's scanner, nested objects in the
        # reader's walk through objects whose first member is an object.
        bundle = tmp_path / "bundle.json"
        bundle.write_text(content)
        assert cli.main(["simulate", "--config", s2_path, "--solution", str(bundle)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"solution error: cannot read solution bundle {bundle}: RecursionError: ")

    @pytest.mark.parametrize("command", ["simulate", "evaluate-exact"])
    def test_non_finite_bundle_exit_code(self, s2_path, tmp_path, capsys, command):
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(with_entry(S2_BUNDLE, "Ktilde", (1, 0, 0, 0, 0), math.nan)))
        assert cli.main([command, "--config", s2_path, "--solution", str(bundle)]) == 2
        assert capsys.readouterr().err == (
            f"solution error: cannot read solution bundle {bundle}: "
            "solution table Ktilde has a non-finite entry at (1, 0, 0, 0, 0)\n"
        )

    @pytest.mark.parametrize("command", ["simulate", "evaluate-exact"])
    @pytest.mark.parametrize("where", [("e", 0), ("j_star",)])
    def test_huge_integer_bundle_exit_code(self, s2_path, tmp_path, capsys, command, where):
        # 10**400 is a valid JSON number that no float holds.
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(_with(S2_BUNDLE, where, 10 ** 400)))
        assert cli.main([command, "--config", s2_path, "--solution", str(bundle)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"solution error: cannot read solution bundle {bundle}: OverflowError: ")

    def test_non_finite_j_star_bundle_exit_code(self, s2_path, tmp_path, capsys):
        bundle = tmp_path / "bundle.json"
        assert cli.main(["solve", "--config", s2_path, "--out", str(bundle)]) == 0
        obj = json.loads(bundle.read_text())
        obj["j_star"] = float("nan")
        bundle.write_text(json.dumps(obj))
        capsys.readouterr()
        assert cli.main(["evaluate-exact", "--config", s2_path, "--solution", str(bundle)]) == 2
        assert capsys.readouterr().err == (
            f"solution error: cannot read solution bundle {bundle}: j_star = nan non-finite\n"
        )

    @pytest.fixture
    def mismatched(self, tmp_path, capsys):
        """(config at T = 3, bundle solved at T = 2)."""
        paths = {}
        for T in (2, 3):
            cfg = s2_config()
            cfg["stoch"]["T"] = T
            paths[T] = tmp_path / f"t{T}.json"
            paths[T].write_text(json.dumps(cfg))
        bundle = tmp_path / "bundle_t2.json"
        assert cli.main(["solve", "--config", str(paths[2]), "--out", str(bundle)]) == 0
        capsys.readouterr()
        return str(paths[3]), str(bundle)

    @pytest.mark.parametrize("command", ["simulate", "evaluate-exact"])
    def test_mismatched_bundle_exit_code(self, mismatched, capsys, command):
        config, bundle = mismatched
        rc = cli.main([command, "--config", config, "--solution", bundle])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("solution error: ")
        assert "(3, 1, 2, 2)" in err and "(4, 1, 2, 2)" in err

    @pytest.mark.parametrize("command", ["simulate", "evaluate-exact"])
    @pytest.mark.parametrize("policy", ["zero", "ce", "centralized"])
    def test_mismatched_bundle_refused_for_every_policy(self, mismatched, capsys, command, policy):
        # A reference policy reads no gains from the bundle, but evaluate-exact
        # reports the bundle's j_star beside it, so the bundle must fit too.
        config, bundle = mismatched
        argv = [command, "--config", config, "--solution", bundle, "--policy", policy]
        rc = cli.main(argv + (["--runs", "2"] if command == "simulate" else []))
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("solution error: ")
        assert "(3, 1, 2, 2)" in err and "(4, 1, 2, 2)" in err


    @pytest.mark.parametrize("command", ["simulate", "evaluate-exact"])
    def test_old_format_exit_code(self, s2_path, capsys, command):
        # A bundle of the nested layout that earlier releases wrote.
        path = DATA / "s2_bundle.json"
        assert cli.main([command, "--config", s2_path, "--solution", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"solution error: cannot read solution bundle {path}: ValueError: "
            "not an 'ncslqr-bundle 3' file; solve the problem again to write one\n"
        )

    @pytest.mark.parametrize("command", ["simulate", "evaluate-exact"])
    def test_format_2_bundle_exit_code(self, s2_path, capsys, command):
        # S2's bundle as the "ncslqr-bundle 2" format wrote it, its tables
        # zlib-compressed.
        path = DATA / "s2_bundle_format2.json"
        assert cli.main([command, "--config", s2_path, "--solution", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"solution error: cannot read solution bundle {path}: ValueError: "
            "not an 'ncslqr-bundle 3' file; solve the problem again to write one\n"
        )

    @pytest.mark.parametrize("command", ["simulate", "evaluate-exact"])
    @pytest.mark.parametrize("change", [
        pytest.param("step 9", id="step-9"),
        pytest.param("stray m7", id="stray-m7"),
        pytest.param("missing m1", id="missing-m1"),
    ])
    def test_bundle_out_of_layout_exit_code(self, s2_path, tmp_path, capsys, command, change):
        # S2 has T = 1, so P has steps 0, 1 and 2, and each table's third
        # axis holds the slots "empty" and m1. A shape that claims 9 steps,
        # a stray slot appended to P and a file without the m1-slot gains
        # are each refused, by the reader or by the fit to the problem.
        obj = copy.deepcopy(S2_BUNDLE)
        if change == "step 9":
            obj["P"]["shape"][0] = 9
            message = "cannot read solution bundle {bundle}: ValueError: solution table P holds 144 bytes, expected 432 for shape [9, 1, 2, 2, 2]"
        elif change == "stray m7":
            steps = document_table(obj, "P")
            obj = with_table(obj, "P", np.concatenate([steps, steps[:, :, 1:]], axis=2))
            message = ("solution value tables have shapes ((3, 1, 3, 2, 2), (3, 1, 2, 1, 1), (3,)), "
                       "but this problem needs ((3, 1, 2, 2, 2), (3, 1, 2, 1, 1), (3,))")
        else:
            del obj["K_received"]
            message = "cannot read solution bundle {bundle}: KeyError: 'K_received'"
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(obj))
        assert cli.main([command, "--config", s2_path, "--solution", str(bundle)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"solution error: {message.format(bundle=bundle)}\n"

    @pytest.mark.parametrize("command", ["simulate", "evaluate-exact"])
    @pytest.mark.parametrize("where, value, message", [
        (("P", "data"), True, "ValueError: solution table P has data of type bool, expected a base64 string"),
        (("P", "data"), 2.5, "ValueError: solution table P has data of type float, expected a base64 string"),
        (("P", "data"), [1.0], "ValueError: solution table P has data of type list, expected a base64 string"),
        # Decoding that skipped characters outside the base64 alphabet would
        # read this data as the table it was.
        (("P", "data"), S2_DATA[:8] + "*" + S2_DATA[8:], "Error: Only base64 data is allowed"),
        (("P", "shape", 1), True, "ValueError: solution table P has shape [3, True, 2, 2, 2], "
         "expected a list of non-negative integers"),
        (("P", "shape", 1), 2.5, "ValueError: solution table P has shape [3, 2.5, 2, 2, 2], "
         "expected a list of non-negative integers"),
        (("P", "shape", 1), -1, "ValueError: solution table P has shape [3, -1, 2, 2, 2], "
         "expected a list of non-negative integers"),
        (("P", "shape"), 72, "ValueError: solution table P has shape 72, expected a list of non-negative integers"),
        (("P", "shape", 1), 10 ** 9, "ValueError: solution table P holds 144 bytes, "
         "expected 144000000000 for shape [3, 1000000000, 2, 2, 2]"),
        (("P", "shape", 1), 2, "ValueError: solution table P holds 144 bytes, expected 288 for shape [3, 2, 2, 2, 2]"),
        (("format",), "ncslqr-bundle 1", "ValueError: not an 'ncslqr-bundle 3' file; solve the problem again to write one"),
        # Data cut short of the table's end, and bytes after it.
        (("P", "data"), base64.b64encode(S2_RAW[:-20]).decode(),
         "ValueError: solution table P holds 124 bytes, expected 144 for shape [3, 1, 2, 2, 2]"),
        (("P", "data"), base64.b64encode(S2_RAW + b"garbage-after-stream").decode(),
         "ValueError: solution table P holds 164 bytes, expected 144 for shape [3, 1, 2, 2, 2]"),
        # P's matrices whole rather than their upper triangles, and a stack
        # of matrices that are not square.
        (("P", "data"), base64.b64encode(solver.solve_backward(model.load_config(s2_config())).values.P).decode(),
         "ValueError: solution table P holds 192 bytes, expected 144 for shape [3, 1, 2, 2, 2]"),
        (("P", "shape"), [3, 1, 2, 2, 3],
         "ValueError: solution table P has shape [3, 1, 2, 2, 3], expected a stack of square matrices"),
    ], ids=[
        "bool-data", "number-data", "list-data", "stray-character", "bool-shape", "fraction-shape", "negative-shape",
        "number-shape", "huge-shape", "short-data", "old-format-tag", "truncated-stream", "trailing-data",
        "both-triangles", "unequal-axes",
    ])
    def test_malformed_table_exit_code(self, s2_path, tmp_path, capsys, command, where, value, message):
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(_with(S2_BUNDLE, where, value)))
        assert cli.main([command, "--config", s2_path, "--solution", str(bundle)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"solution error: cannot read solution bundle {bundle}: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "evaluate-exact"])
    @pytest.mark.parametrize("table", ["P", "Ptilde", "e"])
    def test_bundle_value_tables_must_fit_the_problem(self, s2_path, tmp_path, capsys, command, table):
        # One step too many in a value table alone: the bundle reads, but
        # its values do not fit this problem.
        obj = copy.deepcopy(S2_BUNDLE)
        if table == "e":
            obj["e"].append(0.0)
        else:
            steps = document_table(obj, table)
            obj = with_table(obj, table, np.concatenate([steps, steps[-1:]]))
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(obj))
        assert cli.main([command, "--config", s2_path, "--solution", str(bundle)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("solution error: solution value tables have shapes ")
        assert err.endswith(f"but this problem needs {solver.value_shapes(model.load_problem(s2_path))}\n")


class TestErrorTable:
    # Each error class of the package, with the stderr prefix and exit code
    # of its row in cli.ERRORS.
    ROWS = {
        errors.NcslqrError: ("error", 1),
        errors.ParseError: ("config error", 2),
        errors.ShapeError: ("config error", 2),
        errors.ProbabilityError: ("config error", 2),
        errors.DefinitenessError: ("numerical error", 3),
        errors.DimensionError: ("error", 1),
        errors.SingularBlockError: ("numerical error", 3),
        errors.NonFiniteError: ("numerical error", 3),
        errors.OutputError: ("error", 1),
        errors.UnsupportedPolicyError: ("error", 1),
    }

    def test_rows_cover_every_error_class(self):
        defined = {c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.NcslqrError)}
        assert defined == set(self.ROWS)

    @pytest.mark.parametrize("error", list(ROWS), ids=lambda c: c.__name__)
    def test_solve_error(self, s2_path, capsys, monkeypatch, error):
        def fail(spec):
            raise error("boom")

        monkeypatch.setattr(solver, "solve_backward", fail)
        prefix, code = self.ROWS[error]
        assert cli.main(["solve", "--config", s2_path]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{prefix}: boom\n"

    @pytest.mark.parametrize("error", [ParseError, ShapeError], ids=lambda c: c.__name__)
    def test_bundle_error(self, s2_path, capsys, monkeypatch, error):
        def fail(path):
            raise error("boom")

        monkeypatch.setattr(solver, "load_bundle", fail)
        assert cli.main(["simulate", "--config", s2_path, "--solution", "b.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "solution error: boom\n"


def _config_path(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _with(cfg, path, value):
    """A copy of the JSON value `cfg` with the leaf at `path` replaced."""
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


ALL_COMMANDS = [["solve"], ["simulate", "--runs", "3"], ["evaluate-exact"], ["validate", "--runs", "3"]]


class TestNumericalInputs:
    @pytest.mark.parametrize("command", ALL_COMMANDS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("path, value, message", [
        (("cost", "Q"), [[[1.0, 0.0], [0.0, -1.0]]], "cost.Q[t=0, m0=1, m1=1] is not PSD (min eigenvalue -1.000e+00)"),
        (("stoch", "covW0"), [[-1.0]], "stoch.covW0[t=0] is not PSD (min eigenvalue -1.000e+00)"),
        # sym() overflows the -1e308 entry, and a NaN eigenvalue is not PD.
        (("cost", "R"), [[[-1e308, 0.0], [0.0, 1.0]]], "cost.R[t=0, m0=1, m1=1] is not PD (min eigenvalue nan)"),
        (("stoch", "init", "mu_x0"), [1e308], "j_star = inf non-finite"),
    ], ids=["indefinite-Q", "indefinite-covW0", "overflowing-R", "huge-mean"])
    def test_numerical_error_exit_code(self, tmp_path, capsys, command, path, value, message):
        cfg_path = _config_path(tmp_path, _with(s2_config(), path, value))
        assert cli.main(command + ["--config", cfg_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical error: {message}\n"

    @pytest.mark.parametrize("command", [["simulate", "--runs", "3"], ["evaluate-exact"]], ids=lambda argv: argv[0])
    def test_overflowing_bundle_gain_exit_code(self, s2_path, tmp_path, capsys, command):
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(with_entry(S2_BUNDLE, "K_received", (0, 0, 0, 0, 0), 1e308)))
        assert cli.main(command + ["--config", s2_path, "--solution", str(bundle)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("numerical error: ")

    # 2**62 and 2**70 steps are too many to shape; 2**45 steps can be
    # shaped, but their 1 PiB is past any address space, so no page is
    # touched before the allocation fails.
    @pytest.mark.parametrize("T", [2**45, 2**62, 2**70])
    def test_horizon_numpy_cannot_hold(self, tmp_path, capsys, T):
        cfg_path = _config_path(tmp_path, _with(s2_config(), ("stoch", "T"), T))
        assert cli.main(["solve", "--config", cfg_path]) == 2
        assert capsys.readouterr().err.startswith(f"config error: stoch.T = {T} is too large: ")


# One-leaf mutations of a config, a bundle or the command line: every
# replacement value below, in every leaf, must end in a documented exit
# code. A huge stoch.T that numpy can still represent (say 2**30) is left
# out: loading it allocates gigabytes, which is a memory limit, not a
# malformed input, and trying it could exhaust the machine. So are 2**62
# and 2**70 as a --runs count: valid counts, whose runs would never end.
BAD_VALUES = [
    math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200, -1, 0, 1e-320,
    "x", [], {}, None, True, 2**62, 2**70, [[1.0]], [1.0, 2.0],
]
FUZZ_COMMANDS = [
    ["solve"], ["simulate", "--runs", "3"], ["simulate", "--runs", "3", "--policy", "ce"],
    ["evaluate-exact"], ["validate", "--runs", "3"],
]
PREFIXES = {1: ("error: ",), 2: ("config error: ", "solution error: "), 3: ("numerical error: ",)}


def _leaf_paths(obj, path=()):
    """Paths to every leaf of a JSON value; an empty container is a leaf."""
    if isinstance(obj, dict) and obj:
        return [p for key, value in obj.items() for p in _leaf_paths(value, path + (key,))]
    if isinstance(obj, list) and obj:
        return [p for i, value in enumerate(obj) for p in _leaf_paths(value, path + (i,))]
    return [path]


@st.composite
def one_bad_input(draw):
    """(config, bundle or None, argv): one leaf of the config or the
    bundle, or one command-line token, replaced by a bad value."""
    source = draw(st.sampled_from(["s2", "random", "bundle", "argument"]))
    if source == "random":
        cfg = random_config(np.random.default_rng(draw(st.integers(0, 2**16))), T=draw(st.integers(0, 2)))
    else:
        cfg = s2_config()
    # Only simulate and evaluate-exact read a --solution bundle.
    argv = list(draw(st.sampled_from(FUZZ_COMMANDS[1:4] if source == "bundle" else FUZZ_COMMANDS)))
    bundle = None
    if source in ("s2", "random"):
        cfg = _with(cfg, draw(st.sampled_from(_leaf_paths(cfg))), draw(st.sampled_from(BAD_VALUES)))
    elif source == "bundle":
        leaf = draw(st.sampled_from(_leaf_paths(S2_BUNDLE)))
        bundle = _with(S2_BUNDLE, leaf, draw(st.sampled_from(BAD_VALUES)))
    else:
        argv += ["--seed", "0"] if argv[0] in ("simulate", "validate") else []
        i = draw(st.integers(0, len(argv) - 1))
        values = [v for v in BAD_VALUES if not (i and argv[i - 1] == "--runs" and v in (2**62, 2**70))]
        value = draw(st.sampled_from(values))
        argv[i] = value if isinstance(value, str) else json.dumps(value)
    return cfg, bundle, argv


class TestBadInputs:
    @given(one_bad_input())
    @example((_with(s2_config(), ("stoch", "T"), 2**62), None, ["solve"]))
    @example((_with(s2_config(), ("stoch", "T"), 2**70), None, ["validate", "--runs", "3"]))
    @example((_with(s2_config(), ("cost", "R", 0, 0, 0), -1e308), None, ["solve"]))
    @example((_with(s2_config(), ("stoch", "init", "mu_x0", 0), 1e308), None, ["validate", "--runs", "3"]))
    @example((s2_config(), with_entry(S2_BUNDLE, "K_received", (0, 0, 0, 0, 0), 1e308), ["evaluate-exact"]))
    @example((s2_config(), _with(S2_BUNDLE, ("j_star",), math.nan), ["evaluate-exact"]))
    @settings(max_examples=300, deadline=None)
    def test_documented_exit(self, case):
        cfg, bundle, argv = case
        with tempfile.TemporaryDirectory() as tmp:
            argv = argv + ["--config", os.path.join(tmp, "cfg.json")]
            Path(argv[-1]).write_text(json.dumps(cfg))
            if bundle is not None:
                argv += ["--solution", os.path.join(tmp, "bundle.json")]
                Path(argv[-1]).write_text(json.dumps(bundle))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:  # argparse refused an argument
                    assert exc.code == 2
                    return
        out, err = out.getvalue(), err.getvalue()
        assert rc in (0, 1, 2, 3)
        # No silent non-finite number reaches stdout.
        assert not re.search(r"\b(nan|inf|infinity)\b", out, re.IGNORECASE)
        if rc == 0:
            assert err == ""
        # A failed validate check or stationarity certificate exits 1 with
        # its report and nothing on stderr.
        elif not (rc == 1 and argv[0] in ("validate", "evaluate-exact") and err == ""):
            assert err.count("\n") == 1 and err.endswith("\n")
            assert err.startswith(PREFIXES[rc])


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

    def test_divergent_run_exit_code(self, divergent_path, capsys):
        rc = cli.main([
            "simulate", "--config", divergent_path, "--policy", "zero",
            "--runs", "700", "--seed", "8",
        ])
        assert rc == 3
        assert capsys.readouterr().err == _first_reference_failure(divergent_config(), "zero", 8, 700)

    def test_overflowing_stage_cost_exit_code(self, divergent_path, capsys):
        # A run whose x and u stay finite while its stage cost overflows
        # (test_sim checks that this is such a run) must not reach the
        # report as mean_cost=inf.
        rc = cli.main([
            "simulate", "--config", divergent_path, "--policy", "zero",
            "--runs", "100", "--seed", "8",
        ])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == _first_reference_failure(divergent_config(), "zero", 8, 100)
        assert captured.err == "numerical error: run 3: state, action or stage cost non-finite at t=1\n"

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

    def test_dump_rolls_each_run_out_once(self, s2_path, tmp_path, monkeypatch, capsys):
        # Ten runs per chunk: 25 runs take three rollouts, which give both
        # the report and every CSV.
        assert cli.main(["simulate", "--config", s2_path, "--runs", "25", "--seed", "4"]) == 0
        report = capsys.readouterr().out
        monkeypatch.setattr(sim, "_CHUNK_BLOCKS", 40)
        real, chunks = sim._rollout, []

        def counted(spec, policy, noise, key, indices, record):
            chunks.append((list(indices), record))
            return real(spec, policy, noise, key, indices, record)

        monkeypatch.setattr(sim, "_rollout", counted)
        dump = tmp_path / "trajs"
        assert cli.main([
            "simulate", "--config", s2_path, "--runs", "25", "--seed", "4",
            "--dump-trajectories", str(dump),
        ]) == 0
        assert capsys.readouterr().out == report
        assert chunks == [(list(range(0, 10)), True), (list(range(10, 20)), True), (list(range(20, 25)), True)]
        assert sorted(p.name for p in dump.iterdir()) == [f"run_{i:06d}.csv" for i in range(25)]
        spec = model.load_problem(s2_path)
        policy = control.make_policy("optimal", spec, bundle=solver.solve_backward(spec))
        for i in (0, 9, 10, 24):
            sim.trajectory_to_csv(sim.simulate_run(spec, policy, 4, i), tmp_path / "ref.csv")
            assert (dump / f"run_{i:06d}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_dump_clears_earlier_dump(self, s2_path, tmp_path):
        # A second, smaller dump leaves only its own CSVs, and no other file.
        dump = tmp_path / "trajs"
        dump.mkdir()
        (dump / "notes.txt").write_text("keep")
        (dump / "run_1.csv").write_text("keep")
        for runs in ("5", "2"):
            assert cli.main([
                "simulate", "--config", s2_path, "--runs", runs, "--dump-trajectories", str(dump),
            ]) == 0
        assert sorted(p.name for p in dump.iterdir()) == [
            "notes.txt", "run_000000.csv", "run_000001.csv", "run_1.csv",
        ]
        assert (dump / "notes.txt").read_text() == (dump / "run_1.csv").read_text() == "keep"

    def test_unwritable_trajectory_fails_without_report(self, s2_path, tmp_path, capsys):
        # The report prints only after the last chunk's CSVs are written.
        dump, out = tmp_path / "trajs", tmp_path / "mc.csv"
        (dump / "run_000003.csv").mkdir(parents=True)
        rc = cli.main([
            "simulate", "--config", s2_path, "--runs", "6", "--out", str(out),
            "--dump-trajectories", str(dump),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: cannot write trajectories: ")
        assert not out.exists()
        assert sorted(p.name for p in dump.iterdir()) == [f"run_{i:06d}.csv" for i in range(4)]
        assert (dump / "run_000003.csv").is_dir()

    @pytest.mark.parametrize("chunk_blocks", [sim._CHUNK_BLOCKS, 16])
    def test_divergent_dump_keeps_the_runs_before_it(
        self, divergent_path, tmp_path, monkeypatch, capsys, chunk_blocks
    ):
        # Run 3 goes non-finite at seed 8; at 16 blocks a chunk holds two
        # runs, so the failing chunk still writes run 2.
        monkeypatch.setattr(sim, "_CHUNK_BLOCKS", chunk_blocks)
        dump, out = tmp_path / "trajs", tmp_path / "mc.csv"
        rc = cli.main([
            "simulate", "--config", divergent_path, "--policy", "zero", "--runs", "100",
            "--seed", "8", "--out", str(out), "--dump-trajectories", str(dump),
        ])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical error: run 3: state, action or stage cost non-finite at t=1\n"
        assert not out.exists()
        assert sorted(p.name for p in dump.iterdir()) == [f"run_{i:06d}.csv" for i in range(3)]


class TestEvaluateExact:
    def test_optimal_report(self, s2_path, capsys):
        rc = cli.main(["evaluate-exact", "--config", s2_path])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact_cost"] == pytest.approx(5.05, abs=1e-10)
        assert report["rel_diff"] < 1e-10
        assert report["stationarity"]["ok"] is True

    def test_failed_certificate_reports_and_exits_1(self, tmp_path, capsys):
        # A bundle solved at p1 = 0.1 is not optimal for the p1 = 0.5 config.
        cfg = json.loads((DATA / "exact_enum_config.json").read_text())
        assert cfg["channel"]["p1"] == 0.5
        cfg["channel"]["p1"] = 0.1
        other = tmp_path / "p01.json"
        other.write_text(json.dumps(cfg))
        bundle = tmp_path / "bundle.json"
        assert cli.main(["solve", "--config", str(other), "--out", str(bundle)]) == 0
        capsys.readouterr()
        rc = cli.main([
            "evaluate-exact", "--config", str(DATA / "exact_enum_config.json"),
            "--solution", str(bundle),
        ])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["stationarity"]["ok"] is False
        assert report["stationarity"]["max_abs_gradient"] > 1e-3

    @pytest.mark.parametrize("table, index", [
        ("K_empty", (1, 1, 2, 3)), ("K_received", (2, 0, 1, 1, 2)), ("Ktilde", (0, 1, 1, 0, 1)),
    ])
    def test_worst_entry_is_the_largest_gradient_entry(self, tmp_path, capsys, table, index):
        # A battery instance with kappa0 = kappa1 = 2 and p1 = 0.7, one gain
        # entry shifted by 0.2: the report names a table of the bundle and
        # the full index of the largest gradient entry in it.
        cfg = battery_configs()[18]
        assert cfg["modes"]["kappa1"] == 2 and cfg["channel"]["p1"] == 0.7
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        bundle = tmp_path / "bundle.json"
        assert cli.main(["solve", "--config", str(config), "--out", str(bundle)]) == 0
        doc = json.loads(bundle.read_text())
        shifted = document_table(doc, table)[index] + 0.2
        bundle.write_text(json.dumps(with_entry(doc, table, index, shifted)))
        capsys.readouterr()
        assert cli.main(["evaluate-exact", "--config", str(config), "--solution", str(bundle)]) == 1
        stat = json.loads(capsys.readouterr().out)["stationarity"]
        spec = model.load_problem(config)
        _, grads = oracle.exact_gradient(spec, control.make_policy("optimal", spec, solver.load_bundle(bundle)))
        where = stat["worst_entry"]
        assert set(where) == {"table", "index"}
        assert len(where["index"]) == getattr(grads, where["table"]).ndim
        assert abs(getattr(grads, where["table"])[tuple(where["index"])]) == stat["max_abs_gradient"]

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

    @pytest.mark.parametrize("command", [
        ["simulate", "--runs", "200"], ["validate", "--runs", "3000"],
    ])
    def test_noise_within_psd_tolerance_accepted(self, tmp_path, capsys, command):
        # -5e-11 passes the loader's PSD rule, and the simulator factors
        # covariances by the same rule.
        cfg = s2_config()
        cfg["stoch"]["covW0"] = [[-5e-11]]
        path = tmp_path / "near_psd.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(command + ["--config", str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_random_instance(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        cfg = random_config(rng, p1=0.7, T=2)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["validate", "--config", str(path), "--runs", "3000"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["all_pass"]

    def test_unbiasedness_corrected_for_many_means(self, capsys):
        # The benchmark's exact-enum instance has (T+1) d_x1 = 6 innovation
        # means. At seed 3 the largest sits at 3.15 SE: above 3, below the
        # Bonferroni critical value.
        path = DATA / "exact_enum_config.json"
        rc = cli.main(["validate", "--config", str(path), "--runs", "2000", "--seed", "3"])
        out = capsys.readouterr().out
        assert "PASS  estimator-unbiasedness: max |mean innovation|/SE = 3.15 vs 3.51" in out
        assert rc == 0

    def test_biased_estimator_fails(self, monkeypatch, capsys):
        real = sim.rollouts

        def biased(spec, policy, seed, indices, record=True):
            for batch in real(spec, policy, seed, indices, record):
                if record:
                    batch.x_hat1 = batch.x_hat1 + 0.25
                yield batch

        monkeypatch.setattr(sim, "rollouts", biased)
        path = DATA / "exact_enum_config.json"
        rc = cli.main(["validate", "--config", str(path), "--runs", "2000", "--seed", "5"])
        assert rc == 1
        assert "FAIL  estimator-unbiasedness" in capsys.readouterr().out


    @pytest.mark.parametrize("sigmas, ok", [(3.5, False), (2.9, True)])
    def test_mc_consistency_bound_is_three_se(self, s2_path, monkeypatch, capsys, sigmas, ok):
        # The Monte Carlo mean is moved to `sigmas` standard errors above J*.
        real = sim.monte_carlo

        def shifted(spec, policy, runs, seed, dump=None):
            report = real(spec, policy, runs, seed, dump)
            report.mean_cost = solver.solve_backward(spec).j_star + sigmas * report.std_err
            return report

        monkeypatch.setattr(sim, "monte_carlo", shifted)
        rc = cli.main(["validate", "--config", s2_path, "--runs", "2000"])
        out = capsys.readouterr().out
        assert rc == (0 if ok else 1)
        assert f"{'PASS' if ok else 'FAIL'}  mc-consistency: " in out
        assert out.count("FAIL") == (0 if ok else 1)

    @pytest.mark.parametrize("rel, ok", [(1e-6, False), (1e-9, True)])
    def test_oracle_identity_tolerance_is_1e_8(self, s2_path, monkeypatch, capsys, rel, ok):
        # The exact cost is moved `rel` off, relative to max(1, |cost|).
        real = oracle.exact_expected_cost

        def off(spec, policy, **kwargs):
            cost = real(spec, policy, **kwargs)
            return cost + rel * max(1.0, abs(cost))

        monkeypatch.setattr(oracle, "exact_expected_cost", off)
        rc = cli.main(["validate", "--config", s2_path, "--runs", "2000"])
        out = capsys.readouterr().out
        assert rc == (0 if ok else 1)
        assert f"{'PASS' if ok else 'FAIL'}  oracle-analytic-identity: " in out
        assert out.count("FAIL") == (0 if ok else 1)

    @pytest.mark.parametrize("means", [(0.0, 0.0), (1.0, -0.5)])
    def test_zero_family_mc_reference_is_noise_free_cost(self, tmp_path, capsys, means):
        # Zero-family runs draw no noise, while j_star keeps the stated
        # covariances: the Monte Carlo mean is checked against the exact cost
        # of the optimal gains with every covariance zeroed.
        cfg = s2_config(family="zero")
        cfg["stoch"]["init"]["mu_x0"], cfg["stoch"]["init"]["mu_x1"] = [means[0]], [means[1]]
        rc = cli.main(["validate", "--config", _config_path(tmp_path, cfg), "--runs", "2000"])
        out = capsys.readouterr().out
        assert "PASS  mc-consistency: " in out
        assert rc == 0


    def test_equal_run_costs_have_zero_standard_error(self, tmp_path, capsys):
        # Battery config 6 has kappa0 = kappa1 = 1; on the zero family no
        # run draws noise, so all 2000 run costs are bitwise equal. Their
        # standard error is 0, not the rounding left by costs - mean, and
        # mc-consistency falls back to its 1e-9 floor.
        cfg = battery_configs()[6]
        cfg["stoch"]["family"] = "zero"
        spec = model.load_config(cfg)
        report = sim.monte_carlo(spec, control.make_policy("optimal", spec, solver.solve_backward(spec)), 2000, 0)
        assert report.std_err == 0.0
        rc = cli.main(["validate", "--config", _config_path(tmp_path, cfg), "--runs", "2000"])
        assert "PASS  mc-consistency: " in capsys.readouterr().out
        assert rc == 0

    def test_psd_tables_reports_the_solved_margin(self, s2_path):
        spec = model.load_problem(s2_path)
        args = cli.build_parser().parse_args(["validate", "--config", s2_path])
        checks = {name: (ok, detail) for name, ok, detail in itertools.islice(cli._validate_checks(spec, args), 2)}
        margin = solver.solve_backward(spec).stage_min_eig.min()
        assert margin == 1.0
        assert checks["psd-tables"] == (True, "min eigenvalue 1.000e+00 over t=0..1; the t=2 tables are zero")


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

    @pytest.mark.parametrize("values", ["0.1,1.5", "0.2,nan"])
    def test_bad_value_refused_before_any_solve(self, s2_path, capsys, monkeypatch, values):
        calls = []
        real = solver.solve_backward
        monkeypatch.setattr(solver, "solve_backward", lambda spec: calls.append(spec) or real(spec))
        assert cli.main(["sweep", "--config", s2_path, "--values", values, "--runs", "5"]) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: channel.p1 ")

    def test_values_may_start_with_minus(self, s2_path, capsys):
        # -0.0 >= 0 is a valid p1; a list whose first entry starts with "-"
        # is a value, not an option.
        assert cli.main(["sweep", "--config", s2_path, "--values", "-0.0,0.5", "--runs", "5"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["-0.0", "0.5"]

    @pytest.mark.parametrize("argv", [["--values", "-0.5,0.5"], ["--values=-0.5,0.5"]])
    def test_negative_value_reaches_channel_check(self, s2_path, capsys, argv):
        assert cli.main(["sweep", "--config", s2_path, *argv, "--runs", "5"]) == 2
        assert capsys.readouterr().err == "config error: channel.p1 must be in [0, 1], got -0.5\n"

    def test_missing_values_is_still_a_usage_error(self, s2_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", s2_path, "--values", "--runs", "5"])
        assert exc.value.code == 2
        assert "argument --values: expected one argument" in capsys.readouterr().err


class TestImports:
    # numpy.random hashes its seeds through secrets and hashlib, which load
    # OpenSSL's libcrypto; the package's own Philox kernel needs none of them.
    RANDOM = ["numpy.random", "secrets", "_hashlib"]

    @pytest.mark.parametrize("command, absent", [
        (["solve"], ["ncslqr.control", "ncslqr.oracle", "ncslqr.sim", "csv", "statistics"] + RANDOM),
        (["simulate", "--runs", "5"], ["ncslqr.oracle", "csv"] + RANDOM),
        (["evaluate-exact"], ["ncslqr.sim", "csv", "statistics"] + RANDOM),
        (["validate", "--runs", "5"], ["csv"] + RANDOM),
        (["simulate", "--runs", "5", "--dump-trajectories", "{dump}"], ["ncslqr.oracle", "csv"] + RANDOM),
    ])
    def test_command_imports_only_what_it_uses(self, s2_path, tmp_path, command, absent):
        # A fresh interpreter, so that no other test's imports count. What
        # `import numpy` loads by itself is not the command's doing (numpy
        # 1.x imports numpy.random eagerly).
        src = str(Path(ncslqr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = [arg.format(dump=tmp_path / "dump") for arg in command] + ["--config", s2_path]
        code = (
            "import sys\n"
            "import numpy\n"
            "numpy_own = set(sys.modules)\n"
            "import json\n"
            "from ncslqr import cli\n"
            f"rc = cli.main({argv!r})\n"
            "print(json.dumps([rc, sorted(set(sys.modules) - numpy_own)]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        rc, modules = json.loads(out.strip().splitlines()[-1])
        assert rc == 0
        assert "ncslqr.solver" in modules
        assert not set(absent) & set(modules)
