"""The traced benchmark (perfbench/launch.py) wraps package functions by
module and attribute name; a refactor that drops or renames one would break
the traced run without any other test noticing. The README's CLI block must
name exactly the flags the parser takes, its problem configuration must
solve to the j_star of its bundle example, that example must be the
bundle save_bundle writes for it, and it quotes no measured figure. Every
function of the package must run under the CLI, but for a named few, and
the mutation gate must hold its entries and clean up after itself."""

import argparse
import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import signal
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import ncslqr
from ncslqr import cli, control, model, sim, solver
from conftest import bundle_document, divergent_config, random_config, s2_config, zero_weight_mode_config
from run_mutants import MUTANTS, SELF_TEST

ROOT = Path(__file__).resolve().parents[1]
LAUNCH = ROOT / "perfbench" / "launch.py"


def _launch_constant(name):
    """A top-level constant of launch.py, read from the source without importing it."""
    for node in ast.parse(LAUNCH.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {LAUNCH}")


def test_wrapped_functions_resolve():
    entries = _launch_constant("WRAPPED")
    assert ("sim", "simulate_run", "sim.simulate_run") in entries
    for mod_name, attr, _span in entries:
        mod = importlib.import_module(f"ncslqr.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"ncslqr.{mod_name}.{attr}"


VALIDATE_CALLS = {
    "cli.validate": 1, "model.load_problem": 1, "solver.solve_backward": 2,
    "control.centralized_solve": 1, "oracle.exact_expected_cost": 1, "sim.monte_carlo": 1,
}


@pytest.mark.parametrize("config, argv, calls", [
    pytest.param("s2", ["validate", "--runs", "200"], VALIDATE_CALLS, id="s2-validate"),
    pytest.param("exact_enum", ["validate", "--runs", "200"], VALIDATE_CALLS, id="exact_enum-validate"),
    pytest.param("s2", ["evaluate-exact"], {
        "cli.evaluate_exact": 1, "model.load_problem": 1, "solver.solve_backward": 1,
        "oracle.exact_expected_cost": 21, "oracle.stationarity_check": 1,
    }, id="s2-evaluate_exact"),
])
def test_traced_command_keeps_its_layers(tmp_path, config, argv, calls):
    # Each call of a wrapped function records one span only when it is made
    # through the attribute launch.py replaced; a name bound by `from ...
    # import` would hide the calls from the benchmark's spans. matkit's
    # counts follow the solver's block count, so they are left out.
    if config == "s2":
        path = tmp_path / "s2.json"
        path.write_text(json.dumps(s2_config()))
    else:
        path = ROOT / "tests" / "data" / "exact_enum_config.json"
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, str(LAUNCH), "--trace", str(spans), "--label", argv[0].replace("-", "_"), "--", *argv, "--config", str(path)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True, timeout=120,
    )
    trace = json.loads(spans.read_text())
    counted = Counter(trace["names"][i] for i in trace["name"])
    assert trace["exit_code"] == 0
    assert {name: n for name, n in counted.items() if not name.startswith("matkit.")} == calls


def test_monte_carlo_takes_positional_arguments():
    params = list(inspect.signature(sim.monte_carlo).parameters.values())[:4]
    assert [p.name for p in params] == ["spec", "policy", "runs", "seed"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    spec = model.load_config(s2_config())
    report = sim.monte_carlo(spec, control.make_policy("zero", spec), 3, 0)
    assert report.runs == 3


def test_save_bundle_writes_its_second_positional_argument(tmp_path):
    # launch.py counts solver.bundle_bytes as the size of args[1] once the
    # wrapped save_bundle returns.
    assert "solver.save_bundle" in _launch_constant("WORK_AFTER")
    params = list(inspect.signature(solver.save_bundle).parameters.values())
    assert [p.name for p in params] == ["bundle", "path"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    spec = model.load_config(s2_config())
    path = str(tmp_path / "bundle.json")
    solver.save_bundle(solver.solve_backward(spec), path)
    assert os.path.getsize(path) > 0


def test_trajectory_to_csv_writes_its_second_positional_argument(tmp_path):
    # launch.py counts sim.csv_bytes as the size of args[1] once the
    # wrapped trajectory_to_csv returns.
    assert "sim.trajectory_to_csv" in _launch_constant("WORK_AFTER")
    params = list(inspect.signature(sim.trajectory_to_csv).parameters.values())
    assert [p.name for p in params] == ["traj", "path"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    spec = model.load_config(s2_config())
    path = str(tmp_path / "run.csv")
    sim.trajectory_to_csv(sim.simulate_run(spec, control.make_policy("zero", spec), 0, 0), path)
    assert os.path.getsize(path) > 0


def test_evaluate_exact_meets_the_benchmark_check(capsys):
    # perfbench/run.py's check_exact accepts an evaluate-exact report only
    # when it matches j_star to 1e-8 and certifies stationarity.
    path = Path(__file__).resolve().parent / "data" / "exact_enum_config.json"
    assert cli.main(["evaluate-exact", "--config", str(path), "--policy", "optimal"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert isinstance(report["rel_diff"], float) and report["rel_diff"] <= 1e-8
    assert report["stationarity"]["ok"] is True


def test_saved_bundle_meets_the_benchmark_check(tmp_path, capsys, monkeypatch):
    # perfbench/run.py's check_solve reads the bundle that `solve --out`
    # wrote with json.load and compares its j_star, as "%.12g", with the
    # first stdout line; a bundle format it cannot read fails every
    # benchmark workload.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    config = Path(__file__).resolve().parent / "data" / "exact_enum_config.json"
    bundle = tmp_path / "bundle.json"
    assert cli.main(["solve", "--config", str(config), "--out", str(bundle)]) == 0
    out = capsys.readouterr().out
    assert run.check_solve(out, types.SimpleNamespace(bundle=str(bundle))) is not None


def _readme_cli_flags():
    """{subcommand: set of --flags} from the README's CLI code block."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## CLI$.*?^```sh\n(.*?)^```$", text, re.S | re.M).group(1)
    flags, command = {}, None
    for line in block.splitlines():
        if line.startswith("ncslqr "):
            command = line.split()[1]
            flags[command] = set()
        flags[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def test_readme_cli_block_names_every_flag():
    # -h/--help is argparse's own.
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {s for a in p._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
        for name, p in sub.choices.items()
    }
    assert _readme_cli_flags() == options
    readme = (ROOT / "README.md").read_text()
    for action in parser._actions:
        for option in set(action.option_strings) - {"-h", "--help"}:
            assert f"`{option}`" in readme, option


def test_readme_problem_config_solves_to_its_bundle_j_star():
    # The "Problem configuration" example is the S2 hand instance, the one
    # whose bundle the README shows.
    text = (ROOT / "README.md").read_text()
    example = re.search(r"^## Problem configuration$.*?^```json\n(.*?)^```$", text, re.S | re.M).group(1)
    shown = re.search(r'^ "j_star": (.*),$', text, re.M).group(1)
    assert shown == "5.05"
    assert solver.solve_backward(model.load_config(json.loads(example))).j_star == float(shown)


def test_readme_bundle_example_is_what_save_bundle_writes():
    # The S2 hand instance's bundle, but for the numpy version that solved
    # it, which depends on the installation.
    text = (ROOT / "README.md").read_text()
    (block,) = [b for b in re.findall(r"^```json\n(.*?)^```$", text, re.S | re.M) if '"format"' in b]
    shown = json.loads(block)
    written = bundle_document(solver.solve_backward(model.load_config(s2_config())))
    for doc in (shown, written):
        del doc["solve_metadata"]["numpy_version"]
    assert shown == written


def test_readme_quotes_no_measured_figure():
    # A time or a size measured on one machine goes stale with the next
    # change; the benchmark's results hold them.
    readme = (ROOT / "README.md").read_text()
    figure = r"(?<![\w.])\d+(?:[.,]\d+)*\s?(?:ms|µs|s|kB|MB|GB)\b"
    assert re.findall(figure, readme) == []


def test_runtime_imports_are_stdlib_or_numpy():
    # numpy is the only declared runtime dependency.
    allowed = set(sys.stdlib_module_names) | {"numpy", "ncslqr"}
    for path in sorted(Path(ncslqr.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            assert set(roots) <= allowed, f"{path.name} imports {roots}"


def test_mutant_snippets_occur_once():
    # tests/run_mutants.py applies each entry of tests/mutants.json to a
    # copy of the checkout; a snippet that no longer occurs exactly once in
    # its file would leave that mutant untested.
    mutants = json.loads((ROOT / "tests" / "mutants.json").read_text())
    assert mutants
    for mutant in mutants:
        assert set(mutant) == {"file", "find", "replace", "reason", "killed_by"}
        assert mutant["replace"] != mutant["find"]
        assert (ROOT / mutant["file"]).read_text().count(mutant["find"]) == 1, mutant


def test_terminated_mutation_gate_removes_its_copy(tmp_path):
    # run_mutants.main installs this handler before it copies the checkout;
    # a SIGTERM then unwinds the TemporaryDirectory that holds the copy.
    child = f"""
import os, signal, sys, tempfile, time
sys.path.insert(0, {str(ROOT / "tests")!r})
import run_mutants
run_mutants.exit_on_sigterm()
with tempfile.TemporaryDirectory(dir={str(tmp_path)!r}):
    os.kill(os.getpid(), signal.SIGTERM)
    time.sleep(60)
"""
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, timeout=60)
    assert done.returncode == 128 + signal.SIGTERM, done.stderr
    assert list(tmp_path.iterdir()) == []


def test_mutant_killers_are_tier1_tests():
    # tests/run_mutants.py counts a failure of an entry's killed_by tests as
    # its kill. An id that Tier-1 does not collect would send that entry to
    # the full run at every gate, and the snippet check, which every mutant
    # fails, would count as a kill for every entry.
    mutants = json.loads(MUTANTS.read_text())
    killers = {node for mutant in mutants for node in mutant["killed_by"]}
    assert all(mutant["killed_by"] for mutant in mutants)
    assert SELF_TEST not in killers
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    collected = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    ).stdout.splitlines()
    assert killers <= set(collected), sorted(killers - set(collected))


# Functions of src/ncslqr that no CLI command calls, each with its reason.
NOT_CALLED_BY_THE_CLI = {
    "model.assemble_system": "documented library entry point",
    "control.compute_prescription": "perfbench/launch.py wraps it; otherwise only the tests call it",
    "oracle.build_closed_loop": "perfbench/launch.py wraps it; otherwise only a test calls it",
    "sim.simulate_run": "perfbench/launch.py wraps it; otherwise only the tests call it",
}

# Installs the profile before ncslqr.cli is imported, so that functions
# called at import count; runs cli.main on each argv of argv[1], a JSON
# list; prints the exit codes and the (file name, first line) of every
# package function that ran.
_PROFILED_CLI = """
import contextlib, io, json, os, sys
called = set()
def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)
sys.setprofile(profile)
from ncslqr import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
package = os.path.dirname(os.path.realpath(cli.__file__))
ran = sorted({(os.path.basename(c.co_filename), c.co_firstlineno) for c in called
              if os.path.dirname(os.path.realpath(c.co_filename)) == package})
print(json.dumps({"package": package, "codes": codes, "ran": ran}))
"""


def _defs(path):
    """{(first line, qualified name)} of every def in a module: its first
    line is that of its first decorator, as the code object's is."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.add((first, prefix + child.name))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def test_every_function_runs_under_the_cli(tmp_path):
    # "No dead helpers": every command, policy and output option, on configs
    # that reach each branch of the solver and the simulator, and one bad
    # input per row of cli.ERRORS and per argparse refusal, together run
    # every def in the package but those NOT_CALLED_BY_THE_CLI names.
    def config(name, cfg):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    s2 = config("s2", s2_config())
    lossy = config("lossy", random_config(np.random.default_rng(3), p1=0.5, kappa1=2, T=1, kappa0=2))
    indefinite = s2_config()
    indefinite["stoch"]["covW0"] = [[-1.0]]
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{")
    bundle = str(tmp_path / "bundle.json")
    matrix = [
        (["solve", "--config", lossy, "--out", bundle], 0),
        (["simulate", "--config", lossy, "--solution", bundle, "--runs", "3", "--out", str(tmp_path / "mc.csv"),
          "--dump-trajectories", str(tmp_path / "dump")], 0),
        *((["simulate", "--config", s2, "--policy", kind, "--runs", "2"], 0) for kind in ("zero", "ce", "centralized")),
        (["evaluate-exact", "--config", lossy, "--solution", bundle, "--out", str(tmp_path / "exact.json")], 0),
        *((["evaluate-exact", "--config", s2, "--policy", kind], 0) for kind in ("zero", "ce", "centralized")),
        (["validate", "--config", s2, "--runs", "2"], 0),
        (["validate", "--config", config("zero", s2_config(family="zero")), "--runs", "2"], 0),
        (["validate", "--config", config("p1", s2_config(p1=1.0)), "--runs", "2"], 0),
        (["sweep", "--config", s2, "--values", "0.5,1.0,0.5", "--runs", "2", "--out", str(tmp_path / "sweep.csv")], 0),
        (["simulate", "--config", s2, "--solution", str(corrupt)], 2),
        (["solve", "--config", str(corrupt)], 2),
        (["solve", "--config", config("singular", zero_weight_mode_config())], 3),
        (["solve", "--config", config("indefinite", indefinite)], 3),
        (["simulate", "--config", config("divergent", divergent_config()), "--runs", "200"], 3),
        (["solve", "--config", s2, "--out", str(tmp_path / "missing" / "bundle.json")], 1),
        (["simulate", "--config", s2, "--runs", "0"], 2),
        (["sweep", "--config", s2, "--values", "x"], 2),
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = json.loads(subprocess.run(
        [sys.executable, "-c", _PROFILED_CLI, json.dumps([argv for argv, _ in matrix])],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout)
    assert result["codes"] == [code for _, code in matrix]
    ran = {tuple(entry) for entry in result["ran"]}
    not_run = {
        f"{path.stem}.{name}"
        for path in sorted(Path(result["package"]).glob("*.py"))
        for first, name in _defs(path)
        if (path.name, first) not in ran
    }
    assert not_run == set(NOT_CALLED_BY_THE_CLI)
