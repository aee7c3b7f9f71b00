"""The traced benchmark (perfbench/launch.py) wraps package functions by
module and attribute name; a refactor that drops or renames one would break
the traced run without any other test noticing. The README's CLI block must
name exactly the flags the parser takes."""

import argparse
import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import ncslqr
from ncslqr import cli, control, model, sim, solver
from conftest import s2_config
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
    # -h/--help is argparse's own; the global --threads is documented in prose.
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
