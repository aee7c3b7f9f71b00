"""The traced benchmark (perfbench/launch.py) wraps package functions by
module and attribute name; a refactor that drops or renames one would break
the traced run without any other test noticing."""

import ast
import importlib
import inspect
from pathlib import Path

from ncslqr import control, model, sim
from conftest import s2_config

LAUNCH = Path(__file__).resolve().parents[1] / "perfbench" / "launch.py"


def _wrapped():
    """launch.WRAPPED, read from the source without importing it."""
    for node in ast.parse(LAUNCH.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "WRAPPED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED list in {LAUNCH}")


def test_wrapped_functions_resolve():
    entries = _wrapped()
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
