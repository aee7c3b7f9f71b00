"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = [1, 1, 2, 1, 1, 1, 1, 0.5]


def test_generator_is_deterministic():
    from ncslqr import model

    a = gen.config_bytes(TINY, [7, 3])
    assert a == gen.config_bytes(TINY, [7, 3])
    assert a != gen.config_bytes(TINY, [8, 3])
    spec = model.load_config(json.loads(a))
    assert (spec.T, spec.modes.kappa0, spec.modes.kappa1) == (1, 1, 2)


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER
    defined = json.loads((HERE / "workloads.json").read_text())["workloads"]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: d["why"] for name, d in defined.items()
    }


def test_layer_map_covers_every_layer_metric():
    layer_map = json.loads((HERE / "workloads.json").read_text())["layer_map"]
    mapped = [name for entry in layer_map for name in entry["metrics"]]
    assert sorted(mapped) == sorted(name for name, _ in run.PER_LAYER if name != "trace.overhead_ratio")


def test_self_times_partition_a_span_tree():
    trace = {
        "names": ["cli.x", "a.f", "b.g"],
        "name": [0, 1, 2, 1],
        "parent": [-1, 0, 1, 0],
        "start": [0.0, 1.0, 2.0, 5.0],
        "end": [10.0, 4.0, 3.0, 6.0],
        "error": [0, 1, 1, 0],
        "work": [0.0, 0.0, 0.0, 0.0],
        "exit_code": 0,
    }
    assert spans.self_times(trace) == [6.0, 2.0, 1.0, 1.0]
    summary, errors = spans.summarize(trace)
    assert summary["a.f"]["calls"] == 2 and summary["a.f"]["s"] == 4.0
    # b.g's error left layer b into a.f, and a.f's left layer a into cli.x.
    assert errors == {"a": 1, "b": 1}


@pytest.fixture
def workload(tmp_path):
    definition = {
        "shape": TINY,
        "stream": 9,
        "commands": [{"label": "solve", "argv": ["solve", "--config", "{config}", "--out", "{bundle}"]}],
    }
    return run.Workload(definition, 5, tmp_path)


def test_traced_self_times_add_up_to_the_command_span(workload):
    runner = run.Runner(workload.workdir)
    result = run.run_pass(runner, workload, traced=True, first_id=0)
    assert [e.rc for e in result.executions] == [0]
    path = workload.workdir / "kept.json"
    rc, _, _ = runner.child(["--trace", str(path), "--label", "solve", "--"]
                            + workload.argv(workload.commands[0][1]))
    assert rc == 0
    trace = spans.load(path)
    roots = [i for i, p in enumerate(trace["parent"]) if p == -1]
    assert [trace["names"][trace["name"][i]] for i in roots] == ["cli.solve"]
    command = trace["end"][roots[0]] - trace["start"][roots[0]]
    assert sum(spans.self_times(trace)) == pytest.approx(command, rel=1e-9, abs=1e-12)
    summary, errors = result.traces[0]
    assert summary["solver.solve_backward"]["calls"] == 1
    assert summary["solver.solve_backward"]["work"] == 2 * 1 * 5  # (T+1) k0 (2 k1 + 1)
    assert errors == {}


def test_malformed_config_is_one_failed_operation(workload):
    workload.config.write_text('{"dims": {"d_x0": 1}}')
    runner = run.Runner(workload.workdir)
    result = run.run_pass(runner, workload, traced=True, first_id=0)
    assert [e.rc for e in result.executions] == [2]
    run.judge(runner, workload, [result])
    assert (runner.attempted, runner.failed) == (1, 1)
    _, errors = result.traces[0]
    assert errors == {"model": 1, "cli": 1}
