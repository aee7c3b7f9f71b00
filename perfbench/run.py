"""End-to-end benchmark of the ncslqr CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``. The workload's problem config is generated from ``--seed``
(``gen.py``), then the workload's commands (``workloads.json``) run as one
closed loop with a single client: each command in a fresh child interpreter
(``launch.py``) with BLAS pinned to one thread, one after another, pass
after pass, for about ``--seconds``. Each pass also times
set-up (a child that imports the package and loads the config) so set-up
samples are spread over the run. Every command's output is checked; a
command that exits non-zero or fails a check counts as failed. Reported
times are medians over the run's samples; the samples themselves are in
the record line.

With ``--trace 0`` the end-to-end metrics are reported. With ``--trace 1``
untraced and traced passes alternate and the per-layer metrics come from the
traced passes' spans; no layer queues or waits, since everything runs on one
thread, so no wait time is reported.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment. Scratch files live under ``.bench_build/`` and are removed on
exit.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import gen  # noqa: E402
import spans  # noqa: E402

COMMAND_TIMEOUT_S = 150
# The acceptance battery's Monte Carlo tolerance, in standard errors.
MC_SIGMAS = 3.0
# Seed offset of the independent Monte Carlo stream that must repeat a
# statistical failure before it counts (see check_statistical).
CONFIRM_SEED_OFFSET = 1_000_003
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
]

COMMAND_LABELS = ["solve", "simulate", "dump", "evaluate_exact", "validate"]
LAYERS = ["model", "matkit", "solver", "control", "sim", "oracle", "cli"]

# (metric, unit, span name, field); field is calls, s (inclusive seconds)
# or work (the units WORK_BEFORE/WORK_AFTER in launch.py record per call).
SPAN_METRICS = [
    ("model.load_problem.s", "s", "model.load_problem", "s"),
    ("model.load_problem.calls", "count", "model.load_problem", "calls"),
    ("model.assemble_system.calls", "count", "model.assemble_system", "calls"),
    ("matkit.min_eig.calls", "count", "matkit.min_eig", "calls"),
    ("matkit.min_eig.s", "s", "matkit.min_eig", "s"),
    ("matkit.schur_complement.calls", "count", "matkit.schur_complement", "calls"),
    ("matkit.solve_pd.calls", "count", "matkit.solve_pd", "calls"),
    ("solver.solve_backward.s", "s", "solver.solve_backward", "s"),
    ("solver.blocks", "count", "solver.solve_backward", "work"),
    ("solver.save_bundle.s", "s", "solver.save_bundle", "s"),
    ("solver.bundle_bytes", "B", "solver.save_bundle", "work"),
    ("solver.load_bundle.s", "s", "solver.load_bundle", "s"),
    ("control.compute_prescription.calls", "count", "control.compute_prescription", "calls"),
    ("control.act.s", "s", "control.act", "s"),
    ("control.update_estimate.s", "s", "control.update_estimate", "s"),
    ("control.centralized_solve.s", "s", "control.centralized_solve", "s"),
    ("sim.monte_carlo.s", "s", "sim.monte_carlo", "s"),
    ("sim.run_steps", "count", "sim.monte_carlo", "work"),
    ("sim.simulate_run.calls", "count", "sim.simulate_run", "calls"),
    ("sim.simulate_run.s", "s", "sim.simulate_run", "s"),
    ("sim.trajectory_to_csv.s", "s", "sim.trajectory_to_csv", "s"),
    ("sim.csv_bytes", "B", "sim.trajectory_to_csv", "work"),
    ("oracle.exact_expected_cost.calls", "count", "oracle.exact_expected_cost", "calls"),
    ("oracle.exact_expected_cost.s", "s", "oracle.exact_expected_cost", "s"),
    ("oracle.sequences", "count", "oracle.exact_expected_cost", "work"),
    ("oracle.build_closed_loop.calls", "count", "oracle.build_closed_loop", "calls"),
    ("oracle.stationarity_check.s", "s", "oracle.stationarity_check", "s"),
]
SPAN_METRICS += [(f"cli.{c}.self_s", "s", f"cli.{c}", "self_s") for c in COMMAND_LABELS]

# (metric, numerator, denominator): microseconds per unit of work.
RATE_METRICS = [
    ("solver.us_per_block", "solver.solve_backward.s", "solver.blocks"),
    ("sim.us_per_run_step", "sim.monte_carlo.s", "sim.run_steps"),
    ("oracle.us_per_sequence", "oracle.exact_expected_cost.s", "oracle.sequences"),
]

PER_LAYER = (
    [(name, unit) for name, unit, _, _ in SPAN_METRICS]
    + [(name, "us") for name, _, _ in RATE_METRICS]
    + [(f"{lay}.errors", "count") for lay in LAYERS]
    + [("trace.overhead_ratio", "ratio")]
)


class Workload:
    """One workload's generated inputs, scratch paths and command lines."""

    def __init__(self, definition, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.shape = definition["shape"]
        self.config = workdir / "config.json"
        self.bundle = workdir / "bundle.json"
        self.dump = workdir / "dump"
        self.config.write_bytes(gen.config_bytes(self.shape, [seed, definition["stream"]]))
        self.commands = [(c["label"], c["argv"], c.get("repeat", 1)) for c in definition["commands"]]

    def argv(self, template, seed=None):
        fill = {
            "config": str(self.config),
            "bundle": str(self.bundle),
            "dump": str(self.dump),
            "seed": str(self.seed if seed is None else seed),
        }
        return [a.format(**fill) for a in template]


class Runner:
    """Starts child interpreters and counts attempted and failed operations."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        env = {k: v for k, v in os.environ.items() if k != "NCSLQR_THREADS"}
        env.update(BLAS_PIN)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def child(self, args):
        """Run launch.py with ``args``; returns (exit code, stdout, wall seconds)."""
        cmd = [sys.executable, str(HERE / "launch.py")] + args
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.workdir, env=self.env, capture_output=True, text=True,
                timeout=COMMAND_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, "", time.perf_counter() - t0
        wall = time.perf_counter() - t0
        if proc.returncode != 0 and proc.stderr:
            self.problems.append(proc.stderr.strip().splitlines()[-1])
        return proc.returncode, proc.stdout, wall

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"failed: {what}")


# --- output checks ------------------------------------------------------------


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_solve(out, wl):
    """j_star is finite and equals the bundle's value; returns j_star or None."""
    lines = out.splitlines()
    if not lines or not lines[0].startswith("j_star = "):
        return None
    text = lines[0][len("j_star = "):]
    if not _finite(text):
        return None
    try:
        with open(wl.bundle) as fh:
            saved = f"{json.load(fh)['j_star']:.12g}"
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return float(text) if saved == text else None


def mc_row(out):
    """(runs, mean, std_err) from simulate's two-line report."""
    lines = out.splitlines()
    if len(lines) < 2 or lines[0] != "policy,runs,seed,mean_cost,std_err":
        return None
    fields = lines[1].split(",")
    if len(fields) != 5 or not all(_finite(f) for f in fields[1:]):
        return None
    return int(float(fields[1])), float(fields[3]), float(fields[4])


def within_sigmas(out, j_star):
    row = mc_row(out)
    return row is not None and abs(row[1] - j_star) <= MC_SIGMAS * row[2]


def json_object(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return {}
    return obj if isinstance(obj, dict) else {}


def check_exact(out):
    """evaluate-exact matches j_star to 1e-8 and certifies stationarity."""
    report = json_object(out)
    stationarity = report.get("stationarity")
    return (
        isinstance(report.get("rel_diff"), (int, float)) and report["rel_diff"] <= 1e-8
        and isinstance(stationarity, dict) and stationarity.get("ok") is True
    )


STATISTICAL_CHECKS = {"mc-consistency", "estimator-unbiasedness"}


def validate_verdict(rc, out):
    """'pass', 'statistical' (only the Monte Carlo checks failed) or 'fail'."""
    lines = out.strip().splitlines()
    summary = json_object(lines[-1]) if lines else {}
    if rc == 0 and summary.get("all_pass") is True:
        return "pass"
    checks = summary.get("checks", [])
    failing = {c.get("check") for c in checks if isinstance(c, dict) and c.get("ok") is not True}
    return "statistical" if rc == 1 and failing and failing <= STATISTICAL_CHECKS else "fail"


# --- passes -------------------------------------------------------------------


class Execution:
    """One command run: its exit code, stdout and wall seconds."""

    def __init__(self, label, rc, out, wall):
        self.label = label
        self.rc = rc
        self.out = out
        self.wall = wall
        self.dump_files = None


class Pass:
    def __init__(self):
        self.executions = []
        self.traces = []

    @property
    def wall(self):
        """Seconds the pass's CLI commands took, child start to exit."""
        return sum(e.wall for e in self.executions if e.label != "setup")

    def walls(self, label):
        return [e.wall for e in self.executions if e.label == label]


def run_pass(runner, wl, traced, first_id):
    """One pass over the workload's commands; returns a Pass."""
    result = Pass()
    for label, template, repeat in wl.commands:
        if label == "setup":
            # Set-up samples are spread over the run, not taken in one burst,
            # so that they see the same machine conditions as the commands.
            if not traced:
                for _ in range(repeat):
                    result.executions.append(
                        Execution(label, *runner.child(["--setup", str(wl.config)])))
            continue
        for _ in range(repeat):
            if label == "dump":
                shutil.rmtree(wl.dump, ignore_errors=True)
            args = []
            if traced:
                command_id = first_id + len(result.executions)
                trace_path = wl.workdir / f"spans_{command_id}.json"
                args = ["--trace", str(trace_path), "--label", label, "--command-id", str(command_id)]
            run = Execution(label, *runner.child(args + ["--"] + wl.argv(template)))
            if label == "dump":
                run.dump_files = len(list(wl.dump.glob("run_*.csv"))) if wl.dump.is_dir() else 0
            result.executions.append(run)
            if traced:
                if trace_path.exists():
                    result.traces.append(spans.summarize(spans.load(trace_path)))
                    trace_path.unlink()
                else:
                    runner.problems.append(f"no spans written for {label}")
    return result


def check_statistical(runner, wl, label, template, j_star):
    """Repeat a failed 3-SE check on an independent Monte Carlo stream.

    A correct program fails a 3-SE test on a few percent of seeds; a real
    bias fails it on both streams. Returns True when the failure repeats.
    """
    rc, out, _ = runner.child(["--"] + wl.argv(template, seed=wl.seed + CONFIRM_SEED_OFFSET))
    if label == "validate":
        return validate_verdict(rc, out) != "pass"
    return rc != 0 or not within_sigmas(out, j_star)


def judge(runner, wl, passes):
    """Check every command of every pass; counts each as attempted/failed.

    The first pass's output of each command is checked in full; every other
    execution must reproduce it byte for byte.
    """
    reference = {}
    for run in passes[0].executions:
        reference.setdefault(run.label, run)
    verdict = {}
    j_star = None
    for label, template, _ in wl.commands:
        rc, out = reference[label].rc, reference[label].out
        if label == "setup":
            ok = rc == 0
        elif label == "solve":
            j_star = check_solve(out, wl) if rc == 0 else None
            ok = j_star is not None
        elif label in ("simulate", "dump"):
            ok = rc == 0 and mc_row(out) is not None and j_star is not None
            if ok and not within_sigmas(out, j_star):
                ok = not check_statistical(runner, wl, label, template, j_star)
                runner.problems.append(f"{label}: 3-SE check failed once, confirmed={not ok}")
        elif label == "evaluate_exact":
            ok = rc == 0 and check_exact(out)
        elif label == "validate":
            state = validate_verdict(rc, out)
            ok = state == "pass"
            if state == "statistical":
                ok = not check_statistical(runner, wl, label, template, j_star)
                runner.problems.append(f"validate: 3-SE check failed once, confirmed={not ok}")
        else:
            raise ValueError(f"unknown command label {label!r}")
        verdict[label] = ok
    dump_runs = next((int(t[t.index("--runs") + 1]) for label, t, _ in wl.commands if label == "dump"), None)
    for i, p in enumerate(passes):
        for run in p.executions:
            ref = reference[run.label]
            ok = verdict[run.label] and run.rc == ref.rc and run.out == ref.out
            if run.label == "dump":
                ok = ok and run.dump_files == dump_runs
            runner.record(ok, f"pass {i} {run.label}")


# --- metrics ------------------------------------------------------------------


def median(values):
    return float(statistics.median(values))


def end_to_end(runner, passes):
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": median([w for p in passes for w in p.walls("setup")]),
        "solve_s": median([w for p in passes for w in p.walls("solve")]),
        "pass_s": median([p.wall for p in passes]),
        "peak_rss_mb": peak_kb / 1024.0,
        "success_rate": (runner.attempted - runner.failed) / runner.attempted,
    }


def per_layer(runner, traced, untraced):
    merged = [spans.merge(p.traces) for p in traced]
    out = {}
    for name, _, span, field in SPAN_METRICS:
        values = [m[0].get(span, {}).get(field, 0) for m in merged]
        if field in ("calls", "work"):
            if len(set(values)) != 1:
                runner.record(False, f"{name} differs between traced passes: {values}")
            out[name] = values[0]
        else:
            out[name] = median(values)
    for name, num, den in RATE_METRICS:
        out[name] = 1e6 * out[num] / out[den] if out[den] else 0.0
    for lay in LAYERS:
        values = [m[1].get(lay, 0) for m in merged]
        out[f"{lay}.errors"] = max(values)
    out["trace.overhead_ratio"] = median([p.wall for p in traced]) / median([p.wall for p in untraced])
    return out


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_PIN,
        "commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


# --- main ---------------------------------------------------------------------


def measure(wl, seconds, trace):
    runner = Runner(wl.workdir)
    # Passes (untraced, or untraced + traced pairs) run until the next one
    # would overshoot --seconds by more than half its length.
    untraced, traced = [], []
    t0 = time.perf_counter()
    while True:
        untraced.append(run_pass(runner, wl, False, 0))
        if trace:
            traced.append(run_pass(runner, wl, True, sum(len(p.executions) for p in traced)))
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(untraced) >= seconds:
            break
    judge(runner, wl, untraced + traced)

    if trace:
        metrics = per_layer(runner, traced, untraced)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(runner, untraced)
        units = dict(END_TO_END)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    samples = {
        "setup_s": [w for p in untraced for w in p.walls("setup")],
        "solve_s": [w for p in untraced for w in p.walls("solve")],
        "pass_s": [p.wall for p in untraced],
    }
    if trace:
        samples["traced_pass_s"] = [p.wall for p in traced]
    return result, runner.problems, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark the ncslqr CLI end to end.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    catalogue = json.loads((HERE / "workloads.json").read_text())
    definitions = catalogue["workloads"]
    if args.workload not in definitions:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(definitions)}")
    if not (ROOT / "src" / "ncslqr" / "cli.py").is_file():
        print(f"error: no ncslqr source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind normally: subprocess.run kills and reaps the running
    # child, and the scratch directory is removed below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".bench_build" / f"perfbench-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = Workload(definitions[args.workload], args.seed, workdir)
        result, problems, samples = measure(wl, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in problems:
        print(f"note: {line}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "shape": dict(zip(catalogue["shape_fields"], wl.shape)),
        "load": "closed loop, one client, one command at a time",
        "samples": samples,
        "environment": environment(),
    }
    if args.trace:
        record["waits"] = "not reported: every layer runs on one thread and nothing queues"
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
