"""Child-process entry point: run one ncslqr command, optionally traced.

Usage (from the checkout root, with ``src`` on PYTHONPATH):

    python3 perfbench/launch.py --setup CONFIG
    python3 perfbench/launch.py [--trace SPANS.json --label NAME --command-id N] -- ARGV...

``--setup`` imports the package and loads CONFIG, nothing else. Otherwise
the child calls ``ncslqr.cli.main(ARGV)`` and exits with its return code.
With ``--trace`` the public functions of every layer are wrapped before
``main`` runs; each call records a span (name, start, end, parent) in
memory, and the spans are written to SPANS.json once the command ends.
"""

import argparse
import functools
import json
import os
import sys
import time
from array import array

# (module, attribute, span name). assemble_system is imported by name into
# each consumer, so it is wrapped at every importer under one span name.
WRAPPED = [
    ("model", "load_problem", "model.load_problem"),
    ("sim", "assemble_system", "model.assemble_system"),
    ("solver", "assemble_system", "model.assemble_system"),
    ("control", "assemble_system", "model.assemble_system"),
    ("oracle", "assemble_system", "model.assemble_system"),
    ("matkit", "min_eig", "matkit.min_eig"),
    ("matkit", "schur_complement", "matkit.schur_complement"),
    ("matkit", "solve_pd", "matkit.solve_pd"),
    ("solver", "solve_backward", "solver.solve_backward"),
    ("solver", "save_bundle", "solver.save_bundle"),
    ("solver", "load_bundle", "solver.load_bundle"),
    ("control", "compute_prescription", "control.compute_prescription"),
    ("control", "centralized_solve", "control.centralized_solve"),
    ("sim", "monte_carlo", "sim.monte_carlo"),
    ("sim", "simulate_run", "sim.simulate_run"),
    ("sim", "trajectory_to_csv", "sim.trajectory_to_csv"),
    ("oracle", "exact_expected_cost", "oracle.exact_expected_cost"),
    ("oracle", "build_closed_loop", "oracle.build_closed_loop"),
    ("oracle", "stationarity_check", "oracle.stationarity_check"),
]

# Policy methods the simulator calls on every step, wrapped on each class
# that defines them.
POLICY_METHODS = [("act", "control.act"), ("update_estimate", "control.update_estimate")]


def _blocks(spec, *_):
    m = spec.modes
    return (spec.T + 1) * m.kappa0 * (2 * m.kappa1 + 1)


def _run_steps(spec, _policy, runs, *_):
    return runs * (spec.T + 1)


def _sequences(spec, *_):
    return (2 * spec.modes.kappa0 * spec.modes.kappa1) ** (spec.T + 1)


# Work one call performs, computed from its positional arguments.
WORK_BEFORE = {
    "solver.solve_backward": _blocks,
    "sim.monte_carlo": _run_steps,
    "oracle.exact_expected_cost": _sequences,
}
# Calls whose work is the size of the file named by their second argument.
WORK_AFTER = {"solver.save_bundle", "sim.trajectory_to_csv"}


class Tracer:
    """Span recorder; spans live in flat arrays until ``dump``."""

    def __init__(self, error_type):
        self.error_type = error_type
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.work = array("d")
        self._stack = []

    def _id(self, span_name):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        return self._ids[span_name]

    def wrap(self, span_name, fn):
        nid = self._id(span_name)
        clock = time.perf_counter
        before = WORK_BEFORE.get(span_name)
        after = span_name in WORK_AFTER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.work.append(float(before(*args)) if before else 0.0)
            self.error.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except self.error_type:
                self.error[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if after:
                self.work[idx] = float(os.path.getsize(args[1]))
            return result

        return traced

    def dump(self, path, command_id, exit_code):
        with open(path, "w") as fh:
            json.dump(
                {
                    "command_id": command_id,
                    "exit_code": exit_code,
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "error": self.error.tolist(),
                    "work": self.work.tolist(),
                },
                fh,
            )


def install(tracer):
    """Wrap every layer's public functions in place."""
    import importlib

    for mod_name, attr, span_name in WRAPPED:
        mod = importlib.import_module(f"ncslqr.{mod_name}")
        setattr(mod, attr, tracer.wrap(span_name, getattr(mod, attr)))
    from ncslqr import control

    for cls in vars(control).values():
        if isinstance(cls, type) and cls.__module__ == control.__name__:
            for attr, span_name in POLICY_METHODS:
                if attr in vars(cls):
                    setattr(cls, attr, tracer.wrap(span_name, vars(cls)[attr]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup", metavar="CONFIG")
    parser.add_argument("--trace", metavar="SPANS")
    parser.add_argument("--label", default="command")
    parser.add_argument("--command-id", type=int, default=0)
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args(argv)

    if args.setup:
        from ncslqr import model

        model.load_problem(args.setup)
        return 0

    from ncslqr import cli
    from ncslqr.errors import NcslqrError

    if not args.trace:
        return cli.main(args.argv)
    tracer = Tracer(NcslqrError)
    install(tracer)
    root = tracer.wrap(f"cli.{args.label}", cli.main)
    rc = 1
    try:
        rc = root(args.argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(args.trace, args.command_id, rc)
    return rc


if __name__ == "__main__":
    sys.exit(main())
