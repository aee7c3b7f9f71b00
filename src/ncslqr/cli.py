"""Command-line front end.

Subcommands: solve, simulate, evaluate-exact, validate, sweep.
Commands let package errors rise to `main`, which prints one stderr line
`<prefix>: <message>` and exits by the first matching row of ERRORS:
`solution error` 2 (an unreadable or ill-fitting --solution bundle),
`config error` 2 (ParseError, ShapeError, ProbabilityError), `numerical
error` 3 (SingularBlockError, DefinitenessError, NonFiniteError) and `error`
1 (any other NcslqrError). A bad argument exits 2 through argparse; a failed
validate check or stationarity certificate exits 1 after its report. A
stdout closed by its reader exits 1 with nothing on stderr.
"""

import argparse
import dataclasses
import json
import os
import sys

# Each command imports the rest of what it uses (control, sim, oracle, and
# csv for an --out table) itself, so that `solve` starts without them.
from . import model, solver
from .errors import (
    DefinitenessError,
    NcslqrError,
    NonFiniteError,
    OutputError,
    ParseError,
    ProbabilityError,
    ShapeError,
    SingularBlockError,
)

EXIT_OK = 0
EXIT_OTHER = 1


class SolutionError(NcslqrError):
    """A --solution bundle that cannot be read or does not fit the problem."""


# (error types, stderr prefix, exit code); `main` uses the first matching row.
ERRORS = (
    (SolutionError, "solution error", 2),
    ((ParseError, ShapeError, ProbabilityError), "config error", 2),
    ((SingularBlockError, DefinitenessError, NonFiniteError), "numerical error", 3),
    (NcslqrError, "error", 1),
)


def _int_at_least(low, what):
    """argparse type: an integer >= `low`, described as `what` when refused."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive integer")
_nonnegative_int = _int_at_least(0, "a non-negative integer")
# validate's Monte Carlo checks need a standard error, so at least two runs.
_two_or_more_int = _int_at_least(2, "an integer >= 2")


def _float_list(text):
    """argparse type: comma-separated numbers."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """argparse takes a token that starts with `-` for a value only when it
    is one plain negative number; this parser also takes any list that
    _float_list reads, so that `--values -0.0,0.5` reaches the command."""

    def _parse_optional(self, arg_string):
        try:
            _float_list(arg_string)
        except argparse.ArgumentTypeError:
            return super()._parse_optional(arg_string)
        return None


def _check_output(path, what):
    """Fail before any work when `path` cannot become a file: it is
    empty, its directory is missing or it is a directory itself."""
    if not path:
        raise OutputError(f"cannot write {what}: empty path")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise OutputError(f"cannot write {what}: no directory {directory}")
    if os.path.isdir(path):
        raise OutputError(f"cannot write {what}: {path} is a directory")


def _write_output(path, what, write):
    """Open `path` and pass the file to `write`; OSError becomes OutputError."""
    try:
        with open(path, "w", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise OutputError(f"cannot write {what}: {exc}") from exc


def _report_rows(rows, path, what):
    """Write `rows` as CSV to `path`, if given, through `_write_output`;
    then print them."""
    if path is not None:
        import csv

        _write_output(path, what, lambda fh: csv.writer(fh).writerows(rows))
    for row in rows:
        print(",".join(str(c) for c in row))


def _build_policy(kind, spec, solution_path):
    """(policy, bundle); a `solution_path` bundle's ParseError or
    ShapeError becomes a SolutionError."""
    from . import control

    if solution_path is None:
        bundle = solver.solve_backward(spec) if kind == "optimal" else None
        return control.make_policy(kind, spec, bundle=bundle), bundle
    try:
        bundle = solver.load_bundle(solution_path)
        return control.make_policy(kind, spec, bundle=bundle), bundle
    except (ParseError, ShapeError) as exc:
        raise SolutionError(exc) from exc


def cmd_solve(args):
    if args.out is not None:
        _check_output(args.out, "solution bundle")
    bundle = solver.solve_backward(model.load_problem(args.config))
    if args.out is not None:
        solver.save_bundle(bundle, args.out)
    print(f"j_star = {bundle.j_star:.12g}")
    for t, (lo_p, lo_pt) in enumerate(bundle.stage_min_eig):
        print(f"t={t}: min eig P {lo_p:.3e}, min eig Ptilde {lo_pt:.3e}, e {bundle.values.e[t]:.6g}")
    return EXIT_OK


def cmd_simulate(args):
    from . import sim

    if args.out is not None:
        _check_output(args.out, "report")
    if args.dump_trajectories is not None:
        try:
            os.makedirs(args.dump_trajectories, exist_ok=True)
        except OSError as exc:
            raise OutputError(f"cannot write trajectories: {exc}") from exc
    spec = model.load_problem(args.config)
    # Keep only the policy: the bundle's value tables are freed before the runs.
    policy = _build_policy(args.policy, spec, args.solution)[0]
    try:
        report = sim.monte_carlo(spec, policy, args.runs, args.seed, dump=args.dump_trajectories)
    except OSError as exc:  # only the trajectory dump writes files
        raise OutputError(f"cannot write trajectories: {exc}") from exc
    rows = [
        ["policy", "runs", "seed", "mean_cost", "std_err"],
        [report.policy, report.runs, report.seed, repr(report.mean_cost), repr(report.std_err)],
    ]
    _report_rows(rows, args.out, "report")
    return EXIT_OK


def cmd_evaluate_exact(args):
    from . import oracle

    if args.out is not None:
        _check_output(args.out, "report")
    spec = model.load_problem(args.config)
    policy, bundle = _build_policy(args.policy, spec, args.solution)
    if bundle is None:
        bundle = solver.solve_backward(spec)
    report = oracle.oracle_report(spec, policy, bundle)
    text = json.dumps(report, indent=1)
    if args.out is not None:
        _write_output(args.out, "report", lambda fh: fh.write(text + "\n"))
    print(text)
    return EXIT_OTHER if "stationarity" in report and not report["stationarity"]["ok"] else EXIT_OK


def cmd_validate(args):
    from . import oracle

    results = []
    for name, ok, detail in oracle.certify(model.load_problem(args.config), args.runs, args.seed):
        results.append({"check": name, "ok": bool(ok), "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    summary = {"all_pass": all(r["ok"] for r in results), "checks": results}
    print(json.dumps(summary))
    return EXIT_OK if summary["all_pass"] else EXIT_OTHER


def cmd_sweep(args):
    from . import control, sim

    if args.out is not None:
        _check_output(args.out, "sweep table")
    spec = model.load_problem(args.config)
    values = []
    for p in args.values:
        if p in values:
            print(f"warning: duplicate sweep value {p} ignored", file=sys.stderr)
            continue
        values.append(p)
    # Every value is checked before the first solve.
    variants = [dataclasses.replace(spec, channel=model.channel_spec(p)) for p in values]
    rows = [["p1", "j_star", "mc_mean", "mc_se"]]
    for p, spec_p in zip(values, variants):
        bundle = solver.solve_backward(spec_p)
        policy = control.make_policy("optimal", spec_p, bundle)
        report = sim.monte_carlo(spec_p, policy, args.runs, args.seed)
        rows.append([
            repr(float(p)), repr(float(bundle.j_star)),
            repr(float(report.mean_cost)), repr(float(report.std_err)),
        ])
    _report_rows(rows, args.out, "sweep table")
    return EXIT_OK


def build_parser():
    parser = _Parser(
        prog="ncslqr",
        description="Solve, simulate, and verify optimal decentralized control "
        "of a two-plant switched linear system over a lossy acknowledged channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the backward recursions, write the solution bundle")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="Monte Carlo rollout of a policy")
    p.add_argument("--config", required=True)
    p.add_argument("--solution")
    p.add_argument("--policy", default="optimal", choices=["optimal", "zero", "ce", "centralized"])
    p.add_argument("--runs", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out")
    p.add_argument("--dump-trajectories")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate-exact", help="exact expected cost of a policy")
    p.add_argument("--config", required=True)
    p.add_argument("--solution")
    p.add_argument("--policy", default="optimal", choices=["optimal", "zero", "ce", "centralized"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate_exact)

    p = sub.add_parser("validate", help="run the invariant battery on one config")
    p.add_argument("--config", required=True)
    p.add_argument("--runs", type=_two_or_more_int, default=20000)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="solve and simulate across channel success rates")
    p.add_argument("--config", required=True)
    p.add_argument("--values", required=True, type=_float_list)
    p.add_argument("--runs", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except NcslqrError as exc:
        for types, prefix, code in ERRORS:
            if isinstance(exc, types):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
    except BrokenPipeError:
        # The reader of stdout has gone: exit quietly. Python flushes stdout
        # again at exit, so it now points at devnull (the recipe in the
        # signal module's documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
