"""Command-line front end.

Subcommands: solve, simulate, evaluate-exact, validate, sweep.
Commands let package errors rise to `main`, which prints one stderr line
`<prefix>: <message>` and exits by the first matching row of ERRORS:
`solution error` 2 (an unreadable or ill-fitting --solution bundle),
`config error` 2 (ParseError, ShapeError, ProbabilityError), `numerical
error` 3 (SingularBlockError, DefinitenessError, NonFiniteError) and `error`
1 (any other NcslqrError). A bad argument exits 2 through argparse; a failed
validate check or stationarity certificate exits 1 after its report.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

# Each command imports the rest of what it uses (control, sim, oracle,
# statistics, and csv for an --out table) itself, so that `solve` starts
# without them.
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
    """Fail before any work when `path` cannot become a file: its
    directory is missing or it is a directory itself."""
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
    if path:
        import csv

        _write_output(path, what, lambda fh: csv.writer(fh).writerows(rows))
    for row in rows:
        print(",".join(str(c) for c in row))


def _build_policy(kind, spec, solution_path):
    """(policy, bundle); a `solution_path` bundle's ParseError or
    ShapeError becomes a SolutionError."""
    from . import control

    if not solution_path:
        bundle = solver.solve_backward(spec) if kind == "optimal" else None
        return control.make_policy(kind, spec, bundle=bundle), bundle
    try:
        bundle = solver.load_bundle(solution_path)
        return control.make_policy(kind, spec, bundle=bundle), bundle
    except (ParseError, ShapeError) as exc:
        raise SolutionError(exc) from exc


def cmd_solve(args):
    if args.out:
        _check_output(args.out, "solution bundle")
    bundle = solver.solve_backward(model.load_problem(args.config))
    if args.out:
        solver.save_bundle(bundle, args.out)
    print(f"j_star = {bundle.j_star:.12g}")
    for t, (lo_p, lo_pt) in enumerate(bundle.stage_min_eig):
        print(f"t={t}: min eig P {lo_p:.3e}, min eig Ptilde {lo_pt:.3e}, e {bundle.values.e[t]:.6g}")
    return EXIT_OK


def cmd_simulate(args):
    from . import sim

    if args.out:
        _check_output(args.out, "report")
    if args.dump_trajectories:
        try:
            os.makedirs(args.dump_trajectories, exist_ok=True)
        except OSError as exc:
            raise OutputError(f"cannot write trajectories: {exc}") from exc
    spec = model.load_problem(args.config)
    policy, _ = _build_policy(args.policy, spec, args.solution)
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

    if args.out:
        _check_output(args.out, "report")
    spec = model.load_problem(args.config)
    policy, bundle = _build_policy(args.policy, spec, args.solution)
    if bundle is None:
        bundle = solver.solve_backward(spec)
    report = oracle.oracle_report(spec, policy, j_star=bundle.j_star)
    if args.policy == "optimal":
        stat = oracle.stationarity_check(spec, bundle, raise_on_violation=False)
        report["stationarity"] = {
            "max_abs_gradient": stat["max_abs_gradient"],
            "worst_entry": stat["worst_entry"],
            "max_cost_decrease": stat["max_cost_decrease"],
            "ok": stat["ok"],
        }
    text = json.dumps(report, indent=1)
    if args.out:
        _write_output(args.out, "report", lambda fh: fh.write(text + "\n"))
    print(text)
    return EXIT_OTHER if "stationarity" in report and not report["stationarity"]["ok"] else EXIT_OK


def _validate_checks(spec, args):
    """Invariant battery for one instance; yields (name, ok, detail)."""
    import statistics

    from . import control, oracle, sim

    bundle = solver.solve_backward(spec)
    yield "solve", True, f"j_star = {bundle.j_star:.9g}"

    # solve_backward kept the minima of steps 0..T; the T+1 tables are zero.
    lo = min(bundle.stage_min_eig.min(), 0.0)
    yield "psd-tables", lo >= -1e-9, f"min eigenvalue {lo:.3e}"

    T1 = spec.T + 1
    if spec.modes.kappa1 == 1:
        v, g = bundle.values, bundle.gains
        gaps = (
            v.P[:T1, :, solver.EMPTY] - v.P[:T1, :, 0],
            v.Ptilde[:T1, :, solver.EMPTY] - v.Ptilde[:T1, :, 0],
            g.K_empty - g.K_received[:, :, 0],
        )
        worst = max(float(np.max(np.abs(gap))) for gap in gaps)
        yield "kappa1-collapse", worst <= 1e-12, f"max table gap {worst:.3e}"

    cen = control.centralized_solve(spec)
    if spec.channel.p1 == 1.0:
        ref = bundle
    else:
        ref = solver.solve_backward(dataclasses.replace(spec, channel=model.channel_spec(1.0)))
    worst = float(np.max(np.abs(cen.P[:T1] - ref.values.P[:T1, :, :solver.EMPTY])))
    yield "centralized-match", worst <= 1e-10, f"max |P - P_centralized| {worst:.3e} (at p1=1)"

    opt = control.make_policy("optimal", spec, bundle)
    cost = oracle.exact_expected_cost(spec, opt)
    rel = abs(cost - bundle.j_star) / max(1.0, abs(bundle.j_star))
    yield "oracle-analytic-identity", rel <= 1e-8, (
        f"exact {cost:.9g} vs analytic {bundle.j_star:.9g} (rel {rel:.3e})"
    )

    report = sim.monte_carlo(spec, opt, args.runs, args.seed)
    mc_ref = bundle.j_star
    if spec.stoch.family == "zero":
        # The runs draw no noise, so their mean estimates the exact cost of
        # the same gains with every covariance zeroed, not j_star.
        st = spec.stoch
        quiet = dataclasses.replace(st, **{
            name: np.zeros_like(getattr(st, name)) for name in ("covW0", "covW1", "cov_x0", "cov_x1")
        })
        mc_ref = oracle.exact_expected_cost(dataclasses.replace(spec, stoch=quiet), opt)
    gap = abs(report.mean_cost - mc_ref)
    bound = 3.0 * report.std_err if report.std_err > 0 else 1e-9
    yield "mc-consistency", gap <= bound, (
        f"|{report.mean_cost:.6g} - {mc_ref:.6g}| = {gap:.3e} vs 3*SE {bound:.3e}"
    )

    runs = min(args.runs, 2000)
    errs = np.concatenate([b.x1 - b.x_hat1 for b in sim.rollouts(spec, opt, args.seed + 1, range(runs))])
    mean_err = errs.mean(axis=0)
    se = errs.std(axis=0, ddof=1) / np.sqrt(runs) + 1e-12
    # One two-sided 3-SE test has level 2(1 - Phi(3)); split it over the
    # k innovation means (Bonferroni) so the check as a whole keeps it.
    k = mean_err.size
    normal = statistics.NormalDist()
    z = normal.inv_cdf(1.0 - (1.0 - normal.cdf(3.0)) / k)
    ok = bool(np.all(np.abs(mean_err) <= z * se + 1e-9))
    yield "estimator-unbiasedness", ok, (
        f"max |mean innovation|/SE = {float(np.max(np.abs(mean_err) / se)):.2f} "
        f"vs {z:.2f} (Bonferroni over {k} means)"
    )


def cmd_validate(args):
    results = []
    for name, ok, detail in _validate_checks(model.load_problem(args.config), args):
        results.append({"check": name, "ok": bool(ok), "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    summary = {"all_pass": all(r["ok"] for r in results), "checks": results}
    print(json.dumps(summary))
    return EXIT_OK if summary["all_pass"] else EXIT_OTHER


def cmd_sweep(args):
    from . import control, sim

    if args.out:
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
    parser.add_argument(
        "--threads",
        type=_positive_int,
        # A string default goes through `type`, so a bad NCSLQR_THREADS is
        # a usage error like a bad --threads.
        default=os.environ.get("NCSLQR_THREADS", "1"),
        help="worker count hint (results are identical at any value)",
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
        return args.func(args)
    except NcslqrError as exc:
        for types, prefix, code in ERRORS:
            if isinstance(exc, types):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code


if __name__ == "__main__":
    sys.exit(main())
