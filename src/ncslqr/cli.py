"""Command-line front end.

Subcommands: solve, simulate, evaluate-exact, validate, sweep.
Exit codes: 0 ok, 2 config error, bad argument, or a solution bundle that
cannot be read or does not fit the problem's shape, 3 numerical error,
1 other: an output that cannot be written (checked before the work starts
where its directory is missing), a failed validate check, or an
evaluate-exact stationarity certificate that fails (its report is still
printed).
"""

import argparse
import json
import os
import sys

import numpy as np

# Each command imports the rest of what it uses (control, sim, oracle,
# statistics, and csv for an --out table) itself, so that `solve` starts
# without them.
from . import matkit, model, solver
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
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CONFIG_ERRORS = (ParseError, ShapeError, ProbabilityError)
NUMERIC_ERRORS = (SingularBlockError, DefinitenessError, NonFiniteError)
# A --solution bundle that cannot be read (ParseError) or does not fit the
# problem (ShapeError).
SOLUTION_ERRORS = (ParseError, ShapeError)


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


def _write_rows(path, what, rows):
    """Write `rows` to `path` as CSV, through `_write_output`."""
    import csv

    _write_output(path, what, lambda fh: csv.writer(fh).writerows(rows))


def _load_spec(path):
    try:
        return model.load_problem(path), EXIT_OK
    except (ParseError, ShapeError, ProbabilityError, DefinitenessError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None, EXIT_CONFIG


def _build_policy(kind, spec, solution_path):
    from . import control

    bundle = None
    if kind == "optimal" or solution_path:
        bundle = solver.load_bundle(solution_path) if solution_path else solver.solve_backward(spec)
    return control.make_policy(kind, spec, bundle=bundle), bundle


def cmd_solve(args):
    if args.out:
        _check_output(args.out, "solution bundle")
    spec, rc = _load_spec(args.config)
    if spec is None:
        return rc
    try:
        bundle = solver.solve_backward(spec)
    except NUMERIC_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
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
    spec, rc = _load_spec(args.config)
    if spec is None:
        return rc
    try:
        policy, _ = _build_policy(args.policy, spec, args.solution)
        report = sim.monte_carlo(spec, policy, args.runs, args.seed, threads=args.threads)
    except SOLUTION_ERRORS as exc:
        print(f"solution error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERIC_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    rows = [
        ["policy", "runs", "seed", "mean_cost", "std_err"],
        [report.policy, report.runs, report.seed, repr(report.mean_cost), repr(report.std_err)],
    ]
    if args.out:
        _write_rows(args.out, "report", rows)
    print(",".join(str(c) for c in rows[0]))
    print(",".join(str(c) for c in rows[1]))
    if args.dump_trajectories:
        runs = sim.simulate_runs(spec, policy, args.seed, range(args.runs))
        try:
            for i, traj in enumerate(runs):
                sim.trajectory_to_csv(
                    traj, os.path.join(args.dump_trajectories, f"run_{i:06d}.csv")
                )
        except OSError as exc:
            raise OutputError(f"cannot write trajectories: {exc}") from exc
    return EXIT_OK


def cmd_evaluate_exact(args):
    from . import oracle

    if args.out:
        _check_output(args.out, "report")
    spec, rc = _load_spec(args.config)
    if spec is None:
        return rc
    try:
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
    except SOLUTION_ERRORS as exc:
        print(f"solution error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERIC_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
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

    lo = min(matkit.min_eig(bundle.values.P).min(), matkit.min_eig(bundle.values.Ptilde).min())
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
        spec_p1 = model.load_config({**model.problem_to_config(spec), "channel": {"p1": 1.0}})
        ref = solver.solve_backward(spec_p1)
    worst = float(np.max(np.abs(cen.P[:T1] - ref.values.P[:T1, :, :solver.EMPTY])))
    yield "centralized-match", worst <= 1e-10, f"max |P - P_centralized| {worst:.3e} (at p1=1)"

    opt = control.OptimalPolicy(spec, bundle)
    cost = oracle.exact_expected_cost(spec, opt)
    rel = abs(cost - bundle.j_star) / max(1.0, abs(bundle.j_star))
    yield "oracle-analytic-identity", rel <= 1e-8, (
        f"exact {cost:.9g} vs analytic {bundle.j_star:.9g} (rel {rel:.3e})"
    )

    report = sim.monte_carlo(spec, opt, args.runs, args.seed)
    gap = abs(report.mean_cost - bundle.j_star)
    bound = 3.0 * report.std_err if report.std_err > 0 else 1e-9
    yield "mc-consistency", gap <= bound, (
        f"|{report.mean_cost:.6g} - {bundle.j_star:.6g}| = {gap:.3e} vs 3*SE {bound:.3e}"
    )

    runs = min(args.runs, 2000)
    errs = np.zeros((runs, spec.T + 1, spec.dims.d_x1))
    for i, traj in enumerate(sim.simulate_runs(spec, opt, args.seed + 1, range(runs))):
        errs[i] = traj.x1 - traj.x_hat1
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
    spec, rc = _load_spec(args.config)
    if spec is None:
        return rc
    results = []
    try:
        for name, ok, detail in _validate_checks(spec, args):
            results.append({"check": name, "ok": bool(ok), "detail": detail})
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    except NUMERIC_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    summary = {"all_pass": all(r["ok"] for r in results), "checks": results}
    print(json.dumps(summary))
    return EXIT_OK if summary["all_pass"] else EXIT_OTHER


def cmd_sweep(args):
    from . import control, sim

    if args.out:
        _check_output(args.out, "sweep table")
    spec, rc = _load_spec(args.config)
    if spec is None:
        return rc
    values = []
    for p in args.values:
        if p in values:
            print(f"warning: duplicate sweep value {p} ignored", file=sys.stderr)
            continue
        values.append(p)
    rows = [["p1", "j_star", "mc_mean", "mc_se"]]
    cfg = model.problem_to_config(spec)
    for p in values:
        try:
            spec_p = model.load_config({**cfg, "channel": {"p1": p}})
            bundle = solver.solve_backward(spec_p)
            policy = control.OptimalPolicy(spec_p, bundle)
            report = sim.monte_carlo(spec_p, policy, args.runs, args.seed)
        except (ProbabilityError,) + CONFIG_ERRORS as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except NUMERIC_ERRORS as exc:
            print(f"numerical error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        rows.append([
            repr(float(p)), repr(float(bundle.j_star)),
            repr(float(report.mean_cost)), repr(float(report.std_err)),
        ])
    if args.out:
        _write_rows(args.out, "sweep table", rows)
    for row in rows:
        print(",".join(str(c) for c in row))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
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
    p.add_argument("--param", default="p1", choices=["p1"])
    p.add_argument("--values", required=True, type=_float_list)
    p.add_argument("--runs", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NcslqrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
