"""End-to-end acceptance battery.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with -s or in captured output) in addition to its assertions.
Criteria are exercised on a deterministic battery of randomized instances
(block dims <= 2, two modes per plant at most, T <= 3, channel success rate
in {0, 0.3, 0.7, 1}) plus the pinned scalar hand instance.
"""

import sys
import time

import numpy as np
import pytest

from ncslqr import cli, control, model, oracle, sim, solver
from ncslqr.solver import EMPTY
from conftest import battery_specs, s2_config

import json


def _report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    print(line, file=sys.stderr)
    assert ok, line


@pytest.fixture(scope="module")
def instances():
    return battery_specs(n=20, seed=1)


@pytest.fixture(scope="module")
def bundles(instances):
    return [solver.solve_backward(spec) for spec in instances]


def test_c01_value_identity(instances, bundles):
    t0 = time.perf_counter()
    worst = 0.0
    for spec, bundle in zip(instances, bundles):
        cost = oracle.exact_expected_cost(spec, control.make_policy("optimal", spec, bundle))
        rel = abs(cost - bundle.j_star) / max(1.0, abs(bundle.j_star))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed <= 60.0
    _report(
        "criterion 1 (value identity)",
        ok,
        f"max rel gap {worst:.3e} over {len(instances)} instances in {elapsed:.1f}s",
    )


def test_c02_monte_carlo_consistency(instances, bundles):
    refs = [(model.load_config(s2_config()), None)]
    for spec, bundle in zip(instances, bundles):
        if 0.0 < spec.channel.p1 < 1.0 and len(refs) < 5:
            refs.append((spec, bundle))
    worst_sigma = 0.0
    for i, (spec, bundle) in enumerate(refs):
        if bundle is None:
            bundle = solver.solve_backward(spec)
        policy = control.make_policy("optimal", spec, bundle)
        t0 = time.perf_counter()
        rep = sim.monte_carlo(spec, policy, runs=10**5, seed=100 + i)
        elapsed = time.perf_counter() - t0
        sigma = abs(rep.mean_cost - bundle.j_star) / rep.std_err
        worst_sigma = max(worst_sigma, sigma)
        assert elapsed <= 60.0, f"instance {i} took {elapsed:.1f}s"
        assert sigma <= 3.0, (
            f"instance {i}: |{rep.mean_cost:.6g} - {bundle.j_star:.6g}| "
            f"= {sigma:.2f} SE"
        )
    _report(
        "criterion 2 (Monte Carlo consistency)",
        True,
        f"5 instances x 1e5 runs, max deviation {worst_sigma:.2f} SE",
    )


def test_c03_psd_propagation(instances, bundles):
    worst = 0.0
    for spec, bundle in zip(instances, bundles):
        for table in (bundle.values.P, bundle.values.Ptilde):
            for G in table.reshape((-1,) + table.shape[-2:]):
                worst = min(worst, float(np.linalg.eigvalsh(0.5 * (G + G.T)).min()))
    _report(
        "criterion 3 (PSD propagation)",
        worst >= -1e-9,
        f"min eigenvalue over all value tables {worst:.3e}",
    )


def test_c04_stationarity(instances, bundles):
    max_grad, max_tol, max_dec = 0.0, 0.0, 0.0
    checked = 0
    for spec, bundle in zip(instances, bundles):
        if not (0.0 < spec.channel.p1 < 1.0) or checked >= 4:
            continue
        rep = oracle.stationarity_check(
            spec, bundle, n_perturbations=20,
            perturbation_norm=1e-3, grad_tol=1e-6, decrease_tol=1e-10,
        )
        max_grad = max(max_grad, rep["max_abs_gradient"])
        max_tol = max(max_tol, rep["gradient_tolerance"])
        max_dec = max(max_dec, rep["max_cost_decrease"])
        checked += 1
    _report(
        "criterion 4 (stationarity)",
        max_grad <= max_tol and max_dec <= 1e-10,
        f"max |gradient| {max_grad:.3e} (tol {max_tol:.3e}), "
        f"max cost decrease under perturbation {max_dec:.3e}",
    )


def test_c05_perfect_channel_reduction(instances, bundles):
    worst = 0.0
    count = 0
    for spec, bundle in zip(instances, bundles):
        if spec.channel.p1 != 1.0:
            continue
        cen = control.centralized_solve(spec)
        steps = spec.T + 1
        worst = max(worst, float(np.abs(cen.P[:steps] - bundle.values.P[:steps, :, :EMPTY]).max()))
        count += 1
    _report(
        "criterion 5 (p1=1 centralized reduction)",
        count > 0 and worst <= 1e-10,
        f"max |P - P_centralized| {worst:.3e} over {count} instances",
    )


def test_c06_single_local_mode_collapse(instances, bundles):
    worst = 0.0
    count = 0
    for spec, bundle in zip(instances, bundles):
        if spec.modes.kappa1 != 1:
            continue
        steps = spec.T + 1
        P, Pt = bundle.values.P[:steps], bundle.values.Ptilde[:steps]
        for a, b in (
            (P[:, :, EMPTY], P[:, :, 0]),
            (Pt[:, :, EMPTY], Pt[:, :, 0]),
            (bundle.gains.K_empty, bundle.gains.K_received[:, :, 0]),
        ):
            worst = max(worst, float(np.abs(a - b).max()))
        count += 1
    _report(
        "criterion 6 (single-local-mode collapse)",
        count > 0 and worst <= 1e-12,
        f"max branch gap {worst:.3e} over {count} instances",
    )


def test_c07_hand_instance_pinning():
    expected = {
        "P": np.array([[8.0, 1.0], [1.0, 7.0]]) / 5.0,
        "K": -np.array([[3.0, 1.0], [1.0, 2.0]]) / 5.0,
        "Pt": np.array([[1.5]]),
        "Kt": np.array([[-0.5]]),
    }
    reference = None
    worst = 0.0
    for p1 in (0.1, 0.5, 0.9):
        spec = model.load_config(s2_config(p1=p1))
        a = solver.solve_backward(spec)
        b = solver.solve_backward(spec)
        # Bit stability: two solves of the same instance agree exactly.
        assert np.array_equal(a.values.P, b.values.P)
        got = {
            "P": a.values.P[0, 0, EMPTY],
            "K": a.gains.K_empty[0, 0],
            "Pt": a.values.Ptilde[0, 0, EMPTY],
            "Kt": a.gains.Ktilde[0, 0, 0],
        }
        for name, mat in expected.items():
            worst = max(worst, float(np.abs(got[name] - mat).max()))
        if reference is None:
            reference = got
        else:
            for name in got:
                worst = max(worst, float(np.abs(got[name] - reference[name]).max()))
    _report(
        "criterion 7 (hand-instance pinning)",
        worst <= 1e-12,
        f"max deviation from pinned tables {worst:.3e}, independent of p1",
    )


def test_c08_estimator_properties(instances, bundles):
    # Exactness under a perfect channel: the estimate is the local state, bitwise.
    exact_ok = True
    for spec, bundle in zip(instances, bundles):
        if spec.channel.p1 != 1.0:
            continue
        policy = control.make_policy("optimal", spec, bundle)
        for i in range(20):
            traj = sim.simulate_run(spec, policy, seed=55, run_index=i)
            exact_ok = exact_ok and np.array_equal(traj.x_hat1, traj.x1)
    # Unbiasedness over 1e5 runs on two lossy instances.
    worst_sigma = 0.0
    targets = [model.load_config(s2_config(p1=0.3))]
    for spec in instances:
        if 0.0 < spec.channel.p1 < 1.0:
            targets.append(spec)
            break
    runs = 10**5
    for spec in targets:
        bundle = solver.solve_backward(spec)
        policy = control.make_policy("optimal", spec, bundle)
        errs = np.concatenate([b.x1 - b.x_hat1 for b in sim.rollouts(spec, policy, 77, range(runs))])
        mean = errs.mean(axis=0)
        se = errs.std(axis=0, ddof=1) / np.sqrt(runs) + 1e-300
        worst_sigma = max(worst_sigma, float(np.abs(mean / se).max()))
    _report(
        "criterion 8 (estimator properties)",
        exact_ok and worst_sigma <= 3.0,
        f"perfect-channel exactness {'bitwise' if exact_ok else 'VIOLATED'}, "
        f"max |mean innovation| = {worst_sigma:.2f} SE over 1e5 runs",
    )


def test_c09_policy_dominance(instances, bundles):
    strict = False
    for spec, bundle in zip(instances, bundles):
        j = oracle.exact_expected_cost(spec, control.make_policy("optimal", spec, bundle))
        slack = 1e-9 * (1.0 + abs(j))
        for kind in ("zero", "ce"):
            c = oracle.exact_expected_cost(spec, control.make_policy(kind, spec))
            assert c >= j - slack, f"{kind} beat the optimum: {c} < {j}"
            if 0.0 < spec.channel.p1 < 1.0 and c > j + 1e-6 * (1.0 + abs(j)):
                strict = True
    _report(
        "criterion 9 (policy dominance)",
        strict,
        "optimal <= zero and certainty-equivalent everywhere, strictly on a lossy instance",
    )


def test_c10_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(s2_config(p1=0.7)))
    outputs = []
    for label in ("a", "b", "c"):
        out = tmp_path / f"mc_{label}.csv"
        dump = tmp_path / f"traj_{label}"
        rc = cli.main([
            "simulate", "--config", str(cfg_path),
            "--runs", "200", "--seed", "11", "--out", str(out),
            "--dump-trajectories", str(dump),
        ])
        assert rc == 0
        blob = out.read_bytes() + b"".join(
            p.read_bytes() for p in sorted(dump.iterdir())
        )
        outputs.append(blob)
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(
        "criterion 10 (determinism)",
        ok,
        "byte-identical simulate CSV and trajectory dumps",
    )
