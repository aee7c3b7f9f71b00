import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncslqr import control, model, sim, solver
from ncslqr.errors import DefinitenessError, NonFiniteError
from conftest import divergent_config, rand_psd, reference_rollout, s2_config


class TestNoise:
    def test_factor_reproduces_covariance(self):
        rng = np.random.default_rng(3)
        cov = rand_psd(rng, 4)
        F = sim.noise_factor(cov)
        assert F @ F.T == pytest.approx(cov, abs=1e-10)

    def test_rank_deficient_accepted(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        F = sim.noise_factor(cov)
        assert F @ F.T == pytest.approx(cov, abs=1e-10)

    def test_indefinite_rejected(self):
        with pytest.raises(DefinitenessError):
            sim.noise_factor(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_zero_family(self):
        rng = np.random.default_rng(0)
        assert sim.sample_noise(np.eye(3), "zero", rng) == pytest.approx(np.zeros(3))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_sample_moments(self, seed):
        rng = np.random.default_rng(seed)
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        draws = np.array([sim.sample_noise(cov, "gaussian", rng) for _ in range(4000)])
        emp = draws.T @ draws / len(draws)
        assert np.abs(emp - cov).max() < 0.25


class TestDeterminism:
    def test_same_seed_same_trajectory(self, s2_spec):
        bundle = solver.solve_backward(s2_spec)
        policy = control.make_policy("optimal", s2_spec, bundle=bundle)
        a = sim.simulate_run(s2_spec, policy, seed=42, run_index=3)
        b = sim.simulate_run(s2_spec, policy, seed=42, run_index=3)
        assert a.x0 == pytest.approx(b.x0)
        assert a.u1 == pytest.approx(b.u1)
        assert a.total_cost == b.total_cost

    def test_run_index_gives_independent_streams(self, s2_spec):
        bundle = solver.solve_backward(s2_spec)
        policy = control.make_policy("optimal", s2_spec, bundle=bundle)
        a = sim.simulate_run(s2_spec, policy, seed=42, run_index=0)
        b = sim.simulate_run(s2_spec, policy, seed=42, run_index=1)
        assert not np.allclose(a.x0, b.x0)

    def test_mean_is_run_order_reduction(self, s2_spec):
        bundle = solver.solve_backward(s2_spec)
        policy = control.make_policy("optimal", s2_spec, bundle=bundle)
        rep = sim.monte_carlo(s2_spec, policy, runs=50, seed=9)
        costs = [
            sim.simulate_run(s2_spec, policy, seed=9, run_index=i).total_cost
            for i in range(50)
        ]
        assert rep.mean_cost == pytest.approx(float(np.sum(costs) / 50), abs=0)

    def test_batch_matches_single_runs(self, s2_spec):
        bundle = solver.solve_backward(s2_spec)
        policy = control.make_policy("optimal", s2_spec, bundle=bundle)
        batch = list(sim.simulate_runs(s2_spec, policy, seed=5, indices=[4, 0, 7]))
        for i, traj in zip([4, 0, 7], batch):
            one = sim.simulate_run(s2_spec, policy, seed=5, run_index=i)
            for field in ("x0", "x1", "u0", "u1", "x_hat1", "stage_cost"):
                assert np.array_equal(getattr(traj, field), getattr(one, field))

    def test_chunked_mean_is_run_order_reduction(self, battery):
        spec = battery[5]
        bundle = solver.solve_backward(spec)
        policy = control.make_policy("optimal", spec, bundle=bundle)
        runs = sim._CHUNK_RUNS + 3
        rep = sim.monte_carlo(spec, policy, runs=runs, seed=2)
        costs = np.array([
            sim.simulate_run(spec, policy, seed=2, run_index=i).total_cost
            for i in range(runs)
        ])
        mean = float(np.sum(costs) / runs)
        se = (float(np.sum((costs - mean) ** 2) / (runs - 1)) / runs) ** 0.5
        assert rep.mean_cost == pytest.approx(mean, abs=0)
        assert rep.std_err == pytest.approx(se, abs=0)

    def test_threads_argument_is_inert(self, s2_spec):
        policy = control.make_policy("zero", s2_spec)
        a = sim.monte_carlo(s2_spec, policy, runs=20, seed=5, threads=1)
        b = sim.monte_carlo(s2_spec, policy, runs=20, seed=5, threads=8)
        assert a.mean_cost == b.mean_cost
        assert a.std_err == b.std_err


class TestRollout:
    def test_zero_noise_zero_policy_closed_form(self):
        # Deterministic scalar chain x' = x0 + x1 under zero inputs:
        # x0 = (1, 1), x1 = (1, 2); stage costs 2 and 5.
        cfg = s2_config(family="zero")
        cfg["stoch"]["init"]["mu_x0"] = [1.0]
        cfg["stoch"]["init"]["mu_x1"] = [1.0]
        spec = model.load_config(cfg)
        policy = control.make_policy("zero", spec)
        traj = sim.simulate_run(spec, policy, seed=0, run_index=0)
        assert traj.x0 == pytest.approx(np.array([[1.0], [1.0]]))
        assert traj.x1 == pytest.approx(np.array([[1.0], [2.0]]))
        assert traj.stage_cost == pytest.approx([2.0, 5.0])
        assert traj.total_cost == pytest.approx(7.0)

    def test_estimate_tracks_truth_when_channel_perfect(self):
        spec = model.load_config(s2_config(p1=1.0))
        bundle = solver.solve_backward(spec)
        policy = control.make_policy("optimal", spec, bundle=bundle)
        for i in range(10):
            traj = sim.simulate_run(spec, policy, seed=17, run_index=i)
            assert traj.gamma == pytest.approx(np.ones(2))
            assert traj.x_hat1 == pytest.approx(traj.x1, abs=1e-12)

    def test_estimate_is_prior_mean_when_channel_dead(self, battery):
        for spec in battery[:4]:
            if spec.channel.p1 != 0.0:
                continue
            bundle = solver.solve_backward(spec)
            policy = control.make_policy("optimal", spec, bundle=bundle)
            traj = sim.simulate_run(spec, policy, seed=1, run_index=0)
            assert np.all(traj.gamma == 0)
            assert traj.x_hat1[0] == pytest.approx(spec.stoch.mu_x1)

    def test_stage_costs_match_quadratic_form(self, battery):
        spec = battery[2]
        bundle = solver.solve_backward(spec)
        policy = control.make_policy("optimal", spec, bundle=bundle)
        traj = sim.simulate_run(spec, policy, seed=23, run_index=0)
        for t in range(spec.T + 1):
            x = np.concatenate([traj.x0[t], traj.x1[t]])
            u = np.concatenate([traj.u0[t], traj.u1[t]])
            Q = spec.cost.Q[t, traj.m0[t], traj.m1[t]]
            R = spec.cost.R[t, traj.m0[t], traj.m1[t]]
            assert traj.stage_cost[t] == pytest.approx(x @ Q @ x + u @ R @ u)
        assert traj.total_cost == pytest.approx(traj.stage_cost.sum())

    def test_runs_validation(self, s2_spec):
        policy = control.make_policy("zero", s2_spec)
        with pytest.raises(ValueError):
            sim.monte_carlo(s2_spec, policy, runs=0, seed=1)

    def test_single_run_zero_stderr(self, s2_spec):
        policy = control.make_policy("zero", s2_spec)
        rep = sim.monte_carlo(s2_spec, policy, runs=1, seed=1)
        assert rep.std_err == 0.0


class TestReference:
    @pytest.mark.parametrize("kind", ["optimal", "zero", "ce", "centralized"])
    def test_batch_matches_reference_rollout(self, battery, kind):
        for spec in battery:
            bundle = solver.solve_backward(spec) if kind == "optimal" else None
            policy = control.make_policy(kind, spec, bundle=bundle)
            for i, traj in enumerate(sim.simulate_runs(spec, policy, seed=3, indices=range(6))):
                ref = reference_rollout(spec, policy, seed=3, run_index=i)
                for field in ("m0", "m1", "gamma"):
                    assert np.array_equal(getattr(traj, field), getattr(ref, field))
                for field in ("x0", "x1", "u0", "u1", "x_hat1", "stage_cost"):
                    assert getattr(traj, field) == pytest.approx(getattr(ref, field), rel=1e-12)
                assert traj.total_cost == pytest.approx(ref.total_cost, rel=1e-12)


class TestNonFinite:
    def _failures(self, spec, policy, seed, runs):
        """First non-finite step of each run by the reference loop (None if none)."""
        out = []
        for i in range(runs):
            try:
                reference_rollout(spec, policy, seed, i)
                out.append(None)
            except NonFiniteError as exc:
                out.append(int(str(exc).rsplit("t=", 1)[1]))
        return out

    def test_lowest_failing_run_reported(self):
        spec = model.load_config(divergent_config())
        policy = control.make_policy("zero", spec)
        runs = 700
        with np.errstate(over="ignore", invalid="ignore"):
            fails = self._failures(spec, policy, 8, runs)
        bad = [i for i, t in enumerate(fails) if t is not None]
        first = bad[0]
        # A later run fails at an earlier step, so the report must follow
        # run order rather than step order.
        assert any(fails[j] < fails[first] for j in bad[1:])
        msg = f"run {first}: state or action non-finite at t={fails[first]}"
        with pytest.raises(NonFiniteError, match=msg):
            sim.monte_carlo(spec, policy, runs=runs, seed=8)
        done = []
        with pytest.raises(NonFiniteError, match=msg):
            for traj in sim.simulate_runs(spec, policy, seed=8, indices=range(runs)):
                done.append(traj)
        assert len(done) == first


class TestCsv:
    def test_trajectory_csv_roundtrips(self, s2_spec, tmp_path):
        bundle = solver.solve_backward(s2_spec)
        policy = control.make_policy("optimal", s2_spec, bundle=bundle)
        traj = sim.simulate_run(s2_spec, policy, seed=4, run_index=0)
        path = tmp_path / "traj.csv"
        sim.trajectory_to_csv(traj, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == s2_spec.T + 1
        for t, row in enumerate(rows):
            assert int(row["t"]) == t
            assert float(row["x0[0]"]) == traj.x0[t, 0]
            assert float(row["stage_cost"]) == traj.stage_cost[t]
            assert int(row["m0"]) == traj.m0[t] + 1  # modes are 1-based on disk
