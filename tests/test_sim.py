import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncslqr import control, model, sim, solver
from ncslqr.errors import DefinitenessError, NonFiniteError
from conftest import (
    divergent_config,
    philox_block,
    rand_psd,
    reference_draws,
    reference_rollout,
    s2_config,
)


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

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(4)
        covs = np.stack([rand_psd(rng, 3) for _ in range(5)])
        F = sim.noise_factor(covs)
        for cov, f in zip(covs, F):
            assert np.array_equal(f, sim.noise_factor(cov))

    @pytest.mark.parametrize("lam, accepted", [(-5e-11, True), (-2e-10, False)])
    def test_same_psd_rule_as_loader(self, lam, accepted):
        # A covariance the loader accepts is one the simulator can factor.
        cfg = s2_config()
        cfg["stoch"]["covW0"] = [[lam]]
        if accepted:
            spec = model.load_config(cfg)
            assert np.array_equal(sim._noise_factors(spec)[1][:, 0, 0], [0.0, 0.0])
            assert sim.noise_factor(np.array([[lam]])) == 0.0
        else:
            with pytest.raises(DefinitenessError, match=r"^stoch\.covW0\[t=0\] is not PSD"):
                model.load_config(cfg)
            with pytest.raises(DefinitenessError, match=r"^noise covariance is not PSD"):
                sim.noise_factor(np.array([[lam]]))

    def test_zero_family(self):
        # The noise-free family draws no normal blocks; its modes and
        # channel bits are the gaussian family's, and every run follows the
        # same deterministic state path.
        zero = model.load_config(s2_config(family="zero"))
        gauss = model.load_config(s2_config())
        assert sim._normal_blocks(zero) == 0 and sim._normal_blocks(gauss) == 1
        _, normals = sim._draws(sim._key(3), [0, 1], zero.T, 0)
        assert normals.shape == (2, zero.T + 1, 0)
        policy = control.make_policy("zero", zero)
        a = list(sim.simulate_runs(zero, policy, 3, range(20)))
        b = list(sim.simulate_runs(gauss, control.make_policy("zero", gauss), 3, range(20)))
        for ta, tb in zip(a, b):
            for field in ("m0", "m1", "gamma"):
                assert np.array_equal(getattr(ta, field), getattr(tb, field))
            assert np.array_equal(ta.x0, a[0].x0) and np.array_equal(ta.x1, a[0].x1)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_sample_moments(self, seed):
        # 4000 runs x 2 slots x one block of four Box-Muller normals each.
        _, z = sim._draws(sim._key(seed), range(4000), 1, 1)
        z = z.reshape(-1, 4)
        assert np.abs(z.mean(axis=0)).max() < 0.05  # SE 0.011
        assert np.abs(z.T @ z / len(z) - np.eye(4)).max() < 0.1  # SE 0.011 off the diagonal, 0.016 on it
        assert abs(float(np.mean(z**4)) - 3.0) < 0.3  # SE 0.055: normal, not uniform, tails
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        w = z[:, :2] @ sim.noise_factor(cov).T
        assert np.abs(w.T @ w / len(w) - cov).max() < 0.25


class TestPhilox:
    def test_known_answer(self):
        # Random123's philox4x64_10 known-answer vector: counter 0, key 0.
        # numpy starts one below, so this borrows through all four words.
        words = sim._words(np.zeros(2, dtype=np.uint64), [0], 0, 1)
        assert [f"{int(w):016x}" for w in words.ravel()] == [
            "16554d9eca36314c", "db20fe9d672d0fdc", "d7e772cee186176b", "7e68b68aec7ba23b",
        ]

    def test_words_match_single_blocks(self):
        key = sim._key(11)
        runs = [0, 5, 6, 7, 2, 4, 2**40, 2**64 - 1]
        words = sim._words(key, runs, 2, 2)
        assert words.shape == (len(runs), 3, 2, 4)
        for i, run in enumerate(runs):
            for t in range(3):
                for b in range(2):
                    assert np.array_equal(words[i, t, b], philox_block(key, run, t, b))

    def test_draws_follow_the_documented_layout(self):
        key = sim._key(4)
        for runs in ([3, 9], [0], [0, 3, 4, 9]):
            unif, normals = sim._draws(key, runs, 2, 2)
            for i, run in enumerate(runs):
                for t in range(3):
                    u, z = reference_draws(key, run, t, 8)
                    assert unif[i, t].tolist() == u
                    assert normals[i, t] == pytest.approx(z, rel=1e-14, abs=1e-15)

    def test_draws_do_not_depend_on_the_batch(self):
        key = sim._key(5)
        unif, normals = sim._draws(key, range(600), 3, 2)
        for run in (0, 1, 299, 599):
            u1, z1 = sim._draws(key, [run], 3, 2)
            assert np.array_equal(unif[run], u1[0]) and np.array_equal(normals[run], z1[0])


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
        runs = sim._chunk_runs(spec) + 3
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
            fails = self._failures(spec, policy, 9, runs)
        bad = [i for i, t in enumerate(fails) if t is not None]
        first = bad[0]
        # A later run fails at an earlier step, so the report must follow
        # run order rather than step order.
        assert any(fails[j] < fails[first] for j in bad[1:])
        msg = f"run {first}: state, action or stage cost non-finite at t={fails[first]}"
        with pytest.raises(NonFiniteError, match=msg):
            sim.monte_carlo(spec, policy, runs=runs, seed=9)
        done = []
        with pytest.raises(NonFiniteError, match=msg):
            for traj in sim.simulate_runs(spec, policy, seed=9, indices=range(runs)):
                done.append(traj)
        assert len(done) == first

    def test_overflowing_stage_cost_is_non_finite(self):
        # Run 3 at seed 8 meets the rare 1e200 mode once: x and u stay
        # finite while x0**2 overflows the stage cost.
        spec = model.load_config(divergent_config())
        policy = control.make_policy("zero", spec)
        with np.errstate(over="ignore", invalid="ignore"):
            _, (x, u, *_, cost), failed = sim._rollout(
                spec, policy, sim._noise_factors(spec), sim._key(8), [3], record=True
            )
        assert failed == (0, 1)
        assert np.isfinite(x[0, 1]).all() and np.isfinite(u[0, 1]).all()
        assert not np.isfinite(cost[0, 1])
        with pytest.raises(NonFiniteError, match="run 3: state, action or stage cost non-finite at t=1"):
            sim.monte_carlo(spec, policy, runs=100, seed=8)

    def test_overflowing_spread_is_non_finite(self):
        # A 1e100 mode keeps every stage cost finite (up to about 1e200)
        # but the squared deviations behind the standard error overflow.
        cfg = divergent_config()
        cfg["system"]["A00"][0] = [[1e100]]
        spec = model.load_config(cfg)
        policy = control.make_policy("zero", spec)
        with pytest.raises(NonFiniteError, match="standard error inf non-finite over 100 runs"):
            sim.monte_carlo(spec, policy, runs=100, seed=8)


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

    @staticmethod
    def _csv_writer_bytes(traj, path):
        """The trajectory written row by row through csv.writer."""
        d_x0, d_x1, d_u0, d_u1 = (a.shape[1] for a in (traj.x0, traj.x1, traj.u0, traj.u1))
        header = (
            ["t"] + [f"x0[{i}]" for i in range(d_x0)] + [f"x1[{i}]" for i in range(d_x1)]
            + ["m0", "m1", "gamma"] + [f"u0[{i}]" for i in range(d_u0)]
            + [f"u1[{i}]" for i in range(d_u1)] + [f"xhat[{i}]" for i in range(d_x1)]
            + ["stage_cost"]
        )

        def floats(a):
            return [repr(float(v)) for v in a]

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for t in range(traj.x0.shape[0]):
                writer.writerow(
                    [t] + floats(traj.x0[t]) + floats(traj.x1[t])
                    + [int(traj.m0[t]) + 1, int(traj.m1[t]) + 1, int(traj.gamma[t])]
                    + floats(traj.u0[t]) + floats(traj.u1[t]) + floats(traj.x_hat1[t])
                    + [repr(float(traj.stage_cost[t]))]
                )
        return path.read_bytes()

    def test_template_writes_csv_writer_bytes(self, battery, tmp_path):
        for k, spec in enumerate(battery):
            policy = control.make_policy("optimal", spec, bundle=solver.solve_backward(spec))
            for i, traj in enumerate(sim.simulate_runs(spec, policy, seed=k, indices=range(3))):
                path = tmp_path / f"run_{k}_{i}.csv"
                sim.trajectory_to_csv(traj, path)
                assert path.read_bytes() == self._csv_writer_bytes(traj, tmp_path / "ref.csv")

    def test_template_keeps_float_reprs(self, tmp_path):
        special = [-0.0, 5e-324, 1e16, 0.1]
        traj = sim.Trajectory(
            x0=np.array([[-0.0, 5e-324], [1e16, 0.1]]), x1=np.array([[0.1], [-0.0]]),
            m0=np.array([0, 1]), m1=np.array([2, 0]), gamma=np.array([1, 0]),
            u0=np.array([[1e16], [5e-324]]), u1=np.array([[-1.5e-300], [2.0]]),
            x_hat1=np.array([[1e16], [0.1]]), stage_cost=np.array([0.1, 1e16]), total_cost=1e16,
        )
        path = tmp_path / "special.csv"
        sim.trajectory_to_csv(traj, path)
        text = path.read_bytes()
        assert text == self._csv_writer_bytes(traj, tmp_path / "ref.csv")
        assert text.count(b"\r\n") == 3
        assert all(repr(v).encode() in text for v in special)
