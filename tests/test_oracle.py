import numpy as np
import pytest

from ncslqr import control, model, oracle, sim, solver
from ncslqr.errors import UnsupportedPolicyError
from conftest import enumerate_expected_cost, long_horizon_config, s2_config


class TestExactEvaluation:
    def test_probability_mass_sums_to_one(self, battery):
        for spec in battery[:8]:
            policy = control.make_policy("zero", spec)
            _, mass = oracle.exact_expected_cost(spec, policy, return_prob=True)
            assert mass == pytest.approx(1.0, abs=1e-12)

    def test_s2_zero_policy_closed_form(self):
        # Zero inputs on the scalar chain: E[cost_0] = E[x0^2 + x1^2] = 2.
        # The global plant never sees x1, so x0' = x0 + w0 has second moment
        # 2, while x1' = x0 + x1 + w1 has 3; E[cost_1] = 5, total 7.
        spec = model.load_config(s2_config())
        policy = control.make_policy("zero", spec)
        cost = oracle.exact_expected_cost(spec, policy)
        assert cost == pytest.approx(7.0, abs=1e-12)

    def test_matches_analytic_optimum(self, battery):
        for spec in battery:
            bundle = solver.solve_backward(spec)
            policy = control.OptimalPolicy(spec, bundle)
            cost = oracle.exact_expected_cost(spec, policy)
            assert cost == pytest.approx(
                bundle.j_star, rel=1e-8, abs=1e-8 * (1.0 + abs(bundle.j_star))
            )

    def test_optimum_dominates_references(self, battery):
        for spec in battery[:10]:
            bundle = solver.solve_backward(spec)
            j = oracle.exact_expected_cost(spec, control.OptimalPolicy(spec, bundle))
            slack = 1e-9 * (1.0 + abs(j))
            for kind in ("zero", "ce"):
                cost = oracle.exact_expected_cost(spec, control.make_policy(kind, spec))
                assert cost >= j - slack

    def test_centralized_lower_bounds_decentralized(self, battery):
        for spec in battery[:10]:
            bundle = solver.solve_backward(spec)
            j = oracle.exact_expected_cost(spec, control.OptimalPolicy(spec, bundle))
            c = oracle.exact_expected_cost(spec, control.make_policy("centralized", spec))
            assert c <= j + 1e-9 * (1.0 + abs(j))

    def test_perfect_channel_matches_centralized_cost(self, battery):
        for spec in battery:
            if spec.channel.p1 != 1.0:
                continue
            bundle = solver.solve_backward(spec)
            c = oracle.exact_expected_cost(spec, control.make_policy("centralized", spec))
            assert bundle.j_star == pytest.approx(c, rel=1e-10, abs=1e-10 * (1 + abs(c)))

    def test_agrees_with_monte_carlo(self, battery):
        spec = battery[3]
        bundle = solver.solve_backward(spec)
        policy = control.OptimalPolicy(spec, bundle)
        exact = oracle.exact_expected_cost(spec, policy)
        rep = sim.monte_carlo(spec, policy, runs=4000, seed=12)
        assert abs(rep.mean_cost - exact) <= 4.0 * rep.std_err + 1e-9

    def test_long_horizon(self):
        spec = model.load_config(long_horizon_config())
        bundle = solver.solve_backward(spec)
        cost, mass = oracle.exact_expected_cost(
            spec, control.OptimalPolicy(spec, bundle), return_prob=True
        )
        assert cost == pytest.approx(bundle.j_star, rel=1e-8, abs=1e-8)
        assert mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["optimal", "zero", "ce", "centralized"])
    def test_matches_brute_force_enumeration(self, battery, kind):
        # p1 = 0 and p1 = 1 exercise the recursion's P(gamma) = 0 skips.
        assert {0.0, 1.0} <= {spec.channel.p1 for spec in battery}
        for spec in battery:
            bundle = solver.solve_backward(spec) if kind == "optimal" else None
            policy = control.make_policy(kind, spec, bundle=bundle)
            cost, mass = oracle.exact_expected_cost(spec, policy, return_prob=True)
            ref_cost, ref_mass = enumerate_expected_cost(spec, policy)
            assert cost == pytest.approx(ref_cost, rel=1e-12, abs=0.0)
            assert mass == pytest.approx(ref_mass, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", ["optimal", "zero", "ce"])
    def test_received_moment_estimate_is_state(self, battery, kind):
        # On gamma_t = 1 the estimate is the received state, so the xhat rows
        # and columns of S_t^1 repeat its x1 rows and columns. The cost never
        # reads that block (every gamma = 1 map has zero xhat columns), so
        # only this test pins it.
        checked = 0
        for spec in battery:
            if not 0.0 < spec.channel.p1 < 1.0 or spec.T == 0:
                continue
            d = spec.dims
            x1, xh = slice(d.d_x0, d.d_x), slice(d.d_x, d.d_x + d.d_x1)
            bundle = solver.solve_backward(spec) if kind == "optimal" else None
            policy = control.make_policy(kind, spec, bundle=bundle)
            for t, gamma, _, S, _ in oracle._stage_moments(spec, policy):
                if gamma == 1:
                    scale = np.abs(S).max()
                    assert S[xh] == pytest.approx(S[x1], rel=1e-12, abs=1e-12 * scale)
                    assert S[:, xh] == pytest.approx(S[:, x1], rel=1e-12, abs=1e-12 * scale)
                    checked += t > 0
        assert checked > 0

    def test_nonlinear_policy_rejected(self, s2_spec):
        class Lookahead:
            name = "lookahead"

        with pytest.raises(UnsupportedPolicyError):
            oracle.exact_expected_cost(s2_spec, Lookahead())


class TestStationarity:
    def test_optimum_is_stationary(self, battery):
        for spec in battery[:6]:
            bundle = solver.solve_backward(spec)
            report = oracle.stationarity_check(
                spec, bundle, max_entries=12, n_perturbations=8
            )
            assert report["ok"]
            assert report["max_abs_gradient"] <= report["gradient_tolerance"]
            assert report["max_cost_decrease"] <= 1e-10

    def test_detects_broken_gain(self, battery):
        spec = battery[1]
        bundle = solver.solve_backward(spec)
        bundle.gains.K_empty[0, 0] += 0.2
        report = oracle.stationarity_check(
            spec, bundle, n_perturbations=4, raise_on_violation=False
        )
        assert not report["ok"]

    def test_report_fields(self, s2_spec):
        bundle = solver.solve_backward(s2_spec)
        policy = control.OptimalPolicy(s2_spec, bundle)
        out = oracle.oracle_report(s2_spec, policy, j_star=bundle.j_star)
        assert out["policy"] == "optimal"
        assert out["rel_diff"] < 1e-10
        assert out["sequence_probability_mass"] == pytest.approx(1.0)
