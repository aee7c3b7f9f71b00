import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from ncslqr import control, model, oracle, sim, solver
from ncslqr.errors import OptimalityViolation, UnsupportedPolicyError
from conftest import (
    enumerate_expected_cost,
    long_horizon_config,
    random_config,
    reference_closed_loop,
    s2_config,
    time_varying_config,
    zero_weight_mode_config,
)


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
            policy = control.make_policy("optimal", spec, bundle)
            cost = oracle.exact_expected_cost(spec, policy)
            assert cost == pytest.approx(
                bundle.j_star, rel=1e-8, abs=1e-8 * (1.0 + abs(bundle.j_star))
            )

    @pytest.mark.parametrize("p1", [0.0, 0.3, 0.7])
    def test_time_varying_cost_matches_analytic_optimum(self, p1):
        # Each step has its own Q[t] and R[t], so a solver that built every
        # step's cost blocks from one step would solve another problem; the
        # oracle prices the optimal gains on the costs of each step. The
        # tolerance is c01's.
        spec = model.load_config(time_varying_config(np.random.default_rng(11), p1))
        for Q in (spec.cost.Q, spec.cost.R):
            assert all(not np.allclose(Q[t], Q[0]) for t in range(1, spec.T + 1))
        bundle = solver.solve_backward(spec)
        cost = oracle.exact_expected_cost(spec, control.make_policy("optimal", spec, bundle))
        assert abs(cost - bundle.j_star) / max(1.0, abs(bundle.j_star)) <= 1e-8

    def test_optimum_dominates_references(self, battery):
        for spec in battery[:10]:
            bundle = solver.solve_backward(spec)
            j = oracle.exact_expected_cost(spec, control.make_policy("optimal", spec, bundle))
            slack = 1e-9 * (1.0 + abs(j))
            for kind in ("zero", "ce"):
                cost = oracle.exact_expected_cost(spec, control.make_policy(kind, spec))
                assert cost >= j - slack

    def test_centralized_lower_bounds_decentralized(self, battery):
        for spec in battery[:10]:
            bundle = solver.solve_backward(spec)
            j = oracle.exact_expected_cost(spec, control.make_policy("optimal", spec, bundle))
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
        policy = control.make_policy("optimal", spec, bundle)
        exact = oracle.exact_expected_cost(spec, policy)
        rep = sim.monte_carlo(spec, policy, runs=4000, seed=12)
        assert abs(rep.mean_cost - exact) <= 4.0 * rep.std_err + 1e-9

    def test_long_horizon(self):
        spec = model.load_config(long_horizon_config())
        bundle = solver.solve_backward(spec)
        cost, mass = oracle.exact_expected_cost(
            spec, control.make_policy("optimal", spec, bundle), return_prob=True
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

    @pytest.mark.parametrize("kind", ["optimal", "zero", "ce", "centralized"])
    def test_received_moment_estimate_is_state(self, battery, kind):
        # On gamma_t = 1 the estimate is the received state, so the xhat rows
        # and columns of S_t^1 repeat its x1 rows and columns; under full
        # information they do on gamma_t = 0 too, from t = 1 on. The cost
        # never reads that block (every such map has zero xhat columns), so
        # only this test pins it.
        checked = 0
        for spec in battery:
            if not 0.0 < spec.channel.p1 < 1.0 or spec.T == 0:
                continue
            d = spec.dims
            x1, xh = slice(d.d_x0, d.d_x), slice(d.d_x, d.d_x + d.d_x1)
            bundle = solver.solve_backward(spec) if kind == "optimal" else None
            policy = control.make_policy(kind, spec, bundle=bundle)
            loop = oracle._ClosedLoop(spec, policy)
            moments = np.stack([S for _, S in oracle._moments(spec, loop)])
            assert list(loop.gammas) == [0, 1]
            for t, gamma in np.ndindex(moments.shape[:2]):
                if gamma == 0 and (kind != "centralized" or t == 0):
                    continue
                S = moments[t, gamma]
                scale = np.abs(S).max()
                assert S[xh] == pytest.approx(S[x1], rel=1e-12, abs=1e-12 * scale)
                assert S[:, xh] == pytest.approx(S[:, x1], rel=1e-12, abs=1e-12 * scale)
                checked += t > 0
        assert checked > 0

    @pytest.mark.parametrize("kind", ["optimal", "centralized"])
    def test_build_closed_loop_is_one_stacked_node(self, battery, kind):
        # The one-node builder against the test suite's own per-node copy.
        for spec in battery[:8]:
            bundle = solver.solve_backward(spec) if kind == "optimal" else None
            policy = control.make_policy(kind, spec, bundle=bundle)
            m = spec.modes
            for node in np.ndindex(spec.T + 1, m.kappa0, m.kappa1, 2, 2):
                got = oracle.build_closed_loop(spec, policy, *node)
                want = reference_closed_loop(spec, policy, *node)
                for a, b in zip(got, want):
                    assert a == pytest.approx(b, rel=1e-12, abs=1e-12 * np.abs(b).max())

    def test_zero_weight_pairs_are_masked(self):
        # The second local mode has probability 0, so nothing may read its
        # stage maps: an infinite gain there must not turn the cost into NaN.
        spec = model.load_config(zero_weight_mode_config())
        zero = control.make_policy("zero", spec)
        gains = dataclasses.replace(zero.gains, K_received=zero.gains.K_received.copy())
        gains.K_received[:, :, 1] = np.inf
        broken = control.LinearCommonPolicy(spec, gains)
        with np.errstate(invalid="ignore"):
            cost = oracle.exact_expected_cost(spec, broken)
        assert cost == oracle.exact_expected_cost(spec, zero)

    def test_nonlinear_policy_rejected(self, s2_spec):
        class Lookahead:
            name = "lookahead"

        with pytest.raises(UnsupportedPolicyError):
            oracle.exact_expected_cost(s2_spec, Lookahead())

    def test_working_memory_does_not_grow_with_the_horizon(self):
        # One battery shape (every block 2-dimensional, kappa0 = kappa1 =
        # 2) at T and 4T: beyond the policy's compiled tables the cost holds
        # one step's maps and moments, about 26 KB at either horizon. Maps
        # stacked over the horizon would take 0.57 MB at T = 60 and 2.1 MB
        # at T = 240.
        def working_peak(T):
            spec = model.load_config(random_config(np.random.default_rng(7), T=T))
            policy = control.make_policy("optimal", spec, solver.solve_backward(spec))
            oracle.exact_expected_cost(spec, policy)  # compiles the tables outside the peak
            tracemalloc.start()
            try:
                oracle.exact_expected_cost(spec, policy)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert working_peak(240) <= 1.25 * working_peak(60)


def _innovation_means(spec, policy):
    """E[(x1 - xhat) 1{gamma_t = g}] for every t and g, read off the
    oracle's moments S_t^g = E[xi xi' 1{gamma_t = g}]: the last coordinate
    of xi is the constant one, so its column holds the first moments. Also
    returns the scale of xi, the root of its largest second moment."""
    S = np.stack([S for _, S in oracle._moments(spec, oracle._ClosedLoop(spec, policy))])
    _, x1, hat = oracle._layout(spec)
    scale = float(np.sqrt(np.diagonal(S, axis1=-2, axis2=-1).max()))
    return S[:, :, x1, -1] - S[:, :, hat, -1], scale


class TestEstimatorExactlyUnbiased:
    """The exact companion of c08 and validate's Monte Carlo check: the
    common estimate is the conditional mean of x1, so every innovation mean
    vanishes up to rounding."""

    @staticmethod
    def _specs(battery):
        cfg = s2_config()
        cfg["stoch"]["init"]["mu_x1"] = [1.5]
        specs = [model.load_config(cfg)] + list(battery)
        assert all(np.any(spec.stoch.mu_x1 != 0.0) for spec in specs)
        return specs

    @pytest.mark.parametrize("kind", ["optimal", "ce", "zero"])
    def test_innovation_means_vanish(self, battery, kind):
        for spec in self._specs(battery):
            bundle = solver.solve_backward(spec) if kind == "optimal" else None
            means, scale = _innovation_means(spec, control.make_policy(kind, spec, bundle=bundle))
            assert np.abs(means).max() <= 1e-12 * scale

    def test_estimate_without_the_mode_average_is_biased(self, battery):
        # The mutant propagates xhat through the first local mode's system
        # in place of the pi_m1 average after a failed transmission.
        caught = 0
        for spec in self._specs(battery):
            if spec.modes.kappa1 < 2 or spec.channel.p1 == 1.0:
                continue
            policy = control.make_policy("optimal", spec, solver.solve_backward(spec))
            first = dataclasses.replace(
                spec, modes=dataclasses.replace(spec.modes, pi_m1=np.eye(spec.modes.kappa1)[0]),
            )
            mutant = control.LinearCommonPolicy(spec, policy.gains)
            mutant.tables = control.compile_policy(first, policy)
            means, scale = _innovation_means(spec, mutant)
            assert np.abs(means).max() > 1e-3 * scale
            caught += 1
        assert caught >= 3


class TestStationarity:
    def test_optimum_is_stationary(self, battery):
        for spec in battery[:6]:
            bundle = solver.solve_backward(spec)
            report = oracle.stationarity_check(spec, bundle, n_perturbations=8)
            assert report["ok"] is True
            assert report["entries_checked"] == sum(a.size for a in (
                bundle.gains.K_empty, bundle.gains.K_received, bundle.gains.Ktilde
            ))
            assert report["max_abs_gradient"] <= report["gradient_tolerance"]
            assert report["max_cost_decrease"] <= 1e-10

    def test_detects_broken_gain(self, battery):
        spec = battery[1]
        bundle = solver.solve_backward(spec)
        bundle.gains.K_empty[0, 0] += 0.2
        report = oracle.stationarity_check(
            spec, bundle, n_perturbations=4, raise_on_violation=False
        )
        assert report["ok"] is False
        json.dumps(report)

    def test_violation_raises(self, battery):
        spec = battery[1]
        bundle = solver.solve_backward(spec)
        bundle.gains.Ktilde[-1, 0] += 0.2
        with pytest.raises(OptimalityViolation) as exc:
            oracle.stationarity_check(spec, bundle, n_perturbations=0)
        assert exc.value.where["table"] == "Ktilde"

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_perturbations_have_the_stated_norm(self, battery, monkeypatch, n):
        # Each perturbed policy the check evaluates sits at distance
        # perturbation_norm (1e-3) from the solved gains, stacked over all
        # three arrays, each in its own direction.
        spec = battery[1]
        bundle = solver.solve_backward(spec)
        names = ("K_empty", "K_received", "Ktilde")
        deviations = []
        real = oracle.exact_expected_cost

        def record(spec_, policy, **kwargs):
            deviations.append(np.concatenate([
                (getattr(policy.gains, name) - getattr(bundle.gains, name)).ravel() for name in names
            ]))
            return real(spec_, policy, **kwargs)

        monkeypatch.setattr(oracle, "exact_expected_cost", record)
        report = oracle.stationarity_check(spec, bundle, n_perturbations=n)
        assert report["perturbations"] == n and len(deviations) == n
        for delta in deviations:
            assert np.linalg.norm(delta) == pytest.approx(1e-3, rel=1e-12)
        assert len({delta.tobytes() for delta in deviations}) == n

    def test_adjoint_gradient_matches_central_differences(self, battery):
        # J is quadratic in any single gain entry, so central differences
        # are exact up to rounding; check every entry at perturbed gains.
        rng = np.random.default_rng(4)
        names = ("K_empty", "K_received", "Ktilde")
        for spec in battery:
            bundle = solver.solve_backward(spec)
            gains = solver.GainTables(*(
                a + 0.1 * rng.standard_normal(a.shape)
                for a in (getattr(bundle.gains, name) for name in names)
            ))
            cost, grads = oracle.exact_gradient(spec, control.LinearCommonPolicy(spec, gains))
            assert cost == pytest.approx(
                oracle.exact_expected_cost(spec, control.LinearCommonPolicy(spec, gains)), rel=1e-12
            )
            scale = max(np.abs(getattr(grads, name)).max() for name in names)
            assert scale > 0.0
            for name in names:
                base = getattr(gains, name)
                for index in np.ndindex(base.shape):
                    costs = []
                    for step in (1e-4, -1e-4):
                        moved = base.copy()
                        moved[index] += step
                        policy = control.LinearCommonPolicy(
                            spec, dataclasses.replace(gains, **{name: moved})
                        )
                        costs.append(oracle.exact_expected_cost(spec, policy))
                    fd = (costs[0] - costs[1]) / 2e-4
                    assert abs(fd - getattr(grads, name)[index]) <= 1e-6 * scale

    def test_costates_give_the_same_cost(self, battery):
        # Duality of the two recursions: J = stage-0 cost + <L_0, Y_0>,
        # where Y_0 is the moment of xi_1 before its channel bit splits it.
        for spec in battery:
            if spec.T == 0:
                continue
            bundle = solver.solve_backward(spec)
            loop = oracle._ClosedLoop(spec, control.make_policy("optimal", spec, bundle))
            costs, S = zip(*oracle._moments(spec, loop))
            *_, (t, F, _, L0) = oracle._costates(spec, loop)
            assert t == 0
            w, (_, _, M, W) = loop.w, loop.maps(0)
            Y0 = np.einsum("p,pcij->ij", w, F @ S[0] @ np.swapaxes(F, -1, -2))
            Y0 += w.sum() * S[0][:, -1, -1].sum() * W
            stage0 = np.einsum("p,pcij,cij->", w, M, S[0])
            assert stage0 + np.sum(L0 * Y0) == pytest.approx(sum(costs), rel=1e-12)

    def test_worst_entry_is_first_largest_in_file_order(self):
        # Per (t, m0): K_empty, then K_received; Ktilde after every step.
        grads = solver.GainTables(np.zeros((2, 1, 3, 2)), np.zeros((2, 1, 2, 2, 2)), np.zeros((2, 1, 2, 1, 1)))
        grads.Ktilde[0, 0, 0] = -2.0
        grads.K_received[1, 0, 1, 0, 1] = 2.0
        grads.K_empty[1, 0, 2, 0] = 1.0
        assert oracle._largest_entry(grads) == (2.0, ("K_received", (1, 0, 1, 0, 1)))
        grads.K_empty[1, 0, 2, 0] = -2.0
        assert oracle._largest_entry(grads) == (2.0, ("K_empty", (1, 0, 2, 0)))
        grads.Ktilde[1, 0, 1] = np.nan
        largest, entry = oracle._largest_entry(grads)
        assert np.isnan(largest) and entry == ("Ktilde", (1, 0, 1, 0, 0))

    def test_gradient_needs_decentralized_gains(self, s2_spec):
        with pytest.raises(UnsupportedPolicyError):
            oracle.exact_gradient(s2_spec, control.make_policy("centralized", s2_spec))

    def test_report_fields(self, s2_spec):
        bundle = solver.solve_backward(s2_spec)
        policy = control.make_policy("optimal", s2_spec, bundle)
        out = oracle.oracle_report(s2_spec, policy, j_star=bundle.j_star)
        assert out["policy"] == "optimal"
        assert out["rel_diff"] < 1e-10
        assert out["sequence_probability_mass"] == pytest.approx(1.0)
