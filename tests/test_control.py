import numpy as np
import pytest

from ncslqr import control, model, solver
from ncslqr.solver import EMPTY
from conftest import estimator_update, local_action, random_config


@pytest.fixture
def s2_bundle(s2_spec):
    return solver.solve_backward(s2_spec)


class TestEstimator:
    def test_update_success_overwrites(self, s2_spec, s2_bundle):
        xh = np.array([0.5])
        presc = control.compute_prescription(
            s2_bundle.gains, s2_spec, 0, 0, EMPTY, np.array([1.0]), xh
        )
        out = estimator_update(s2_spec, xh, np.array([1.0]), 0, EMPTY, presc, [7.0])
        assert out == pytest.approx([7.0])

    def test_update_failure_propagates_closed_loop(self, s2_spec, s2_bundle):
        # Scalar instance at t = 0 with gamma_0 = 0: the estimate evolves as
        # xhat' = x0 + xhat + u0 + qbar, everything known to both agents.
        x0 = np.array([1.0])
        xh = np.array([2.0])
        presc = control.compute_prescription(s2_bundle.gains, s2_spec, 0, 0, EMPTY, x0, xh)
        out = estimator_update(s2_spec, xh, x0, 0, EMPTY, presc, None)
        expected = x0[0] + xh[0] + presc.u0[0] + presc.qbar[0, 0]
        assert out == pytest.approx([expected])

    def test_update_after_success_uses_true_state(self, s2_spec, s2_bundle):
        # gamma_t = 1, gamma_{t+1} = 0: propagate through the realized mode
        # with the received state, no averaging.
        x0 = np.array([0.0])
        xh = np.array([4.0])
        presc = control.compute_prescription(s2_bundle.gains, s2_spec, 0, 0, 0, x0, xh)
        out = estimator_update(s2_spec, xh, x0, 0, 0, presc, None)
        expected = xh[0] + presc.u0[0] + presc.qbar[0, 0]
        assert out == pytest.approx([expected])


class TestPrescription:
    def test_empty_branch_carries_all_modes(self, s2_spec, s2_bundle):
        presc = control.compute_prescription(
            s2_bundle.gains, s2_spec, 0, 0, EMPTY, np.array([1.0]), np.array([1.0])
        )
        assert presc.qbar.shape == (1, 1)
        assert presc.ktilde is not None
        # K_0 = -(1/5)[[3,1],[1,2]] applied to (x0, xhat) = (1, 1).
        assert presc.u0 == pytest.approx([-0.8])
        assert presc.qbar[0] == pytest.approx([-0.6])

    def test_local_action_adds_innovation(self, s2_spec, s2_bundle):
        xh = np.array([1.0])
        presc = control.compute_prescription(
            s2_bundle.gains, s2_spec, 0, 0, EMPTY, np.array([1.0]), xh
        )
        u1 = local_action(presc, np.array([3.0]), 0, xh)
        # Ktilde_0 = -1/2 on the innovation (3 - 1).
        assert u1 == pytest.approx([-0.6 - 1.0])

    def test_received_branch_no_innovation(self, s2_spec, s2_bundle):
        xh = np.array([99.0])
        presc = control.compute_prescription(
            s2_bundle.gains, s2_spec, 0, 0, 0, np.array([1.0]), xh
        )
        assert presc.ktilde is None
        u1 = local_action(presc, np.array([3.0]), 0, xh)
        assert u1 == pytest.approx(presc.qbar[0])


class TestCentralized:
    def test_s2_centralized_tables(self, s2_spec):
        sol = control.centralized_solve(s2_spec)
        assert sol.P[2, 0, 0] == pytest.approx(np.zeros((2, 2)))
        assert sol.P[1, 0, 0] == pytest.approx(np.eye(2))
        assert sol.P[0, 0, 0] == pytest.approx(
            np.array([[8.0, 1.0], [1.0, 7.0]]) / 5.0, abs=1e-12
        )
        assert sol.K[0, 0, 0] == pytest.approx(
            -np.array([[3.0, 1.0], [1.0, 2.0]]) / 5.0, abs=1e-12
        )

    def test_matches_decentralized_at_perfect_channel(self, battery):
        # p1 = 1: every transmission succeeds, so the decentralized value at
        # the received branch equals the centralized value function.
        for spec in battery:
            if spec.channel.p1 != 1.0:
                continue
            bundle = solver.solve_backward(spec)
            sol = control.centralized_solve(spec)
            steps = spec.T + 1
            assert bundle.values.P[:steps, :, :EMPTY] == pytest.approx(sol.P[:steps], abs=1e-10)


def _expected_action(policy, kind, cen, t, m0, m1, gamma, x0, x1, xh):
    """u from the prescription functions (optimal) or the gain formulas on
    the centralized solution `cen` (ce, centralized)."""
    spec = policy.spec
    d, m = spec.dims, spec.modes
    if kind == "optimal":
        presc = control.compute_prescription(
            policy.gains, spec, t, m0, m1 if gamma == 1 else EMPTY, x0, xh
        )
        return np.concatenate([presc.u0, local_action(presc, x1, m1, xh)])
    if kind == "zero":
        return np.zeros(d.d_u)
    K = cen.K[t, m0]
    if kind == "centralized" or gamma == 1:
        return K[m1] @ np.concatenate([x0, x1])
    # Certainty equivalence: u0 from the mode-averaged gain on (x0, xhat);
    # u1 from the true local mode's gain plus its x1 feedback on x1 - xhat.
    common = np.concatenate([x0, xh])
    u0 = sum(m.pi_m1[j] * K[j][:d.d_u0] for j in range(m.kappa1)) @ common
    Kc = K[m1]
    u1 = Kc[d.d_u0:] @ common + Kc[d.d_u0:, d.d_x0:] @ (x1 - xh)
    return np.concatenate([u0, u1])


class TestPolicyMaps:
    """Each step's maps (`policy.stage(t)`) agree with the
    prescription/estimator functions and with the reference policies' gain
    formulas."""

    @pytest.mark.parametrize("kind", ["optimal", "zero", "ce", "centralized"])
    def test_action_map_consistency(self, battery, kind):
        for spec in battery[:6]:
            bundle = solver.solve_backward(spec) if kind == "optimal" else None
            policy = control.make_policy(kind, spec, bundle=bundle)
            cen = control.centralized_solve(spec) if kind in ("ce", "centralized") else None
            rng = np.random.default_rng(7)
            d = spec.dims
            for t in range(spec.T + 1):
                theta_t = policy.stage(t)[0]
                assert theta_t.shape == (spec.modes.kappa0, spec.modes.kappa1, 2, d.d_u, d.d_x + d.d_x1)
                for m0 in range(spec.modes.kappa0):
                    for m1 in range(spec.modes.kappa1):
                        for gamma in (0, 1):
                            x0 = rng.standard_normal(d.d_x0)
                            x1 = rng.standard_normal(d.d_x1)
                            xh = rng.standard_normal(d.d_x1)
                            if kind == "centralized" or gamma == 1:
                                # On success the common estimate equals the
                                # received state; the maps assume that.
                                xh = x1.copy()
                            xi = np.concatenate([x0, x1, xh])
                            theta = theta_t[m0, m1, gamma]
                            assert np.array_equal(policy.stage(t)[0][m0, m1, gamma], theta)
                            assert theta @ xi == pytest.approx(
                                _expected_action(policy, kind, cen, t, m0, m1, gamma, x0, x1, xh),
                                abs=1e-10,
                            )

    @pytest.mark.parametrize("kind", ["optimal", "zero", "ce"])
    def test_mean_update_map_consistency(self, battery, kind):
        for spec in battery[:6]:
            bundle = solver.solve_backward(spec) if kind == "optimal" else None
            policy = control.make_policy(kind, spec, bundle=bundle)
            rng = np.random.default_rng(11)
            d = spec.dims
            for t in range(spec.T + 1):
                mean_update_t = policy.stage(t)[1]
                assert mean_update_t.shape == (spec.modes.kappa0, spec.modes.kappa1, 2, d.d_x1, d.d_x + d.d_x1)
                for m0 in range(spec.modes.kappa0):
                    for m1 in range(spec.modes.kappa1):
                        for gamma_t in (0, 1):
                            x0 = rng.standard_normal(d.d_x0)
                            x1 = rng.standard_normal(d.d_x1)
                            xh = x1.copy() if gamma_t == 1 else rng.standard_normal(d.d_x1)
                            xi = np.concatenate([x0, x1, xh])
                            zt = m1 if gamma_t == 1 else EMPTY
                            presc = control.compute_prescription(
                                policy.gains, spec, t, m0, zt, x0, xh
                            )
                            vec = estimator_update(spec, xh, x0, m0, zt, presc, None)
                            M = mean_update_t[m0, m1, gamma_t]
                            assert np.array_equal(policy.stage(t)[1][m0, m1, gamma_t], M)
                            assert M @ xi == pytest.approx(vec, abs=1e-10)

    def test_centralized_estimate_copies_state(self, s2_spec):
        policy = control.make_policy("centralized", s2_spec)
        for t in range(s2_spec.T + 1):
            theta, mean_update = policy.stage(t)
            assert mean_update is None
            assert np.array_equal(theta[:, :, 0], theta[:, :, 1])

    def test_stage_transpose_is_adjoint_of_stage(self, battery):
        # stage(t) is affine in the gains at t; its transpose must satisfy
        # <stage_K(t) - stage_0(t), bars> = <K[t], transpose(bars)> at every t.
        rng = np.random.default_rng(13)
        for spec in battery:
            zero = control.make_policy("zero", spec)
            gains = solver.GainTables(*(rng.standard_normal(a.shape) for a in (
                zero.gains.K_empty, zero.gains.K_received, zero.gains.Ktilde
            )))
            policy = control.LinearCommonPolicy(spec, gains)
            for t in range(spec.T + 1):
                (theta, mean_update), (theta_0, mean_update_0) = policy.stage(t), zero.stage(t)
                theta_bar = rng.standard_normal(theta.shape)
                mean_bar = rng.standard_normal(mean_update.shape)
                lhs = np.sum((theta - theta_0) * theta_bar) + np.sum((mean_update - mean_update_0) * mean_bar)
                back = policy.stage_transpose(theta_bar, mean_bar)
                step = (gains.K_empty[t], gains.K_received[t], gains.Ktilde[t])
                assert [b.shape for b in back] == [k.shape for k in step]
                rhs = sum(np.sum(k * b) for k, b in zip(step, back))
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_policy_holds_nothing_that_grows_with_the_horizon(self):
        # Beside its spec and gains, a policy keeps only per-policy
        # constants, the same at T and at 4T, even after every step was built.
        def held(T):
            spec = model.load_config(random_config(np.random.default_rng(7), T=T))
            policy = control.make_policy("optimal", spec, solver.solve_backward(spec))
            for t in range(spec.T + 1):
                policy.stage(t)
            return {k: getattr(v, "shape", v) for k, v in vars(policy).items() if k not in ("spec", "gains")}

        assert held(240) == held(60)

    def test_zero_policy_is_zero(self, s2_spec):
        policy = control.make_policy("zero", s2_spec)
        for t in range(s2_spec.T + 1):
            theta, mean_update = policy.stage(t)
            assert not theta.any()
            # The estimate still propagates the plant's own state.
            assert mean_update.any()

    def test_unknown_kind(self, s2_spec):
        with pytest.raises(ValueError):
            control.make_policy("pid", s2_spec)

    def test_optimal_needs_bundle(self, s2_spec):
        with pytest.raises(ValueError):
            control.make_policy("optimal", s2_spec)
