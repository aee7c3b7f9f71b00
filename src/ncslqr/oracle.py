"""Exact expected-cost evaluation by a second-moment recursion.

For every mode/channel sequence the closed loop is linear in the stacked
state xi = vec(x0, x1, xhat), so the expected stage costs follow from
second-moment propagation. A constant coordinate is appended to xi so
nonzero initial means ride inside the same moment recursion. The stage maps
are indexed by consecutive channel bits because the estimator branch at
time t depends on both gamma_t and gamma_{t+1}. Modes are i.i.d. and the
channel is Bernoulli, so the moments need only be split on the current
channel bit (the Markov jump linear system recursion of Costa, Fragoso &
Marques, 2005, ch. 3): an evaluation builds at most 2 (T+1) kappa0 kappa1
stage maps, however many sequences the instance has; the map for
gamma_{t+1} = 1 is the one for 0 with its xhat rows replaced. Actions and
estimator maps are lookups into the policy's compiled tables
(`control.compile_policy`), the same ones the simulator steps through.

The stationarity check perturbs copies of the optimal policy's gain arrays
(`solver.GainTables`) entry by entry.
"""

import dataclasses

import numpy as np

from .control import OptimalPolicy
from .errors import OptimalityViolation, UnsupportedPolicyError
from .model import assemble_system


def _check_policy(policy):
    if not (hasattr(policy, "action_map") and hasattr(policy, "mean_update_map")):
        raise UnsupportedPolicyError(
            f"policy {getattr(policy, 'name', policy)!r} does not expose linear stage maps"
        )


def _selectors(spec):
    d = spec.dims
    n = d.d_x0 + 2 * d.d_x1 + 1  # augmented with a constant coordinate
    lam_x = np.zeros((d.d_x, n))
    lam_x[:d.d_x0, :d.d_x0] = np.eye(d.d_x0)
    lam_x[d.d_x0:, d.d_x0:d.d_x0 + d.d_x1] = np.eye(d.d_x1)
    return n, lam_x


def build_closed_loop(spec, policy, t, m0, m1, gamma_t, gamma_next):
    """Stage maps (F, G, Theta_aug, M) for one realized (t, modes, bits).

    F propagates the augmented state, G injects vec(w0, w1), Theta_aug maps
    the augmented state to actions, and M is the stage-cost matrix.
    """
    _check_policy(policy)
    d = spec.dims
    n, lam_x = _selectors(spec)
    theta = policy.action_map(t, m0, m1, gamma_t)
    theta_aug = np.hstack([theta, np.zeros((d.d_u, 1))])

    Q = spec.cost.Q[t, m0, m1]
    R = spec.cost.R[t, m0, m1]
    M = lam_x.T @ Q @ lam_x + theta_aug.T @ R @ theta_aug

    _, _, D = assemble_system(spec, m0, m1)
    x_rows = D @ np.vstack([lam_x, theta_aug])  # (d_x, n)
    F = np.zeros((n, n))
    G = np.zeros((n, d.d_x))
    F[:d.d_x, :] = x_rows
    G[:d.d_x, :] = np.eye(d.d_x)
    F[-1, -1] = 1.0
    mu_map = policy.mean_update_map(t, m0, m1, gamma_t)
    if gamma_next == 1 or mu_map is None:
        # xhat copies x1 (always, for the full-information reference).
        _estimate_received(spec, F, G)
    else:
        F[d.d_x:d.d_x + d.d_x1, :-1] = mu_map
    return F, G, theta_aug, 0.5 * (M + M.T)


def _estimate_received(spec, F, G):
    """Overwrite the xhat rows of (F, G) in place with the x1 rows."""
    d = spec.dims
    hat = slice(d.d_x, d.d_x + d.d_x1)
    F[hat, :] = F[d.d_x0:d.d_x, :]
    G[hat, :] = G[d.d_x0:d.d_x, :]


def _initial_moment(spec, gamma0):
    d, st = spec.dims, spec.stoch
    n, _ = _selectors(spec)
    mu = np.concatenate([st.mu_x0, st.mu_x1, st.mu_x1])
    cov = np.zeros((n - 1, n - 1))
    cov[:d.d_x0, :d.d_x0] = st.cov_x0
    i1 = slice(d.d_x0, d.d_x0 + d.d_x1)
    ih = slice(d.d_x0 + d.d_x1, n - 1)
    cov[i1, i1] = st.cov_x1
    if gamma0 == 1:
        cov[ih, ih] = st.cov_x1
        cov[i1, ih] = st.cov_x1
        cov[ih, i1] = st.cov_x1
    Sigma = np.zeros((n, n))
    Sigma[:-1, :-1] = cov + np.outer(mu, mu)
    Sigma[:-1, -1] = mu
    Sigma[-1, :-1] = mu
    Sigma[-1, -1] = 1.0
    return Sigma


def _stage_moments(spec, policy):
    """Yield (t, gamma, w, S, M) for every (t, gamma_t, m0, m1) of positive
    probability: S = S_t^gamma = E[xi_t xi_t' 1{gamma_t = gamma}], w =
    pi(m0) pi(m1), and M the stage-cost matrix of that mode pair.

    Its constant-coordinate entry S[-1, -1] is P(gamma_t = gamma), the mass
    that weights the injected noise.
    """
    _check_policy(policy)
    m = spec.modes
    T = spec.T
    p1 = spec.channel.p1
    d = spec.dims
    p_gamma = (1.0 - p1, p1)
    n, _ = _selectors(spec)

    S = [p_gamma[g] * _initial_moment(spec, g) for g in (0, 1)]
    for t in range(T + 1):
        W = np.zeros((d.d_x, d.d_x))
        W[:d.d_x0, :d.d_x0] = spec.stoch.covW0[t]
        W[d.d_x0:, d.d_x0:] = spec.stoch.covW1[t]
        S_next = [np.zeros((n, n)), np.zeros((n, n))]
        for gamma in (0, 1):
            if p_gamma[gamma] == 0.0:
                continue
            mass = S[gamma][-1, -1]
            for m0 in range(m.kappa0):
                for m1 in range(m.kappa1):
                    w = m.pi_m0[m0] * m.pi_m1[m1]
                    if w == 0.0:
                        continue
                    # The stage cost depends only on (t, modes, gamma_t);
                    # gamma_next changes only the xhat rows of F and G.
                    F0, G0, _, M = build_closed_loop(spec, policy, t, m0, m1, gamma, 0)
                    yield t, gamma, w, S[gamma], M
                    if t == T:
                        continue
                    for gamma_next in (0, 1):
                        pg = p_gamma[gamma_next]
                        if pg == 0.0:
                            continue
                        F, G = F0, G0
                        if gamma_next == 1:
                            F, G = F0.copy(), G0.copy()
                            _estimate_received(spec, F, G)
                        S_next[gamma_next] += (w * pg) * (
                            F @ S[gamma] @ F.T + mass * (G @ W @ G.T)
                        )
        S = S_next


def exact_expected_cost(spec, policy, return_prob=False):
    """Exact expected total cost of a linear policy.

    Sums the stage costs over the moments S_t^g, g in {0, 1}, of
    `_stage_moments`. With `return_prob`, also returns the probability
    mass reached at t = T (1 up to rounding).
    """
    total = 0.0
    prob_mass = 0.0
    for t, _, w, S, M in _stage_moments(spec, policy):
        total += w * float(np.sum(M * S))
        if t == spec.T:
            prob_mass += w * S[-1, -1]
    if return_prob:
        return total, prob_mass
    return total


def _perturbed_optimal(spec, bundle, deltas):
    """Optimal policy on copies of the bundle's gain arrays plus `deltas`,
    a map from gain-array name to an array of that array's shape."""
    gains = dataclasses.replace(
        bundle.gains, **{name: getattr(bundle.gains, name) + delta for name, delta in deltas.items()}
    )
    return OptimalPolicy(spec, dataclasses.replace(bundle, gains=gains))


def _gain_entries(gains):
    """(array name, index) of every gain entry, in the bundle file's order:
    per (t, m0) the empty-branch gain, then the received ones; then Ktilde."""
    steps, kappa0 = gains.K_received.shape[:2]
    for t, m0 in np.ndindex(steps, kappa0):
        for i, j in np.ndindex(gains.K_empty.shape[2:]):
            yield "K_empty", (t, m0, i, j)
        for m1, i, j in np.ndindex(gains.K_received.shape[2:]):
            yield "K_received", (t, m0, m1, i, j)
    for index in np.ndindex(gains.Ktilde.shape):
        yield "Ktilde", index


def _describe(name, index):
    """Report entry in the bundle file's terms: table K or Ktilde, t, the
    (m0, ztilde) key with ztilde None for the empty branch, and (row, col)."""
    t, m0, *rest = index
    key = [m0, None] if name == "K_empty" else [m0, rest.pop(0)]
    return {"table": "Ktilde" if name == "Ktilde" else "K", "t": t, "index": key, "entry": rest}


def stationarity_check(
    spec,
    bundle,
    eps=1e-4,
    max_entries=40,
    n_perturbations=20,
    perturbation_norm=1e-3,
    grad_tol=1e-6,
    decrease_tol=1e-10,
    seed=0,
    raise_on_violation=True,
):
    """Finite-difference optimality certificate for the solved gains.

    Central differences of the exact cost with respect to sampled gain
    entries must vanish, and random small gain perturbations must never
    reduce the exact cost.
    """
    base_policy = OptimalPolicy(spec, bundle)
    base_cost = exact_expected_cost(spec, base_policy)
    tol = grad_tol * (1.0 + abs(base_cost))

    entries = list(_gain_entries(bundle.gains))
    rng = np.random.default_rng(seed)
    if len(entries) > max_entries:
        picks = rng.choice(len(entries), size=max_entries, replace=False)
        entries = [entries[i] for i in sorted(picks)]

    max_grad = 0.0
    worst = None
    for name, index in entries:
        delta = np.zeros(getattr(bundle.gains, name).shape)
        delta[index] = eps
        cost_hi = exact_expected_cost(spec, _perturbed_optimal(spec, bundle, {name: delta}))
        cost_lo = exact_expected_cost(spec, _perturbed_optimal(spec, bundle, {name: -delta}))
        grad = (cost_hi - cost_lo) / (2.0 * eps)
        if abs(grad) > max_grad:
            max_grad = abs(grad)
            worst = _describe(name, index)

    max_decrease = 0.0
    names = ("K_empty", "K_received", "Ktilde")
    for _ in range(n_perturbations):
        deltas = {name: rng.standard_normal(getattr(bundle.gains, name).shape) for name in names}
        norm = float(np.linalg.norm(np.concatenate([delta.ravel() for delta in deltas.values()])))
        for delta in deltas.values():
            delta *= perturbation_norm / norm
        cost_p = exact_expected_cost(spec, _perturbed_optimal(spec, bundle, deltas))
        max_decrease = max(max_decrease, base_cost - cost_p)

    report = {
        "exact_cost": base_cost,
        "j_star": bundle.j_star,
        "max_abs_gradient": max_grad,
        "gradient_tolerance": tol,
        "worst_entry": worst,
        "max_cost_decrease": max_decrease,
        "entries_checked": len(entries),
        "perturbations": n_perturbations,
        "ok": max_grad <= tol and max_decrease <= decrease_tol,
    }
    if raise_on_violation and not report["ok"]:
        raise OptimalityViolation(
            f"gain optimality violated: max |gradient| {max_grad:.3e} "
            f"(tol {tol:.3e}), max cost decrease {max_decrease:.3e}",
            where=worst,
            gradient=max_grad,
        )
    return report


def oracle_report(spec, policy, j_star=None):
    """Machine-readable comparison of exact cost against the analytic value."""
    cost, prob = exact_expected_cost(spec, policy, return_prob=True)
    out = {
        "policy": getattr(policy, "name", "unknown"),
        "exact_cost": cost,
        "sequence_probability_mass": prob,
    }
    if j_star is not None:
        out["j_star"] = j_star
        out["abs_diff"] = abs(cost - j_star)
        out["rel_diff"] = abs(cost - j_star) / max(1e-300, abs(j_star))
    return out
