"""Exact expected cost of a linear policy, and its exact gain gradient.

A linear policy makes the closed loop linear in the stacked state xi =
vec(x0, x1, xhat), augmented with a constant coordinate so nonzero initial
means ride inside the same moment recursion. Modes are i.i.d. and the
channel is Bernoulli, so the second moments need only be split on the
current channel bit, S_t^g = E[xi_t xi_t' 1{gamma_t = g}] (the Markov jump
linear system recursion of Costa, Fragoso & Marques, 2005, ch. 3), however
many mode/channel sequences the instance has.

The stage maps are built once per policy as stacked arrays over (t, mode
pair, gamma_t), straight from its compiled tables (`control.compile_policy`,
the ones the simulator steps through): F propagates xi when the next
transmission fails, and M is the stage-cost matrix. When it succeeds the
map is E F, where E copies the x1 rows into the xhat rows; under full
information it copies on both bits. The initial moment is step 0 of the
same recursion, through E0, which copies only when the first transmission
succeeds. Each step is a few batched matmuls over mode pairs and bits.

The expected cost J = sum over t, pairs and g of w tr(M S_t^g) is linear in
every moment, so one backward pass of the costates Lambda_t^g = dJ/dS_t^g
(the dual recursion) gives dJ/dF and dJ/dM for every stage map at once,
and the transpose of `compile_policy` carries them to the gain arrays (cf.
the gain-gradient conditions of Levine & Athans, IEEE TAC 15(1), 1970).
`stationarity_check` certifies every gain entry with that gradient. A
non-finite cost, probability mass or gradient raises NonFiniteError.
"""

import dataclasses

import numpy as np

from . import philox
from .control import LinearCommonPolicy, compile_policy_transpose, make_policy
from .errors import NonFiniteError, OptimalityViolation, UnsupportedPolicyError
from .model import assemble_system  # noqa: F401  (perfbench/launch.py wraps oracle.assemble_system)
from .solver import GainTables


def _T(M):
    return np.swapaxes(M, -1, -2)


def _check_policy(policy):
    if not hasattr(policy, "tables"):
        raise UnsupportedPolicyError(
            f"policy {getattr(policy, 'name', policy)!r} does not expose linear stage maps"
        )


def _layout(spec):
    """Size n of the augmented state, and the slices of its x1 and xhat rows."""
    d = spec.dims
    return d.d_x0 + 2 * d.d_x1 + 1, slice(d.d_x0, d.d_x), slice(d.d_x, d.d_x + d.d_x1)


def _copy_maps(spec, full_information):
    """(E0, E), each (2, n, n) over the channel bit g: E[g] copies the x1
    rows into the xhat rows for g = 1, and for both bits under full
    information. E0, of step 0, copies for g = 1 only: xhat_0 = mu_x1 after
    a failed first transmission even under full information."""
    n, x1, hat = _layout(spec)
    E0 = np.stack([np.eye(n)] * 2)
    E0[1, hat] = E0[1, x1]
    return E0, E0[[1, 1]] if full_information else E0


def _stage_maps(spec, theta, mean_update, D, Q, R):
    """(F, Theta_aug, M) for stacked nodes (t, modes, gamma_t).

    The leading axes of the policy tables `theta` and `mean_update` (None
    under full information, whose xhat rows the copy maps E fill), of
    D = [A B] and of the cost weights Q and R broadcast together. F
    propagates the augmented state when the next transmission fails,
    Theta_aug maps it to vec(u0, u1), and M is the stage-cost matrix.
    """
    d = spec.dims
    n, _, hat = _layout(spec)
    theta_aug = np.concatenate([theta, np.zeros(theta.shape[:-1] + (1,))], axis=-1)
    lead = np.broadcast_shapes(theta.shape[:-2], D.shape[:-2], Q.shape[:-2], R.shape[:-2])
    F = np.zeros(lead + (n, n))
    F[..., :d.d_x, :] = D[..., d.d_x:] @ theta_aug
    F[..., :d.d_x, :d.d_x] += D[..., :d.d_x]
    F[..., -1, -1] = 1.0
    if mean_update is not None:
        F[..., hat, :-1] = mean_update
    M = np.zeros(lead + (n, n))
    M[...] = _T(theta_aug) @ R @ theta_aug
    M[..., :d.d_x, :d.d_x] += Q
    return F, theta_aug, 0.5 * (M + _T(M))


def build_closed_loop(spec, policy, t, m0, m1, gamma_t, gamma_next):
    """Stage maps (F, G, Theta_aug, M) of one realized (t, modes, bits).

    F propagates the augmented state, G injects vec(w0, w1), Theta_aug maps
    the augmented state to actions, and M is the stage-cost matrix. This is
    one node of the stacked maps the evaluator builds.
    """
    _check_policy(policy)
    d, tables = spec.dims, policy.tables
    node = (t, m0, m1, gamma_t)
    F, theta_aug, M = _stage_maps(
        spec,
        tables.theta[node],
        None if tables.mean_update is None else tables.mean_update[node],
        spec.D[m0, m1],
        spec.cost.Q[t, m0, m1],
        spec.cost.R[t, m0, m1],
    )
    E = _copy_maps(spec, tables.mean_update is None)[1][gamma_next]
    return E @ F, E[:, :d.d_x], theta_aug, M


@dataclasses.dataclass(frozen=True)
class _Stages:
    """Stacked stage maps of one policy over (t, pair, g).

    Only mode pairs and channel bits of positive probability are kept, so a
    zero weight never multiplies an infinite entry.
    """

    pairs: np.ndarray   # (P,) flat mode-pair indices m0 * kappa1 + m1
    w: np.ndarray       # (P,) pi(m0) pi(m1)
    gammas: np.ndarray  # (C,) channel bits g
    p: np.ndarray       # (C,) P(gamma = g)
    E0: np.ndarray      # (C, n, n) E of step 0
    E: np.ndarray       # (C, n, n) copies x1 into xhat (`_copy_maps`)
    F: np.ndarray       # (T+1, P, C, n, n)
    theta_aug: np.ndarray  # (T+1, P, C, d_u, n)
    M: np.ndarray       # (T+1, P, C, n, n)
    B: np.ndarray       # (P, 1, d_x, d_u)
    R: np.ndarray       # (T+1, P, 1, d_u, d_u)
    noise: np.ndarray   # (T+1, n, n) covariance of vec(w0, w1) in the x rows


def _stages(spec, policy):
    _check_policy(policy)
    d, m, st, tables = spec.dims, spec.modes, spec.stoch, policy.tables
    steps, k = spec.T + 1, m.kappa0 * m.kappa1
    n, x1, _ = _layout(spec)
    w = np.outer(m.pi_m0, m.pi_m1).ravel()
    pairs = np.flatnonzero(w > 0.0)
    p_all = np.array([1.0 - spec.channel.p1, spec.channel.p1])
    gammas = np.flatnonzero(p_all > 0.0)

    def nodes(table):
        return table.reshape((steps, k, 2) + table.shape[4:])[:, pairs[:, None], gammas]

    def per_pair(table):
        return table.reshape(table.shape[:-4] + (k,) + table.shape[-2:])[..., pairs, None, :, :]

    D, R = per_pair(spec.D), per_pair(spec.cost.R)
    F, theta_aug, M = _stage_maps(
        spec,
        nodes(tables.theta),
        None if tables.mean_update is None else nodes(tables.mean_update),
        D,
        per_pair(spec.cost.Q),
        R,
    )
    E0, E = _copy_maps(spec, tables.mean_update is None)
    noise = np.zeros((steps, n, n))
    noise[:, :d.d_x0, :d.d_x0] = st.covW0
    noise[:, x1, x1] = st.covW1
    return _Stages(
        pairs=pairs, w=w[pairs], gammas=gammas, p=p_all[gammas], E0=E0[gammas], E=E[gammas],
        F=F, theta_aug=theta_aug, M=M, B=D[..., d.d_x:], R=R, noise=noise,
    )


def _moments(spec, stages):
    """S[t, c] = S_t^g for g = stages.gammas[c]: E[xi_t xi_t' 1{gamma_t = g}].

    S_{t+1}^g = P(g) E_g Y_t E_g', where Y_t sums w F S_t F' over the pairs
    and bits of t plus the noise, weighted by the mass S_t[-1, -1]. Step 0
    is the same with E0 and Y_{-1}, the second moment of (x0, x1, mu_x1, 1).
    """
    d, st = spec.dims, spec.stoch
    w, p, E = stages.w, stages.p, stages.E
    _, x1, _ = _layout(spec)
    mean = np.concatenate([st.mu_x0, st.mu_x1, st.mu_x1, [1.0]])
    Y = np.zeros(E.shape[1:])
    Y[:d.d_x0, :d.d_x0], Y[x1, x1] = st.cov_x0, st.cov_x1
    Y += np.outer(mean, mean)
    S = np.empty((spec.T + 1,) + E.shape)
    S[0] = p[:, None, None] * (stages.E0 @ Y @ _T(stages.E0))
    for t in range(spec.T):
        F = stages.F[t]
        Y = np.tensordot(w, (F @ S[t] @ _T(F)).sum(axis=1), axes=1)
        Y += w.sum() * S[t, :, -1, -1].sum() * stages.noise[t]
        S[t + 1] = p[:, None, None] * (E @ Y @ _T(E))
    return S


def _costates(spec, stages):
    """L[t] = dJ/dY_t for t < T, by the backward (dual) recursion.

    Lambda_T^g sums w M over the pairs; then L_t = sum_g P(g) E_g'
    Lambda_{t+1}^g E_g, and Lambda_t^g sums w (M + F' L_t F) plus the noise
    term tr(W L_t), which lands on the constant coordinate.
    """
    w, p, E = stages.w, stages.p, stages.E
    Lam = np.tensordot(w, stages.M[spec.T], axes=1)
    L = np.empty((spec.T,) + Lam.shape[1:])
    for t in range(spec.T - 1, -1, -1):
        L[t] = np.tensordot(p, _T(E) @ Lam @ E, axes=1)
        F = stages.F[t]
        Lam = np.tensordot(w, stages.M[t] + _T(F) @ L[t] @ F, axes=1)
        Lam[:, -1, -1] += w.sum() * np.sum(stages.noise[t] * L[t])
    return L


def _cost(stages, S):
    return float(np.einsum("p,tpcij,tcij->", stages.w, stages.M, S))


@np.errstate(over="ignore", invalid="ignore")
def exact_expected_cost(spec, policy, return_prob=False):
    """Exact expected total cost of a linear policy.

    Sums w tr(M S_t^g) over every stage. With `return_prob`, also returns
    the probability mass reached at t = T (1 up to rounding).
    """
    stages = _stages(spec, policy)
    S = _moments(spec, stages)
    total = _cost(stages, S)
    prob = float(stages.w.sum() * S[-1, :, -1, -1].sum())
    if not (np.isfinite(total) and np.isfinite(prob)):
        raise NonFiniteError(f"exact cost {total!r} or probability mass {prob!r} non-finite")
    return (total, prob) if return_prob else total


@np.errstate(over="ignore", invalid="ignore")
def exact_gradient(spec, policy):
    """(J, dJ/dgains): the exact expected cost of a decentralized linear
    policy and its gradient with respect to every entry of the policy's
    gain arrays, as a `solver.GainTables`.

    With L_t the costate of `_costates`, the stage maps get dJ/dTheta_aug =
    2 w (R Theta_aug + B' (L_t F)[x rows]) S_t^g and dJ/d(mean_update) =
    2 w (L_t F)[xhat rows] S_t^g; the transpose of `compile_policy` sums
    them into the gain arrays.
    """
    if getattr(policy, "full_information", False):
        raise UnsupportedPolicyError(
            f"policy {policy.name!r} has no decentralized gains to differentiate"
        )
    stages = _stages(spec, policy)
    S = _moments(spec, stages)
    L = _costates(spec, stages)
    d, T, w = spec.dims, spec.T, stages.w[:, None, None, None]
    _, _, hat = _layout(spec)
    LF = L[:, None, None] @ stages.F[:T]
    d_theta = stages.R @ stages.theta_aug
    d_theta[:T] += _T(stages.B) @ LF[..., :d.d_x, :]
    d_theta = 2.0 * w * (d_theta @ S[:, None])
    d_mean = 2.0 * w * (LF[..., hat, :] @ S[:T, None])

    tables = policy.tables
    steps, k = T + 1, spec.modes.kappa0 * spec.modes.kappa1
    theta_bar = np.zeros(tables.theta.shape)
    mean_bar = np.zeros(tables.mean_update.shape)
    index = (stages.pairs[:, None], stages.gammas)
    theta_bar.reshape((steps, k, 2) + theta_bar.shape[4:])[(slice(None),) + index] = d_theta[..., :-1]
    mean_bar.reshape((steps, k, 2) + mean_bar.shape[4:])[(slice(T),) + index] = d_mean[..., :-1]
    cost = _cost(stages, S)
    grads = compile_policy_transpose(spec, theta_bar, mean_bar)
    if not (np.isfinite(cost) and all(np.isfinite(g).all() for g in vars(grads).values())):
        raise NonFiniteError(f"exact cost {cost!r} or its gain gradient non-finite")
    return cost, grads


def _largest_entry(grads):
    """(max |entry|, (array name, index)) over the three gradient arrays.

    Ties go to the first entry in the bundle file's order: per (t, m0) the
    empty-branch gain, then the received ones; then Ktilde. A NaN counts
    as the largest.
    """
    steps, kappa0 = grads.K_received.shape[:2]
    per_step = np.concatenate([
        grads.K_empty.reshape(steps, kappa0, -1), grads.K_received.reshape(steps, kappa0, -1)
    ], axis=2)
    flat = np.abs(np.concatenate([per_step.ravel(), grads.Ktilde.ravel()]))
    i = int(np.argmax(flat))
    if i >= per_step.size:
        name, index = "Ktilde", np.unravel_index(i - per_step.size, grads.Ktilde.shape)
    else:
        t, m0, j = np.unravel_index(i, per_step.shape)
        n_empty = grads.K_empty[0, 0].size
        if j < n_empty:
            name, index = "K_empty", (t, m0) + np.unravel_index(j, grads.K_empty.shape[2:])
        else:
            rest = np.unravel_index(j - n_empty, grads.K_received.shape[2:])
            name, index = "K_received", (t, m0) + rest
    return float(flat[i]), (name, tuple(int(k) for k in index))


def _describe(name, index):
    """Report entry in the bundle file's terms: table K or Ktilde, t, the
    (m0, ztilde) key with ztilde None for the empty branch, and (row, col)."""
    t, m0, *rest = index
    key = [m0, None] if name == "K_empty" else [m0, rest.pop(0)]
    return {"table": "Ktilde" if name == "Ktilde" else "K", "t": t, "index": key, "entry": rest}


def stationarity_check(
    spec,
    bundle,
    n_perturbations=20,
    perturbation_norm=1e-3,
    grad_tol=1e-6,
    decrease_tol=1e-10,
    raise_on_violation=True,
):
    """Optimality certificate for the solved gains.

    The exact gradient of the exact cost (`exact_gradient`) must vanish in
    every gain entry, and random small gain perturbations must never reduce
    the exact cost. Perturbation i stacks the three gain arrays' entries in
    order and draws them as the standard normals of Philox blocks (i, j, 0)
    under the key of seed 0 (`ncslqr.philox`), four per block j, then scales
    them to total norm `perturbation_norm`.
    """
    base_policy = make_policy("optimal", spec, bundle)
    base_cost, grads = exact_gradient(spec, base_policy)
    tol = grad_tol * (1.0 + abs(base_cost))
    max_grad, (name, index) = _largest_entry(grads)
    worst = None if max_grad == 0.0 else _describe(name, index)

    names = ("K_empty", "K_received", "Ktilde")
    solved = [getattr(bundle.gains, name) for name in names]
    sizes = [gain.size for gain in solved]
    blocks = -(-sum(sizes) // 4)
    words = philox.blocks(
        philox.key(0),
        np.arange(n_perturbations, dtype=np.uint64)[:, None],
        np.arange(blocks, dtype=np.uint64),
        np.zeros(1, dtype=np.uint64),
    )
    deltas = philox.box_muller(philox.uniforms(words)).reshape(n_perturbations, 4 * blocks)[:, :sum(sizes)]
    deltas *= perturbation_norm / np.linalg.norm(deltas, axis=1, keepdims=True)
    max_decrease = 0.0
    for delta in deltas:
        parts = np.split(delta, np.cumsum(sizes)[:-1])
        gains = GainTables(*(gain + part.reshape(gain.shape) for gain, part in zip(solved, parts)))
        cost_p = exact_expected_cost(spec, LinearCommonPolicy(spec, gains))
        max_decrease = max(max_decrease, base_cost - cost_p)

    report = {
        "exact_cost": base_cost,
        "j_star": bundle.j_star,
        "max_abs_gradient": max_grad,
        "gradient_tolerance": tol,
        "worst_entry": worst,
        "max_cost_decrease": max_decrease,
        "entries_checked": sum(getattr(grads, name).size for name in names),
        "perturbations": n_perturbations,
        "ok": bool(max_grad <= tol and max_decrease <= decrease_tol),
    }
    if raise_on_violation and not report["ok"]:
        raise OptimalityViolation(
            f"gain optimality violated: max |gradient| {max_grad:.3e} "
            f"(tol {tol:.3e}), max cost decrease {max_decrease:.3e}",
            where=worst,
        )
    return report


def oracle_report(spec, policy, j_star):
    """Machine-readable comparison of exact cost against the analytic value."""
    cost, prob = exact_expected_cost(spec, policy, return_prob=True)
    return {
        "policy": getattr(policy, "name", "unknown"),
        "exact_cost": cost,
        "sequence_probability_mass": prob,
        "j_star": j_star,
        "abs_diff": abs(cost - j_star),
        "rel_diff": abs(cost - j_star) / max(1e-300, abs(j_star)),
    }
