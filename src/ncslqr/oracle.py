"""Exact expected cost of a linear policy, and its exact gain gradient.

A linear policy makes the closed loop linear in the stacked state xi =
vec(x0, x1, xhat), augmented with a constant coordinate so nonzero initial
means ride inside the same moment recursion. Modes are i.i.d. and the
channel is Bernoulli, so the second moments need only be split on the
current channel bit, S_t^g = E[xi_t xi_t' 1{gamma_t = g}] (the Markov jump
linear system recursion of Costa, Fragoso & Marques, 2005, ch. 3), however
many mode/channel sequences the instance has.

Each step's stage maps are built when a pass reaches that step, as arrays
over (mode pair, gamma_t), straight from the policy's step-t maps
(`policy.stage(t)`, the ones the simulator steps through): F
propagates xi when the next transmission fails, and M is the stage-cost
matrix. When it succeeds the map is E F, where E copies the x1 rows into
the xhat rows; under full information it copies on both bits. The initial
moment is step 0 of the same recursion, through E0, which copies only when
the first transmission succeeds. Each step is a few batched matmuls over
mode pairs and bits, and the cost's working memory is one step's maps and
moments, whatever the horizon.

The expected cost J = sum over t, pairs and g of w tr(M S_t^g) is linear in
every moment, so one backward pass of the costates Lambda_t^g = dJ/dS_t^g
(the dual recursion) gives dJ/dF and dJ/dM for every stage map. That pass
rebuilds each step's maps rather than keeping them from the forward pass
(checkpointing: Griewank & Walther, Evaluating Derivatives, 2nd ed., 2008,
ch. 12), so the gradient keeps only the moments S_t over the horizon. Step t's
transpose (`policy.stage_transpose`) carries the maps' cotangents to the
gains at t as the pass reaches it (cf. the gain-gradient conditions of
Levine & Athans, IEEE TAC 15(1), 1970).
`stationarity_check` certifies every gain entry with that gradient and
returns its verdict in a report. A non-finite cost, probability mass or
gradient raises NonFiniteError.
"""

import numpy as np

from . import philox
from .control import LinearCommonPolicy, make_policy
from .errors import NonFiniteError, UnsupportedPolicyError
from .model import assemble_system  # noqa: F401  (perfbench/launch.py wraps oracle.assemble_system)
from .solver import GainTables, gain_shapes


def _T(M):
    return np.swapaxes(M, -1, -2)


def _check_policy(policy):
    if not hasattr(policy, "stage"):
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
    """(F, Theta_aug, M) for stacked nodes (modes, gamma_t) of one step.

    The leading axes of the policy's maps `theta` and `mean_update` (None
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
    one node of the step maps the evaluator builds (`_ClosedLoop.maps`).
    """
    _check_policy(policy)
    theta, mean_update = policy.stage(t)
    node = (m0, m1, gamma_t)
    F, theta_aug, M = _stage_maps(
        spec,
        theta[node],
        None if mean_update is None else mean_update[node],
        spec.D[m0, m1],
        spec.cost.Q[t, m0, m1],
        spec.cost.R[t, m0, m1],
    )
    E = _copy_maps(spec, mean_update is None)[1][gamma_next]
    return E @ F, E[:, :spec.dims.d_x], theta_aug, M


class _ClosedLoop:
    """A linear policy's closed loop over the mode pairs and channel bits of
    positive probability, so a zero weight never multiplies an infinite
    entry. It holds only per-policy constants; `maps(t)` builds one step's
    stage maps when a pass reaches it.
    """

    def __init__(self, spec, policy):
        _check_policy(policy)
        m = spec.modes
        self.spec, self.policy = spec, policy
        w = np.outer(m.pi_m0, m.pi_m1).ravel()
        p = np.array([1.0 - spec.channel.p1, spec.channel.p1])
        self.pairs = np.flatnonzero(w > 0.0)[:, None]  # (P, 1) flat m0 * kappa1 + m1
        self.gammas = np.flatnonzero(p > 0.0)          # (C,) channel bits g
        self.w, self.p = w[self.pairs[:, 0]], p[self.gammas]
        E0, E = _copy_maps(spec, policy.full_information)
        self.E0, self.E = E0[self.gammas], E[self.gammas]
        self.D = self.rows(spec.D)

    def rows(self, table):
        """The kept pairs of a (..., kappa0, kappa1, a, b) table, as (..., P, 1, a, b)."""
        return table.reshape(table.shape[:-4] + (-1,) + table.shape[-2:])[..., self.pairs, :, :]

    def nodes(self, table):
        """The kept (pair, g) of a step's (kappa0, kappa1, 2, a, b) map, as (P, C, a, b)."""
        return table.reshape((-1, 2) + table.shape[3:])[self.pairs, self.gammas]

    def scatter(self, bar):
        """Transpose of `nodes`: a (kappa0, kappa1, 2, a, b) map that is `bar`
        at the kept (pair, g) and zero elsewhere."""
        m = self.spec.modes
        table = np.zeros((m.kappa0 * m.kappa1, 2) + bar.shape[2:])
        table[self.pairs, self.gammas] = bar
        return table.reshape((m.kappa0, m.kappa1) + table.shape[1:])

    def maps(self, t):
        """(F, Theta_aug, M) of step t over the kept (pair, g), from
        `_stage_maps`, and W, the covariance vec(w0_t, w1_t) adds to the x
        rows of the augmented state."""
        spec = self.spec
        theta, mean_update = self.policy.stage(t)
        F, theta_aug, M = _stage_maps(
            spec,
            self.nodes(theta),
            None if mean_update is None else self.nodes(mean_update),
            self.D,
            self.rows(spec.cost.Q[t]),
            self.rows(spec.cost.R[t]),
        )
        n, x1, _ = _layout(spec)
        W = np.zeros((n, n))
        W[:spec.dims.d_x0, :spec.dims.d_x0], W[x1, x1] = spec.stoch.covW0[t], spec.stoch.covW1[t]
        return F, theta_aug, M, W


def _moments(spec, loop):
    """Yields (stage cost, S_t) for t = 0..T: S_t[c] = S_t^g =
    E[xi_t xi_t' 1{gamma_t = g}] for g = loop.gammas[c], and its cost sums
    w tr(M S_t^g) over the pairs and bits.

    S_{t+1}^g = P(g) E_g Y_t E_g', where Y_t sums w F S_t F' over the pairs
    and bits of t plus the noise W_t, weighted by the mass S_t[-1, -1].
    Step 0 is the same with E0 and Y_{-1}, the second moment of (x0, x1,
    mu_x1, 1).
    """
    d, st = spec.dims, spec.stoch
    w, p, E = loop.w, loop.p, loop.E
    _, x1, _ = _layout(spec)
    mean = np.concatenate([st.mu_x0, st.mu_x1, st.mu_x1, [1.0]])
    Y = np.zeros(E.shape[1:])
    Y[:d.d_x0, :d.d_x0], Y[x1, x1] = st.cov_x0, st.cov_x1
    Y += np.outer(mean, mean)
    S = p[:, None, None] * (loop.E0 @ Y @ _T(loop.E0))
    for t in range(spec.T + 1):
        F, _, M, W = loop.maps(t)
        yield float(np.einsum("p,pcij,cij->", w, M, S)), S
        if t < spec.T:
            Y = np.tensordot(w, (F @ S @ _T(F)).sum(axis=1), axes=1)
            Y += w.sum() * S[:, -1, -1].sum() * W
            S = p[:, None, None] * (E @ Y @ _T(E))


def _costates(spec, loop):
    """Yields (t, F_t, Theta_aug_t, L_t) for t = T down to 0, where L_t =
    dJ/dY_t comes from the backward (dual) recursion; L_T is None, since no
    cost reads Y_T.

    Lambda_T^g sums w M over the pairs; then L_t = sum_g P(g) E_g'
    Lambda_{t+1}^g E_g, and Lambda_t^g sums w (M + F' L_t F) plus the noise
    term tr(W_t L_t), which lands on the constant coordinate.
    """
    w, p, E = loop.w, loop.p, loop.E
    F, theta_aug, M, _ = loop.maps(spec.T)
    yield spec.T, F, theta_aug, None
    Lam = np.tensordot(w, M, axes=1)
    for t in range(spec.T - 1, -1, -1):
        L = np.tensordot(p, _T(E) @ Lam @ E, axes=1)
        F, theta_aug, M, W = loop.maps(t)
        yield t, F, theta_aug, L
        Lam = np.tensordot(w, M + _T(F) @ L @ F, axes=1)
        Lam[:, -1, -1] += w.sum() * np.sum(W * L)


@np.errstate(over="ignore", invalid="ignore")
def exact_expected_cost(spec, policy, return_prob=False):
    """Exact expected total cost of a linear policy.

    Sums w tr(M S_t^g) over every stage. With `return_prob`, also returns
    the probability mass reached at t = T (1 up to rounding).
    """
    loop = _ClosedLoop(spec, policy)
    total = 0.0
    for cost, S in _moments(spec, loop):
        total += cost
    prob = float(loop.w.sum() * S[:, -1, -1].sum())
    if not (np.isfinite(total) and np.isfinite(prob)):
        raise NonFiniteError(f"exact cost {total!r} or probability mass {prob!r} non-finite")
    return (total, prob) if return_prob else total


@np.errstate(over="ignore", invalid="ignore")
def exact_gradient(spec, policy):
    """(J, dJ/dgains): the exact expected cost of a decentralized linear
    policy and its gradient with respect to every entry of the policy's
    gain arrays, as a `solver.GainTables`.

    With L_t the costate of `_costates`, step t's maps get dJ/dTheta_aug =
    2 w (R Theta_aug + B' (L_t F)[x rows]) S_t^g and dJ/d(mean_update) =
    2 w (L_t F)[xhat rows] S_t^g; as the costate pass reaches t, step t's
    transpose (`policy.stage_transpose`) carries them to the gains at t.
    """
    if getattr(policy, "full_information", False):
        raise UnsupportedPolicyError(
            f"policy {policy.name!r} has no decentralized gains to differentiate"
        )
    loop = _ClosedLoop(spec, policy)
    costs, S = zip(*_moments(spec, loop))
    d, w = spec.dims, loop.w[:, None, None, None]
    _, _, hat = _layout(spec)
    B = loop.D[..., d.d_x:]
    grads = GainTables(*(np.zeros(shape) for shape in gain_shapes(spec)))
    for t, F, theta_aug, L in _costates(spec, loop):
        d_theta = loop.rows(spec.cost.R[t]) @ theta_aug
        if L is None:
            mean_bar = np.zeros(F[..., hat, :-1].shape)
        else:
            LF = L @ F
            d_theta += _T(B) @ LF[..., :d.d_x, :]
            mean_bar = (2.0 * w * (LF[..., hat, :] @ S[t]))[..., :-1]
        theta_bar = (2.0 * w * (d_theta @ S[t]))[..., :-1]
        grads.K_empty[t], grads.K_received[t], grads.Ktilde[t] = policy.stage_transpose(
            loop.scatter(theta_bar), loop.scatter(mean_bar)
        )
    cost = sum(costs)
    if not (np.isfinite(cost) and all(np.isfinite(g).all() for g in vars(grads).values())):
        raise NonFiniteError(f"exact cost {cost!r} or its gain gradient non-finite")
    return cost, grads


def _worst_entry(grads):
    """(max |entry|, where) over the gradient tables in the bundle's table
    order: the first largest entry, a NaN counting as the largest, is at
    where = {"table": name, "index": its full index into that table}."""
    tables = vars(grads)
    flat = np.abs(np.concatenate([table.ravel() for table in tables.values()]))
    i = int(np.argmax(flat))
    largest = float(flat[i])
    for name, table in tables.items():
        if i < table.size:
            return largest, {"table": name, "index": [int(k) for k in np.unravel_index(i, table.shape)]}
        i -= table.size


def _perturbed_cost(spec, solved, i, norm):
    """The exact cost of the gain tables `solved` moved by perturbation i
    of size `norm` (stationarity_check). It is drawn here, so that the
    check holds one perturbation at a time."""
    sizes = [gain.size for gain in solved]
    blocks = np.arange(-(-sum(sizes) // 4), dtype=np.uint64)
    words = philox.blocks(philox.key(0), np.full(1, i, dtype=np.uint64), blocks, np.zeros(1, dtype=np.uint64))
    delta = philox.box_muller(philox.uniforms(words)).ravel()[:sum(sizes)]
    delta *= norm / np.linalg.norm(delta, axis=0)
    parts = np.split(delta, np.cumsum(sizes)[:-1])
    gains = GainTables(*(gain + part.reshape(gain.shape) for gain, part in zip(solved, parts)))
    return exact_expected_cost(spec, LinearCommonPolicy(spec, gains))


def stationarity_check(
    spec,
    bundle,
    n_perturbations=20,
    perturbation_norm=1e-3,
    grad_tol=1e-6,
    decrease_tol=1e-10,
):
    """Optimality certificate for the solved gains, as a report whose `ok`
    holds the verdict; a violation is reported, never raised.

    The exact gradient of the exact cost (`exact_gradient`) must vanish in
    every gain entry, and random small gain perturbations must never reduce
    the exact cost. Perturbation i stacks the gain tables' entries in the
    bundle's table order (K_empty, K_received, Ktilde) and draws them as
    the standard normals of Philox blocks (i, j, 0) under the key of seed 0
    (`ncslqr.philox`), four per block j, then scales them to total norm
    `perturbation_norm`.
    """
    base_policy = make_policy("optimal", spec, bundle)
    base_cost, grads = exact_gradient(spec, base_policy)
    tol = grad_tol * (1.0 + abs(base_cost))
    max_grad, where = _worst_entry(grads)

    solved = list(vars(bundle.gains).values())
    max_decrease = 0.0
    for i in range(n_perturbations):
        max_decrease = max(max_decrease, base_cost - _perturbed_cost(spec, solved, i, perturbation_norm))

    return {
        "exact_cost": base_cost,
        "j_star": bundle.j_star,
        "max_abs_gradient": max_grad,
        "gradient_tolerance": tol,
        "worst_entry": None if max_grad == 0.0 else where,
        "max_cost_decrease": max_decrease,
        "entries_checked": sum(gain.size for gain in solved),
        "perturbations": n_perturbations,
        "ok": bool(max_grad <= tol and max_decrease <= decrease_tol),
    }


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
