"""Executable controllers built on top of a solved bundle.

The optimal decentralized policy follows the solved gain tables: the global
controller applies the empty-branch gain K_empty[t, m0] to vec(x0, xhat),
or the received-branch gain K_received[t, m0, m1] to vec(x0, x1) once the
local mode m1 has arrived; the local controller adds an innovation term
through Ktilde[t, m0, m1] when nothing was transmitted. Both controllers
maintain the same common estimate xhat of the local state, updated by the
three-branch recursion keyed on consecutive channel bits.

Every policy, the optimum and the references (zero input, a
certainty-equivalent heuristic on the centralized gains, and the
full-information centralized controller), is one `LinearCommonPolicy`
whose three gain arrays (`policy.gains`, a `solver.GainTables`)
`make_policy` fills for its kind; a bundle handed to it must fit the
problem, whatever the kind. `compile_policy` turns the gains into
time-varying linear maps of (x0, x1, xhat) for the simulator and the exact
evaluator; its transpose, `compile_policy_transpose`, carries the
evaluator's exact gradient with respect to those maps back to the gains.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import NonFiniteError, ShapeError, SingularBlockError
from .model import assemble_system
from .solver import EMPTY, GainTables, gain_shapes


@dataclass
class Prescription:
    """Per-step output of the common-information coordinator."""

    u0: np.ndarray
    qbar: np.ndarray                     # (kappa1, d_u1); rows for unobserved modes are 0 when ztilde != EMPTY
    ktilde: Optional[np.ndarray] = None  # (kappa1, d_u1, d_x1) innovation gains; None when ztilde != EMPTY
    ztilde: int = EMPTY


def compute_prescription(gains, spec, t, m0, ztilde, x0, x_hat1):
    d, m = spec.dims, spec.modes
    xin = np.concatenate([x0, x_hat1])
    qbar = np.zeros((m.kappa1, d.d_u1))
    if ztilde == EMPTY:
        v = gains.K_empty[t, m0] @ xin
        qbar[:] = v[d.d_u0:].reshape(m.kappa1, d.d_u1)
        return Prescription(u0=v[:d.d_u0], qbar=qbar, ktilde=gains.Ktilde[t, m0], ztilde=EMPTY)
    v = gains.K_received[t, m0, ztilde] @ xin
    qbar[ztilde] = v[d.d_u0:]
    return Prescription(u0=v[:d.d_u0], qbar=qbar, ktilde=None, ztilde=ztilde)


def local_action(presc, x1, m1, x_hat1):
    """u1 = qbar(m1) plus the innovation term when nothing was transmitted."""
    if presc.ztilde == EMPTY:
        return presc.qbar[m1] + presc.ktilde[m1] @ (x1 - x_hat1)
    # Successful transmission: the prescription already pins qbar(ztilde)
    # and the local mode observed by C0 is the true one.
    return presc.qbar[presc.ztilde].copy()


def estimator_update(spec, x_hat1, x0, m0, ztilde_t, presc, z_next):
    """Three-branch conditional-mean recursion for xhat."""
    d, m = spec.dims, spec.modes
    if z_next is not None:
        return np.array(z_next, dtype=float)
    if ztilde_t == EMPTY:
        x_next = np.zeros(d.d_x1)
        for m1 in range(m.kappa1):
            _, _, D = assemble_system(spec, m0, m1)
            s = np.concatenate([x0, x_hat1, presc.u0, presc.qbar[m1]])
            x_next += m.pi_m1[m1] * (D[d.d_x0:, :] @ s)
        return x_next
    _, _, D = assemble_system(spec, m0, ztilde_t)
    s = np.concatenate([x0, x_hat1, presc.u0, presc.qbar[ztilde_t]])
    return D[d.d_x0:, :] @ s


# --- centralized oracle -----------------------------------------------------


@dataclass
class CentralizedSolution:
    """Full-information switched-LQR tables; independent of the solver module."""

    P: np.ndarray  # (T+2, kappa0, kappa1, d_x, d_x)
    K: np.ndarray  # (T+1, kappa0, kappa1, d_u, d_x)


@np.errstate(over="ignore", invalid="ignore")
def centralized_solve(spec):
    """Standard switched-LQR backward recursion with i.i.d. modes.

    Written directly against numpy (no shared code with the decentralized
    recursion) so it can serve as a cross-check oracle at p1 = 1. Overflow
    is not warned about: a non-finite H block raises NonFiniteError before
    its PD guard.
    """
    d, m = spec.dims, spec.modes
    T = spec.T
    systems = [[assemble_system(spec, m0, m1) for m1 in range(m.kappa1)] for m0 in range(m.kappa0)]
    A = np.array([[s[0] for s in row] for row in systems])
    B = np.array([[s[1] for s in row] for row in systems])
    At, Bt = np.swapaxes(A, -1, -2), np.swapaxes(B, -1, -2)
    weights = np.outer(m.pi_m0, m.pi_m1)
    P = np.zeros((T + 2, m.kappa0, m.kappa1, d.d_x, d.d_x))
    K = np.zeros((T + 1, m.kappa0, m.kappa1, d.d_u, d.d_x))
    for t in range(T, -1, -1):
        Pbar = np.tensordot(weights, P[t + 1], axes=2)
        Huu = spec.cost.R[t] + Bt @ Pbar @ B
        Hux = Bt @ Pbar @ A
        Hxx = spec.cost.Q[t] + At @ Pbar @ A
        finite = [np.isfinite(H).all(axis=(-2, -1)) for H in (Huu, Hux, Hxx)]
        bad = np.argwhere(~np.logical_and.reduce(finite))
        if len(bad):
            m0, m1 = bad[0]
            raise NonFiniteError(f"centralized H non-finite at t={t}, m0={m0 + 1}, m1={m1 + 1}")
        lo = np.linalg.eigvalsh(0.5 * (Huu + np.swapaxes(Huu, -1, -2))).min(axis=-1)
        bad = np.argwhere(lo <= 1e-10 * np.maximum(1.0, np.linalg.norm(Huu, 2, axis=(-2, -1))))
        if len(bad):
            m0, m1 = bad[0]
            raise SingularBlockError(
                f"centralized H^UU not PD at t={t}, m0={m0 + 1}, m1={m1 + 1}"
            )
        G = np.linalg.solve(Huu, Hux)
        K[t] = -G
        Pt = Hxx - np.swapaxes(Hux, -1, -2) @ G
        P[t] = 0.5 * (Pt + np.swapaxes(Pt, -1, -2))
    return CentralizedSolution(P=P, K=K)


# --- policies ---------------------------------------------------------------


@dataclass(frozen=True)
class CompiledPolicy:
    """A linear policy as stacked closed-loop tables; xi = vec(x0, x1, xhat).

    theta[t, m0, m1, gamma] maps xi to vec(u0, u1). mean_update[t, m0, m1,
    gamma] maps xi to xhat_{t+1} when the next transmission fails; it is
    None when xhat simply copies x1. D[m0, m1] is [A B] for the mode pair.
    """

    theta: np.ndarray                   # (T+1, kappa0, kappa1, 2, d_u, n_xi)
    mean_update: Optional[np.ndarray]   # (T+1, kappa0, kappa1, 2, d_x1, n_xi)
    D: np.ndarray                       # (kappa0, kappa1, d_x, d_x + d_u)


def _selectors(spec):
    """Slices of x1 and xhat in xi = vec(x0, x1, xhat), and the 0/1 matrices
    picking (x0, x1) and (x0, xhat) out of xi; products with them copy
    entries exactly."""
    d = spec.dims
    n = d.d_x0 + 2 * d.d_x1
    x1 = slice(d.d_x0, d.d_x)
    return x1, slice(d.d_x, n), np.eye(n)[:d.d_x], np.delete(np.eye(n), x1, axis=0)


def compile_policy(spec, policy):
    """Stage tables of a linear policy, sliced from its gain arrays.

    The policy has the common-information form of Nayyar, Mahajan &
    Teneketzis (IEEE TAC 58(7), 2013). gamma_t = 1: the received-branch
    gain for the realized local mode acts on (x0, x1). gamma_t = 0: the
    empty-branch gain acts on (x0, xhat), and u1 adds the innovation gain on
    x1 - xhat. The estimate that follows a failed transmission propagates
    xhat through the realized mode pair after a success, and averages over
    the unobserved local mode otherwise.
    """
    d, m = spec.dims, spec.modes
    k0, k1 = m.kappa0, m.kappa1
    gains = policy.gains
    x1, xh, sel_x, sel_common = _selectors(spec)

    D = np.array([[assemble_system(spec, i, j)[2] for j in range(k1)] for i in range(k0)])
    received = gains.K_received @ sel_x
    theta = np.stack([received, received], axis=3)
    if policy.full_information:
        return CompiledPolicy(theta=theta, mean_update=None, D=D)

    steps = spec.T + 1
    qbar = gains.K_empty[:, :, d.d_u0:].reshape(steps, k0, k1, d.d_u1, d.d_x)
    u0 = np.broadcast_to(gains.K_empty[:, :, None, :d.d_u0], qbar.shape[:3] + (d.d_u0, d.d_x))
    # Actions from common information alone, for every local mode.
    blind = np.concatenate([u0, qbar], axis=-2) @ sel_common
    theta[..., 0, :, :] = blind
    theta[..., 0, d.d_u0:, x1] = gains.Ktilde
    theta[..., 0, d.d_u0:, xh] -= gains.Ktilde

    # xhat_{t+1} = D1 @ vec(state, u): through the realized pair after a
    # success; otherwise averaged over the local mode, xhat standing in for x1.
    D1 = D[:, :, d.d_x0:, :]

    def propagate(state_sel, acts):
        states = np.broadcast_to(state_sel, acts.shape[:3] + state_sel.shape)
        return D1 @ np.concatenate([states, acts], axis=-2)

    mean_update = np.empty(theta.shape[:4] + (d.d_x1, theta.shape[-1]))
    mean_update[..., 1, :, :] = propagate(sel_x, received)
    averaged = propagate(sel_common, blind)
    mean_update[..., 0, :, :] = sum(m.pi_m1[j] * averaged[:, :, j] for j in range(k1))[:, :, None]
    return CompiledPolicy(theta=theta, mean_update=mean_update, D=D)


def compile_policy_transpose(spec, D, theta_bar, mean_update_bar):
    """Transpose of `compile_policy` for a decentralized policy.

    `compile_policy` is affine in the gain arrays. This maps cotangents of
    its tables (shaped like `CompiledPolicy.theta` and `.mean_update`, with
    D its mode-pair systems) to cotangents of K_empty, K_received and
    Ktilde, so that <tables(K) - tables(0), bars> = <K, transpose(bars)>.
    """
    d, m = spec.dims, spec.modes
    steps, k0, k1 = spec.T + 1, m.kappa0, m.kappa1
    x1, xh, sel_x, sel_common = _selectors(spec)
    B1t = np.swapaxes(D[:, :, d.d_x0:, d.d_x:], -1, -2)
    blind_bar, received_bar = theta_bar[..., 0, :, :], theta_bar[..., 1, :, :]

    # mean_update[..., 1] = B1 @ received + const; mean_update[..., 0] is
    # sum_j pi_m1[j] B1[:, j] @ blind[:, :, j] + const, repeated over m1.
    received_bar = received_bar + B1t @ mean_update_bar[..., 1, :, :]
    averaged_bar = mean_update_bar[..., 0, :, :].sum(axis=2)[:, :, None]
    blind_bar = blind_bar + m.pi_m1[:, None, None] * (B1t @ averaged_bar)

    common_bar = blind_bar @ sel_common.T
    return GainTables(
        K_empty=np.concatenate([
            common_bar[:, :, :, :d.d_u0].sum(axis=2),
            common_bar[:, :, :, d.d_u0:].reshape(steps, k0, k1 * d.d_u1, d.d_x),
        ], axis=2),
        K_received=received_bar @ sel_x.T,
        Ktilde=theta_bar[..., 0, d.d_u0:, x1] - theta_bar[..., 0, d.d_u0:, xh],
    )


class LinearCommonPolicy:
    """Policy linear in (x0, xhat) commonly and (x1 - xhat) locally.

    `gains` holds its three gain arrays (see `solver`): K_empty maps
    vec(x0, xhat) to vec(u0, qbar(1..kappa1)) when nothing was received,
    K_received[t, m0, m1] maps vec(x0, x1) to vec(u0, u1) once m1 was
    received, and Ktilde maps the innovation x1 - xhat to u1. The simulator
    and the exact evaluator both read the policy through its compiled tables
    (`compile_policy`), built once per policy. `name` only labels reports.
    """

    def __init__(self, spec, gains, name="linear"):
        self.spec = spec
        self.gains = gains
        self.name = name

    @property
    def full_information(self):
        """True when both controllers see the true joint state, so xhat is x1."""
        return self.gains.K_empty is None

    @cached_property
    def tables(self):
        return compile_policy(self.spec, self)


def make_policy(kind, spec, bundle=None):
    """LinearCommonPolicy `kind` for `spec`: "optimal" takes the gains of
    `bundle`, which it needs, and "ce" and "centralized" are built from
    `centralized_solve`. A bundle that does not fit the problem's gain
    shapes raises ShapeError, whatever the kind."""
    if kind not in ("optimal", "zero", "ce", "centralized"):
        raise ValueError(f"unknown policy kind {kind!r}")
    want = gain_shapes(spec)
    if bundle is not None and bundle.gains.shapes() != want:
        raise ShapeError(
            f"solution gain tables have shapes {bundle.gains.shapes()}, "
            f"but this problem needs {want}"
        )
    if kind == "optimal":
        if bundle is None:
            raise ValueError("optimal policy needs a solved bundle")
        gains = bundle.gains
    elif kind == "zero":
        gains = GainTables(*(np.zeros(shape) for shape in want))
    elif kind == "centralized":
        # Full-information reference: both actions from the true joint
        # state. Not implementable in the decentralized information
        # structure; its estimate coordinate simply tracks x1.
        gains = GainTables(K_empty=None, K_received=centralized_solve(spec).K, Ktilde=None)
    else:
        # Deliberately suboptimal heuristic: plug the common estimate into
        # the centralized gains. The global controller averages the gain
        # over the unobserved local mode; the local controller uses the true
        # mode and adds the centralized local-state feedback on the
        # innovation.
        d, m = spec.dims, spec.modes
        K = centralized_solve(spec).K
        u0 = np.einsum("j,tkjab->tkab", m.pi_m1, K[..., :d.d_u0, :])
        qbar = K[..., d.d_u0:, :].reshape(K.shape[:2] + (m.kappa1 * d.d_u1, d.d_x))
        gains = GainTables(
            K_empty=np.concatenate([u0, qbar], axis=2),
            K_received=K,
            Ktilde=K[..., d.d_u0:, d.d_x0:],
        )
    return LinearCommonPolicy(spec, gains, name=kind)
