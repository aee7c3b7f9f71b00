"""Executable controllers built on top of a solved bundle.

The optimal decentralized policy follows the solved gain tables: the global
controller applies the (m0, ztilde)-indexed gain to vec(x0, xhat); the local
controller adds an innovation term through the local gain when nothing was
transmitted. Both controllers maintain the same common estimate xhat of the
local state, updated by the three-branch recursion keyed on consecutive
channel bits.

Reference policies (zero input, a certainty-equivalent heuristic on the
centralized gains, and the full-information centralized controller) live
here too, behind the same interface, so the simulator and the exact
evaluator can treat every policy as a family of time-varying linear maps of
(x0, x1, xhat).
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import SingularBlockError
from .model import assemble_system
from .solver import EMPTY


@dataclass
class EstimatorState:
    """Common estimate of the local state, mu(theta_t)."""

    x_hat1: np.ndarray


@dataclass
class Prescription:
    """Per-step output of the common-information coordinator."""

    u0: np.ndarray
    qbar: np.ndarray               # (kappa1, d_u1); rows for unobserved modes are 0 when ztilde != empty
    ktilde: Optional[dict] = None  # (m0, m1) -> gain; None when ztilde != empty
    ztilde: object = EMPTY
    m0: int = 0


@dataclass
class Observation:
    x0: np.ndarray
    m0: int
    gamma: int
    z: Optional[np.ndarray] = None
    ztilde: object = EMPTY
    x1: Optional[np.ndarray] = None
    m1: Optional[int] = None


def estimator_init(spec, obs_0):
    """xhat_0 is the prior mean, or the transmitted state on success."""
    if obs_0.gamma == 1:
        return EstimatorState(x_hat1=np.array(obs_0.z, dtype=float))
    return EstimatorState(x_hat1=spec.stoch.mu_x1.copy())


def compute_prescription(bundle, spec, t, m0, ztilde, x0, est):
    d, m = spec.dims, spec.modes
    xin = np.concatenate([x0, est.x_hat1])
    qbar = np.zeros((m.kappa1, d.d_u1))
    if ztilde is EMPTY:
        v = bundle.gains.K[t][(m0, EMPTY)] @ xin
        u0 = v[:d.d_u0]
        qbar[:] = v[d.d_u0:].reshape(m.kappa1, d.d_u1)
        ktilde = {
            (m0, m1): bundle.gains.Ktilde[t][(m0, m1)] for m1 in range(m.kappa1)
        }
        return Prescription(u0=u0, qbar=qbar, ktilde=ktilde, ztilde=EMPTY, m0=m0)
    v = bundle.gains.K[t][(m0, ztilde)] @ xin
    qbar[ztilde] = v[d.d_u0:]
    return Prescription(u0=v[:d.d_u0], qbar=qbar, ktilde=None, ztilde=ztilde, m0=m0)


def local_action(presc, x1, m1, est):
    """u1 = qbar(m1) plus the innovation term when nothing was transmitted."""
    if presc.ztilde is EMPTY:
        gain = presc.ktilde[(presc.m0, m1)]
        return presc.qbar[m1] + gain @ (x1 - est.x_hat1)
    # Successful transmission: the prescription already pins qbar(ztilde)
    # and the local mode observed by C0 is the true one.
    return presc.qbar[presc.ztilde].copy()


def estimator_update(spec, bundle, t, est, x0, m0, ztilde_t, presc, z_next):
    """Three-branch conditional-mean recursion for xhat."""
    d, m = spec.dims, spec.modes
    if z_next is not None:
        return EstimatorState(x_hat1=np.array(z_next, dtype=float))
    if ztilde_t is EMPTY:
        x_next = np.zeros(d.d_x1)
        for m1 in range(m.kappa1):
            _, _, D = assemble_system(spec, m0, m1)
            s = np.concatenate([x0, est.x_hat1, presc.u0, presc.qbar[m1]])
            x_next += m.pi_m1[m1] * (D[d.d_x0:, :] @ s)
        return EstimatorState(x_hat1=x_next)
    _, _, D = assemble_system(spec, m0, ztilde_t)
    s = np.concatenate([x0, est.x_hat1, presc.u0, presc.qbar[ztilde_t]])
    return EstimatorState(x_hat1=D[d.d_x0:, :] @ s)


# --- centralized oracle -----------------------------------------------------


@dataclass
class CentralizedSolution:
    """Full-information switched-LQR tables; independent of the solver module."""

    P: list  # t = 0..T+1, dict (m0, m1) -> (d_x, d_x)
    K: list  # t = 0..T, dict (m0, m1) -> (d_u, d_x)


def centralized_solve(spec):
    """Standard switched-LQR backward recursion with i.i.d. modes.

    Written directly against numpy (no shared code with the decentralized
    recursion) so it can serve as a cross-check oracle at p1 = 1.
    """
    d, m = spec.dims, spec.modes
    T = spec.T
    P = [None] * (T + 2)
    K = [None] * (T + 1)
    P[T + 1] = {
        (m0, m1): np.zeros((d.d_x, d.d_x))
        for m0 in range(m.kappa0)
        for m1 in range(m.kappa1)
    }
    for t in range(T, -1, -1):
        Pbar = np.zeros((d.d_x, d.d_x))
        for m0 in range(m.kappa0):
            for m1 in range(m.kappa1):
                Pbar += m.pi_m0[m0] * m.pi_m1[m1] * P[t + 1][(m0, m1)]
        P[t], K[t] = {}, {}
        for m0 in range(m.kappa0):
            for m1 in range(m.kappa1):
                A, B, _ = assemble_system(spec, m0, m1)
                Q = spec.cost.Q[t, m0, m1]
                R = spec.cost.R[t, m0, m1]
                Huu = R + B.T @ Pbar @ B
                Hux = B.T @ Pbar @ A
                lo = float(np.linalg.eigvalsh(0.5 * (Huu + Huu.T)).min())
                if lo <= 1e-10 * max(1.0, float(np.linalg.norm(Huu, 2))):
                    raise SingularBlockError(
                        f"centralized H^UU not PD at t={t}, m0={m0 + 1}, m1={m1 + 1}"
                    )
                Kt = -np.linalg.solve(Huu, Hux)
                Pt = Q + A.T @ Pbar @ A - Hux.T @ np.linalg.solve(Huu, Hux)
                P[t][(m0, m1)] = 0.5 * (Pt + Pt.T)
                K[t][(m0, m1)] = Kt
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


def compile_policy(spec, policy):
    """Stage tables of a linear policy, sliced from its gain tables.

    gamma_t = 1: the joint gain for the received mode acts on (x0, x1).
    gamma_t = 0: the common gain acts on (x0, xhat), and u1 adds the
    innovation gain on x1 - xhat. The estimate that follows a failed
    transmission propagates xhat through the realized mode pair after a
    success, and averages over the unobserved local mode otherwise.
    """
    d, m = spec.dims, spec.modes
    k0, k1, steps = m.kappa0, m.kappa1, range(spec.T + 1)
    n = d.d_x0 + 2 * d.d_x1
    x1, xh = slice(d.d_x0, d.d_x), slice(d.d_x, n)
    # Rows of xi picked as (x0, x1) and as (x0, xhat); products with these
    # 0/1 selectors copy entries exactly.
    sel_x, sel_common = np.eye(n)[:d.d_x], np.delete(np.eye(n), x1, axis=0)

    D = np.array([[assemble_system(spec, i, j)[2] for j in range(k1)] for i in range(k0)])
    received = np.array([
        [[policy.joint_gain(t, i, j) for j in range(k1)] for i in range(k0)] for t in steps
    ]) @ sel_x
    theta = np.stack([received, received], axis=3)
    if policy.full_information:
        return CompiledPolicy(theta=theta, mean_update=None, D=D)

    common = np.array([[policy.joint_gain(t, i, EMPTY) for i in range(k0)] for t in steps])
    qbar = common[:, :, d.d_u0:].reshape(spec.T + 1, k0, k1, d.d_u1, d.d_x)
    u0 = np.broadcast_to(common[:, :, None, :d.d_u0], qbar.shape[:3] + (d.d_u0, d.d_x))
    # Actions from common information alone, for every local mode.
    blind = np.concatenate([u0, qbar], axis=-2) @ sel_common
    innov = np.array([
        [[policy.innovation_gain(t, i, j) for j in range(k1)] for i in range(k0)] for t in steps
    ])
    theta[..., 0, :, :] = blind
    theta[..., 0, d.d_u0:, x1] = innov
    theta[..., 0, d.d_u0:, xh] -= innov

    # xhat_{t+1} = D1 @ vec(state, u): through the realized pair after a
    # success; otherwise averaged over the local mode, xhat standing in for x1.
    D1 = D[:, :, d.d_x0:, :]

    def propagate(state_sel, acts):
        states = np.broadcast_to(state_sel, acts.shape[:3] + state_sel.shape)
        return D1 @ np.concatenate([states, acts], axis=-2)

    mean_update = np.empty(theta.shape[:4] + (d.d_x1, n))
    mean_update[..., 1, :, :] = propagate(sel_x, received)
    averaged = propagate(sel_common, blind)
    mean_update[..., 0, :, :] = sum(m.pi_m1[j] * averaged[:, :, j] for j in range(k1))[:, :, None]
    return CompiledPolicy(theta=theta, mean_update=mean_update, D=D)


class LinearCommonPolicy:
    """Policy linear in (x0, xhat) commonly and (x1 - xhat) locally.

    Subclasses provide joint_gain(t, m0, ztilde) mapping vec(x0, xhat) to
    vec(u0, qbar(1..kappa1)) when ztilde is empty, or vec(x0, x1) to
    vec(u0, qbar(l)) when ztilde = l, plus innovation_gain(t, m0, m1).
    The simulator and the exact evaluator both read the policy through
    its compiled tables (`compile_policy`), built once per policy.
    """

    name = "linear"
    # True when both controllers see the true joint state, so xhat is x1.
    full_information = False

    def __init__(self, spec):
        self.spec = spec

    def joint_gain(self, t, m0, ztilde):
        raise NotImplementedError

    def innovation_gain(self, t, m0, m1):
        raise NotImplementedError

    @cached_property
    def tables(self):
        return compile_policy(self.spec, self)

    def action_map(self, t, m0, m1, gamma):
        """u = Theta @ xi for the realized (m0, m1, gamma)."""
        return self.tables.theta[t, m0, m1, gamma]

    def mean_update_map(self, t, m0, m1, gamma):
        """xhat_{t+1} = M @ xi when the next transmission fails; None when
        xhat copies x1 regardless of the channel."""
        if self.tables.mean_update is None:
            return None
        return self.tables.mean_update[t, m0, m1, gamma]


class OptimalPolicy(LinearCommonPolicy):
    """The solved decentralized optimum: the bundle's K and K~ tables."""

    name = "optimal"

    def __init__(self, spec, bundle):
        super().__init__(spec)
        self.bundle = bundle

    def joint_gain(self, t, m0, ztilde):
        return self.bundle.gains.K[t][(m0, ztilde)]

    def innovation_gain(self, t, m0, m1):
        return self.bundle.gains.Ktilde[t][(m0, m1)]


class ZeroPolicy(LinearCommonPolicy):
    name = "zero"

    def joint_gain(self, t, m0, ztilde):
        d, m = self.spec.dims, self.spec.modes
        rows = d.d_u0 + (m.kappa1 * d.d_u1 if ztilde is EMPTY else d.d_u1)
        return np.zeros((rows, d.d_x))

    def innovation_gain(self, t, m0, m1):
        return np.zeros((self.spec.dims.d_u1, self.spec.dims.d_x1))


class CertaintyEquivalentPolicy(LinearCommonPolicy):
    """Deliberately suboptimal heuristic: plug the common estimate into the
    centralized gains. The global controller averages the gain over the
    unobserved local mode; the local controller uses the true mode and adds
    the centralized local-state feedback on the innovation."""

    name = "ce"

    def __init__(self, spec, centralized):
        super().__init__(spec)
        self.centralized = centralized

    def joint_gain(self, t, m0, ztilde):
        d, m = self.spec.dims, self.spec.modes
        if ztilde is not EMPTY:
            return self.centralized.K[t][(m0, ztilde)]
        out = np.zeros((d.d_u0 + m.kappa1 * d.d_u1, d.d_x))
        Kbar0 = np.zeros((d.d_u0, d.d_x))
        for m1 in range(m.kappa1):
            Kc = self.centralized.K[t][(m0, m1)]
            Kbar0 += m.pi_m1[m1] * Kc[:d.d_u0]
            out[d.d_u0 + m1 * d.d_u1: d.d_u0 + (m1 + 1) * d.d_u1] = Kc[d.d_u0:]
        out[:d.d_u0] = Kbar0
        return out

    def innovation_gain(self, t, m0, m1):
        d = self.spec.dims
        return self.centralized.K[t][(m0, m1)][d.d_u0:, d.d_x0:]


class CentralizedPolicy(LinearCommonPolicy):
    """Full-information reference: both actions from the true joint state.

    Not implementable in the decentralized information structure; its
    estimate coordinate simply tracks the true local state, so only the
    received-branch gains exist.
    """

    name = "centralized"
    full_information = True

    def __init__(self, spec, centralized):
        super().__init__(spec)
        self.centralized = centralized

    def joint_gain(self, t, m0, ztilde):
        return self.centralized.K[t][(m0, ztilde)]


def make_policy(kind, spec, bundle=None, centralized=None):
    if kind == "optimal":
        if bundle is None:
            raise ValueError("optimal policy needs a solved bundle")
        return OptimalPolicy(spec, bundle)
    if kind == "zero":
        return ZeroPolicy(spec)
    if kind in ("ce", "centralized"):
        if centralized is None:
            centralized = centralized_solve(spec)
        if kind == "ce":
            return CertaintyEquivalentPolicy(spec, centralized)
        return CentralizedPolicy(spec, centralized)
    raise ValueError(f"unknown policy kind {kind!r}")
