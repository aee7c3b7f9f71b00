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
problem, whatever the kind. `policy.stage(t)` builds step t's linear
maps of (x0, x1, xhat) from the gains at t, when the simulator or the exact
evaluator reaches that step; its transpose, `policy.stage_transpose`,
carries the evaluator's exact gradient with respect to those maps back to
the gains at t.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFiniteError, ShapeError, SingularBlockError
from .model import assemble_system  # noqa: F401  (perfbench/launch.py wraps control.assemble_system)
from .solver import EMPTY, GainTables, empty_rows, gain_shapes, value_shapes


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
    A, B = spec.D[..., :d.d_x], spec.D[..., d.d_x:]
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


class LinearCommonPolicy:
    """Policy linear in (x0, xhat) commonly and (x1 - xhat) locally.

    `gains` holds its three gain arrays (see `solver`): K_empty maps
    vec(x0, xhat) to vec(u0, qbar(1..kappa1)) when nothing was received,
    K_received[t, m0, m1] maps vec(x0, x1) to vec(u0, u1) once m1 was
    received, and Ktilde maps the innovation x1 - xhat to u1. The simulator
    and the exact evaluator both read the policy one step at a time through
    `stage(t)`; the policy itself holds only its gains and constants whose
    size does not depend on the horizon. `name` only labels reports.
    """

    def __init__(self, spec, gains, name="linear"):
        self.spec = spec
        self.gains = gains
        self.name = name
        d, m = spec.dims, spec.modes
        n = d.d_x0 + 2 * d.d_x1
        # Slices of x1 and xhat in xi = vec(x0, x1, xhat), and the 0/1
        # matrices picking (x0, x1) and (x0, xhat) out of xi; products with
        # them copy entries exactly.
        self._x1, self._xh = slice(d.d_x0, d.d_x), slice(d.d_x, n)
        self._sel_x = np.eye(n)[:d.d_x]
        self._sel_common = np.delete(np.eye(n), self._x1, axis=0)
        self._common = empty_rows(spec)
        # xhat_{t+1} = D1 @ vec(state, u): through the realized pair after a
        # success; otherwise averaged over the local mode, xhat standing in for x1.
        self._D1 = spec.D[:, :, d.d_x0:, :]
        self._x_rows, self._common_rows = (
            np.broadcast_to(sel, (m.kappa0, m.kappa1) + sel.shape) for sel in (self._sel_x, self._sel_common)
        )

    @property
    def full_information(self):
        """True when both controllers see the true joint state, so xhat is x1."""
        return self.gains.K_empty is None

    def stage(self, t):
        """(theta_t, mean_update_t): step t's closed-loop maps of xi =
        vec(x0, x1, xhat), each shaped (kappa0, kappa1, 2, ., n_xi) over
        (m0, m1, gamma_t). theta_t maps xi to vec(u0, u1); mean_update_t
        maps xi to xhat_{t+1} when the next transmission fails, and is None
        when xhat simply copies x1.

        The policy has the common-information form of Nayyar, Mahajan &
        Teneketzis (IEEE TAC 58(7), 2013), so step t's maps read only the
        gains at t. gamma_t = 1: the received-branch gain for the realized
        local mode acts on (x0, x1). gamma_t = 0: the empty-branch gain acts
        on (x0, xhat), and u1 adds the innovation gain on x1 - xhat. The
        estimate that follows a failed transmission propagates xhat through
        the realized mode pair after a success, and averages over the
        unobserved local mode otherwise.
        """
        d, m, gains = self.spec.dims, self.spec.modes, self.gains
        received = gains.K_received[t] @ self._sel_x
        k0, k1, _, n = received.shape
        if self.full_information:
            return np.broadcast_to(received[:, :, None], (k0, k1, 2, d.d_u, n)), None
        # Actions from common information alone, for every local mode.
        blind = gains.K_empty[t][:, self._common] @ self._sel_common
        theta = np.empty((k0, k1, 2, d.d_u, n))
        theta[:, :, 0], theta[:, :, 1] = blind, received
        theta[:, :, 0, d.d_u0:, self._x1] = gains.Ktilde[t]
        theta[:, :, 0, d.d_u0:, self._xh] -= gains.Ktilde[t]
        mean_update = np.empty((k0, k1, 2, d.d_x1, n))
        mean_update[:, :, 1] = self._D1 @ np.concatenate([self._x_rows, received], axis=-2)
        averaged = self._D1 @ np.concatenate([self._common_rows, blind], axis=-2)
        mean_update[:, :, 0] = (m.pi_m1[:, None, None] * averaged).sum(axis=1)[:, None]
        return theta, mean_update

    def stage_transpose(self, theta_bar, mean_update_bar):
        """Transpose of `stage` for a decentralized policy.

        `stage(t)` is affine in the gains at t. This maps cotangents of its
        maps (shaped like theta_t and mean_update_t) to cotangents of
        (K_empty[t], K_received[t], Ktilde[t]), so that
        <stage(t) - stage(t) at zero gains, bars> = <gains at t, transpose(bars)>.
        """
        d, m = self.spec.dims, self.spec.modes
        k0, k1 = m.kappa0, m.kappa1
        B1t = np.swapaxes(self._D1[..., d.d_x:], -1, -2)
        blind_bar, received_bar = theta_bar[:, :, 0], theta_bar[:, :, 1]
        # mean_update[:, :, 1] = B1 @ received + const; mean_update[:, :, 0]
        # is sum_j pi_m1[j] B1[:, j] @ blind[:, j] + const, repeated over m1.
        received_bar = received_bar + B1t @ mean_update_bar[:, :, 1]
        averaged_bar = mean_update_bar[:, :, 0].sum(axis=1)[:, None]
        blind_bar = blind_bar + m.pi_m1[:, None, None] * (B1t @ averaged_bar)
        common_bar = blind_bar @ self._sel_common.T
        K_empty = np.concatenate([
            common_bar[:, :, :d.d_u0].sum(axis=1),
            common_bar[:, :, d.d_u0:].reshape(k0, k1 * d.d_u1, d.d_x),
        ], axis=1)
        Ktilde = theta_bar[:, :, 0, d.d_u0:, self._x1] - theta_bar[:, :, 0, d.d_u0:, self._xh]
        return K_empty, received_bar @ self._sel_x.T, Ktilde


def make_policy(kind, spec, bundle=None):
    """LinearCommonPolicy `kind` for `spec`: "optimal" takes the gains of
    `bundle`, which it needs, and "ce" and "centralized" are built from
    `centralized_solve`. A bundle that does not fit the problem's gain or
    value table shapes raises ShapeError, whatever the kind."""
    if kind not in ("optimal", "zero", "ce", "centralized"):
        raise ValueError(f"unknown policy kind {kind!r}")
    want = gain_shapes(spec)
    if bundle is not None:
        for what, tables, need in (("gain", bundle.gains, want), ("value", bundle.values, value_shapes(spec))):
            if tables.shapes() != need:
                raise ShapeError(
                    f"solution {what} tables have shapes {tables.shapes()}, "
                    f"but this problem needs {need}"
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
