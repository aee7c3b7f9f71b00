"""Seeded Monte Carlo engine for the closed loop.

Each run owns an independent RNG substream derived from (seed, run_index),
so results do not depend on how runs are distributed across workers. Draw
order is fixed: initial x0, then initial x1, then per step t the tuple
(m0, m1, gamma, w0, w1).
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DefinitenessError, NonFiniteError
from .model import assemble_system

EIG_CLAMP = 1e-12


def noise_factor(cov):
    """Square root of a PSD covariance via eigendecomposition.

    Slightly negative eigenvalues (within 1e-12 of zero, scaled) are
    clamped so rank-deficient noise is accepted.
    """
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    scale = max(1.0, float(np.abs(vals).max())) if vals.size else 1.0
    if vals.size and vals.min() < -EIG_CLAMP * scale:
        raise DefinitenessError("noise covariance is not PSD", min_eig=float(vals.min()))
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def sample_noise(cov, family, rng):
    """One zero-mean draw with the given covariance."""
    if family == "zero":
        return np.zeros(cov.shape[0])
    return noise_factor(cov) @ rng.standard_normal(cov.shape[0])


@dataclass
class Trajectory:
    x0: np.ndarray        # (T+1, d_x0)
    x1: np.ndarray        # (T+1, d_x1)
    m0: np.ndarray        # (T+1,) int
    m1: np.ndarray        # (T+1,) int
    gamma: np.ndarray     # (T+1,) int
    u0: np.ndarray        # (T+1, d_u0)
    u1: np.ndarray        # (T+1, d_u1)
    x_hat1: np.ndarray    # (T+1, d_x1)
    stage_cost: np.ndarray  # (T+1,)
    total_cost: float


@dataclass
class McReport:
    policy: str
    runs: int
    seed: int
    mean_cost: float
    std_err: float


class _Sampler:
    """Pre-factored draw machinery shared by all runs of one instance."""

    def __init__(self, spec):
        self.spec = spec
        st = spec.stoch
        self.f_x0 = noise_factor(st.cov_x0)
        self.f_x1 = noise_factor(st.cov_x1)
        self.f_w0 = [noise_factor(st.covW0[t]) for t in range(st.T + 1)]
        self.f_w1 = [noise_factor(st.covW1[t]) for t in range(st.T + 1)]
        self.zero = st.family == "zero"

    def init_states(self, rng):
        st = self.spec.stoch
        if self.zero:
            return st.mu_x0.copy(), st.mu_x1.copy()
        x0 = st.mu_x0 + self.f_x0 @ rng.standard_normal(st.mu_x0.size)
        x1 = st.mu_x1 + self.f_x1 @ rng.standard_normal(st.mu_x1.size)
        return x0, x1

    def noises(self, t, rng):
        d = self.spec.dims
        if self.zero:
            return np.zeros(d.d_x0), np.zeros(d.d_x1)
        w0 = self.f_w0[t] @ rng.standard_normal(d.d_x0)
        w1 = self.f_w1[t] @ rng.standard_normal(d.d_x1)
        return w0, w1


class _PendingEstimate:
    __slots__ = ("policy", "t", "m0", "m1", "gamma", "x0", "x1", "x_hat1", "x1_next")

    def __init__(self, policy, t, m0, m1, gamma, x0, x1, x_hat1, x1_next):
        self.policy = policy
        self.t = t
        self.m0 = m0
        self.m1 = m1
        self.gamma = gamma
        self.x0 = x0
        self.x1 = x1
        self.x_hat1 = x_hat1
        self.x1_next = x1_next

    def resolve(self, gamma_next):
        return self.policy.update_estimate(
            self.t, self.m0, self.m1, self.gamma, gamma_next,
            self.x0, self.x1, self.x_hat1, self.x1_next,
        )


def simulate_runs(spec, policy, seed, indices):
    """Yield one recorded rollout per run index, sharing one sampler.

    Each trajectory is deterministic given (seed, run_index) and identical
    to what `simulate_run` returns for that index.
    """
    sampler = _Sampler(spec)
    for run_index in indices:
        rng = np.random.default_rng([int(seed), int(run_index)])
        yield _run(spec, policy, sampler, rng, record=True)[1]


def simulate_run(spec, policy, seed, run_index):
    """One recorded rollout; deterministic given (seed, run_index)."""
    return next(simulate_runs(spec, policy, seed, [run_index]))


def _run(spec, policy, sampler, rng, record):
    d, m = spec.dims, spec.modes
    T = spec.T
    p1 = spec.channel.p1
    Q, R = spec.cost.Q, spec.cost.R

    x0, x1 = sampler.init_states(rng)
    rec = None
    if record:
        rec = Trajectory(
            x0=np.zeros((T + 1, d.d_x0)), x1=np.zeros((T + 1, d.d_x1)),
            m0=np.zeros(T + 1, dtype=int), m1=np.zeros(T + 1, dtype=int),
            gamma=np.zeros(T + 1, dtype=int),
            u0=np.zeros((T + 1, d.d_u0)), u1=np.zeros((T + 1, d.d_u1)),
            x_hat1=np.zeros((T + 1, d.d_x1)), stage_cost=np.zeros(T + 1),
            total_cost=0.0,
        )

    total = 0.0
    x_hat1 = None
    pending = None
    for t in range(T + 1):
        m0 = int(rng.choice(m.kappa0, p=m.pi_m0))
        m1 = int(rng.choice(m.kappa1, p=m.pi_m1))
        gamma = int(rng.random() < p1)
        w0, w1 = sampler.noises(t, rng)

        if t == 0:
            x_hat1 = x1.copy() if gamma == 1 else spec.stoch.mu_x1.copy()
        else:
            # The estimator branch depends on gamma_t, which was just drawn.
            x_hat1 = pending.resolve(gamma)

        u0, u1 = policy.act(t, m0, m1, gamma, x0, x1, x_hat1)
        x = np.concatenate([x0, x1])
        u = np.concatenate([u0, u1])
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
            raise NonFiniteError(f"state or action non-finite at t={t}")
        cost = float(x @ Q[t, m0, m1] @ x + u @ R[t, m0, m1] @ u)
        total += cost

        if record:
            rec.x0[t], rec.x1[t] = x0, x1
            rec.m0[t], rec.m1[t], rec.gamma[t] = m0, m1, gamma
            rec.u0[t], rec.u1[t] = u0, u1
            rec.x_hat1[t] = x_hat1
            rec.stage_cost[t] = cost

        if t < T:
            _, _, D = assemble_system(spec, m0, m1)
            x_next = D @ np.concatenate([x, u])
            x1_next = x_next[d.d_x0:] + w1
            pending = _PendingEstimate(policy, t, m0, m1, gamma, x0, x1, x_hat1, x1_next)
            x0 = x_next[:d.d_x0] + w0
            x1 = x1_next

    if record:
        rec.total_cost = total
    return total, rec


def monte_carlo(spec, policy, runs, seed, threads=None):
    """Mean cost and standard error over independent seeded runs.

    `threads` is accepted for interface stability; the per-run substreams
    make the result identical at any level of parallelism, and the
    aggregation below is a deterministic reduction in run order.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    sampler = _Sampler(spec)
    costs = np.empty(runs)
    for i in range(runs):
        rng = np.random.default_rng([int(seed), i])
        try:
            costs[i], _ = _run(spec, policy, sampler, rng, record=False)
        except NonFiniteError as exc:
            raise NonFiniteError(f"run {i}: {exc}") from exc
    mean = float(np.sum(costs) / runs)
    if runs == 1:
        se = 0.0
    else:
        var = float(np.sum((costs - mean) ** 2) / (runs - 1))
        se = (var / runs) ** 0.5
    return McReport(policy=policy.name, runs=runs, seed=int(seed), mean_cost=mean, std_err=se)


def trajectory_to_csv(traj, path):
    d_x0 = traj.x0.shape[1]
    d_x1 = traj.x1.shape[1]
    d_u0 = traj.u0.shape[1]
    d_u1 = traj.u1.shape[1]
    header = (
        ["t"]
        + [f"x0[{i}]" for i in range(d_x0)]
        + [f"x1[{i}]" for i in range(d_x1)]
        + ["m0", "m1", "gamma"]
        + [f"u0[{i}]" for i in range(d_u0)]
        + [f"u1[{i}]" for i in range(d_u1)]
        + [f"xhat[{i}]" for i in range(d_x1)]
        + ["stage_cost"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(traj.x0.shape[0]):
            row = (
                [t]
                + [repr(float(v)) for v in traj.x0[t]]
                + [repr(float(v)) for v in traj.x1[t]]
                + [int(traj.m0[t]) + 1, int(traj.m1[t]) + 1, int(traj.gamma[t])]
                + [repr(float(v)) for v in traj.u0[t]]
                + [repr(float(v)) for v in traj.u1[t]]
                + [repr(float(v)) for v in traj.x_hat1[t]]
                + [repr(float(traj.stage_cost[t]))]
            )
            writer.writerow(row)
