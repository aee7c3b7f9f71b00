"""Seeded Monte Carlo engine for the closed loop.

Each run owns an independent RNG substream, `default_rng([seed,
run_index])`, so results do not depend on how runs are scheduled. Draw
order within a run is fixed: the initial x0 and x1 normals, then per step t
three uniforms (for m0, m1 and gamma_t) and, for t < T, the d_x0 + d_x1
normals of (w0, w1). A mode is read off the normalized cumulative weights
exactly as `Generator.choice` reads it, and gamma_t = 1 when its uniform
is below p1.

Runs advance together in chunks of a fixed internal size, through the
policy's compiled stage tables (`control.compile_policy`). Each row's
arithmetic sums elementwise products over the contracted index in a fixed
order (no BLAS gemm), so a run's trajectory does not depend on which runs
share its chunk: `simulate_run(seed, i)` reproduces run i of any batch
bitwise, and no result depends on chunking or on the `threads` hint.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DefinitenessError, NonFiniteError
from .model import assemble_system  # noqa: F401  (perfbench/launch.py wraps sim.assemble_system)

EIG_CLAMP = 1e-12
# Runs stepped together. Bounds the live per-run generators (about 2.4 KB
# each) and the batch arrays to about a MB; larger chunks are no faster.
_CHUNK_RUNS = 256


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


def _noise_factors(spec):
    """Block-diagonal factors (init, w[t]) of the initial-state and process
    noise, or None for the noise-free family."""
    st, d = spec.stoch, spec.dims
    if st.family == "zero":
        return None
    f = np.zeros((st.T + 2, d.d_x, d.d_x))
    for k, (c0, c1) in enumerate([(st.cov_x0, st.cov_x1), *zip(st.covW0, st.covW1)]):
        f[k, :d.d_x0, :d.d_x0] = noise_factor(c0)
        f[k, d.d_x0:, d.d_x0:] = noise_factor(c1)
    return f[0], f[1:]


def _rows_dot(mats, vecs):
    """out[i] = mats[i] @ vecs[i], summed left to right over the contracted
    index, so row i does not depend on the other rows or on their number."""
    out = mats[:, :, 0] * vecs[:, None, 0]
    for j in range(1, vecs.shape[1]):
        out += mats[:, :, j] * vecs[:, None, j]
    return out


def _quad(mats, vecs):
    """vecs[i] @ mats[i] @ vecs[i], in the same fixed order."""
    return _rows_dot(_rows_dot(mats, vecs)[:, None, :], vecs)[:, 0]


def _rollout(spec, policy, noise, seed, indices, record):
    """Step the runs `indices` together from t = 0 to T.

    Returns (totals, rec, failed): each run's total cost; the per-step
    arrays (x, u, xhat, m0, m1, gamma, stage cost), each stacked as
    (run, t, ...), or None unless `record`; and (position, t) of the first
    run, in the order given, whose state or action went non-finite, at its
    first such step (None if every run stayed finite).
    """
    d, st, T = spec.dims, spec.stoch, spec.T
    tables = policy.tables
    runs = len(indices)
    gens = [np.random.default_rng([int(seed), int(i)]) for i in indices]
    unif = np.empty((runs, 3))
    normal = np.empty((runs, d.d_x))
    unif_rows, normal_rows = list(unif), list(normal)

    def draw_normals():
        for g, row in zip(gens, normal_rows):
            g.standard_normal(out=row)
        return normal

    # Normalized cumulative weights, as Generator.choice builds them.
    cdf0, cdf1 = (p.cumsum() / p.cumsum()[-1] for p in (spec.modes.pi_m0, spec.modes.pi_m1))
    mu = np.concatenate([st.mu_x0, st.mu_x1])
    if noise is None:
        x = np.tile(mu, (runs, 1))
    else:
        f_init, f_w = noise
        x = mu + _rows_dot(f_init[None], draw_normals())
    steps = []
    totals = np.zeros(runs)
    first_bad = np.full(runs, -1)
    x_hat_fail = st.mu_x1  # xhat_0 when nothing is received
    for t in range(T + 1):
        for g, row in zip(gens, unif_rows):
            g.random(out=row)
        m0 = np.searchsorted(cdf0, unif[:, 0], side="right")
        m1 = np.searchsorted(cdf1, unif[:, 1], side="right")
        received = unif[:, 2] < spec.channel.p1
        gamma = received.astype(int)
        x_hat = np.where(received[:, None], x[:, d.d_x0:], x_hat_fail)
        xi = np.concatenate([x, x_hat], axis=1)
        u = _rows_dot(tables.theta[t, m0, m1, gamma], xi)
        bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(u).all(axis=1))
        first_bad[bad & (first_bad < 0)] = t
        cost = _quad(spec.cost.Q[t, m0, m1], x) + _quad(spec.cost.R[t, m0, m1], u)
        totals += cost
        if record:
            steps.append((x, u, x_hat, m0, m1, gamma, cost))
        if t < T:
            x = _rows_dot(tables.D[m0, m1], np.concatenate([x, u], axis=1))
            if noise is not None:
                x += _rows_dot(f_w[t][None], draw_normals())
            if tables.mean_update is None:
                x_hat_fail = x[:, d.d_x0:]  # xhat copies x1 under full information
            else:
                x_hat_fail = _rows_dot(tables.mean_update[t, m0, m1, gamma], xi)
    rec = [np.stack(column, axis=1) for column in zip(*steps)] if record else None
    bad = np.flatnonzero(first_bad >= 0)
    failed = (int(bad[0]), int(first_bad[bad[0]])) if bad.size else None
    return totals, rec, failed


def _chunks(spec, policy, seed, indices, record):
    """Roll out runs `indices` chunk by chunk, yielding (totals, rec).

    When a run goes non-finite, its chunk is cut just before it and
    NonFiniteError is raised for that run (the first one, in the order
    given) at its first non-finite step.
    """
    noise = _noise_factors(spec)
    indices = list(indices)
    for start in range(0, len(indices), _CHUNK_RUNS):
        chunk = indices[start:start + _CHUNK_RUNS]
        with np.errstate(over="ignore", invalid="ignore"):
            totals, rec, failed = _rollout(spec, policy, noise, seed, chunk, record)
        if failed is None:
            yield totals, rec
            continue
        pos, t = failed
        yield totals[:pos], rec
        raise NonFiniteError(f"run {chunk[pos]}: state or action non-finite at t={t}")


def simulate_runs(spec, policy, seed, indices):
    """Yield one recorded rollout per run index, stepping them in chunks.

    Each trajectory is deterministic given (seed, run_index) and identical
    to what `simulate_run` returns for that index.
    """
    d = spec.dims
    for totals, (x, u, x_hat, m0, m1, gamma, cost) in _chunks(
        spec, policy, seed, indices, record=True
    ):
        for k, total in enumerate(totals):
            yield Trajectory(
                x0=x[k, :, :d.d_x0], x1=x[k, :, d.d_x0:],
                m0=m0[k], m1=m1[k], gamma=gamma[k],
                u0=u[k, :, :d.d_u0], u1=u[k, :, d.d_u0:],
                x_hat1=x_hat[k], stage_cost=cost[k], total_cost=float(total),
            )


def simulate_run(spec, policy, seed, run_index):
    """One recorded rollout; deterministic given (seed, run_index)."""
    return next(simulate_runs(spec, policy, seed, [run_index]))


def monte_carlo(spec, policy, runs, seed, threads=None):
    """Mean cost and standard error over independent seeded runs.

    `threads` is accepted for interface stability; the per-run substreams
    make the result identical at any level of parallelism, and the
    aggregation below is a deterministic reduction in run order.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    costs = np.concatenate([
        totals for totals, _ in _chunks(spec, policy, seed, range(runs), record=False)
    ])
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
