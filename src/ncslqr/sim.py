"""Seeded Monte Carlo engine for the closed loop.

Every random number is a pure function of (seed, run, t, slot), so results
do not depend on how runs are scheduled. The generator is Philox4x64-10
(Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as easy as 1, 2,
3", SC'11), run by the package's own kernel (`ncslqr.philox`) on numpy
uint64 arrays, so no command imports `numpy.random`:

- the key is numpy's `SeedSequence(seed).generate_state(2, np.uint64)`;
- the block at counter (run, t, b, 0) is four 64-bit words, and a word w
  becomes the uniform (w >> 11) * 2**-53, as `Generator.random` computes it;
- block 0 of slot t holds the uniforms of m0, m1 and gamma_t in its first
  three words (the fourth is unused). A mode is read off the normalized
  cumulative weights as `Generator.choice` reads it, and gamma_t = 1 when
  its uniform is below p1;
- for the gaussian family, blocks 1 .. ceil(d_x / 4) of slot t hold
  standard normals, four per block, by Box-Muller (Box & Muller, Ann. Math.
  Statist. 1958) on the uniform pairs (u0, u1) and (u2, u3):
  sqrt(-2 ln(1 - u0)) * (cos 2 pi u1, sin 2 pi u1), then the same for
  (u2, u3). The first d_x of them are the (x0, x1) noise that enters x_t:
  the initial state at t = 0, the process noise w_{t-1} after that.

Runs advance together in chunks, through the policy's step maps, which
`policy.stage(t)` builds when a chunk reaches step t, and one kernel call
draws a chunk's words for every t and block. Each row's arithmetic sums
elementwise products over the contracted index in a fixed order (no BLAS
gemm), so a run's trajectory does not depend on which runs share its chunk:
`simulate_run(spec, policy, seed, i)` reproduces run i of any batch
bitwise, and no result depends on chunking.
"""

import os
import re
from dataclasses import dataclass, fields

import numpy as np

from . import matkit, philox
from .errors import NonFiniteError
from .model import assemble_system  # noqa: F401  (perfbench/launch.py wraps sim.assemble_system)

# Philox blocks drawn per chunk, which sets the runs per chunk. A chunk
# costs a fixed number of numpy calls per step, whatever its size, so
# larger chunks spread that overhead over more runs; at 8k blocks a
# chunk's words (256 kB), the kernel's temporaries and the uniforms and
# normals made from them stay under a MB.
_CHUNK_BLOCKS = 8192

# The names f"run_{i:06d}.csv" takes: six digits, or more without a leading zero.
_DUMP_NAME = re.compile(r"run_(?:[0-9]{6}|[1-9][0-9]{6,})\.csv")


def _normal_blocks(spec):
    """Philox blocks of normals per slot: ceil(d_x / 4), or 0 without noise."""
    return 0 if spec.stoch.family == "zero" else -(-spec.dims.d_x // 4)


def _draws(key, indices, T, normal_blocks):
    """Uniforms (runs, T+1, 3) and standard normals (runs, T+1, 4 *
    normal_blocks) of the runs `indices`, by the layout in the module
    docstring."""
    u = philox.uniforms(philox.blocks(
        key,
        np.array(indices, dtype=np.uint64)[:, None, None],
        np.arange(T + 1, dtype=np.uint64)[:, None],
        np.arange(1 + normal_blocks, dtype=np.uint64),
    ))
    normals = philox.box_muller(u[:, :, 1:])
    return u[:, :, 0, :3], normals.reshape(len(indices), T + 1, 4 * normal_blocks)


def noise_factor(cov):
    """Square roots F (F F' = cov) of a stack of covariances, by one
    eigendecomposition. The covariances must pass `matkit.assert_psd`, the
    rule the loader checks them by; the slightly negative eigenvalues it
    lets through are clipped to zero, so rank-deficient noise is accepted.
    """
    vals, vecs = np.linalg.eigh(matkit.assert_psd(cov, name="noise covariance"))
    return vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]


@dataclass
class Trajectory:
    """Recorded runs, each field stacked on a leading run axis; batch[k]
    is run k, a Trajectory without that axis."""

    x0: np.ndarray        # (runs, T+1, d_x0)
    x1: np.ndarray        # (runs, T+1, d_x1)
    m0: np.ndarray        # (runs, T+1) int
    m1: np.ndarray        # (runs, T+1) int
    gamma: np.ndarray     # (runs, T+1) int
    u0: np.ndarray        # (runs, T+1, d_u0)
    u1: np.ndarray        # (runs, T+1, d_u1)
    x_hat1: np.ndarray    # (runs, T+1, d_x1)
    stage_cost: np.ndarray  # (runs, T+1)
    total_cost: np.ndarray  # (runs,)

    def __getitem__(self, k):
        return Trajectory(*(getattr(self, f.name)[k] for f in fields(self)))


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
    f[:, :d.d_x0, :d.d_x0] = noise_factor(np.concatenate([st.cov_x0[None], st.covW0]))
    f[:, d.d_x0:, d.d_x0:] = noise_factor(np.concatenate([st.cov_x1[None], st.covW1]))
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


def _rollout(spec, policy, noise, key, indices, record):
    """Step the runs `indices` together from t = 0 to T.

    Returns (totals, rec, failed): each run's total cost; the per-step
    arrays (x, u, xhat, m0, m1, gamma, stage cost), each stacked as
    (run, t, ...), or None unless `record`; and (position, t) of the first
    run, in the order given, whose state, action or stage cost went
    non-finite, at its first such step (None if every run stayed finite).
    """
    d, st, T = spec.dims, spec.stoch, spec.T
    runs = len(indices)
    unif, normal = _draws(key, indices, T, _normal_blocks(spec))
    # Normalized cumulative weights, as Generator.choice builds them.
    cdf0, cdf1 = (p.cumsum() / p.cumsum()[-1] for p in (spec.modes.pi_m0, spec.modes.pi_m1))
    mu = np.concatenate([st.mu_x0, st.mu_x1])
    if noise is None:
        x = np.tile(mu, (runs, 1))
    else:
        f_init, f_w = noise
        x = mu + _rows_dot(f_init[None], normal[:, 0, :d.d_x])
    steps = []
    totals = np.zeros(runs)
    first_bad = np.full(runs, -1)
    x_hat_fail = st.mu_x1  # xhat_0 when nothing is received
    for t in range(T + 1):
        m0 = np.searchsorted(cdf0, unif[:, t, 0], side="right")
        m1 = np.searchsorted(cdf1, unif[:, t, 1], side="right")
        received = unif[:, t, 2] < spec.channel.p1
        gamma = received.astype(int)
        x_hat = np.where(received[:, None], x[:, d.d_x0:], x_hat_fail)
        xi = np.concatenate([x, x_hat], axis=1)
        theta, mean_update = policy.stage(t)
        u = _rows_dot(theta[m0, m1, gamma], xi)
        cost = _quad(spec.cost.Q[t, m0, m1], x) + _quad(spec.cost.R[t, m0, m1], u)
        bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(u).all(axis=1) & np.isfinite(cost))
        first_bad[bad & (first_bad < 0)] = t
        totals += cost
        if record:
            steps.append((x, u, x_hat, m0, m1, gamma, cost))
        if t < T:
            x = _rows_dot(spec.D[m0, m1], np.concatenate([x, u], axis=1))
            if noise is not None:
                x += _rows_dot(f_w[t][None], normal[:, t + 1, :d.d_x])
            if mean_update is None:
                x_hat_fail = x[:, d.d_x0:]  # xhat copies x1 under full information
            else:
                x_hat_fail = _rows_dot(mean_update[m0, m1, gamma], xi)
    rec = [np.stack(column, axis=1) for column in zip(*steps)] if record else None
    bad = np.flatnonzero(first_bad >= 0)
    failed = (int(bad[0]), int(first_bad[bad[0]])) if bad.size else None
    return totals, rec, failed


def _chunk_runs(spec):
    """Runs per chunk: those whose blocks fit in `_CHUNK_BLOCKS`, at least one."""
    return max(1, _CHUNK_BLOCKS // ((spec.T + 1) * (1 + _normal_blocks(spec))))


def rollouts(spec, policy, seed, indices, record=True):
    """Roll out runs `indices` chunk by chunk, yielding each chunk's runs as
    one stacked Trajectory, or only their total costs unless `record`.

    A chunk holds as many runs as fit in one call's `_CHUNK_BLOCKS` Philox
    blocks. When a run goes non-finite, its chunk is cut just before it and
    NonFiniteError is raised for that run (the first one, in the order
    given) at its first non-finite step.
    """
    d = spec.dims
    noise = _noise_factors(spec)
    key = philox.key(seed)
    indices = list(indices)
    size = _chunk_runs(spec)
    for start in range(0, len(indices), size):
        chunk = indices[start:start + size]
        with np.errstate(over="ignore", invalid="ignore"):
            totals, rec, failed = _rollout(spec, policy, noise, key, chunk, record)
        if record:
            x, u, x_hat, m0, m1, gamma, cost = rec
            batch = Trajectory(
                x0=x[:, :, :d.d_x0], x1=x[:, :, d.d_x0:], m0=m0, m1=m1, gamma=gamma,
                u0=u[:, :, :d.d_u0], u1=u[:, :, d.d_u0:],
                x_hat1=x_hat, stage_cost=cost, total_cost=totals,
            )
        else:
            batch = totals
        done = len(chunk) if failed is None else failed[0]
        if done:
            yield batch[:done]
        if failed is not None:
            raise NonFiniteError(f"run {chunk[done]}: state, action or stage cost non-finite at t={failed[1]}")


def simulate_run(spec, policy, seed, run_index):
    """One recorded rollout; deterministic given (seed, run_index)."""
    return next(rollouts(spec, policy, seed, [run_index]))[0]


def monte_carlo(spec, policy, runs, seed, dump=None):
    """Mean cost and standard error over independent seeded runs.

    Every draw is a function of (seed, run, t, slot), and the aggregation
    below is a deterministic reduction in run order. Finite costs whose sum
    or squared spread overflows raise NonFiniteError rather than report inf
    or nan. Given a `dump` directory, the CSVs of an earlier dump are
    deleted from it first; then run i is written there as
    `run_{i:06d}.csv` once its chunk completes, so a non-finite run leaves
    exactly the files of the runs before it.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if dump is not None:
        for name in filter(_DUMP_NAME.fullmatch, os.listdir(dump)):
            if os.path.isfile(os.path.join(dump, name)):
                os.remove(os.path.join(dump, name))
    costs = []
    for batch in rollouts(spec, policy, seed, range(runs), record=dump is not None):
        if dump is not None:
            done = sum(map(len, costs))
            for k in range(len(batch.total_cost)):
                trajectory_to_csv(batch[k], os.path.join(dump, f"run_{done + k:06d}.csv"))
            batch = batch.total_cost
        costs.append(batch)
    costs = np.concatenate(costs)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.sum(costs) / runs)
        # Equal costs have no spread; costs - mean would leave the mean's
        # rounding in the standard error.
        if runs == 1 or (costs == costs[0]).all():
            se = 0.0
        else:
            var = float(np.sum((costs - mean) ** 2) / (runs - 1))
            se = (var / runs) ** 0.5
    if not (np.isfinite(mean) and np.isfinite(se)):
        raise NonFiniteError(f"mean cost {mean!r} or its standard error {se!r} non-finite over {runs} runs")
    return McReport(policy=policy.name, runs=runs, seed=int(seed), mean_cost=mean, std_err=se)


def _csv_layout(d_x0, d_x1, d_u0, d_u1):
    """Header line and row template of a trajectory CSV: the bytes
    csv.writer writes, with %d for the integer columns and %r
    (float.__repr__) for the float ones, none of which needs quoting."""
    names = (
        ["t"]
        + [f"x0[{i}]" for i in range(d_x0)]
        + [f"x1[{i}]" for i in range(d_x1)]
        + ["m0", "m1", "gamma"]
        + [f"u0[{i}]" for i in range(d_u0)]
        + [f"u1[{i}]" for i in range(d_u1)]
        + [f"xhat[{i}]" for i in range(d_x1)]
        + ["stage_cost"]
    )
    formats = ["%d"] + ["%r"] * (d_x0 + d_x1) + ["%d"] * 3 + ["%r"] * (d_u0 + d_u1 + d_x1 + 1)
    return ",".join(names) + "\r\n", ",".join(formats) + "\r\n"


def trajectory_to_csv(traj, path):
    """Write one trajectory as CSV (modes 1-based) with a single write."""
    steps = traj.x0.shape[0]
    header, row = _csv_layout(traj.x0.shape[1], traj.x1.shape[1], traj.u0.shape[1], traj.u1.shape[1])
    # Integer columns ride along as exact floats; %d prints them as integers.
    table = np.column_stack([
        np.arange(steps), traj.x0, traj.x1, traj.m0 + 1, traj.m1 + 1, traj.gamma,
        traj.u0, traj.u1, traj.x_hat1, traj.stage_cost,
    ])
    text = header + (row * steps) % tuple(table.ravel().tolist())
    with open(path, "w", newline="") as fh:
        fh.write(text)
