import base64
import itertools
import json
import math
import os
import tempfile

import numpy as np
import pytest

from ncslqr import control, model, sim, solver
from ncslqr.errors import NonFiniteError
from ncslqr.solver import EMPTY

ONE = [[1.0]]


def s1_config(p1=0.5, mu_x0=0.0, mu_x1=0.0, cov_x0=1.0, cov_x1=1.0):
    """Smallest legal instance: everything scalar, T = 0, Q = R = I."""
    return {
        "dims": {"d_x0": 1, "d_x1": 1, "d_u0": 1, "d_u1": 1},
        "modes": {"kappa0": 1, "kappa1": 1, "pi_m0": [1.0], "pi_m1": [1.0]},
        "channel": {"p1": p1},
        "system": {
            "A00": [ONE], "B00": [ONE],
            "A10": [ONE], "A11": [ONE], "B10": [ONE], "B11": [ONE],
        },
        "cost": {"Q": [[[1.0, 0.0], [0.0, 1.0]]], "R": [[[1.0, 0.0], [0.0, 1.0]]]},
        "stoch": {
            "T": 0,
            "covW0": ONE, "covW1": ONE,
            "init": {
                "mu_x0": [mu_x0], "cov_x0": [[cov_x0]],
                "mu_x1": [mu_x1], "cov_x1": [[cov_x1]],
            },
            "family": "gaussian",
        },
    }


def s2_config(p1=0.5, family="gaussian"):
    """Scalar hand instance: all system blocks 1, Q = R = I, T = 1."""
    cfg = s1_config(p1=p1)
    cfg["stoch"]["T"] = 1
    cfg["stoch"]["family"] = family
    return cfg


def zero_weight_mode_config():
    """S2 with a second local mode of probability zero: nothing weights its
    prescription qbar(2), so the empty-branch H^UU is singular."""
    cfg = s2_config()
    cfg["modes"] = {"kappa0": 1, "kappa1": 2, "pi_m0": [1.0], "pi_m1": [1.0, 0.0]}
    for key in ("A10", "A11", "B10", "B11"):
        cfg["system"][key] = cfg["system"][key] * 2
    cfg["cost"]["Q"] = cfg["cost"]["Q"] * 2
    cfg["cost"]["R"] = cfg["cost"]["R"] * 2
    return cfg


def divergent_config():
    """Scalar chain, T = 3, whose rare first global mode multiplies x0 by
    1e200: a run overflows once that mode comes up twice."""
    cfg = s2_config()
    one = [[1.0]]
    eye = [[1.0, 0.0], [0.0, 1.0]]
    cfg["modes"] = {"kappa0": 2, "kappa1": 1, "pi_m0": [0.02, 0.98], "pi_m1": [1.0]}
    cfg["system"] = {
        "A00": [[[1e200]], one], "B00": [one, one],
        "A10": [one, one], "A11": [one, one], "B10": [one, one], "B11": [one, one],
    }
    cfg["cost"]["Q"] = [eye, eye]
    cfg["cost"]["R"] = [eye, eye]
    cfg["stoch"]["T"] = 3
    cfg["stoch"]["init"]["mu_x0"] = [1.0]
    return cfg


@pytest.fixture
def s1_spec():
    return model.load_config(s1_config())


@pytest.fixture
def s2_spec():
    return model.load_config(s2_config())


def rand_psd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return scale * (A @ A.T / n + 0.1 * np.eye(n))


def random_config(rng, p1=None, kappa1=None, T=None, dims=None, kappa0=None):
    """Random battery instance: block dims <= 2, kappa <= 2, T <= 3, unless
    given."""
    d = {k: int(rng.integers(1, 3)) for k in ("d_x0", "d_x1", "d_u0", "d_u1")} if dims is None else dims
    k0 = int(rng.integers(1, 3)) if kappa0 is None else kappa0
    k1 = int(rng.integers(1, 3)) if kappa1 is None else kappa1
    if T is None:
        T = int(rng.integers(0, 4))
    if p1 is None:
        p1 = float(rng.choice([0.0, 0.3, 0.7, 1.0]))

    def pvec(k):
        v = rng.random(k) + 0.2
        return (v / v.sum()).tolist()

    def mats(n_r, n_c, count, scale=0.7):
        return [(scale * rng.standard_normal((n_r, n_c))).tolist() for _ in range(count)]

    dx = d["d_x0"] + d["d_x1"]
    du = d["d_u0"] + d["d_u1"]
    return {
        "dims": d,
        "modes": {"kappa0": k0, "kappa1": k1, "pi_m0": pvec(k0), "pi_m1": pvec(k1)},
        "channel": {"p1": p1},
        "system": {
            "A00": mats(d["d_x0"], d["d_x0"], k0),
            "B00": mats(d["d_x0"], d["d_u0"], k0),
            "A10": mats(d["d_x1"], d["d_x0"], k0 * k1),
            "A11": mats(d["d_x1"], d["d_x1"], k0 * k1),
            "B10": mats(d["d_x1"], d["d_u0"], k0 * k1),
            "B11": mats(d["d_x1"], d["d_u1"], k0 * k1),
        },
        "cost": {
            "Q": [rand_psd(rng, dx).tolist() for _ in range(k0 * k1)],
            "R": [rand_psd(rng, du, 0.5).tolist() for _ in range(k0 * k1)],
        },
        "stoch": {
            "T": T,
            "covW0": rand_psd(rng, d["d_x0"], 0.3).tolist(),
            "covW1": rand_psd(rng, d["d_x1"], 0.3).tolist(),
            "init": {
                "mu_x0": rng.standard_normal(d["d_x0"]).tolist(),
                "cov_x0": rand_psd(rng, d["d_x0"]).tolist(),
                "mu_x1": rng.standard_normal(d["d_x1"]).tolist(),
                "cov_x1": rand_psd(rng, d["d_x1"]).tolist(),
            },
            "family": "gaussian",
        },
    }


def long_horizon_config():
    """T = 60 and kappa1 = 2: about 5e36 mode/channel sequences."""
    return random_config(np.random.default_rng(5), p1=0.5, kappa1=2, T=60)


def reference_closed_loop(spec, policy, t, m0, m1, gamma_t, gamma_next):
    """Stage maps (F, G, Theta_aug, M) of one node, built on their own.

    A per-node copy of the maps the oracle builds per step, written against
    single entries of the policy's step-t maps (`policy.stage(t)`) and
    `assemble_system`, so that the brute-force enumeration does not share
    the oracle's builder.
    """
    d = spec.dims
    n = d.d_x0 + 2 * d.d_x1 + 1
    lam_x = np.zeros((d.d_x, n))
    lam_x[:, :d.d_x] = np.eye(d.d_x)
    theta, mean_update = policy.stage(t)
    theta_aug = np.hstack([theta[m0, m1, gamma_t], np.zeros((d.d_u, 1))])
    Q, R = spec.cost.Q[t, m0, m1], spec.cost.R[t, m0, m1]
    M = lam_x.T @ Q @ lam_x + theta_aug.T @ R @ theta_aug

    D = model.assemble_system(spec, m0, m1)[2]
    F = np.zeros((n, n))
    G = np.zeros((n, d.d_x))
    F[:d.d_x, :] = D @ np.vstack([lam_x, theta_aug])
    G[:d.d_x, :] = np.eye(d.d_x)
    F[-1, -1] = 1.0
    hat = slice(d.d_x, d.d_x + d.d_x1)
    if gamma_next == 1 or mean_update is None:
        # xhat copies x1 (always, for the full-information reference).
        F[hat, :] = F[d.d_x0:d.d_x, :]
        G[hat, :] = G[d.d_x0:d.d_x, :]
    else:
        F[hat, :-1] = mean_update[m0, m1, gamma_t]
    return F, G, theta_aug, 0.5 * (M + M.T)


def enumerate_expected_cost(spec, policy):
    """Reference (cost, probability mass) by enumerating every mode/channel prefix.

    Each prefix carries its own conditional second moment of the augmented
    state, propagated through `reference_closed_loop`. The work grows as
    (2 kappa0 kappa1)^(T+1), so this is for small instances only.
    """
    d, m, st, T = spec.dims, spec.modes, spec.stoch, spec.T
    p_gamma = (1.0 - spec.channel.p1, spec.channel.p1)
    # z = (x0, x1, 1) at t = 0; xhat_0 is x1 if received, else the prior mean.
    mean = np.concatenate([st.mu_x0, st.mu_x1])
    Ez = np.zeros((d.d_x + 1, d.d_x + 1))
    Ez[:d.d_x0, :d.d_x0] = st.cov_x0
    Ez[d.d_x0:d.d_x, d.d_x0:d.d_x] = st.cov_x1
    Ez[:d.d_x, :d.d_x] += np.outer(mean, mean)
    Ez[:d.d_x, -1] = Ez[-1, :d.d_x] = mean
    Ez[-1, -1] = 1.0
    nodes = []
    for gamma0 in (0, 1):
        if p_gamma[gamma0] == 0.0:
            continue
        lift = np.zeros((d.d_x0 + 2 * d.d_x1 + 1, d.d_x + 1))
        lift[:d.d_x, :d.d_x] = np.eye(d.d_x)
        hat = slice(d.d_x, d.d_x + d.d_x1)
        if gamma0 == 1:
            lift[hat, d.d_x0:d.d_x] = np.eye(d.d_x1)
        else:
            lift[hat, -1] = st.mu_x1
        lift[-1, -1] = 1.0
        nodes.append((p_gamma[gamma0], lift @ Ez @ lift.T, gamma0))

    total = mass = 0.0
    for t in range(T + 1):
        W = np.zeros((d.d_x, d.d_x))
        W[:d.d_x0, :d.d_x0] = st.covW0[t]
        W[d.d_x0:, d.d_x0:] = st.covW1[t]
        next_nodes = []
        for (prob, Sigma, gamma), m0, m1 in itertools.product(
            nodes, range(m.kappa0), range(m.kappa1)
        ):
            w = prob * m.pi_m0[m0] * m.pi_m1[m1]
            if w == 0.0:
                continue
            M = reference_closed_loop(spec, policy, t, m0, m1, gamma, 0)[3]
            total += w * float(np.sum(M * Sigma))
            if t == T:
                mass += w
                continue
            for gamma_next in (0, 1):
                if p_gamma[gamma_next] == 0.0:
                    continue
                F, G, _, _ = reference_closed_loop(spec, policy, t, m0, m1, gamma, gamma_next)
                next_nodes.append(
                    (w * p_gamma[gamma_next], F @ Sigma @ F.T + G @ W @ G.T, gamma_next)
                )
        nodes = next_nodes
    return total, mass


def philox_block(key, run, t, block):
    """The four words of Philox block (run, t, block, 0) under `key`, by
    numpy's own Philox4x64-10. numpy steps its counter before each block,
    so it starts one below."""
    counter = (run + (t << 64) + (block << 128) - 1) % 2**256
    return np.random.Philox(counter=counter, key=key).random_raw(4)


def reference_draws(key, run, t, count):
    """(three uniforms, `count` standard normals) of slot t of a run, one
    block at a time through `philox_block`, Box-Muller by `math`."""
    def uniforms(block):
        return [(int(w) >> 11) * 2.0 ** -53 for w in philox_block(key, run, t, block)]

    normals = []
    for block in range(1, 1 + -(-count // 4)):
        u = uniforms(block)
        for a, b in ((u[0], u[1]), (u[2], u[3])):
            radius = math.sqrt(-2.0 * math.log(1.0 - a))
            normals += [radius * math.cos(2.0 * math.pi * b), radius * math.sin(2.0 * math.pi * b)]
    return uniforms(0)[:3], np.array(normals[:count])


def bundle_document(bundle):
    """The JSON object of `bundle`'s file, as save_bundle writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bundle.json")
        solver.save_bundle(bundle, path)
        with open(path) as fh:
            return json.load(fh)


def document_table(doc, name):
    """Table `name` of a bundle document as a writable array, decoded here
    from the file format rather than by the package: P and Ptilde hold the
    upper triangle of each matrix, row by row, and are mirrored below it."""
    entry = doc[name]
    data = np.frombuffer(base64.b64decode(entry["data"]), "<f8")
    if name not in ("P", "Ptilde"):
        return data.reshape(entry["shape"]).copy()
    *stack, n, _ = entry["shape"]
    table = np.empty((math.prod(stack), n, n))
    triangles = iter(data)
    for matrix in table:
        for i in range(n):
            for j in range(i, n):
                matrix[i, j] = matrix[j, i] = next(triangles)
    return table.reshape(entry["shape"])


def with_table(doc, name, table):
    """A copy of the bundle document `doc` whose table `name` is `table`,
    which for P and Ptilde must be a stack of symmetric matrices."""
    table = np.asarray(table, "<f8")
    if name in ("P", "Ptilde"):
        n = table.shape[-1]
        assert np.array_equal(table, np.swapaxes(table, -1, -2)), name
        data = np.array([m[i, j] for m in table.reshape(-1, n, n) for i in range(n) for j in range(i, n)], "<f8")
    else:
        data = table
    return {**doc, name: {"shape": list(table.shape), "data": base64.b64encode(data.tobytes()).decode()}}


def with_entry(doc, name, index, value):
    """A copy of the bundle document `doc` whose table `name` holds `value` at `index`."""
    table = document_table(doc, name)
    table[index] = value
    return with_table(doc, name, table)


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
            _, _, D = model.assemble_system(spec, m0, m1)
            s = np.concatenate([x0, x_hat1, presc.u0, presc.qbar[m1]])
            x_next += m.pi_m1[m1] * (D[d.d_x0:, :] @ s)
        return x_next
    _, _, D = model.assemble_system(spec, m0, ztilde_t)
    s = np.concatenate([x0, x_hat1, presc.u0, presc.qbar[ztilde_t]])
    return D[d.d_x0:, :] @ s


def reference_rollout(spec, policy, seed, run_index):
    """One run by a plain per-step loop, as a cross-check of the simulator.

    The draws follow the layout in the `ncslqr.sim` docstring but come from
    numpy's Philox (`reference_draws`); modes are picked by a scan of the
    cumulative weights, the dynamics come from `assemble_system` at every
    step, and actions and estimates from `control.compute_prescription`,
    `local_action` and `estimator_update` (the full-information reference
    applies its received-branch gain and copies x1 into the estimate). Raises
    NonFiniteError at the first non-finite state, action or stage cost.
    """
    d, m, st, T = spec.dims, spec.modes, spec.stoch, spec.T
    key = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)
    gaussian = st.family == "gaussian"
    count = d.d_x if gaussian else 0

    def pick(weights, u):
        cdf = np.cumsum(weights) / np.sum(weights)
        return next(k for k, c in enumerate(cdf) if u < c)

    x0, x1 = st.mu_x0.copy(), st.mu_x1.copy()
    _, z = reference_draws(key, run_index, 0, count)
    if gaussian:
        x0 = x0 + sim.noise_factor(st.cov_x0) @ z[:d.d_x0]
        x1 = x1 + sim.noise_factor(st.cov_x1) @ z[d.d_x0:]
    rec = {k: [] for k in ("x0", "x1", "m0", "m1", "gamma", "u0", "u1", "x_hat1", "stage_cost")}
    pending = None
    for t in range(T + 1):
        u_m0, u_m1, u_gamma = reference_draws(key, run_index, t, 0)[0]
        m0, m1 = pick(m.pi_m0, u_m0), pick(m.pi_m1, u_m1)
        gamma = int(u_gamma < spec.channel.p1)
        w0, w1 = np.zeros(d.d_x0), np.zeros(d.d_x1)
        if gaussian and t < T:
            _, z = reference_draws(key, run_index, t + 1, count)
            w0 = sim.noise_factor(st.covW0[t]) @ z[:d.d_x0]
            w1 = sim.noise_factor(st.covW1[t]) @ z[d.d_x0:]

        if t == 0:
            x_hat1 = x1.copy() if gamma == 1 else st.mu_x1.copy()
        elif policy.full_information:
            x_hat1 = x1.copy()
        else:
            x_hat1 = estimator_update(spec, *pending, x1 if gamma == 1 else None)

        if policy.full_information:
            u = policy.gains.K_received[t, m0, m1] @ np.concatenate([x0, x1])
            u0, u1 = u[:d.d_u0], u[d.d_u0:]
        else:
            zt = m1 if gamma == 1 else EMPTY
            presc = control.compute_prescription(policy.gains, spec, t, m0, zt, x0, x_hat1)
            u0, u1 = presc.u0, local_action(presc, x1, m1, x_hat1)
            pending = (x_hat1, x0, m0, zt, presc)
        x = np.concatenate([x0, x1])
        u = np.concatenate([u0, u1])
        cost = float(x @ spec.cost.Q[t, m0, m1] @ x + u @ spec.cost.R[t, m0, m1] @ u)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u)) and np.isfinite(cost)):
            raise NonFiniteError(f"state, action or stage cost non-finite at t={t}")
        for name, val in zip(rec, (x0, x1, m0, m1, gamma, u0, u1, x_hat1, cost)):
            rec[name].append(val)
        if t < T:
            x_next = model.assemble_system(spec, m0, m1)[2] @ np.concatenate([x, u])
            x0, x1 = x_next[:d.d_x0] + w0, x_next[d.d_x0:] + w1
    rec = {k: np.array(v) for k, v in rec.items()}
    return sim.Trajectory(**rec, total_cost=float(sum(rec["stage_cost"])))


def time_varying_config(rng, p1, T=3):
    """Battery instance (kappa1 = 2) whose cost weights are drawn anew for
    every step: Q[t] and R[t] differ at each t and each mode pair."""
    cfg = random_config(rng, p1=p1, kappa1=2, T=T)
    d, pairs = cfg["dims"], 2 * cfg["modes"]["kappa0"]
    dx, du = d["d_x0"] + d["d_x1"], d["d_u0"] + d["d_u1"]
    cfg["cost"] = {
        "Q": [[rand_psd(rng, dx).tolist() for _ in range(pairs)] for _ in range(T + 1)],
        "R": [[rand_psd(rng, du, 0.5).tolist() for _ in range(pairs)] for _ in range(T + 1)],
    }
    return cfg


def battery_configs(n=20, seed=1):
    """Deterministic battery of configs covering all four channel success rates."""
    rng = np.random.default_rng(seed)
    p1s = [0.0, 0.3, 0.7, 1.0]
    return [random_config(rng, p1=p1s[i % 4]) for i in range(n)]


def battery_specs(n=20, seed=1):
    """The battery's configs, loaded."""
    return [model.load_config(cfg) for cfg in battery_configs(n, seed)]


@pytest.fixture(scope="session")
def battery():
    return battery_specs()
