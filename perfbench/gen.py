"""Seeded problem generator for the benchmark workloads.

Follows the shape of ``random_config`` in the test suite, with explicit
sizes and with the A blocks scaled by 1/sqrt(columns) so that long horizons
(T = 200) keep every value table and simulated state finite. The same
(shape, seed) always yields a byte-identical config file.
"""

import json

import numpy as np


def make_config(shape, seed):
    """Config dict for shape (T, kappa0, kappa1, d_x0, d_x1, d_u0, d_u1, p1)."""
    T, k0, k1, dx0, dx1, du0, du1, p1 = shape
    rng = np.random.default_rng(seed)

    def pvec(k):
        v = rng.random(k) + 0.2
        return (v / v.sum()).tolist()

    def mats(n_r, n_c, count, scale):
        return [(scale * rng.standard_normal((n_r, n_c))).tolist() for _ in range(count)]

    def psd(n, scale=1.0):
        A = rng.standard_normal((n, n))
        return (scale * (A @ A.T / n + 0.1 * np.eye(n))).tolist()

    dx, du = dx0 + dx1, du0 + du1
    return {
        "dims": {"d_x0": dx0, "d_x1": dx1, "d_u0": du0, "d_u1": du1},
        "modes": {"kappa0": k0, "kappa1": k1, "pi_m0": pvec(k0), "pi_m1": pvec(k1)},
        "channel": {"p1": p1},
        "system": {
            "A00": mats(dx0, dx0, k0, 0.7 / dx0 ** 0.5),
            "B00": mats(dx0, du0, k0, 0.7),
            "A10": mats(dx1, dx0, k0 * k1, 0.7 / dx0 ** 0.5),
            "A11": mats(dx1, dx1, k0 * k1, 0.7 / dx1 ** 0.5),
            "B10": mats(dx1, du0, k0 * k1, 0.7),
            "B11": mats(dx1, du1, k0 * k1, 0.7),
        },
        "cost": {
            "Q": [psd(dx) for _ in range(k0 * k1)],
            "R": [psd(du, 0.5) for _ in range(k0 * k1)],
            "time_varying": False,
        },
        "stoch": {
            "T": T,
            "covW0": psd(dx0, 0.3),
            "covW1": psd(dx1, 0.3),
            "init": {
                "mu_x0": rng.standard_normal(dx0).tolist(),
                "cov_x0": psd(dx0),
                "mu_x1": rng.standard_normal(dx1).tolist(),
                "cov_x1": psd(dx1),
            },
            "family": "gaussian",
        },
    }


def config_bytes(shape, seed):
    return (json.dumps(make_config(shape, seed), indent=1) + "\n").encode()
