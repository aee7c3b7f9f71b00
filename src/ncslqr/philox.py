"""Philox4x64-10 counter-based generator on numpy uint64 arrays.

The generator of Salmon, Moraes, Dror & Shaw ("Parallel random numbers: as
easy as 1, 2, 3", SC'11), the same one numpy's `np.random.Philox` runs.
A seed's key is numpy's `SeedSequence(seed).generate_state(2, np.uint64)`,
hashed here in plain Python, so no caller needs `numpy.random`, nor the
`secrets` and `hashlib` imports it brings with it, which load OpenSSL's
libcrypto. Under numpy 1.x `import numpy` loads `numpy.random` itself, so
nothing is saved there; the draws are the same either way.
"""

import numpy as np

# Philox4x64 round multipliers and Weyl key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_TWO_PI = 2.0 * np.pi

# numpy's SeedSequence hash constants (O'Neill's seed_seq_fe, 4-word pool).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hasher(const, mult):
    """numpy's SeedSequence hash step on 32-bit words, carrying its
    running constant from call to call."""
    def step(value):
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return step


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def key(seed):
    """The Philox key of a non-negative integer seed: numpy's
    `SeedSequence(seed).generate_state(2, np.uint64)`, bit for bit."""
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = []  # 32-bit words, least significant first; 0 has none
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(value) for value in (entropy + [0] * _POOL_SIZE)[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for value in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(value))
    lo0, hi0, lo1, hi1 = map(_hasher(_INIT_B, _MULT_B), pool)
    return np.array([lo0 | hi0 << 32, lo1 | hi1 << 32], dtype=np.uint64)


def _mulhilo(m, b):
    """(hi, lo) words of the 128-bit product m * b, for a 64-bit constant m
    and a uint64 array b, from the 32-bit halves' products (each sum below
    stays under 2**64)."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    b_lo, b_hi = b & _LOW32, b >> _SHIFT32
    mid = b_hi * m_lo + (b_lo * m_lo >> _SHIFT32)
    carry = b_lo * m_hi + (mid & _LOW32)
    return b_hi * m_hi + (mid >> _SHIFT32) + (carry >> _SHIFT32), b * np.uint64(m)


def blocks(key, c0, c1, c2):
    """Philox4x64-10 blocks at the counters (c0, c1, c2, 0) under `key`.

    c0, c1 and c2 are uint64 arrays that broadcast together; the result
    stacks each block's four output words on a new last axis.
    """
    k0, k1 = int(key[0]), int(key[1])
    c3 = np.uint64(0)
    for r in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        rk0 = np.uint64((k0 + r * _PHILOX_W[0]) % 2**64)
        rk1 = np.uint64((k1 + r * _PHILOX_W[1]) % 2**64)
        c0, c1, c2, c3 = hi1 ^ c1 ^ rk0, lo1, hi0 ^ c3 ^ rk1, lo0
    return np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1)


def uniforms(words):
    """The uniforms (w >> 11) * 2**-53 of uint64 words, as
    `Generator.random` computes them; `words` is consumed."""
    words >>= np.uint64(11)
    u = words.astype(float)
    u *= 2.0 ** -53
    return u


def box_muller(u):
    """Standard normals of uniforms u (..., 4), four per block: by Box &
    Muller (Ann. Math. Statist. 1958) on the pairs (u0, u1) and (u2, u3),
    sqrt(-2 ln(1 - u0)) * (cos 2 pi u1, sin 2 pi u1), then the same for
    (u2, u3)."""
    radius = 1.0 - u[..., 0::2]
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = _TWO_PI * u[..., 1::2]
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1).reshape(u.shape)
