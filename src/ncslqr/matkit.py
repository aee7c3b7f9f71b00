"""Small dense-matrix utilities the backward recursions are written in.

Everything here is a pure function on numpy arrays: Schur complements,
mode-selector matrices, and definiteness checks with scale-free
tolerances. Matrix arguments may be stacks of shape (..., n, n). A check
on a stack reports the first failing matrix in C order; its `name` may be
a function of that matrix's index. A matrix that overflows in `sym` has
NaN eigenvalues and fails every check, unwarned.
"""

import numpy as np

from .errors import DefinitenessError, DimensionError, SingularBlockError

SYM_TOL = 1e-10
DEF_TOL = 1e-10


def sym(M):
    """Symmetrize; used after every recursion step to stop drift."""
    return 0.5 * (M + np.swapaxes(M, -1, -2))


@np.errstate(over="ignore", invalid="ignore")
def _sym_eigs(M):
    """(sym(M), its eigenvalues) for each matrix of a stack; the eigenvalues
    are NaN where sym(M) is not finite, on which LAPACK may not converge."""
    S = sym(M)
    finite = np.isfinite(S).all(axis=(-2, -1))
    lam = np.linalg.eigvalsh(S if finite.all() else np.where(finite[..., None, None], S, 0.0))
    lam[~finite] = np.nan
    return S, lam


def _scale(M):
    """max(1, max |eigenvalue of sym(M)|) for each matrix of a stack: for a
    symmetric M this is max(1, ||M||_2), without an SVD."""
    return np.maximum(1.0, np.abs(_sym_eigs(M)[1]).max(axis=-1))


def _first(bad):
    """Index of the first True entry of a boolean stack, or None."""
    hits = np.argwhere(bad)
    return tuple(int(i) for i in hits[0]) if len(hits) else None


def _label(name, index):
    return name(*index) if callable(name) else name


@np.errstate(over="ignore", invalid="ignore")
def _symmetric_eigs(M, name):
    """(sym(M), its eigenvalues, max(1, max |eigenvalue|)) for a stack M,
    after checking that each matrix is square and symmetric to SYM_TOL
    relative to that scale."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        first = (0,) * max(M.ndim - 2, 0)
        raise DimensionError(f"{_label(name, first)} is not square: shape {M.shape}")
    S, lam = _sym_eigs(M)
    scale = np.maximum(1.0, np.abs(lam).max(axis=-1))
    asym = np.abs(M - np.swapaxes(M, -1, -2)).max(axis=(-2, -1))
    i = _first(asym > SYM_TOL * scale)
    if i is not None:
        raise DefinitenessError(f"{_label(name, i)} is not symmetric (asymmetry {asym[i]:.3e})")
    return S, lam, scale


def min_eig(M):
    """Smallest eigenvalue of sym(M), for each matrix of a stack."""
    return _sym_eigs(M)[1].min(axis=-1)


def checked_psd(M, tol, name):
    """(sym(M), min eigenvalue per matrix), after the assert_psd check; the
    minima are min_eig(M), bitwise, from the one eigendecomposition that
    check makes."""
    S, lam, scale = _symmetric_eigs(M, name)
    lo = lam[..., 0]
    i = _first(~(lo >= -tol * scale))
    if i is not None:
        raise DefinitenessError(f"{_label(name, i)} is not PSD", min_eig=lo[i])
    return S, lo


def assert_psd(M, name="matrix"):
    """sym(M), after checking that each matrix of the stack is symmetric and
    PSD: min eigenvalue >= -DEF_TOL * max(1, max |eigenvalue|)."""
    return checked_psd(M, DEF_TOL, name)[0]


def assert_pd(M, name="matrix"):
    """sym(M), after checking that each matrix of the stack is symmetric and
    PD: min eigenvalue > DEF_TOL * max(1, max |eigenvalue|)."""
    S, lam, scale = _symmetric_eigs(M, name)
    lo = lam[..., 0]
    i = _first(~(lo > DEF_TOL * scale))
    if i is not None:
        raise DefinitenessError(f"{_label(name, i)} is not PD", min_eig=lo[i])
    return S


def schur_complement(G, n_top):
    """(SC, gain) for each matrix of a stack G = [[G11, G12], [G21, G22]]
    split after n_top: gain = G22^-1 G21 and SC = G11 - G12 gain.

    G is symmetric. G22 must be PD relative to max(1, ||G||_2), read off
    the eigenvalues of G, or SingularBlockError names the first failing
    matrix; this is the numerical signature of the R-PD assumption breaking
    down.

    The eigenvalues of G are computed only when a cheaper bound cannot
    decide: ||G||_2 <= ||G||_F, so b = max(1, ||G||_F (1 + 1e-9)) is at
    least the exact scale (the factor covers rounding in both). A block
    with min eig(G22) > DEF_TOL * b passes the exact check too, so when
    every block clears b the decision is already made; otherwise the exact
    scale decides, as it always did.
    """
    n = n_top
    g11, g12, g21, g22 = G[..., :n, :n], G[..., :n, n:], G[..., n:, :n], G[..., n:, n:]
    frobenius = np.sqrt(np.einsum("...ij,...ij->...", G, G))
    bound = np.maximum(1.0, frobenius * (1.0 + 1e-9))
    gain = solve_pd(g22, g21, bound, lambda: _scale(G))
    return sym(g11 - g12 @ gain), gain


def solve_pd(G22, rhs, bound, exact_scale):
    """Solve G22 x = rhs for each matrix of a stack, after checking that
    min eig(G22) > DEF_TOL * exact_scale() per matrix.

    `bound` is an upper bound on the exact scale, per matrix; exact_scale()
    computes that scale and is called only if some matrix fails the check
    against the bound.
    """
    lo = min_eig(G22)
    bad = ~(lo > DEF_TOL * bound)
    if bad.any():
        bad = ~(lo > DEF_TOL * exact_scale())
    i = _first(bad)
    if i is not None:
        raise SingularBlockError(
            f"trailing block is not PD (min eigenvalue {lo[i]:.3e})", index=i
        )
    return np.linalg.solve(sym(G22), rhs)


def build_L(dims, kappa1, m1):
    """Selector picking vec(x, u0, qbar(m1)) out of vec(x, u0, qbar(1..kappa1)).

    `m1` is a 0-based local-mode index. Rows are orthonormal: L @ L.T = I.
    """
    if not 0 <= m1 < kappa1:
        raise IndexError(f"local mode {m1} out of range for kappa1={kappa1}")
    rows = dims.d_x + dims.d_u0 + dims.d_u1
    cols = dims.d_x + dims.d_u0 + kappa1 * dims.d_u1
    L = np.zeros((rows, cols))
    head = dims.d_x + dims.d_u0
    L[:head, :head] = np.eye(head)
    start = head + m1 * dims.d_u1
    L[head:, start:start + dims.d_u1] = np.eye(dims.d_u1)
    return L
