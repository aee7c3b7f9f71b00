"""Backward recursions producing value matrices, gains, constants, and J*.

Every table is one stacked array over t and the global mode m0. Value
tables also run over ztilde, the local mode received over the channel:
slots 0..kappa1-1 hold a received mode and the last slot, EMPTY = -1,
stands for nothing received.

    P           (T+2, kappa0, kappa1+1, d_x, d_x)
    Ptilde      (T+2, kappa0, kappa1+1, d_x1, d_x1)
    K_empty     (T+1, kappa0, d_u0 + kappa1 d_u1, d_x)  vec(x0, xhat) -> vec(u0, qbar(1..kappa1))
    K_received  (T+1, kappa0, kappa1, d_u, d_x)         vec(x0, x1) -> vec(u0, u1)
    Ktilde      (T+1, kappa0, kappa1, d_u1, d_x1)       x1 - xhat -> u1 innovation term

Each step t reads only the t+1 tables and runs three batched blocks: the
empty branch (over m0), the received branches (over m0, m1) and the local
recursion (over m0, m1). Each block is one guarded solve that yields both
the Schur complement and the gain.
"""

import base64
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__, matkit
from .errors import NonFiniteError, OutputError, ParseError, SingularBlockError
from .model import assemble_system  # noqa: F401  (perfbench/launch.py wraps solver.assemble_system)
from .model import non_number

PSD_SLACK = 1e-9

# ztilde slot for "no transmission"; received local modes are 0..kappa1-1.
EMPTY = -1


def _T(M):
    return np.swapaxes(M, -1, -2)


def _weights(spec):
    """w[m0, ztilde] = P(M0 = m0, Ztilde = ztilde); the EMPTY slot is the
    failed channel."""
    m, p1 = spec.modes, spec.channel.p1
    w = np.empty((m.kappa0, m.kappa1 + 1))
    w[:, :EMPTY] = p1 * np.outer(m.pi_m0, m.pi_m1)
    w[:, EMPTY] = (1.0 - p1) * m.pi_m0
    return w


def _branches(failed, received):
    """(kappa0, kappa1+1, ...) stack: the EMPTY slot from `failed`, the
    received slots from `received`."""
    return np.concatenate([received[:, :EMPTY], failed[:, EMPTY:]], axis=1)


def op_pi(G, spec):
    """Expectation of G(M0, Ztilde) over modes and the channel, for G
    stacked as (kappa0, kappa1+1, ...)."""
    return np.tensordot(_weights(spec), G, axes=2)


def op_psi(G1, G2, spec):
    """Channel-split expectation: G1 on the failed branch, G2 on the successful one."""
    return op_pi(_branches(G1, G2), spec)


def cost_blocks(spec, L, t):
    """Step t's cost blocks from Q[t] and R[t]: C = blockdiag(Q, R) (k0, k1,
    n, n), its local block C11 = blockdiag(Q11, R11) (k0, k1, n1, n1) and
    the empty branch's Cempty = sum_m1 pi(m1) L' C L (k0, ne, ne), for the
    selectors L[m1] of matkit.build_L."""
    d, pi1 = spec.dims, spec.modes.pi_m1
    Q, R = spec.cost.Q[t], spec.cost.R[t]
    C = np.zeros(Q.shape[:2] + (d.d_x + d.d_u,) * 2)
    C[..., :d.d_x, :d.d_x] = Q
    C[..., d.d_x:, d.d_x:] = R
    C11 = np.zeros(Q.shape[:2] + (d.d_x1 + d.d_u1,) * 2)
    C11[..., :d.d_x1, :d.d_x1] = Q[..., d.d_x0:, d.d_x0:]
    C11[..., d.d_x1:, d.d_x1:] = R[..., d.d_u0:, d.d_u0:]
    Cempty = np.zeros(Q.shape[:1] + (L.shape[-1],) * 2)
    for m1 in range(len(L)):
        Cempty += L[m1].T @ C[:, m1] @ L[m1] * pi1[m1]
    return C, C11, Cempty


@dataclass
class ValueTables:
    P: np.ndarray       # (T+2, kappa0, kappa1+1, d_x, d_x)
    Ptilde: np.ndarray  # (T+2, kappa0, kappa1+1, d_x1, d_x1)
    e: np.ndarray       # (T+2,)

    def shapes(self):
        return (self.P.shape, self.Ptilde.shape, self.e.shape)


@dataclass
class GainTables:
    K_empty: np.ndarray     # (T+1, kappa0, d_u0 + kappa1 d_u1, d_x)
    K_received: np.ndarray  # (T+1, kappa0, kappa1, d_u, d_x)
    Ktilde: np.ndarray      # (T+1, kappa0, kappa1, d_u1, d_x1)

    def shapes(self):
        return (self.K_empty.shape, self.K_received.shape, self.Ktilde.shape)


def gain_shapes(spec):
    """Shapes of (K_empty, K_received, Ktilde) for a problem."""
    d, m, steps = spec.dims, spec.modes, spec.T + 1
    return (
        (steps, m.kappa0, d.d_u0 + m.kappa1 * d.d_u1, d.d_x),
        (steps, m.kappa0, m.kappa1, d.d_u, d.d_x),
        (steps, m.kappa0, m.kappa1, d.d_u1, d.d_x1),
    )


def value_shapes(spec):
    """Shapes of (P, Ptilde, e) for a problem."""
    d, m, steps = spec.dims, spec.modes, spec.T + 2
    return (
        (steps, m.kappa0, m.kappa1 + 1, d.d_x, d.d_x),
        (steps, m.kappa0, m.kappa1 + 1, d.d_x1, d.d_x1),
        (steps,),
    )


@dataclass
class SolutionBundle:
    values: ValueTables
    gains: GainTables
    j_star: float
    solve_metadata: dict = field(default_factory=dict)
    # (T+1, 2): min eig of P[t] and of Ptilde[t] over (m0, ztilde), kept
    # from solve_backward's PSD check. Not serialised; None when loaded.
    stage_min_eig: np.ndarray | None = None


def _ztilde_name(zt, kappa1):
    return "empty" if zt == kappa1 else f"m{zt + 1}"


def _schur(H, n_top, name, where):
    """matkit.schur_complement of the stack H, after one finiteness check.

    A non-finite H raises NonFiniteError and a singular one
    SingularBlockError, each naming the first failing block as `name` at
    where(*index).
    """
    if not np.isfinite(H).all():
        i = np.argwhere(~np.isfinite(H).all(axis=(-2, -1)))[0]
        raise NonFiniteError(f"{name} non-finite at {where(*i)}")
    try:
        return matkit.schur_complement(H, n_top)
    except SingularBlockError as exc:
        raise SingularBlockError(f"{name} not PD at {where(*exc.index)}: {exc}", index=exc.index) from exc


@np.errstate(over="ignore", invalid="ignore")
def solve_backward(spec):
    """Run the coupled backward recursions and assemble the full solution.

    Step t builds its own cost blocks (cost_blocks), or keeps step t+1's
    when Q[t] and R[t] equal Q[t+1] and R[t+1], and reads only the t+1
    tables, so nothing but the returned tables grows with the horizon.
    Overflow is not warned about: a non-finite H block raises
    NonFiniteError before its solve, and so does a non-finite j_star.
    """
    d, m = spec.dims, spec.modes
    T, k1 = spec.T, m.kappa1
    pi1 = m.pi_m1[:, None, None]
    D = spec.D  # (k0, k1, d_x, d_x + d_u): [A B]
    L = np.array([matkit.build_L(d, k1, m1) for m1 in range(k1)])  # (k1, d_x + d_u, ne)
    D11 = np.concatenate([D[:, :, d.d_x0:, d.d_x0:d.d_x], D[:, :, d.d_x0:, d.d_x + d.d_u0:]], axis=-1)  # [A11 B11]
    Daug = D @ L  # (k0, k1, d_x, ne)
    Dempty = (Daug * pi1).sum(axis=1)  # (k0, d_x, ne): sum_m1 pi(m1) Daug
    De1, Da1 = Dempty[:, d.d_x0:], Daug[:, :, d.d_x0:]  # local-state rows

    P = np.zeros((T + 2, m.kappa0, k1 + 1, d.d_x, d.d_x))
    Ptilde = np.zeros((T + 2, m.kappa0, k1 + 1, d.d_x1, d.d_x1))
    K_empty, K_received, Ktilde = (np.empty(s) for s in gain_shapes(spec))
    e = np.zeros(T + 2)
    stage_min_eig = np.empty((T + 1, 2))

    Q, R = spec.cost.Q, spec.cost.R
    for t in range(T, -1, -1):
        # Step t+1's cost blocks serve step t too when its weights are the same.
        if t == T or not (np.array_equal(Q[t], Q[t + 1]) and np.array_equal(R[t], R[t + 1])):
            C, C11, Cempty = cost_blocks(spec, L, t)
        pi_next = op_pi(P[t + 1], spec)
        psi_next = op_psi(Ptilde[t + 1], P[t + 1, ..., d.d_x0:, d.d_x0:], spec)

        # ztilde = empty: u0 and every qbar(m1) from the common information.
        E = _T(Dempty) @ pi_next @ Dempty
        F = (_T(Da1) @ psi_next @ Da1 * pi1).sum(axis=1) - _T(De1) @ psi_next @ De1
        P[t, :, EMPTY], gain = _schur(
            matkit.sym(Cempty + E + F), d.d_x, "H^UU",
            lambda m0: f"t={t}, m0={m0 + 1}, ztilde=empty",
        )
        K_empty[t] = -gain

        # ztilde = m1: the received local mode is known to both controllers.
        P[t, :, :EMPTY], gain = _schur(
            matkit.sym(C + _T(D) @ pi_next @ D), d.d_x, "H^UU",
            lambda m0, m1: f"t={t}, m0={m0 + 1}, ztilde=m{m1 + 1}",
        )
        K_received[t] = -gain

        # Local value recursion.
        sc, gain = _schur(
            matkit.sym(C11 + _T(D11) @ psi_next @ D11), d.d_x1, "Htilde^U1U1",
            lambda m0, m1: f"t={t}, m0={m0 + 1}, m1={m1 + 1}",
        )
        Ptilde[t, :, :EMPTY] = sc
        Ptilde[t, :, EMPTY] = matkit.sym((sc * pi1).sum(axis=1))
        Ktilde[t] = -gain

        for j, (name, table) in enumerate((("P", P[t]), ("Ptilde", Ptilde[t]))):
            stage_min_eig[t, j] = matkit.checked_psd(
                table, PSD_SLACK,
                lambda m0, zt: f"{name} at t={t}, m0={m0 + 1}, ztilde={_ztilde_name(zt, k1)}",
            )[1].min()

        e[t] = (
            e[t + 1]
            + float(np.trace(pi_next[:d.d_x0, :d.d_x0] @ spec.stoch.covW0[t]))
            + float(np.trace(psi_next @ spec.stoch.covW1[t]))
        )

    values = ValueTables(P=P, Ptilde=Ptilde, e=e)
    gains = GainTables(K_empty=K_empty, K_received=K_received, Ktilde=Ktilde)
    j_star = analytic_cost(spec, values)
    if not np.isfinite(j_star):
        raise NonFiniteError(f"j_star = {j_star!r} non-finite")
    meta = {
        "psd_slack": PSD_SLACK,
        "ncslqr_version": __version__,
        "numpy_version": np.__version__,
    }
    return SolutionBundle(
        values=values, gains=gains, j_star=j_star, solve_metadata=meta, stage_min_eig=stage_min_eig,
    )


def analytic_cost(spec, values):
    """Expected optimal total cost E[V_0].

    X_0^0 and X_0^1 are independent, so the quadratic-form expectation splits
    into a mean term plus traces against the matching diagonal blocks of P_0.
    On the failed-channel branch the local state enters through the prior
    belief: its covariance multiplies Ptilde_0 rather than P_0^11.
    """
    d, st = spec.dims, spec.stoch
    mu = np.concatenate([st.mu_x0, st.mu_x1])
    P0 = values.P[0]
    local = _branches(values.Ptilde[0], P0[..., d.d_x0:, d.d_x0:])
    per_slot = (
        np.einsum("i,abij,j->ab", mu, P0, mu)
        + np.einsum("abij,ji->ab", P0[..., :d.d_x0, :d.d_x0], st.cov_x0)
        + np.einsum("abij,ji->ab", local, st.cov_x1)
    )
    return float(values.e[0] + np.sum(_weights(spec) * per_slot))


# --- serialization ----------------------------------------------------------

# A bundle file is one JSON object: "format", "j_star", "e", "solve_metadata"
# and, per table, {"shape": [...], "data": base64 of its little-endian float64
# bytes}. P and Ptilde are stacks of symmetric matrices, so their data holds
# only each matrix's upper triangle, in np.triu_indices(n) order.
FORMAT = "ncslqr-bundle 3"
_TABLES = ("P", "Ptilde", "K_empty", "K_received", "Ktilde")
_PACKED = ("P", "Ptilde")
_PIECE = 1 << 16  # characters of bundle text per read or write


def _non_finite(bundle):
    """Where the first non-finite table entry, or else a non-finite j_star, is; or None."""
    for name, table in {**vars(bundle.values), **vars(bundle.gains)}.items():
        finite = np.isfinite(table)
        if not finite.all():
            return f"solution table {name} has a non-finite entry at {tuple(np.argwhere(~finite)[0].tolist())}"
    if not np.isfinite(bundle.j_star):
        return f"j_star = {bundle.j_star!r} non-finite"
    return None


def _upper(n, size):
    """(rows, cols) of an n x n matrix's upper triangle, row by row, for a
    stack of `size` entries: none when it holds no matrices, whatever n."""
    return np.triu_indices(n if size else 0)


def _encode(table, name):
    """Table `name` as the file holds it. save_bundle hands json.dump one
    call of it per table, made when the encoder reaches that table, so one
    table's text is alive at a time. A P or Ptilde that is not a stack of
    matrices equal to their transposes, bit for bit, raises ValueError,
    since its upper triangles would not hold it."""
    data = np.ascontiguousarray(table, "<f8")
    if name in _PACKED:
        bits = data.view("<u8")
        if bits.ndim < 2 or not np.array_equal(bits, _T(bits)):
            raise ValueError(f"solution table {name} of shape {table.shape} is not a stack of symmetric matrices")
        rows, cols = _upper(table.shape[-1], data.size)
        data = np.ascontiguousarray(data[..., rows, cols])
    data = base64.b64encode(data)  # rebound, so that packed doubles are freed before the string is made
    return {"shape": list(table.shape), "data": data.decode("ascii")}


def _decode(entry, name):
    """The read-only table of a file entry (_encode). The shape and the data
    are checked, and the data's length must be the shape's, before anything
    the shape sizes is allocated."""
    shape, data = entry["shape"], entry.pop("data")  # popped, so that the text is freed once decoded
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"solution table {name} has shape {shape!r}, expected a list of non-negative integers")
    if not isinstance(data, str):
        raise ValueError(f"solution table {name} has data of type {type(data).__name__}, expected a base64 string")
    packed = name in _PACKED
    if packed and (len(shape) < 2 or shape[-1] != shape[-2]):
        raise ValueError(f"solution table {name} has shape {shape}, expected a stack of square matrices")
    data = base64.b64decode(data, validate=True)
    count = math.prod(shape[:-2]) * (shape[-1] * (shape[-1] + 1) // 2) if packed else math.prod(shape)
    if len(data) != 8 * count:
        raise ValueError(f"solution table {name} holds {len(data)} bytes, expected {8 * count} for shape {shape}")
    values = np.frombuffer(data, "<f8")  # read-only, over the decoded bytes
    if not packed:
        return values.reshape(shape)
    rows, cols = _upper(shape[-1], count)
    table = np.zeros(shape)
    table[..., rows, cols] = table[..., cols, rows] = values.reshape(*shape[:-2], len(rows))
    table.flags.writeable = False
    return table


class _Pieces:
    """A text file that json.dump writes into _PIECE characters at a time:
    TextIOWrapper.write encodes a longer string whole, a third copy of a
    table's text beside the two the encoder holds."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        for start in range(0, len(text), _PIECE):
            self.fh.write(text[start:start + _PIECE])


def save_bundle(bundle, path):
    """Write the bundle file: json.dump(..., indent=1) of its object. A
    non-finite entry raises NonFiniteError, since json would write it as
    NaN or Infinity, and a P or Ptilde that is not symmetric ValueError."""
    problem = _non_finite(bundle)
    if problem:
        raise NonFiniteError(problem)
    tables = {**vars(bundle.values), **vars(bundle.gains)}
    doc = {"format": FORMAT, "j_star": bundle.j_star, "e": bundle.values.e.tolist(), "solve_metadata": bundle.solve_metadata}
    doc.update((name, functools.partial(_encode, tables[name], name)) for name in _TABLES)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, _Pieces(fh), indent=1, default=lambda encode: encode())
    except OSError as exc:
        raise OutputError(f"cannot write solution bundle: {exc}") from exc


def load_bundle(path):
    """Read a bundle file. A failure to read or parse it, a file of another
    format (such as the nested tables of earlier releases) or a non-finite
    table entry or j_star (json reads NaN and Infinity) raises ParseError."""
    try:
        # As json.loads decodes bytes: a lone surrogate loads as it is. The
        # text is read in _PIECE pieces: freeing a buffer the size of the
        # file before the parse (the bytes fh.read() decodes) raises glibc's
        # mmap threshold, so the parsed strings land on the heap and stay
        # resident after the load (1.3 MB more peak in a solve-wide
        # simulate --solution).
        with open(path, encoding="utf-8", errors="surrogatepass") as fh:
            doc = json.loads("".join(iter(functools.partial(fh.read, _PIECE), "")))
        if not isinstance(doc, dict) or doc.get("format") != FORMAT:
            raise ValueError(f"not an {FORMAT!r} file; solve the problem again to write one")
        for key in ("j_star", "e"):
            leaf = non_number(doc[key])
            if leaf is not None:
                raise ValueError(f"{key} must hold numbers, got {leaf!r}")
        tables = {name: _decode(doc.pop(name), name) for name in _TABLES}
        values = ValueTables(P=tables.pop("P"), Ptilde=tables.pop("Ptilde"), e=np.asarray(doc["e"], dtype=float))
        bundle = SolutionBundle(values, GainTables(**tables), float(doc["j_star"]), dict(doc.get("solve_metadata", {})))
    except (OSError, LookupError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError and binascii.Error are ValueErrors;
        # a huge integer literal overflows as a float; deep nesting recurses.
        raise ParseError(f"cannot read solution bundle {path}: {type(exc).__name__}: {exc}") from exc
    problem = _non_finite(bundle)
    if problem:
        raise ParseError(f"cannot read solution bundle {path}: {problem}")
    return bundle
