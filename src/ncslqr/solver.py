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

import json
import re
import sys
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

    Step t builds its own cost blocks (cost_blocks) and reads only the t+1
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

    for t in range(T, -1, -1):
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
#
# A bundle file nests every table as t -> m0 (1-based) -> key ("empty", or
# "m<l>" for received local mode l), K holding the empty and received gains
# side by side: a table step sits 2 levels deep and its slots 3. Ptilde lists
# "empty" last except at t = T+1, the order bundles have always been in.


def _tables(bundle):
    """(name, steps) of each table, in file order."""
    steps = len(bundle.gains.K_received)
    return (("P", steps + 1), ("Ptilde", steps + 1), ("K", steps), ("Ktilde", steps))


def _step(bundle, name, t):
    """Step t of table `name` as the file nests it, {m0: {key: matrix}}
    with 1-based m0 keys and each matrix a view of its table."""
    v, g = bundle.values, bundle.gains
    steps, k0, k1 = g.K_received.shape[:3]
    keys = [f"m{j + 1}" for j in range(k1)]
    empty = None
    if name in ("P", "Ptilde"):
        table = getattr(v, name)[t]
        received, empty = table[:, :EMPTY], table[:, EMPTY]
    elif name == "K":
        received, empty = g.K_received[t], g.K_empty[t]
    else:
        received = g.Ktilde[t]

    def slot(m0):
        slots = dict(zip(keys, received[m0]))
        if empty is None:
            return slots
        if name == "Ptilde" and t < steps:
            return {**slots, "empty": empty[m0]}
        return {"empty": empty[m0], **slots}

    return {str(m0 + 1): slot(m0) for m0 in range(k0)}


def _tolist(step):
    """A step of _step with each matrix as nested lists."""
    return {key: _tolist(value) if isinstance(value, dict) else value.tolist() for key, value in step.items()}


def bundle_to_json(bundle):
    """The bundle as a JSON object. json.dump(..., indent=1) of it is the
    reference for the bytes save_bundle writes."""
    return {
        **{name: {str(t): _tolist(_step(bundle, name, t)) for t in range(steps)} for name, steps in _tables(bundle)},
        "e": bundle.values.e.tolist(),
        "j_star": bundle.j_star,
        "solve_metadata": bundle.solve_metadata,
    }


def _in_order(obj, first, where):
    """The values of `obj`, whose keys must read first, first + 1, ... in some order."""
    keys = [str(k) for k in range(first, first + len(obj))]
    if set(obj) != set(keys):
        raise ValueError(f"{where} has keys {list(obj)}, expected {keys}")
    return [obj[k] for k in keys]


def _stack(table, name, keys, slots=None):
    """Array [t, m0, key] of the nested t -> m0 -> key table `name`. Its t
    keys must count up from 0, its m0 keys from 1, and every slot must hold
    exactly the keys `slots` (by default `keys`)."""
    where = f"solution table {name}"
    want = sorted(keys if slots is None else slots)
    rows = []
    for t, per_t in enumerate(_in_order(table, 0, where)):
        row = []
        for m0, slot in enumerate(_in_order(per_t, 1, f"{where} at t={t}"), 1):
            if sorted(slot) != want:
                raise ValueError(f"{where} at t={t}, m0={m0} has slots {sorted(slot)}, expected {want}")
            row.append([slot[k] for k in keys])
        rows.append(row)
    return np.array(rows, dtype=float)


def _slot_arrays(obj):
    """json object_hook: a table slot, an object whose every key is "empty"
    or "m<l>", with each matrix as a float64 array; any other object as it is.

    With it, a parse holds the Python floats of one slot at a time. The
    keys are interned: _JsonStream decodes each slot in a call of its own,
    and json shares equal keys only within one call.
    """
    if obj and all(k == "empty" or k[:1] == "m" and k[1:].isdigit() for k in obj):
        return {sys.intern(k): np.array(v, dtype=float) for k, v in obj.items()}
    return obj


def bundle_from_json(obj):
    """The bundle of a JSON object as bundle_to_json writes it; its slots may
    hold nested lists or, as load_bundle reads them, arrays. A table whose
    steps, m0 keys or slot keys do not follow that layout raises ValueError,
    and so does a bool or a string as j_star or in e.

    Each table leaves a copy of `obj` as it is stacked, so that when the
    caller keeps no other reference (load_bundle), its slots are freed
    before the next table is stacked; P, the largest, goes last.
    """
    obj = {**obj}
    for key in ("j_star", "e"):
        leaf = non_number(obj[key])
        if leaf is not None:
            raise ValueError(f"{key} must hold numbers, got {leaf!r}")
    keys = [f"m{j + 1}" for j in range(len(obj["Ktilde"]["0"]["1"]))]
    slots = keys + ["empty"]
    Ktilde = _stack(obj.pop("Ktilde"), "Ktilde", keys)
    K = obj.pop("K")
    K_empty, K_received = _stack(K, "K", ["empty"], slots)[:, :, 0], _stack(K, "K", keys, slots)
    del K
    Ptilde = _stack(obj.pop("Ptilde"), "Ptilde", slots)
    P = _stack(obj.pop("P"), "P", slots)
    return SolutionBundle(
        values=ValueTables(P=P, Ptilde=Ptilde, e=np.asarray(obj["e"], dtype=float)),
        gains=GainTables(K_empty=K_empty, K_received=K_received, Ktilde=Ktilde),
        j_star=float(obj["j_star"]),
        solve_metadata=dict(obj.get("solve_metadata", {})),
    )


# Values formatted together in save_bundle: enough that a slab repeats many
# of its values, few enough that its strings stay small next to the tables.
_SLAB_VALUES = 16384


def _layout(step):
    """json.dumps(indent=1) text of a table step (_step) as it sits 2 levels
    deep in the file, with one %s per matrix entry."""
    nulls = {m0: {key: np.full(m.shape, None).tolist() for key, m in slot.items()} for m0, slot in step.items()}
    return json.dumps(nulls, indent=1).replace("\n", "\n  ").replace("null", "%s")


def _reprs(values):
    """float.__repr__ of each entry of a float64 vector, which is what json
    writes for a finite float, with one repr per distinct bit pattern, so
    that -0.0 and 0.0 stay apart."""
    bits, where = np.unique(values.view(np.uint64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return text[where].tolist()


def _slabs(bundle):
    """json.dumps(bundle_to_json(bundle), indent=1) up to its "e" member, as
    (template, matrices) slabs of whole table steps, of at most _SLAB_VALUES
    values unless one step is larger. Each step's layout (_layout) is built
    once per (table, slot order)."""
    steps = {}
    template, matrices, size = ["{"], [], 0
    for name, count in _tables(bundle):
        template.append(f'\n "{name}": {{')
        for t in range(count):
            step = _step(bundle, name, t)
            key = name, *next(iter(step.values()), ())
            if key not in steps:
                steps[key] = _layout(step)
            leaves = [m for slot in step.values() for m in slot.values()]
            n = sum(m.size for m in leaves)
            if matrices and size + n > _SLAB_VALUES:
                yield template, matrices
                template, matrices, size = [], [], 0
            # The layout goes in as an item of its own: the slab's steps share it.
            template += f'{"," if t else ""}\n  "{t}": ', steps[key]
            matrices += leaves
            size += n
        template.append("\n },")
    yield template, matrices


def _non_finite(bundle):
    """Where the first non-finite table entry, or else a non-finite j_star, is; or None."""
    for name, table in {**vars(bundle.values), **vars(bundle.gains)}.items():
        bad = np.argwhere(~np.isfinite(table))
        if len(bad):
            return f"solution table {name} has a non-finite entry at {tuple(bad[0].tolist())}"
    if not np.isfinite(bundle.j_star):
        return f"j_star = {bundle.j_star!r} non-finite"
    return None


def save_bundle(bundle, path):
    """Write exactly json.dump(bundle_to_json(bundle), fh, indent=1), one
    table step at a time.

    json's C encoder does not indent, so its pure-Python one would format
    every float. Instead the table steps fill their text layouts (_slabs)
    with one % per slab of steps and one repr per distinct value in it
    (symmetric tables, repeated slots and converged steps hold many
    copies), so the writer holds one slab, not the horizon; json dumps `e`,
    `j_star` and `solve_metadata`. A non-finite entry raises
    NonFiniteError, since json would write it as NaN or Infinity, not as
    its repr.
    """
    problem = _non_finite(bundle)
    if problem:
        raise NonFiniteError(problem)
    tail = {"e": bundle.values.e.tolist(), "j_star": bundle.j_star, "solve_metadata": bundle.solve_metadata}
    try:
        with open(path, "w") as fh:
            for template, matrices in _slabs(bundle):
                # One expression, so that no slab's values outlive its write.
                fh.write("".join(template) % tuple(_reprs(np.concatenate([m.ravel() for m in matrices], dtype=float))))
            # Dumped at the document's depth: without its "{", the document's tail.
            fh.write(json.dumps(tail, indent=1)[1:])
    except OSError as exc:
        raise OutputError(f"cannot write solution bundle: {exc}") from exc


# Bytes of a bundle file read at a time by _JsonStream, before the rest of their line.
_WINDOW = 1 << 16

_WHITESPACE = re.compile(r"[ \t\n\r]*")


class _JsonStream:
    """json.loads(text, object_hook=_slot_arrays) of the UTF-8 text of a
    binary file, errors included, read one window at a time: _WINDOW bytes
    and the rest of their line. No JSON token and no UTF-8 character holds
    a newline byte, so each window decodes on its own ("surrogatepass", as
    json.loads decodes bytes).

    The objects less than 3 levels deep (the top level, each table, each
    step) are walked member by member; every other value (a table slot,
    `e`, `j_star`, `solve_metadata`) is decoded whole by json's C scanner,
    again with more text if it runs past the window. An error names its
    position in the file: the stream drops whole lines and counts their
    characters and lines.
    """

    _decode = json.JSONDecoder(object_hook=_slot_arrays).raw_decode

    def __init__(self, fh):
        self.fh, self.text, self.pos, self.eof = fh, "", 0, False
        self.chars = self.lines = 0  # dropped characters and lines

    def _more(self):
        """Drop the lines before pos's line and read at least a window
        more; at EOF change nothing and return False. EOF is read once:
        each read allocates its full size first."""
        chunk = b"" if self.eof else self.fh.read(max(_WINDOW, len(self.text) - self.pos)) + self.fh.readline()
        if not chunk:
            self.eof = True
            return False
        cut = self.text.rfind("\n", 0, self.pos) + 1
        self.chars, self.lines = self.chars + cut, self.lines + self.text.count("\n", 0, cut)
        # The old window and the bytes are freed before the join.
        rest, self.text = self.text[cut:], ""
        chunk = chunk.decode("utf-8", "surrogatepass")
        self.text, self.pos = rest + chunk, self.pos - cut
        return True

    def _next(self):
        """The next character that is not whitespace, or "" at EOF."""
        while True:
            self.pos = _WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or not self._more():
                return self.text[self.pos:self.pos + 1]

    def _whole(self):
        """The value at pos, decoded by json's scanner. Only an error at
        the end of the text can be the window's doing: then more text is
        read and the value decoded again; any other error is raised at
        once. Less than half a window ahead is topped up first, since each
        decode that fails at the edge counts the lines before it for its
        message."""
        if len(self.text) - self.pos < _WINDOW // 2:
            self._more()
        while True:
            try:
                value, self.pos = self._decode(self.text, self.pos)
                return value
            except json.JSONDecodeError as exc:
                if exc.pos != len(self.text) or not self._more():
                    raise

    def value(self, depth=0):
        """The next value, `depth` levels deep in the document."""
        if self._next() != "{" or depth > 2:
            return self._whole()
        self.pos += 1
        obj = {}
        delimiter = self._next()
        while delimiter != "}":
            if obj and delimiter != ",":
                raise json.JSONDecodeError("Expecting ',' delimiter", self.text, self.pos)
            self.pos += bool(obj)  # past the comma before every member but the first
            if self._next() != '"':
                raise json.JSONDecodeError("Expecting property name enclosed in double quotes", self.text, self.pos)
            key = self._whole()
            if self._next() != ":":
                raise json.JSONDecodeError("Expecting ':' delimiter", self.text, self.pos)
            self.pos += 1
            obj[key] = self.value(depth + 1)
            delimiter = self._next()
        self.pos += 1
        return _slot_arrays(obj)

    def document(self):
        """The file's one value; anything after it but whitespace is an error."""
        try:
            obj = self.value()
            if self._next():
                raise json.JSONDecodeError("Extra data", self.text, self.pos)
        except json.JSONDecodeError as exc:  # its position counts from the window, which starts a line
            exc.pos, exc.lineno = exc.pos + self.chars, exc.lineno + self.lines
            exc.args = (f"{exc.msg}: line {exc.lineno} column {exc.colno} (char {exc.pos})",)
            raise
        except UnicodeDecodeError as exc:  # counted from the file's start; earlier bytes read as 0
            before = self.fh.tell() - len(exc.object)
            exc.object, exc.start, exc.end = bytes(before) + exc.object, exc.start + before, exc.end + before
            raise
        return obj


def load_bundle(path):
    """Read a bundle file; any failure to read or parse it, or a non-finite
    table entry or j_star (json reads NaN and Infinity), raises ParseError.

    The file is read one window at a time (_JsonStream), and each table
    slot becomes arrays as soon as it is parsed (_slot_arrays), so the
    load holds the tables, not the file's text: it peaks below the file
    size unless the matrices are tiny.
    """
    try:
        with open(path, "rb") as fh:
            bundle = bundle_from_json(_JsonStream(fh).document())
    except (OSError, LookupError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        # json.JSONDecodeError and UnicodeDecodeError are ValueErrors; an
        # integer literal beyond float range raises OverflowError when it
        # becomes a float; a deeply nested value exhausts the recursion
        # limit.
        raise ParseError(f"cannot read solution bundle {path}: {type(exc).__name__}: {exc}") from exc
    problem = _non_finite(bundle)
    if problem:
        raise ParseError(f"cannot read solution bundle {path}: {problem}")
    return bundle
