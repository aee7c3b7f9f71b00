"""Problem definition: load, validate, and assemble the two-plant instance.

Users supply the six system blocks (A00, B00 per global mode; A10, A11,
B10, B11 per mode pair), never full A/B matrices, so the block-triangular
structure of the dynamics is guaranteed by construction. The loader stacks
them once into `spec.D`, shape (kappa0, kappa1, d_x, d_x + d_u): `D[m0, m1]`
is [A B] of the mode pair, and `assemble_system` slices it. Mode values are
1-based in config files and 0-based everywhere inside the package; the
loader converts exactly once.

The loader (`load_config`) is the one place that checks a problem, Q PSD,
R PD and every noise covariance PSD included, each under one rule
(`matkit.assert_psd`/`assert_pd`) that the simulator shares. The spec
dataclasses are plain records that check nothing; build them through the
loader. A variant of a loaded problem is a `dataclasses.replace` of it, as
in `replace(spec, channel=channel_spec(p))` for another success rate;
`channel_spec` checks p as the loader does.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import ParseError, ProbabilityError, ShapeError

PROB_TOL = 1e-12


@dataclass(frozen=True)
class Dims:
    d_x0: int
    d_x1: int
    d_u0: int
    d_u1: int

    @property
    def d_x(self):
        return self.d_x0 + self.d_x1

    @property
    def d_u(self):
        return self.d_u0 + self.d_u1


@dataclass(frozen=True)
class ModeSpec:
    kappa0: int
    kappa1: int
    pi_m0: np.ndarray
    pi_m1: np.ndarray


@dataclass(frozen=True)
class ChannelSpec:
    p1: float


def non_number(value):
    """The first bool or string among the entries of `value`, or None:
    numpy casts true and "3.0" to floats, but JSON calls neither a number."""
    leaves = np.asarray(value, dtype=object).ravel().tolist()
    bad = set(map(type, leaves)) & {bool, str}
    return next(v for v in leaves if type(v) in bad) if bad else None


def _numbers(value, name):
    """`value` as a float array; ParseError unless every entry is a finite
    number (non_number)."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{name} must hold numbers: {exc}") from exc
    leaf = non_number(value)
    if leaf is not None:
        raise ParseError(f"{name} must hold numbers, got {leaf!r}")
    if not np.isfinite(arr).all():
        raise ParseError(f"{name} has a non-finite entry")
    return arr


def _as_array(value, shape, name):
    arr = _numbers(value, name)
    if arr.shape != shape:
        raise ShapeError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def channel_spec(p1):
    """The channel of success rate `p1`, which must be a finite number in
    [0, 1]; the loader and every p1 variant of a problem build it here."""
    p1 = float(_numbers(p1, "channel.p1"))
    if not 0.0 <= p1 <= 1.0:
        raise ProbabilityError(f"channel.p1 must be in [0, 1], got {p1}")
    return ChannelSpec(p1)


@dataclass(frozen=True)
class CostSpec:
    """Stage cost weights, shape (T+1, kappa0, kappa1, n, n): read-only
    views, in which a time-invariant weight is held once. A variant weight
    is a new array, such as a copy."""

    Q: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class StochasticsSpec:
    T: int
    covW0: np.ndarray  # (T+1, d_x0, d_x0)
    covW1: np.ndarray  # (T+1, d_x1, d_x1)
    mu_x0: np.ndarray
    cov_x0: np.ndarray
    mu_x1: np.ndarray
    cov_x1: np.ndarray
    family: str = "gaussian"


@dataclass(frozen=True)
class ProblemSpec:
    dims: Dims
    modes: ModeSpec
    channel: ChannelSpec
    D: np.ndarray  # (kappa0, kappa1, d_x, d_x + d_u): [A B] per mode pair
    cost: CostSpec
    stoch: StochasticsSpec

    @property
    def T(self):
        return self.stoch.T


def assemble_system(spec, m0, m1):
    """(A, B, D) for one mode pair: views of `spec.D[m0, m1]`."""
    D = spec.D[m0, m1]
    return D[:, :spec.dims.d_x], D[:, spec.dims.d_x:], D


# --- config file handling ---------------------------------------------------
#
# `load_config` checks each field once, as it reads it, for presence, type,
# finiteness, shape and range. Symmetry and definiteness come last, by one
# eigendecomposition per given matrix (a time-invariant weight or covariance
# is checked before it is repeated over t), so that a config with a
# structural fault reports it (exit code 2) before a numerical one (exit
# code 3).
#
# Mode-pair lists in config files are flat and m1-major: the entry for
# (m0, m1), both 1-based, sits at index (m1 - 1) * kappa0 + (m0 - 1).
# The weights and noise covariances are given for one step or for each of
# the T+1 steps, and their number of axes says which (`_steps`).


def _require(mapping, key, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"missing field '{key}' in {where}")
    return mapping[key]


def _integer(mapping, key, where):
    """A JSON integer field; a float, a bool or any other type is a ParseError."""
    value = _require(mapping, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _positive(mapping, key, where):
    """A JSON integer field that is at least 1."""
    value = _integer(mapping, key, where)
    if value < 1:
        raise ShapeError(f"{where}.{key} must be a positive integer, got {value!r}")
    return value


def _number(mapping, key, where):
    """A JSON number field."""
    value = _require(mapping, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}.{key} must be a number, got {value!r}")
    return value


def _distribution(modes_cfg, key, kappa):
    """modes.<key>: a flat list of kappa nonnegative probabilities that sum
    to one."""
    name = f"modes.{key}"
    p = _numbers(_require(modes_cfg, key, "modes"), name)
    if p.shape != (kappa,):
        raise ShapeError(f"{name} must be a list of length {kappa}, got shape {p.shape}")
    if np.any(p < 0):
        raise ProbabilityError(f"{name} has a negative entry")
    if abs(p.sum() - 1.0) > PROB_TOL:
        raise ProbabilityError(f"{name} sums to {p.sum():.15g}, expected 1")
    return p


def _by_pair(arr, k0, k1):
    """A new array of `arr` with its flat, m1-major list over mode pairs
    (the third axis from the end) split into (m0, m1) axes."""
    pairs = arr.reshape(arr.shape[:-3] + (k1, k0) + arr.shape[-2:])
    return pairs.swapaxes(-4, -3).copy()


def _pair_label(name):
    """Names the (t, m0, m1) entry of a per-step, per-mode-pair stack."""
    return lambda t, m0, m1: f"{name}[t={t}, m0={m0 + 1}, m1={m1 + 1}]"


def _step_label(name):
    """Names the t entry of a per-step stack."""
    return lambda t: f"{name}[t={t}]"


def _steps(value, T, block_shape, name):
    """The matrices given for every step: a stack of one, or of T+1."""
    arr = _numbers(value, name)
    if arr.shape == block_shape:
        return arr[None]
    if arr.shape != (T + 1,) + block_shape:
        raise ShapeError(
            f"{name} must have shape {block_shape} or {(T + 1,) + block_shape}, "
            f"got {arr.shape}"
        )
    return arr


def _over_time(arr, T):
    """A stack of one step or of T+1 steps, as T+1 steps."""
    try:
        return np.broadcast_to(arr, (T + 1,) + arr.shape[1:]).copy()
    except (ValueError, MemoryError) as exc:  # numpy cannot shape or allocate T+1 steps
        raise ShapeError(f"stoch.T = {T} is too large: {exc}") from exc


def load_config(cfg):
    """Build a validated ProblemSpec from an already-parsed config dict."""
    dims_cfg = _require(cfg, "dims", "config")
    dims = Dims(*(_positive(dims_cfg, key, "dims") for key in ("d_x0", "d_x1", "d_u0", "d_u1")))
    modes_cfg = _require(cfg, "modes", "config")
    k0, k1 = _positive(modes_cfg, "kappa0", "modes"), _positive(modes_cfg, "kappa1", "modes")
    modes = ModeSpec(k0, k1, _distribution(modes_cfg, "pi_m0", k0), _distribution(modes_cfg, "pi_m1", k1))
    channel = channel_spec(_number(_require(cfg, "channel", "config"), "p1", "channel"))

    sys_cfg = _require(cfg, "system", "config")
    d_x0, d_x1, d_u0, d_u1 = dims.d_x0, dims.d_x1, dims.d_u0, dims.d_u1
    A00, B00 = [
        _as_array(_require(sys_cfg, key, "system"), (k0,) + shape, f"system.{key}")
        for key, shape in (("A00", (d_x0, d_x0)), ("B00", (d_x0, d_u0)))
    ]
    local = [
        _by_pair(_as_array(_require(sys_cfg, key, "system"), (k0 * k1,) + shape, f"system.{key}"), k0, k1)
        for key, shape in (("A10", (d_x1, d_x0)), ("A11", (d_x1, d_x1)), ("B10", (d_x1, d_u0)), ("B11", (d_x1, d_u1)))
    ]
    # Stacked only once every block has its shape; the global plant's rows
    # repeat over m1 and never read x1 or u1.
    top = [A00[:, None], np.zeros((k0, 1, d_x0, d_x1)), B00[:, None], np.zeros((k0, 1, d_x0, d_u1))]
    D = np.block([[np.broadcast_to(X, (k0, k1) + X.shape[2:]) for X in top], local])

    stoch_cfg = _require(cfg, "stoch", "config")
    T = _integer(stoch_cfg, "T", "stoch")
    if T < 0:
        raise ShapeError(f"stoch.T must be >= 0, got {T}")
    family = str(stoch_cfg.get("family", "gaussian"))
    if family not in ("gaussian", "zero"):
        raise ParseError(f"stoch.family must be 'gaussian' or 'zero', got {family!r}")
    init_cfg = _require(stoch_cfg, "init", "stoch")
    covW0 = _steps(_require(stoch_cfg, "covW0", "stoch"), T, (dims.d_x0, dims.d_x0), "stoch.covW0")
    covW1 = _steps(_require(stoch_cfg, "covW1", "stoch"), T, (dims.d_x1, dims.d_x1), "stoch.covW1")
    mu_x0 = _as_array(_require(init_cfg, "mu_x0", "stoch.init"), (dims.d_x0,), "stoch.init.mu_x0")
    cov_x0 = _as_array(_require(init_cfg, "cov_x0", "stoch.init"), (dims.d_x0, dims.d_x0), "stoch.init.cov_x0")
    mu_x1 = _as_array(_require(init_cfg, "mu_x1", "stoch.init"), (dims.d_x1,), "stoch.init.mu_x1")
    cov_x1 = _as_array(_require(init_cfg, "cov_x1", "stoch.init"), (dims.d_x1, dims.d_x1), "stoch.init.cov_x1")
    cost_cfg = _require(cfg, "cost", "config")
    Q, R = [
        _by_pair(_steps(_require(cost_cfg, key, "cost"), T, (k0 * k1, n, n), f"cost.{key}"), k0, k1)
        for key, n in (("Q", dims.d_x), ("R", dims.d_u))
    ]
    Q, R = matkit.assert_psd(Q, name=_pair_label("cost.Q")), matkit.assert_pd(R, name=_pair_label("cost.R"))

    # The noise covariances are copied over time, so that a horizon numpy
    # cannot hold is refused; the weights are views, which would not refuse it.
    stoch = StochasticsSpec(
        T=T,
        covW0=_over_time(matkit.assert_psd(covW0, name=_step_label("stoch.covW0")), T),
        covW1=_over_time(matkit.assert_psd(covW1, name=_step_label("stoch.covW1")), T),
        mu_x0=mu_x0,
        cov_x0=matkit.assert_psd(cov_x0, name="stoch.init.cov_x0"),
        mu_x1=mu_x1,
        cov_x1=matkit.assert_psd(cov_x1, name="stoch.init.cov_x1"),
        family=family,
    )
    cost = CostSpec(
        Q=np.broadcast_to(Q, (T + 1,) + Q.shape[1:]),
        R=np.broadcast_to(R, (T + 1,) + R.shape[1:]),
    )
    return ProblemSpec(dims, modes, channel, D, cost, stoch)


def load_problem(path):
    """Load and validate a problem instance from a JSON config file."""
    try:
        # As load_bundle reads a bundle: a lone surrogate loads as it is.
        with open(path, encoding="utf-8", errors="surrogatepass") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError or an over-long integer
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError as exc:  # json's scanner recurses once per nesting level
        raise ParseError(f"malformed JSON in {path}: nested too deeply ({exc})") from exc
    return load_config(cfg)
