"""Problem definition: load, validate, and assemble the two-plant instance.

Users supply the six system blocks (A00, B00 per global mode; A10, A11,
B10, B11 per mode pair), never full A/B matrices, so the block-triangular
structure of the dynamics is guaranteed by construction. Mode values are
1-based in config files and 0-based everywhere inside the package; the
loader converts exactly once.

The loader (`load_config`) is the one place that checks a problem, Q PSD,
R PD and every noise covariance PSD included, each under one rule
(`matkit.assert_psd`/`assert_pd`) that the simulator shares. The spec
dataclasses are plain records that check nothing; build them through the
loader.
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


def _numbers(value, name):
    """`value` as a float array; ParseError unless every entry is a finite number."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{name} must hold numbers: {exc}") from exc
    if not np.isfinite(arr).all():
        raise ParseError(f"{name} has a non-finite entry")
    return arr


def _as_array(value, shape, name):
    arr = _numbers(value, name)
    if arr.shape != shape:
        raise ShapeError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


@dataclass(frozen=True)
class SystemBlocks:
    """Per-mode dynamics blocks. A00/B00 depend only on the global mode."""

    A00: np.ndarray  # (kappa0, d_x0, d_x0)
    B00: np.ndarray  # (kappa0, d_x0, d_u0)
    A10: np.ndarray  # (kappa0, kappa1, d_x1, d_x0)
    A11: np.ndarray  # (kappa0, kappa1, d_x1, d_x1)
    B10: np.ndarray  # (kappa0, kappa1, d_x1, d_u0)
    B11: np.ndarray  # (kappa0, kappa1, d_x1, d_u1)


@dataclass(frozen=True)
class CostSpec:
    """Stage cost weights, fully broadcast to shape (T+1, kappa0, kappa1, n, n)."""

    Q: np.ndarray
    R: np.ndarray
    time_varying: bool = False


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
    system: SystemBlocks
    cost: CostSpec
    stoch: StochasticsSpec

    @property
    def T(self):
        return self.stoch.T


def assemble_system(spec, m0, m1):
    """Full (A, B, D) for one mode pair; upper-right zero blocks are bit-zero."""
    d = spec.dims
    s = spec.system
    A = np.zeros((d.d_x, d.d_x))
    A[:d.d_x0, :d.d_x0] = s.A00[m0]
    A[d.d_x0:, :d.d_x0] = s.A10[m0, m1]
    A[d.d_x0:, d.d_x0:] = s.A11[m0, m1]
    B = np.zeros((d.d_x, d.d_u))
    B[:d.d_x0, :d.d_u0] = s.B00[m0]
    B[d.d_x0:, :d.d_u0] = s.B10[m0, m1]
    B[d.d_x0:, d.d_u0:] = s.B11[m0, m1]
    D = np.hstack([A, B])
    return A, B, D


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
    """A finite JSON number field, as a float."""
    value = _require(mapping, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}.{key} must be a number, got {value!r}")
    return float(_numbers(value, f"{where}.{key}"))


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


def _pair_list_to_array(entries, k0, k1, block_shape, name):
    arr = _numbers(entries, name)
    if arr.shape != (k0 * k1,) + block_shape:
        raise ShapeError(
            f"{name} must be a list of {k0 * k1} matrices of shape {block_shape}, "
            f"got array shape {arr.shape}"
        )
    out = np.empty((k0, k1) + block_shape)
    for m1 in range(k1):
        for m0 in range(k0):
            out[m0, m1] = arr[m1 * k0 + m0]
    return out


def _array_to_pair_list(arr):
    k0, k1 = arr.shape[:2]
    return [arr[m0, m1].tolist() for m1 in range(k1) for m0 in range(k0)]


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
    except ValueError as exc:  # numpy cannot hold T+1 steps
        raise ShapeError(f"stoch.T = {T} is too large: {exc}") from exc


def _load_cost(cost_cfg, dims, modes, T):
    """(time_varying, Q, R), the weights stacked over (t, m0, m1) with a
    single t when they are time-invariant."""
    time_varying = cost_cfg.get("time_varying", False) if isinstance(cost_cfg, dict) else False
    if not isinstance(time_varying, bool):
        raise ParseError(f"cost.time_varying must be true or false, got {time_varying!r}")
    stacks = []
    for key, n in (("Q", dims.d_x), ("R", dims.d_u)):
        raw = _require(cost_cfg, key, "cost")
        if time_varying:
            if not isinstance(raw, list) or len(raw) != T + 1:
                raise ShapeError(f"cost.{key} must list T+1={T + 1} entries when time_varying")
            arr = np.stack([
                _pair_list_to_array(e, modes.kappa0, modes.kappa1, (n, n), f"cost.{key}[t={t}]")
                for t, e in enumerate(raw)
            ])
        else:
            arr = _pair_list_to_array(raw, modes.kappa0, modes.kappa1, (n, n), f"cost.{key}")[None]
        stacks.append(arr)
    return time_varying, *stacks


def load_config(cfg):
    """Build a validated ProblemSpec from an already-parsed config dict."""
    dims_cfg = _require(cfg, "dims", "config")
    dims = Dims(*(_positive(dims_cfg, key, "dims") for key in ("d_x0", "d_x1", "d_u0", "d_u1")))
    modes_cfg = _require(cfg, "modes", "config")
    k0, k1 = _positive(modes_cfg, "kappa0", "modes"), _positive(modes_cfg, "kappa1", "modes")
    modes = ModeSpec(k0, k1, _distribution(modes_cfg, "pi_m0", k0), _distribution(modes_cfg, "pi_m1", k1))
    p1 = _number(_require(cfg, "channel", "config"), "p1", "channel")
    if not 0.0 <= p1 <= 1.0:
        raise ProbabilityError(f"channel.p1 must be in [0, 1], got {p1}")

    sys_cfg = _require(cfg, "system", "config")
    A00 = _as_array(_require(sys_cfg, "A00", "system"), (k0, dims.d_x0, dims.d_x0), "system.A00")
    B00 = _as_array(_require(sys_cfg, "B00", "system"), (k0, dims.d_x0, dims.d_u0), "system.B00")
    system = SystemBlocks(
        A00=A00,
        B00=B00,
        A10=_pair_list_to_array(_require(sys_cfg, "A10", "system"), k0, k1, (dims.d_x1, dims.d_x0), "system.A10"),
        A11=_pair_list_to_array(_require(sys_cfg, "A11", "system"), k0, k1, (dims.d_x1, dims.d_x1), "system.A11"),
        B10=_pair_list_to_array(_require(sys_cfg, "B10", "system"), k0, k1, (dims.d_x1, dims.d_u0), "system.B10"),
        B11=_pair_list_to_array(_require(sys_cfg, "B11", "system"), k0, k1, (dims.d_x1, dims.d_u1), "system.B11"),
    )

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
    time_varying, Q, R = _load_cost(_require(cfg, "cost", "config"), dims, modes, T)

    cost = CostSpec(
        Q=_over_time(matkit.assert_psd(Q, name=_pair_label("cost.Q")), T),
        R=_over_time(matkit.assert_pd(R, name=_pair_label("cost.R")), T),
        time_varying=time_varying,
    )
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
    return ProblemSpec(dims, modes, ChannelSpec(p1), system, cost, stoch)


def load_problem(path):
    """Load and validate a problem instance from a JSON config file."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    return load_config(cfg)


def problem_to_config(spec):
    """Serialize back to the config-dict form accepted by load_config."""
    d, m, st, c = spec.dims, spec.modes, spec.stoch, spec.cost
    cost_cfg = {"time_varying": c.time_varying}
    for key, arr in (("Q", c.Q), ("R", c.R)):
        if c.time_varying:
            cost_cfg[key] = [_array_to_pair_list(arr[t]) for t in range(st.T + 1)]
        else:
            cost_cfg[key] = _array_to_pair_list(arr[0])
    return {
        "dims": {"d_x0": d.d_x0, "d_x1": d.d_x1, "d_u0": d.d_u0, "d_u1": d.d_u1},
        "modes": {
            "kappa0": m.kappa0,
            "kappa1": m.kappa1,
            "pi_m0": m.pi_m0.tolist(),
            "pi_m1": m.pi_m1.tolist(),
        },
        "channel": {"p1": spec.channel.p1},
        "system": {
            "A00": spec.system.A00.tolist(),
            "B00": spec.system.B00.tolist(),
            "A10": _array_to_pair_list(spec.system.A10),
            "A11": _array_to_pair_list(spec.system.A11),
            "B10": _array_to_pair_list(spec.system.B10),
            "B11": _array_to_pair_list(spec.system.B11),
        },
        "cost": cost_cfg,
        "stoch": {
            "T": st.T,
            "covW0": [st.covW0[t].tolist() for t in range(st.T + 1)],
            "covW1": [st.covW1[t].tolist() for t in range(st.T + 1)],
            "init": {
                "mu_x0": st.mu_x0.tolist(),
                "cov_x0": st.cov_x0.tolist(),
                "mu_x1": st.mu_x1.tolist(),
                "cov_x1": st.cov_x1.tolist(),
            },
            "family": st.family,
        },
    }
