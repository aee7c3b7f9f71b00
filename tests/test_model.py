import copy
import dataclasses
import itertools
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ncslqr import model, solver
from ncslqr.errors import (
    DefinitenessError,
    ParseError,
    ProbabilityError,
    ShapeError,
)
from conftest import random_config, s1_config, s2_config, time_varying_config

DATA = Path(__file__).resolve().parent / "data"
ASYMMETRIC = [[1.0, 0.5], [0.0, 1.0]]
INDEFINITE = [[1.0, 2.0], [2.0, 1.0]]


def _same_spec(a, b):
    """Whether two loaded specs hold the same fields, arrays entry by entry."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same_spec(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    return a == b


class TestLoad:
    def test_minimal_scalar_instance(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(s1_config()))
        spec = model.load_problem(path)
        assert spec.dims.d_x == 2
        assert spec.dims.d_u == 2
        assert spec.T == 0

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            model.load_problem(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            model.load_problem(tmp_path / "nope.json")

    def test_bad_probability_vector(self):
        cfg = s1_config()
        cfg["modes"]["kappa1"] = 2
        cfg["modes"]["pi_m1"] = [0.6, 0.5]
        cfg["system"]["A10"] = [[[1.0]], [[1.0]]]
        cfg["system"]["A11"] = [[[1.0]], [[1.0]]]
        cfg["system"]["B10"] = [[[1.0]], [[1.0]]]
        cfg["system"]["B11"] = [[[1.0]], [[1.0]]]
        cfg["cost"]["Q"] = cfg["cost"]["Q"] * 2
        cfg["cost"]["R"] = cfg["cost"]["R"] * 2
        with pytest.raises(ProbabilityError):
            model.load_config(cfg)

    def test_singular_R_rejected(self):
        cfg = s1_config()
        cfg["cost"]["R"] = [[[0.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(DefinitenessError):
            model.load_config(cfg)

    def test_indefinite_Q_rejected(self):
        cfg = s1_config()
        cfg["cost"]["Q"] = [[[1.0, 2.0], [2.0, 1.0]]]
        with pytest.raises(DefinitenessError):
            model.load_config(cfg)

    def test_shape_error_names_field(self):
        cfg = s1_config()
        cfg["system"]["A10"] = [[[1.0, 2.0]]]
        with pytest.raises(ShapeError, match="A10"):
            model.load_config(cfg)

    @pytest.mark.parametrize("key", ["pi_m0", "pi_m1"])
    @pytest.mark.parametrize("value", [[[1.0]], 1.0])
    def test_mode_distribution_must_be_flat_list(self, key, value):
        cfg = s1_config()
        cfg["modes"][key] = value
        with pytest.raises(ShapeError, match=rf"^modes\.{key} must be a list of length 1, got shape"):
            model.load_config(cfg)

    def test_nested_mode_distribution_rejected(self):
        # Each row of [[p], [q]] is one probability: the right count and
        # sum, but not a flat list.
        cfg = json.loads((DATA / "exact_enum_config.json").read_text())
        cfg["modes"]["pi_m0"] = [[p] for p in cfg["modes"]["pi_m0"]]
        with pytest.raises(ShapeError, match=r"^modes\.pi_m0 must be a list of length 2, got shape \(2, 1\)$"):
            model.load_config(cfg)

    def test_bad_channel(self):
        # A p1 variant of a loaded problem is refused as the loader refuses p1.
        cfg = s1_config()
        cfg["channel"]["p1"] = 1.5
        out_of_range = r"^channel\.p1 must be in \[0, 1\], got 1\.5$"
        with pytest.raises(ProbabilityError, match=out_of_range):
            model.load_config(cfg)
        with pytest.raises(ProbabilityError, match=out_of_range):
            model.channel_spec(1.5)
        with pytest.raises(ParseError, match=r"^channel\.p1 has a non-finite entry$"):
            model.channel_spec(float("nan"))

    @pytest.mark.parametrize("where, field", [
        (("stoch", "init", "mu_x0"), "stoch.init.mu_x0"),
        (("stoch", "init", "cov_x1"), "stoch.init.cov_x1"),
        (("stoch", "covW0"), "stoch.covW0"),
        (("cost", "Q"), "cost.Q"),
        (("system", "A00"), "system.A00"),
        (("system", "B11"), "system.B11"),
        (("modes", "pi_m1"), "modes.pi_m1"),
        (("channel", "p1"), "channel.p1"),
    ])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_number_names_field(self, where, field, bad):
        cfg = s2_config()
        *path, key = where
        parent = cfg
        for name in path:
            parent = parent[name]
        value = np.array(parent[key], dtype=float)
        value.flat[0] = bad
        parent[key] = value.item() if value.ndim == 0 else value.tolist()
        with pytest.raises(ParseError, match=rf"^{re.escape(field)}\b"):
            model.load_config(cfg)

    @pytest.mark.parametrize("section, key", [
        ("dims", "d_x0"), ("dims", "d_u1"), ("modes", "kappa0"), ("stoch", "T"),
    ])
    @pytest.mark.parametrize("value", [1.7, 1.0, True, "1"])
    def test_integer_fields_must_be_integers(self, section, key, value):
        cfg = s2_config()
        cfg[section][key] = value
        with pytest.raises(ParseError, match=rf"^{section}\.{key} must be an integer, got {re.escape(repr(value))}$"):
            model.load_config(cfg)

    @pytest.mark.parametrize("section, key", [
        ("dims", "d_x0"), ("dims", "d_u1"), ("modes", "kappa0"), ("modes", "kappa1"),
    ])
    @pytest.mark.parametrize("value", [0, -2])
    def test_sizes_must_be_positive(self, section, key, value):
        cfg = s2_config()
        cfg[section][key] = value
        with pytest.raises(ShapeError, match=rf"^{section}\.{key} must be a positive integer, got {value}$"):
            model.load_config(cfg)

    @pytest.mark.parametrize("family", ["cauchy", 3])
    def test_unknown_noise_family(self, family):
        cfg = s2_config()
        cfg["stoch"]["family"] = family
        with pytest.raises(ParseError, match=rf"^stoch\.family must be 'gaussian' or 'zero', got '{family}'$"):
            model.load_config(cfg)

    @pytest.mark.parametrize("field, per_step, label", [
        ("covW0", False, "stoch.covW0[t=0]"),
        ("covW0", True, "stoch.covW0[t=2]"),
        ("covW1", False, "stoch.covW1[t=0]"),
        ("covW1", True, "stoch.covW1[t=2]"),
        ("cov_x0", False, "stoch.init.cov_x0"),
        ("cov_x1", False, "stoch.init.cov_x1"),
    ], ids=["covW0", "covW0-per-step", "covW1", "covW1-per-step", "cov_x0", "cov_x1"])
    @pytest.mark.parametrize("bad, fault", [
        (ASYMMETRIC, "not symmetric"), (INDEFINITE, "not PSD"),
    ], ids=["asymmetric", "indefinite"])
    def test_bad_covariance_refused_at_load(self, field, per_step, label, bad, fault):
        # T = 2 and 2x2 noise blocks; a per-step list is bad at its last step.
        cfg = json.loads((DATA / "exact_enum_config.json").read_text())
        value = [np.eye(2).tolist()] * cfg["stoch"]["T"] + [bad] if per_step else bad
        section = cfg["stoch"] if field.startswith("covW") else cfg["stoch"]["init"]
        section[field] = value
        with pytest.raises(DefinitenessError, match=rf"^{re.escape(label)} is {fault} "):
            model.load_config(cfg)

    def test_per_step_weights_are_read_by_their_shape(self):
        # T+1 pair lists are a weight per step, without the time_varying
        # key of earlier releases; pair lists are m1-major at every step.
        cfg = time_varying_config(np.random.default_rng(5), p1=0.3)
        flagged = copy.deepcopy(cfg)
        flagged["cost"]["time_varying"] = True
        spec = model.load_config(cfg)
        assert _same_spec(spec, model.load_config(flagged))
        k0 = spec.modes.kappa0
        for t, m0, m1 in itertools.product(range(spec.T + 1), range(k0), range(spec.modes.kappa1)):
            assert np.array_equal(spec.cost.Q[t, m0, m1], cfg["cost"]["Q"][t][m1 * k0 + m0])
            assert np.array_equal(spec.cost.R[t, m0, m1], cfg["cost"]["R"][t][m1 * k0 + m0])

    @pytest.mark.parametrize("per_step", [False, True], ids=["one-step", "per-step"])
    @pytest.mark.parametrize("value", [True, False, "no", None, 0])
    def test_time_varying_key_is_ignored(self, per_step, value):
        cfg = time_varying_config(np.random.default_rng(5), p1=0.3) if per_step else s2_config()
        spec = model.load_config(cfg)
        cfg["cost"]["time_varying"] = value
        assert _same_spec(model.load_config(cfg), spec)

    @pytest.mark.parametrize("key", ["Q", "R"])
    def test_weight_of_another_shape_names_both_shapes(self, key):
        # S2: T = 1, one mode pair and 2x2 weights; a stack of one step.
        cfg = s2_config()
        cfg["cost"][key] = [cfg["cost"][key]]
        with pytest.raises(ShapeError, match=rf"^cost\.{key} must have shape \(1, 2, 2\) or \(2, 1, 2, 2\), got \(1, 1, 2, 2\)$"):
            model.load_config(cfg)

    def test_time_varying_cost(self):
        cfg = s2_config()
        q = cfg["cost"]["Q"]
        cfg["cost"] = {
            "Q": [q, [[[2.0, 0.0], [0.0, 2.0]]]],
            "R": [cfg["cost"]["R"], cfg["cost"]["R"]],
        }
        spec = model.load_config(cfg)
        assert spec.cost.Q[1, 0, 0] == pytest.approx(2.0 * np.eye(2))

    def test_time_invariant_weights_are_held_once(self):
        # dims 2 and kappa0 = kappa1 = 2: one step of Q and R is 1 KB, so a
        # copy over T = 2000 steps would hold 2 MB. Only the noise
        # covariances, a few floats a step, grow with the horizon.
        dims = {"d_x0": 2, "d_x1": 2, "d_u0": 2, "d_u1": 2}

        def held(T):
            cfg = random_config(np.random.default_rng(3), p1=0.5, kappa1=2, T=T, dims=dims, kappa0=2)
            tracemalloc.start()
            try:
                spec = model.load_config(cfg)
                return spec, tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        model.load_config(s2_config())  # first-call imports and caches stay out of the count
        (short, short_held), (long, long_held) = held(20), held(2000)
        noise = sum(a.nbytes for a in (long.stoch.covW0, long.stoch.covW1))
        assert long_held <= short_held + noise
        assert np.array_equal(long.cost.Q[:21], short.cost.Q)
        for W in (long.cost.Q, long.cost.R):
            assert W.shape[0] == 2001 and not W.flags.writeable

    def test_time_varying_cost_names_failing_entry(self):
        eye, bad = [[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]
        cfg = s2_config()
        cfg["modes"] = {"kappa0": 2, "kappa1": 1, "pi_m0": [0.5, 0.5], "pi_m1": [1.0]}
        for key in ("A00", "B00", "A10", "A11", "B10", "B11"):
            cfg["system"][key] = cfg["system"][key] * 2
        cfg["stoch"]["T"] = 2
        # Pair lists are m1-major: entry 1 is (m0=2, m1=1).
        cfg["cost"] = {
            "Q": [[eye, eye], [eye, eye], [eye, bad]],
            "R": [[eye, eye]] * 3,
        }
        with pytest.raises(DefinitenessError, match=r"^cost\.Q\[t=2, m0=2, m1=1\] is not PSD"):
            model.load_config(cfg)


class TestChannelVariant:
    def test_variant_solves_as_its_loaded_config(self):
        cfg = s2_config(p1=0.3)
        variant = dataclasses.replace(model.load_config(cfg), channel=model.channel_spec(0.8))
        cfg["channel"]["p1"] = 0.8
        a, b = solver.solve_backward(variant), solver.solve_backward(model.load_config(cfg))
        assert a.j_star == b.j_star
        assert np.array_equal(a.values.P, b.values.P)
        assert np.array_equal(a.gains.K_empty, b.gains.K_empty)


class TestAssemble:
    def test_blocks_land_in_their_slots(self):
        # kappa0 = 2, kappa1 = 3 and four different block sizes; every block
        # entry is a distinct number, so a misplaced block cannot match.
        k0, k1, dx0, dx1, du0, du1 = 2, 3, 1, 2, 3, 4
        numbers = itertools.count(1.0)

        def blocks(count, rows, cols):
            return np.array([next(numbers) for _ in range(count * rows * cols)]).reshape(count, rows, cols)

        s = {
            "A00": blocks(k0, dx0, dx0), "B00": blocks(k0, dx0, du0),
            "A10": blocks(k0 * k1, dx1, dx0), "A11": blocks(k0 * k1, dx1, dx1),
            "B10": blocks(k0 * k1, dx1, du0), "B11": blocks(k0 * k1, dx1, du1),
        }
        cfg = s1_config()
        cfg["dims"] = {"d_x0": dx0, "d_x1": dx1, "d_u0": du0, "d_u1": du1}
        cfg["modes"] = {"kappa0": k0, "kappa1": k1, "pi_m0": [0.5, 0.5], "pi_m1": [0.25, 0.25, 0.5]}
        cfg["system"] = {key: value.tolist() for key, value in s.items()}
        cfg["cost"] = {"Q": [np.eye(dx0 + dx1).tolist()] * (k0 * k1), "R": [np.eye(du0 + du1).tolist()] * (k0 * k1)}
        cfg["stoch"].update(covW0=np.eye(dx0).tolist(), covW1=np.eye(dx1).tolist(), init={
            "mu_x0": [0.0] * dx0, "cov_x0": np.eye(dx0).tolist(),
            "mu_x1": [0.0] * dx1, "cov_x1": np.eye(dx1).tolist(),
        })
        spec = model.load_config(cfg)
        assert spec.D.shape == (k0, k1, dx0 + dx1, dx0 + dx1 + du0 + du1)
        for m0 in range(k0):
            for m1 in range(k1):
                pair = m1 * k0 + m0  # pair lists are m1-major
                want = np.block([
                    [s["A00"][m0], np.zeros((dx0, dx1)), s["B00"][m0], np.zeros((dx0, du1))],
                    [s["A10"][pair], s["A11"][pair], s["B10"][pair], s["B11"][pair]],
                ])
                assert np.array_equal(spec.D[m0, m1], want), (m0, m1)
                A, B, D = model.assemble_system(spec, m0, m1)
                assert np.array_equal(np.hstack([A, B]), want) and np.array_equal(D, want)

    def test_s2_stacked_map(self, s2_spec):
        _, _, D = model.assemble_system(s2_spec, 0, 0)
        assert D == pytest.approx(np.array([[1.0, 0.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]]))

    def test_decoupled_local_plant(self):
        cfg = s1_config()
        for key in ("A10", "A11", "B10", "B11"):
            cfg["system"][key] = [[[0.0]]]
        spec = model.load_config(cfg)
        A, B, _ = model.assemble_system(spec, 0, 0)
        assert np.all(A[1, :] == 0.0)
        assert np.all(B[1, :] == 0.0)

    def test_structural_zero_blocks(self, battery):
        for spec in battery[:6]:
            d = spec.dims
            for m0 in range(spec.modes.kappa0):
                for m1 in range(spec.modes.kappa1):
                    A, B, D = model.assemble_system(spec, m0, m1)
                    assert np.all(A[:d.d_x0, d.d_x0:] == 0.0)
                    assert np.all(B[:d.d_x0, d.d_u0:] == 0.0)
                    assert D == pytest.approx(np.hstack([A, B]))
