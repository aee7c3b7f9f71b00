import dataclasses
import io
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncslqr
from ncslqr import control, matkit, model, solver
from ncslqr.errors import DefinitenessError, NonFiniteError, ParseError, SingularBlockError
from ncslqr.matkit import sym
from conftest import random_config, s1_config, s2_config, zero_weight_mode_config

EMPTY = solver.EMPTY
DATA = Path(__file__).resolve().parent / "data"


def spec_with(cfg, **over):
    cfg = dict(cfg)
    for key, val in over.items():
        cfg[key] = val
    return model.load_config(cfg)


def stacked(*per_m0):
    """(kappa0, kappa1+1, 1, 1) table from per-m0 (received..., empty) scalars."""
    return np.array(per_m0, dtype=float)[:, :, None, None]


class TestOperators:
    def test_pi_scalar_single_mode(self, s1_spec):
        # kappa0 = kappa1 = 1, p1 = 0.5: Pi(G) = 0.5*G(0,empty) + 0.5*G(0,0).
        G = stacked([4.0, 2.0])
        assert solver.op_pi(G, s1_spec) == pytest.approx(np.array([[3.0]]))

    def test_pi_p03(self):
        spec = model.load_config(s1_config(p1=0.3))
        G = stacked([4.0, 2.0])
        assert solver.op_pi(G, spec) == pytest.approx(np.array([[2.6]]))

    def test_pi_gamma_branches(self):
        # A certain channel bit leaves only its branch of the expectation.
        G = stacked([4.0, 2.0])
        fail = model.load_config(s1_config(p1=0.0))
        success = model.load_config(s1_config(p1=1.0))
        assert solver.op_pi(G, fail) == pytest.approx(np.array([[2.0]]))
        assert solver.op_pi(G, success) == pytest.approx(np.array([[4.0]]))

    def test_psi_mixes_collections(self):
        spec = model.load_config(s1_config(p1=0.25))
        G1 = stacked([99.0, 8.0])
        G2 = stacked([4.0, 99.0])
        assert solver.op_psi(G1, G2, spec) == pytest.approx(np.array([[7.0]]))

    def test_pi_weights_modes(self):
        cfg = s1_config()
        cfg["modes"] = {"kappa0": 2, "kappa1": 1, "pi_m0": [0.25, 0.75], "pi_m1": [1.0]}
        for key in ("A00", "B00", "A10", "A11", "B10", "B11"):
            cfg["system"][key] = cfg["system"][key] * 2
        cfg["cost"]["Q"] = cfg["cost"]["Q"] * 2
        cfg["cost"]["R"] = cfg["cost"]["R"] * 2
        spec = model.load_config(cfg)
        G = stacked([1.0, 1.0], [5.0, 5.0])
        assert solver.op_pi(G, spec) == pytest.approx(np.array([[4.0]]))


class TestHandInstances:
    def test_s2_tables(self, s2_spec):
        bundle = solver.solve_backward(s2_spec)
        P = bundle.values.P
        # t = T+1 tables are identically zero; at t = T only the stage cost
        # remains, so P_T = Q = I and the last controls are free.
        for zt in (EMPTY, 0):
            assert P[2, 0, zt] == pytest.approx(np.zeros((2, 2)))
            assert P[1, 0, zt] == pytest.approx(np.eye(2), abs=1e-12)
        # t = 0 is the genuine one-step recursion through H = I + D'D.
        expected_P = np.array([[8.0, 1.0], [1.0, 7.0]]) / 5.0
        for zt in (EMPTY, 0):
            assert P[0, 0, zt] == pytest.approx(expected_P, abs=1e-12)
            assert bundle.values.Ptilde[0, 0, zt] == pytest.approx(
                np.array([[1.5]]), abs=1e-12
            )

    def test_s2_gains(self, s2_spec):
        bundle = solver.solve_backward(s2_spec)
        expected_K = -np.array([[3.0, 1.0], [1.0, 2.0]]) / 5.0
        for K in (bundle.gains.K_empty[:, 0], bundle.gains.K_received[:, 0, 0]):
            assert K[0] == pytest.approx(expected_K, abs=1e-12)
            assert K[1] == pytest.approx(np.zeros((2, 2)), abs=1e-12)
        assert bundle.gains.Ktilde[0, 0, 0] == pytest.approx(
            np.array([[-0.5]]), abs=1e-12
        )

    def test_s2_constants(self, s2_spec):
        bundle = solver.solve_backward(s2_spec)
        assert bundle.values.e == pytest.approx(np.array([2.0, 0.0, 0.0]))

    def test_s2_cost_frozen(self, s2_spec):
        # Frozen from an independent closed-loop second-moment computation.
        bundle = solver.solve_backward(s2_spec)
        assert bundle.j_star == pytest.approx(5.05, abs=1e-12)

    def test_s1_cost(self):
        # T = 0: one stage of cost, controls free, so J* is driven by the
        # optimal one-step value at the initial distribution.
        spec = model.load_config(s1_config(mu_x0=1.0, mu_x1=0.0, cov_x0=0.0, cov_x1=0.0))
        bundle = solver.solve_backward(spec)
        P = bundle.values.P[0, 0, EMPTY]
        assert bundle.j_star == pytest.approx(P[0, 0], abs=1e-12)

    def test_s2_p1_dependence(self):
        # With a single mode the tables do not depend on the success rate,
        # but J* still does: a delivered sample pins down x1 exactly, so a
        # better channel can only help.
        b_lo = solver.solve_backward(model.load_config(s2_config(p1=0.1)))
        b_hi = solver.solve_backward(model.load_config(s2_config(p1=0.9)))
        assert b_lo.values.P == pytest.approx(b_hi.values.P, abs=1e-12)
        assert b_hi.j_star < b_lo.j_star
        # Linear in p1 between the two conditional branches of E[V_0].
        assert b_lo.j_star == pytest.approx(5.09, abs=1e-12)
        assert b_hi.j_star == pytest.approx(5.01, abs=1e-12)


class TestStructure:
    def test_tables_symmetric_psd(self, battery):
        for spec in battery:
            bundle = solver.solve_backward(spec)
            for table in (bundle.values.P, bundle.values.Ptilde):
                assert table.shape[:3] == (spec.T + 2, spec.modes.kappa0, spec.modes.kappa1 + 1)
                for G in table.reshape((-1,) + table.shape[-2:]):
                    assert np.abs(G - G.T).max() <= 1e-10
                    assert np.linalg.eigvalsh(sym(G)).min() >= -1e-9 * max(
                        1.0, np.abs(G).max()
                    )

    def test_constants_monotone(self, battery):
        for spec in battery:
            e = solver.solve_backward(spec).values.e
            assert np.all(np.diff(e) <= 1e-12)
            assert e[-1] == 0.0

    def test_kappa1_one_collapse(self, battery):
        # Single local mode: nothing to transmit, so the empty and received
        # branches of every table coincide.
        for spec in battery:
            if spec.modes.kappa1 != 1:
                continue
            bundle = solver.solve_backward(spec)
            P = bundle.values.P[:spec.T + 1]
            assert P[:, :, EMPTY] == pytest.approx(P[:, :, 0], abs=1e-12)
            assert bundle.gains.K_empty == pytest.approx(
                bundle.gains.K_received[:, :, 0], abs=1e-12
            )

    def test_working_memory_does_not_grow_with_the_horizon(self):
        # One battery shape (every block 2-dimensional, kappa0 = kappa1 =
        # 2) at T and 4T: beyond the tables it returns, the solve holds one
        # step's blocks, about 30 KB at either horizon. Cost blocks stacked
        # over the horizon take 0.33 MB at T = 60 and 1.2 MB at T = 240.
        def working_peak(T):
            spec = model.load_config(random_config(np.random.default_rng(7), T=T))
            solver.solve_backward(spec)  # first-call imports and caches stay out of the peak
            tracemalloc.start()
            try:
                bundle = solver.solve_backward(spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            tables = (*vars(bundle.values).values(), *vars(bundle.gains).values(), bundle.stage_min_eig)
            return peak - sum(a.nbytes for a in tables)

        assert working_peak(240) <= 1.25 * working_peak(60)

    def test_gain_residual(self, battery):
        # K solves H_uu K = -H_ux; check by reconstructing H from the tables.
        for spec in battery[:8]:
            k1 = spec.modes.kappa1
            L = np.array([matkit.build_L(spec.dims, k1, m1) for m1 in range(k1)])
            C = solver.cost_blocks(spec, L, spec.T)[0]
            bundle = solver.solve_backward(spec)
            d = spec.dims
            for m0 in range(spec.modes.kappa0):
                for m1 in range(spec.modes.kappa1):
                    Pn = solver.op_pi(bundle.values.P[spec.T + 1], spec)
                    H = C[m0, m1] + spec.D[m0, m1].T @ Pn @ spec.D[m0, m1]
                    K = bundle.gains.K_received[spec.T, m0, m1]
                    Huu = H[d.d_x:, d.d_x:]
                    Hux = H[d.d_x:, :d.d_x]
                    assert Huu @ K + Hux == pytest.approx(
                        np.zeros_like(Hux), abs=1e-8
                    )


class TestErrors:
    def test_zero_weight_local_mode_is_singular(self):
        spec = model.load_config(zero_weight_mode_config())
        with pytest.raises(SingularBlockError) as exc:
            solver.solve_backward(spec)
        assert str(exc.value).startswith("H^UU not PD at t=1, m0=1, ztilde=empty: ")

    def test_value_table_below_psd_slack_refused(self, s2_spec):
        # The loader refuses an indefinite Q, so the terminal weight is
        # shifted on the loaded spec: P[T] = Q[T] then has min eigenvalue
        # -1e-6, far below PSD_SLACK = 1e-9 but inside a slack of 1e-3.
        cost = s2_spec.cost
        T, n = s2_spec.T, cost.Q.shape[-1]
        Q = cost.Q.copy()
        Q[T] -= (np.linalg.eigvalsh(Q[T]).min() + 1e-6) * np.eye(n)
        spec = dataclasses.replace(s2_spec, cost=dataclasses.replace(cost, Q=Q))
        with pytest.raises(DefinitenessError) as exc:
            solver.solve_backward(spec)
        assert str(exc.value) == "P at t=1, m0=1, ztilde=m1 is not PSD (min eigenvalue -1.000e-06)"


EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-5, 0.1, -1.7976931348623157e308, 1.0]


def _edge_bundle(floats=EDGE_FLOATS):
    """A kappa1 = 1 bundle (T = 1, kappa0 = 2, unit dimensions) whose tables
    cycle through `floats`, by default floats that json writes in different
    notations."""

    def table(*shape):
        return np.resize(floats, shape)

    return solver.SolutionBundle(
        values=solver.ValueTables(P=table(3, 2, 2, 2, 2), Ptilde=table(3, 2, 2, 1, 1), e=table(3)),
        gains=solver.GainTables(
            K_empty=table(2, 2, 2, 2), K_received=table(2, 2, 1, 2, 2), Ktilde=table(2, 2, 1, 1, 1),
        ),
        j_star=0.1,
        solve_metadata={"psd_slack": 1e-9, "solved_at": "2020-01-01T00:00:00+00:00"},
    )


class TestSerialization:
    def test_roundtrip(self, battery, tmp_path):
        spec = battery[1]
        bundle = solver.solve_backward(spec)
        path = tmp_path / "bundle.json"
        solver.save_bundle(bundle, path)
        again = solver.load_bundle(path)
        assert again.stage_min_eig is None
        assert again.j_star == bundle.j_star
        assert again.values.e == pytest.approx(bundle.values.e)
        for name in ("P", "Ptilde"):
            assert np.array_equal(getattr(again.values, name), getattr(bundle.values, name))
        for name in ("K_empty", "K_received", "Ktilde"):
            assert np.array_equal(getattr(again.gains, name), getattr(bundle.gains, name))

    def test_reads_dict_era_bundle(self, s2_spec, tmp_path):
        # data/s2_bundle.json was written (S2, p1 = 0.5) by the release that
        # kept the tables as dicts keyed by (m0, ztilde); the file layout is
        # unchanged, so it loads into the same tables and writes back byte
        # for byte.
        path = DATA / "s2_bundle.json"
        old = solver.load_bundle(path)
        fresh = solver.solve_backward(s2_spec)
        for name in ("P", "Ptilde", "e"):
            assert getattr(old.values, name) == pytest.approx(getattr(fresh.values, name), abs=1e-12)
        assert old.gains.shapes() == solver.gain_shapes(s2_spec)
        assert old.values.shapes() == solver.value_shapes(s2_spec)
        control.make_policy("optimal", s2_spec, old)  # fits the problem whole
        for name in ("K_empty", "K_received", "Ktilde"):
            assert getattr(old.gains, name) == pytest.approx(getattr(fresh.gains, name), abs=1e-12)
        assert old.j_star == pytest.approx(fresh.j_star, abs=1e-12)
        again = tmp_path / "again.json"
        solver.save_bundle(old, again)
        assert again.read_bytes() == path.read_bytes()

    def test_writes_indented_json_bytes(self, battery, tmp_path):
        path = tmp_path / "bundle.json"
        for spec in battery:
            bundle = solver.solve_backward(spec)
            solver.save_bundle(bundle, path)
            assert path.read_text() == json.dumps(solver.bundle_to_json(bundle), indent=1)
        # The writer fills each slab of table steps with %, and json dumps
        # the metadata after them, so a % there must come out as it went in.
        bundle.solve_metadata = {"note": "100% of %s", "%d": "%%"}
        solver.save_bundle(bundle, path)
        assert path.read_text() == json.dumps(solver.bundle_to_json(bundle), indent=1)

    def test_writes_wide_steps_like_json(self, tmp_path):
        # Multi-row blocks (d_x = 6) and eight local modes, so that each
        # value table's m0 entry holds nine 6 x 6 matrices.
        dims = {"d_x0": 3, "d_x1": 3, "d_u0": 2, "d_u1": 2}
        config = random_config(np.random.default_rng(11), p1=0.5, kappa1=8, T=2, dims=dims, kappa0=3)
        bundle = solver.solve_backward(model.load_config(config))
        path = tmp_path / "bundle.json"
        solver.save_bundle(bundle, path)
        text = path.read_text()
        assert text == json.dumps(solver.bundle_to_json(bundle), indent=1)
        # Ptilde lists "empty" last except at t = T+1.
        steps, received = json.loads(text)["Ptilde"], [f"m{l}" for l in range(1, 9)]
        assert list(steps["2"]["3"]) == received + ["empty"]
        assert list(steps["3"]["3"]) == ["empty"] + received

    def test_writes_float_edge_cases_like_json(self, tmp_path):
        bundle = _edge_bundle()
        path = tmp_path / "bundle.json"
        solver.save_bundle(bundle, path)
        text = path.read_text()
        assert text == json.dumps(solver.bundle_to_json(bundle), indent=1)
        assert all(f" {v!r}" in text for v in EDGE_FLOATS)
        again = solver.load_bundle(path)
        assert np.array_equal(np.signbit(again.values.P), np.signbit(bundle.values.P))

    @pytest.mark.parametrize("slab", [1, 3, 10, 100, 10**6])
    def test_slabs_write_json_bytes(self, battery, tmp_path, monkeypatch, slab):
        # Leaves of 1, 2 and 4 values cycle through 7 floats, so each value
        # recurs within and across slabs; 0.0 and -0.0 are the same number
        # but not the same text.
        monkeypatch.setattr(solver, "_SLAB_VALUES", slab)
        path = tmp_path / "bundle.json"
        for bundle in (
            _edge_bundle([0.0, -0.0, 5e-324, 0.1, -0.0, -5e-324, 0.0]),
            solver.solve_backward(battery[3]),
        ):
            solver.save_bundle(bundle, path)
            assert path.read_text() == json.dumps(solver.bundle_to_json(bundle), indent=1)
            again = solver.load_bundle(path)
            assert np.array_equal(np.signbit(again.values.P), np.signbit(bundle.values.P))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, tmp_path, value):
        bundle = _edge_bundle()
        bundle.gains.Ktilde[1, 0, 0, 0, 0] = value
        path = tmp_path / "bundle.json"
        with pytest.raises(NonFiniteError, match=r"Ktilde has a non-finite entry at \(1, 0, 0, 0, 0\)"):
            solver.save_bundle(bundle, path)
        assert not path.exists()

    def test_metadata_present(self, s2_spec):
        bundle = solver.solve_backward(s2_spec)
        assert bundle.solve_metadata == {
            "psd_slack": solver.PSD_SLACK,
            "ncslqr_version": ncslqr.__version__,
            "numpy_version": np.__version__,
        }

    def test_writer_holds_one_slab_not_the_horizon(self, tmp_path):
        # A battery instance (every block 2-dimensional, kappa0 = kappa1 =
        # 2) at T = 240, a 2.0 MB file. The writer holds one slab of
        # formatted values, about 1.8 MB here, whatever the horizon (0.91x
        # the file); a writer that first lays out the whole file's
        # skeleton peaks at 1.7x.
        spec = model.load_config(random_config(np.random.default_rng(7), T=240))
        bundle = solver.solve_backward(spec)
        path = tmp_path / "bundle.json"
        solver.save_bundle(bundle, path)  # first-call imports and caches stay out of the peak
        tracemalloc.start()
        try:
            solver.save_bundle(bundle, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * path.stat().st_size

    def test_two_solves_write_the_same_bytes(self, s2_spec, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            solver.save_bundle(solver.solve_backward(s2_spec), path)
        assert a.read_bytes() == b.read_bytes()


def _s2_json_with(where, value):
    """The S2 bundle's JSON object with the entry at path `where` set to `value`."""
    obj = solver.bundle_to_json(solver.solve_backward(model.load_config(s2_config())))
    node = obj
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    return obj


class TestLoad:
    def test_peak_memory_about_twice_the_file(self, tmp_path):
        # A battery instance (every block 2-dimensional, kappa0 = kappa1 =
        # 2) at T = 30, so that the file, 0.26 MB, outweighs the reader's
        # fixed costs. The file's bytes and its decoded text make 2x; a
        # reader that holds the whole parsed tree of Python floats peaks at
        # 3x here. (With unit blocks the dicts and arrays of each slot
        # outweigh its text: the slot-by-slot reader peaks near 3x there,
        # the whole tree near 4x.)
        spec = model.load_config(random_config(np.random.default_rng(7), T=30))
        path = tmp_path / "bundle.json"
        solver.save_bundle(solver.solve_backward(spec), path)
        solver.load_bundle(path)  # first-call imports and caches stay out of the peak
        tracemalloc.start()
        try:
            solver.load_bundle(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * path.stat().st_size

    def test_loads_the_tables_json_reads(self, battery, tmp_path):
        # The slot-by-slot reader gives the arrays of the plain json tree,
        # bit for bit.
        path = tmp_path / "bundle.json"
        for spec in battery[:6]:
            solver.save_bundle(solver.solve_backward(spec), path)
            plain = solver.bundle_from_json(json.loads(path.read_text()))
            again = solver.load_bundle(path)
            for table in ("values", "gains"):
                for name, a in vars(getattr(plain, table)).items():
                    b = vars(getattr(again, table))[name]
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()
            assert again.j_star == plain.j_star

    @pytest.mark.parametrize("where, value", [
        (("K", "1", "1", "m1", 0, 0), "1.5x"),
        (("P", "0", "1", "empty", 1), [1.0]),
        (("Ptilde", "2", "1"), {"empty": [[1.0]]}),
        (("Ktilde", "0", "1", "m2"), [[1.0]]),
        (("K", "1", "1", "m1", 0, 0), 10 ** 400),
        (("j_star",), 10 ** 400),
        (("e", 0), 10 ** 400),
        (("j_star",), True),
        (("j_star",), "16.2"),
        (("e",), ["1.0", "2.0", "0.0"]),
        (("e", 1), False),
    ], ids=[
        "string-entry", "ragged-row", "missing-slot", "extra-slot", "huge-K", "huge-j_star", "huge-e",
        "bool-j_star", "string-j_star", "string-e", "bool-e",
    ])
    def test_bad_entry_raises_parse_error(self, tmp_path, where, value):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(_s2_json_with(where, value)))
        with pytest.raises(ParseError, match=f"^{re.escape(f'cannot read solution bundle {path}: ')}"):
            solver.load_bundle(path)

    def test_metadata_loads_unchanged(self, tmp_path):
        meta = {"psd_slack": 1e-9, "tags": [1, 2.5, "x"], "runs": {"sizes": [[1, 2], [3, 4]], "m1": 3}}
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(_s2_json_with(("solve_metadata",), meta)))
        assert solver.load_bundle(path).solve_metadata == meta

    def test_lone_surrogate_loads_like_json(self, tmp_path):
        # json.loads decodes UTF-8 bytes with "surrogatepass", so the bytes
        # of a lone surrogate in a string load as that surrogate.
        data = json.dumps(_s2_json_with(("solve_metadata",), {"note": "a\ud800b"}), ensure_ascii=False)
        data = data.encode("utf-8", "surrogatepass")
        assert b"\xed\xa0\x80" in data
        path = tmp_path / "bundle.json"
        path.write_bytes(data)
        assert solver.load_bundle(path).solve_metadata == json.loads(data)["solve_metadata"]


# --- the streaming reader ----------------------------------------------------

# Windows small enough that every token of a document straddles an edge.
WINDOWS = [1, 2, 7, 64]


def _outcome(read):
    """("ok", value) or ("error", where), the errors being those load_bundle
    turns into ParseError; `where` is the "line … column … (char …)" suffix
    of a JSONDecodeError's message, None for any other error."""
    try:
        return "ok", read()
    except json.JSONDecodeError as exc:
        return "error", re.search(r"line \d+ column \d+ \(char \d+\)$", str(exc))[0]
    except (LookupError, TypeError, ValueError, OverflowError, RecursionError):
        return "error", None


def _same(a, b):
    """a and b are the same JSON value: equal types, keys in the same order,
    floats and arrays bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


def _assert_streams_like_json(text, windows=WINDOWS):
    want = _outcome(lambda: json.loads(text, object_hook=solver._slot_arrays))
    for window in windows:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_WINDOW", window)
            got = _outcome(lambda: solver._JsonStream(io.BytesIO(text.encode("utf-8", "surrogatepass"))).document())
        assert got[0] == want[0] and _same(got[1], want[1]), (window, text, want, got)


_SPACE = st.sampled_from(["", " ", "\n", "\n   ", "\t", "\r\n"])
# Slot keys ("empty", "m<l>") make json's hook turn an object into arrays.
_KEYS = st.sampled_from(["empty", "m1", "m2", "m10", "1", "0", "P", "j_star", "", 'q"\\', "\u00e9"]) | st.text(max_size=3)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(),
    st.integers(min_value=10 ** 300, max_value=10 ** 320), st.text(max_size=6),
).flatmap(lambda v: st.sampled_from([json.dumps(v), json.dumps(v, ensure_ascii=False)]))


def _containers(kids):
    arrays = st.lists(st.tuples(_SPACE, kids), max_size=4).map(
        lambda items: "[" + ",".join(space + kid for space, kid in items) + "]")
    # Keys may repeat: json keeps the first position and the last value.
    objects = st.lists(st.tuples(_KEYS, _SPACE, kids), max_size=4).map(
        lambda members: "{" + ",".join(f"{space}{json.dumps(key)}{space}:{space}{kid}" for key, space, kid in members) + "}")
    return arrays | objects


_DOCUMENTS = st.recursive(_SCALARS, _containers, max_leaves=24)
# Edits at a fraction of the text: insert a token, or delete one character.
_EDITS = st.lists(st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(["", ",", "}", "]", "{", "[", '"', ":", " ", "x", "1", "e", ".", "-", "\ufeff", ",}", "NaN"]),
), max_size=3)


def _edited(text, edits):
    for where, token in edits:
        i = int(where * len(text))
        text = text[:i] + token + text[i + (token == ""):]
    return text


S2_TEXT = (DATA / "s2_bundle.json").read_text()


def _wide_bundle():
    """A random bundle of 8 x 8 value blocks (d_x = 8) over T = 60: 2.3 MB as a file."""
    rng = np.random.default_rng(3)
    T, k0, k1, dx, dx1, du0, du1 = 60, 2, 4, 8, 4, 2, 2

    def table(*shape):
        return rng.standard_normal(shape)

    return solver.SolutionBundle(
        values=solver.ValueTables(
            P=table(T + 2, k0, k1 + 1, dx, dx), Ptilde=table(T + 2, k0, k1 + 1, dx1, dx1), e=table(T + 2),
        ),
        gains=solver.GainTables(
            K_empty=table(T + 1, k0, du0 + k1 * du1, dx),
            K_received=table(T + 1, k0, k1, du0 + du1, dx),
            Ktilde=table(T + 1, k0, k1, du1, dx1),
        ),
        j_star=1.0,
    )


class TestStream:
    @given(_SPACE, _DOCUMENTS, _SPACE, _EDITS)
    @example(" ", '{"m1": {"a": 1}}', "", [])  # a walked object the hook refuses
    @example("", '{"a": {"b": 1}, "a": {"c": [2, 3]}}', "", [])
    @example("\ufeff", '{"P": {"0": 1}}', "", [])
    @example("", '{"P": {"0": 1}, }', "", [])
    @example("", '{"P": {"0": 1}}', " x", [])
    @example("", '{"solve_metadata": "\ud800"}', "", [])  # a lone surrogate, as json.loads reads its bytes
    # At window 7 the error's line is read on from its middle.
    @example("", '{"P": {"0": 1},\n "e": [1, 2],\n "j": x\n}', "", [])
    @settings(max_examples=100, deadline=None)
    def test_matches_json_loads(self, before, document, after, edits):
        _assert_streams_like_json(_edited(before + document + after, edits))

    @given(_EDITS)
    @example([])
    @settings(max_examples=60, deadline=None)
    def test_matches_json_loads_on_edited_bundles(self, edits):
        _assert_streams_like_json(_edited(S2_TEXT, edits))

    @pytest.mark.parametrize("text", [
        "-12.5e-05", '{"j_star": -12.5e-05}', '{"P": {"0": 1}, "j_star": 1.0E+300}', '{"P": {"0": 1}, "e": 7}',
    ])
    def test_number_split_at_the_window_edge(self, text):
        # The first window ends after `window` characters, so some window
        # cuts each number between any two of its characters; none may
        # parse as its prefix.
        _assert_streams_like_json(text, windows=range(1, len(text) + 1))

    @pytest.mark.parametrize("window", WINDOWS + [len(S2_TEXT)])
    @pytest.mark.parametrize("tail, ok", [("\n \t\r\n", True), ("x", False), ("{}", False), ("\n,", False)])
    def test_trailing_data_is_an_error(self, tmp_path, monkeypatch, window, tail, ok):
        # A window of len(S2_TEXT) ends just before the tail.
        monkeypatch.setattr(solver, "_WINDOW", window)
        path = tmp_path / "bundle.json"
        path.write_text(S2_TEXT + tail)
        if ok:
            assert solver.load_bundle(path).j_star == json.loads(S2_TEXT)["j_star"]
            return
        with pytest.raises(ParseError, match=r": JSONDecodeError: Extra data: "):
            solver.load_bundle(path)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("where, bad", [(0.5, b"\xff"), (1.0, b"\xe2\x82")], ids=["stray-byte", "cut-last-character"])
    def test_utf8_error_names_its_byte_in_the_file(self, tmp_path, monkeypatch, window, where, bad):
        # The bad bytes lie past the first window, and the error names
        # their offset in the file, as json.loads's does.
        data = S2_TEXT.encode()
        i = int(where * len(data))
        path = tmp_path / "bundle.json"
        path.write_bytes(data[:i] + bad + data[i:])
        with pytest.raises(UnicodeDecodeError) as want:
            json.loads(path.read_bytes())
        monkeypatch.setattr(solver, "_WINDOW", window)
        with pytest.raises(ParseError) as got:
            solver.load_bundle(path)
        assert str(got.value).endswith(f": UnicodeDecodeError: {want.value}")

    def test_peak_memory_below_the_file(self, tmp_path):
        # A bundle of 8 x 8 value blocks (d_x = 8), 2.3 MB: the load holds
        # the tables and one or two windows of text, not the file's text.
        # Reading the whole text first (json.load) peaks at 2x the file.
        bundle = _wide_bundle()
        path = tmp_path / "bundle.json"
        solver.save_bundle(bundle, path)
        solver.load_bundle(path)  # first-call imports and caches stay out of the peak
        tracemalloc.start()
        try:
            again = solver.load_bundle(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(again.values.P, bundle.values.P)
        assert peak <= 0.75 * path.stat().st_size

    @pytest.mark.parametrize("where", [0.25, 0.5, 0.9])
    def test_syntax_error_stops_the_read(self, tmp_path, where):
        # A stray token in the 2.3 MB bundle above: the read stops at it,
        # holding the tables before it and a window of text, not the rest
        # of the file, and the error is json's own.
        path = tmp_path / "bundle.json"
        solver.save_bundle(_wide_bundle(), path)
        data = path.read_bytes()
        i = int(where * len(data))
        path.write_bytes(data[:i] + b"x" + data[i:])
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(path.read_bytes())
        with pytest.raises(ParseError):
            solver.load_bundle(path)  # first-call imports and caches stay out of the peak
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as got:
                solver.load_bundle(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(got.value).endswith(f": JSONDecodeError: {want.value}")
        assert peak <= 0.75 * path.stat().st_size
