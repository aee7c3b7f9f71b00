import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ncslqr
from ncslqr import control, model, solver
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

    def test_gain_residual(self, battery):
        # K solves H_uu K = -H_ux; check by reconstructing H from the tables.
        for spec in battery[:8]:
            static = solver.build_static(spec)
            bundle = solver.solve_backward(spec)
            d = spec.dims
            for m0 in range(spec.modes.kappa0):
                for m1 in range(spec.modes.kappa1):
                    Pn = solver.op_pi(bundle.values.P[spec.T + 1], spec)
                    H = static.C[spec.T, m0, m1] + static.D[m0, m1].T @ Pn @ static.D[m0, m1]
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
        # The writer fills each slab's template with %, so a % in the
        # skeleton's text must come out as it went in.
        bundle.solve_metadata = {"note": "100% of %s", "%d": "%%"}
        solver.save_bundle(bundle, path)
        assert path.read_text() == json.dumps(solver.bundle_to_json(bundle), indent=1)

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
    ], ids=["string-entry", "ragged-row", "missing-slot", "extra-slot", "huge-K", "huge-j_star", "huge-e"])
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
