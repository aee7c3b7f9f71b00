import copy
import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ncslqr
from ncslqr import model, solver
from ncslqr.errors import DefinitenessError, NonFiniteError, ParseError, SingularBlockError
from ncslqr.matkit import sym
from conftest import (
    battery_specs, bundle_document, document_table, random_config, s1_config, s2_config, time_varying_config,
    with_table, zero_weight_mode_config,
)

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

    def test_empty_rows_give_each_local_mode_its_action(self):
        # vec(u0, qbar(1..kappa1))[empty_rows[m1]] is vec(u0, qbar(m1)).
        dims = {"d_x0": 1, "d_x1": 1, "d_u0": 1, "d_u1": 2}
        one = model.load_config(random_config(np.random.default_rng(0), kappa1=1, dims=dims))
        assert solver.empty_rows(one).tolist() == [[0, 1, 2]]
        three = model.load_config(random_config(np.random.default_rng(0), kappa1=3, dims=dims))
        assert solver.empty_rows(three).tolist() == [[0, 1, 2], [0, 3, 4], [0, 5, 6]]

    def test_gain_residual(self, battery):
        # K solves H_uu K = -H_ux; check by reconstructing H from the tables.
        for spec in battery[:8]:
            d, k1 = spec.dims, spec.modes.kappa1
            cols = np.concatenate([np.broadcast_to(np.arange(d.d_x), (k1, d.d_x)), d.d_x + solver.empty_rows(spec)], axis=1)
            L = np.eye(d.d_x + d.d_u0 + k1 * d.d_u1)[cols]
            C = solver.cost_blocks(spec, L, spec.T)[0]
            bundle = solver.solve_backward(spec)
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
    notations. P and Ptilde mirror each matrix's upper triangle below it."""

    def table(*shape):
        return np.resize(floats, shape)

    def symmetric(*shape):
        upper = table(*shape)
        return np.where(np.tri(shape[-1], k=-1, dtype=bool), np.swapaxes(upper, -1, -2), upper)

    return solver.SolutionBundle(
        values=solver.ValueTables(P=symmetric(3, 2, 2, 2, 2), Ptilde=symmetric(3, 2, 2, 1, 1), e=table(3)),
        gains=solver.GainTables(
            K_empty=table(2, 2, 2, 2), K_received=table(2, 2, 1, 2, 2), Ktilde=table(2, 2, 1, 1, 1),
        ),
        j_star=0.1,
        solve_metadata={"psd_slack": 1e-9, "solved_at": "2020-01-01T00:00:00+00:00"},
    )


def _assert_same_tables(a, b):
    """Every table of bundles a and b is the same, bit for bit."""
    for group in ("values", "gains"):
        for name, table in vars(getattr(a, group)).items():
            other = vars(getattr(b, group))[name]
            assert table.dtype == other.dtype and table.shape == other.shape, name
            assert table.tobytes() == other.tobytes(), name


def _roundtrip_specs():
    """The 20-instance battery, a time-varying instance, and instances with
    kappa1 = 1 and with T = 0."""
    rng = np.random.default_rng(23)
    configs = [time_varying_config(rng, 0.3), random_config(rng, kappa1=1, T=2), random_config(rng, T=0)]
    return battery_specs() + [model.load_config(cfg) for cfg in configs]


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "bundle.json"
        for spec in _roundtrip_specs():
            bundle = solver.solve_backward(spec)
            solver.save_bundle(bundle, path)
            again = solver.load_bundle(path)
            assert again.stage_min_eig is None
            assert again.j_star == bundle.j_star
            _assert_same_tables(again, bundle)

    def test_value_tables_equal_their_transposes(self):
        # The file keeps the upper triangles of P and Ptilde, so the
        # solver's value tables must be symmetric bit for bit.
        for spec in _roundtrip_specs():
            values = solver.solve_backward(spec).values
            for table in (values.P, values.Ptilde):
                assert table.tobytes() == np.ascontiguousarray(np.swapaxes(table, -1, -2)).tobytes()

    @pytest.mark.parametrize("name", ["P", "Ptilde"])
    @pytest.mark.parametrize("shape", [(40_000,), (3, 2, 2, 2, 3), (3, 2, 2, 2, 2)], ids=["flat", "oblong", "asymmetric"])
    def test_refuses_value_table_its_triangles_cannot_hold(self, tmp_path, name, shape):
        # A flat table of 40,000 entries is refused before a triangle index
        # of that size (6 GiB) is built.
        bundle = _edge_bundle()
        setattr(bundle.values, name, np.arange(math.prod(shape), dtype=float).reshape(shape))
        path = tmp_path / "bundle.json"
        with pytest.raises(ValueError, match=f"^solution table {name} of shape {re.escape(str(shape))} is not a stack of symmetric matrices$"):
            solver.save_bundle(bundle, path)

    def test_stack_of_no_matrices_round_trips(self, tmp_path):
        # Value tables of no matrices of size 10**6: nothing to write, and
        # no triangle index of that size (4 TB) is built on either side.
        bundle = _edge_bundle()
        bundle.values.P = np.zeros((0, 1, 1, 10 ** 6, 10 ** 6))
        bundle.values.Ptilde = np.zeros((0, 1, 1, 10 ** 6, 10 ** 6))
        path = tmp_path / "bundle.json"
        tracemalloc.start()
        try:
            solver.save_bundle(bundle, path)
            _assert_same_tables(solver.load_bundle(path), bundle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_refuses_dict_era_bundle(self):
        # data/s2_bundle.json (S2, p1 = 0.5) nests its tables as t -> m0 ->
        # slot, as releases before the "ncslqr-bundle 2" format wrote them.
        path = DATA / "s2_bundle.json"
        with pytest.raises(ParseError) as exc:
            solver.load_bundle(path)
        assert str(exc.value) == (
            f"cannot read solution bundle {path}: ValueError: "
            "not an 'ncslqr-bundle 3' file; solve the problem again to write one"
        )

    def test_refuses_format_2_bundle(self):
        # data/s2_bundle_format2.json is S2's bundle as the "ncslqr-bundle 2"
        # format wrote it: every table zlib-compressed, both triangles of P.
        path = DATA / "s2_bundle_format2.json"
        with pytest.raises(ParseError) as exc:
            solver.load_bundle(path)
        assert str(exc.value) == (
            f"cannot read solution bundle {path}: ValueError: "
            "not an 'ncslqr-bundle 3' file; solve the problem again to write one"
        )

    def test_writes_indented_json_bytes(self, battery, tmp_path):
        path = tmp_path / "bundle.json"
        for spec in battery:
            solver.save_bundle(solver.solve_backward(spec), path)
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=1)
        assert list(json.loads(text)) == [
            "format", "j_star", "e", "solve_metadata", "P", "Ptilde", "K_empty", "K_received", "Ktilde",
        ]

    def test_writes_wide_steps_like_json(self, tmp_path):
        # Multi-row blocks (d_x = 6) and eight local modes, so that each
        # value table's m0 entry holds nine 6 x 6 matrices.
        dims = {"d_x0": 3, "d_x1": 3, "d_u0": 2, "d_u1": 2}
        config = random_config(np.random.default_rng(11), p1=0.5, kappa1=8, T=2, dims=dims, kappa0=3)
        bundle = solver.solve_backward(model.load_config(config))
        path = tmp_path / "bundle.json"
        solver.save_bundle(bundle, path)
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=1)
        doc = json.loads(text)
        assert doc["P"]["shape"] == [4, 3, 9, 6, 6]
        assert np.array_equal(document_table(doc, "P"), bundle.values.P)
        _assert_same_tables(solver.load_bundle(path), bundle)

    def test_writes_float_edge_cases_like_json(self, tmp_path):
        bundle = _edge_bundle()
        path = tmp_path / "bundle.json"
        solver.save_bundle(bundle, path)
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=1)
        assert json.loads(text)["e"] == EDGE_FLOATS[:3]
        again = solver.load_bundle(path)
        _assert_same_tables(again, bundle)
        assert np.array_equal(np.signbit(again.values.e), np.signbit(bundle.values.e))

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

    def test_peak_memory_is_a_few_tables_text(self, tmp_path):
        # Five tables of 40,000 random floats each, P and Ptilde as 2,500
        # symmetric 4 x 4 matrices: a gain table's text is about 427 KB and
        # a value table's, its upper triangles, about 267 KB. The writer
        # encodes a table when json reaches it, so it holds one table's
        # data, text and written copy at a time, about three texts. Encoding
        # every table before the dump holds all five.
        rng = np.random.default_rng(5)
        tables = {name: rng.standard_normal((40_000,)) for name in solver._TABLES}
        for name in ("P", "Ptilde"):
            square = tables[name].reshape(2_500, 4, 4)
            tables[name] = square + np.swapaxes(square, -1, -2)
        bundle = solver.SolutionBundle(
            values=solver.ValueTables(P=tables["P"], Ptilde=tables["Ptilde"], e=np.zeros(3)),
            gains=solver.GainTables(K_empty=tables["K_empty"], K_received=tables["K_received"], Ktilde=tables["Ktilde"]),
            j_star=0.1,
            solve_metadata={},
        )
        path = tmp_path / "bundle.json"
        solver.save_bundle(bundle, path)  # first-call imports and caches stay out of the peak
        tracemalloc.start()
        try:
            solver.save_bundle(bundle, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        texts = sum(len(entry["data"]) for entry in map(json.loads(path.read_text()).get, solver._TABLES))
        assert peak < texts

    def test_peak_memory_is_two_copies_of_the_largest_text(self, tmp_path):
        # P as 10,000 symmetric 4 x 4 matrices, its upper triangles about
        # 1.07 MB of text, and the other tables tiny. The writer holds two
        # copies of P's text at a time: its base64 bytes and string, then
        # the string and json's quoted copy. Keeping the packed doubles
        # while the string is made, or letting the file encode the quoted
        # copy whole, holds about a third.
        square = np.random.default_rng(5).standard_normal((10_000, 4, 4))
        small = np.zeros((1, 2, 2))
        bundle = solver.SolutionBundle(
            values=solver.ValueTables(P=square + np.swapaxes(square, -1, -2), Ptilde=small, e=np.zeros(3)),
            gains=solver.GainTables(K_empty=small, K_received=small, Ktilde=small),
            j_star=0.1,
            solve_metadata={},
        )
        path = tmp_path / "bundle.json"
        solver.save_bundle(bundle, path)  # first-call imports and caches stay out of the peak
        tracemalloc.start()
        try:
            solver.save_bundle(bundle, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(json.loads(path.read_text())["P"]["data"])


S2_DOCUMENT = bundle_document(solver.solve_backward(model.load_config(s2_config())))


def _s2_json_with(where, value):
    """The S2 bundle's JSON object with the entry at path `where` set to `value`."""
    obj = copy.deepcopy(S2_DOCUMENT)
    node = obj
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    return obj


class TestLoad:
    def test_peak_memory_is_the_text_or_the_tables(self, tmp_path):
        # A battery instance (every block 2-dimensional, kappa0 = kappa1 =
        # 2) at T = 240. A load holds the file's text and its parsed
        # strings, then the strings, each table's decoded bytes and the
        # tables: it peaks near twice the file, or the file plus the
        # tables.
        spec = model.load_config(random_config(np.random.default_rng(7), T=240))
        bundle = solver.solve_backward(spec)
        path = tmp_path / "bundle.json"
        solver.save_bundle(bundle, path)
        solver.load_bundle(path)  # first-call imports and caches stay out of the peak
        tracemalloc.start()
        try:
            solver.load_bundle(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        tables = sum(a.nbytes for a in (*vars(bundle.values).values(), *vars(bundle.gains).values()))
        assert peak <= 1.1 * max(2 * size, size + tables)

    @pytest.mark.parametrize("name, shape, data", [
        ("P", [3, 100_000, 2, 2, 2], None),
        ("Ktilde", [2, 1, 1, 100_000, 100_000], None),
        ("P", [0, 1, 1, 10 ** 6, 10 ** 6], ""),
        ("Ptilde", [0, 1, 1, 10 ** 6, 10 ** 6], ""),
    ], ids=["P-far-beyond", "Ktilde-far-beyond", "P-no-matrices", "Ptilde-no-matrices"])
    def test_shape_is_checked_against_its_data_first(self, tmp_path, name, shape, data):
        # A shape far beyond its data (S2's own) is refused before a table
        # of its size (19 MB for P, 160 GB for Ktilde) is allocated. A stack
        # of no matrices of size 10**6 holds no data and loads without a
        # triangle index of that size (4 TB).
        doc = copy.deepcopy(S2_DOCUMENT)
        doc[name]["shape"] = shape
        if data is not None:
            doc[name]["data"] = data
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            if data is None:
                with pytest.raises(ParseError, match=f": solution table {name} holds .* bytes, expected .* for shape "):
                    solver.load_bundle(path)
            else:
                table = getattr(solver.load_bundle(path).values, name)
                assert table.shape == tuple(shape) and not table.flags.writeable
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("kind", ["random", "zeros"])
    def test_tables_of_whole_steps_load(self, tmp_path, k, kind):
        # A Ktilde of k times 2,048 random floats, or zeros, loads bit for
        # bit.
        n = k * 2_048
        table = np.random.default_rng(k).standard_normal(n) if kind == "random" else np.zeros(n)
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(with_table(S2_DOCUMENT, "Ktilde", table)))
        loaded = solver.load_bundle(path).gains.Ktilde
        assert loaded.tobytes() == table.tobytes()

    def test_loads_the_tables_json_reads(self, battery, tmp_path):
        # The loader gives the arrays that the plain json tree decodes to
        # (conftest's decoder, not the package's), bit for bit.
        path = tmp_path / "bundle.json"
        for spec in battery[:6]:
            solver.save_bundle(solver.solve_backward(spec), path)
            doc = json.loads(path.read_text())
            again = solver.load_bundle(path)
            for table in ("values", "gains"):
                for name, b in vars(getattr(again, table)).items():
                    a = np.asarray(doc["e"], dtype=float) if name == "e" else document_table(doc, name)
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()
                    assert name == "e" or not b.flags.writeable
            assert again.j_star == doc["j_star"]

    @pytest.mark.parametrize("where, value", [
        (("P", "data"), "1.5x"),
        (("P", "shape"), [3, 1, 2, 2, 1]),
        (("Ktilde",), {"shape": [2, 1, 1, 1, 1]}),
        (("P", "shape"), [3, 1, 2, 2, 3]),
        (("K_received", "shape"), [10 ** 400]),
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
        # A table's data that is not base64, a shape that names fewer or
        # more entries than its data holds, a table without data, a shape
        # no file can fill, and numbers that are not JSON numbers.
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
