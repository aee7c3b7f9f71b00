import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncslqr import matkit
from ncslqr.errors import DefinitenessError, SingularBlockError


def _near_guard(rng, n, n_top, rank_one):
    """Symmetric n x n G whose trailing block's min eigenvalue lies within a
    factor of 10 of DEF_TOL * max(1, ||G||_2), on either side. A rank-one G
    (split at n_top = n - 1) has ||G||_F = ||G||_2."""
    norm = 10.0 ** rng.uniform(-2, 6)
    target = 10.0 ** rng.uniform(-1, 1) * matkit.DEF_TOL
    if rank_one:
        last = np.sqrt(target * max(1.0, norm) / norm)
        head = rng.standard_normal(n - 1)
        u = np.append(head / np.linalg.norm(head) * np.sqrt(1.0 - last**2), last)
        return norm * np.outer(u, u)
    A = rng.standard_normal((n, n))
    G = norm * (A + A.T) / 2
    trailing = np.eye(n - n_top)
    G[n_top:, n_top:] -= matkit.min_eig(G[n_top:, n_top:]) * trailing
    G[n_top:, n_top:] += target * matkit._scale(G) * trailing
    return G


class TestSchurComplement:
    def test_hand_2x2(self):
        G = np.array([[4.0, 2.0], [2.0, 2.0]])
        sc, gain = matkit.schur_complement(G, 1)
        assert sc == pytest.approx(np.array([[2.0]]))
        assert gain == pytest.approx(np.array([[1.0]]))

    def test_block_diagonal(self):
        G11 = np.array([[3.0, 1.0], [1.0, 2.0]])
        G = np.block([[G11, np.zeros((2, 1))], [np.zeros((1, 2)), np.array([[4.0]])]])
        assert matkit.schur_complement(G, 2)[0] == pytest.approx(G11)

    def test_s2_stage_matrix(self):
        # H_0 of the scalar hand instance: I + D'D with D = [[1,0,1,0],[1,1,1,1]].
        D = np.array([[1.0, 0.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        H = np.eye(4) + D.T @ D
        expected = np.array([[8.0, 1.0], [1.0, 7.0]]) / 5.0
        assert matkit.schur_complement(H, 2)[0] == pytest.approx(expected, abs=1e-14)

    def test_singular_trailing_block(self):
        G = np.zeros((2, 2))
        with pytest.raises(SingularBlockError):
            matkit.schur_complement(G, 1)

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((2, 3, 4, 4))
        G = A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(4)
        sc, gain = matkit.schur_complement(G, 1)
        for i, j in np.ndindex(2, 3):
            one_sc, one_gain = matkit.schur_complement(G[i, j], 1)
            assert sc[i, j] == pytest.approx(one_sc, rel=1e-12, abs=1e-12)
            assert gain[i, j] == pytest.approx(one_gain, rel=1e-12, abs=1e-12)

    def test_stack_reports_first_singular_index(self):
        G = np.broadcast_to(np.eye(3), (2, 3, 3, 3)).copy()
        G[1, 2, 1:, 1:] = 0.0
        G[1, 1, 2, 2] = 0.0
        with pytest.raises(SingularBlockError) as exc:
            matkit.schur_complement(G, 1)
        assert exc.value.index == (1, 1)

    def test_guard_scale_is_spectral_norm(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 4, 5, 5))
        G = (A + np.swapaxes(A, -1, -2)) * np.array([1e-3, 1.0, 1e4])[:, None, None, None]
        expected = np.maximum(1.0, np.linalg.norm(G, 2, axis=(-2, -1)))
        assert matkit._scale(G) == pytest.approx(expected, rel=1e-12)
        # A large negative eigenvalue sets the scale too: 5e-5 <= 1e-10 * 1e6.
        with pytest.raises(SingularBlockError):
            matkit.schur_complement(np.diag([-1e6, 5e-5]), 1)

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_guard_decision_is_exact(self, n, seed, rank_one):
        rng = np.random.default_rng(seed)
        n_top = n - 1 if rank_one else int(rng.integers(1, n))
        G = np.array([_near_guard(rng, n, n_top, rank_one) for _ in range(4)])
        lo = matkit.min_eig(G[:, n_top:, n_top:])
        bad = np.flatnonzero(lo <= matkit.DEF_TOL * matkit._scale(G))
        if len(bad) == 0:
            matkit.schur_complement(G, n_top)
            return
        with pytest.raises(SingularBlockError) as exc:
            matkit.schur_complement(G, n_top)
        assert exc.value.index == (bad[0],)
        assert str(exc.value) == f"trailing block is not PD (min eigenvalue {lo[bad[0]]:.3e})"

    def test_exact_scale_decides_between_bound_and_norm(self, monkeypatch):
        # ||G||_2 = 1e6 and ||G||_F = 1.41e6: min eig 1.2e-4 fails against
        # the Frobenius bound but passes the exact guard, 1e-10 * 1e6.
        G = np.diag([1e6, 1e6, 1.2e-4])
        matkit.schur_complement(G, 2)
        # Every block clears the bound, so the eigenvalues of G are not needed.
        monkeypatch.setattr(matkit, "_scale", None)
        matkit.schur_complement(np.diag([1e6, 1e6, 1.5e-4]), 2)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_psd_closure(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        G = A @ A.T + 1e-3 * np.eye(n)
        sc, _ = matkit.schur_complement(G, rng.integers(1, n))
        assert matkit.min_eig(sc) >= -1e-9


class TestDefiniteness:
    def test_zero_is_psd_not_pd(self):
        matkit.assert_psd(np.zeros((3, 3)))
        with pytest.raises(DefinitenessError):
            matkit.assert_pd(np.zeros((3, 3)))

    def test_indefinite_caught(self):
        with pytest.raises(DefinitenessError) as exc:
            matkit.assert_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.min_eig == pytest.approx(-1.0)

    def test_asymmetric_caught(self):
        with pytest.raises(DefinitenessError):
            matkit.assert_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_stack_names_first_failing_matrix(self):
        M = np.broadcast_to(np.eye(2), (3, 2, 2, 2)).copy()
        M[2, 0] = [[1.0, 2.0], [2.0, 1.0]]
        M[1, 1] = [[-1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(DefinitenessError, match=r"^M\[t=1, m=1\] is not PSD") as exc:
            matkit.assert_psd(M, name=lambda t, m: f"M[t={t}, m={m}]")
        assert exc.value.min_eig == pytest.approx(-1.0)

    @pytest.mark.parametrize("check, fault", [
        (matkit.assert_psd, "not PSD"), (matkit.assert_pd, "not PD"),
    ])
    def test_overflowing_matrix_named_by_index(self, check, fault):
        # sym() overflows -1e308 to -inf, so the eigenvalues of M[1, 0] are
        # NaN; a NaN minimum fails the check instead of passing it.
        M = np.broadcast_to(np.eye(2), (2, 2, 2, 2)).copy()
        M[1, 0, 0, 0] = -1e308
        with pytest.raises(DefinitenessError, match=rf"^M\[t=1, m=0\] is {fault} \(min eigenvalue nan\)$"):
            check(M, name=lambda t, m: f"M[t={t}, m={m}]")

    def test_overflowing_trailing_block_is_singular(self):
        G = np.broadcast_to(np.eye(3), (3, 3, 3)).copy()
        G[2, 2, 2] = -1e308
        with pytest.raises(SingularBlockError) as exc:
            matkit.solve_pd(G[:, 1:, 1:], G[:, 1:, :1], np.ones(3), lambda: np.ones(3))
        assert exc.value.index == (2,)
        assert str(exc.value) == "trailing block is not PD (min eigenvalue nan)"
