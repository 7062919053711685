import numpy as np
import pytest

from hermitian import random_hermitian
from meancert import (
    ConvergenceFailure,
    DimensionMismatch,
    HermitianMatrix,
    IllConditioned,
    NotPositiveDefinite,
    SpdMatrix,
    complex_matrix,
    det_hermitian,
    eig_hermitian,
    hs_norm,
    inverse,
    loewner_leq,
    logdet_spd,
    matrix_power,
)
from meancert.sampling import SeedPath, SpectrumSpec, random_spd, random_unitary


def test_complex_matrix_validation():
    m = complex_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128 and not m.flags.writeable
    with pytest.raises(ValueError):
        complex_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        complex_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        complex_matrix(np.zeros((0, 0)))


def test_hermitian_constructor_symmetrizes():
    h = HermitianMatrix([[1, 2 + 1j], [0, 3]])
    assert np.array_equal(h.mat, h.mat.conj().T)
    assert h.dim == 2


def test_spd_gate_rejects_indefinite():
    with pytest.raises(ValueError):
        SpdMatrix([[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        SpdMatrix(np.zeros((2, 2)))
    assert SpdMatrix(np.eye(3)).min_eig == pytest.approx(1.0)


class TestFromSpectrum:
    @pytest.mark.parametrize("cap", (1e2, 1e4, 1e6, 1e8, 1e10))
    def test_lower_bound_below_smallest_eigenvalue(self, cap):
        for n in range(1, 65):
            dist = ("log-uniform", "clustered")[n % 2]
            spec = SpectrumSpec(n, 1 / np.sqrt(cap), np.sqrt(cap), dist)
            drawn = random_spd(spec, SeedPath(int(np.log10(cap)), n))
            for p in (drawn, SpdMatrix(drawn.mat)):  # from the spectrum, and from eigh
                assert 0 < p.min_eig <= np.linalg.eigvalsh(p.mat)[0], (n, cap)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_lower_bound_below_exact_smallest_eigenvalue(self, n):
        # eigvalsh is itself off by a few eps max(w); 40 digits are not
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for k in range(100):
            cap = (1e2, 1e6, 1e10)[k % 3]
            dist = ("log-uniform", "clustered")[k % 2]
            p = random_spd(SpectrumSpec(n, 1 / np.sqrt(cap), np.sqrt(cap), dist), SeedPath(91, k))
            exact = mp.matrix([[mp.mpc(z.real, z.imag) for z in row] for row in p.mat])
            lam_min = min(mp.eighe(exact, eigvals_only=True)) if n > 1 else exact[0, 0].real
            for q in (p, SpdMatrix(p.mat)):  # from the spectrum, and from eigh
                assert np.array_equal(q.mat, p.mat)
                assert mp.mpf(q.min_eig) <= lam_min, (n, k)

    def test_spectrum_under_gate_rejected(self):
        for w in ([1.0, 1e-13], [1.0, 0.0], [1.0, -1.0]):
            with pytest.raises(NotPositiveDefinite):
                SpdMatrix.from_spectrum(np.eye(2), w)

    def test_non_unitary_rejected(self):
        u = random_unitary(4, SeedPath(3, 1))
        for bad in (2 * u, u + 1e-9):
            with pytest.raises(ConvergenceFailure):
                SpdMatrix.from_spectrum(bad, [4.0, 3.0, 2.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            SpdMatrix.from_spectrum(np.eye(3), [1.0, 2.0])

    def test_stores_the_constructors_matrix(self):
        u = random_unitary(5, SeedPath(3, 2))
        w = np.array([0.5, 3.0, 1.0, 2.0, 0.1])
        p = SpdMatrix.from_spectrum(u, w)
        assert np.array_equal(p.mat, SpdMatrix((u * w) @ u.conj().T).mat)
        assert not p.mat.flags.writeable

    def test_eig_is_the_sorted_drawn_decomposition(self):
        u = random_unitary(5, SeedPath(3, 3))
        w = np.array([0.5, 3.0, 1.0, 2.0, 0.1])
        dec = SpdMatrix.from_spectrum(u, w).eig
        order = [1, 3, 2, 0, 4]
        assert np.array_equal(dec.eigenvalues, w[order])
        assert np.array_equal(dec.unitary, u[:, order])
        assert not dec.unitary.flags.writeable and not dec.eigenvalues.flags.writeable

    def test_entries_eig_matches_eig_hermitian(self):
        for k in range(16):
            n = k % 8 + 1
            entries = random_spd(SpectrumSpec(n, 1e-2, 1e2), SeedPath(9, k)).mat
            p = SpdMatrix(entries)
            got, want = p.eig, eig_hermitian(entries)
            assert np.array_equal(got.eigenvalues, want.eigenvalues)
            assert np.array_equal(got.unitary, want.unitary)
            assert p.eig is got  # computed once

    def test_reading_eig_makes_no_eigensolve(self, monkeypatch):
        def no_eigensolve(*args):
            raise AssertionError("eigensolve after construction")

        entries = random_spd(SpectrumSpec(6, 1e-2, 1e2), SeedPath(9, 99)).mat
        p, want = SpdMatrix(entries), eig_hermitian(entries)
        monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        assert np.array_equal(p.eig.eigenvalues, want.eigenvalues)
        assert np.array_equal(p.eig.unitary, want.unitary)
        assert not p.eig.unitary.flags.writeable and not p.eig.eigenvalues.flags.writeable


class TestEig:
    def test_identity(self):
        dec = eig_hermitian(HermitianMatrix(np.eye(3)))
        np.testing.assert_allclose(dec.eigenvalues, [1, 1, 1])
        np.testing.assert_allclose(dec.unitary @ dec.unitary.conj().T, np.eye(3), atol=1e-13)

    def test_diagonal_sorted(self):
        dec = eig_hermitian(HermitianMatrix(np.diag([2.0, 5.0, 3.0])))
        np.testing.assert_allclose(dec.eigenvalues, [5, 3, 2])

    def test_two_by_two_hand_values(self):
        # char. polynomial of [[2,1],[1,2]]: (x-3)(x-1)
        dec = eig_hermitian(HermitianMatrix([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [3, 1], atol=1e-12)

    def test_deterministic(self):
        h = random_hermitian(6, 1e-2, 1e2, SeedPath(5, 0))
        d1, d2 = eig_hermitian(h), eig_hermitian(h)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.unitary, d2.unitary)

    def test_reconstruction_property(self):
        for k in range(200):
            n = k % 8 + 1
            h = random_hermitian(n, 1e-3, 1e3, SeedPath(11, k))
            dec = eig_hermitian(h)
            resid = np.linalg.norm(h.mat - dec.apply(dec.eigenvalues))
            assert resid <= 1e-10 * max(1.0, np.linalg.norm(h.mat))
            assert np.linalg.norm(dec.unitary @ dec.unitary.conj().T - np.eye(n)) <= 1e-12 * n


class TestMatrixPower:
    def test_identity_any_exponent(self):
        p = matrix_power(SpdMatrix(np.eye(3)), 0.37)
        np.testing.assert_allclose(p.mat, np.eye(3), atol=1e-14)

    def test_square_root(self):
        p = matrix_power(SpdMatrix(np.diag([4.0, 9.0])), 0.5)
        np.testing.assert_allclose(p.mat, np.diag([2.0, 3.0]), atol=1e-13)

    def test_reciprocal(self):
        p = matrix_power(SpdMatrix(np.diag([2.0])), -1.0)
        np.testing.assert_allclose(p.mat, [[0.5]], atol=1e-15)

    def test_zero_and_one(self):
        p = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_array_equal(matrix_power(p, 0).mat, np.eye(2))
        assert matrix_power(p, 1) is p

    def test_exponent_addition(self):
        rng = np.random.default_rng(3)
        for k in range(50):
            n = k % 6 + 1
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            p = SpdMatrix(z @ z.conj().T + n * np.eye(n))
            r, s = rng.uniform(-1, 1, size=2)
            lhs = matrix_power(p, r).mat @ matrix_power(p, s).mat
            rhs = matrix_power(p, r + s).mat
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))


class TestInverse:
    def test_identity(self):
        np.testing.assert_allclose(inverse(SpdMatrix(np.eye(2))).mat, np.eye(2), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            inverse(SpdMatrix(np.diag([2.0, 4.0]))).mat, np.diag([0.5, 0.25]), atol=1e-14
        )

    def test_closed_form_2x2(self):
        inv = inverse(SpdMatrix([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(inv.mat, np.array([[2, -1], [-1, 2]]) / 3.0, atol=1e-13)

    def test_residual_scales_with_condition(self):
        rng = np.random.default_rng(7)
        for k in range(30):
            n = k % 8 + 1
            q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            w = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=n))
            p = SpdMatrix((q * w) @ q.conj().T)
            resid = np.linalg.norm(p.mat @ inverse(p).mat - np.eye(n))
            assert resid <= 100 * n * (w.max() / w.min()) * np.finfo(float).eps

    def test_condition_cap(self):
        p = SpdMatrix(np.diag([1e-8, 1.0]))
        with pytest.raises(IllConditioned):
            inverse(p, cond_cap=1e6)


class TestLoewner:
    def test_scaled_identity(self):
        v = loewner_leq(HermitianMatrix(np.eye(2)), HermitianMatrix(2 * np.eye(2)), tol=0.0)
        assert v.holds and v.margin == pytest.approx(1.0)

    def test_reflexive(self):
        a = HermitianMatrix([[2.0, 1.0], [1.0, 2.0]])
        v = loewner_leq(a, a, tol=0.0)
        assert v.holds and v.margin == 0.0

    def test_incomparable_fails(self):
        v = loewner_leq(
            HermitianMatrix(np.diag([1.0, 3.0])), HermitianMatrix(np.diag([2.0, 2.0])), tol=0.5
        )
        assert not v.holds and v.margin == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            loewner_leq(HermitianMatrix(np.eye(2)), HermitianMatrix(np.eye(3)))

    def test_order_transfer_under_conjugation(self):
        rng = np.random.default_rng(13)
        for k in range(40):
            n = k % 6 + 2
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = HermitianMatrix(z @ z.conj().T)
            b = HermitianMatrix(a.mat + np.eye(n))
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert loewner_leq(a, b, tol=0.0).holds
            scaled_tol = 1e-9 * (np.linalg.norm(c) ** 2) * (np.linalg.norm(a.mat) + 1)
            ca = HermitianMatrix(c @ a.mat @ c.conj().T)
            cb = HermitianMatrix(c @ b.mat @ c.conj().T)
            assert loewner_leq(ca, cb, tol=scaled_tol).holds


class TestNormsAndDeterminants:
    def test_hs_norm_values(self):
        assert hs_norm(np.zeros((3, 3))) == 0.0
        assert hs_norm(np.eye(4)) == pytest.approx(2.0)
        assert hs_norm([[3.0, 4.0], [0.0, 0.0]]) == pytest.approx(5.0)

    def test_norm_consistency_with_singular_values(self):
        rng = np.random.default_rng(2)
        for k in range(60):
            n = k % 8 + 1
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            lhs = hs_norm(m) ** 2
            rhs = float(np.sum(np.linalg.svd(m, compute_uv=False) ** 2))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)

    def test_determinants(self):
        assert logdet_spd(SpdMatrix(np.eye(3))) == pytest.approx(0.0)
        assert logdet_spd(SpdMatrix([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(np.log(3.0))
        assert logdet_spd(SpdMatrix(np.diag([2.0, 3.0]))) == pytest.approx(np.log(6.0))
        assert det_hermitian(HermitianMatrix(np.diag([-2.0, 3.0]))) == pytest.approx(-6.0)
        assert det_hermitian(HermitianMatrix(np.diag([0.0, 3.0]))) == 0.0

    def test_det_congruence(self):
        rng = np.random.default_rng(4)
        for k in range(40):
            n = k % 6 + 1
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            p = SpdMatrix(z @ z.conj().T + np.eye(n))
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            lhs = logdet_spd(SpdMatrix(c @ p.mat @ c.conj().T))
            rhs = logdet_spd(p) + 2 * np.log(abs(np.linalg.det(c)))
            assert abs(lhs - rhs) <= 1e-8  # relative error of the determinants


def test_eig_failure_path():
    # NaN input cannot pass the constructor, so forge a carrier to exercise
    # the ConvergenceFailure route (LinAlgError or quality-gate violation).
    broken = HermitianMatrix.__new__(HermitianMatrix)
    broken.mat = np.full((2, 2), np.nan + 0j)
    with pytest.raises(ConvergenceFailure):
        eig_hermitian(broken)
