import numpy as np
import pytest

from hermitian import random_hermitian
from meancert import SpdMatrix, eig_hermitian
from meancert.sampling import (
    SeedPath,
    SpectrumSpec,
    random_invertible,
    random_ordered_pair,
    random_spd,
    random_unitary,
    sample_params,
)


class TestSeedPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeedPath(-1, 0)
        with pytest.raises(ValueError):
            SeedPath(0, -3)

    def test_streams_differ_by_trial(self):
        r1 = SeedPath(7, 0).rng().standard_normal(4)
        r2 = SeedPath(7, 1).rng().standard_normal(4)
        assert not np.array_equal(r1, r2)


class TestRandomUnitary:
    def test_one_by_one_unit_modulus(self):
        u = random_unitary(1, SeedPath(1, 0))
        assert abs(abs(u[0, 0]) - 1) < 1e-14

    def test_columns_orthonormal(self):
        for k in range(20):
            n = k % 8 + 1
            u = random_unitary(n, SeedPath(2, k))
            assert np.linalg.norm(u @ u.conj().T - np.eye(n)) <= 1e-12 * n

    def test_bit_identical_per_seed(self):
        u1 = random_unitary(5, SeedPath(3, 9))
        u2 = random_unitary(5, SeedPath(3, 9))
        assert np.array_equal(u1, u2)


class TestRandomSpd:
    def test_degenerate_spectrum_gives_identity_scale(self):
        p = random_spd(SpectrumSpec(4, 1.0, 1.0), SeedPath(4, 0))
        np.testing.assert_allclose(p.mat, np.eye(4), atol=1e-12)

    def test_condition_within_cap(self):
        p = random_spd(SpectrumSpec(6, 1e-3, 1e3, "log-uniform"), SeedPath(5, 1))
        w = eig_hermitian(p).eigenvalues
        assert w[0] / w[-1] <= 1e6 * (1 + 1e-9)

    def test_spectrum_fidelity(self):
        for k in range(60):
            n = k % 8 + 1
            dist = ("log-uniform", "clustered")[k % 2]
            spec = SpectrumSpec(n, 0.5, 50.0, dist)
            w = eig_hermitian(random_spd(spec, SeedPath(6, k))).eigenvalues
            assert w[-1] >= 0.5 * (1 - 1e-9)
            assert w[0] <= 50.0 * (1 + 1e-9)

    def test_determinism(self):
        p1 = random_spd(SpectrumSpec(5, 0.1, 10.0), SeedPath(7, 3))
        p2 = random_spd(SpectrumSpec(5, 0.1, 10.0), SeedPath(7, 3))
        assert np.array_equal(p1.mat, p2.mat)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SpectrumSpec(0, 1.0, 2.0)
        with pytest.raises(ValueError):
            SpectrumSpec(2, 2.0, 1.0)
        with pytest.raises(ValueError):
            SpectrumSpec(2, 1.0, 2.0, "gaussian")


class TestRandomHermitian:
    def test_not_necessarily_definite_but_conditioned(self):
        saw_indefinite = False
        for k in range(30):
            h = random_hermitian(6, 1e-2, 1e2, SeedPath(8, k))
            w = np.linalg.eigvalsh(h.mat)
            assert np.abs(w).max() / np.abs(w).min() <= 1e4 * (1 + 1e-9)
            if w[0] < 0 < w[-1]:
                saw_indefinite = True
        assert saw_indefinite


class TestOrderedPair:
    def test_forced_equal_bounds(self):
        a, b = random_ordered_pair(3, 2.0, 2.0, SeedPath(9, 0))
        np.testing.assert_allclose(a.mat, 2 * np.eye(3))
        assert a is b

    def test_scalar_case_ordering(self):
        a, b = random_ordered_pair(1, 1.0, 2.0, SeedPath(9, 1))
        av, bv = a.mat[0, 0].real, b.mat[0, 0].real
        assert 1.0 <= av <= bv <= 2.0

    def test_hypothesis_exact_at_zero_tol(self):
        from meancert.certifiers import BoundsHypothesis, spread_hypothesis_verdicts

        for k in range(200):
            n = k % 8 + 1
            m = float(np.exp(SeedPath(10, k).rng().uniform(np.log(1e-3), np.log(10))))
            big = m * float(10 ** SeedPath(11, k).rng().uniform(0, 6))
            a, b = random_ordered_pair(n, m, big, SeedPath(12, k))
            verdicts = spread_hypothesis_verdicts(a, b, BoundsHypothesis(m, big), tol=0.0)
            assert all(v.holds for v in verdicts.values())

    @pytest.mark.parametrize("n", [1, 2, 8, 32, 64])
    def test_second_certified_from_drawn_spectrum(self, n, monkeypatch):
        from meancert import linalg
        from meancert.certifiers import BoundsHypothesis, spread_hypothesis_verdicts
        from meancert.sampling import ORDERED_SPECTRUM_GUARD as guard

        for k, cap in enumerate((1.5, 1e2, 1e4, 1e8)):
            m = 0.3 * (k + 1)
            a, b = random_ordered_pair(n, m, m * cap, SeedPath(15, 10 * n + k))
            verdicts = spread_hypothesis_verdicts(a, b, BoundsHypothesis(m, m * cap), tol=0.0)
            assert all(v.holds for v in verdicts.values())  # criterion 6, at tol 0
            # min_eig is from_spectrum's proven lower bound, not an eigensolver's value
            assert b.min_eig <= np.linalg.eigvalsh(b.mat)[0]
            # B.eig is the drawn decomposition: reading it makes no eigensolve
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "eig_hermitian", None)
                dec = b.eig
            w = dec.eigenvalues
            lo, hi = m * (1 + guard) * (1 - 1e-14), m * cap * (1 - guard) * (1 + 1e-14)
            assert np.all(np.diff(w) <= 0) and lo <= w[-1] and w[0] <= hi
            np.testing.assert_allclose(dec.apply(w), b.mat, rtol=0, atol=1e-12 * m * cap * n)

    def test_determinism(self):
        a1, b1 = random_ordered_pair(4, 0.5, 5.0, SeedPath(13, 2))
        a2, b2 = random_ordered_pair(4, 0.5, 5.0, SeedPath(13, 2))
        assert np.array_equal(a1.mat, a2.mat) and np.array_equal(b1.mat, b2.mat)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            random_ordered_pair(2, 0.0, 1.0, SeedPath(14, 0))


class TestRandomInvertible:
    def test_unitary_at_cap_one(self):
        x = random_invertible(4, 1.0, SeedPath(15, 0))
        assert np.linalg.norm(x @ x.conj().T - np.eye(4)) <= 1e-12 * 4

    def test_scalar_case(self):
        x = random_invertible(1, 100.0, SeedPath(15, 1))
        assert abs(x[0, 0]) > 0

    def test_singular_values_within_band(self):
        for k in range(20):
            cap = [1e1, 1e3, 1e6][k % 3]
            x = random_invertible(5, cap, SeedPath(16, k))
            s = np.linalg.svd(x, compute_uv=False)
            assert s[0] <= np.sqrt(cap) * (1 + 1e-9)
            assert s[-1] >= (1 + 1e-9) ** -1 / np.sqrt(cap)
            assert s[0] / s[-1] <= cap * (1 + 1e-9)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            random_invertible(2, 0.5, SeedPath(17, 0))


class TestSampleParams:
    def test_weight_ordering_rule(self):
        for k in range(100):
            params, _ = sample_params(SeedPath(18, k), v_lt_tau=True)
            assert params["tau"] - params["v"] >= 0.05

    def test_ordered_pair_rule(self):
        for k in range(100):
            _, pair = sample_params(SeedPath(19, k), ordered_pair=True)
            assert pair.a < pair.b
            assert abs(pair.a - pair.b) >= 0.1 * max(pair.a, pair.b) * (1 - 1e-12)

    def test_ratio_cap_respected(self):
        for k in range(100):
            _, pair = sample_params(SeedPath(20, k), ratio_cap=50.0)
            hi, lo = max(pair.a, pair.b), min(pair.a, pair.b)
            assert hi / lo <= 50.0 * (1 + 1e-12)

    def test_lam_at_least_one(self):
        lams = set()
        for k in range(100):
            params, _ = sample_params(SeedPath(21, k))
            assert params["lam"] >= 1.0
            lams.add(params["lam"])
        assert 1.0 in lams  # boundary power exercised

    def test_determinism(self):
        out1 = sample_params(SeedPath(22, 5), v_lt_tau=True)
        out2 = sample_params(SeedPath(22, 5), v_lt_tau=True)
        assert out1 == out2


def test_spd_matrix_inputs_remain_valid_for_certifiers():
    # generated instances must pass the construction gates downstream
    for k in range(30):
        p = random_spd(SpectrumSpec(k % 8 + 1, 1e-3, 1e3), SeedPath(23, k))
        assert isinstance(p, SpdMatrix)
        assert p.min_eig > 0
