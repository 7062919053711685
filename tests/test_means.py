import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meancert import (
    DegenerateInput,
    DimensionMismatch,
    PowerOverflow,
    ScalarPair,
    Singular,
    SpdMatrix,
    arith_harm_gap,
    gap_power_ratio,
    loewner_leq,
    mat_arith,
    mat_geo,
    mat_harm,
    normalized_gap,
    scalar_arith,
    scalar_geo,
    scalar_harm,
    x_arith,
    x_geo,
    x_harm,
)
from meancert.sampling import SeedPath, SpectrumSpec, random_invertible, random_spd

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
weights = st.floats(min_value=0.0, max_value=1.0)


def spd_pair(seed, n, lo=1e-2, hi=1e2):
    spec = SpectrumSpec(n, lo, hi)
    rng = SeedPath(seed, 0).rng()
    return random_spd(spec, rng), random_spd(spec, rng)


class TestScalarMeans:
    def test_half_weight_values(self):
        pair = ScalarPair(1.0, 2.0)
        assert scalar_arith(0.5, pair) == pytest.approx(1.5)
        assert scalar_harm(0.5, pair) == pytest.approx(4.0 / 3.0)
        assert scalar_geo(0.5, pair) == pytest.approx(np.sqrt(2))

    def test_endpoint_weight(self):
        pair = ScalarPair(3.0, 7.0)
        for fn in (scalar_arith, scalar_harm, scalar_geo):
            assert fn(1.0, pair) == pytest.approx(3.0)
            assert fn(0.0, pair) == pytest.approx(7.0)

    def test_equal_operands(self):
        pair = ScalarPair(5.0, 5.0)
        for fn in (scalar_arith, scalar_harm, scalar_geo):
            assert fn(0.3, pair) == pytest.approx(5.0)

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            ScalarPair(-1.0, 2.0)
        with pytest.raises(ValueError):
            ScalarPair(1.0, float("inf"))

    @settings(max_examples=200)
    @given(a=positive, b=positive, v=weights)
    def test_chain_property(self, a, b, v):
        pair = ScalarPair(a, b)
        h, g, s = scalar_harm(v, pair), scalar_geo(v, pair), scalar_arith(v, pair)
        scale = max(a, b)
        assert h <= g + 1e-12 * scale
        assert g <= s + 1e-12 * scale

    def test_chain_bulk(self):
        # 1e5 seeded triples, vectorized; equality only when a == b
        rng = np.random.default_rng(123)
        a = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=100_000))
        b = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=100_000))
        v = rng.uniform(0, 1, size=100_000)
        s = v * a + (1 - v) * b
        g = a**v * b ** (1 - v)
        h = 1.0 / (v / a + (1 - v) / b)
        scale = np.maximum(a, b)
        assert np.all(h <= g + 1e-12 * scale)
        assert np.all(g <= s + 1e-12 * scale)
        interior = (v > 0.01) & (v < 0.99) & (np.abs(a - b) > 1e-3 * scale)
        assert np.all(g[interior] < s[interior])
        assert np.all(h[interior] < g[interior])


class TestGapHelpers:
    def test_gap_identity_matches_subtraction(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            pair = ScalarPair(*np.exp(rng.uniform(-2, 2, size=2)))
            v = rng.uniform(0.01, 0.99)
            direct = scalar_arith(v, pair) - scalar_harm(v, pair)
            assert arith_harm_gap(v, pair) == pytest.approx(direct, abs=1e-12 * (pair.a + pair.b))

    def test_normalized_gap_identity_and_limit(self):
        # raw quotient agrees at moderate t
        for v, t in [(0.3, 2.0), (0.5, 2.0), (0.7, 10.0)]:
            raw = (v + (1 - v) * t - 1.0 / (v + (1 - v) / t)) / (1 - t) ** 2
            assert normalized_gap(v, t) == pytest.approx(raw, rel=1e-10)
        # near t = 1 the identity stays exact while the quotient collapses
        assert normalized_gap(0.5, 1 + 1e-6) == pytest.approx(0.25, abs=1e-6)

    def test_ratio_frozen_value(self):
        # A_.25(1,2)=1.75, H_.25=1.6, A_.5=1.5, H_.5=4/3 -> 0.15/(1/6) = 0.9
        assert gap_power_ratio(0.25, 0.5, 1.0, ScalarPair(1.0, 2.0)) == pytest.approx(0.9)

    def test_ratio_equal_weights_is_one(self):
        assert gap_power_ratio(0.4, 0.4, 2.0, ScalarPair(1.0, 3.0)) == pytest.approx(1.0)

    def test_ratio_small_a_limit(self):
        r = gap_power_ratio(0.25, 0.5, 1.0, ScalarPair(1e-10, 1.0))
        assert r == pytest.approx(1.5, rel=1e-8)
        # operands 400 orders of magnitude apart: neither a gap nor a powered mean is formed
        assert gap_power_ratio(0.25, 0.5, 3.0, ScalarPair(1e-200, 1e200)) == pytest.approx(1.5**3)

    def test_ratio_degenerate_raises(self):
        with pytest.raises(DegenerateInput):
            gap_power_ratio(0.25, 0.5, 1.0, ScalarPair(1.0, 1.0))
        with pytest.raises(ValueError):
            gap_power_ratio(0.25, 0.5, 0.5, ScalarPair(1.0, 2.0))

    def test_ratio_out_of_range_powers_are_typed(self):
        # no powered mean is formed, so means above 1 do not overflow and means
        # below 1 do not underflow to 0/0: both ratios are finite, inside their
        # bounds and match 50-digit arithmetic
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        v, tau, lam = 0.45, 0.5, 3000.0

        def powered_gap(w, a, b):
            w, a, b = mp.mpf(w), mp.mpf(a), mp.mpf(b)
            return (w * a + (1 - w) * b) ** lam - 1 / (w / a + (1 - w) / b) ** lam

        for a, b in ((2.0, 5.0), (0.5, 0.2)):
            ratio = gap_power_ratio(v, tau, lam, ScalarPair(a, b))
            exact = powered_gap(v, a, b) / powered_gap(tau, a, b)
            assert abs(ratio - exact) <= 1e-12 * exact
            assert (v / tau) ** lam < ratio < ((1 - v) / (1 - tau)) ** lam
        # the mean ratio (A_v / A_tau)^lam = 19^3000 itself exceeds double precision,
        # and so does the squared difference of near-equal operands above 1e154
        with pytest.raises(PowerOverflow):
            gap_power_ratio(0.05, 0.95, 3000.0, ScalarPair(1e-3, 1e3))
        with pytest.raises(PowerOverflow):
            gap_power_ratio(0.25, 0.5, 1.0, ScalarPair(1e200, 1.5e200))

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_ratio_rejects_non_finite_power(self, lam):
        with pytest.raises(ValueError):
            gap_power_ratio(0.25, 0.5, lam, ScalarPair(1.0, 2.0))


class TestMatrixMeans:
    def test_arith_values(self):
        a, b = SpdMatrix(np.diag([1.0, 2.0])), SpdMatrix(np.diag([3.0, 4.0]))
        np.testing.assert_allclose(mat_arith(a, b, 0.25).mat, np.diag([2.5, 3.5]))
        eye = SpdMatrix(np.eye(2))
        np.testing.assert_allclose(mat_arith(eye, SpdMatrix(3 * np.eye(2)), 0.5).mat, 2 * np.eye(2))

    def test_geo_values(self):
        eye = SpdMatrix(np.eye(2))
        np.testing.assert_allclose(
            mat_geo(eye, SpdMatrix(np.diag([4.0, 9.0])), 0.5).mat, np.diag([2.0, 3.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            mat_geo(SpdMatrix(np.diag([2.0])), SpdMatrix(np.diag([8.0])), 0.5).mat,
            np.diag([4.0]),
            atol=1e-12,
        )

    def test_harm_values(self):
        np.testing.assert_allclose(
            mat_harm(SpdMatrix(np.diag([1.0])), SpdMatrix(np.diag([2.0])), 0.5).mat,
            np.diag([4.0 / 3.0]),
            atol=1e-14,
        )
        eye = SpdMatrix(np.eye(3))
        np.testing.assert_allclose(
            mat_harm(eye, SpdMatrix(2 * np.eye(3)), 0.25).mat, 1.6 * np.eye(3), atol=1e-13
        )

    def test_idempotence(self):
        a, _ = spd_pair(1, 4)
        for fn in (mat_arith, mat_geo, mat_harm):
            np.testing.assert_allclose(fn(a, a, 0.3).mat, a.mat, atol=1e-10 * np.linalg.norm(a.mat))

    def test_endpoints_consistent(self):
        a, b = spd_pair(2, 5, 1e-1, 1e1)
        for fn in (mat_arith, mat_geo, mat_harm):
            np.testing.assert_allclose(fn(a, b, 1.0).mat, a.mat, atol=1e-10)
            np.testing.assert_allclose(fn(a, b, 0.0).mat, b.mat, atol=1e-10)

    def test_diagonal_reduction(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            av = rng.uniform(0.5, 2.0, size=n)
            bv = rng.uniform(0.5, 2.0, size=n)
            v = rng.uniform(0, 1)
            a, b = SpdMatrix(np.diag(av)), SpdMatrix(np.diag(bv))
            np.testing.assert_allclose(
                np.diagonal(mat_arith(a, b, v).mat).real, v * av + (1 - v) * bv, atol=1e-12
            )
            np.testing.assert_allclose(
                np.diagonal(mat_geo(a, b, v).mat).real, av**v * bv ** (1 - v), atol=1e-12
            )
            np.testing.assert_allclose(
                np.diagonal(mat_harm(a, b, v).mat).real,
                1.0 / (v / av + (1 - v) / bv),
                atol=1e-12,
            )

    def test_matrix_chain(self):
        # harmonic <= geometric <= arithmetic in the semidefinite order
        for k in range(1000):
            n = k % 8 + 1
            rng = SeedPath(77, k).rng()
            spec = SpectrumSpec(n, 1e-2, 1e2)
            a, b = random_spd(spec, rng), random_spd(spec, rng)
            v = float(rng.uniform(0, 1))
            harm, geo, arith = mat_harm(a, b, v), mat_geo(a, b, v), mat_arith(a, b, v)
            assert loewner_leq(harm, geo).holds
            assert loewner_leq(geo, arith).holds

    def test_congruence_covariance(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            spec = SpectrumSpec(n, 1e-1, 1e1)
            a, b = random_spd(spec, rng), random_spd(spec, rng)
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            v = rng.uniform(0.1, 0.9)
            ca = SpdMatrix(c @ a.mat @ c.conj().T)
            cb = SpdMatrix(c @ b.mat @ c.conj().T)
            lhs = c @ mat_arith(a, b, v).mat @ c.conj().T
            rhs = mat_arith(ca, cb, v).mat
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)
            lhs_h = c @ mat_harm(a, b, v).mat @ c.conj().T
            rhs_h = mat_harm(ca, cb, v).mat
            assert np.linalg.norm(lhs_h - rhs_h) <= 1e-8 * np.linalg.norm(rhs_h)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_arith(SpdMatrix(np.eye(2)), SpdMatrix(np.eye(3)), 0.5)


class TestOneSidedMeans:
    def test_identity_cases(self):
        eye = SpdMatrix(np.eye(2))
        np.testing.assert_allclose(x_arith(eye, eye, np.eye(2), 0.3), np.eye(2))
        np.testing.assert_allclose(x_harm(eye, eye, np.eye(2), 0.3), np.eye(2), atol=1e-13)

    def test_diagonal_reduction_with_identity_x(self):
        a, b = SpdMatrix(np.diag([1.0, 3.0])), SpdMatrix(np.diag([2.0, 5.0]))
        v = 0.25
        av, bv = np.array([1.0, 3.0]), np.array([2.0, 5.0])
        np.testing.assert_allclose(
            np.diagonal(x_arith(a, b, np.eye(2), v)).real, v * av + (1 - v) * bv
        )
        np.testing.assert_allclose(
            np.diagonal(x_harm(a, b, np.eye(2), v)).real,
            1.0 / (v / av + (1 - v) / bv),
            atol=1e-13,
        )
        np.testing.assert_allclose(
            x_harm(SpdMatrix(np.diag([1.0])), SpdMatrix(np.diag([2.0])), np.eye(1), 0.5),
            np.diag([4.0 / 3.0]),
            atol=1e-14,
        )

    def test_endpoint_algebra(self):
        rng = np.random.default_rng(14)
        a, b = spd_pair(3, 4, 1e-1, 1e1)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_allclose(x_arith(a, b, x, 1.0), a.mat @ x)
        np.testing.assert_allclose(
            x_harm(a, b, x, 0.0), x @ b.mat, atol=1e-10 * np.linalg.norm(x @ b.mat)
        )
        np.testing.assert_allclose(
            x_harm(a, b, x, 1.0), a.mat @ x, atol=1e-10 * np.linalg.norm(a.mat @ x)
        )
        np.testing.assert_allclose(x_geo(a, b, x, 1.0), a.mat @ x, atol=1e-10)

    def test_commuting_reduction_to_two_sided(self):
        a, b = spd_pair(6, 3, 1e-1, 1e1)
        # same eigenbasis: B' = f(A) commutes with A
        from meancert import eig_hermitian

        dec = eig_hermitian(a)
        b2 = SpdMatrix(dec.apply(dec.eigenvalues**0.5 + 1.0))
        v = 0.35
        np.testing.assert_allclose(
            x_harm(a, b2, np.eye(3), v),
            mat_harm(a, b2, v).mat,
            atol=1e-9 * np.linalg.norm(mat_harm(a, b2, v).mat),
        )

    def test_harmonic_differs_from_naive_closed_form(self):
        # the double-inverse expression is a different matrix for
        # non-commuting operands, and it escapes the norm ordering that the
        # operator mean satisfies; pin both facts
        rng = np.random.default_rng(277)
        seen_diff = False
        seen_violation = False
        for _ in range(500):
            n = 2
            z1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            z2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = SpdMatrix(z1 @ z1.conj().T + 0.5 * np.eye(n))
            b = SpdMatrix(z2 @ z2.conj().T + 0.5 * np.eye(n))
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            v = 0.85
            harm = x_harm(a, b, x, v)
            naive = np.linalg.inv(
                v * np.linalg.inv(a.mat @ x) + (1 - v) * np.linalg.inv(x @ b.mat)
            )
            if np.linalg.norm(harm - naive) > 1e-6 * np.linalg.norm(harm):
                seen_diff = True
            arith_sq = np.linalg.norm(x_arith(a, b, x, v)) ** 2
            if np.linalg.norm(naive) ** 2 > arith_sq + 1e-9:
                seen_violation = True
            assert np.linalg.norm(harm) ** 2 <= arith_sq + 1e-9 * (arith_sq + 1)
        assert seen_diff and seen_violation

    def test_singular_x_rejected(self):
        a, b = spd_pair(5, 2)
        with pytest.raises(Singular):
            x_harm(a, b, np.array([[1.0, 2.0], [2.0, 4.0]]), 0.5)

    def test_random_x_norm_chain(self):
        for k in range(100):
            n = k % 6 + 1
            rng = SeedPath(55, k).rng()
            spec = SpectrumSpec(n, 1e-2, 1e2)
            a, b = random_spd(spec, rng), random_spd(spec, rng)
            x = random_invertible(n, 1e3, rng)
            v = float(rng.uniform(0, 1))
            na = np.linalg.norm(x_arith(a, b, x, v)) ** 2
            ng = np.linalg.norm(x_geo(a, b, x, v)) ** 2
            nh = np.linalg.norm(x_harm(a, b, x, v)) ** 2
            tol = 1e-9 * (na + ng + nh + 1)
            assert nh <= ng + tol
            assert ng <= na + tol
