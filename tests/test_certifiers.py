import json
from fractions import Fraction

import numpy as np
import pytest

from meancert import (
    BoundsHypothesis,
    HypothesisViolated,
    PowerOverflow,
    RequiresOrdered,
    ScalarPair,
    SpdMatrix,
    WeightOrder,
    check_det_gap,
    check_det_half_weight_gap,
    check_det_power_order,
    check_det_root_gap,
    check_gap_ratio,
    check_half_weight_gap,
    check_hs_agh_chain,
    check_hs_gap_ratio,
    check_hs_half_weight_gap,
    check_inverse_convexity,
    check_matrix_agh,
    check_matrix_gap_ratio,
    check_matrix_half_weight_gap,
    check_minkowski_products,
    check_one_sided_gap,
    check_power_difference,
    check_scalar_agh,
    check_spread_gap_cap,
    probe_gap_ratio_limits,
    probe_normalized_gap,
    spread_hypothesis_verdicts,
)
from meancert import certifiers, means, runner
from meancert.certifiers import CertificateReport
from meancert.config import RunConfig
from meancert.sampling import SeedPath, SpectrumSpec, random_invertible, random_spd


def spd_pair(seed, n, lo=1e-1, hi=1e1):
    rng = SeedPath(seed, 0).rng()
    spec = SpectrumSpec(n, lo, hi)
    return random_spd(spec, rng), random_spd(spec, rng)


def test_report_invariant_requires_witness_on_failure():
    with pytest.raises(ValueError):
        CertificateReport(holds=False, margins={"m": -1.0}, tol_used=0.0)


class TestScalarAgh:
    def test_equality_case(self):
        rep = check_scalar_agh(ScalarPair(1.0, 1.0), 0.3)
        assert rep.holds and rep.verdict == "pass"
        assert rep.margins["geo_minus_harm"] == pytest.approx(0.0, abs=1e-15)
        assert rep.margins["arith_minus_geo"] == pytest.approx(0.0, abs=1e-15)

    def test_frozen_values(self):
        rep = check_scalar_agh(ScalarPair(1.0, 2.0), 0.5)
        assert rep.margins["geo_minus_harm"] == pytest.approx(np.sqrt(2) - 4.0 / 3.0)
        assert rep.margins["arith_minus_geo"] == pytest.approx(1.5 - np.sqrt(2))

    def test_symmetric_at_half(self):
        r1 = check_scalar_agh(ScalarPair(4.0, 1.0), 0.5)
        r2 = check_scalar_agh(ScalarPair(1.0, 4.0), 0.5)
        for key in r1.margins:
            assert r1.margins[key] == pytest.approx(r2.margins[key])


class TestMatrixAgh:
    def test_idempotent_zero_margins(self):
        a, _ = spd_pair(1, 3)
        rep = check_matrix_agh(a, a, 0.7)
        assert rep.holds
        for m in rep.margins.values():
            assert abs(m) <= rep.tol_used

    def test_diagonal_matches_scalar(self):
        a = SpdMatrix(np.diag([1.0, 2.0]))
        b = SpdMatrix(np.diag([2.0, 1.0]))
        rep = check_matrix_agh(a, b, 0.5)
        # both entries are the (1,2) pair at v=1/2
        assert rep.margins["geo_minus_harm"] == pytest.approx(np.sqrt(2) - 4 / 3, abs=1e-12)
        assert rep.margins["arith_minus_geo"] == pytest.approx(1.5 - np.sqrt(2), abs=1e-12)

    def test_random_holds(self):
        a, b = spd_pair(2, 4)
        assert check_matrix_agh(a, b, 0.3).holds


class TestGapRatio:
    def test_frozen_margins(self):
        rep = check_gap_ratio(ScalarPair(1.0, 2.0), 0.25, 0.5, 1.0)
        assert rep.holds
        assert rep.margins["above_lower"] == pytest.approx(0.4)
        assert rep.margins["below_upper"] == pytest.approx(0.6)

    def test_squared_power_stays_inside(self):
        num = Fraction(7, 4) ** 2 - Fraction(8, 5) ** 2
        den = Fraction(3, 2) ** 2 - Fraction(4, 3) ** 2
        expected = float(num / den)
        rep = check_gap_ratio(ScalarPair(1.0, 2.0), 0.25, 0.5, 2.0)
        # bounds are the squares of the linear-case bounds: (0.25, 2.25)
        assert rep.margins["above_lower"] == pytest.approx(expected - 0.25)
        assert rep.margins["below_upper"] == pytest.approx(2.25 - expected)

    def test_degenerate_pair(self):
        rep = check_gap_ratio(ScalarPair(1.0, 1.0), 0.25, 0.5, 1.0)
        assert rep.degenerate and rep.verdict == "degenerate"

    def test_weight_order_enforced(self):
        with pytest.raises(WeightOrder):
            check_gap_ratio(ScalarPair(1.0, 2.0), 0.5, 0.25, 1.0)

    def test_strictness_away_from_degeneracy(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            a = float(np.exp(rng.uniform(-2, 2)))
            b = a * float(np.exp(rng.uniform(np.log(1.2), np.log(10))))
            v = rng.uniform(0.1, 0.85)
            tau = rng.uniform(v + 0.05, 0.9)
            rep = check_gap_ratio(ScalarPair(a, b), v, tau, float(rng.uniform(1, 3)))
            assert rep.margins["above_lower"] > 1e-6
            assert rep.margins["below_upper"] > 1e-6


@pytest.mark.parametrize("rel", [1e-1, 1e-3, 1e-5, 1e-7, 5e-8, 2e-8, 1e-9])
def test_near_equal_operands_pass_and_match_mpmath(rel):
    """At ``b/a = 1 + rel`` every gap certifier passes (the gap ratio, a 0/0
    there, may report degenerate instead), and each margin it reports agrees
    with 50-digit arithmetic to within its tol."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    pair = ScalarPair(1.0, 1.0 + rel)
    a, b = mp.mpf(pair.a), mp.mpf(pair.b)

    def arith(w, p=1):
        return (w * a + (1 - w) * b) ** p

    def harm(w, p=1):
        return 1 / (w / a + (1 - w) / b) ** p

    def gap(w, p=1):
        return arith(w, p) - harm(w, p)

    cases = []
    for v, tau, lam in [(0.49, 0.5, 1.0), (0.25, 0.5, 1.0), (0.1, 0.9, 2.0), (0.3, 0.7, 3.5),
                        (0.45, 0.5, 100.0)]:
        V, T = mp.mpf(v), mp.mpf(tau)
        ratio = gap(V, lam) / gap(T, lam)
        cases.append((check_gap_ratio(pair, v, tau, lam),
                      (ratio - (V / T) ** lam, ((1 - V) / (1 - T)) ** lam - ratio)))
    ratios = len(cases)  # the gap ratio cases: only they may report degenerate
    for v in (0.2, 0.5, 0.8):
        V = mp.mpf(v)
        for squared in (False, True):
            p = 2 if squared else 1
            lo, hi = (2 * min(V, 1 - V)) ** p, (2 * max(V, 1 - V)) ** p
            cases.append((check_half_weight_gap(pair, v, squared),
                          (gap(V, p) - lo * gap(0.5, p), hi * gap(0.5, p) - gap(V, p))))
    for v in (0.1, 0.5, 0.9):
        V = mp.mpf(v)
        cases.append((check_one_sided_gap(pair, v),
                      (gap(V) - V * (1 - V) * (1 - a / b) ** 2 * a,
                       V * (1 - V) * (1 - b / a) ** 2 * b - gap(V))))
        mid = V / a + (1 - V) / b - 1 / (V * a + (1 - V) * b)
        coeff = V * (1 - V) * (b - a) ** 2
        cases.append((check_inverse_convexity(pair, v), (mid - coeff / b**3, coeff / a**3 - mid)))
    for k, (rep, exact) in enumerate(cases):
        assert rep.verdict == "pass" or (k < ratios and rep.degenerate)
        if not rep.degenerate:
            for margin, want in zip(rep.margins.values(), exact, strict=True):
                assert abs(margin - want) <= rep.tol_used


class TestGapRatioLimitsProbe:
    def test_limits_approached(self):
        _, rep = probe_gap_ratio_limits(0.25, 0.5, 1.0, 1.0, (1e-2, 1e-4, 1e-6, 1e-8))
        assert rep.holds
        # at eps=1e-8 the ratio is within 1e-6 of the bound 1.5 (and 0.5)
        assert rep.margins["small_a_gap[1e-08]"] <= 1e-6 * 1.5
        assert rep.margins["large_a_gap[1e-08]"] <= 1e-6 * 0.5
        assert rep.margins["small_a_monotone"] >= 0.0
        assert rep.margins["large_a_monotone"] >= 0.0

    def test_squared_limits(self):
        _, rep = probe_gap_ratio_limits(0.25, 0.5, 2.0, 1.0, (1e-6,))
        r_small = means.gap_power_ratio(0.25, 0.5, 2.0, ScalarPair(1e-6, 1.0))
        assert r_small == pytest.approx(2.25, rel=1e-4)
        assert rep.margins["small_a_gap[1e-06]"] == pytest.approx(abs(r_small - 2.25))

    def test_underflow_guard(self):
        with pytest.raises(ValueError):
            probe_gap_ratio_limits(0.25, 0.5, 1.0, 1.0, (1e-13,))


class TestHalfWeightGap:
    def test_balanced_weight_zero_margins(self):
        rep = check_half_weight_gap(ScalarPair(1.0, 2.0), 0.5)
        for m in rep.margins.values():
            assert m == pytest.approx(0.0, abs=1e-14)

    def test_frozen_linear(self):
        rep = check_half_weight_gap(ScalarPair(1.0, 2.0), 0.25)
        assert rep.margins["above_lower"] == pytest.approx(0.15 - 0.5 / 6)
        assert rep.margins["below_upper"] == pytest.approx(1.5 / 6 - 0.15)

    def test_frozen_squared(self):
        base = 2.25 - 16.0 / 9.0
        mid = 1.75**2 - 1.6**2
        rep = check_half_weight_gap(ScalarPair(1.0, 2.0), 0.25, squared=True)
        assert rep.margins["above_lower"] == pytest.approx(mid - 0.25 * base)
        assert rep.margins["below_upper"] == pytest.approx(2.25 * base - mid)

    def test_heavy_weight_side(self):
        # min/max factors swap above v = 1/2
        rep = check_half_weight_gap(ScalarPair(1.0, 2.0), 0.75)
        assert rep.holds


class TestInverseConvexityGap:
    def test_frozen_values(self):
        rep = check_inverse_convexity(ScalarPair(1.0, 2.0), 0.5)
        mid = 0.5 + 0.25 - 1 / 1.5
        assert mid == pytest.approx(1.0 / 12)
        assert rep.margins["above_lower"] == pytest.approx(mid - 1.0 / 32)
        assert rep.margins["below_upper"] == pytest.approx(0.25 - mid)

    def test_requires_ordered(self):
        with pytest.raises(RequiresOrdered):
            check_inverse_convexity(ScalarPair(2.0, 1.0), 0.5)

    def test_near_equal_passes(self):
        # a difference, not a ratio: no 0/0 set, so a verdict at any separation
        rep = check_inverse_convexity(ScalarPair(1.0, 1.0 + 1e-10), 0.5)
        assert rep.verdict == "pass"

    def test_small_weight_vanishes(self):
        rep = check_inverse_convexity(ScalarPair(1.0, 2.0), 1e-9)
        assert rep.holds
        assert rep.margins["below_upper"] == pytest.approx(0.0, abs=1e-8)


class TestOneSidedGap:
    def test_frozen_values(self):
        rep = check_one_sided_gap(ScalarPair(1.0, 2.0), 0.5)
        assert rep.holds
        assert rep.margins["above_lower"] == pytest.approx(1.0 / 6 - 0.0625)
        assert rep.margins["below_upper"] == pytest.approx(0.5 - 1.0 / 6)

    def test_weight_near_one_vanishes(self):
        rep = check_one_sided_gap(ScalarPair(1.0, 2.0), 1 - 1e-9)
        assert rep.holds
        for m in rep.margins.values():
            assert abs(m) <= 1e-8

    def test_near_equal_passes(self):
        assert check_one_sided_gap(ScalarPair(1.0, 1.0 + 1e-9), 0.5).verdict == "pass"

    def test_requires_ordered(self):
        with pytest.raises(RequiresOrdered):
            check_one_sided_gap(ScalarPair(2.0, 1.0), 0.5)


class TestNormalizedGapProbe:
    def test_factor_limit(self):
        _, rep = probe_normalized_gap(0.5, (1 + 1e-6, 1 + 1e-4, 2.0))
        assert rep.holds
        assert rep.margins["gap[1.000001]"] <= 1e-5

    def test_sandwich_frozen(self):
        _, rep = probe_normalized_gap(0.3, (2.0, 10.0))
        g2 = means.normalized_gap(0.3, 2.0)
        assert g2 == pytest.approx(0.21 / 1.3)
        assert rep.margins["below_factor[2.0]"] == pytest.approx(0.21 - g2)
        assert rep.margins["above_scaled[2.0]"] == pytest.approx(g2 - 0.105)
        assert rep.holds

    def test_rejects_t_at_most_one(self):
        with pytest.raises(ValueError):
            probe_normalized_gap(0.5, (1.0,))


class TestMatrixGapRatio:
    def test_equal_weights_zero_margins(self):
        a, b = spd_pair(3, 4)
        rep = check_matrix_gap_ratio(a, b, 0.4, 0.4)
        for m in rep.margins.values():
            assert m == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_reduces_to_scalar(self):
        a = SpdMatrix(np.diag([1.0, 3.0]))
        b = SpdMatrix(np.diag([2.0, 0.5]))
        v, tau = 0.2, 0.6
        rep = check_matrix_gap_ratio(a, b, v, tau)
        lows, ups = [], []
        for ai, bi in [(1.0, 2.0), (3.0, 0.5)]:
            pair = ScalarPair(ai, bi)
            dv = means.scalar_arith(v, pair) - means.scalar_harm(v, pair)
            dt = means.scalar_arith(tau, pair) - means.scalar_harm(tau, pair)
            lows.append(dv - (v / tau) * dt)
            ups.append((1 - v) / (1 - tau) * dt - dv)
        assert rep.margins["above_lower"] == pytest.approx(min(lows), abs=1e-12)
        assert rep.margins["below_upper"] == pytest.approx(min(ups), abs=1e-12)

    def test_seeded_5x5_holds(self):
        a, b = spd_pair(9, 5)
        assert check_matrix_gap_ratio(a, b, 0.2, 0.6).holds

    def test_weight_order(self):
        a, b = spd_pair(10, 2)
        with pytest.raises(WeightOrder):
            check_matrix_gap_ratio(a, b, 0.7, 0.3)

    def test_verdict_invariant_under_congruence(self):
        # conjugating both operands rescales margins but not the verdict
        rng = np.random.default_rng(61)
        for k in range(20):
            n = int(rng.integers(2, 6))
            a, b = spd_pair(100 + k, n)
            rep = check_matrix_gap_ratio(a, b, 0.3, 0.7)
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            ca = SpdMatrix(c @ a.mat @ c.conj().T)
            cb = SpdMatrix(c @ b.mat @ c.conj().T)
            scale = float(np.linalg.norm(c)) ** 2
            rep_c = check_matrix_gap_ratio(ca, cb, 0.3, 0.7, tol_scale=scale)
            assert rep.verdict == rep_c.verdict == "pass"


class TestMatrixHalfWeightGap:
    def test_half_weight_zero_margins(self):
        a, b = spd_pair(11, 3)
        rep = check_matrix_half_weight_gap(a, b, 0.5)
        for m in rep.margins.values():
            assert m == pytest.approx(0.0, abs=1e-12)

    def test_scaled_identity_scalar_reduction(self):
        eye = SpdMatrix(np.eye(2))
        two = SpdMatrix(2 * np.eye(2))
        rep = check_matrix_half_weight_gap(eye, two, 0.25)
        assert rep.margins["above_lower"] == pytest.approx(0.15 - 1.0 / 12, abs=1e-12)
        assert rep.margins["below_upper"] == pytest.approx(0.25 - 0.15, abs=1e-12)

    def test_rejects_large_weight(self):
        a, b = spd_pair(12, 2)
        with pytest.raises(ValueError):
            check_matrix_half_weight_gap(a, b, 0.6)


class TestSpreadGapCap:
    def test_equal_operands(self):
        a, _ = spd_pair(13, 3, 1.0, 2.0)
        rep = check_spread_gap_cap(a, a, 0.5, BoundsHypothesis(0.05, 25.0))
        assert rep.holds

    def test_frozen_scaled_identity(self):
        eye = SpdMatrix(np.eye(2))
        two = SpdMatrix(2 * np.eye(2))
        rep = check_spread_gap_cap(eye, two, 0.5, BoundsHypothesis(1.0, 2.0))
        # cap 0.25*(1-2)^2*2I = 0.5I against gap (1.5 - 4/3)I
        assert rep.margins["cap_minus_gap"] == pytest.approx(0.5 - 1.0 / 6, abs=1e-12)

    def test_diagonal_pair(self):
        a = SpdMatrix(np.diag([1.0, 1.0]))
        b = SpdMatrix(np.diag([1.0, 2.0]))
        rep = check_spread_gap_cap(a, b, 0.5, BoundsHypothesis(1.0, 2.0))
        assert rep.holds
        assert rep.margins["cap_minus_gap"] == pytest.approx(0.25, abs=1e-12)

    def test_hypothesis_violation_named(self):
        eye = SpdMatrix(np.eye(2))
        two = SpdMatrix(2 * np.eye(2))
        with pytest.raises(HypothesisViolated) as err:
            check_spread_gap_cap(two, eye, 0.5, BoundsHypothesis(0.5, 3.0))
        assert err.value.check_name == "first_leq_second"

    def test_verdicts_helper_at_zero_tol(self):
        eye = SpdMatrix(np.eye(2))
        two = SpdMatrix(2 * np.eye(2))
        verdicts = spread_hypothesis_verdicts(eye, two, BoundsHypothesis(1.0, 2.0), tol=0.0)
        assert len(verdicts) == 4 and all(v.holds for v in verdicts.values())

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            BoundsHypothesis(0.0, 1.0)
        with pytest.raises(ValueError):
            BoundsHypothesis(2.0, 1.0)


class TestHsGapRatio:
    def test_equal_weights_zero_margins(self):
        a, b = spd_pair(14, 3)
        x = random_invertible(3, 10.0, SeedPath(14, 1).rng())
        rep = check_hs_gap_ratio(a, b, x, 0.3, 0.3)
        assert rep.margins["above_lower"] == pytest.approx(1 - 1, abs=1e-12)
        assert rep.margins["below_upper"] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_diagonal_value(self):
        a = SpdMatrix(np.diag([1.0]))
        b = SpdMatrix(np.diag([2.0]))
        rep = check_hs_gap_ratio(a, b, np.eye(1), 0.25, 0.5)
        expected = (1.75**2 - 1.6**2) / (2.25 - (4.0 / 3.0) ** 2)
        assert rep.margins["above_lower"] == pytest.approx(expected - 0.25)
        assert rep.margins["below_upper"] == pytest.approx(2.25 - expected)

    def test_seeded_holds(self):
        a, b = spd_pair(15, 3)
        x = random_invertible(3, 1e2, SeedPath(15, 1).rng())
        assert check_hs_gap_ratio(a, b, x, 0.2, 0.7).holds

    def test_degenerate_denominator(self):
        eye = SpdMatrix(np.eye(2))
        rep = check_hs_gap_ratio(eye, eye, np.eye(2), 0.2, 0.5)
        assert rep.degenerate


class TestHsAghChain:
    def test_identity_operands(self):
        eye = SpdMatrix(np.eye(2))
        x = np.array([[1.0, 2.0], [0.5, 3.0]])
        rep = check_hs_agh_chain(eye, eye, x, 0.4)
        for m in rep.margins.values():
            assert m == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_scalar_chain(self):
        a = SpdMatrix(np.diag([1.0, 3.0]))
        b = SpdMatrix(np.diag([2.0, 0.5]))
        v = 0.3
        rep = check_hs_agh_chain(a, b, np.eye(2), v)
        sq = lambda f: sum(
            f(v, ScalarPair(ai, bi)) ** 2 for ai, bi in [(1.0, 2.0), (3.0, 0.5)]
        )
        assert rep.margins["arith_minus_geo"] == pytest.approx(
            sq(means.scalar_arith) - sq(means.scalar_geo), abs=1e-10
        )
        assert rep.margins["geo_minus_harm"] == pytest.approx(
            sq(means.scalar_geo) - sq(means.scalar_harm), abs=1e-10
        )

    def test_seeded_holds(self):
        a, b = spd_pair(16, 4)
        x = random_invertible(4, 1e2, SeedPath(16, 1).rng())
        assert check_hs_agh_chain(a, b, x, 0.6).holds


class TestHsHalfWeightGap:
    def test_balanced_zero_margins(self):
        a, b = spd_pair(17, 3)
        x = random_invertible(3, 10.0, SeedPath(17, 1).rng())
        rep = check_hs_half_weight_gap(a, b, x, 0.5)
        for m in rep.margins.values():
            assert m == pytest.approx(0.0, abs=rep.tol_used)

    def test_scalar_diagonal_reduces_to_squared_form(self):
        a = SpdMatrix(np.diag([1.0]))
        b = SpdMatrix(np.diag([2.0]))
        rep = check_hs_half_weight_gap(a, b, np.eye(1), 0.25)
        d_half = 2.25 - (4.0 / 3.0) ** 2
        d_v = 1.75**2 - 1.6**2
        assert rep.margins["above_lower"] == pytest.approx(d_v - 0.25 * d_half)
        assert rep.margins["below_upper"] == pytest.approx(2.25 * d_half - d_v)

    def test_seeded_holds(self):
        a, b = spd_pair(18, 5)
        x = random_invertible(5, 1e2, SeedPath(18, 1).rng())
        assert check_hs_half_weight_gap(a, b, x, 0.2).holds


@pytest.mark.parametrize(
    "check, args",
    [
        (check_one_sided_gap, (ScalarPair(1e200, 1.5e200), 0.5)),
        (check_half_weight_gap, (ScalarPair(1e200, 1.5e200), 0.3)),
        (check_inverse_convexity, (ScalarPair(1e-200, 1.5e-200), 0.5)),
    ],
)
def test_scalar_gap_overflow_is_typed(check, args):
    # (a - b) ** 2 overflows a Python float inside gap_map: PowerOverflow, not a bare OverflowError
    with pytest.raises(PowerOverflow):
        check(*args)


class TestDeterminantChecks:
    def test_power_order_equal_operands(self):
        a, _ = spd_pair(19, 3)
        rep = check_det_power_order(a, a, 0.3, 2.0)
        assert rep.holds
        assert rep.margins["det_power_gap"] == pytest.approx(0.0, abs=rep.tol_used)

    def test_power_order_frozen(self):
        eye = SpdMatrix(np.eye(2))
        two = SpdMatrix(np.diag([2.0, 2.0]))
        rep = check_det_power_order(eye, two, 0.5, 1.0)
        assert rep.margins["det_power_gap"] == pytest.approx(2.25 - 16.0 / 9.0)

    def test_power_order_large_power_holds(self):
        a, b = spd_pair(20, 4)
        assert check_det_power_order(a, b, 0.4, 3.0).holds

    def test_minkowski_equality(self):
        rep = check_minkowski_products([1.0, 1.0], [1.0, 1.0])
        assert rep.holds
        assert rep.margins["minkowski_gap"] == pytest.approx(0.0, abs=1e-14)
        assert abs(rep.margins["minkowski_gap"]) <= rep.tol_used

    def test_minkowski_frozen(self):
        rep = check_minkowski_products([1.0, 4.0], [4.0, 1.0])
        assert rep.margins["minkowski_gap"] == pytest.approx(1.0)
        assert abs(rep.margins["minkowski_gap"]) > rep.tol_used

    def test_minkowski_proportional_vectors(self):
        rep = check_minkowski_products([2.0, 2.0], [3.0, 3.0])
        assert rep.margins["minkowski_gap"] == pytest.approx(0.0, abs=1e-14)
        assert abs(rep.margins["minkowski_gap"]) <= rep.tol_used

    @pytest.mark.parametrize("a_vec", [[float("inf"), 1.0], [float("nan"), 1.0], [0.0, 1.0]])
    def test_minkowski_rejects_non_positive_entries(self, a_vec):
        with pytest.raises(ValueError):
            check_minkowski_products(a_vec, [1.0, 1.0])

    def test_power_difference_linear_is_tight(self):
        rep = check_power_difference(3.0, 1.0, 1.0)
        assert rep.margins["power_gap"] == pytest.approx(0.0, abs=1e-15)

    def test_power_difference_frozen(self):
        assert check_power_difference(3.0, 1.0, 2.0).margins["power_gap"] == pytest.approx(4.0)
        assert check_power_difference(2.0, 1.0, 3.0).margins["power_gap"] == pytest.approx(6.0)

    def test_power_difference_requires_order(self):
        with pytest.raises(RequiresOrdered):
            check_power_difference(1.0, 3.0, 2.0)

    def test_power_difference_overflow_is_typed(self):
        # 10 ** 400 exceeds double precision: PowerOverflow, not a bare OverflowError
        with pytest.raises(PowerOverflow):
            check_power_difference(10.0, 1.0, 400.0)

    def test_det_root_gap_overflow_is_typed(self, recwarn):
        # 750.25 ** 300 exceeds double precision: PowerOverflow, not a nan margin read as fail
        one, big = SpdMatrix(np.eye(1)), SpdMatrix(np.diag([1e3]))
        with pytest.raises(PowerOverflow):
            check_det_root_gap(one, big, 0.25, 0.5, 300.0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_det_root_gap_underflow_is_typed(self, recwarn):
        # every power rounds to 0 (0.00175 ** 300 is below 1e-800): PowerOverflow,
        # not a margin of exactly 0 read as pass
        small, twice = SpdMatrix(np.diag([1e-3])), SpdMatrix(np.diag([2e-3]))
        with pytest.raises(PowerOverflow, match="underflow"):
            check_det_root_gap(small, twice, 0.25, 0.5, 300.0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("scale", [1e100, 1e-100])
    def test_det_gaps_overflow_as_det_root_gap(self, scale, recwarn):
        # every determinant overflows (1e100) or underflows (1e-100): the three
        # determinant gap bounds raise PowerOverflow, none reads as fail or pass
        a = SpdMatrix(np.diag(scale * np.arange(1.0, 9.0)))
        b = SpdMatrix(np.diag(scale * np.array([2.0, 1.0, 5.0, 3.0, 4.0, 8.0, 6.0, 7.0])))
        with pytest.raises(PowerOverflow):
            check_det_gap(a, b, 0.25, 0.5)
        with pytest.raises(PowerOverflow):
            check_det_half_weight_gap(a, b, 0.25)
        with pytest.raises(PowerOverflow):
            check_det_root_gap(a, b, 0.25, 0.5, 8.0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_det_gap_is_det_root_gap_at_power_n(self):
        # on every default-verify det_gap draw, det_gap's margin is det_root_gap's at
        # lam = n bit for bit; the stacked check, one call per dimension, gives
        # check_det_gap's report
        cfg = RunConfig(inequality_selection=("det_gap",))
        jobs = [runner._trial_job(cfg, "det_gap", t) for t in range(cfg.trials_per_inequality)]
        by_dim = {}
        for drawn in runner._draw_block(jobs):
            by_dim.setdefault(drawn[0][0].dim, []).append(drawn)
        compared = []
        for trials in by_dim.values():
            for ((a, b), p), item in zip(trials, certifiers.stacked_det_gap(trials)):
                rep = check_det_gap(a, b, p["v"], p["tau"])
                assert (item.margins, item.tol_used) == (rep.margins, rep.tol_used)
                root = check_det_root_gap(a, b, p["v"], p["tau"], float(a.dim))
                assert rep.margins["det_gap"] == root.margins["det_root_gap"]
                compared.append(rep.tol_used == root.tol_used)
        assert len(compared) == cfg.trials_per_inequality and all(compared)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_near_singular_gap_passes_and_matches_mpmath(self, n):
        # A = B, a rank-one B - A (G_tau singular for n >= 2) and B = (1 + 1e-12) A: the
        # bound term is 0 or nearly, and each determinant id reads pass with its margin
        # within tol of 50-digit arithmetic
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        a, _ = spd_pair(21, n)
        w = SeedPath(21, 1).rng().standard_normal(n)
        pairs = {
            "equal": a,
            "rank_one": SpdMatrix(a.mat + 0.5 * np.outer(w, w)),
            "scaled": SpdMatrix((1 + 1e-12) * a.mat),
        }

        def exact(b, v, tau, lam):
            am, bm = (mp.matrix(m.mat.tolist()) for m in (a, b))

            def arith_harm(t):
                return t * am + (1 - t) * bm, mp.inverse(t * am**-1 + (1 - t) * bm**-1)

            def det(m):
                return mp.re(mp.det(m))

            v, tau = mp.mpf(v), mp.mpf(tau)
            (arith, harm), (arith_tau, harm_tau) = arith_harm(v), arith_harm(tau)
            gap = max(det(arith_tau - harm_tau), 0)  # 50-digit rounding may cross 0
            p = mp.mpf(lam) / n
            return det(arith) ** p - det(harm) ** p - (v / tau) ** lam * gap**p

        for kind, b in pairs.items():
            cases = [(check_det_root_gap(a, b, 0.3, 0.6, lam), exact(b, 0.3, 0.6, lam))
                     for lam in (1.0, 2.5)]
            cases.append((check_det_gap(a, b, 0.3, 0.6), exact(b, 0.3, 0.6, n)))
            cases.append((check_det_half_weight_gap(a, b, 0.3), exact(b, 0.3, 0.5, n)))
            for rep, want in cases:
                assert rep.verdict == "pass", (kind, rep)
                (margin,) = rep.margins.values()
                assert abs(margin - want) <= rep.tol_used, (kind, margin, want, rep.tol_used)

    def test_det_root_gap_frozen_diagonal(self):
        eye = SpdMatrix(np.eye(2))
        two = SpdMatrix(np.diag([2.0, 2.0]))
        rep = check_det_root_gap(eye, two, 0.25, 0.5, 1.0)
        assert rep.holds
        assert rep.margins["det_root_gap"] == pytest.approx(1.75 - 1.6 - 0.5 / 6, abs=1e-12)

    def test_det_root_gap_seeded(self):
        a, b = spd_pair(22, 3)
        assert check_det_root_gap(a, b, 0.2, 0.6, 2.0).holds

    def test_det_gap_equal_operands(self):
        a, _ = spd_pair(23, 3)
        rep = check_det_gap(a, a, 0.25, 0.5)
        assert rep.holds
        assert rep.margins["det_gap"] == pytest.approx(0.0, abs=rep.tol_used)

    def test_det_gap_frozen_diagonal(self):
        eye = SpdMatrix(np.eye(2))
        two = SpdMatrix(np.diag([2.0, 2.0]))
        rep = check_det_gap(eye, two, 0.25, 0.5)
        expected = 1.75**2 - 1.6**2 - 0.25 * (1.0 / 6) ** 2
        assert rep.margins["det_gap"] == pytest.approx(expected, abs=1e-12)

    def test_det_half_weight_reduces_at_half(self):
        a, b = spd_pair(24, 3)
        r1 = check_det_half_weight_gap(a, b, 0.5)
        r2 = check_det_gap(a, b, 0.5, 0.5)
        assert r1.margins["det_gap"] == pytest.approx(r2.margins["det_gap"], rel=1e-12)

    def test_det_half_weight_zero_weight(self):
        a, b = spd_pair(25, 4)
        rep = check_det_half_weight_gap(a, b, 0.0)
        assert rep.holds
        assert rep.margins["det_gap"] == pytest.approx(0.0, abs=rep.tol_used)

    def test_det_half_weight_rejects_large_weight(self):
        a, b = spd_pair(26, 2)
        with pytest.raises(ValueError):
            check_det_half_weight_gap(a, b, 0.7)


class TestWitnesses:
    def test_corrupted_mean_fails_with_witness(self, monkeypatch):
        # replacing the harmonic mean by the arithmetic one must break the
        # chain and produce a serializable witness
        monkeypatch.setattr(means, "harm_map", means.arith_map)
        a, b = spd_pair(27, 3)
        rep = check_matrix_agh(a, b, 0.4)
        assert not rep.holds and rep.verdict == "fail"
        assert rep.witness is not None
        payload = json.dumps(rep.witness)
        parsed = json.loads(payload)
        assert parsed["v"] == 0.4
        # matrices serialize as nested [re, im] pairs
        entry = parsed["A"][0][0]
        assert isinstance(entry, list) and len(entry) == 2

    def test_witness_roundtrip_reconstructs_matrix(self, monkeypatch):
        monkeypatch.setattr(means, "harm_map", means.arith_map)
        a, b = spd_pair(28, 2)
        rep = check_matrix_agh(a, b, 0.3)
        assert rep.witness is not None
        raw = np.array(rep.witness["A"])
        rebuilt = raw[..., 0] + 1j * raw[..., 1]
        np.testing.assert_array_equal(rebuilt, a.mat)
