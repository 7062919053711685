"""The spectral pair and one-sided engines against the direct-route oracles.

Every matrix-valued certifier must reproduce the direct route's margins to
within half its tolerance, and every matrix mean must agree with its
definition, on seeded instances over dims {1, 2, 4, 8, 32, 64}, condition
caps {1e2, 1e6} and weights including both endpoints and ``tau = 1/2``.
"""

import numpy as np
import pytest

import direct_oracles as direct
from meancert import (
    BoundsHypothesis,
    RunConfig,
    HermitianMatrix,
    IllConditioned,
    SpdMatrix,
    certifiers,
    logdet_spd,
    means,
    runner,
)
from meancert.sampling import (
    SeedPath,
    SpectrumSpec,
    random_invertible,
    random_ordered_pair,
    random_spd,
)

DIMS = (1, 2, 4, 8, 32, 64)
CAPS = (1e2, 1e6)
#: (v, tau, lam): both endpoints, tau = 1/2 (also with v = tau) and an interior pair.
WEIGHTS = ((0.0, 0.5, 1.0), (1.0, 0.5, 2.0), (0.3, 0.5, 1.5), (0.5, 0.5, 1.0), (0.2, 0.8, 2.5))


def _instance(n, cap):
    rng = SeedPath(6021, DIMS.index(n) * len(CAPS) + CAPS.index(cap)).rng()
    scale = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    spec = SpectrumSpec(n, scale / np.sqrt(cap), scale * np.sqrt(cap))
    a, b = random_spd(spec, rng), random_spd(spec, rng)
    x = random_invertible(n, cap, rng)
    bounds = BoundsHypothesis(scale / np.sqrt(cap), scale * np.sqrt(cap))
    lo, hi = random_ordered_pair(n, bounds.m, bounds.M, rng)
    return a, b, x, (lo, hi, bounds)


def _cases(a, b, x, ordered, v, tau, lam):
    """Certifier id -> (report, oracle margins) for every certifier whose
    domain holds (v, tau)."""
    lo, hi, bounds = ordered
    out = {
        "matrix_agh": (certifiers.check_matrix_agh(a, b, v), direct.matrix_agh_margins(a, b, v)),
        "spread_gap_cap": (
            certifiers.check_spread_gap_cap(lo, hi, v, bounds),
            direct.spread_cap_margin(lo, hi, v, bounds.m, bounds.M),
        ),
        "hs_agh_chain": (
            certifiers.check_hs_agh_chain(a, b, x, v), direct.hs_chain_margins(a, b, x, v)
        ),
        "det_power_order": (
            certifiers.check_det_power_order(a, b, v, lam), direct.det_power_margin(a, b, v, lam)
        ),
    }
    if 0 < v <= tau < 1:
        out["matrix_gap_ratio"] = (
            certifiers.check_matrix_gap_ratio(a, b, v, tau),
            direct.matrix_gap_ratio_margins(a, b, v, tau),
        )
        out["hs_gap_ratio"] = (
            certifiers.check_hs_gap_ratio(a, b, x, v, tau),
            direct.hs_gap_ratio_margins(a, b, x, v, tau),
        )
        out["det_root_gap"] = (
            certifiers.check_det_root_gap(a, b, v, tau, lam),
            direct.det_root_margin(a, b, v, tau, lam),
        )
        out["det_gap"] = (certifiers.check_det_gap(a, b, v, tau), direct.det_gap_margin(a, b, v, tau))
    if 0 < v <= 0.5:
        out["matrix_half_weight_gap"] = (
            certifiers.check_matrix_half_weight_gap(a, b, v),
            direct.matrix_gap_ratio_margins(a, b, v, 0.5),
        )
        out["hs_half_weight_gap"] = (
            certifiers.check_hs_half_weight_gap(a, b, x, v), direct.hs_half_margins(a, b, x, v)
        )
    if 0 <= v <= 0.5:
        out["det_half_weight_gap"] = (
            certifiers.check_det_half_weight_gap(a, b, v), direct.det_gap_margin(a, b, v, 0.5)
        )
    return out


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("n", DIMS)
def test_certifier_margins_match_direct_route(n, cap):
    a, b, x, ordered = _instance(n, cap)
    seen = set()
    for v, tau, lam in WEIGHTS:
        for ineq, (report, expected) in _cases(a, b, x, ordered, v, tau, lam).items():
            seen.add(ineq)
            if expected is None:
                assert report.degenerate, ineq
                continue
            assert not report.degenerate, ineq
            expected = (expected,) if isinstance(expected, float) else expected
            got = tuple(report.margins.values())
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                assert abs(g - e) <= 0.5 * report.tol_used, (ineq, v, tau, g, e)
    assert len(seen) == 11


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("n", DIMS)
def test_means_match_direct_route(n, cap):
    a, b, x, _ = _instance(n, cap)
    scale = np.linalg.norm(a.mat) + np.linalg.norm(b.mat)
    for v, _, _ in WEIGHTS:
        for name in ("mat_arith", "mat_harm", "mat_geo"):
            got = getattr(means, name)(a, b, v).mat
            want = getattr(direct, name)(a, b, v).mat
            assert np.linalg.norm(got - want) <= 1e-9 * scale, (name, v)
        for name in ("x_harm", "x_geo"):
            got = getattr(means, name)(a, b, x, v)
            want = getattr(direct, name)(a, b, x, v)
            assert np.linalg.norm(got - want) <= 1e-9 * scale, (name, v)


def test_endpoints_return_operands():
    a, b, _, _ = _instance(4, 1e2)
    for fn in (means.mat_harm, means.mat_geo):
        assert fn(a, b, 1.0) is a
        assert fn(a, b, 0.0) is b


def test_spectral_pair_reconstructs_operands():
    a, b, _, _ = _instance(8, 1e6)
    pair = means.spectral_pair(a, b)
    assert np.all(np.diff(pair.mu) <= 0) and pair.mu[-1] > 0
    tol = 1e-9 * (np.linalg.norm(a.mat) + np.linalg.norm(b.mat))
    assert np.linalg.norm(pair.congruence(np.ones(8)) - a.mat) <= tol
    assert np.linalg.norm(pair.congruence(pair.mu) - b.mat) <= tol


def test_indefinite_operands_raise_ill_conditioned():
    spd = SpdMatrix(np.diag([1.0, 2.0]))
    indefinite = HermitianMatrix(np.diag([1.0, -1.0]))
    with pytest.raises(IllConditioned):
        means.spectral_pair(indefinite, spd)
    with pytest.raises(IllConditioned):
        means.spectral_pair(spd, indefinite)
    with pytest.raises(IllConditioned):
        logdet_spd(indefinite)


@pytest.mark.parametrize("ineq", ("hs_gap_ratio", "hs_agh_chain", "hs_half_weight_gap"))
def test_hs_margins_from_drawn_decomposition_match_eig_hermitian(ineq, monkeypatch):
    # every HS trial of the default verify, first on the drawn (u, w), then on
    # operands rebuilt by the constructor, whose decomposition is eig_hermitian's
    cfg = RunConfig()
    drawn = [runner.run_trial(cfg, ineq, i) for i in range(cfg.trials_per_inequality)]
    rebuilt = classmethod(lambda cls, u, w: [cls((uk * wk) @ uk.conj().T) for uk, wk in zip(u, w)])
    monkeypatch.setattr(SpdMatrix, "from_spectra", rebuilt)
    for got in drawn:
        want = runner.run_trial(cfg, ineq, got.trial_index)
        assert got.verdict == want.verdict, got.trial_index
        for key in ("margin_lower", "margin_upper"):
            g, w = getattr(got, key), getattr(want, key)
            assert (g is None) == (w is None)
            if g is not None:
                assert abs(g - w) <= 1e-3 * want.tol, (got.trial_index, key, g, w)
