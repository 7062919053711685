"""Margin-reporting certifiers for the arithmetic-harmonic mean inequalities.

Every certifier evaluates one inequality on concrete inputs and returns a
:class:`CertificateReport` with one named margin per inequality side.  A
margin is the amount by which the side holds (smallest eigenvalue of the
matrix difference, or the scalar difference); the inequality is certified
when every margin is at least ``-tol``.  Strict inequalities degrade to this
margin form in floating point; inputs too close to the degenerate set of a
strict inequality produce a ``degenerate`` report instead of a verdict.

Naming: the "gap" of a pair is its arithmetic-minus-harmonic difference
``A_v - H_v`` (scalar) or ``A nabla_v B - A !_v B`` (matrix).  The checks
cover, in rough order: the scalar and matrix arithmetic-geometric-harmonic
chains; two-sided bounds on ratios of powered gaps; the half-weight (tau =
1/2) specializations; curvature-based sandwiches; a one-argument spectral
cap for ordered pairs; Hilbert-Schmidt norm versions weighted by a third
matrix; and determinant versions.  Two probes confirm that stated bounds
are sharp by walking toward their limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import means
from .errors import HypothesisViolated, PowerOverflow, WeightOrder
from .linalg import (
    TOL_RATE,
    HermitianMatrix,
    OrderVerdict,
    SpdMatrix,
    default_loewner_tol,
    hs_norm,
    loewner_leq,
    order_verdict,
)
from .means import ScalarPair

#: Relative operand gap below which strict-inequality certifiers report degenerate.
NEAR_EQUAL_GUARD = 1e-8

#: Smallest eigenvalue of the tau-gap, relative to the arithmetic mean's norm,
#: below which the determinant-root bound is reported degenerate.
DET_GAP_FLOOR = 1e-10

#: Denominator floor (relative to its norm scale) for the Hilbert-Schmidt ratio.
HS_DENOMINATOR_FLOOR = 1e-8


@dataclass(frozen=True)
class CertificateReport:
    """Per-inequality verdict with named margins.

    ``holds`` is True when every margin is at least ``-tol_used``; a
    ``degenerate`` report means the inequality's hypotheses exclude the
    input (verdict not applicable, ``holds`` set True by convention).
    ``witness`` carries the serialized inputs whenever ``holds`` is False.
    """

    holds: bool
    margins: dict[str, float] = field(default_factory=dict)
    tol_used: float = 0.0
    degenerate: bool = False
    witness: dict | None = None

    def __post_init__(self):
        if not self.holds and not self.degenerate and self.witness is None:
            raise ValueError("failing report requires a witness")

    @property
    def verdict(self) -> str:
        if self.degenerate:
            return "degenerate"
        return "pass" if self.holds else "fail"


@dataclass(frozen=True)
class BoundsHypothesis:
    """Spectral bounds ``0 < m I <= . <= M I`` supplied with an ordered pair."""

    m: float
    M: float

    def __post_init__(self):
        means.check_positive("m", self.m)
        means.check_positive("M", self.M)
        if not self.m <= self.M:
            raise ValueError(f"bounds must satisfy 0 < m <= M, got m={self.m}, M={self.M}")


def matrix_payload(mat: np.ndarray) -> list:
    """Nested-list form of a complex matrix, entries as [re, im] pairs."""
    arr = np.asarray(mat, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def _serialize(value):
    if isinstance(value, HermitianMatrix):
        return matrix_payload(value.mat)
    if isinstance(value, np.ndarray):
        return matrix_payload(value)
    if isinstance(value, ScalarPair):
        return {"a": value.a, "b": value.b}
    if isinstance(value, BoundsHypothesis):
        return {"m": value.m, "M": value.M}
    if isinstance(value, (list, tuple)):
        return [float(x) for x in value]
    return float(value)


def _finish(margins: dict[str, float], tol: float, inputs: dict) -> CertificateReport:
    holds = all(m >= -tol for m in margins.values())
    witness = None if holds else {name: _serialize(v) for name, v in inputs.items()}
    return CertificateReport(holds, margins, float(tol), False, witness)


def _degenerate(tol: float) -> CertificateReport:
    return CertificateReport(True, {}, float(tol), True, None)


def _check_weight_order(v: float, tau: float, strict: bool = False):
    """Both weights in ``(0, 1)``, then ``v <= tau`` (``v < tau`` if ``strict``)."""
    means.check_weight(v, open_interval=True)
    means.check_weight(tau, open_interval=True)
    if (v >= tau) if strict else (v > tau):
        raise WeightOrder(f"requires v {'<' if strict else '<='} tau, got v={v}, tau={tau}")


def _gap_ratio_bounds(v: float, tau: float, lam: float) -> tuple[float, float]:
    """The bounds ``((v/tau)^lam, ((1-v)/(1-tau))^lam)`` on the powered-gap
    ratio, once ``0 < v < tau < 1`` and ``lam >= 1`` are checked."""
    _check_weight_order(v, tau, strict=True)
    means.check_power(lam)
    try:
        return (v / tau) ** lam, ((1 - v) / (1 - tau)) ** lam
    except OverflowError as exc:
        raise PowerOverflow(f"((1-v)/(1-tau)) ** {lam!r} exceeds double precision") from exc


# Each inequality once, elementwise in (x, y): scalar checks evaluate it at (a, b), two-sided
# matrix checks at (1, mu) and take the congruence's smallest eigenvalue, and Hilbert-Schmidt
# checks sum it (at power 2) over the (alpha_i, beta_j) grid with weights |y_ij|^2.


def _agh_sides(v: float, x, y, power: int = 1):
    """Sides ``(G^p - H^p, A^p - G^p)`` of the chain ``H_v <= G_v <= A_v``
    for ``p`` 1 or 2, a difference of squares taken as ``(G - H)(G + H)``."""
    arith, geo, harm = means.arith_map(v, x, y), means.geo_map(v, x, y), means.harm_map(v, x, y)
    if power == 1:
        return geo - harm, arith - geo
    return (geo - harm) * (geo + harm), (arith - geo) * (arith + geo)


def _gap_power(w: float, x, y, power: int):
    """``A_w^p - H_w^p`` for ``p`` 1 or 2: the gap, or the gap times ``A_w + H_w``."""
    gap = means.gap_map(w, x, y)
    return gap if power == 1 else gap * (means.arith_map(w, x, y) + means.harm_map(w, x, y))


def _gap_ratio_sides(v: float, tau: float, x, y, power: int = 1):
    """Sides of ``(v/tau)^p P_tau <= P_v <= ((1-v)/(1-tau))^p P_tau`` with
    ``P_w = A_w^p - H_w^p``, and the ``P_tau`` they compare against."""
    p_v, p_tau = _gap_power(v, x, y, power), _gap_power(tau, x, y, power)
    return p_v - (v / tau) ** power * p_tau, ((1 - v) / (1 - tau)) ** power * p_tau - p_v, p_tau


def _cap_factor(v: float, spread: float) -> float:
    """``v(1-v)(1 - spread)^2``, the one-argument gap factor."""
    return v * (1 - v) * (1 - spread) ** 2


def _gap_cap_side(v: float, spread: float, x, y):
    """Side of the cap ``A_v - H_v <= v(1-v)(1 - spread)^2 y`` for ``x <= y <= spread x``."""
    return _cap_factor(v, spread) * y - means.gap_map(v, x, y)


# ---------------------------------------------------------------------------
# scalar chain and two-sided gap bounds
# ---------------------------------------------------------------------------


def check_scalar_agh(pair: ScalarPair, v: float, tol_scale: float = 1.0) -> CertificateReport:
    """Scalar chain ``H_v <= G_v <= A_v`` (equality iff a = b)."""
    means.check_weight(v)
    gh, ag = _agh_sides(v, pair.a, pair.b)
    tol = TOL_RATE * tol_scale * (pair.a + pair.b + 1.0)
    margins = {"geo_minus_harm": gh, "arith_minus_geo": ag}
    return _finish(margins, tol, {"pair": pair, "v": v})


def check_matrix_agh(a: SpdMatrix, b: SpdMatrix, v: float, tol_scale: float = 1.0) -> CertificateReport:
    """Matrix chain ``A !_v B <= A #_v B <= A nabla_v B`` in the semidefinite order."""
    means.check_weight(v)
    pair = means.spectral_pair(a, b)
    gh, ag = _agh_sides(v, 1.0, pair.mu)
    tol = default_loewner_tol(a, b) * tol_scale
    margins = {"geo_minus_harm": pair.min_eig(gh), "arith_minus_geo": pair.min_eig(ag)}
    return _finish(margins, tol, {"A": a, "B": b, "v": v})


def check_gap_ratio(
    pair: ScalarPair, v: float, tau: float, lam: float, tol_scale: float = 1.0
) -> CertificateReport:
    """Two-sided bound on the powered-gap ratio for ``0 < v < tau < 1``:

        ``(v/tau)^lam < (A_v^lam - H_v^lam)/(A_tau^lam - H_tau^lam)
          < ((1-v)/(1-tau))^lam``.

    Near-equal operands (the ratio's 0/0 set) give a degenerate report.
    """
    lower, upper = _gap_ratio_bounds(v, tau, lam)
    tol = TOL_RATE * tol_scale * (upper + 1.0)
    if pair.is_degenerate(NEAR_EQUAL_GUARD):
        return _degenerate(tol)
    ratio = means.gap_power_ratio(v, tau, lam, pair)
    margins = {"above_lower": ratio - lower, "below_upper": upper - ratio}
    return _finish(margins, tol, {"pair": pair, "v": v, "tau": tau, "lam": lam})


def probe_gap_ratio_limits(
    v: float, tau: float, lam: float, b: float, eps_list: tuple[float, ...], tol_scale: float = 1.0
) -> tuple[list[dict], CertificateReport]:
    """Sharpness probe for the powered-gap ratio bounds.

    Evaluates the ratio at ``a = b * eps`` (approaching the upper bound) and
    ``a = b / eps`` (approaching the lower bound) for each ``eps``, reporting
    the gap to the respective bound and requiring both gap sequences to be
    non-increasing as ``eps`` decreases.  Returns one table row per
    evaluation, largest ``eps`` first, and the report.
    """
    lower, upper = _gap_ratio_bounds(v, tau, lam)
    means.check_positive("b", b)
    eps_sorted = tuple(sorted(eps_list, reverse=True))
    if not eps_sorted:
        raise ValueError("eps_list must not be empty")
    for eps in eps_sorted:
        if not (1e-12 <= eps < 1):
            raise ValueError(f"eps must lie in [1e-12, 1), got {eps}")
    rows = []
    margins: dict[str, float] = {}
    for eps in eps_sorted:
        for side, a, target in (("small_a", b * eps, upper), ("large_a", b / eps, lower)):
            ratio = means.gap_power_ratio(v, tau, lam, ScalarPair(a, b))
            gap = abs(ratio - target)
            rows.append({"v": v, "tau": tau, "lambda": lam, "b": b, "side": side,
                         "param": eps, "value": ratio, "target": target, "gap": gap})
            margins[f"{side}_gap[{eps!r}]"] = gap
    mono_tol = 1e-12 * tol_scale * (upper + 1.0)
    mono = {}
    for side in ("small_a", "large_a"):
        g = [row["gap"] for row in rows if row["side"] == side]
        mono[f"{side}_monotone"] = min((g[k] - g[k + 1] for k in range(len(g) - 1)), default=0.0)
    holds = all(m >= -mono_tol for m in mono.values())
    witness = None if holds else {
        "v": v, "tau": tau, "lam": lam, "b": b, "eps_list": [float(e) for e in eps_sorted],
    }
    return rows, CertificateReport(holds, {**margins, **mono}, mono_tol, False, witness)


def check_half_weight_gap(
    pair: ScalarPair, v: float, squared: bool = False, tol_scale: float = 1.0
) -> CertificateReport:
    """Gap bounds against the half-weight gap, both weight regimes combined:

        ``2 min(v, 1-v) (A - H) <= A_v - H_v <= 2 max(v, 1-v) (A - H)``

    where ``A``, ``H`` are the equal-weight means.  With ``squared=True``
    the same holds for squared means with factors ``4 min^2`` and ``4 max^2``.
    Above ``v = 1/2`` it is the ``tau = 1/2`` gap-ratio bound at the exact
    swap ``(v, a, b) -> (1-v, b, a)``.
    """
    means.check_weight(v, open_interval=True)
    power = 2 if squared else 1
    w, x, y = (v, pair.a, pair.b) if v <= 0.5 else (1 - v, pair.b, pair.a)
    above_lower, below_upper, _ = _gap_ratio_sides(w, 0.5, x, y, power)
    tol = TOL_RATE * tol_scale * ((pair.a + pair.b) ** power + 1.0)
    margins = {"above_lower": above_lower, "below_upper": below_upper}
    return _finish(margins, tol, {"pair": pair, "v": v, "squared": float(squared)})


def check_inverse_convexity(pair: ScalarPair, v: float, tol_scale: float = 1.0) -> CertificateReport:
    """Curvature sandwich for ``f(x) = 1/x`` on ``[a, b]`` with ``a < b``:

        ``(v(1-v)/2)(b-a)^2 (2/b^3) <= v/a + (1-v)/b - 1/(v a + (1-v) b)
          <= (v(1-v)/2)(b-a)^2 (2/a^3)``

    (the second derivative of ``1/x`` ranges over ``[2/b^3, 2/a^3]`` there).
    """
    means.check_weight(v, open_interval=True)
    a, b = pair.a, pair.b
    means.check_ordered(a, b)
    tol = TOL_RATE * tol_scale * (1 / a + 1 / b + 1.0)
    if pair.is_degenerate(NEAR_EQUAL_GUARD):
        return _degenerate(tol)
    mid = means.gap_map(v, 1 / a, 1 / b)  # A_v - H_v of the reciprocals
    coeff = 0.5 * v * (1 - v) * (b - a) ** 2
    margins = {"above_lower": mid - coeff * (2.0 / b**3), "below_upper": coeff * (2.0 / a**3) - mid}
    return _finish(margins, tol, {"pair": pair, "v": v})


def check_one_sided_gap(pair: ScalarPair, v: float, tol_scale: float = 1.0) -> CertificateReport:
    """One-argument bounds on the gap for ``0 < a < b``:

        ``v(1-v)(1 - a/b)^2 a <= A_v - H_v <= v(1-v)(1 - b/a)^2 b``.
    """
    means.check_weight(v, open_interval=True)
    a, b = pair.a, pair.b
    means.check_ordered(a, b)
    tol = TOL_RATE * tol_scale * (a + b + 1.0)
    if pair.is_degenerate(NEAR_EQUAL_GUARD):
        return _degenerate(tol)
    lower = means.gap_map(v, a, b) - _cap_factor(v, a / b) * a
    margins = {"above_lower": lower, "below_upper": _gap_cap_side(v, b / a, a, b)}
    return _finish(margins, tol, {"pair": pair, "v": v})


def probe_normalized_gap(
    v: float, t_list: tuple[float, ...], tol_scale: float = 1.0
) -> tuple[list[dict], CertificateReport]:
    """Sharpness probe for the ``v(1-v)`` factor in the one-argument bounds.

    The normalized gap ``g_v(t)`` (see :func:`meancert.means.normalized_gap`)
    satisfies ``v(1-v)/t <= g_v(t) <= v(1-v)`` for ``t > 1`` and tends to
    ``v(1-v)`` as ``t -> 1``, so the factor cannot be improved.  Reports the
    sandwich margins at each ``t`` and requires ``|g_v(t) - v(1-v)|`` to
    shrink monotonically as ``t`` decreases toward 1.  Returns one table row
    per ``t``, smallest first, and the report.
    """
    means.check_weight(v, open_interval=True)
    ts = tuple(sorted(t_list))
    if not ts:
        raise ValueError("t_list must not be empty")
    for t in ts:
        if not (np.isfinite(t) and t > 1):
            raise ValueError(f"each t must exceed 1, got {t}")
    sharp = v * (1 - v)
    tol = 1e-12 * tol_scale * (sharp + 1.0)
    rows = []
    margins: dict[str, float] = {}
    gaps = []
    for t in ts:
        g = means.normalized_gap(v, t)
        gaps.append(abs(g - sharp))
        rows.append({"v": v, "side": "t_to_1", "param": t, "value": g, "target": sharp,
                     "gap": gaps[-1]})
        margins[f"gap[{t!r}]"] = gaps[-1]
        margins[f"below_factor[{t!r}]"] = sharp - g
        margins[f"above_scaled[{t!r}]"] = g - sharp / t
    margins["gap_monotone"] = min(
        (gaps[k + 1] - gaps[k] for k in range(len(gaps) - 1)), default=0.0
    )
    checked = {k: m for k, m in margins.items() if not k.startswith("gap[")}
    holds = all(m >= -tol for m in checked.values())
    witness = None if holds else {"v": v, "t_list": [float(t) for t in ts]}
    return rows, CertificateReport(holds, margins, tol, False, witness)


# ---------------------------------------------------------------------------
# semidefinite-order versions
# ---------------------------------------------------------------------------


def check_matrix_gap_ratio(
    a: SpdMatrix, b: SpdMatrix, v: float, tau: float, tol_scale: float = 1.0
) -> CertificateReport:
    """Semidefinite-order bounds on the matrix gap for ``0 < v <= tau < 1``:

        ``(v/tau) G_tau <= G_v <= ((1-v)/(1-tau)) G_tau``

    where ``G_w = A nabla_w B - A !_w B``.
    """
    _check_weight_order(v, tau)
    pair = means.spectral_pair(a, b)
    above_lower, below_upper, _ = _gap_ratio_sides(v, tau, 1.0, pair.mu)
    tol = default_loewner_tol(a, b) * tol_scale
    margins = {"above_lower": pair.min_eig(above_lower), "below_upper": pair.min_eig(below_upper)}
    return _finish(margins, tol, {"A": a, "B": b, "v": v, "tau": tau})


def check_matrix_half_weight_gap(
    a: SpdMatrix, b: SpdMatrix, v: float, tol_scale: float = 1.0
) -> CertificateReport:
    """Half-weight specialization for ``0 < v <= 1/2``:

        ``2v (A nabla B - A ! B) <= A nabla_v B - A !_v B
          <= 2(1-v) (A nabla B - A ! B)``.
    """
    means.check_half_weight(v)
    return check_matrix_gap_ratio(a, b, v, 0.5, tol_scale)


def spread_hypothesis_verdicts(
    a: HermitianMatrix, b: SpdMatrix, bounds: BoundsHypothesis, tol: float
) -> dict[str, OrderVerdict]:
    """The four order checks of the hypothesis ``0 < mI <= A <= B <= MI``, each at ``tol``."""
    n = a.dim
    m_eye = HermitianMatrix(bounds.m * np.eye(n))
    big_eye = HermitianMatrix(bounds.M * np.eye(n))
    return {
        # the smallest eigenvalue of m I - 0 is m: no eigensolve needed
        "positive_lower_bound": order_verdict(bounds.m, tol),
        "lower_bound_leq_first": loewner_leq(m_eye, a, tol),
        "first_leq_second": loewner_leq(a, b, tol),
        "second_leq_upper_bound": loewner_leq(b, big_eye, tol),
    }


def check_spread_gap_cap(
    a: HermitianMatrix, b: SpdMatrix, v: float, bounds: BoundsHypothesis, tol_scale: float = 1.0
) -> CertificateReport:
    """One-argument cap on the matrix gap under ``0 < mI <= A <= B <= MI``:

        ``A nabla_v B - A !_v B <= v(1-v) (1 - M/m)^2 B``.

    The four hypothesis checks run first and a failing one raises
    :class:`HypothesisViolated` naming it; they bound ``A`` below by ``m I``,
    so ``A`` need not be certified.
    """
    means.check_weight(v)
    hyp_tol = default_loewner_tol(a, b) * tol_scale
    for name, verdict in spread_hypothesis_verdicts(a, b, bounds, hyp_tol).items():
        if not verdict.holds:
            raise HypothesisViolated(name, verdict.margin)
    spread = bounds.M / bounds.m
    pair = means.spectral_pair(a, b)
    margin = pair.min_eig(_gap_cap_side(v, spread, 1.0, pair.mu))
    tol = TOL_RATE * tol_scale * ((_cap_factor(v, spread) + 1.0) * hs_norm(b) + hs_norm(a) + 1.0)
    return _finish({"cap_minus_gap": margin}, tol, {"A": a, "B": b, "v": v, "bounds": bounds})


# ---------------------------------------------------------------------------
# Hilbert-Schmidt norm versions (third matrix X between the operands)
# ---------------------------------------------------------------------------


def _one_sided(a: SpdMatrix, b: SpdMatrix, x) -> means.OneSidedPair:
    """The one-sided pair of ``(A, B, X)``, with ``X`` checked invertible as
    :func:`meancert.means.x_harm` requires."""
    pair = means.one_sided_pair(a, b, x)
    means.check_invertible(pair.y)
    return pair


def _hs_scale(pair: means.OneSidedPair, v: float, maps=(means.arith_map, means.harm_map)) -> float:
    """The sum of the squared Hilbert-Schmidt norms of the one-sided means ``maps`` at ``v``."""
    return pair.weighted_sum(sum(f(v, *pair.axes) ** 2 for f in maps))


def check_hs_gap_ratio(
    a: SpdMatrix, b: SpdMatrix, x, v: float, tau: float, tol_scale: float = 1.0
) -> CertificateReport:
    """Squared-norm gap-ratio bounds for the one-sided means, ``0 < v <= tau < 1``:

        ``(v/tau)^2 <= D(v)/D(tau) <= ((1-v)/(1-tau))^2``

    where ``D(w) = ||v A X + ...||_F^2 - ||x_harm(A, B, X, w)||_F^2``.  A
    vanishing denominator ``D(tau)`` gives a degenerate report.  The margin
    tolerance is scaled by the ratio's cancellation factor (norm scale over
    ``|D(tau)|``), since that is the comparison's actual conditioning.
    """
    _check_weight_order(v, tau)
    pair = _one_sided(a, b, x)
    above, below, dden = map(pair.weighted_sum, _gap_ratio_sides(v, tau, *pair.axes, 2))
    sden = _hs_scale(pair, tau)
    if abs(dden) <= HS_DENOMINATOR_FLOOR * (sden + 1.0):
        return _degenerate(TOL_RATE * tol_scale)
    margins = {"above_lower": above / dden, "below_upper": below / dden}
    ratio = (v / tau) ** 2 + margins["above_lower"]
    tol = TOL_RATE * tol_scale * ((_hs_scale(pair, v) + abs(ratio) * sden) / abs(dden) + 1.0)
    return _finish(margins, tol, {"A": a, "B": b, "X": np.asarray(x), "v": v, "tau": tau})


def check_hs_agh_chain(
    a: SpdMatrix, b: SpdMatrix, x, v: float, tol_scale: float = 1.0
) -> CertificateReport:
    """Squared-norm chain for the one-sided means:

        ``||v A X + (1-v) X B||_F^2 >= ||A^v X B^(1-v)||_F^2
          >= ||x_harm(A, B, X, v)||_F^2``.
    """
    means.check_weight(v)
    pair = _one_sided(a, b, x)
    geo_minus_harm, arith_minus_geo = map(pair.weighted_sum, _agh_sides(v, *pair.axes, 2))
    scale = _hs_scale(pair, v, (means.arith_map, means.geo_map, means.harm_map))
    tol = TOL_RATE * tol_scale * (scale + 1.0)
    margins = {"arith_minus_geo": arith_minus_geo, "geo_minus_harm": geo_minus_harm}
    return _finish(margins, tol, {"A": a, "B": b, "X": np.asarray(x), "v": v})


def check_hs_half_weight_gap(
    a: SpdMatrix, b: SpdMatrix, x, v: float, tol_scale: float = 1.0
) -> CertificateReport:
    """Squared-norm gap against the half-weight gap, ``0 < v <= 1/2``:

        ``4 v^2 D(1/2) <= D(v) <= 4 (1-v)^2 D(1/2)``

    with ``D`` as in :func:`check_hs_gap_ratio`.
    """
    means.check_half_weight(v)
    pair = _one_sided(a, b, x)
    above_lower, below_upper, _ = map(pair.weighted_sum, _gap_ratio_sides(v, 0.5, *pair.axes, 2))
    tol = TOL_RATE * tol_scale * (_hs_scale(pair, v) + _hs_scale(pair, 0.5) + 1.0)
    margins = {"above_lower": above_lower, "below_upper": below_upper}
    return _finish(margins, tol, {"A": a, "B": b, "X": np.asarray(x), "v": v})


# ---------------------------------------------------------------------------
# determinant versions
# ---------------------------------------------------------------------------


def _det_power_difference(a: SpdMatrix, b: SpdMatrix, v: float, p: float) -> tuple[float, float]:
    """``(x^p - y^p, x^p + y^p)`` for ``x = det(A nabla_v B)``, ``y = det(A !_v B)``, from
    their logs: the difference without cancellation or inf - inf, and its tol's scale."""
    log_x, log_y = means.logdet_arith(a, b, v), means.logdet_harm(a, b, v)
    with np.errstate(over="ignore"):
        x_p = np.exp(p * log_x)
        delta = np.expm1(p * (log_y - log_x))
        diff = 0.0 if delta == 0.0 else float(-x_p * delta)
        return diff, float(x_p + np.exp(p * log_y))


def check_det_power_order(
    a: SpdMatrix, b: SpdMatrix, v: float, lam: float, tol_scale: float = 1.0
) -> CertificateReport:
    """Determinant order ``det(A !_v B)^lam <= det(A nabla_v B)^lam``.

    Computed in log-determinant space to survive ``lam``-th powers of large
    determinants.
    """
    means.check_weight(v)
    means.check_power(lam)
    margin, scale = _det_power_difference(a, b, v, lam)
    tol = TOL_RATE * tol_scale * (scale + 1.0)
    return _finish({"det_power_gap": margin}, tol, {"A": a, "B": b, "v": v, "lam": lam})


def check_minkowski_products(a_vec, b_vec, tol_scale: float = 1.0) -> CertificateReport:
    """Product inequality for positive vectors:

        ``(prod a_i)^(1/n) + (prod b_i)^(1/n) <= (prod (a_i + b_i))^(1/n)``.
    """
    av = np.asarray(a_vec, dtype=float)
    bv = np.asarray(b_vec, dtype=float)
    if av.ndim != 1 or av.shape != bv.shape or av.size < 1:
        raise ValueError("expected two positive vectors of equal nonzero length")
    for entry in (*av.tolist(), *bv.tolist()):
        means.check_positive("each vector entry", entry)
    ga = float(np.exp(np.mean(np.log(av))))
    gb = float(np.exp(np.mean(np.log(bv))))
    gs = float(np.exp(np.mean(np.log(av + bv))))
    margin = gs - ga - gb
    tol = TOL_RATE * tol_scale * (gs + ga + gb + 1.0)
    return _finish({"minkowski_gap": margin}, tol, {"a_vec": list(av), "b_vec": list(bv)})


def check_power_difference(a: float, b: float, lam: float, tol_scale: float = 1.0) -> CertificateReport:
    """Power-difference inequality ``a^lam - b^lam >= (a - b)^lam`` for ``a > b > 0``."""
    means.check_positive("a", a)
    means.check_positive("b", b)
    means.check_ordered(b, a, "b", "a")
    means.check_power(lam)
    try:
        a_lam = a**lam
        margin = a_lam - b**lam - (a - b) ** lam
    except OverflowError as exc:
        raise PowerOverflow(f"a ** {lam!r} exceeds double precision") from exc
    tol = TOL_RATE * tol_scale * (a_lam + 1.0)
    return _finish({"power_gap": margin}, tol, {"a": a, "b": b, "lam": lam})


def check_det_root_gap(
    a: SpdMatrix, b: SpdMatrix, v: float, tau: float, lam: float, tol_scale: float = 1.0
) -> CertificateReport:
    """Determinant-root lower bound on the gap, ``0 < v <= tau < 1``, ``lam >= 1``:

        ``(v/tau)^lam det(G_tau)^(lam/n)
          <= det(A nabla_v B)^(lam/n) - det(A !_v B)^(lam/n)``

    with ``G_tau`` the tau-weighted gap matrix.  A numerically singular
    ``G_tau`` (the two operands nearly equal) gives a degenerate report since
    its determinant root is then meaningless.  A power that exceeds double
    precision, or powers that all underflow to 0, raise :class:`PowerOverflow`.
    """
    _check_weight_order(v, tau)
    means.check_power(lam)
    pair = means.spectral_pair(a, b)
    gap_floor = DET_GAP_FLOOR * hs_norm(tau * a.mat + (1 - tau) * b.mat)
    if pair.min_eig(means.gap_map(tau, 1.0, pair.mu)) <= gap_floor:
        return _degenerate(TOL_RATE * tol_scale)
    margin, tol = _det_root_margin(a, b, v, tau, lam, tol_scale)
    return _finish({"det_root_gap": margin}, tol, {"A": a, "B": b, "v": v, "tau": tau, "lam": lam})


def _det_root_margin(a: SpdMatrix, b: SpdMatrix, v, tau, lam, tol_scale) -> tuple[float, float]:
    """Margin and tol of :func:`check_det_root_gap` past its degenerate guard."""
    n = a.dim
    ld_gap = means.logdet_gap(a, b, tau)
    with np.errstate(over="ignore", invalid="ignore"):
        t_gap = (v / tau) ** lam * np.exp(lam / n * ld_gap)
        diff, total = _det_power_difference(a, b, v, lam / n)
        margin, scale = diff - t_gap, total + t_gap
    if not np.isfinite(scale):
        raise PowerOverflow(f"a determinant to the power {lam!r}/{n} exceeds double precision")
    if scale == 0.0:  # every term underflowed: the margin would read 0 and pass
        raise PowerOverflow(f"every determinant to the power {lam!r}/{n} underflows to 0")
    return float(margin), TOL_RATE * tol_scale * (scale + 1.0)


def check_det_gap(
    a: SpdMatrix, b: SpdMatrix, v: float, tau: float, tol_scale: float = 1.0
) -> CertificateReport:
    """Determinant gap bound, ``0 < v <= tau < 1``:

        ``det(A !_v B) + (v/tau)^n det(G_tau) <= det(A nabla_v B)``,

    which is :func:`check_det_root_gap` at ``lam = n``, past its degenerate guard.
    """
    _check_weight_order(v, tau)
    margin, tol = _det_root_margin(a, b, v, tau, float(a.dim), tol_scale)
    return _finish({"det_gap": margin}, tol, {"A": a, "B": b, "v": v, "tau": tau})


def check_det_half_weight_gap(
    a: SpdMatrix, b: SpdMatrix, v: float, tol_scale: float = 1.0
) -> CertificateReport:
    """Half-weight determinant bound, ``0 <= v <= 1/2``:

        ``det(A !_v B) + (2v)^n det(A nabla B - A ! B) <= det(A nabla_v B)``.

    :func:`check_det_gap` at ``tau = 1/2``, which also admits the ``v = 0``
    endpoint.
    """
    means.check_half_weight(v, zero_ok=True)
    margin, tol = _det_root_margin(a, b, v, 0.5, float(a.dim), tol_scale)
    return _finish({"det_gap": margin}, tol, {"A": a, "B": b, "v": v, "tau": 0.5})
