"""Weighted arithmetic, geometric and harmonic means for scalars and matrices.

Weight convention: ``v`` always weights the *first* operand.  For scalars,

* arithmetic  ``A_v(a, b) = v a + (1 - v) b``
* harmonic    ``H_v(a, b) = (v / a + (1 - v) / b)^-1``
* geometric   ``G_v(a, b) = a^v b^(1 - v)``

and ``H_v <= G_v <= A_v`` with equality iff ``a = b``.  The matrix means
follow the same convention (``v = 1`` returns the first operand, ``v = 0``
the second, for all three), so diagonal operands reduce entrywise to the
scalar means with the same pairing.  The scalar means are the elementwise
maps below (:func:`arith_map` ...) at ``(a, b)``, and every difference
``A_v - H_v`` is :func:`gap_map`'s cancellation-free form.

Two-sided matrix means go through one simultaneous congruence, the
*spectral pair* of ``A`` and ``B`` (:func:`spectral_pair`).  With the
Cholesky factor ``A = L L*`` and the eigendecomposition
``L^-1 B L^-* = W diag(mu) W*``, the matrix ``S = L W`` gives

    ``A = S S*``  and  ``B = S diag(mu) S*``,

so every mean of the pair is ``S diag(f(mu)) S*`` for the scalar mean
``f`` of ``(1, mu_i)`` (:func:`arith_map`, :func:`harm_map`,
:func:`geo_map`, and the cancellation-free :func:`gap_map`), at any
weight.  In particular the geometric mean is
``A^(1/2) (A^(-1/2) B A^(-1/2))^(1-v) A^(1/2)`` and the harmonic mean
``(v A^-1 + (1-v) B^-1)^-1``, without forming either.  Log-determinants of
the means come from Cholesky factorizations of linear combinations of
``A`` and ``B`` instead, for a stack of pairs at once (:func:`mean_logdets`):
a small ``mu_i`` carries the eigensolver's absolute error ``eps * max(mu)``,
which a log-determinant turns into a relative one.  A Cholesky
factorization that fails, or a ``mu`` that is not positive (the
pair is beyond double precision), raises :class:`IllConditioned`; the
eigensolver's quality gates raise :class:`ConvergenceFailure`.

The one-sided ("X-weighted") means act on an arbitrary square matrix ``X``
between positive definite ``A`` (multiplying from the left) and ``B``
(multiplying from the right): each is the scalar mean evaluated on the
commuting pair of left- and right-multiplication operators, applied to
``X``.  With ``A = U diag(alpha) U*``, ``B = V diag(beta) V*`` and
``Y = U* X V`` (:func:`one_sided_pairs`, for a stack of triples at once),
the mean is ``U [f(alpha_i, beta_j) y_ij] V*``.  For the arithmetic mean
this collapses to ``v A X + (1 - v) X B``; for the geometric mean, to
``A^v X B^(1-v)``.
The harmonic mean has no such closed product form; see :func:`x_harm`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    IllConditioned,
    PowerOverflow,
    RequiresOrdered,
    Singular,
)
from .linalg import SpdMatrix, cholesky, eig_hermitian

#: Relative gap below which a scalar pair counts as degenerate for ratios (0/0 form).
RATIO_DEGENERACY_GUARD = 1e-12

# One check per kind of input; each rejects NaN.


def check_weight(v: float, open_interval: bool = False):
    """Raise ``ValueError`` unless ``v`` lies in ``[0, 1]`` (or ``(0, 1)``)."""
    if open_interval:
        if not (0 < v < 1):
            raise ValueError(f"weight must lie in the open interval (0, 1), got {v}")
    elif not (0 <= v <= 1):
        raise ValueError(f"weight must lie in [0, 1], got {v}")


def check_half_weight(v: float, zero_ok: bool = False):
    """Raise ``ValueError`` unless ``v`` lies in ``(0, 1/2]`` (``[0, 1/2]`` if ``zero_ok``)."""
    if not (0 <= v <= 0.5 and (zero_ok or v > 0)):
        raise ValueError(f"weight must lie in {'[' if zero_ok else '('}0, 1/2], got {v}")


def check_power(lam: float):
    """Raise ``ValueError`` unless the power ``lam`` is finite and at least 1."""
    if not (math.isfinite(lam) and lam >= 1):
        raise ValueError(f"power must be finite with lam >= 1, got {lam}")


def check_positive(name: str, value: float):
    """Raise ``ValueError`` unless ``value`` is a finite positive real."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive real, got {value!r}")


def check_ordered(lo: float, hi: float, x: str = "a", y: str = "b"):
    """Raise :class:`RequiresOrdered` unless ``lo < hi``, naming them ``x`` and ``y``."""
    if not lo < hi:
        raise RequiresOrdered(f"requires {x} < {y}, got {x}={lo}, {y}={hi}")


@dataclass(frozen=True)
class ScalarPair:
    """Two finite positive reals, the operands of the scalar means."""

    a: float
    b: float

    def __post_init__(self):
        check_positive("a", self.a)
        check_positive("b", self.b)

    def is_degenerate(self, rel_gap: float = RATIO_DEGENERACY_GUARD) -> bool:
        """True when the two values agree to within ``rel_gap`` relatively."""
        return abs(self.a - self.b) <= rel_gap * max(self.a, self.b)


def scalar_arith(v: float, pair: ScalarPair) -> float:
    """Weighted arithmetic mean ``v a + (1 - v) b``."""
    check_weight(v)
    return arith_map(v, pair.a, pair.b)


def scalar_harm(v: float, pair: ScalarPair) -> float:
    """Weighted harmonic mean ``(v / a + (1 - v) / b)^-1``."""
    check_weight(v)
    return harm_map(v, pair.a, pair.b)


def scalar_geo(v: float, pair: ScalarPair) -> float:
    """Weighted geometric mean ``a^v b^(1 - v)``."""
    check_weight(v)
    return float(geo_map(v, pair.a, pair.b))


def arith_harm_gap(v: float, pair: ScalarPair) -> float:
    """The difference ``A_v(a, b) - H_v(a, b)``, by :func:`gap_map` without cancellation."""
    check_weight(v)
    return gap_map(v, pair.a, pair.b)


def _log_harm_over_arith(w: float, a: float, b: float) -> tuple[float, float]:
    """``(A_w, log(H_w / A_w))``; near ``a = b`` (``H_w >= A_w / 2``) the log is
    ``log1p(-gap / A_w)``, which does not cancel."""
    s, h = arith_map(w, a, b), harm_map(w, a, b)
    return s, math.log1p(-gap_map(w, a, b) / s) if 2 * h >= s else math.log(h) - math.log(s)


def gap_power_ratio(v: float, tau: float, lam: float, pair: ScalarPair) -> float:
    """Ratio of powered arithmetic-harmonic gaps at weights ``v`` and ``tau``:

        ``(A_v^lam - H_v^lam) / (A_tau^lam - H_tau^lam)``.

    Defined for distinct positive operands; for ``0 < v < tau < 1`` and
    ``lam >= 1`` it lies strictly between ``(v/tau)^lam`` and
    ``((1-v)/(1-tau))^lam``, approaching the upper bound as ``a -> 0`` and
    the lower one as ``a -> infinity``.  Evaluated without cancellation as
    ``(A_v/A_tau)^lam expm1(lam log(H_v/A_v)) / expm1(lam log(H_tau/A_tau))``.

    Raises
    ------
    DegenerateInput
        If the operands agree to within ``RATIO_DEGENERACY_GUARD``, or the
        powered gap at ``tau`` rounds to 0 (0/0 form).
    PowerOverflow
        If ``(A_v/A_tau)^lam``, or ``(a - b)^2`` where some ``H_w >= A_w / 2``,
        exceeds double precision.
    """
    check_weight(v, open_interval=True)
    check_weight(tau, open_interval=True)
    check_power(lam)
    if pair.is_degenerate():
        raise DegenerateInput(f"operands {pair.a!r}, {pair.b!r} are numerically equal")
    try:
        s_v, log_v = _log_harm_over_arith(v, pair.a, pair.b)
        s_tau, log_tau = _log_harm_over_arith(tau, pair.a, pair.b)
        den = math.expm1(lam * log_tau)
        if den == 0:
            raise DegenerateInput(f"the powered gap at tau={tau!r}, lam={lam!r} rounds to 0")
        return (s_v / s_tau) ** lam * (math.expm1(lam * log_v) / den)
    except OverflowError as exc:
        msg = f"a gap or the mean ratio of {pair!r} ** {lam!r} exceeds double precision"
        raise PowerOverflow(msg) from exc


# ---------------------------------------------------------------------------
# elementwise scalar means: the spectral maps of both matrix engines
# ---------------------------------------------------------------------------


def arith_map(v: float, a, b):
    """Elementwise ``v a + (1 - v) b``."""
    return v * a + (1 - v) * b


def harm_map(v: float, a, b):
    """Elementwise ``(v / a + (1 - v) / b)^-1``."""
    return 1.0 / (v / a + (1 - v) / b)


def geo_map(v: float, a, b):
    """Elementwise ``a^v b^(1 - v)``."""
    return a**v * b ** (1 - v)


def gap_map(v: float, a, b):
    """Elementwise arithmetic-minus-harmonic gap ``v(1-v)(a-b)^2 / (v b + (1-v) a)``;
    :class:`PowerOverflow` where ``(a-b)^2`` overflows a Python float."""
    try:
        return v * (1 - v) * (a - b) ** 2 / (v * b + (1 - v) * a)
    except OverflowError as exc:
        raise PowerOverflow(f"(a - b) ** 2 exceeds double precision at a={a!r}, b={b!r}") from exc


# ---------------------------------------------------------------------------
# two-sided means: the spectral pair engine
# ---------------------------------------------------------------------------


def _check_dims(a: SpdMatrix, b: SpdMatrix):
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


@dataclass(frozen=True)
class SpectralPair:
    """Simultaneous congruence ``A = S S*``, ``B = S diag(mu) S*``.

    ``mu`` holds the eigenvalues of ``L^-1 B L^-*`` (non-increasing, all
    positive).  A spectral map evaluated at ``(1, mu)`` gives the diagonal
    ``d`` of a mean or gap in this congruence; the matrix itself is
    :meth:`congruence` of ``d``.
    """

    s: np.ndarray
    mu: np.ndarray

    def congruence(self, d: np.ndarray) -> np.ndarray:
        """``S diag(d) S*``, re-symmetrized after rounding."""
        m = (self.s * d) @ self.s.conj().T
        return (m + m.conj().T) / 2.0

    def min_eig(self, d: np.ndarray) -> float:
        """Smallest eigenvalue of ``S diag(d) S*``."""
        return float(np.linalg.eigvalsh(self.congruence(d))[0])


def spectral_pair(a: SpdMatrix, b: SpdMatrix) -> SpectralPair:
    """One Cholesky factorization of ``A`` and one gated eigendecomposition.

    Raises
    ------
    IllConditioned
        If the Cholesky factorization of ``A`` fails or ``mu`` is not
        positive.
    ConvergenceFailure
        If the eigendecomposition misses its quality gates.
    """
    _check_dims(a, b)
    chol = cholesky(a)
    chol_inv = np.linalg.inv(chol)
    dec = eig_hermitian(chol_inv @ b.mat @ chol_inv.conj().T)
    mu = dec.eigenvalues
    if not mu[-1] > 0:  # NaN-safe comparison
        raise IllConditioned(f"B is not numerically positive relative to A (min mu {mu[-1]:.3e})")
    return SpectralPair(chol @ dec.unitary, mu)


def mean_logdets(a: np.ndarray, b: np.ndarray, v: list, tau: list | None = None) -> list:
    """For stacks ``a``, ``b`` ``(N, n, n)``, each item's ``log det`` of ``A nabla_v B``, of
    ``A !_v B`` (``det A det B / det(v B + (1-v) A)``) and, with ``tau``, of ``A nabla_tau B
    - A !_tau B = tau (1-tau) (A - B) (tau B + (1-tau) A)^-1 (A - B)`` (``-inf`` if ``A - B``
    is singular), or its first failed factorization's error: one stacked call per term."""
    w = np.array(v)[:, None, None]
    terms = [w * a + (1 - w) * b, a, b, w * b + (1 - w) * a]
    if tau is not None:
        t = np.array(tau)[:, None, None]
        terms.insert(0, t * b + (1 - t) * a)
        logabs = np.linalg.slogdet(a - b)[1].tolist()
    n, out = a.shape[-1], []
    for k, logs in enumerate(zip(*map(linalg.logdets_spd, terms))):
        *gap, arith, log_a, log_b, den = logs
        error = next((x for x in logs if isinstance(x, Exception)), None)
        gaps = (n * np.log(tau[k] * (1 - tau[k])) + 2.0 * logabs[k] - g for g in gap)
        out.append(error or (arith, log_a + log_b - den, *gaps))
    return out


def _two_sided(a: SpdMatrix, b: SpdMatrix, v: float, spectral_map) -> SpdMatrix:
    _check_dims(a, b)
    check_weight(v)
    if v == 0:
        return b
    if v == 1:
        return a
    pair = spectral_pair(a, b)
    return SpdMatrix(pair.congruence(spectral_map(v, 1.0, pair.mu)))


def mat_arith(a: SpdMatrix, b: SpdMatrix, v: float) -> SpdMatrix:
    """Weighted arithmetic mean ``v A + (1 - v) B``.

    Formed directly: it is linear, so the congruence would only add work.
    """
    _check_dims(a, b)
    check_weight(v)
    return SpdMatrix(v * a.mat + (1 - v) * b.mat)


def mat_harm(a: SpdMatrix, b: SpdMatrix, v: float) -> SpdMatrix:
    """Weighted harmonic mean ``(v A^-1 + (1 - v) B^-1)^-1 = S diag(H_v(1, mu)) S*``.

    Endpoint weights return the corresponding operand exactly (the means
    extend to ``v in {0, 1}`` by continuity).
    """
    return _two_sided(a, b, v, harm_map)


def mat_geo(a: SpdMatrix, b: SpdMatrix, v: float) -> SpdMatrix:
    """Weighted geometric mean ``A^(1/2) (A^(-1/2) B A^(-1/2))^(1-v) A^(1/2)``,
    evaluated as ``S diag(mu^(1-v)) S*``.

    The exponent ``1 - v`` keeps the weight on the first operand, matching
    :func:`mat_arith` and :func:`mat_harm`: ``v = 1`` gives ``A``, ``v = 0``
    gives ``B``, and diagonal operands reduce to ``a_i^v b_i^(1-v)``.
    """
    return _two_sided(a, b, v, geo_map)


# ---------------------------------------------------------------------------
# one-sided means
# ---------------------------------------------------------------------------


def _check_x(a: SpdMatrix, b: SpdMatrix, x) -> np.ndarray:
    xm = linalg._as_array(x)
    if xm.shape[0] != a.dim or a.dim != b.dim:
        raise DimensionMismatch(
            f"dimension mismatch: A is {a.dim}, B is {b.dim}, X is {xm.shape[0]}"
        )
    return xm


def singular_errors(x: np.ndarray) -> list:
    """For a stack ``x`` ``(N, n, n)``, each matrix's :class:`Singular` unless it is
    numerically invertible (else None), from one stacked ``svd``.  ``Y = U* X V`` of a
    :class:`OneSidedPair` has the singular values of ``X``, so either may be checked."""
    sv = np.linalg.svd(x, compute_uv=False)
    message = "X is numerically singular (smallest singular value {:.3e})"
    return [Singular(message.format(lo)) if lo <= linalg.PIVOT_THRESHOLD * max(1.0, hi) else None
            for hi, lo in zip(sv[:, 0].tolist(), sv[:, -1].tolist())]


@dataclass(frozen=True)
class OneSidedPair:
    """Stacks of ``A = U diag(alpha) U*`` on the left, ``B = V diag(beta) V*`` on the
    right, ``Y = U* X V`` and its entrywise ``|Y|^2``.

    A spectral map evaluated at :attr:`axes` gives each grid ``f(alpha_i, beta_j)`` of a
    one-sided mean; :meth:`apply` assembles ``U [f_ij y_ij] V*``, and :meth:`weighted_sum`
    of ``f^2`` is its squared Hilbert-Schmidt norm ``sum f_ij^2 |y_ij|^2``.
    """

    u: np.ndarray
    alpha: np.ndarray
    v: np.ndarray
    beta: np.ndarray
    y: np.ndarray
    y2: np.ndarray

    @property
    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """``alpha`` as a column and ``beta`` as a row of each item, broadcasting to the grids."""
        return self.alpha[:, :, None], self.beta[:, None, :]

    def apply(self, grid: np.ndarray) -> np.ndarray:
        return self.u @ (grid * self.y) @ self.v.conj().swapaxes(-1, -2)

    def weighted_sum(self, grid: np.ndarray) -> list:
        """Each item's ``sum_ij grid_ij |y_ij|^2``, summed as ``np.sum`` sums the item alone."""
        return (grid * self.y2).reshape(len(self.y2), -1).sum(axis=-1).tolist()


def one_sided_pairs(a: list, b: list, x: np.ndarray) -> OneSidedPair:
    """The one-sided pairs of ``a``, ``b`` and a stack ``x``, from each :attr:`SpdMatrix.eig`
    (the drawn decomposition, if sampled), with ``Y = U* X V`` one stacked product."""
    u, v = (np.array([m.eig.unitary for m in ms]) for ms in (a, b))
    y = u.conj().swapaxes(-1, -2) @ x @ v
    alpha, beta = (np.array([m.eig.eigenvalues for m in ms]) for ms in (a, b))
    return OneSidedPair(u, alpha, v, beta, y, np.abs(y) ** 2)


def x_arith(a: SpdMatrix, b: SpdMatrix, x, v: float) -> np.ndarray:
    """One-sided weighted arithmetic mean ``v A X + (1 - v) X B``.

    Generally non-Hermitian; no Hermitization is applied.
    """
    xm = _check_x(a, b, x)
    check_weight(v)
    return v * (a.mat @ xm) + (1 - v) * (xm @ b.mat)


def x_geo(a: SpdMatrix, b: SpdMatrix, x, v: float) -> np.ndarray:
    """One-sided weighted geometric mean ``A^v X B^(1 - v)``."""
    check_weight(v)
    pair = one_sided_pairs([a], [b], _check_x(a, b, x)[None])
    return pair.apply(geo_map(v, *pair.axes))[0]


def x_harm(a: SpdMatrix, b: SpdMatrix, x, v: float) -> np.ndarray:
    """One-sided weighted harmonic mean of ``A`` (left) and ``B`` (right) on ``X``.

    With ``A = U diag(mu) U*``, ``B = V diag(nu) V*`` and ``Y = U* X V``, this is

        ``U [ (v / mu_i + (1 - v) / nu_j)^-1 y_ij ] V*``

    i.e. the scalar harmonic mean evaluated on the commuting pair of left- and
    right-multiplication operators and applied to ``X`` (well defined: the
    weights are constant on eigenvalue multiplicity blocks).  At ``v = 0`` it
    equals ``X B`` and at ``v = 1`` it equals ``A X``, mirroring
    :func:`x_arith`.  Note the superficially natural closed form
    ``[v (A X)^-1 + (1 - v) (X B)^-1]^-1`` is a *different* matrix for
    non-commuting operands and does not stay below the arithmetic combination
    in Hilbert-Schmidt norm; the test suite pins the distinction.

    Raises
    ------
    Singular
        If ``X`` is not numerically invertible (this mean participates in
        comparisons that require an invertible ``X``).
    """
    check_weight(v)
    pair = one_sided_pairs([a], [b], _check_x(a, b, x)[None])
    linalg._raised(singular_errors(pair.y)[0])
    return pair.apply(harm_map(v, *pair.axes))[0]


def normalized_gap(v: float, t: float) -> float:
    """The arithmetic-harmonic gap of ``(1, t)`` scaled by ``(1 - t)^-2``:

        ``g_v(t) = [v + (1-v) t - (v + (1-v)/t)^-1] / (1 - t)^2``.

    Evaluated through the exact identity ``g_v(t) = v (1-v) / (v t + 1 - v)``,
    since the defining quotient is 0/0 at ``t = 1`` and loses all precision
    nearby.  For ``t > 1``: ``v(1-v)/t < g_v(t) < v(1-v)``, and
    ``g_v(t) -> v(1-v)`` as ``t -> 1``.
    """
    check_weight(v, open_interval=True)
    check_positive("t", t)
    return v * (1 - v) / (v * t + 1 - v)
