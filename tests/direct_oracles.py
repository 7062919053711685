"""Direct-route oracles for the matrix means and the matrix certifier margins.

Each mean is formed from its definition, independently of the spectral pair
engine in ``meancert.means``: eigen-inverses for the harmonic mean,
``A^(1/2) (A^(-1/2) B A^(-1/2))^(1-v) A^(1/2)`` for the geometric mean, and
separate eigendecompositions of ``A`` and ``B`` for the one-sided means.
Margins come from the smallest eigenvalue of an explicit matrix
difference, and determinants from eigenvalue log-determinants.  As in the
certifiers, only a ratio's vanishing denominator is degenerate: the
Hilbert-Schmidt ratio's margin function returns ``None`` where the certifier
reports ``degenerate``.
"""

import numpy as np

from meancert.linalg import (
    HermitianMatrix,
    SpdMatrix,
    det_hermitian,
    eig_hermitian,
    hs_norm,
    inverse,
    matrix_power,
)

HS_DENOMINATOR_FLOOR = 1e-8


def mat_arith(a, b, v):
    return SpdMatrix(v * a.mat + (1 - v) * b.mat)


def mat_harm(a, b, v):
    if v == 0:
        return b
    if v == 1:
        return a
    return inverse(SpdMatrix(v * inverse(a).mat + (1 - v) * inverse(b).mat))


def mat_geo(a, b, v):
    if v == 0:
        return b
    if v == 1:
        return a
    dec = eig_hermitian(a)
    root = dec.apply(np.sqrt(dec.eigenvalues))
    iroot = dec.apply(1.0 / np.sqrt(dec.eigenvalues))
    mid = eig_hermitian(SpdMatrix(iroot @ b.mat @ iroot))
    return SpdMatrix(root @ mid.apply(mid.eigenvalues ** (1 - v)) @ root)


def x_arith(a, b, x, v):
    return v * (a.mat @ x) + (1 - v) * (x @ b.mat)


def x_geo(a, b, x, v):
    return matrix_power(a, v).mat @ x @ matrix_power(b, 1 - v).mat


def x_harm(a, b, x, v):
    da, db = eig_hermitian(a), eig_hermitian(b)
    y = da.unitary.conj().T @ x @ db.unitary
    weights = 1.0 / (v / da.eigenvalues[:, None] + (1 - v) / db.eigenvalues[None, :])
    return da.unitary @ (weights * y) @ db.unitary.conj().T


def _min_eig(h):
    return float(np.linalg.eigvalsh(h)[0])


def _gap(a, b, w):
    return mat_arith(a, b, w).mat - mat_harm(a, b, w).mat


def matrix_agh_margins(a, b, v):
    geo, harm, arith = mat_geo(a, b, v).mat, mat_harm(a, b, v).mat, mat_arith(a, b, v).mat
    return _min_eig(geo - harm), _min_eig(arith - geo)


def matrix_gap_ratio_margins(a, b, v, tau):
    gap_v, gap_t = _gap(a, b, v), _gap(a, b, tau)
    return (
        _min_eig(gap_v - (v / tau) * gap_t),
        _min_eig(((1 - v) / (1 - tau)) * gap_t - gap_v),
    )


def spread_cap_margin(a, b, v, m, big_m):
    coeff = v * (1 - v) * (1 - big_m / m) ** 2
    return _min_eig(coeff * b.mat - _gap(a, b, v))


def _hs_gap_squared(a, b, x, w):
    na = hs_norm(x_arith(a, b, x, w)) ** 2
    nh = hs_norm(x_harm(a, b, x, w)) ** 2
    return na - nh, na + nh


def hs_gap_ratio_margins(a, b, x, v, tau):
    dnum, _ = _hs_gap_squared(a, b, x, v)
    dden, sden = _hs_gap_squared(a, b, x, tau)
    if abs(dden) <= HS_DENOMINATOR_FLOOR * (sden + 1.0):
        return None
    ratio = dnum / dden
    return ratio - (v / tau) ** 2, ((1 - v) / (1 - tau)) ** 2 - ratio


def hs_chain_margins(a, b, x, v):
    na = hs_norm(x_arith(a, b, x, v)) ** 2
    ng = hs_norm(x_geo(a, b, x, v)) ** 2
    nh = hs_norm(x_harm(a, b, x, v)) ** 2
    return na - ng, ng - nh


def hs_half_margins(a, b, x, v):
    d_v, _ = _hs_gap_squared(a, b, x, v)
    d_half, _ = _hs_gap_squared(a, b, x, 0.5)
    return d_v - 4 * v**2 * d_half, 4 * (1 - v) ** 2 * d_half - d_v


def _logdet(m):
    return float(np.sum(np.log(eig_hermitian(m).eigenvalues)))


def _power_difference(log_x, log_y, lam):
    with np.errstate(over="ignore"):
        delta = np.expm1(lam * (log_y - log_x))
        return 0.0 if delta == 0.0 else float(-np.exp(lam * log_x) * delta)


def det_power_margin(a, b, v, lam):
    ld_arith = _logdet(mat_arith(a, b, v))
    ld_harm = _logdet(mat_harm(a, b, v))
    return _power_difference(ld_arith, ld_harm, lam)


def det_root_margin(a, b, v, tau, lam):
    n = a.dim
    gap_eigs = np.linalg.eigvalsh(_gap(a, b, tau))
    ld_arith = _logdet(mat_arith(a, b, v))
    ld_harm = _logdet(mat_harm(a, b, v))
    with np.errstate(divide="ignore"):  # a singular G_tau: the bound is 0
        ld_gap = float(np.sum(np.log(np.maximum(gap_eigs, 0.0))))
    t_gap = (v / tau) ** lam * np.exp(lam / n * ld_gap)
    return _power_difference(ld_arith, ld_harm, lam / n) - t_gap


def det_gap_margin(a, b, v, tau):
    n = a.dim
    d_arith = np.exp(_logdet(mat_arith(a, b, v)))
    d_harm = np.exp(_logdet(mat_harm(a, b, v)))
    t_gap = (v / tau) ** n * det_hermitian(HermitianMatrix(_gap(a, b, tau)))
    return float(d_arith - d_harm - t_gap)
