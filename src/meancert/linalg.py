"""Dense complex Hermitian linear algebra for matrices of order up to ~64.

Conventions used throughout the package:

* A *complex matrix* is a square ``complex128`` ndarray with finite entries;
  :func:`complex_matrix` validates and normalizes arbitrary input.
* :class:`HermitianMatrix` stores its entries in exactly conjugate-symmetric
  form (the constructor replaces ``M`` by ``(M + M*)/2``).
* :class:`SpdMatrix` is a Hermitian matrix certified positive definite at
  construction, from an eigensolve or from the spectrum it was built from
  (:meth:`SpdMatrix.from_spectra`, a stack of them at once); every operation
  that needs invertibility takes one.
* Eigenvalues are reported in non-increasing order everywhere.

All operations are pure functions of their arguments and all carriers are
immutable after construction, so everything here is safe to use from
multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    IllConditioned,
    MeanCertError,
    NotPositiveDefinite,
)

#: Unitarity defect allowance for eigenvector matrices: ||U U* - I||_F <= UNITARITY_TOL * n.
UNITARITY_TOL = 1e-12

#: Reconstruction allowance: ||A - U diag(w) U*||_F <= RECONSTRUCTION_TOL * max(1, ||A||_F).
RECONSTRUCTION_TOL = 1e-10

#: Positive-definiteness gate: smallest eigenvalue must exceed this times ||A||_F.
SPD_MIN_EIG_FACTOR = 1e-12

#: Unit roundoff scale of float64, for the rounding term of :class:`SpdMatrix`'s bound.
EPS = float(np.finfo(np.float64).eps)

#: Base rate of every tolerance: ``TOL_RATE * tol_scale * s``, with a scale
#: ``s >= 1`` mostly from the operands (``a + b + 1``, :func:`default_loewner_tol`).
TOL_RATE = 1e-9

#: Invertibility threshold of :func:`meancert.means.check_invertible`: the
#: smallest singular value, relative to the largest (at least 1).
PIVOT_THRESHOLD = 1e-14

#: Condition-number cap for the SPD :func:`inverse`.
DEFAULT_COND_CAP = 1e14


def complex_matrix(entries) -> np.ndarray:
    """Validate ``entries`` as a square complex matrix and return a read-only copy.

    Raises
    ------
    ValueError
        If the input is not square, is empty, or contains non-finite entries.
    """
    mat = np.array(entries, dtype=np.complex128, copy=True)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
        raise ValueError("matrix entries must be finite")
    mat.setflags(write=False)
    return mat


def _as_array(m) -> np.ndarray:
    """Accept an ndarray-like or a Hermitian/SPD carrier and return the ndarray."""
    if isinstance(m, HermitianMatrix):
        return m.mat
    return complex_matrix(m)


class HermitianMatrix:
    """Square complex matrix stored in exactly conjugate-symmetric form.

    The constructor symmetrizes: the stored matrix is ``(M + M*)/2``, so
    ``mat[i, j] == conj(mat[j, i])`` holds exactly as stored.
    """

    __slots__ = ("mat",)

    def __init__(self, entries):
        mat = complex_matrix(entries)
        mat = (mat + mat.conj().T) / 2.0
        mat.setflags(write=False)
        self.mat = mat

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(dim={self.dim})"


class SpdMatrix(HermitianMatrix):
    """Hermitian matrix certified positive definite at construction, from a
    gated eigendecomposition: ``eigh``'s of the entries, or the spectrum it
    was built from (:meth:`from_spectra`), kept as :attr:`eig` with its
    eigenvalues non-increasing.

    ``min_eig`` is a proven lower bound on the smallest eigenvalue.  Unless
    it exceeds ``SPD_MIN_EIG_FACTOR * ||A||_F`` (every downstream use assumes
    a stable inverse exists), construction raises :class:`NotPositiveDefinite`;
    a decomposition that fails or misses :func:`eig_hermitian`'s quality
    gates raises :class:`ConvergenceFailure`.  Both constructors certify
    through one stacked step, :func:`_certificates`, here on a stack of one.
    """

    __slots__ = ("min_eig", "eig")

    def __init__(self, entries):
        super().__init__(entries)
        u, w, product = _eigh(self.mat)
        self.min_eig, self.eig = _raised(
            _certificates(self.mat[None], u[None], w[None], product[None])[0]
        )

    @classmethod
    def from_spectrum(cls, u, w) -> SpdMatrix:
        """``U diag(w) U*`` for a unitary ``u`` and a real spectrum ``w`` (in any
        order): :meth:`from_spectra` of a stack of one, raising its error."""
        u = np.asarray(u, dtype=np.complex128)
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 1 or u.shape != (w.size, w.size):
            raise DimensionMismatch(f"expected n x n and n values, got {u.shape}, {w.shape}")
        return _raised(cls.from_spectra(u[None], w[None])[0])

    @classmethod
    def from_spectra(cls, u, w) -> list:
        """``U_k diag(w_k) U_k*`` for a stack of unitaries ``u`` ``(N, n, n)``
        and real spectra ``w`` ``(N, n)`` (each in any order), each certified
        from its ``(u_k, w_k)`` rather than by an eigensolve.

        Returns one entry per item: its matrix, or the :class:`ConvergenceFailure`
        or :class:`NotPositiveDefinite` it raises alone.  Each stored matrix is
        the product as formed, symmetrized as the constructor does; the
        stacked products, gates and bounds equal the per-matrix ones bit for
        bit, so an item's matrix does not depend on the stack it is formed in.
        """
        u = np.asarray(u, dtype=np.complex128)
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] < 1 or u.shape != (*w.shape, w.shape[1]):
            raise DimensionMismatch(
                f"expected N x n x n and N x n values, got {u.shape}, {w.shape}"
            )
        product = (u * w[:, None, :]) @ u.conj().swapaxes(-1, -2)
        mats = _read_only((product + product.conj().swapaxes(-1, -2)) / 2.0)
        out = []
        for mat, cert in zip(mats, _certificates(mats, u, w, product)):
            if isinstance(cert, MeanCertError):
                out.append(cert)
                continue
            self = cls.__new__(cls)
            self.mat, (self.min_eig, self.eig) = mat, cert
            out.append(self)
        return out


def _raised(item):
    """``item``, unless it is an error: then raise it."""
    if isinstance(item, Exception):
        raise item
    return item


def _or_error(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the error it raises, held for its trial's turn."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


def _certificates(mats, u, w, products) -> list:
    """Each item's ``(min_eig, eig)`` for a stack of decompositions ``(u, w)``
    of ``mats`` (in any order), with ``products`` the formed ``U diag(w) U*``,
    or the error of the first gate it misses.

    ``(u, w)`` must pass :func:`eig_hermitian`'s quality gates against
    ``mat``.  ``min_eig`` is the lower bound ``(1 - defect) min(w) - resid
    - (n + 2) eps max(w)``: by Ostrowski's theorem the eigenvalues of the
    exact ``U W U*`` are ``theta w_k`` with ``theta >= sigma_min(U)^2 >= 1 -
    defect``, and by Weyl's ``mat`` moves them by at most ``resid`` plus
    the rounding of the product and of ``defect``, ``(n + 2) eps max(w)``
    to first order (one rounding per term of a length-``n`` inner product).
    It must exceed ``SPD_MIN_EIG_FACTOR * ||mat||_F``.  ``eig`` is ``(u, w)``
    sorted non-increasing.
    """
    defect, resid, norm, errors = _quality_gates(mats, u, products)
    lower = (1.0 - defect) * w.min(axis=-1) - resid - (w.shape[-1] + 2) * EPS * w.max(axis=-1)
    gate = SPD_MIN_EIG_FACTOR * norm
    order = np.argsort(-w, axis=-1, kind="stable")
    out = []
    for k, error in enumerate(errors):
        if error is None and not lower[k] > gate[k]:  # NaN-safe comparison
            error = NotPositiveDefinite(
                f"matrix is not positive definite: min eigenvalue bound {lower[k]:.3e} "
                f"does not exceed the gate {gate[k]:.3e}"
            )
        if error is not None:
            out.append(error)
            continue
        o = order[k]
        eig = EigenDecomposition(_read_only(u[k][:, o]), _read_only(w[k][o]))
        out.append((float(lower[k]), eig))
    return out


@dataclass(frozen=True)
class EigenDecomposition:
    """Unitary factor and real spectrum of a Hermitian matrix.

    ``eigenvalues`` are sorted non-increasing; column ``unitary[:, k]`` is the
    eigenvector for ``eigenvalues[k]``.
    """

    unitary: np.ndarray
    eigenvalues: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Assemble ``U diag(values) U*`` for per-eigenvalue ``values``."""
        return (self.unitary * values) @ self.unitary.conj().T


@dataclass(frozen=True)
class OrderVerdict:
    """Result of a semidefinite-order comparison.

    ``margin`` is the smallest eigenvalue of the difference; the comparison
    holds iff ``margin >= -tol_used``.
    """

    holds: bool
    margin: float
    tol_used: float


def eig_hermitian(h: HermitianMatrix) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix with verified quality gates.

    Returns eigenvalues sorted non-increasing with a unitary whose defect
    ``||U U* - I||_F`` is at most ``UNITARITY_TOL * n`` and whose
    reconstruction error ``||A - U diag(w) U*||_F`` is at most
    ``RECONSTRUCTION_TOL * max(1, ||A||_F)``.  Deterministic for identical
    input.

    Raises
    ------
    ConvergenceFailure
        If the underlying solver fails or either quality gate is violated.
    """
    if not isinstance(h, HermitianMatrix):
        h = HermitianMatrix(h)
    u, w, product = _eigh(h.mat)
    _raised(_quality_gates(h.mat[None], u[None], product[None])[3][0])
    return EigenDecomposition(unitary=_read_only(u), eigenvalues=_read_only(w))


def _eigh(mat: np.ndarray) -> tuple:
    """``(u, w, U diag(w) U*)`` from ``eigh`` of ``mat``, ``w`` non-increasing and
    both contiguous copies; a failed solve raises :class:`ConvergenceFailure`."""
    try:
        w, u = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    w, u = w[::-1].copy(), u[:, ::-1].copy()
    return u, w, (u * w) @ u.conj().T


def _quality_gates(mats: np.ndarray, u: np.ndarray, products: np.ndarray) -> tuple:
    """Each item's ``defect``, ``resid`` and ``||mat||_F`` for a stack of
    decompositions ``(u, w)`` of ``mats``, with ``products`` the formed
    ``U diag(w) U*``, and its :class:`ConvergenceFailure` for the first of
    :func:`eig_hermitian`'s quality gates it misses (None if it passes both)."""
    n = mats.shape[-1]
    defect = _frobenius(u @ u.conj().swapaxes(-1, -2) - np.eye(n))
    resid = _frobenius(mats - products)
    norm = _frobenius(mats)
    bound = RECONSTRUCTION_TOL * np.fmax(1.0, norm)  # fmax: max(1.0, nan) is 1.0
    unitary = defect <= UNITARITY_TOL * n  # NaN-safe comparisons
    passed = unitary & (resid <= bound)
    errors = [None] * len(mats)
    for k in () if passed.all() else np.flatnonzero(~passed):
        errors[k] = ConvergenceFailure(
            f"unitarity defect {defect[k]:.3e} exceeds {UNITARITY_TOL * n:.3e}" if not unitary[k]
            else f"reconstruction error {resid[k]:.3e} exceeds {bound[k]:.3e}"
        )
    return defect, resid, norm, errors


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a C-contiguous stack, as
    ``np.linalg.norm`` forms it, bit for bit: ``sqrt(re.re + im.im)`` over
    the flattened entries, each product one BLAS dot."""
    flat = x.reshape(len(x), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0, 0])


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def matrix_power(p: SpdMatrix, r: float) -> SpdMatrix:
    """Real power ``P^r`` of a positive definite matrix via its spectrum.

    ``r = 0`` returns the identity, ``r = 1`` returns ``P`` itself, and
    ``r = -1`` agrees with :func:`inverse` up to rounding.
    """
    if not np.isfinite(r):
        raise ValueError("exponent must be finite")
    if r == 0:
        return SpdMatrix(np.eye(p.dim))
    if r == 1:
        return p
    dec = eig_hermitian(p)
    return SpdMatrix(dec.apply(dec.eigenvalues**r))


def inverse(p: SpdMatrix, cond_cap: float = DEFAULT_COND_CAP) -> SpdMatrix:
    """Inverse of a positive definite matrix via its eigendecomposition.

    The residual ``||P P^-1 - I||_F`` stays within a small multiple of
    ``n * kappa(P)`` machine epsilons (exercised by the test suite).

    Raises
    ------
    IllConditioned
        If the estimated condition number exceeds ``cond_cap``.
    """
    dec = eig_hermitian(p)
    w = dec.eigenvalues
    cond = float(w[0] / w[-1])
    if cond > cond_cap:
        raise IllConditioned(f"condition number {cond:.3e} exceeds cap {cond_cap:.3e}")
    return SpdMatrix(dec.apply(1.0 / w))


def loewner_leq(a: HermitianMatrix, b: HermitianMatrix, tol: float | None = None) -> OrderVerdict:
    """Decide ``A <= B`` in the semidefinite order, reporting the margin.

    The margin is the smallest eigenvalue of ``B - A``; the verdict holds iff
    it is at least ``-tol``.  When ``tol`` is omitted,
    :func:`default_loewner_tol` supplies it.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")
    if tol is None:
        tol = default_loewner_tol(a, b)
    diff = b.mat - a.mat
    return order_verdict(float(np.linalg.eigvalsh(diff)[0]), tol)


def order_verdict(margin: float, tol: float) -> OrderVerdict:
    """The verdict rule of :func:`loewner_leq` for a margin already known,
    such as ``m`` for ``0 <= m I``: it holds iff ``margin >= -tol``."""
    return OrderVerdict(holds=margin >= -tol, margin=float(margin), tol_used=float(tol))


def default_loewner_tol(a: HermitianMatrix, b: HermitianMatrix) -> float:
    """Default comparison tolerance, scaled to the operands' norms."""
    return TOL_RATE * (float(np.linalg.norm(a.mat)) + float(np.linalg.norm(b.mat)) + 1.0)


def hs_norm(m) -> float:
    """Hilbert-Schmidt (Frobenius) norm: sqrt of the sum of squared moduli."""
    return float(np.linalg.norm(_as_array(m)))


def cholesky(m) -> np.ndarray:
    """Lower Cholesky factor ``L`` of a Hermitian positive definite ``M = L L*``.

    Raises
    ------
    IllConditioned
        If the factorization fails in double precision.
    """
    try:
        return np.linalg.cholesky(_as_array(m))
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"Cholesky factorization failed: {exc}") from exc


def logdet_spd(p) -> float:
    """Natural log of the determinant of a positive definite matrix (carrier
    or array), twice the sum of the logs of its Cholesky diagonal.

    Accurate relative to the determinant even where the smallest
    eigenvalues carry a large relative error.  Overflow-safe route for
    powers and products of determinants: combine log-dets and exponentiate
    once.
    """
    return 2.0 * float(np.sum(np.log(cholesky(p).diagonal().real)))


def logdets_spd(mats: np.ndarray) -> list:
    """:func:`logdet_spd` of each finite matrix of a stack ``(N, n, n)``, with its bits, by one
    stacked Cholesky factorization; where that fails, of each alone, or the error it raises."""
    try:
        diag = np.diagonal(np.linalg.cholesky(mats), axis1=-2, axis2=-1).real
    except np.linalg.LinAlgError:
        return [_or_error(logdet_spd, m) for m in mats]
    return (2.0 * np.sum(np.log(diag), axis=-1)).tolist()


def det_hermitian(h: HermitianMatrix) -> float:
    """Determinant of a Hermitian matrix with sign tracking in log space."""
    w = np.linalg.eigvalsh(h.mat)
    if np.any(w == 0.0):
        return 0.0
    sign = float(np.prod(np.sign(w)))
    return sign * float(np.exp(np.sum(np.log(np.abs(w)))))
