"""Seeded, reproducible instance generators for the certifier families.

Every generator accepts either a :class:`SeedPath` or an already-derived
``numpy.random.Generator``.  A SeedPath fully determines every draw of a
trial: the same ``(master_seed, trial_index)`` reproduces bit-identical
instances on any schedule, so trials can run on any worker in any order.

Matrix operands are made in two steps, so that a block of trials can share
the LAPACK and certification calls: :func:`draw_spd` and
:func:`draw_invertible` take a trial's randoms from its generator, in the
order the one-step samplers take them, and return a :class:`MatrixDraw`;
:func:`form_operands` then forms every draw of a block, one stacked QR
(:func:`random_unitaries`) and one stacked certificate
(:meth:`SpdMatrix.from_spectra`) per kind and dimension, in stacks cut by
:func:`in_stacks`, the rule the runner's stacked checks share.  Each item of a
stack equals its per-matrix computation bit for bit, so an operand does not
depend on the block it was formed in.  Above dimension 45, where a stack
would hold one operand, the draw forms it at once.  :func:`random_spd` and
:func:`random_invertible` are the two steps on a block of one.  No draw
makes an eigensolve: :func:`random_ordered_pair` forms its pair at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .certifiers import BoundsHypothesis
from .errors import MeanCertError
from .linalg import EPS, HermitianMatrix, SpdMatrix
from .means import ScalarPair, check_positive

#: Relative interior guard of an ordered pair's two spectra, ``B``'s in
#: ``[m, M]`` and ``C``'s in ``[0, 1]``, so that the hypothesis holds at zero
#: tolerance despite rounding (see random_ordered_pair).
ORDERED_SPECTRUM_GUARD = 1e-6

DISTRIBUTIONS = ("log-uniform", "clustered")

#: :func:`sample_params` draws weights in ``WEIGHT_INTERVAL`` (``v < tau`` at
#: least ``WEIGHT_SEP`` apart) and a scalar pair with one operand log-uniform
#: in ``SCALE_RANGE`` and the two at least ``MIN_REL_SEPARATION`` (relative) apart.
WEIGHT_INTERVAL = (0.02, 0.98)
WEIGHT_SEP = 0.05
SCALE_RANGE = (0.1, 10.0)
MIN_REL_SEPARATION = 0.1


@dataclass(frozen=True)
class SeedPath:
    """Addresses one trial's randomness: ``(master_seed, trial_index)``."""

    master_seed: int
    trial_index: int

    def __post_init__(self):
        if self.master_seed < 0 or self.trial_index < 0:
            raise ValueError("seed components must be non-negative integers")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng((self.master_seed, self.trial_index))


@dataclass(frozen=True)
class SpectrumSpec:
    """Requested spectrum for a random positive definite matrix."""

    dim: int
    min_eig: float
    max_eig: float
    distribution: str = "log-uniform"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")
        check_positive("min_eig", self.min_eig)
        check_positive("max_eig", self.max_eig)
        if not self.min_eig <= self.max_eig:
            raise ValueError(f"need min_eig <= max_eig, got {self.min_eig}, {self.max_eig}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, SeedPath):
        return seed.rng()
    raise TypeError(f"expected SeedPath or Generator, got {type(seed).__name__}")


def _gaussian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A complex Gaussian ``dim x dim`` matrix: the real part's draws, then the imaginary part's."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack of complex Gaussian matrices ``z`` ``(N, n, n)``:
    one stacked QR, then each ``Q`` times the phases of its ``R`` diagonal
    (Mezzadri, "How to generate random matrices from the classical compact
    groups", Notices AMS 2007).

    The phase fixing makes each unitary a deterministic function of its
    Gaussian draw, and the stacked QR gives each item the bits of a QR of that
    item alone.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(dim: int, seed) -> np.ndarray:
    """A Haar unitary: :func:`random_unitaries` of one Gaussian draw."""
    return random_unitaries(_gaussian(dim, _rng(seed))[None])[0]


class MatrixDraw(NamedTuple):
    """The randoms of one matrix operand, taken in its trial's order:
    ``values`` (a spectrum or singular values), then one complex Gaussian per
    unitary factor.  One Gaussian makes ``U diag(values) U*``, certified
    positive definite; two make ``U diag(values) V*``.  :func:`form_operands`
    forms it."""

    values: np.ndarray
    gaussians: tuple


def _draw_spectrum(spec: SpectrumSpec, rng: np.random.Generator) -> np.ndarray:
    lo, hi = spec.min_eig, spec.max_eig
    if lo == hi:
        return np.full(spec.dim, lo)
    if spec.distribution == "log-uniform":
        return np.exp(rng.uniform(np.log(lo), np.log(hi), size=spec.dim))
    # clustered: a few log-uniform centers with small relative jitter
    k = max(1, spec.dim // 3)
    centers = np.exp(rng.uniform(np.log(lo), np.log(hi), size=k))
    picks = centers[rng.integers(0, k, size=spec.dim)]
    jitter = 1 + 1e-3 * rng.uniform(-1, 1, size=spec.dim)
    return np.clip(picks * jitter, lo, hi)


def draw_spd(spec: SpectrumSpec, seed):
    """The randoms of :func:`random_spd`: a spectrum per ``spec``, then a
    unitary's Gaussian, as a :class:`MatrixDraw`; above dimension 45 the
    matrix they form."""
    rng = _rng(seed)
    w = _draw_spectrum(spec, rng)
    return _deferred(MatrixDraw(w, (_gaussian(spec.dim, rng),)))


def random_spd(spec: SpectrumSpec, seed) -> SpdMatrix:
    """Random positive definite matrix with spectrum drawn per ``spec``,
    conjugated by a random unitary: certified from the drawn ``(u, w)``
    (:meth:`SpdMatrix.from_spectra`), which it carries as its decomposition."""
    return _formed(draw_spd(spec, seed))


def random_ordered_pair(dim: int, m: float, M: float, seed) -> tuple[HermitianMatrix, SpdMatrix]:
    """Ordered pair with ``m I <= A <= B <= M I``, exact at zero tolerance.

    With ``F = U diag(sqrt(w - m))`` and ``C = V diag(c) V*``, the pair is
    ``B = U diag(w) U*`` and ``A = m I + F C F*``, so that ``A - m I = F C F*``,
    ``B - A = F (I - C) F*`` and ``M I - B = U diag(M - w) U*``.  With
    ``g = ORDERED_SPECTRUM_GUARD``, ``c`` lies in ``[g, 1 - g]``: near 0
    (``A`` near ``m I``), near 1 (``A`` near ``B``) or uniform, a third
    each.  ``w`` is log-uniform at least ``g m`` above ``m`` and ``g M``
    below ``M`` (a quarter of the band ``M - m`` where that is less), so
    the three differences are at least ``g (min(w) - m)``; the floor of
    ``w`` keeps that above ``R = (n + 2) eps M``, the rounding of a formed
    entry.  Where the band is too narrow for that (``g (M - m) / 4 <= R``,
    as at ``m == M``) the pair is ``A = B = m I``.  ``B`` is certified from
    ``(U, w)`` (:meth:`SpdMatrix.from_spectrum`); ``A``, positive definite by
    construction, is a :class:`HermitianMatrix` that the certifier checks.
    Every random is drawn up front, ``U`` and ``V`` from one stacked
    :func:`random_unitaries`; no order is checked and no eigensolve made.

    Raises
    ------
    ValueError
        Unless ``0 < m <= M`` (finite), as :class:`BoundsHypothesis` requires.
    """
    BoundsHypothesis(m, M)
    rng = _rng(seed)
    g, rounding = ORDERED_SPECTRUM_GUARD, (dim + 2) * EPS * M
    if g * (M - m) / 4 <= rounding:
        a = SpdMatrix.from_spectrum(np.eye(dim), np.full(dim, m))
        return a, a
    lo = m + min(max(g * m, rounding / g), (M - m) / 4)
    hi = M - min(g * M, (M - m) / 4)
    w = np.exp(rng.uniform(np.log(lo), np.log(hi), size=dim))
    side = rng.integers(3)
    if side == 2:
        c = rng.uniform(g, 1 - g, size=dim)
    else:
        c = np.exp(rng.uniform(np.log(g), np.log(0.5), size=dim))
        c = 1 - c if side else c
    u, v = random_unitaries(np.stack([_gaussian(dim, rng), _gaussian(dim, rng)]))
    b = SpdMatrix.from_spectrum(u, w)
    f = (u * np.sqrt(w - m)) @ v
    return HermitianMatrix(m * np.eye(dim) + (f * c) @ f.conj().T), b


def draw_invertible(dim: int, cond_cap: float, seed):
    """The randoms of :func:`random_invertible`: singular values, then two
    unitaries' Gaussians, as a :class:`MatrixDraw`; above dimension 45 the
    matrix they form."""
    check_positive("cond_cap", cond_cap)
    if cond_cap < 1:
        raise ValueError(f"cond_cap must be at least 1, got {cond_cap}")
    rng = _rng(seed)
    half = 0.5 * np.log(cond_cap)
    s = np.exp(rng.uniform(-half, half, size=dim))
    return _deferred(MatrixDraw(s, (_gaussian(dim, rng), _gaussian(dim, rng))))


def random_invertible(dim: int, cond_cap: float, seed) -> np.ndarray:
    """Random invertible matrix ``U diag(s) V*`` with condition at most ``cond_cap``.

    Singular values are log-uniform in ``[cond_cap^-1/2, cond_cap^1/2]``;
    ``cond_cap = 1`` yields a unitary.
    """
    return _formed(draw_invertible(dim, cond_cap, seed))


#: Entries of one stacked array: 4096 complex doubles (64 KiB), one n = 64
#: matrix.  glibc's default mmap and trim thresholds are 128 KiB: at or above
#: them, freed memory goes back to the system and its pages fault in again
#: at the next allocation.  Stacks of two n = 64 matrices took about 46,000
#: page faults per suite-large run, where one matrix at a time took a handful.
_STACK_ENTRIES = 64 * 8 * 8


def in_stacks(calls: list, run) -> list:
    """Each call's result from stacked runs: ``calls`` holds ``(key, n, item)`` for an
    ``n x n`` item, or None; the items of one ``(key, n)``, in order, go to ``run(key, items)``
    in stacks of at most :data:`_STACK_ENTRIES` entries, and each call gets its item's entry
    of the list that returns (None for None)."""
    groups: dict = {}
    for k, call in enumerate(calls):
        if call is not None:
            groups.setdefault(call[:2], []).append(k)
    out = [None] * len(calls)
    for (key, n), members in groups.items():
        size = max(1, _STACK_ENTRIES // (n * n))
        for start in range(0, len(members), size):
            stack = members[start:start + size]
            for k, item in zip(stack, run(key, [calls[k][2] for k in stack])):
                out[k] = item
    return out


def form_operands(trials: list) -> list:
    """Form the :class:`MatrixDraw` operands of a block of trials.

    ``trials`` holds each trial's operand tuple.  The draws of one kind and
    dimension are formed together (:func:`in_stacks`): one
    :func:`random_unitaries` per unitary factor, then one
    :meth:`SpdMatrix.from_spectra` or one stacked ``U diag(s) V*``.  Returns
    each trial's tuple with its draws replaced by what they form, or the error
    of its first operand that fails certification; the other trials keep their
    operands.
    """
    at = [(t, i) for t, ops in enumerate(trials) for i, op in enumerate(ops)
          if isinstance(op, MatrixDraw)]
    if not at:
        return trials
    out = [list(operands) for operands in trials]
    calls = [(len(out[t][i].gaussians), out[t][i].values.size, out[t][i]) for t, i in at]
    for (t, i), item in zip(at, in_stacks(calls, lambda kind, draws: _form_stack(draws))):
        out[t][i] = item
    return [next((op for op in ops if isinstance(op, MeanCertError)), tuple(ops)) for ops in out]


def _form_stack(draws: list) -> list:
    """The operands of draws of one kind and dimension: per draw, its
    :class:`SpdMatrix` or certification error (one Gaussian), or its
    ``U diag(s) V*`` (two)."""
    values = np.array([d.values for d in draws])
    u, *v = (random_unitaries(np.array(z)) for z in zip(*(d.gaussians for d in draws)))
    if not v:
        return SpdMatrix.from_spectra(u, values)
    return (u * values[:, None, :]) @ v[0].conj().swapaxes(-1, -2)


def _deferred(draw: MatrixDraw):
    """``draw``, for its block to form in a stack; or, where a stack would
    hold it alone (n > 45), the operand it forms now, with the same bits, so
    that its Gaussians are freed before the trial's next draw (holding a
    block's Gaussians of that size until they are formed faults pages in
    again, as :data:`_STACK_ENTRIES` describes)."""
    return _formed(draw) if _STACK_ENTRIES // draw.values.size**2 < 2 else draw


def _formed(draw):
    """The operand a draw of :func:`draw_spd` or :func:`draw_invertible`
    forms on its own (a draw formed at once is that operand); raises its
    certification's error."""
    if not isinstance(draw, MatrixDraw):
        return draw
    (operand,) = _form_stack([draw])
    if isinstance(operand, MeanCertError):
        raise operand
    return operand


def sample_power(seed) -> float:
    """A power ``lam >= 1``: exactly 1 with probability 1/4, else uniform in ``[1, 3]``."""
    rng = _rng(seed)
    return 1.0 if rng.random() < 0.25 else float(rng.uniform(1.0, 3.0))


def sample_params(
    seed, ratio_cap: float = 1e2, v_lt_tau: bool = False, ordered_pair: bool = False
) -> tuple[dict, ScalarPair]:
    """Draw weights, a power and a scalar pair: ``({"v", "tau", "lam"}, pair)``.

    ``tau`` is drawn (above ``v``) only with ``v_lt_tau``, else None; ``lam``
    is :func:`sample_power`'s.  The pair's ratio is at most ``ratio_cap``;
    ``ordered_pair`` forces ``a < b``, else the operands swap with probability 1/2.
    """
    rng = _rng(seed)
    lo, hi = WEIGHT_INTERVAL
    if v_lt_tau:
        v = rng.uniform(lo, hi - WEIGHT_SEP)
        tau = float(rng.uniform(v + WEIGHT_SEP, hi))
    else:
        v = rng.uniform(lo, hi)
        tau = None
    lam = sample_power(rng)
    a = float(np.exp(rng.uniform(np.log(SCALE_RANGE[0]), np.log(SCALE_RANGE[1]))))
    min_ratio = 1.0 / (1.0 - MIN_REL_SEPARATION)
    ratio = float(np.exp(rng.uniform(np.log(min_ratio), np.log(ratio_cap))))
    b = a * ratio
    if not ordered_pair and rng.random() < 0.5:
        a, b = b, a
    return {"v": float(v), "tau": tau, "lam": lam}, ScalarPair(a, b)
