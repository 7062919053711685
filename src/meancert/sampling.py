"""Seeded, reproducible instance generators for the certifier families.

Every generator accepts either a :class:`SeedPath` or an already-derived
``numpy.random.Generator``.  A SeedPath fully determines every draw of a
trial: the same ``(master_seed, trial_index)`` reproduces bit-identical
instances on any schedule, so trials can run on any worker in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certifiers import BoundsHypothesis, spread_hypothesis_verdicts
from .errors import ConstructionFailure
from .linalg import SpdMatrix
from .means import ScalarPair, check_positive

#: Interior guard applied to ordered-pair spectra so the hypothesis checks
#: pass at zero tolerance despite rounding (see random_ordered_pair).
ORDERED_SPECTRUM_GUARD = 1e-6

#: Spectral gap (relative to the upper bound) below which the ordered pair
#: collapses to A = B.
ORDERED_COLLAPSE_GUARD = 1e-8

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


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-like random unitary: QR of a complex Gaussian, phases fixed.

    The phase fixing (dividing out the R diagonal's phases) makes the result
    a deterministic function of the Gaussian draw.
    """
    rng = _rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


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


def random_spd(spec: SpectrumSpec, seed) -> SpdMatrix:
    """Random positive definite matrix with spectrum drawn per ``spec``,
    conjugated by a random unitary: certified from the drawn ``(u, w)``
    (:meth:`SpdMatrix.from_spectrum`), which it carries as its decomposition."""
    rng = _rng(seed)
    w = _draw_spectrum(spec, rng)
    u = random_unitary(spec.dim, rng)
    return SpdMatrix.from_spectrum(u, w)


def random_ordered_pair(dim: int, m: float, M: float, seed) -> tuple[SpdMatrix, SpdMatrix]:
    """Ordered pair with ``m I <= A <= B <= M I``, exact at zero tolerance.

    ``B`` gets a spectrum drawn strictly inside ``[m, M]`` (guard band
    ``ORDERED_SPECTRUM_GUARD`` relative) and is certified from it
    (:meth:`SpdMatrix.from_spectrum`), then a positive perturbation with
    norm below B's proven spectral gap over ``m`` is subtracted to form
    ``A``; the perturbation keeps a small definite floor so ``B - A`` stays
    positive semidefinite after rounding.  The four checks of
    :func:`~meancert.certifiers.spread_hypothesis_verdicts` are re-verified
    at tol 0 before returning, with up to 10 retries.

    Raises
    ------
    ValueError
        Unless ``0 < m <= M`` (finite), as :class:`BoundsHypothesis` requires.
    ConstructionFailure
        If no draw passes the self-check within the retry budget.
    """
    bounds = BoundsHypothesis(m, M)
    rng = _rng(seed)
    if m == M:
        a = SpdMatrix(m * np.eye(dim))
        return a, a
    for _ in range(10):
        guard = ORDERED_SPECTRUM_GUARD
        w = np.exp(rng.uniform(np.log(m * (1 + guard)), np.log(M * (1 - guard)), size=dim))
        u = random_unitary(dim, rng)
        b = SpdMatrix.from_spectrum(u, w)
        gap = b.min_eig - m
        if gap <= ORDERED_COLLAPSE_GUARD * M:
            a = b
        else:
            cap = gap - 0.5 * ORDERED_COLLAPSE_GUARD * M
            floor = min(1e-12 * M, cap)
            d = rng.uniform(floor, cap, size=dim)
            v = random_unitary(dim, rng)
            delta = (v * d) @ v.conj().T
            a = SpdMatrix(b.mat - (delta + delta.conj().T) / 2)
        if all(c.holds for c in spread_hypothesis_verdicts(a, b, bounds, 0.0).values()):
            return a, b
    raise ConstructionFailure(
        f"could not build an ordered pair for dim={dim}, m={m}, M={M} in 10 attempts"
    )


def random_invertible(dim: int, cond_cap: float, seed) -> np.ndarray:
    """Random invertible matrix ``U diag(s) V*`` with condition at most ``cond_cap``.

    Singular values are log-uniform in ``[cond_cap^-1/2, cond_cap^1/2]``;
    ``cond_cap = 1`` yields a unitary.
    """
    check_positive("cond_cap", cond_cap)
    if cond_cap < 1:
        raise ValueError(f"cond_cap must be at least 1, got {cond_cap}")
    rng = _rng(seed)
    half = 0.5 * np.log(cond_cap)
    s = np.exp(rng.uniform(-half, half, size=dim))
    u = random_unitary(dim, rng)
    v = random_unitary(dim, rng)
    return (u * s) @ v.conj().T


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
