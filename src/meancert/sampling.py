"""Seeded, reproducible instance generators for the certifier families.

Every generator accepts either a :class:`SeedPath` or an already-derived
``numpy.random.Generator``.  A SeedPath fully determines every draw of a
trial: the same ``(master_seed, trial_index)`` reproduces bit-identical
instances on any schedule, so trials can run on any worker in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionFailure
from .linalg import HermitianMatrix, SpdMatrix, loewner_leq, order_verdict
from .means import MeanParams, ScalarPair

#: Interior guard applied to ordered-pair spectra so the hypothesis checks
#: pass at zero tolerance despite rounding (see random_ordered_pair).
ORDERED_SPECTRUM_GUARD = 1e-6

#: Spectral gap (relative to the upper bound) below which the ordered pair
#: collapses to A = B.
ORDERED_COLLAPSE_GUARD = 1e-8

DISTRIBUTIONS = ("log-uniform", "uniform", "clustered")


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
        if not 0 < self.min_eig <= self.max_eig:
            raise ValueError(
                f"need 0 < min_eig <= max_eig, got {self.min_eig}, {self.max_eig}"
            )
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
    if spec.distribution == "uniform":
        return rng.uniform(lo, hi, size=spec.dim)
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
    conjugated by a random unitary."""
    rng = _rng(seed)
    w = _draw_spectrum(spec, rng)
    u = random_unitary(spec.dim, rng)
    return SpdMatrix((u * w) @ u.conj().T)


def random_hermitian(dim: int, min_abs_eig: float, max_abs_eig: float, seed) -> HermitianMatrix:
    """Random Hermitian matrix with eigenvalue magnitudes in the given band
    and random signs (not necessarily definite)."""
    rng = _rng(seed)
    mags = np.exp(rng.uniform(np.log(min_abs_eig), np.log(max_abs_eig), size=dim))
    signs = np.where(rng.random(dim) < 0.5, -1.0, 1.0)
    u = random_unitary(dim, rng)
    return HermitianMatrix((u * (mags * signs)) @ u.conj().T)


def random_ordered_pair(dim: int, m: float, M: float, seed) -> tuple[SpdMatrix, SpdMatrix]:
    """Ordered pair with ``m I <= A <= B <= M I``, exact at zero tolerance.

    ``B`` gets a spectrum drawn strictly inside ``[m, M]`` (guard band
    ``ORDERED_SPECTRUM_GUARD`` relative), then a positive perturbation with
    norm below B's spectral gap over ``m`` is subtracted to form ``A``; the
    perturbation keeps a small definite floor so ``B - A`` stays positive
    semidefinite after rounding.  All four hypothesis checks are re-verified
    at tol 0 before returning (``0 <= m I`` in closed form, the other three
    with ``loewner_leq``), with up to 10 retries.

    Raises
    ------
    ConstructionFailure
        If no draw passes the self-check within the retry budget.
    """
    if not 0 < m <= M:
        raise ValueError(f"need 0 < m <= M, got {m}, {M}")
    rng = _rng(seed)
    if m == M:
        a = SpdMatrix(m * np.eye(dim))
        return a, a
    for _ in range(10):
        guard = ORDERED_SPECTRUM_GUARD
        w = np.exp(rng.uniform(np.log(m * (1 + guard)), np.log(M * (1 - guard)), size=dim))
        u = random_unitary(dim, rng)
        b = SpdMatrix((u * w) @ u.conj().T)
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
        eye_m = HermitianMatrix(m * np.eye(dim))
        eye_big = HermitianMatrix(M * np.eye(dim))
        checks = (
            order_verdict(m, 0.0),  # 0 <= m I: its margin is m
            loewner_leq(eye_m, a, 0.0),
            loewner_leq(a, b, 0.0),
            loewner_leq(b, eye_big, 0.0),
        )
        if all(c.holds for c in checks):
            return a, b
    raise ConstructionFailure(
        f"could not build an ordered pair for dim={dim}, m={m}, M={M} in 10 attempts"
    )


def random_invertible(dim: int, cond_cap: float, seed) -> np.ndarray:
    """Random invertible matrix ``U diag(s) V*`` with condition at most ``cond_cap``.

    Singular values are log-uniform in ``[cond_cap^-1/2, cond_cap^1/2]``;
    ``cond_cap = 1`` yields a unitary.
    """
    if cond_cap < 1:
        raise ValueError(f"cond_cap must be at least 1, got {cond_cap}")
    rng = _rng(seed)
    half = 0.5 * np.log(cond_cap)
    s = np.exp(rng.uniform(-half, half, size=dim))
    u = random_unitary(dim, rng)
    v = random_unitary(dim, rng)
    return (u * s) @ v.conj().T


@dataclass(frozen=True)
class ParamRules:
    """Constraints a parameter draw must satisfy for one certifier family.

    Weights come from ``weight_interval`` (capped by ``v_cap`` when set) and
    keep at least ``weight_sep`` separation when ``require_v_lt_tau``.  The
    scalar pair is drawn log-uniform around ``scale_range`` with relative
    separation at least ``min_rel_separation`` and ratio at most
    ``ratio_cap``; ``require_ordered_pair`` forces ``a < b``.
    """

    weight_interval: tuple[float, float] = (0.02, 0.98)
    v_cap: float | None = None
    require_v_lt_tau: bool = False
    weight_sep: float = 0.05
    require_ordered_pair: bool = False
    min_rel_separation: float = 0.1
    ratio_cap: float = 1e2
    lam_range: tuple[float, float] = (1.0, 3.0)
    scale_range: tuple[float, float] = (0.1, 10.0)


def sample_params(rules: ParamRules, seed) -> tuple[MeanParams, ScalarPair]:
    """Draw (weights, power, scalar pair) satisfying ``rules``."""
    rng = _rng(seed)
    lo, hi = rules.weight_interval
    if rules.v_cap is not None:
        hi = min(hi, rules.v_cap)
    if rules.require_v_lt_tau:
        v = rng.uniform(lo, hi - rules.weight_sep)
        tau = rng.uniform(v + rules.weight_sep, rules.weight_interval[1])
    else:
        v = rng.uniform(lo, hi)
        tau = None
    lam = 1.0 if rng.random() < 0.25 else float(rng.uniform(*rules.lam_range))
    a = float(np.exp(rng.uniform(np.log(rules.scale_range[0]), np.log(rules.scale_range[1]))))
    min_ratio = 1.0 / (1.0 - rules.min_rel_separation)
    ratio = float(np.exp(rng.uniform(np.log(min_ratio), np.log(rules.ratio_cap))))
    b = a * ratio
    if not rules.require_ordered_pair and rng.random() < 0.5:
        a, b = b, a
    return MeanParams(v=float(v), tau=None if tau is None else float(tau), lam=lam), ScalarPair(a, b)
