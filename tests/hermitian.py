"""Random Hermitian test matrices (not necessarily definite)."""

import numpy as np

from meancert.linalg import HermitianMatrix
from meancert.sampling import SeedPath, random_unitary


def random_hermitian(
    dim: int, min_abs_eig: float, max_abs_eig: float, seed: SeedPath
) -> HermitianMatrix:
    """Random Hermitian matrix with eigenvalue magnitudes log-uniform in the
    given band and random signs, conjugated by a random unitary."""
    rng = seed.rng()
    mags = np.exp(rng.uniform(np.log(min_abs_eig), np.log(max_abs_eig), size=dim))
    signs = np.where(rng.random(dim) < 0.5, -1.0, 1.0)
    u = random_unitary(dim, rng)
    return HermitianMatrix((u * (mags * signs)) @ u.conj().T)
