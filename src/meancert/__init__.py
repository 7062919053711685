"""meancert: weighted matrix means and numerical inequality certificates.

A library and CLI for the weighted arithmetic, geometric and harmonic means
of positive definite matrices, with margin-reporting certifiers for the
inequalities relating them: scalar and semidefinite-order chains, powered
gap-ratio bounds, Hilbert-Schmidt norm versions, determinant versions, and
sharpness probes for the stated limits.
"""

from .errors import (
    ConfigError,
    ConstructionFailure,
    ConvergenceFailure,
    DegenerateInput,
    DimensionMismatch,
    HypothesisViolated,
    IllConditioned,
    MeanCertError,
    NotPositiveDefinite,
    PowerOverflow,
    RequiresOrdered,
    Singular,
    TrialFailed,
    WeightOrder,
)
from .linalg import (
    EigenDecomposition,
    HermitianMatrix,
    OrderVerdict,
    SpdMatrix,
    complex_matrix,
    default_loewner_tol,
    det_hermitian,
    eig_hermitian,
    hs_norm,
    inverse,
    loewner_leq,
    logdet_spd,
    matrix_power,
)
from .means import (
    ScalarPair,
    arith_harm_gap,
    gap_power_ratio,
    mat_arith,
    mat_geo,
    mat_harm,
    normalized_gap,
    scalar_arith,
    scalar_geo,
    scalar_harm,
    x_arith,
    x_geo,
    x_harm,
)
from .certifiers import (
    BoundsHypothesis,
    CertificateReport,
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
from .sampling import (
    SeedPath,
    SpectrumSpec,
    random_invertible,
    random_ordered_pair,
    random_spd,
    random_unitary,
    sample_params,
)
from .runner import CANONICAL_IDS, PROBE_NAMES
from .config import RunConfig, load_config

__version__ = "0.1.0"
