"""Verification lab for a Crouzeix-type bound on 3x3 tridiagonal matrices.

The package certifies, point by point over a two-parameter family of 3x3
matrices with elliptic numerical range, that ||p(A)|| <= 2 max_{W(A)} |p|
for all polynomials p.  It combines explicit similarity transformations of
condition number 2 with bracketed evaluations of the conformal map of the
numerical range onto the unit disk, replays the one-dimensional inequality
chains behind each region of the parameter plane, and stress-tests the
resulting certificates with a randomized worst-ratio search.
"""

from .core_matrix import (
    EllipseGeometry,
    NormalizationRecord,
    NormalizedParams,
    RhoParams,
    TridiagonalParams,
    build_A,
    build_A_rho,
    foci_of_general,
    mu_rho,
    normalize,
    q_from_rho,
)
from .conformal_map import (
    CBracket,
    QSignChainResult,
    c_bracket,
    c_upper_closed,
    eval_f,
    q_sign_chain_check,
    verify_fA_equals_cA,
)
from .dense_small import condition_number, eval_poly, operator_norm
from .errors import DegenerateDenominatorError, DomainError, SingularMatrixError
from .ratio_search import (
    EllipseBoundary,
    PolySpec,
    RatioResult,
    boundary_samples,
    coordinate_search,
    ratio_for_poly,
    worst_ratio_search,
)
from .region_certifier import (
    Certificate,
    ProofReplayReport,
    RegionId,
    certify,
    certify_points,
    classify,
    figure2_data,
    r1,
    r3,
    replay_proofs,
    sweep_grid,
)
from .similarity import (
    CanonicalG,
    NormPolyP,
    SimilarityX,
    SingularSpectrumX,
    build_X_critical,
    build_X_diagonalizing,
    build_X_smallr,
    build_X_strip,
    canonical_G,
    check_mu_bound,
    norm_from_P,
    p_x1_residual,
    psi,
    singular_spectrum,
)
from .permutation_ext import (
    CycleDecomposition,
    ObservationReport,
    PermSpec,
    cycle_decompose,
    perm_from_cycles,
    verify_observation,
)

__version__ = "0.1.0"

__all__ = [
    "CBracket",
    "SingularSpectrumX",
    "QSignChainResult",
    "ObservationReport",
    "EllipseBoundary",
    "CanonicalG",
    "Certificate",
    "CycleDecomposition",
    "DegenerateDenominatorError",
    "DomainError",
    "EllipseGeometry",
    "NormPolyP",
    "NormalizationRecord",
    "NormalizedParams",
    "PermSpec",
    "PolySpec",
    "ProofReplayReport",
    "RatioResult",
    "RegionId",
    "RhoParams",
    "SimilarityX",
    "SingularMatrixError",
    "TridiagonalParams",
    "boundary_samples",
    "build_A",
    "build_A_rho",
    "build_X_critical",
    "build_X_diagonalizing",
    "build_X_smallr",
    "build_X_strip",
    "c_bracket",
    "c_upper_closed",
    "canonical_G",
    "certify",
    "certify_points",
    "coordinate_search",
    "check_mu_bound",
    "classify",
    "condition_number",
    "cycle_decompose",
    "eval_f",
    "eval_poly",
    "figure2_data",
    "foci_of_general",
    "mu_rho",
    "norm_from_P",
    "normalize",
    "operator_norm",
    "p_x1_residual",
    "perm_from_cycles",
    "psi",
    "q_from_rho",
    "q_sign_chain_check",
    "r1",
    "r3",
    "ratio_for_poly",
    "replay_proofs",
    "singular_spectrum",
    "sweep_grid",
    "verify_fA_equals_cA",
    "verify_observation",
    "worst_ratio_search",
]
