"""hetstab: stability indices for quasi-simple heteroclinic cycles.

Build transition matrices from per-node eigenvalue data (or inject them
directly), compute the local stability index along every connection from
the closed-form slice index, classify the cycle, and cross-check the
analytic answers with a Monte-Carlo return-map oracle.
"""

__version__ = "0.1.0"

from .cycle import (
    ConnectionSpec,
    CycleSpec,
    CycleValidationError,
    InvalidPermutation,
    MismatchedTransverseCount,
    NodeSpec,
    NonPositiveEigenvalue,
    NonPositiveScaling,
    ValidatedCycle,
    cycle_from_dict,
    cycle_to_dict,
    load_cycle,
    save_cycle,
    validate_cycle,
)
from .findex import (
    ZeroVectorError,
    f_index,
    f_index_n3,
    f_minus,
    f_plus,
)
from .oracle import (
    BasinEstimate,
    EstimatorConfig,
    FplusEstimate,
    InsufficientResolution,
    LevelEstimate,
    NonPositiveInput,
    SlopeFit,
    estimate_fplus_mc,
    estimate_sigma_mc,
    in_delta_basin,
    matrix_basin_membership,
)
from .rsp import (
    NotFAS,
    ParamOutOfRange,
    RspComparison,
    RspParams,
    rsp_closed_form,
    rsp_compare,
    rsp_cycle_spec,
    rsp_matrices,
)
from .spectral import (
    DefectiveMatrix,
    NoAdmissibleDominant,
    SpectralError,
    SpectralSummary,
    eigen_decompose,
    vmax_row,
)
from .stability import (
    Classification,
    IndeterminateError,
    IndexProvenance,
    IndexReport,
    classification_from_sigmas,
    classify,
    collect_alpha_vectors,
    sigma,
)
from .transition import (
    ProductOverflow,
    as_basic_matrices,
    basic_matrix,
    full_return_matrix,
    negative_entry_indices,
    partial_turn_matrix,
)

__all__ = [
    "__version__",
    # cycle model
    "NodeSpec", "ConnectionSpec", "CycleSpec", "ValidatedCycle",
    "validate_cycle", "load_cycle", "save_cycle",
    "cycle_from_dict", "cycle_to_dict",
    "CycleValidationError", "NonPositiveEigenvalue", "MismatchedTransverseCount",
    "InvalidPermutation", "NonPositiveScaling",
    # transition matrices
    "basic_matrix", "full_return_matrix", "partial_turn_matrix",
    "negative_entry_indices", "as_basic_matrices", "ProductOverflow",
    # spectral
    "SpectralSummary", "eigen_decompose", "vmax_row", "SpectralError",
    "DefectiveMatrix", "NoAdmissibleDominant",
    # f-index
    "f_plus", "f_minus", "f_index", "f_index_n3", "ZeroVectorError",
    # stability
    "Classification", "IndexReport", "IndexProvenance", "classify", "sigma",
    "collect_alpha_vectors", "classification_from_sigmas", "IndeterminateError",
    # oracle
    "EstimatorConfig", "BasinEstimate", "FplusEstimate", "LevelEstimate",
    "SlopeFit", "in_delta_basin", "estimate_sigma_mc", "estimate_fplus_mc",
    "matrix_basin_membership", "NonPositiveInput", "InsufficientResolution",
    # rsp example
    "RspParams", "RspComparison", "rsp_matrices", "rsp_cycle_spec",
    "rsp_closed_form", "rsp_compare", "ParamOutOfRange", "NotFAS",
]
