"""opalg: finite-truncation certification of operator-algebra constructions.

Builds semilattice chains of idempotents, single generators, telescoping
diagonals with their unitizations and expectation maps, and a rank-one
embedding of summable sequences into products of matrix blocks -- and
certifies every identity, norm bound and inequality these constructions
obey, exactly where the statement is algebraic and numerically where it
is metric.
"""

__version__ = "0.1.0"

from .chains import (
    Chain,
    ChainSpec,
    NormEntry,
    SemilatticeReport,
    TruncationError,
    build_chain,
    norm_profile,
    verify_semilattice,
)
from .diagonals import (
    FiniteDiagonal,
    MbadReport,
    TensorElem,
    bimodule_commutator,
    certify_expectation,
    certify_mbad,
    expectation_from_diagonal,
    expectation_norm_demo,
    full_matrix_diagonal,
    pi_map,
    skew_idempotent_diagonal,
    tensor_norm_bounds,
    tensor_norm_upper,
    unitize_diagonal,
)
from .embedding import (
    EmbeddedElement,
    RankOneFamily,
    SubsetFamily,
    TraceWeights,
    best_subset_sum,
    brute_force_best_subset,
    certify_E_family,
    certify_embedding_bounds,
    l1_trace_norm,
    make_trace,
    phi,
    phi_sup_norm,
    unit_circle_sweep_ratios,
)
from .generation import (
    GenerationCertificate,
    WeightSeq,
    certify_generation,
    orthogonal_generators,
    orthogonality_table,
    same_span,
)
from .matrices import (
    DEFAULT_TOL,
    CertificationError,
    DimensionError,
    Matrix,
    op_norm,
    singular_values,
)

__all__ = [
    "__version__",
    "Matrix", "DEFAULT_TOL",
    "op_norm", "singular_values",
    "DimensionError", "CertificationError", "TruncationError",
    "ChainSpec", "Chain", "build_chain", "verify_semilattice", "norm_profile",
    "SemilatticeReport", "NormEntry",
    "WeightSeq", "GenerationCertificate", "orthogonal_generators", "orthogonality_table",
    "certify_generation", "same_span",
    "TensorElem", "pi_map", "bimodule_commutator",
    "tensor_norm_bounds", "tensor_norm_upper", "unitize_diagonal",
    "FiniteDiagonal", "MbadReport", "certify_mbad",
    "expectation_from_diagonal", "certify_expectation",
    "full_matrix_diagonal", "skew_idempotent_diagonal", "expectation_norm_demo",
    "RankOneFamily", "certify_E_family",
    "SubsetFamily", "EmbeddedElement", "phi", "phi_sup_norm",
    "best_subset_sum", "brute_force_best_subset", "unit_circle_sweep_ratios",
    "TraceWeights", "make_trace", "l1_trace_norm", "certify_embedding_bounds",
]
