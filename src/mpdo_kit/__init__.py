"""mpdo-kit: decompositions of 1D psd operators and the matching
factorizations of nonnegative matrices, with certified rank bounds."""

__version__ = "0.1.0"

from .certificates import (
    FactorCertificate,
    NecessaryConditionError,
    NonnegMatrix,
    as_nonneg,
    check_factor_certificate,
    pair_traces,
)
from .correspondence import (
    DiagBipartite,
    StateDecomposition,
    canonical_kind,
    decomposition_to_factorization,
    diag_embed,
    diag_extract,
    factorization_to_decomposition,
    verify_correspondence,
)
from .decompositions import (
    PurificationCertificate,
    SeparableCertificate,
    SignVector,
    WStateFamily,
    local_purification_spectral,
    make_translation_invariant,
    mixed_w_generator,
    mpo_train_form,
    operator_schmidt_rank,
    periodicity_lower_bound,
    purification_from_separable,
    q_sqrt_rank,
    schmidt_rank_cap,
    transfer_matrix,
    w_state_generators,
)
from .nonneg_factorizations import (
    cp_factorization_search,
    cpsdt_construct,
    hadamard_root_certificate,
    minimal_factorization,
    nonneg_factorization_search,
    psd_certificate_from_nonneg,
    psd_factorization_search,
    scan_nonneg_certificate,
    slack_matrix_tgon,
    sqrt_rank,
    symmetric_factorization,
    trivial_nonneg_certificate,
)
from .tensor_core import (
    MpoTrain,
    PsdOperator,
    SiteSpec,
    TiSiteTensor,
    UsageError,
    contract_cyclic,
    contract_train,
    cyclic_shift_defect,
    kron_chain,
    matricize,
    numerical_rank,
    svd_split,
)

__all__ = [name for name in dir() if not name.startswith("_")]
