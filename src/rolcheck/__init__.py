"""Exact generalized inverses and weighted reverse order law verification.

The package computes Moore-Penrose, group, and K-inverses of matrices
over exact involutive scalar domains (Gaussian rationals, odd prime
fields) and mechanically checks the equivalences behind the weighted
reverse order laws by direct predicate evaluation, randomized suites,
and counterexample search.
"""

from .errors import (
    BlanketIdentityFailed,
    DimensionMismatch,
    DivisionByZero,
    DomainMismatch,
    EmptyK,
    HypothesisNotMet,
    InvalidSpec,
    NoMPInverse,
    NotGroupInvertible,
    NotIdempotent,
    RolcheckError,
    Singular,
)
from .scalars import (
    GAUSSIAN_RATIONAL,
    GaussianRational,
    PrimeFieldDomain,
    PrimeFieldElement,
    Rational,
    ScalarDomain,
    prime_field,
    scalar_conj,
    scalar_inv,
)
from .matrices import (
    Matrix,
    RankFactorization,
    inverse,
    mat_mul,
    matrix_from_json,
    matrix_to_json,
    nullspace_basis,
    rank,
    rank_factorization,
    rref,
    star,
)
from .geninv import (
    PenroseReport,
    commutes_with_pair,
    group_inverse,
    mp_exists,
    mp_inverse,
    mp_via_star_group,
    penrose_residuals,
    prop21_check,
)
from .peirce import (
    ParamContext13,
    PeirceBlocks,
    is_k_inverse,
    param_context_13,
    peirce_blocks,
    sample_13_inverse,
    sample_14_inverse,
    sample_commutant,
    structured_13_blocks,
)
from .laws import (
    EQUIVALENT,
    HYPOTHESIS_NOT_MET,
    VIOLATION,
    EquivalenceReport,
    LawContext,
    LawId,
    SampledVerdict,
    check_equivalence,
    inclusion_holds,
    inclusion_statement_sampled,
    law_context,
    law_statement,
    variant_context,
)
from .harness import (
    InstanceSpec,
    SuiteResult,
    gen_instance,
    run_suite,
    search_counterexample,
)

__version__ = "0.1.0"
