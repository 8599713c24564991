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
    RolcheckError,
    Singular,
)
from .scalars import (
    GAUSSIAN_RATIONAL,
    GaussianRational,
    PrimeFieldDomain,
    PrimeFieldElement,
    ScalarDomain,
    prime_field,
)
from .matrices import (
    Matrix,
    RankFactorization,
    inverse,
    matrix_from_json,
    matrix_to_json,
    nullspace_basis,
    rank,
    rank_factorization,
    rref,
)
from .geninv import (
    commutes_with_pair,
    group_inverse,
    is_mp_inverse,
    mp_exists,
    mp_inverse,
    penrose_equations,
)
from .peirce import (
    is_k_inverse,
    sample_commutant,
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
    law_statement,
)
from .harness import (
    InstanceSpec,
    SuiteResult,
    gen_instance,
    run_suite,
    search_counterexample,
)

__version__ = "0.1.0"
