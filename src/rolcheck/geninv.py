"""K-inverses, and Moore-Penrose and group inverses with exact existence
detection.

The Moore-Penrose inverse of a is the unique b satisfying the four
Penrose equations

    (1) a = aba    (2) b = bab    (3) (ab)* = ab    (4) (ba)* = ba,

and a K-inverse of a is a b satisfying the equations K names.
`is_k_inverse` is the only code that evaluates them: it tests the
equations K names, one product at a time, and stops at the first that
fails.  The laws' memberships, `rolcheck kcheck` (one equation per call)
and `is_mp_inverse` all run on it.  The uniqueness holds in any ring
with involution, so b = a+ is decided by testing the four equations on
b, without forming a+.

Existence and construction share one object.  For a full-rank
factorization a = f g of rank r, MacDuffee's formula

    a+ = g* (f* a g*)^-1 f*,    core f* a g* = (f* f)(g g*)  (r x r),

holds in any ring with involution where the core is invertible, and a+
exists exactly then.  Over the Gaussian rationals the core is always
invertible (the base field is formally real); over a prime field it can
be singular.  Any full-rank factorization serves (Ben-Israel & Greville,
Generalized Inverses, ch. 1): another is f T, T^-1 g for an invertible
T, whose core T* (f* f)(g g*) T^-* has the same rank, and a+ is unique.
So a matrix the harness drew as u v (`Matrix._factors`) is inverted on
those small factors, with no RREF of a, and every other matrix on its
RREF factorization; the result and the existence verdict are the same.

The group inverse is the commuting {1,2}-inverse of a square matrix; it
exists iff rank(a^2) = rank(a).
"""

from __future__ import annotations

from .errors import DimensionMismatch, EmptyK, NoMPInverse, NotGroupInvertible, Singular
from .matrices import Matrix, inverse, rank, rank_factorization


def _check_candidate(a: Matrix, b: Matrix) -> None:
    if b.rows != a.cols or b.cols != a.rows:
        raise DimensionMismatch(f"candidate {b.shape} does not fit {a.shape}")
    a._same_domain(b)


def is_k_inverse(a: Matrix, x: Matrix, k) -> bool:
    """Membership of x in aK: x satisfies Penrose equation (j) for each j in K.

    The equations are tried in the order (3), (4), (1), (2), and the first
    that fails ends the test.  Each product is formed when an equation
    first needs it: a x for (3), x a for (4), and (1) and (2) reuse them,
    so a false membership forms only the products up to its first
    failing equation.  K = {} is rejected; a vacuous membership test
    silently passing everything is a bug magnet for the set-inclusion
    laws."""
    ks = frozenset(k)
    if not ks:
        raise EmptyK("K must name at least one Penrose equation")
    if not ks <= {1, 2, 3, 4}:
        raise ValueError(f"K must be a subset of {{1, 2, 3, 4}}, got {sorted(ks)}")
    _check_candidate(a, x)
    ax = xa = None
    if 3 in ks:
        ax = a @ x
        if not ax.is_hermitian():
            return False
    if 4 in ks:
        xa = x @ a
        if not xa.is_hermitian():
            return False
    if 1 in ks:
        ax = a @ x if ax is None else ax
        if not ax @ a == a:
            return False
    if 2 in ks:
        xa = x @ a if xa is None else xa
        return xa @ x == x
    return True


def is_mp_inverse(a: Matrix, b: Matrix) -> bool:
    """Whether b = a+, decided by the four Penrose equations.

    a+ is the unique solution of all four in any ring with involution
    (Penrose, Proc. Cambridge Philos. Soc. 1955), so b satisfies them
    exactly when a+ exists and equals b; a+ itself is never formed.
    Where a has no Moore-Penrose inverse (over a prime field), no b
    satisfies them, and the answer is False."""
    return is_k_inverse(a, b, (1, 2, 3, 4))


def _macduffee(a: Matrix):
    """Full-rank factorization a = f g and the r x r core (f* f)(g g*).

    The factorization is the one a was drawn as (`a._factors`, set by
    harness.random_matrix_of_rank) when there is one, and the RREF one
    (`rank_factorization`) otherwise.  Either serves: two full-rank
    factorizations satisfy f' = f T and g' = T^-1 g for an invertible T,
    so core' = T* core T^-*, of the same rank, and a+ is unique."""
    fact = a._factors or rank_factorization(a)
    f, g = fact.f, fact.g
    return fact, (f.star() @ f) @ (g @ g.star())


def mp_exists(a: Matrix) -> bool:
    """True iff the core f* a g* has full rank r = rank(a).

    g has full row rank and f full column rank, so rank(a* a) =
    rank(f* f) and rank(a a*) = rank(g g*); the core has rank r exactly
    when both do, which is the rank criterion
    rank(a) = rank(a* a) = rank(a a*)."""
    fact, core = _macduffee(a)
    return rank(core) == fact.rank


def mp_inverse(a: Matrix) -> Matrix:
    """Moore-Penrose inverse by MacDuffee's formula a+ = g* (f* a g*)^-1 f*.

    A singular core (possible over prime fields only) raises
    NoMPInverse.  For a = 0 the factors are empty and the formula
    collapses to the zero matrix of transposed shape."""
    fact, core = _macduffee(a)
    try:
        core_inv = inverse(core)
    except Singular as exc:
        raise NoMPInverse(f"core f* a g* is singular over {a.domain.name}: {exc}") from exc
    return fact.g.star() @ core_inv @ fact.f.star()


def group_inverse(a: Matrix) -> Matrix:
    """The unique x with axa = a, xax = x, ax = xa, via a = f g and
    x = f (g f)^-2 g; g f is invertible iff rank(a^2) = rank(a)."""
    if a.rows != a.cols:
        raise DimensionMismatch(f"group inverse needs a square matrix, got {a.shape}")
    fact = rank_factorization(a)
    gf = fact.g @ fact.f
    try:
        gf_inv = inverse(gf)
    except Singular as exc:
        raise NotGroupInvertible(f"rank(a^2) < rank(a) = {fact.rank}") from exc
    return fact.f @ gf_inv @ gf_inv @ fact.g


def commutes_with_pair(c: Matrix, a: Matrix) -> bool:
    """True iff c a = a c and c a* = a* c.

    When a is Moore-Penrose invertible this is equivalent to c commuting
    with a+ and (a+)*; the equivalence is verified by tests, not assumed
    here."""
    if c.rows != c.cols or a.rows != a.cols or c.rows != a.rows:
        raise DimensionMismatch(f"need equal square shapes, got {c.shape} and {a.shape}")
    c._same_domain(a)
    a_star = a.star()
    return c @ a == a @ c and c @ a_star == a_star @ c
