"""Moore-Penrose and group inverses with exact existence detection.

The Moore-Penrose inverse of a is the unique b satisfying the four
Penrose equations

    (1) a = aba    (2) b = bab    (3) (ab)* = ab    (4) (ba)* = ba.

That uniqueness holds in any ring with involution, so b = a+ is decided
by testing the four equations on b (`is_mp_inverse`), without forming
a+.  `penrose_holds` tests the equations K names, one product at a
time, and stops at the first that fails; `peirce.is_k_inverse` runs on
it too.  `penrose_equations` evaluates each requested equation, for a
report that shows all of them.

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

from .errors import DimensionMismatch, NoMPInverse, NotGroupInvertible, Singular
from .matrices import Matrix, inverse, rank, rank_factorization


def _check_candidate(a: Matrix, b: Matrix) -> None:
    if b.rows != a.cols or b.cols != a.rows:
        raise DimensionMismatch(f"candidate {b.shape} does not fit {a.shape}")
    a._same_domain(b)


def penrose_equations(a: Matrix, b: Matrix, ks) -> dict:
    """Exact truth of Penrose equation (j) for each j in ks, in order.

    Every requested equation is evaluated, for a report that shows each
    one (`rolcheck kcheck`); `penrose_holds` decides their conjunction
    and stops at the first that fails.  Forms only the products the
    requested equations use: a b for (1) and (3), b a for (2) and (4)."""
    _check_candidate(a, b)
    ab = a @ b if 1 in ks or 3 in ks else None
    ba = b @ a if 2 in ks or 4 in ks else None
    equations = {
        1: lambda: ab @ a == a,
        2: lambda: ba @ b == b,
        3: lambda: ab.is_hermitian(),
        4: lambda: ba.is_hermitian(),
    }
    return {k: equations[k]() for k in sorted(ks)}


def penrose_holds(a: Matrix, b: Matrix, ks) -> bool:
    """Whether Penrose equation (j) holds for every j in ks.

    The equations are tried in the order (3), (4), (1), (2), and the first
    that fails ends the test.  Each product is formed when an equation
    first needs it: a b for (3), b a for (4), and (1) and (2) reuse them,
    so a false membership forms only the products up to its first
    failing equation."""
    _check_candidate(a, b)
    ab = ba = None
    if 3 in ks:
        ab = a @ b
        if not ab.is_hermitian():
            return False
    if 4 in ks:
        ba = b @ a
        if not ba.is_hermitian():
            return False
    if 1 in ks:
        ab = a @ b if ab is None else ab
        if not ab @ a == a:
            return False
    if 2 in ks:
        ba = b @ a if ba is None else ba
        return ba @ b == b
    return True


def is_mp_inverse(a: Matrix, b: Matrix) -> bool:
    """Whether b = a+, decided by the four Penrose equations.

    a+ is the unique solution of all four in any ring with involution
    (Penrose, Proc. Cambridge Philos. Soc. 1955), so b satisfies them
    exactly when a+ exists and equals b; a+ itself is never formed.
    Where a has no Moore-Penrose inverse (over a prime field), no b
    satisfies them, and the answer is False."""
    return penrose_holds(a, b, (1, 2, 3, 4))


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
