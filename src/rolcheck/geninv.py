"""Moore-Penrose and group inverses with exact existence detection.

The Moore-Penrose inverse of a is the unique b satisfying the four
Penrose equations

    (1) a = aba    (2) b = bab    (3) (ab)* = ab    (4) (ba)* = ba.

Existence and construction share one object.  For a full-rank
factorization a = f g of rank r, MacDuffee's formula

    a+ = g* (f* a g*)^-1 f*,    core f* a g* = (f* f)(g g*)  (r x r),

holds in any ring with involution where the core is invertible, and a+
exists exactly then.  Over the Gaussian rationals the core is always
invertible (the base field is formally real); over a prime field it can
be singular.  The group inverse is the commuting {1,2}-inverse of a
square matrix; it exists iff rank(a^2) = rank(a).
"""

from __future__ import annotations

from .errors import DimensionMismatch, NoMPInverse, NotGroupInvertible, Singular
from .matrices import Matrix, inverse, rank, rank_factorization


def penrose_equations(a: Matrix, b: Matrix, ks) -> dict:
    """Exact truth of Penrose equation (j) for each j in ks, in order.

    Forms only the products the requested equations use: a b for (1)
    and (3), b a for (2) and (4)."""
    if b.rows != a.cols or b.cols != a.rows:
        raise DimensionMismatch(f"candidate {b.shape} does not fit {a.shape}")
    a._same_domain(b)
    ab = a @ b if 1 in ks or 3 in ks else None
    ba = b @ a if 2 in ks or 4 in ks else None
    equations = {
        1: lambda: ab @ a == a,
        2: lambda: ba @ b == b,
        3: lambda: ab.is_hermitian(),
        4: lambda: ba.is_hermitian(),
    }
    return {k: equations[k]() for k in sorted(ks)}


def _macduffee(a: Matrix):
    """Rank factorization a = f g and the r x r core f* a g* = (f* f)(g g*)."""
    fact = rank_factorization(a)
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
