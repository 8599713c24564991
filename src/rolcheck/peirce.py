"""K-inverse membership and weight generation.

A K-inverse of a satisfies the Penrose equations named by K; the
{1,3}- and {1,4}-inverses the laws quantify over are parametrized in
laws._k_inverses.  Weights commuting with a matrix and its star
(sample_commutant), or also fixing the products a four-way law names
(sample_constrained), are drawn from the kernel basis of the stacked
linear system `matrix_equation_basis` builds.  A
rank computed modulo one prime (in F_p, p itself) first proves a generic
kernel trivial (span(e), or {0} for the four-way weight), so the exact
solve runs only when the kernel may be larger.
"""

from __future__ import annotations

import random

from .errors import DimensionMismatch, EmptyK
from .geninv import penrose_equations
from .matrices import Matrix, nullspace_basis


def is_k_inverse(a: Matrix, x: Matrix, k) -> bool:
    """Membership of x in aK: x satisfies Penrose equation (j) for each j in K.

    K = {} is rejected; a vacuous membership test silently passing
    everything is a bug magnet for the set-inclusion laws."""
    ks = frozenset(k)
    if not ks:
        raise EmptyK("K must name at least one Penrose equation")
    if not ks <= {1, 2, 3, 4}:
        raise ValueError(f"K must be a subset of {{1, 2, 3, 4}}, got {sorted(ks)}")
    return all(penrose_equations(a, x, ks).values())


def _equation_system(n, domain, commute_with=(), left_zero=(), right_zero=()) -> Matrix:
    """The stacked linear system whose kernel matrix_equation_basis returns.

    Each condition is one block of n*n equations c right - left c = 0
    (right = left = m, or a missing side for l and r).  The unknown c is
    vectorized by column stacking: c[u][v] sits at index v*n + u."""
    size = n * n
    zero = domain.zero()
    blocks = [(m, m) for m in commute_with]
    blocks += [(None, l) for l in left_zero]
    blocks += [(r, None) for r in right_zero]
    rows = []
    for right, left in blocks:
        for j in range(n):
            for i in range(n):
                row = [zero] * size
                for t in range(n):
                    if right is not None:
                        row[t * n + i] = row[t * n + i] + right[t, j]
                    if left is not None:
                        row[j * n + t] = row[j * n + t] - left[i, t]
                rows.append(row)
    return Matrix(len(rows), size, domain, [v for row in rows for v in row])


def _rank_mod_p(system: Matrix, stop: int) -> int:
    """Rank mod p of the system, counted up to `stop`.

    The domain maps the rows to ints mod its prime p (`residues`), then
    forward elimination runs until the rank reaches `stop`.  The result
    never exceeds the rank over the domain, and over F_p it is that rank.
    Columns are dropped from the front as they are eliminated, so column 0
    of every row is the current column."""
    rows, p = system.domain.residues([system.row(i) for i in range(system.rows)])
    rank = 0
    for _ in range(system.cols):
        if rank == stop:
            break
        k = next((k for k, x in enumerate(rows) if x[0]), None)
        if k is None:
            rows = [x[1:] for x in rows]
            continue
        y = rows.pop(k)
        inv = pow(y[0], -1, p)
        y = [v * inv % p for v in y[1:]]
        rest = []
        for x in rows:
            f = x[0]
            rest.append([(a - f * b) % p for a, b in zip(x[1:], y)] if f else x[1:])
        rows = rest
        rank += 1
    return rank


def matrix_equation_basis(n, domain, commute_with=(), left_zero=(), right_zero=()):
    """Basis of {c : c m = m c, l c = 0, c r = 0 for the given matrices}.

    The kernel of the stacked system `_equation_system` builds, each kernel
    vector folded back into a matrix.  Fixed ordering keeps the basis
    reproducible under a seed.

    The known kernel is span(e) when there are only commute blocks, and {0}
    once a zero block is given.  A rank certificate runs first: if the
    system's rank mod p reaches n*n minus the known dimension, the rank
    over the domain is that too, the kernel is exactly the known span, and
    the known basis is returned.  It is the basis nullspace_basis gives:
    its one free column, n*n - 1, is the last diagonal entry of e.  Any
    other rank mod p proves nothing, and the exact solve runs."""
    system = _equation_system(n, domain, commute_with, left_zero, right_zero)
    known = [] if left_zero or right_zero else [Matrix.identity(n, domain)]
    full = n * n - len(known)
    if _rank_mod_p(system, full) == full:
        return known
    basis = []
    for vec in nullspace_basis(system):
        entries = [vec.entries[j * n + i] for i in range(n) for j in range(n)]
        basis.append(Matrix(n, n, domain, entries))
    return basis


def random_combination(basis, domain, rng) -> Matrix:
    """Random small-coefficient combination of basis matrices."""
    acc = None
    for m in basis:
        coeff = domain.sample_coefficient(rng)
        term = m.scale(coeff)
        acc = term if acc is None else acc + term
    return acc


def sample_constrained(m: Matrix, left_zero, right_zero, rng) -> Matrix:
    """Weight c = e + y for a four-way law: y commutes with m and m*, l y = 0
    for l in left_zero and y r = 0 for r in right_zero, the products the
    law's LawSpec.weight_zero names.  c = e when only y = 0 solves that."""
    basis = matrix_equation_basis(m.rows, m.domain, commute_with=(m, m.star()),
                                  left_zero=left_zero, right_zero=right_zero)
    e = Matrix.identity(m.rows, m.domain)
    return e + random_combination(basis, m.domain, rng) if basis else e


def sample_commutant(b: Matrix, seed: int) -> Matrix:
    """Random element commuting with both b and b*.

    Takes the kernel basis of the stacked system {c b = b c, c b* = b* c}
    from matrix_equation_basis (usually [e], certified without the exact
    solve) and draws a random combination of it.  The
    commutant always contains the scalar multiples of the identity; a zero
    draw falls back to the identity so the result is usable as a weight."""
    if b.rows != b.cols:
        raise DimensionMismatch(f"commutant of a non-square matrix {b.shape}")
    basis = matrix_equation_basis(b.rows, b.domain, commute_with=(b, b.star()))
    rng = random.Random(seed)
    c = random_combination(basis, b.domain, rng)
    if c is None or c.is_zero():
        return Matrix.identity(b.rows, b.domain)
    return c
