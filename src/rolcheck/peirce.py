"""K-inverses, their {1,3} and {1,4} parametrizations, and weight generation.

A K-inverse of a satisfies the Penrose equations named by K.  Every
{1,3}-inverse of a is a+ + (e - a+ a) x and every {1,4}-inverse is
a+ + x (e - a a+) for some x.  Weights commuting with a matrix and its
star, or solving a law's weight conditions, are drawn from the kernel
basis of the stacked linear system `matrix_equation_basis` builds.
"""

from __future__ import annotations

import random

from .errors import DimensionMismatch, EmptyK
from .geninv import mp_inverse, penrose_equations
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


def sample_13_inverse(a: Matrix, x: Matrix) -> Matrix:
    """a+ + (e - a+ a) x: always a {1,3}-inverse of a, and every
    {1,3}-inverse arises this way (take x = candidate - a+)."""
    a_dag = mp_inverse(a)
    if x.shape != a_dag.shape:
        raise DimensionMismatch(f"parameter must have shape {a_dag.shape}, got {x.shape}")
    x._same_domain(a)
    e = Matrix.identity(a.cols, a.domain)
    return a_dag + (e - a_dag @ a) @ x


def sample_14_inverse(a: Matrix, x: Matrix) -> Matrix:
    """Dual parametrization a+ + x (e - a a+); star maps the {1,4} family
    of a onto the {1,3} family of a*."""
    a_dag = mp_inverse(a)
    if x.shape != a_dag.shape:
        raise DimensionMismatch(f"parameter must have shape {a_dag.shape}, got {x.shape}")
    x._same_domain(a)
    e = Matrix.identity(a.rows, a.domain)
    return a_dag + x @ (e - a @ a_dag)


def matrix_equation_basis(n, domain, commute_with=(), left_zero=(), right_zero=()):
    """Basis of {c : c m = m c, l c = 0, c r = 0 for the given matrices}.

    Each condition is one block of n*n equations c right - left c = 0
    (right = left = m, or a missing side for l and r).  The unknown c is
    vectorized by column stacking (c[u][v] sits at index v*n + u), the
    stacked linear system is solved by nullspace_basis, and each kernel
    vector is folded back into a matrix.  Fixed ordering keeps the basis
    reproducible under a seed."""
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
    system = Matrix(len(rows), size, domain, [v for row in rows for v in row])
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


def sample_commutant(b: Matrix, seed: int) -> Matrix:
    """Random element commuting with both b and b*.

    Solves the stacked system {c b = b c, c b* = b* c} and draws a random
    rational combination of its kernel basis.  The commutant always
    contains the scalar multiples of the identity; a zero draw falls back
    to the identity so the result is usable as a weight."""
    if b.rows != b.cols:
        raise DimensionMismatch(f"commutant of a non-square matrix {b.shape}")
    basis = matrix_equation_basis(b.rows, b.domain, commute_with=(b, b.star()))
    rng = random.Random(seed)
    c = random_combination(basis, b.domain, rng)
    if c is None or c.is_zero():
        return Matrix.identity(b.rows, b.domain)
    return c
