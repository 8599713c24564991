"""Peirce block decompositions, K-inverses, and commutant sampling.

A pair of idempotents (p, q) splits any x into four corner components

    x1 = p x q,  x2 = p x (e - q),  x3 = (e - p) x q,  x4 = (e - p) x (e - q)

with x = x1 + x2 + x3 + x4.  K-inverses are candidates satisfying the
Penrose equations named by K; the {1,3} and {1,4} families are sampled
through their affine parametrizations around the Moore-Penrose inverse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DimensionMismatch, EmptyK, NotIdempotent
from .geninv import mp_inverse, penrose_equations
from .matrices import Matrix, nullspace_basis


@dataclass(frozen=True)
class PeirceBlocks:
    """The four components of an element relative to idempotents (p, q)."""

    x1: Matrix
    x2: Matrix
    x3: Matrix
    x4: Matrix
    p: Matrix
    q: Matrix

    def reassemble(self) -> Matrix:
        return self.x1 + self.x2 + self.x3 + self.x4


def peirce_blocks(x: Matrix, p: Matrix, q: Matrix) -> PeirceBlocks:
    """Decompose x against idempotents p (left) and q (right)."""
    if p.rows != p.cols or q.rows != q.cols:
        raise DimensionMismatch("idempotents must be square")
    if x.rows != p.rows or x.cols != q.rows:
        raise DimensionMismatch(f"{x.shape} does not fit between {p.shape} and {q.shape}")
    x._same_domain(p)
    x._same_domain(q)
    if p @ p != p:
        raise NotIdempotent("p is not idempotent")
    if q @ q != q:
        raise NotIdempotent("q is not idempotent")
    p_c = Matrix.identity(p.rows, p.domain) - p
    q_c = Matrix.identity(q.rows, q.domain) - q
    return PeirceBlocks(
        x1=p @ x @ q,
        x2=p @ x @ q_c,
        x3=p_c @ x @ q,
        x4=p_c @ x @ q_c,
        p=p,
        q=q,
    )


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


@dataclass(frozen=True)
class ParamContext13:
    """Data for the block form of the {1,3}-inverse family of a
    relative to a companion b: d = a a*, p = b b+, q = b+ b, r = a a+."""

    a: Matrix
    d: Matrix
    d_dagger: Matrix
    p: Matrix
    q: Matrix
    r: Matrix


def param_context_13(a: Matrix, b: Matrix) -> ParamContext13:
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise DimensionMismatch(f"need equal square shapes, got {a.shape} and {b.shape}")
    a._same_domain(b)
    a_dag = mp_inverse(a)
    b_dag = mp_inverse(b)
    d = a @ a.star()
    return ParamContext13(
        a=a,
        d=d,
        d_dagger=a_dag.star() @ a_dag,  # (a a*)+ = (a+)* a+
        p=b @ b_dag,
        q=b_dag @ b,
        r=a @ a_dag,
    )


def structured_13_blocks(ctx: ParamContext13, x_blocks: PeirceBlocks) -> PeirceBlocks:
    """Block form of a+ + (e - a+ a) x against the idempotents (p, r).

    With a1 = r a p, a2 = r a (e - p) and t_i = a_i* d+:

        z1 = t1 + (e - t1 a1) x1 - t1 a2 x3
        z2 = (e - t1 a1) x2 - t1 a2 x4
        z3 = t2 - t2 a1 x1 + (e - t2 a2) x3
        z4 = - t2 a1 x2 + (e - t2 a2) x4

    The reassembled z1 + z2 + z3 + z4 equals the flat parametrization
    exactly, for every x."""
    p, r = ctx.p, ctx.r
    if p @ p != p or r @ r != r:
        raise NotIdempotent("context idempotents are not idempotent")
    if x_blocks.p != p or x_blocks.q != r:
        raise ValueError("x_blocks must be decomposed relative to (p, r)")
    e = Matrix.identity(ctx.a.rows, ctx.a.domain)
    a1 = r @ ctx.a @ p
    a2 = r @ ctx.a @ (e - p)
    t1 = a1.star() @ ctx.d_dagger
    t2 = a2.star() @ ctx.d_dagger
    z1 = t1 + (e - t1 @ a1) @ x_blocks.x1 - t1 @ a2 @ x_blocks.x3
    z2 = (e - t1 @ a1) @ x_blocks.x2 - t1 @ a2 @ x_blocks.x4
    z3 = t2 - t2 @ a1 @ x_blocks.x1 + (e - t2 @ a2) @ x_blocks.x3
    z4 = (e - t2 @ a2) @ x_blocks.x4 - t2 @ a1 @ x_blocks.x2
    return PeirceBlocks(x1=z1, x2=z2, x3=z3, x4=z4, p=p, q=r)


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
