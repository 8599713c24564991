"""Weight generation.

Weights commuting with a matrix and its star (sample_commutant), or also
fixing the products a four-way law names (sample_constrained), are drawn
from the kernel basis of the stacked linear system
`matrix_equation_basis` builds.  A certificate with n unknowns first
writes the weight as a polynomial in one cyclic element H of the algebra
the commute matrices generate.  Its rank modulo one prime (in F_p, p
itself), taken on row 0 of each n x n block of that system, proves a
generic kernel trivial (span(e), or {0} for the four-way weight), so the
exact solve runs only when the kernel may be larger.  The powers e1' H^k
that build those rows also pick H among a few fixed candidates.  Its
ranks and products mod the prime run on F_p's own kernels,
`scalars.row_reduce_mod` and `scalars.matmul_mod`.
"""

from __future__ import annotations

import random

from .errors import DimensionMismatch
from .matrices import Matrix, nullspace_basis
from .scalars import columns, matmul_columns_mod, matmul_mod, row_reduce_mod


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


# (lambda, mu) of the candidates H = m + lambda m' + mu m m', where m and m'
# are the first and the last commute matrix: (b, b*) for every weight.
_CANDIDATES = ((1, 1), (2, 1), (1, 3), (3, 2))


def _system_rows(powers, h_cols, commute, lefts, rights, n, q):
    """Row 0 of each n x n block of the certificate's system in x.  Row k
    holds row 0 of H^k m - m H^k for each commute image m, of l H^k for
    each l in lefts and of H^k r for each r in rights.

    powers[k] is e1' H^k, and h_cols the `columns` of H.  Row 0 of
    H^k m - m H^k is (e1' H^k) m - (row 0 of m) H^k, so row 0 of each
    m H^k and each l H^k is carried from k to k + 1 by one 1 x n by n x n
    product with H.  The columns of each m and each r are sliced once."""
    carried = [m[:n] for m in commute] + [l[:n] for l in lefts]
    commute_cols = [columns(m, n) for m in commute]
    right_cols = [columns(r, n) for r in rights]
    rows = []
    for k, power in enumerate(powers):
        if k:
            carried = [matmul_columns_mod(x, h_cols, 1, n, q) for x in carried]
        row = []
        for m_cols, mh in zip(commute_cols, carried):
            row += [(u - v) % q for u, v in zip(matmul_columns_mod(power, m_cols, 1, n, q), mh)]
        for lh in carried[len(commute):]:
            row += lh
        for r_cols in right_cols:
            row += matmul_columns_mod(power, r_cols, 1, n, q)
        rows.append(row)
    return rows


def _cyclic_certificate(n, domain, commute_with, left_zero, right_zero, stop) -> bool:
    """Whether the kernel of matrix_equation_basis's system is proved to be
    its known part, of dimension n - stop.

    Each given matrix m goes to F_q once, from its form, through
    `domain.residues`, which gives the image of D m for D the common
    denominator of m; D m has the same solutions as m.  For each (lambda,
    mu) in _CANDIDATES in turn, H = m + lambda m' + mu m m' mod q, with m
    and m' the first and the last commute image, and its powers
    e1' H^k, k < n, are carried by one vector-matrix product each.  The
    first H whose n powers have rank n mod q is final: writing
    c = sum x_k H^k, row 0 of each n x n block of the system in x is
    built from those same powers (`_system_rows`), n rows of blocks * n
    ints, and the certificate fires when their rank reaches `stop`.
    Without such an H, or without commute matrices, it declines.  Each
    rank is the pivot count of `row_reduce_mod`, F_p's row_reduce kernel."""
    # Why a full rank is enough.  Row k of the whole system in x is
    # vec(H^k m - m H^k) for each commute matrix, then vec(l H^k) and
    # vec(H^k r) for the zero blocks: the transpose of its n-column
    # system.  The rows built here are a column subset of those, and
    # dropping columns never raises a rank, so when theirs reaches stop
    # the whole rank does too; the known kernel keeps both from passing
    # it.  H is the image of an element of the algebra the commute
    # matrices generate over the domain, so every solution c commutes
    # with it.  A nonzero minor mod q lifts to a nonzero minor over Z[i]
    # (over F_p it is one), because `residues` is a ring map, so the rank
    # over the domain also reaches stop: the only x in the kernel are the
    # known ones (x = e1 for span(e), none for {0}).  Then e, H, ...,
    # H^(n-1) are linearly independent, since a dependency sum x_k H^k = 0
    # would be one more kernel vector.  So H is nonderogatory over the
    # domain, and its commutant, which holds every solution, is
    # span(e, H, ..., H^(n-1)) (Horn & Johnson, Matrix Analysis, 3.2.4).
    # Every solution is thus sum x_k H^k with x in the kernel, and lies in
    # the known span.  The rank of the powers only picks the candidate;
    # soundness does not rest on it.
    if not commute_with:
        return False
    commute, q = domain.residues([m.form for m in commute_with])
    first, last = commute[0], commute[-1]
    product = matmul_mod(first, last, n, n, n, q)
    for lam, mu in _CANDIDATES:
        h = [(x + lam * y + mu * z) % q for x, y, z in zip(first, last, product)]
        h_cols = columns(h, n)
        powers = [[1] + [0] * (n - 1)]
        for _ in range(n - 1):
            powers.append(matmul_columns_mod(powers[-1], h_cols, 1, n, q))
        if len(row_reduce_mod(powers, q)[1]) == n:
            lefts = domain.residues([l.form for l in left_zero])[0]
            rights = domain.residues([r.form for r in right_zero])[0]
            rows = _system_rows(powers, h_cols, commute, lefts, rights, n, q)
            return len(row_reduce_mod(rows, q)[1]) == stop
    return False


def matrix_equation_basis(n, domain, commute_with=(), left_zero=(), right_zero=()):
    """Basis of {c : c m = m c, l c = 0, c r = 0 for the given matrices}.

    The kernel of the stacked system `_equation_system` builds, each kernel
    vector folded back into a matrix.  Fixed ordering keeps the basis
    reproducible under a seed.

    The known kernel is span(e) when there are only commute blocks, and {0}
    once a zero block is given.  A certificate with n unknowns runs first
    (`_cyclic_certificate`): it writes c as a polynomial in one cyclic
    element H of the algebra the commute matrices generate, and when the
    rank mod a prime of the resulting system proves the kernel is no
    larger than the known span, the known basis is returned.  It is the
    basis nullspace_basis gives: its one free column, n*n - 1, is the last
    diagonal entry of e.  A decline proves nothing, and the exact solve
    runs, so it costs time, never a different basis."""
    known = [] if left_zero or right_zero else [Matrix.identity(n, domain)]
    if _cyclic_certificate(n, domain, commute_with, left_zero, right_zero, n - len(known)):
        return known
    system = _equation_system(n, domain, commute_with, left_zero, right_zero)
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
