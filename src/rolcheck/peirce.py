"""Weight generation.

Weights commuting with a matrix and its star (sample_commutant), or also
fixing the products a four-way law names (sample_constrained), are drawn
from the kernel basis of the stacked linear system
`matrix_equation_basis` builds.  A certificate with n unknowns first writes the weight as a polynomial in one cyclic element of
the algebra the commute matrices generate; its rank modulo one prime (in
F_p, p itself) proves a generic kernel trivial (span(e), or {0} for the
four-way weight), so the exact solve runs only when the kernel may be
larger.  That rank is taken first on row 0 of each n x n block of the
system, n rows of blocks * n ints: a column subset, so its rank never
exceeds the whole system's, and reaching the bound there proves the whole
rank reaches it.  The whole system is reduced only when row 0 falls
short.  Its ranks and products mod the prime run on F_p's own kernels,
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


def _cyclic_element(commute, n, q):
    """H = m + lambda m' + mu m m' mod q, with m and m' the first and the
    last commute image, for the first (lambda, mu) in _CANDIDATES whose
    Krylov matrix [e1, H e1, ..., H^(n-1) e1] has rank n mod q, or None
    when none has."""
    first, last = commute[0], commute[-1]
    product = matmul_mod(first, last, n, n, n, q)
    for lam, mu in _CANDIDATES:
        h = [(x + lam * y + mu * z) % q for x, y, z in zip(first, last, product)]
        krylov = [[1] + [0] * (n - 1)]
        for _ in range(n - 1):
            krylov.append(matmul_mod(h, krylov[-1], n, n, 1, q))
        if len(row_reduce_mod(krylov, q)[1]) == n:
            return h
    return None


def _system_rows(h, commute, lefts, rights, n, kept, q):
    """The n rows of the certificate's system in x, cut to the first `kept`
    rows of each n x n block.  Row k holds those rows of H^k m - m H^k for
    each commute image m, of l H^k for each l in lefts and of H^k r for
    each r in rights, each row-major; kept = n gives the whole system.

    Row i of H^k m - m H^k is (e_i' H^k) m - (row i of m) H^k, so the kept
    rows of H^k, of each m H^k and of each l H^k are carried from k to
    k + 1 by one kept x n by n x n product with H each.  The columns of H,
    of each m and of each r are sliced once, for all n steps."""
    size = kept * n
    power = [int(i == j) for i in range(kept) for j in range(n)]
    carried = [power] + [m[:size] for m in commute] + [l[:size] for l in lefts]
    h_cols = columns(h, n)
    commute_cols = [columns(m, n) for m in commute]
    right_cols = [columns(r, n) for r in rights]
    rows = []
    for k in range(n):
        if k:
            carried = [matmul_columns_mod(x, h_cols, kept, n, q) for x in carried]
        power, *moved = carried
        row = []
        for m_cols, mh in zip(commute_cols, moved):
            row += [(u - v) % q
                    for u, v in zip(matmul_columns_mod(power, m_cols, kept, n, q), mh)]
        for lh in moved[len(commute):]:
            row += lh
        for r_cols in right_cols:
            row += matmul_columns_mod(power, r_cols, kept, n, q)
        rows.append(row)
    return rows


def _cyclic_certificate(n, domain, commute_with, left_zero, right_zero, stop) -> bool:
    """Whether the kernel of matrix_equation_basis's system is proved to be
    its known part, of dimension n - stop.

    Each given matrix m goes to F_q once, from its form, through
    `domain.residues`, which gives the image of D m for D the common
    denominator of m; D m has the same solutions as m.  `_cyclic_element`
    picks H, a cyclic element mod q of the algebra the commute matrices
    generate; without one, or without commute matrices, the certificate
    declines.  Writing c = sum x_k H^k, row k of the system in x is
    vec(H^k m - m H^k) for each commute matrix, then vec(l H^k) for each l
    in left_zero and vec(H^k r) for each r in right_zero.  These n rows
    are the transpose of the n-column system, so their rank mod q is its
    rank; the certificate fires when it reaches `stop`.  The rank is taken
    first on row 0 of every block (`_system_rows` with kept = 1: n rows of
    blocks * n ints), and on all n rows of each block only when that falls
    short.  Each rank is the pivot count of `row_reduce_mod`, and each
    product is `matmul_mod`, the kernels of F_p's row_reduce and matmul."""
    # Why a full rank is enough.  H is the image of an element of the
    # algebra the commute matrices generate over the domain, so every
    # solution c commutes with it.  A nonzero minor mod q lifts to a nonzero
    # minor over Z[i] (over F_p it is one), because `residues` is a ring
    # map, so the rank over the domain also reaches stop: the only x in the
    # kernel are the known ones (x = e1 for span(e), none for {0}).  Then
    # e, H, ..., H^(n-1) are linearly independent, since a dependency
    # sum x_k H^k = 0 would be one more kernel vector.  So H is
    # nonderogatory over the domain, and its commutant, which holds every
    # solution, is span(e, H, ..., H^(n-1)) (Horn & Johnson, Matrix
    # Analysis, 3.2.4).  Every solution is thus sum x_k H^k with x in the
    # kernel, and lies in the known span.  The Krylov test only ends the
    # search early, so that the first cyclic candidate is final; soundness
    # does not rest on it.
    #
    # Why row 0 of each block is enough once its rank reaches stop.  That
    # system is a column subset of the whole one, and dropping columns never
    # raises a rank, so the whole rank reaches stop too.  Neither passes
    # stop: the whole system has n rows, and without zero blocks its row
    # k = 0 (H^0 = e) is zero.  So the certificate fires exactly where the
    # whole system's rank reaches stop, and the whole system is reduced
    # only when the one-row rank falls short of it.
    if not commute_with:
        return False
    commute, q = domain.residues([m.form for m in commute_with])
    h = _cyclic_element(commute, n, q)
    if h is None:
        return False
    lefts = domain.residues([l.form for l in left_zero])[0]
    rights = domain.residues([r.form for r in right_zero])[0]
    for kept in sorted({1, n}):
        rows = _system_rows(h, commute, lefts, rights, n, kept, q)
        if len(row_reduce_mod(rows, q)[1]) == stop:
            return True
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
