"""The generic Gauss-Jordan rref that matrices.rref used before its
domain kernels, kept verbatim as the independent reference for
tests/test_rref_kernels.py.  It works on scalar objects through their
public operations only, so it shares no code with the kernels."""

from rolcheck.matrices import Matrix


def rref(a: Matrix):
    """Reduced row echelon form with first-nonzero pivoting.

    Exact arithmetic makes pivot choice correctness-neutral, so the
    deterministic scan keeps results reproducible.  Returns the RREF and
    the tuple of pivot columns.
    """
    m = [list(a.row(i)) for i in range(a.rows)]
    pivots = []
    r = 0
    for c in range(a.cols):
        pivot_row = None
        for i in range(r, a.rows):
            if not m[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c].inv()
        m[r] = [inv * v for v in m[r]]
        for i in range(a.rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == a.rows:
            break
    flat = [v for row in m for v in row]
    return Matrix(a.rows, a.cols, a.domain, flat), tuple(pivots)
