"""Two routes to the Moore-Penrose inverse apart from MacDuffee's formula
in geninv.mp_inverse, for the tests to compare with it: the star-group
construction and the characterization of Proposition 2.1.
"""

from rolcheck import (
    DimensionMismatch,
    Matrix,
    NoMPInverse,
    NotGroupInvertible,
    group_inverse,
    mp_exists,
)


def mp_via_star_group(a: Matrix) -> Matrix:
    """Cross-check route: a+ = (a* a)# a*.

    Must agree exactly with mp_inverse by uniqueness of the
    Moore-Penrose inverse."""
    if not mp_exists(a):
        raise NoMPInverse(f"no Moore-Penrose inverse over {a.domain.name}")
    try:
        return group_inverse(a.star() @ a) @ a.star()
    except NotGroupInvertible as exc:
        raise NoMPInverse(str(exc)) from exc


def prop21_check(a: Matrix, b: Matrix) -> bool:
    """Alternate characterization: b = a+ iff a = a a* b* and b* = a b b*."""
    if b.rows != a.cols or b.cols != a.rows:
        raise DimensionMismatch(f"candidate {b.shape} does not fit {a.shape}")
    a._same_domain(b)
    b_star = b.star()
    return a == a @ a.star() @ b_star and b_star == a @ b @ b_star
