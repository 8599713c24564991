"""The {1,3} and {1,4} families of one matrix's K-inverses, built from
the matrix alone.  The checker parametrizes the K-inverses of a law's
pair in laws._k_inverses, from the blanket elements of a LawContext;
the tests hold the two against each other.
"""

from rolcheck import DimensionMismatch, Matrix, mp_inverse


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
