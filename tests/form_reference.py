"""The entry loops Matrix ran on scalar objects before it stored integer
forms, kept as the independent reference for tests/test_form_ops.py.
They work on scalar objects through their public operations only, so
they share no code with the form operations in rolcheck.scalars.  The
random draws build each entry from its Fractions, as they did before a
matrix was drawn straight as a form."""

from fractions import Fraction

from rolcheck.errors import DimensionMismatch, Singular
from rolcheck.matrices import Matrix
from rolcheck.scalars import GAUSSIAN_RATIONAL, GaussianRational, PrimeFieldElement
from rref_reference import rref


def _fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))


def sample(domain, rng):
    """A random small element: over Q(i) a real part, then an imaginary
    part, each a numerator in [-5, 5] over a denominator in {1, 2, 3};
    over F_p a value in [0, p)."""
    if domain == GAUSSIAN_RATIONAL:
        return GaussianRational(_fraction(rng), _fraction(rng))
    return PrimeFieldElement(rng.randrange(domain.p), domain.p)


def sample_coefficient(domain, rng):
    """A random real coefficient over Q(i), drawn as one part of `sample`."""
    return GaussianRational(_fraction(rng))


def random_matrix(domain, rows, cols, rng) -> Matrix:
    return Matrix(rows, cols, domain, [sample(domain, rng) for _ in range(rows * cols)])


def add(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.rows, a.cols, a.domain, [x + y for x, y in zip(a.entries, b.entries)])


def sub(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.rows, a.cols, a.domain, [x - y for x, y in zip(a.entries, b.entries)])


def neg(a: Matrix) -> Matrix:
    return Matrix(a.rows, a.cols, a.domain, [-x for x in a.entries])


def scale(a: Matrix, coeff) -> Matrix:
    coeff = a.domain.coerce(coeff)
    return Matrix(a.rows, a.cols, a.domain, [coeff * x for x in a.entries])


def star(a: Matrix) -> Matrix:
    return Matrix(a.cols, a.rows, a.domain,
                  [a.entries[i * a.cols + j].conj()
                   for j in range(a.cols) for i in range(a.rows)])


def equal(a: Matrix, b: Matrix) -> bool:
    return a.domain == b.domain and a.shape == b.shape and a.entries == b.entries


def is_zero(a: Matrix) -> bool:
    return all(x.is_zero() for x in a.entries)


def is_hermitian(a: Matrix) -> bool:
    if a.rows != a.cols:
        return False
    for i in range(a.rows):
        for j in range(i, a.cols):
            if a.entries[i * a.cols + j] != a.entries[j * a.cols + i].conj():
                return False
    return True


def is_identity(a: Matrix) -> bool:
    if a.rows != a.cols:
        return False
    o, z = a.domain.one(), a.domain.zero()
    return all(a.entries[i * a.cols + j] == (o if i == j else z)
               for i in range(a.rows) for j in range(a.cols))


def inverse(a: Matrix) -> Matrix:
    """Gauss-Jordan on [a | e] by the reference rref."""
    if a.rows != a.cols:
        raise DimensionMismatch(f"inverse of non-square {a.shape}")
    n = a.rows
    o, z = a.domain.one(), a.domain.zero()
    aug = []
    for i in range(n):
        aug.extend(a.row(i))
        aug.extend(o if i == j else z for j in range(n))
    reduced, pivots = rref(Matrix(n, 2 * n, a.domain, aug))
    if pivots != tuple(range(n)):
        raise Singular("rank deficient")
    return Matrix(n, n, a.domain, [reduced.entries[i * 2 * n + n + j]
                                   for i in range(n) for j in range(n)])
