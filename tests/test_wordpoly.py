"""WordMatrix, the matrix polynomials behind the exact inclusion decision.

Random expressions in two parameters Y and Z and constant matrices are
built twice, once on WordMatrix parameters and once on concrete
matrices.  Substituting the concrete values into the word polynomial,
by the evaluator below, must give the Matrix result.  is_zero must agree
with evaluation at every combination of wordpoly.basis_points, which
determine a polynomial of degree at most one in each parameter.
"""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rolcheck import GAUSSIAN_RATIONAL, Matrix, prime_field
from rolcheck.matrices import random_matrix
from rolcheck.wordpoly import WordMatrix, basis_points

G = GAUSSIAN_RATIONAL
DOMAINS = (G, prime_field(5))


def substitute(w: WordMatrix, values: dict) -> Matrix:
    """Sum over the words of C0 X1 C1 ... Xk Ck with each letter replaced
    by its parameter's value, or that value's star."""
    total = Matrix.zeros(w.rows, w.cols, w.domain)
    for coeffs, letters in w.words:
        term = coeffs[0]
        for (name, starred), coeff in zip(letters, coeffs[1:]):
            value = values[name].star() if starred else values[name]
            term = term @ value @ coeff
        total = total + term
    return total


# An expression is ("Y",), ("Z",), ("const", k), ("star", x), ("neg", x)
# or (op, x, y) for op in "+", "-", "@".
_expressions = st.recursive(
    st.one_of(st.just(("Y",)), st.just(("Z",)), st.tuples(st.just("const"), st.integers(0, 2))),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["star", "neg"]), inner),
        st.tuples(st.sampled_from(["+", "-", "@"]), inner, inner),
    ),
    max_leaves=6,
)


def evaluate(expr, y, z, constants):
    head = expr[0]
    if head == "Y":
        return y
    if head == "Z":
        return z
    if head == "const":
        return constants[expr[1]]
    if head == "star":
        return evaluate(expr[1], y, z, constants).star()
    if head == "neg":
        return -evaluate(expr[1], y, z, constants)
    left = evaluate(expr[1], y, z, constants)
    right = evaluate(expr[2], y, z, constants)
    return {"+": left + right, "-": left - right, "@": left @ right}[head]


def _multilinear(w: WordMatrix) -> bool:
    return all(len({name for name, _ in letters}) == len(letters) for _, letters in w.words)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(1, 2), _expressions, st.randoms(use_true_random=False))
def test_substitution_matches_matrix_arithmetic(domain, n, expr, rng):
    constants = [random_matrix(domain, n, n, rng) for _ in range(3)]
    y_param = WordMatrix.parameter("Y", n, n, domain)
    z_param = WordMatrix.parameter("Z", n, n, domain)
    w = evaluate(expr, y_param, z_param, constants)
    if isinstance(w, Matrix):  # the expression has no parameter
        w = WordMatrix(n, n, domain, [((w,), ())])
    y, z = random_matrix(domain, n, n, rng), random_matrix(domain, n, n, rng)
    assert substitute(w, {"Y": y, "Z": z}) == evaluate(expr, y, z, constants)
    if not _multilinear(w):
        return
    zero = Matrix.zeros(n, n, domain)
    points = basis_points(n, n, domain)
    vanishes = all(substitute(w, {"Y": py, "Z": pz}) == zero for py in points for pz in points)
    assert w.is_zero() == vanishes
    assert (w == w) and (w - w).is_zero()


def test_star_is_linear_only_over_prime_fields():
    # For 1 x 1 parameters Y* = Y over F_p, while y - conj(y) is not zero
    # over Q(i), and only the point i shows it; for 2 x 2 parameters
    # Y* = Y^T differs from Y.
    for n, expected in ((1, {G: False, prime_field(5): True}), (2, {G: False, prime_field(5): False})):
        for domain, zero in expected.items():
            y = WordMatrix.parameter("Y", n, n, domain)
            assert (y - y.star()).is_zero() is zero
            assert y.is_hermitian() is zero
            values = [substitute(y - y.star(), {"Y": p}) for p in basis_points(n, n, domain)]
            assert all(v.is_zero() for v in values) is zero


def test_transpose_pairs_cancel_over_prime_fields():
    # (C Y D)^T = D^T Y^T C^T over F_p: the words pair indices differently
    # and are compared entry by entry.
    f5 = prime_field(5)
    c = Matrix.from_rows([[1, 2], [3, 4]], f5)
    d = Matrix.from_rows([[0, 1], [2, 1]], f5)
    y = WordMatrix.parameter("Y", 2, 2, f5)
    z = WordMatrix.parameter("Z", 2, 2, f5)
    assert (c @ y @ d).star() == d.star() @ y.star() @ c.star()
    assert (c @ y @ d @ z).star() == z.star() @ d.star() @ y.star() @ c.star()
    assert (c @ y @ d).star() != d @ y.star() @ c.star()


def test_independent_coefficients_are_reduced():
    # Y C + Y D - Y (C + D) = 0, but Y C + Y D - Y (C + 2D) is not.
    c = Matrix.from_rows([[1, 0], [2, 1]], G)
    d = Matrix.from_rows([[0, 1], [1, 0]], G)
    y = WordMatrix.parameter("Y", 2, 2, G)
    z = WordMatrix.parameter("Z", 2, 2, G)
    assert (y @ c + y @ d - y @ (c + d)).is_zero()
    assert not (y @ c + y @ d - y @ (c + d.scale(2))).is_zero()
    assert (c @ y @ d @ z + d @ y @ c @ z - (c @ y @ d + d @ y @ c) @ z).is_zero()


_CHECKS_SCRIPT = """
import sys
import rolcheck.laws as laws
from rolcheck import GAUSSIAN_RATIONAL as G, DimensionMismatch, DomainMismatch, LawId, Matrix, prime_field
from rolcheck.wordpoly import WordMatrix

print("optimize:", sys.flags.optimize)
y = WordMatrix.parameter("Y", 2, 2, G)
for name, attempt, error in (
    ("degree", lambda: (y @ y).is_zero(), ValueError),
    ("shape", lambda: y + Matrix.identity(3, G), DimensionMismatch),
    ("domain", lambda: y @ Matrix.identity(2, prime_field(5)), DomainMismatch),
):
    try:
        attempt()
    except error:
        print("caught:", name)
laws.is_k_inverse = lambda a, x, k: True
e = Matrix.identity(2, G)
try:
    laws._basis_witness(laws.LAWS[LawId.T32].inclusion[1], laws.LawContext(e, e, e))
except RuntimeError:
    print("caught: basis witness")
"""


def test_decider_checks_survive_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-O", "-c", _CHECKS_SCRIPT],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "optimize: 1", "caught: degree", "caught: shape", "caught: domain",
        "caught: basis witness",
    ]
