import random

import pytest

from rolcheck import (
    GAUSSIAN_RATIONAL,
    EmptyK,
    Matrix,
    is_k_inverse,
    mp_inverse,
    prime_field,
    sample_commutant,
)
from rolcheck.geninv import commutes_with_pair
from rolcheck.harness import random_matrix_of_rank
from rolcheck.matrices import inverse, random_matrix
from k_inverse_reference import sample_13_inverse, sample_14_inverse

G = GAUSSIAN_RATIONAL
F5 = prime_field(5)


def test_is_k_inverse_examples():
    i2 = Matrix.identity(2, G)
    assert is_k_inverse(i2, i2, {1, 2, 3, 4})
    a = Matrix.from_rows([[1, 1], [0, 0]], G)
    assert is_k_inverse(a, Matrix.from_rows([["1/2", 0], ["1/2", 0]], G), {1, 2, 3, 4})
    # AX = [[2,0],[0,0]] is hermitian but AXA != A
    x = Matrix.from_rows([[1, 0], [1, 0]], G)
    assert is_k_inverse(a, x, {3}) and not is_k_inverse(a, x, {1})
    assert not is_k_inverse(a, x, {1, 3})
    with pytest.raises(EmptyK):
        is_k_inverse(a, x, set())
    with pytest.raises(ValueError):
        is_k_inverse(a, x, {1, 5})


def test_sample_13_inverse_properties():
    rng = random.Random(22)
    inv = Matrix.from_rows([[1, 1], [0, 1]], G)
    x = random_matrix(G, 2, 2, rng)
    assert sample_13_inverse(inv, x) == inverse(inv)

    a = Matrix.from_rows([[1, 1], [0, 0]], G)
    a_dag = mp_inverse(a)
    assert sample_13_inverse(a, Matrix.zeros(2, 2, G)) == a_dag
    for _ in range(100):
        x = random_matrix(G, 2, 2, rng)
        out = sample_13_inverse(a, x)
        assert is_k_inverse(a, out, {1, 3})
        assert a @ out == a @ a_dag


def test_sample_14_and_duality():
    rng = random.Random(23)
    a = Matrix.from_rows([[1, 1], [0, 0]], G)
    assert sample_14_inverse(a, Matrix.zeros(2, 2, G)) == mp_inverse(a)
    for _ in range(50):
        n = rng.randint(1, 3)
        a = random_matrix_of_rank(G, n, n, rng.randint(0, n), rng)
        x = random_matrix(G, n, n, rng)
        out = sample_14_inverse(a, x)
        assert is_k_inverse(a, out, {1, 4})
        # star maps the {1,4} family onto the {1,3} family of a*
        assert out.star() == sample_13_inverse(a.star(), x.star())
        assert is_k_inverse(a.star(), out.star(), {1, 3})
        # and back: the star of a sampled {1,3}-inverse of a* lands in a{1,4}
        y = sample_13_inverse(a.star(), random_matrix(G, n, n, rng))
        assert is_k_inverse(a, y.star(), {1, 4})


def test_one_three_family_is_exactly_ax_equals_aadag():
    rng = random.Random(24)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = random_matrix_of_rank(G, rows, cols, rng.randint(0, min(rows, cols)), rng)
        a_dag = mp_inverse(a)
        x = random_matrix(G, cols, rows, rng)
        out = sample_13_inverse(a, x)
        assert a @ out == a @ a_dag
        # and conversely: any y with a y = a a+ is reached by the residue y - a+
        y = a_dag + _kernel_completion(a, rng)
        assert a @ y == a @ a_dag
        assert is_k_inverse(a, y, {1, 3})
        assert sample_13_inverse(a, y - a_dag) == y


def _kernel_completion(a, rng):
    """Random matrix whose columns lie in ker(a), built by linear solving."""
    from rolcheck.matrices import nullspace_basis

    basis = nullspace_basis(a)
    out = Matrix.zeros(a.cols, a.rows, G)
    for v in basis:
        row = random_matrix(G, 1, a.rows, rng)
        out = out + v @ row
    return out


def _corners(x, p, q):
    """The corners p x q, p x (e - q), (e - p) x q, (e - p) x (e - q) of x
    against idempotents p and q; they sum to x."""
    e = Matrix.identity(x.rows, x.domain)
    return p @ x @ q, p @ x @ (e - q), (e - p) @ x @ q, (e - p) @ x @ (e - q)


def _structured_13_blocks(a, b, x):
    """Corners of a+ + (e - a+ a) x against p = b b+ and r = a a+, from
    the block formula: with a1 = r a p, a2 = r a (e - p), d = a a* and
    t_i = a_i* d+,

        z1 = t1 + (e - t1 a1) x1 - t1 a2 x3
        z2 = (e - t1 a1) x2 - t1 a2 x4
        z3 = t2 - t2 a1 x1 + (e - t2 a2) x3
        z4 = - t2 a1 x2 + (e - t2 a2) x4

    where x1..x4 are the corners of x."""
    e = Matrix.identity(a.rows, a.domain)
    a_dag = mp_inverse(a)
    p = b @ mp_inverse(b)
    r = a @ a_dag
    d_dag = a_dag.star() @ a_dag  # (a a*)+ = (a+)* a+
    a1 = r @ a @ p
    a2 = r @ a @ (e - p)
    t1 = a1.star() @ d_dag
    t2 = a2.star() @ d_dag
    x1, x2, x3, x4 = _corners(x, p, r)
    return (
        t1 + (e - t1 @ a1) @ x1 - t1 @ a2 @ x3,
        (e - t1 @ a1) @ x2 - t1 @ a2 @ x4,
        t2 - t2 @ a1 @ x1 + (e - t2 @ a2) @ x3,
        (e - t2 @ a2) @ x4 - t2 @ a1 @ x2,
    )


def test_structured_13_blocks_x_zero_gives_mp_blocks():
    rng = random.Random(25)
    for _ in range(15):
        n = rng.randint(2, 3)
        a = random_matrix_of_rank(G, n, n, rng.randint(1, n), rng)
        b = random_matrix_of_rank(G, n, n, rng.randint(0, n), rng)
        z1, z2, z3, z4 = _structured_13_blocks(a, b, Matrix.zeros(n, n, G))
        e = Matrix.identity(n, G)
        p = b @ mp_inverse(b)
        r = a @ mp_inverse(a)
        d_dag = mp_inverse(a @ a.star())
        assert z1 == (r @ a @ p).star() @ d_dag
        assert z3 == (r @ a @ (e - p)).star() @ d_dag
        assert z2.is_zero() and z4.is_zero()
        assert z1 + z2 + z3 + z4 == mp_inverse(a)


def test_structured_13_blocks_invertible_collapse():
    a = Matrix.from_rows([[1, 2], [0, 1]], G)
    b = Matrix.identity(2, G)
    x = random_matrix(G, 2, 2, random.Random(26))
    z1, z2, z3, z4 = _structured_13_blocks(a, b, x)
    assert z1 == inverse(a)
    assert z2.is_zero() and z3.is_zero() and z4.is_zero()


def test_structured_13_blocks_matches_flat_parametrization():
    rng = random.Random(27)
    for _ in range(200):
        n = rng.randint(1, 3)
        a = random_matrix_of_rank(G, n, n, rng.randint(0, n), rng)
        b = random_matrix_of_rank(G, n, n, rng.randint(0, n), rng)
        x = random_matrix(G, n, n, rng)
        z = _structured_13_blocks(a, b, x)
        flat = sample_13_inverse(a, x)
        assert z[0] + z[1] + z[2] + z[3] == flat
        assert z == _corners(flat, b @ mp_inverse(b), a @ mp_inverse(a))
        assert is_k_inverse(a, flat, {1, 3})


def test_sample_commutant_properties():
    rng = random.Random(28)
    c = sample_commutant(Matrix.identity(3, G), 1)
    assert commutes_with_pair(c, Matrix.identity(3, G))
    d = Matrix.from_rows([[1, 0], [0, 2]], G)
    cd = sample_commutant(d, 2)
    assert cd[0, 1].is_zero() and cd[1, 0].is_zero()
    nil = Matrix.from_rows([[0, 1], [0, 0]], G)
    cn = sample_commutant(nil, 3)
    assert cn[0, 1].is_zero() and cn[1, 0].is_zero() and cn[0, 0] == cn[1, 1]
    for domain in (G, F5):
        for seed in range(8):
            b = random_matrix(domain, 3, 3, rng)
            cb = sample_commutant(b, seed)
            assert commutes_with_pair(cb, b)
    # determinism under the seed
    b = random_matrix(G, 3, 3, random.Random(29))
    assert sample_commutant(b, 7) == sample_commutant(b, 7)
