import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolcheck import (
    GAUSSIAN_RATIONAL,
    DimensionMismatch,
    DomainMismatch,
    Matrix,
    Singular,
    inverse,
    matrix_from_json,
    matrix_to_json,
    nullspace_basis,
    prime_field,
    rank,
    rank_factorization,
)
from rolcheck.matrices import random_matrix

G = GAUSSIAN_RATIONAL
F5 = prime_field(5)


def _rand(domain, rows, cols, seed):
    return random_matrix(domain, rows, cols, random.Random(seed))


shapes = st.tuples(st.integers(1, 4), st.integers(1, 4))


def test_star_examples():
    i2 = Matrix.identity(2, G)
    assert i2.star() == i2
    a = Matrix.from_rows([[G.parse("i"), 0], [0, 0]], G)
    assert a.star() == Matrix.from_rows([[G.parse("-1i"), 0], [0, 0]], G)


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_star_is_anti_automorphism(seed):
    a = _rand(G, 3, 2, seed)
    b = _rand(G, 2, 4, seed + 1)
    assert a.star().star() == a
    assert (a @ b).star() == b.star() @ a.star()


def test_mat_mul_examples():
    a = Matrix.from_rows([[1, 1], [0, 0]], G)
    b = Matrix.from_rows([[1, 0], [1, 0]], G)
    assert a @ b == Matrix.from_rows([[2, 0], [0, 0]], G)
    assert Matrix.identity(2, G) @ a == a
    assert Matrix.zeros(2, 2, G) @ a == Matrix.zeros(2, 2, G)


def test_mat_mul_errors():
    a = Matrix.from_rows([[1, 1]], G)
    with pytest.raises(DimensionMismatch):
        a @ a
    with pytest.raises(DomainMismatch):
        Matrix.identity(2, G) @ Matrix.identity(2, F5)


def test_rank_factorization_examples():
    a = Matrix.from_rows([[1, 1], [0, 0]], G)
    fact = rank_factorization(a)
    assert fact.rank == 1
    assert fact.f == Matrix.from_rows([[1], [0]], G)
    assert fact.g == Matrix.from_rows([[1, 1]], G)
    assert fact.f @ fact.g == a
    assert rank(fact.f) == 1 and rank(fact.g) == 1

    i3 = Matrix.identity(3, G)
    fact = rank_factorization(i3)
    assert fact.f == i3 and fact.g == i3 and fact.rank == 3

    z = Matrix.zeros(2, 3, G)
    fact = rank_factorization(z)
    assert fact.rank == 0
    assert fact.f.shape == (2, 0) and fact.g.shape == (0, 3)
    assert fact.f @ fact.g == z


@settings(max_examples=40)
@given(shapes, st.integers(0, 10_000))
def test_rank_factorization_recomposes(shape, seed):
    for domain in (G, F5):
        a = _rand(domain, shape[0], shape[1], seed)
        fact = rank_factorization(a)
        assert fact.f @ fact.g == a
        assert rank(fact.f) == fact.rank == rank(fact.g)
        assert rank(a) == fact.rank


def test_nullspace_examples():
    assert nullspace_basis(Matrix.identity(3, G)) == []
    a = Matrix.from_rows([[1, 1]], G)
    basis = nullspace_basis(a)
    assert len(basis) == 1
    assert (a @ basis[0]).is_zero()
    z = Matrix.zeros(1, 2, G)
    assert len(nullspace_basis(z)) == 2


@settings(max_examples=40)
@given(shapes, st.integers(0, 10_000))
def test_nullspace_spans_kernel(shape, seed):
    a = _rand(G, shape[0], shape[1], seed)
    basis = nullspace_basis(a)
    assert len(basis) == a.cols - rank(a)
    for v in basis:
        assert (a @ v).is_zero()
    if basis:
        stacked = Matrix(
            a.cols, len(basis), G,
            [v.entries[i] for i in range(a.cols) for v in basis],
        )
        assert rank(stacked) == len(basis)


def test_inverse_examples():
    assert inverse(Matrix.identity(3, G)) == Matrix.identity(3, G)
    d = Matrix.from_rows([[2, 0], [0, G.parse("1/2")]], G)
    assert inverse(d) == Matrix.from_rows([[G.parse("1/2"), 0], [0, 2]], G)
    with pytest.raises(Singular):
        inverse(Matrix.from_rows([[1, 1], [1, 1]], G))
    with pytest.raises(DimensionMismatch):
        inverse(Matrix.zeros(2, 3, G))


def test_inverse_random():
    rng = random.Random(5)
    found = 0
    while found < 20:
        a = random_matrix(G, 3, 3, rng)
        if rank(a) < 3:
            continue
        found += 1
        assert a @ inverse(a) == Matrix.identity(3, G)
        assert inverse(a) @ a == Matrix.identity(3, G)


def test_rank_equals_rank_of_star():
    rng = random.Random(6)
    for domain in (G, F5):
        for _ in range(30):
            a = random_matrix(domain, rng.randint(1, 4), rng.randint(1, 4), rng)
            assert rank(a) == rank(a.star())


def test_rank_of_gram_matrix():
    # over Q(i) the base field is formally real: rank(a* a) = rank(a)
    rng = random.Random(7)
    for _ in range(30):
        a = random_matrix(G, rng.randint(1, 4), rng.randint(1, 4), rng)
        assert rank(a.star() @ a) == rank(a)
    # over F_5 this fails: recorded instance with an isotropic column
    a = Matrix.from_rows([[1], [2]], F5)
    assert rank(a.star() @ a) == 0 != rank(a)


def test_zero_dimension_matrices():
    f = Matrix.zeros(2, 0, G)
    g = Matrix.zeros(0, 3, G)
    prod = f @ g
    assert prod == Matrix.zeros(2, 3, G)
    assert f.star().shape == (0, 2)
    assert (g @ g.star()).shape == (0, 0)
    assert inverse(g @ g.star()).shape == (0, 0)


def test_scale_and_add():
    a = Matrix.from_rows([[1, 2], [3, 4]], G)
    assert a.scale(2) - a == a.scale(1) and (a - a).is_zero()
    assert (-a) + a == Matrix.zeros(2, 2, G)


def test_json_roundtrip_bit_exact():
    rng = random.Random(8)
    for domain in (G, F5):
        for _ in range(25):
            a = random_matrix(domain, rng.randint(1, 4), rng.randint(1, 4), rng)
            blob = json.dumps(matrix_to_json(a))
            again = matrix_from_json(json.loads(blob))
            assert again == a
            assert json.dumps(matrix_to_json(again)) == blob


def test_json_shape_and_domain():
    a = Matrix.from_rows([[G.parse("1/2+3/4i"), 0]], G)
    obj = matrix_to_json(a)
    assert obj["domain"] == "gaussian_rational"
    assert obj["entries"] == [["1/2+3/4i", "0"]]
    b = Matrix.from_rows([[3]], F5)
    assert matrix_to_json(b)["domain"] == {"prime_field": 5}


def test_json_domain_tag_is_fresh_per_call():
    b = Matrix.from_rows([[3]], F5)
    matrix_to_json(b)["domain"]["prime_field"] = 7
    assert matrix_to_json(b)["domain"] == {"prime_field": 5}
    for domain in (G, F5, prime_field(7)):
        assert matrix_from_json({"domain": domain.json_tag(), "rows": 0, "cols": 0,
                                 "entries": []}).domain == domain


@pytest.mark.parametrize(
    "obj",
    [
        {"domain": "gaussian_rational", "rows": 1, "cols": 2, "entries": [["1"]]},
        {"domain": "nope", "rows": 1, "cols": 1, "entries": [["1"]]},
        {"domain": "gaussian_rational", "rows": 1, "cols": 1, "entries": [["1.5"]]},
        {"rows": 1, "cols": 1, "entries": [["1"]]},
        [1, 2],
    ],
)
def test_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        matrix_from_json(obj)
