import random

import pytest

from rolcheck import (
    GAUSSIAN_RATIONAL,
    DimensionMismatch,
    Matrix,
    NoMPInverse,
    NotGroupInvertible,
    commutes_with_pair,
    group_inverse,
    is_k_inverse,
    mp_exists,
    mp_inverse,
    prime_field,
    rank,
    sample_commutant,
)
from rolcheck.harness import random_matrix_of_rank
from rolcheck.matrices import random_matrix
from rolcheck.peirce import matrix_equation_basis, random_combination
from mp_reference import mp_via_star_group, prop21_check

G = GAUSSIAN_RATIONAL
F5 = prime_field(5)


def _mixed_rank_instance(rng, domain=G, max_size=4):
    rows = rng.randint(1, max_size)
    cols = rng.randint(1, max_size)
    k = rng.randint(0, min(rows, cols))
    return random_matrix_of_rank(domain, rows, cols, k, rng)


def test_mp_exists_examples():
    assert mp_exists(Matrix.identity(3, G))
    assert mp_exists(Matrix.identity(3, F5))
    # a* a = [1 + 4] = [0] over F_5: rank drops 1 -> 0
    a = Matrix.from_rows([[1], [2]], F5)
    assert not mp_exists(a)


def test_mp_exists_always_over_gaussian_rationals():
    rng = random.Random(11)
    for _ in range(100):
        a = _mixed_rank_instance(rng)
        assert mp_exists(a)
        assert is_k_inverse(a, mp_inverse(a), {1, 2, 3, 4})


def test_mp_inverse_examples():
    assert mp_inverse(Matrix.identity(2, G)) == Matrix.identity(2, G)
    a = Matrix.from_rows([[1, 1], [0, 0]], G)
    a_dag = mp_inverse(a)
    # oracle first: all four Penrose equations hold exactly
    assert is_k_inverse(a, a_dag, {1, 2, 3, 4})
    assert a_dag == Matrix.from_rows([["1/2", "0"], ["1/2", "0"]], G)
    with pytest.raises(NoMPInverse):
        mp_inverse(Matrix.from_rows([[1, 0], [2, 0]], F5))


def test_mp_inverse_zero_and_rectangular():
    z = Matrix.zeros(2, 3, G)
    assert mp_inverse(z) == Matrix.zeros(3, 2, G)
    rng = random.Random(12)
    for _ in range(40):
        a = _mixed_rank_instance(rng)
        a_dag = mp_inverse(a)
        assert a_dag.shape == (a.cols, a.rows)
        assert mp_inverse(a_dag) == a
        assert mp_inverse(a.star()) == a_dag.star()
        aa = a @ a_dag
        assert aa.is_hermitian() and aa @ aa == aa
        da = a_dag @ a
        assert da.is_hermitian() and da @ da == da


def test_mp_inverse_over_prime_field_when_it_exists():
    rng = random.Random(13)
    checked = 0
    for _ in range(200):
        a = _mixed_rank_instance(rng, domain=F5, max_size=3)
        if not mp_exists(a):
            with pytest.raises(NoMPInverse):
                mp_inverse(a)
            continue
        checked += 1
        assert is_k_inverse(a, mp_inverse(a), {1, 2, 3, 4})
    assert checked > 20


def test_group_inverse_examples():
    assert group_inverse(Matrix.identity(3, G)) == Matrix.identity(3, G)
    # hermitian idempotent is its own group inverse
    p = Matrix.from_rows([["1/2", "1/2"], ["1/2", "1/2"]], G)
    assert p @ p == p
    assert group_inverse(p) == p
    with pytest.raises(NotGroupInvertible):
        group_inverse(Matrix.from_rows([[0, 1], [0, 0]], G))
    with pytest.raises(DimensionMismatch):
        group_inverse(Matrix.zeros(2, 3, G))


def test_group_inverse_defining_equations():
    rng = random.Random(14)
    hits = 0
    while hits < 25:
        n = rng.randint(1, 4)
        a = random_matrix_of_rank(G, n, n, rng.randint(0, n), rng)
        exists = rank(a @ a) == rank(a)
        if not exists:
            with pytest.raises(NotGroupInvertible):
                group_inverse(a)
            continue
        hits += 1
        x = group_inverse(a)
        assert a @ x @ a == a
        assert x @ a @ x == x
        assert a @ x == x @ a
        # the group inverse commutes with everything commuting with a alone
        basis = matrix_equation_basis(a.rows, G, commute_with=(a,))
        c = random_combination(basis, G, rng)
        assert c @ a == a @ c
        assert c @ x == x @ c


def test_mp_via_star_group_matches_mp_inverse():
    a = Matrix.from_rows([[1, 1], [0, 0]], G)
    assert mp_via_star_group(a) == mp_inverse(a)
    rng = random.Random(15)
    for _ in range(60):
        a = _mixed_rank_instance(rng)
        assert mp_via_star_group(a) == mp_inverse(a)
    with pytest.raises(NoMPInverse):
        mp_via_star_group(Matrix.from_rows([[1, 0], [2, 0]], F5))


def test_penrose_residuals_examples():
    i2 = Matrix.identity(2, G)
    assert is_k_inverse(i2, i2, {1, 2, 3, 4})
    a = Matrix.from_rows([[1, 1], [0, 0]], G)
    assert {j: is_k_inverse(a, Matrix.zeros(2, 2, G), {j}) for j in (1, 2, 3, 4)} == {
        1: False, 2: True, 3: True, 4: True,
    }
    with pytest.raises(DimensionMismatch):
        is_k_inverse(a, Matrix.zeros(3, 2, G), (1, 2, 3, 4))


def test_prop21_check_characterizes_mp_inverse():
    i2 = Matrix.identity(2, G)
    assert prop21_check(i2, i2)
    rng = random.Random(16)
    adversarial = 0
    for _ in range(80):
        a = _mixed_rank_instance(rng)
        a_dag = mp_inverse(a)
        assert prop21_check(a, a_dag)
        # a {1,3}-inverse that is not the Moore-Penrose inverse must fail
        comp = Matrix.identity(a.cols, G) - a_dag @ a
        if comp.is_zero():
            continue
        for _ in range(10):
            x = random_matrix(G, a.cols, a.rows, rng)
            cand = a_dag + comp @ x
            if cand != a_dag:
                assert is_k_inverse(a, cand, {1, 3})
                assert not prop21_check(a, cand)
                adversarial += 1
                break
    assert adversarial > 30


def test_commutes_with_pair_examples():
    a = random_matrix(G, 3, 3, random.Random(17))
    lam = Matrix.identity(3, G).scale(G.parse("2/3"))
    assert commutes_with_pair(lam, a)
    d1 = Matrix.from_rows([[1, 0], [0, 2]], G)
    d2 = Matrix.from_rows([[3, 0], [0, 4]], G)
    assert commutes_with_pair(d1, d2)
    with pytest.raises(DimensionMismatch):
        commutes_with_pair(d1, Matrix.identity(3, G))


def test_commutant_transfers_to_mp_inverse():
    # c commutes with {a, a*} iff it commutes with {a+, (a+)*}
    rng = random.Random(18)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_matrix_of_rank(G, n, n, rng.randint(0, n), rng)
        c = sample_commutant(a, rng.getrandbits(32))
        assert commutes_with_pair(c, a)
        assert commutes_with_pair(c, mp_inverse(a))
        # converse: sample from the commutant of {a+, (a+)*}
        c2 = sample_commutant(mp_inverse(a), rng.getrandbits(32))
        assert commutes_with_pair(c2, mp_inverse(a))
        assert commutes_with_pair(c2, a)
