"""Differential tests of the Moore-Penrose construction and of K-membership.

On generated matrices over Q(i), F_5 and F_7 (rectangular, rank-deficient
and empty shapes included), MacDuffee's formula in mp_inverse must agree
with the star-group route (a* a)# a*, satisfy all four Penrose equations,
and both routes must refuse exactly the matrices that fail the rank
criterion rank(a) = rank(a* a) = rank(a a*), computed here with the
reference elimination.  is_k_inverse is checked for every non-empty K
against the four equations written out below.
"""

import itertools
import random

import pytest

from rolcheck import (
    GAUSSIAN_RATIONAL,
    Matrix,
    NoMPInverse,
    is_k_inverse,
    mp_exists,
    mp_inverse,
    prime_field,
)
from rolcheck.harness import random_matrix_of_rank
from rolcheck.matrices import random_matrix
from rref_reference import rref as reference_rref
from k_inverse_reference import sample_13_inverse, sample_14_inverse
from mp_reference import mp_via_star_group

DOMAINS = (GAUSSIAN_RATIONAL, prime_field(5), prime_field(7))
ALL_K = [set(k) for r in range(1, 5) for k in itertools.combinations((1, 2, 3, 4), r)]


def _rank(a):
    return len(reference_rref(a)[1])


def _rank_criterion(a):
    r = _rank(a)
    return _rank(a.star() @ a) == r and _rank(a @ a.star()) == r


def _instances(domain, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        if rng.random() < 0.2:
            yield random_matrix(domain, rows, cols, rng)
        else:
            k = rng.randint(0, min(rows, cols))
            yield random_matrix_of_rank(domain, rows, cols, k, rng)


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
def test_mp_routes_agree_with_rank_criterion(domain):
    without = 0
    for a in _instances(domain, 200, seed=len(domain.name)):
        exists = _rank_criterion(a)
        assert mp_exists(a) == exists
        if not exists:
            without += 1
            with pytest.raises(NoMPInverse):
                mp_inverse(a)
            with pytest.raises(NoMPInverse):
                mp_via_star_group(a)
            continue
        a_dag = mp_inverse(a)
        assert a_dag.shape == (a.cols, a.rows)
        assert is_k_inverse(a, a_dag, {1, 2, 3, 4})
        assert mp_via_star_group(a) == a_dag
    # Q(i) is formally real, so every matrix has an inverse there; over
    # F_p the refusal branch must be exercised.
    assert (without == 0) if domain == GAUSSIAN_RATIONAL else (without > 0)


def _written_out(a, x):
    ax, xa = a @ x, x @ a
    return {
        1: a @ x @ a == a,
        2: x @ a @ x == x,
        3: ax.star() == ax,
        4: xa.star() == xa,
    }


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
def test_is_k_inverse_matches_written_out_equations(domain):
    rng = random.Random(3)
    seen = {(frozenset(k), value): 0 for k in ALL_K for value in (True, False)}
    for a in _instances(domain, 60, seed=4):
        if not mp_exists(a):
            continue
        y = random_matrix(domain, a.cols, a.rows, rng)
        candidates = (
            mp_inverse(a),
            sample_13_inverse(a, y),
            sample_14_inverse(a, y),
            random_matrix(domain, a.cols, a.rows, rng),
        )
        for x in candidates:
            flags = _written_out(a, x)
            for k in ALL_K:
                expected = all(flags[j] for j in k)
                assert is_k_inverse(a, x, k) == expected, (a, x, k)
                seen[frozenset(k), expected] += 1
    assert all(seen.values()), [key for key, n in seen.items() if n == 0]


@pytest.mark.parametrize("k", ALL_K, ids=lambda k: "".join(map(str, sorted(k))))
def test_is_k_inverse_forms_only_the_products_k_uses(k, monkeypatch):
    a = Matrix.from_rows([[1, 2, 0], [0, 1, "i"]], GAUSSIAN_RATIONAL)
    x = mp_inverse(a)
    products = []
    original = Matrix.__matmul__

    def counted(self, other):
        products.append((self.shape, other.shape))
        return original(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    assert is_k_inverse(a, x, k)
    # a x for (1) and (3), x a for (2) and (4), then a x a for (1), x a x for (2).
    expected = (bool(k & {1, 3}) + bool(k & {2, 4}) + (1 in k) + (2 in k))
    assert len(products) == expected


def _products_until_first_failure(k, flags):
    """Products is_k_inverse may form for K = k when flags gives each
    equation's truth: it tries (3), (4), (1), (2), forms a x for (3) or
    (1) and x a for (4) or (2) when first needed, one more product for
    (1) and for (2), and stops at the first failing equation."""
    formed, count = set(), 0
    for j in (3, 4, 1, 2):
        if j not in k:
            continue
        base = "ax" if j in (1, 3) else "xa"
        count += base not in formed
        formed.add(base)
        count += j in (1, 2)
        if not flags[j]:
            break
    return count


def test_false_is_k_inverse_forms_only_the_products_up_to_the_first_failure(monkeypatch):
    """The false-path twin of the test above: a false membership stops at
    its first failing equation, so the products of later ones are never
    formed.  Candidates of every kind make each equation the first to
    fail for some K."""
    rng = random.Random(12)
    a = Matrix.from_rows([[1, 2, 0], [0, 1, "i"]], GAUSSIAN_RATIONAL)
    y = random_matrix(GAUSSIAN_RATIONAL, 3, 2, rng)
    candidates = (sample_13_inverse(a, y), sample_14_inverse(a, y),
                  random_matrix(GAUSSIAN_RATIONAL, 3, 2, rng), Matrix.zeros(3, 2, GAUSSIAN_RATIONAL))
    products = []
    original = Matrix.__matmul__

    def counted(self, other):
        products.append((self.shape, other.shape))
        return original(self, other)

    first_failures = set()
    for x in candidates:
        flags = _written_out(a, x)
        for k in ALL_K:
            if all(flags[j] for j in k):
                continue
            first_failures.add(next(j for j in (3, 4, 1, 2) if j in k and not flags[j]))
            products.clear()
            with monkeypatch.context() as patch:
                patch.setattr(Matrix, "__matmul__", counted)
                assert not is_k_inverse(a, x, k)
            assert len(products) == _products_until_first_failure(k, flags), (x, k)
    assert first_failures == {1, 2, 3, 4}
