"""Differential tests of the Moore-Penrose construction and of K-membership.

On generated matrices over Q(i), F_5 and F_7 (rectangular, rank-deficient
and empty shapes included), MacDuffee's formula in mp_inverse must agree
with the star-group route (a* a)# a*, satisfy all four Penrose equations,
and both routes must refuse exactly the matrices that fail the rank
criterion rank(a) = rank(a* a) = rank(a a*), computed here with the
reference elimination.  is_k_inverse is checked for every non-empty K
against the four equations written out below.

A matrix drawn by random_matrix_of_rank records the factors it was drawn
as, and mp_inverse and mp_exists run on them in place of the RREF
factorization.  They must give the same inverse, verdict and NoMPInverse
message as a factor-free copy of the same matrix, no derived matrix may
carry the factors, and LawContext must then run rref only for the two
core inverses.
"""

import itertools
import random

import pytest

import rolcheck.matrices
from rolcheck import (
    GAUSSIAN_RATIONAL,
    InstanceSpec,
    LawContext,
    Matrix,
    NoMPInverse,
    gen_instance,
    is_k_inverse,
    matrix_from_json,
    matrix_to_json,
    mp_exists,
    mp_inverse,
    prime_field,
    rref,
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


FACTOR_DOMAINS = (GAUSSIAN_RATIONAL, prime_field(3), prime_field(5), prime_field(7))


def _factor_free(a):
    """The same matrix with no recorded factors."""
    return Matrix._of(a.rows, a.cols, a.domain, a.form)


def _mp_outcome(a):
    """a+, or the message of the NoMPInverse that refuses it."""
    try:
        return mp_inverse(a)
    except NoMPInverse as exc:
        return str(exc)


@pytest.mark.parametrize("domain", FACTOR_DOMAINS, ids=lambda d: d.name)
def test_recorded_factors_give_what_the_rref_factorization_gives(domain):
    """Any two full-rank factorizations differ by an invertible T, which
    keeps the core's rank, and a+ is unique: so the drawn factors must
    give the same a+, verdict and refusal message as the RREF ones."""
    rng = random.Random(23)
    refused = 0
    for n in range(1, 9):
        for r in range(n + 1):
            a = random_matrix_of_rank(domain, n, n, r, rng)
            fact = a._factors
            assert fact.rank == r
            assert fact.f.shape == (n, r) and fact.g.shape == (r, n)
            assert fact.f @ fact.g == a
            bare = _factor_free(a)
            assert bare._factors is None
            expected = _mp_outcome(bare)
            assert _mp_outcome(a) == expected, (n, r)
            exists = not isinstance(expected, str)
            assert mp_exists(a) == mp_exists(bare) == exists, (n, r)
            refused += not exists
    # Over F_p the refusal, and its message, must be exercised.
    assert (refused == 0) if domain == GAUSSIAN_RATIONAL else (refused > 0)


def test_no_derived_matrix_carries_the_factors():
    rng = random.Random(5)
    for domain in FACTOR_DOMAINS:
        draws = (random_matrix_of_rank(domain, 4, 4, 2, rng) for _ in range(50))
        a = next(m for m in draws if mp_exists(m))
        assert a._factors is not None
        derived = (a.star(), a @ a, a + a, a - a, -a, a.scale(2), rref(a)[0],
                   mp_inverse(a), matrix_from_json(matrix_to_json(a)))
        assert [m._factors for m in derived] == [None] * len(derived)
        bare = _factor_free(a)
        assert a == bare and bare == a
        assert matrix_to_json(a) == matrix_to_json(bare)


def _rref_calls(monkeypatch, make):
    calls = []
    original = rolcheck.matrices.rref

    def counted(m):
        calls.append(m.shape)
        return original(m)

    with monkeypatch.context() as patch:
        patch.setattr(rolcheck.matrices, "rref", counted)
        make()
    return len(calls)


def test_law_context_runs_rref_only_for_the_core_inverses(monkeypatch):
    """On a generated pair, a+ and b+ come from the drawn factors: the only
    rref calls are the two core inverses.  A factor-free copy of the pair
    runs a RREF factorization of a and of b as well."""
    ranks = set()
    for seed in range(6):
        a, b, _ = gen_instance(InstanceSpec(GAUSSIAN_RATIONAL, 6, seed=seed))
        ranks |= {a._factors.rank, b._factors.rank}
        assert _rref_calls(monkeypatch, lambda: LawContext(a, b)) == 2
        bare = (_factor_free(a), _factor_free(b))
        assert _rref_calls(monkeypatch, lambda: LawContext(*bare)) == 4
    assert len(ranks) > 2


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
