"""Which path the mod-p kernels in scalars take: packed bytes for small
primes, the loops for every wider modulus.  Both give the same ints, so a
wrong switch would only ever show up as a slowdown; these spies make it an
error.

The spies replace the helpers in rolcheck.scalars, where matmul_mod and
row_reduce_mod look them up.  peirce's certificate rows call
matmul_columns_mod through their own import, by design, so those calls are
not counted: only matmul_mod's fallback is."""

import random
from collections import Counter

import pytest

import rolcheck.scalars
from rolcheck import GAUSSIAN_RATIONAL, LawId, prime_field, rref, sample_commutant
from rolcheck.harness import random_matrix_of_rank
from rolcheck.laws import LAWS
from rolcheck.matrices import random_matrix
from rolcheck.peirce import sample_constrained

PACKED = ("_matmul_bytes", "_row_reduce_bytes")
LOOPS = ("matmul_columns_mod", "_row_reduce_loop")
F7 = prime_field(7)


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    for name in PACKED + LOOPS:
        def spy(*args, name=name, original=getattr(rolcheck.scalars, name)):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(rolcheck.scalars, name, spy)
    return counts


def test_f7_product_and_rref_are_packed(calls):
    rng = random.Random(0)
    a, b = random_matrix(F7, 6, 6, rng), random_matrix(F7, 6, 6, rng)
    a @ b
    rref(a)
    assert calls == Counter({"_matmul_bytes": 1, "_row_reduce_bytes": 1})


def test_f7_product_past_the_bound_takes_the_loop(calls):
    """k (p - 1)**2 = 8 * 36 = 288 at F_7, n = 8: the product runs the loop,
    and the rows, which need only p * p <= 256, are still packed."""
    rng = random.Random(0)
    a, b = random_matrix(F7, 8, 8, rng), random_matrix(F7, 8, 8, rng)
    a @ b
    rref(a)
    assert calls == Counter({"matmul_columns_mod": 1, "_row_reduce_bytes": 1})


def test_f7_draws_and_t38_weights_never_take_the_loops(calls):
    zero_products = LAWS[LawId.T38].weight_zero
    for seed in range(4):
        rng = random.Random(seed)
        a = random_matrix_of_rank(F7, 6, 6, 4, rng)
        b = random_matrix_of_rank(F7, 6, 6, 4, rng)
        sample_constrained(b, *zero_products(a @ b), rng)
    assert all(calls[name] for name in PACKED)
    assert not any(calls[name] for name in LOOPS)


def test_qi_commutant_never_takes_the_packed_path(calls):
    """Q(i) reaches the mod-p kernels only through its residues mod
    32749, far past both bounds."""
    for seed in range(4):
        rng = random.Random(seed)
        b = random_matrix_of_rank(GAUSSIAN_RATIONAL, 6, 6, 4, rng)
        sample_commutant(b, seed)
    assert all(calls[name] for name in LOOPS)
    assert not any(calls[name] for name in PACKED)
