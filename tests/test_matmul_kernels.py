"""The exact product kernels behind Matrix.__matmul__ against the generic
loop in matmul_reference.py: same entries, in the same canonical form."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rolcheck.scalars
from rolcheck import (
    GAUSSIAN_RATIONAL,
    DimensionMismatch,
    DomainMismatch,
    GaussianRational,
    Matrix,
    PrimeFieldElement,
    mp_exists,
    mp_inverse,
    prime_field,
)
from rolcheck.harness import random_matrix_of_rank
from rolcheck.matrices import random_matrix
from matmul_reference import matmul as reference_matmul

G = GAUSSIAN_RATIONAL
# F_13 packs its products only at k = 1; F_17 and the Q(i) residue prime
# never do.
DOMAINS = (G, prime_field(5), prime_field(7), prime_field(13), prime_field(17),
           prime_field(rolcheck.scalars._P))


def _scalars(domain):
    if domain == G:
        frac = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
        return st.builds(GaussianRational, frac, st.one_of(st.just(0), frac))
    return st.integers(0, domain.p - 1).map(lambda v: PrimeFieldElement(v, domain.p))


@st.composite
def _factors(draw):
    """An n x k and a k x m matrix, n, k, m in 0..5, with many zeros and
    possibly an all-zero row of the left factor and an all-zero column of
    the right one; Q(i) entries mix real and non-real values and
    denominators 1 to 6."""
    domain = draw(st.sampled_from(DOMAINS))
    n, k, m = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    zero = domain.zero()
    entry = st.one_of(st.just(zero), _scalars(domain))
    a = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(n)]
    b = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(k)]
    if n and draw(st.booleans()):
        a[draw(st.integers(0, n - 1))] = [zero] * k
    if m and draw(st.booleans()):
        j = draw(st.integers(0, m - 1))
        for row in b:
            row[j] = zero
    return (Matrix(n, k, domain, [x for row in a for x in row]),
            Matrix(k, m, domain, [x for row in b for x in row]))


@settings(max_examples=400, deadline=None)
@given(_factors())
def test_matmul_matches_reference(factors):
    a, b = factors
    assert a @ b == reference_matmul(a, b)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(1, 5), st.integers(0, 5), st.integers(0, 10_000))
def test_matmul_matches_reference_on_mp_inverses(domain, n, rank_a, seed):
    """Products of the kind the law statements form, whose Q(i) factors
    carry the large denominators of Moore-Penrose inverses."""
    rng = random.Random(seed)
    a = random_matrix_of_rank(domain, n, n, min(rank_a, n), rng)
    b = random_matrix_of_rank(domain, n, n, rng.randint(0, n), rng)
    ap = mp_inverse(a) if mp_exists(a) else a.star()
    bp = mp_inverse(b) if mp_exists(b) else b.star()
    for x, y in ((ap, a), (a, ap), (bp, ap), (a @ b, bp @ ap), (ap.star(), ap @ bp)):
        assert x @ y == reference_matmul(x, y)


def test_mp_inverse_products_have_large_denominators():
    rng = random.Random(0)
    a = random_matrix_of_rank(G, 5, 5, 4, rng)
    ap = mp_inverse(a)
    assert max(z.den for z in ap.entries).bit_length() > 60
    assert ap @ a == reference_matmul(ap, a)
    assert ap.star() @ ap == reference_matmul(ap.star(), ap)


@pytest.mark.parametrize("p, k", [(3, 63), (3, 64), (5, 15), (5, 16), (7, 7), (7, 8)])
@pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (3, 1), (3, 3)])
def test_products_at_the_packing_bound(p, k, n, m):
    """matmul_mod packs when k (p - 1)**2 < 256.  With every entry p - 1,
    each entry of the product is that largest slot sum: 252, 240 and 252
    on the packed side, 256, 256 and 288 on the loop side."""
    domain = prime_field(p)
    top = domain.coerce(p - 1)
    a = Matrix(n, k, domain, [top] * (n * k))
    b = Matrix(k, m, domain, [top] * (k * m))
    product = a @ b
    assert product == reference_matmul(a, b)
    assert product == Matrix(n, m, domain, [domain.coerce(k)] * (n * m))


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
@pytest.mark.parametrize("n, k, m", [(3, 0, 4), (0, 3, 4), (3, 4, 0), (0, 0, 0), (0, 3, 0)])
def test_empty_shapes(domain, n, k, m):
    rng = random.Random(n * 100 + k * 10 + m)
    a, b = random_matrix(domain, n, k, rng), random_matrix(domain, k, m, rng)
    assert a @ b == Matrix.zeros(n, m, domain) == reference_matmul(a, b)


@pytest.mark.parametrize("left, right, error", [
    (Matrix.identity(2, G), Matrix.identity(2, prime_field(5)), DomainMismatch),
    (Matrix.identity(2, prime_field(5)), Matrix.identity(2, prime_field(7)), DomainMismatch),
    (Matrix.zeros(2, 3, G), Matrix.zeros(2, 3, G), DimensionMismatch),
    (Matrix.zeros(0, 1, prime_field(5)), Matrix.zeros(0, 1, prime_field(5)), DimensionMismatch),
])
def test_mismatches_still_raise(left, right, error):
    with pytest.raises(error):
        left @ right


def test_qi_product_calls_no_scalar_arithmetic(monkeypatch):
    """The Q(i) kernel builds scalars only for the result: an 8 x 8
    product calls neither GaussianRational.__mul__ nor __add__."""
    rng = random.Random(0)
    a, b = random_matrix(G, 8, 8, rng), random_matrix(G, 8, 8, rng)
    calls = Counter()
    for name in ("__mul__", "__add__"):
        def counted(self, other, name=name, original=GaussianRational.__dict__[name]):
            calls[name] += 1
            return original(self, other)
        monkeypatch.setattr(GaussianRational, name, counted)
    product = a @ b
    assert calls == Counter()
    assert product == reference_matmul(a, b)
    assert calls == Counter({"__mul__": 512, "__add__": 512})  # the counter sees the loop
