"""The form operations behind Matrix against the entry loops in
form_reference.py: +, -, negation, scale, star, ==, is_zero,
is_hermitian, is_identity and inverse give the entries the loops give,
every result is in canonical form, and one matrix has one form whatever
route reached it.  random_matrix, drawn straight as a form, and sample
and sample_coefficient give what the scalar-built draws give, and leave
the generator in the same state."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import form_reference as ref
import rolcheck.scalars
from rolcheck import GAUSSIAN_RATIONAL, GaussianRational, Matrix, PrimeFieldElement, prime_field
from rolcheck.errors import Singular
from rolcheck.matrices import inverse, random_matrix

G = GAUSSIAN_RATIONAL
DOMAINS = (G, prime_field(3), prime_field(5), prime_field(7), prime_field(rolcheck.scalars._P))


def _scalars(domain):
    if domain == G:
        frac = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
        return st.builds(GaussianRational, frac, st.one_of(st.just(0), frac))
    return st.integers(0, domain.p - 1).map(lambda v: PrimeFieldElement(v, domain.p))


def _matrix(draw, domain, rows, cols):
    entry = st.one_of(st.just(domain.zero()), _scalars(domain))
    return Matrix(rows, cols, domain, draw(st.lists(entry, min_size=rows * cols,
                                                    max_size=rows * cols)))


@st.composite
def _pairs(draw):
    """Two matrices of one shape, 0 x m and n x 0 included.  The second is
    random, the first itself, or the first along another route."""
    domain = draw(st.sampled_from(DOMAINS))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    a = _matrix(draw, domain, rows, cols)
    how = draw(st.sampled_from(["random", "same", "rescaled", "negated twice"]))
    if how == "random":
        b = _matrix(draw, domain, rows, cols)
    elif how == "same":
        b = a
    elif how == "rescaled":
        k = draw(_scalars(domain).filter(lambda s: not s.is_zero()))
        b = a.scale(k).scale(k.inv())
    else:
        b = -(-a)
    return a, b


@st.composite
def _squares(draw):
    """A square matrix, sometimes hermitian, zero, the identity or
    invertible by construction."""
    domain = draw(st.sampled_from(DOMAINS))
    n = draw(st.integers(0, 5))
    a = _matrix(draw, domain, n, n)
    how = draw(st.sampled_from(["random", "hermitian", "zero", "identity", "unit"]))
    if how == "hermitian":
        a = a + a.star()
    elif how == "zero":
        a = a - a
    elif how == "identity":
        a = Matrix.identity(n, domain)
    elif how == "unit":  # e + strictly upper triangular part: determinant 1
        upper = [a.entries[i * n + j] if j > i else domain.zero()
                 for i in range(n) for j in range(n)]
        a = Matrix.identity(n, domain) + Matrix(n, n, domain, upper)
    return a


def _canonical(m: Matrix) -> bool:
    """d > 0 and gcd(d, all numerators) = 1 over Q(i), values in [0, p)
    over F_p, with one value per entry."""
    if m.domain == G:
        re, im, d = m.form
        return len(re) == len(im) == m.rows * m.cols and d > 0 and math.gcd(d, *re, *im) == 1
    return len(m.form) == m.rows * m.cols and all(0 <= v < m.domain.p for v in m.form)


def _same(got: Matrix, expected: Matrix):
    assert got.shape == expected.shape
    assert got.entries == expected.entries
    assert got == expected and got.form == expected.form
    assert _canonical(got)


@settings(max_examples=250, deadline=None)
@given(_pairs())
def test_add_sub_neg_and_eq_match_the_entry_loops(pair):
    a, b = pair
    _same(a + b, ref.add(a, b))
    _same(a - b, ref.sub(a, b))
    _same(-a, ref.neg(a))
    assert (a == b) == ref.equal(a, b)
    assert (a.form == b.form) == ref.equal(a, b)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scale_and_star_match_the_entry_loops(data):
    domain = data.draw(st.sampled_from(DOMAINS))
    a = _matrix(data.draw, domain, data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5)))
    coeff = data.draw(st.one_of(_scalars(domain), st.integers(-4, 4)))
    _same(a.scale(coeff), ref.scale(a, coeff))
    _same(a.star(), ref.star(a))
    _same(a.star().star(), a)


@settings(max_examples=250, deadline=None)
@given(_squares())
def test_predicates_and_inverse_match_the_entry_loops(a):
    assert a.is_zero() == ref.is_zero(a)
    assert a.is_hermitian() == ref.is_hermitian(a)
    assert a.is_identity() == ref.is_identity(a)
    try:
        expected = ref.inverse(a)
    except Singular:
        with pytest.raises(Singular):
            inverse(a)
    else:
        got = inverse(a)
        _same(got, expected)
        assert (a @ got).is_identity()


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
def test_empty_shapes(domain, rows, cols):
    z = Matrix.zeros(rows, cols, domain)
    for m in (z + z, z - z, -z, z.scale(2), z.star().star()):
        _same(m, z)
    assert z.is_zero() and z == Matrix(rows, cols, domain, [])
    assert z.is_hermitian() == z.is_identity() == (rows == cols)


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
def test_non_square_predicates(domain):
    m = Matrix.zeros(2, 3, domain)
    assert m.is_zero() and not m.is_hermitian() and not m.is_identity()


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
def test_one_matrix_one_form_whatever_the_route(domain):
    """(2a) @ (b/2) and a @ b are one matrix, reached through forms with
    other denominators; so are entries that share a factor."""
    a = Matrix.from_rows([["1", "2"], ["3", "4"]], domain)
    b = Matrix.from_rows([["1", "0"], ["5", "1"]], domain)
    half = domain.one() / domain.coerce(2)
    routed = a.scale(2) @ b.scale(half)
    assert routed.form == (a @ b).form and routed == a @ b
    assert (a @ b.scale(4)).scale(domain.one() / domain.coerce(4)) == a @ b
    assert inverse(inverse(a)) == a and inverse(inverse(a)).form == a.form
    assert _canonical(routed)


def test_shared_factors_leave_one_gaussian_form():
    thirds = Matrix.from_rows([["2/6", "4/6i"], ["-6/9", "0"]], G)
    same = Matrix.from_rows([["1/3", "2/3i"], ["-2/3", "0"]], G)
    scaled = Matrix.from_rows([["1", "2i"], ["-2", "0"]], G).scale(Fraction(1, 3))
    assert thirds.form == same.form == scaled.form == ((1, 0, -2, 0), (0, 2, 0, 0), 3)
    assert thirds == same == scaled
    # A sum whose entries all gain a factor of the denominator is reduced.
    x = Matrix.from_rows([["1/2", "1/2i"]], G)
    assert (x + x).form == ((1, 0), (0, 1), 1)
    assert (x - x).form == ((0, 0), (0, 0), 1)


def test_entries_are_built_once_on_first_read():
    a = Matrix.from_rows([["1/2", "i"], ["0", "3"]], G)
    product = a @ a
    assert product._entries is None
    first = product.entries
    assert product.entries is first
    assert [str(x) for x in first] == ["1/4", "7/2i", "0", "9"]


DRAW_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (6, 4), (8, 6)]


@pytest.mark.parametrize("domain", (G, prime_field(3), prime_field(7)), ids=lambda d: d.name)
def test_form_draws_match_the_scalar_built_draws(domain):
    """Each draw takes the same rng calls in the same order as the scalar
    path, so forms, elements and the generator state after it all agree."""
    for seed in range(60):
        got, want = random.Random(seed), random.Random(seed)
        for rows, cols in DRAW_SHAPES:
            m = random_matrix(domain, rows, cols, got)
            expected = ref.random_matrix(domain, rows, cols, want)
            assert (m.rows, m.cols, m.form) == (expected.rows, expected.cols, expected.form)
            assert _canonical(m) and m.entries == expected.entries
            assert got.getstate() == want.getstate(), (seed, rows, cols)
        for _ in range(5):
            x = domain.sample(got)
            assert x == ref.sample(domain, want) and domain.is_element(x)
            assert got.getstate() == want.getstate()
        if domain == G:
            assert G.sample_coefficient(got) == ref.sample_coefficient(G, want)
            assert got.getstate() == want.getstate()
