import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rolcheck import (
    GAUSSIAN_RATIONAL,
    DivisionByZero,
    DomainMismatch,
    GaussianRational,
    PrimeFieldElement,
    prime_field,
)

G = GAUSSIAN_RATIONAL
F5 = prime_field(5)

fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)
gaussians = st.builds(GaussianRational, fractions, fractions)


def test_conj_examples():
    z = GaussianRational(Fraction(3, 4), Fraction(1, 2))
    assert z.conj() == GaussianRational(Fraction(3, 4), Fraction(-1, 2))
    assert PrimeFieldElement(3, 5).conj() == PrimeFieldElement(3, 5)


def test_inv_examples():
    assert GaussianRational(Fraction(2, 3)).inv() == GaussianRational(Fraction(3, 2))
    assert PrimeFieldElement(2, 5).inv() == PrimeFieldElement(3, 5)
    # (1+i)(1/2 - 1/2 i) = 1 by direct multiplication
    z = GaussianRational(1, 1)
    expected = GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    assert z * expected == G.one()
    assert z.inv() == expected


def test_inv_zero_raises():
    with pytest.raises(DivisionByZero):
        G.zero().inv()
    with pytest.raises(DivisionByZero):
        F5.zero().inv()


@given(gaussians)
def test_conj_is_involutive(z):
    assert z.conj().conj() == z


@given(gaussians, gaussians)
def test_conj_additive_multiplicative(x, y):
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()


@given(gaussians, gaussians, fractions)
def test_subtraction_matches_adding_the_negation(x, y, q):
    for diff, expected in ((x - y, x + (-y)), (q - x, (-x) + q), (x - q, x + (-q))):
        assert diff == expected
        assert (diff.re_num, diff.im_num, diff.den) == (expected.re_num, expected.im_num,
                                                        expected.den)


@given(gaussians)
def test_norm_real_nonnegative(z):
    n = z * z.conj()
    assert n.im == 0
    assert n.re >= 0
    assert n.is_zero() == z.is_zero()


def test_thousand_random_scalars_involution_axioms():
    rng = random.Random(1)
    for domain in (G, prime_field(7)):
        for _ in range(500):
            x = domain.sample(rng)
            y = domain.sample(rng)
            assert (x + y).conj() == x.conj() + y.conj()
            assert (x * y).conj() == x.conj() * y.conj()
            assert x.conj().conj() == x
            if not x.is_zero():
                assert x * x.inv() == domain.one()


def test_canonical_representation():
    assert GaussianRational(Fraction(2, 4)) == GaussianRational(Fraction(1, 2))
    a = GaussianRational(Fraction(2, 4), Fraction(-6, 9))
    b = GaussianRational(Fraction(1, 2), Fraction(-2, 3))
    assert (a.re_num, a.im_num, a.den) == (b.re_num, b.im_num, b.den)
    assert hash(a) == hash(b)


def test_prime_field_isotropic_vector_exists():
    # over F_5 the vector (1, 2) satisfies 1*1 + 2*2 = 0
    u = PrimeFieldElement(1, 5)
    v = PrimeFieldElement(2, 5)
    assert (u * u.conj() + v * v.conj()).is_zero()


def test_mixed_domain_is_hard_error():
    z = GaussianRational(1)
    f = PrimeFieldElement(2, 5)
    with pytest.raises(DomainMismatch):
        z + f
    with pytest.raises(DomainMismatch):
        f * z
    with pytest.raises(DomainMismatch):
        PrimeFieldElement(1, 5) + PrimeFieldElement(1, 7)
    with pytest.raises(DomainMismatch):
        f + Fraction(1, 2)


def test_prime_field_modulus_validation():
    with pytest.raises(ValueError):
        prime_field(9)
    with pytest.raises(ValueError):
        prime_field(2)
    with pytest.raises(ValueError):
        prime_field(2**31 + 11)
    assert prime_field(2147483647).p == 2147483647


@pytest.mark.parametrize(
    "text,re_, im_",
    [
        ("1/2+3/4i", Fraction(1, 2), Fraction(3, 4)),
        ("-2", Fraction(-2), Fraction(0)),
        ("5i", Fraction(0), Fraction(5)),
        ("i", Fraction(0), Fraction(1)),
        ("-i", Fraction(0), Fraction(-1)),
        ("-2-1/3i", Fraction(-2), Fraction(-1, 3)),
        ("0", Fraction(0), Fraction(0)),
        ("3/4-5i", Fraction(3, 4), Fraction(-5)),
    ],
)
def test_gaussian_parse(text, re_, im_):
    z = G.parse(text)
    assert z.re == re_ and z.im == im_


def test_gaussian_format_canonical_roundtrip():
    rng = random.Random(2)
    for _ in range(300):
        z = G.sample(rng)
        s = G.format_scalar(z)
        assert G.parse(s) == z
        assert G.format_scalar(G.parse(s)) == s


@pytest.mark.parametrize("bad", ["", "1+", "i2", "1//2", "1.5", "2+3", "x", "1/2 + 3i",
                                 "1/0", "1/0i", "2-1/0i"])
def test_gaussian_parse_rejects(bad):
    with pytest.raises(ValueError):
        G.parse(bad)


def test_prime_field_parse_format():
    assert F5.parse("3") == PrimeFieldElement(3, 5)
    assert F5.parse("7") == PrimeFieldElement(2, 5)
    assert F5.format_scalar(PrimeFieldElement(9, 5)) == "4"
    with pytest.raises(ValueError):
        F5.parse("3/4")
