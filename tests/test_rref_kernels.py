"""The exact row-reduction kernels behind matrices.rref against the generic
Gauss-Jordan reference in rref_reference.py: same RREF, same pivots."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rolcheck.scalars
from rolcheck import (
    GAUSSIAN_RATIONAL,
    GaussianRational,
    Matrix,
    PrimeFieldElement,
    prime_field,
    rref,
)
from rolcheck.harness import random_matrix_of_rank
from rolcheck.peirce import _equation_system
from rref_reference import rref as reference_rref

G = GAUSSIAN_RATIONAL
# F_13 is the widest field whose rows row_reduce_mod packs; F_17 and the
# Q(i) residue prime run its loop.
DOMAINS = (G, prime_field(3), prime_field(5), prime_field(7), prime_field(13),
           prime_field(17), prime_field(rolcheck.scalars._P))


def _scalars(domain):
    if domain == G:
        frac = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
        return st.builds(GaussianRational, frac, st.one_of(st.just(0), frac))
    return st.integers(0, domain.p - 1).map(lambda v: PrimeFieldElement(v, domain.p))


@st.composite
def _matrices(draw):
    """Small matrices with many zeros, duplicated and scaled rows, or a
    low-rank product; Q(i) entries mix real and non-real values and
    denominators 1 to 6."""
    domain = draw(st.sampled_from(DOMAINS))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(domain.zero()), _scalars(domain))
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        u = Matrix(rows, k, domain, draw(st.lists(entry, min_size=rows * k, max_size=rows * k)))
        v = Matrix(k, cols, domain, draw(st.lists(entry, min_size=k * cols, max_size=k * cols)))
        m = [list((u @ v).row(i)) for i in range(rows)]
    else:
        m = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    for _ in range(draw(st.integers(0, 3)) if m else 0):
        src, scale = draw(st.sampled_from(m)), draw(_scalars(domain))
        m.insert(draw(st.integers(0, len(m))), [scale * x for x in src])
    return Matrix(len(m), cols, domain, [x for row in m for x in row])


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_rref_matches_reference(a):
    assert rref(a) == reference_rref(a)


def _edge_cases():
    for domain in DOMAINS:
        one = domain.one()
        yield Matrix.zeros(0, 4, domain)
        yield Matrix.zeros(3, 0, domain)
        yield Matrix.zeros(0, 0, domain)
        yield Matrix.zeros(3, 4, domain)
        yield Matrix.identity(3, domain)
        yield Matrix(3, 2, domain, [one, one + one] * 3)  # rank 1, equal rows
    yield Matrix.from_rows([["1/2i", "0", "1/3"], ["1/6i", "2/5+1i", "7/4"]], G)


@pytest.mark.parametrize("a", list(_edge_cases()), ids=repr)
def test_rref_edge_cases(a):
    reduced, pivots = rref(a)
    assert (reduced, pivots) == reference_rref(a)
    assert reduced.shape == a.shape


def _top_slot_systems(p):
    """Systems that push row_reduce_mod's packed slots to their bounds.
    Scaling a pivot p - 1 by its inverse p - 1 makes (p - 1)**2 in every
    slot where the row holds p - 1.  Clearing f = p - 1 from a row x with
    x = p - 1 where the pivot row y is 0 makes x + f (P - y) = p * p - 1."""
    t = p - 1
    return [
        [[1, 0, 0, 0], [t, t, t, 0], [t, 0, t, t], [t, t, t, t]],
        [[t, t, t], [t, t, t]],
        [[t, 0, t, 0], [t, t, 0, 0], [0, t, t, t]],
        [[0, 1, 0], [t, t, t], [t, 0, t]],
    ]


@pytest.mark.parametrize("p", [13, 17])
def test_rref_at_the_packing_bound(p):
    """row_reduce_mod packs rows when p * p <= 256: F_13 is the last field
    that does, F_17 the first that runs the loop."""
    domain = prime_field(p)
    for rows in _top_slot_systems(p):
        a = Matrix(len(rows), len(rows[0]), domain,
                   [domain.coerce(v) for row in rows for v in row])
        assert rref(a) == reference_rref(a)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(1, 4), st.integers(0, 4), st.integers(0, 10_000))
def test_rref_matches_reference_on_weight_systems(domain, n, rank_b, seed):
    """The Kronecker systems matrix_equation_basis solves for the commutant
    weight and for the four-way weight, built by the helper it calls."""
    rng = random.Random(seed)
    b = random_matrix_of_rank(domain, n, n, min(rank_b, n), rng)
    ab = random_matrix_of_rank(domain, n, n, rng.randint(0, n), rng) @ b
    systems = [
        _equation_system(n, domain, commute_with=(b, b.star())),
        _equation_system(n, domain, commute_with=(b, b.star()),
                         left_zero=(ab.star(),), right_zero=(ab,)),
    ]
    assert [s.shape for s in systems] == [(2 * n * n, n * n), (4 * n * n, n * n)]
    for system in systems:
        assert rref(system) == reference_rref(system)
