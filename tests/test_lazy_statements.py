"""Statement (i) decided by the Penrose equations, and statements that
stop at their first false part.

Statement (i) of T23-T26, C27, GREVILLE and KOLIHA_DC says that a product
z is the Moore-Penrose inverse of m = ab, cab or abc.  The checker decides
it with is_mp_inverse(m, z), the four Penrose equations on z, which by
uniqueness of m+ holds exactly when mp_inverse(m) == z.  Here the two are
held against each other over Q(i), F_3, F_5 and F_7 at n = 2-4, on a pool
where (i) is true as well as false, and on an F_5 pair whose ab has no
Moore-Penrose inverse.  Spies on Matrix.__matmul__ and on mp_inverse pin
the laziness: check_equivalence forms no further Moore-Penrose inverse on
T23 and GREVILLE, and a false first part of T23 (ii) or (iii) ends the
statement before the second part's products are formed.
"""

import random
from dataclasses import replace

import pytest

import rolcheck.geninv
import rolcheck.laws
import rolcheck.matrices
from rolcheck import (
    GAUSSIAN_RATIONAL,
    InstanceSpec,
    LawContext,
    LawId,
    Matrix,
    NoMPInverse,
    Singular,
    check_equivalence,
    gen_instance,
    inverse,
    is_mp_inverse,
    mp_inverse,
    prime_field,
)
from rolcheck.harness import _trial_seeds, random_matrix_of_rank
from rolcheck.laws import LAWS
from rolcheck.matrices import random_matrix

G = GAUSSIAN_RATIONAL
DOMAINS = (G, prime_field(3), prime_field(5), prime_field(7))

# Statement (i) of each law as (m, z): it says m+ = z.
STATEMENT_I = {
    LawId.T23: (lambda ctx: ctx.a @ ctx.b, lambda ctx: ctx.c @ ctx.b_dag @ ctx.a_dag),
    LawId.T24: (lambda ctx: ctx.a @ ctx.b, lambda ctx: ctx.b_dag @ ctx.a_dag @ ctx.c),
    LawId.T25: (lambda ctx: ctx.c @ ctx.a @ ctx.b, lambda ctx: ctx.b_dag @ ctx.a_dag),
    LawId.T26: (lambda ctx: ctx.a @ ctx.b @ ctx.c, lambda ctx: ctx.b_dag @ ctx.a_dag),
    LawId.C27: (lambda ctx: ctx.a @ ctx.b, lambda ctx: ctx.c @ ctx.b_dag @ ctx.a_dag),
    LawId.GREVILLE: (lambda ctx: ctx.a @ ctx.b, lambda ctx: ctx.b_dag @ ctx.a_dag),
    LawId.KOLIHA_DC: (lambda ctx: ctx.a @ ctx.b, lambda ctx: ctx.b_dag @ ctx.a_dag),
}


def _cayley(domain, n, rng):
    """U = (e - K)(e + K)^-1 for K = x - x*: unitary over Q(i), where e + K
    is always invertible, and orthogonal over F_p, where K is redrawn
    while e + K is singular."""
    e = Matrix.identity(n, domain)
    while True:
        x = random_matrix(domain, n, n, rng)
        k = x - x.star()
        try:
            return (e - k) @ inverse(e + k)
        except Singular:
            continue


def _diagonal(domain, n, rank, rng):
    entries = [domain.zero()] * (n * n)
    for i in range(rank):
        entries[i * (n + 1)] = next(s for s in iter(lambda: domain.sample(rng), None)
                                    if not s.is_zero())
    return Matrix(n, n, domain, entries)


def _coupled_pair(domain, n, rng):
    """a = U D1 V*, b = V D2 W* with D1, D2 diagonal of intermediate rank:
    (ab)+ = W (D1 D2)+ U* = b+ a+, so statement (i) holds at c = e."""
    u, v, w = (_cayley(domain, n, rng) for _ in range(3))
    d1 = _diagonal(domain, n, rng.randint(1, n - 1), rng)
    d2 = _diagonal(domain, n, rng.randint(1, n - 1), rng)
    return u @ d1 @ v.star(), v @ d2 @ w.star()


def _pool(domain, n, rng):
    """(a, b, c) instances on which statement (i) is true and false: coupled
    pairs at c = e, 2e and a random c, a = 0, a or b invertible with the
    other of intermediate rank, and random pairs of intermediate rank."""
    def intermediate():
        return random_matrix_of_rank(domain, n, n, rng.randint(1, n - 1), rng)

    e = Matrix.identity(n, domain)
    coupled = _coupled_pair(domain, n, rng)
    yield (*coupled, e)
    yield (*coupled, e.scale(2))
    yield (*_coupled_pair(domain, n, rng), random_matrix(domain, n, n, rng))
    yield (Matrix.zeros(n, n, domain), random_matrix(domain, n, n, rng),
           random_matrix(domain, n, n, rng))
    yield random_matrix_of_rank(domain, n, n, n, rng), intermediate(), e
    yield intermediate(), random_matrix_of_rank(domain, n, n, n, rng), e
    for _ in range(2):
        yield intermediate(), intermediate(), random_matrix(domain, n, n, rng)


def _expected(m, z):
    try:
        return mp_inverse(m) == z
    except NoMPInverse:
        return False


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
def test_statement_i_agrees_with_the_computed_inverse(domain):
    rng = random.Random(21)
    seen = {law: set() for law in STATEMENT_I}
    for n in (2, 3, 4):
        for a, b, c in _pool(domain, n, rng):
            try:
                ctx = LawContext(a, b, c)
            except NoMPInverse:
                continue
            for law, (m_of, z_of) in STATEMENT_I.items():
                m, z = m_of(ctx), z_of(ctx)
                expected = _expected(m, z)
                assert is_mp_inverse(m, z) == expected, (law, a, b, c)
                assert LAWS[law].statements["i"](ctx) == expected, (law, a, b, c)
                seen[law].add(expected)
    assert all(values == {True, False} for values in seen.values()), seen


def test_statement_i_is_false_where_ab_has_no_inverse():
    """Over F_5, a and b have Moore-Penrose inverses but ab does not, as
    (ab)(ab)* = 0 with ab of rank 1.  No z solves the Penrose equations,
    so every statement (i) about (ab)+ is False, at c = e also for cab
    and abc, while mp_inverse refuses ab."""
    f5 = prime_field(5)
    a = Matrix.from_rows([[0, 0], [0, 1]], f5)
    b = Matrix.from_rows([[0, 1], [1, 2]], f5)
    ctx = LawContext(a, b, Matrix.identity(2, f5))
    with pytest.raises(NoMPInverse):
        mp_inverse(ctx.ab)
    for law, (m_of, z_of) in STATEMENT_I.items():
        assert not is_mp_inverse(m_of(ctx), z_of(ctx)), law
        assert not LAWS[law].statements["i"](ctx), law


def _spy(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def spied(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spied)


@pytest.mark.parametrize("law", (LawId.T23, LawId.GREVILLE), ids=str)
@pytest.mark.parametrize("domain", (G, prime_field(7)), ids=lambda d: d.name)
def test_check_equivalence_forms_no_further_mp_inverse(law, domain, monkeypatch):
    """Once the context holds a+ and b+, deciding the law inverts nothing:
    statement (i) runs on the Penrose equations, not on (ab)+."""
    spec = InstanceSpec(domain, 4, rank_a=2, rank_b=3,
                        weight_mode="commutant" if LAWS[law].side else "identity")
    decided = 0
    for trial in range(6):
        a, b, c = gen_instance(replace(spec, seed=_trial_seeds(5, trial)[0]), law)
        try:
            ctx = LawContext(a, b, c)
        except NoMPInverse:
            continue
        calls = []
        with monkeypatch.context() as patch:
            for module in (rolcheck.laws, rolcheck.geninv):
                _spy(patch, module, "mp_inverse", calls)
            for module in (rolcheck.geninv, rolcheck.matrices):
                _spy(patch, module, "inverse", calls)
            report = check_equivalence(law, ctx)
        decided += report.hypotheses_met
        assert calls == [], (trial, calls)
    assert decided > 0


def _products_with(monkeypatch, evaluate, ctx):
    """(value, the (left, right) operand pairs of every product formed)."""
    pairs = []
    original = Matrix.__matmul__

    def spied(self, other):
        pairs.append((self, other))
        return original(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "__matmul__", spied)
        value = evaluate(ctx)
    return value, pairs


def test_false_first_part_forms_no_product_of_the_second(monkeypatch):
    """T23 (ii) and (iii) are each two parts joined by `and`.  Only their
    second parts multiply s and r (r s and s r in (ii), s r in (iii)), so
    no such product may be formed when the first part is false; on a
    coupled pair, where both parts hold, it is."""
    spec = InstanceSpec(G, 4, rank_a=2, rank_b=3, weight_mode="commutant", seed=3)
    false_ctx = LawContext(*gen_instance(spec, LawId.T23))
    a, b = _coupled_pair(G, 4, random.Random(4))
    true_ctx = LawContext(a, b, Matrix.identity(4, G))
    evaluators = LAWS[LawId.T23].statements
    for stmt, first_part in (
        ("ii", lambda ctx: (ctx.a @ (ctx.c @ ctx.p @ ctx.q - ctx.q @ ctx.p)
                            @ ctx.b_dag_star @ ctx.c_star).is_zero()),
        ("iii", lambda ctx: ctx.s @ ctx.c @ ctx.p @ ctx.q @ ctx.p @ ctx.c_star
                            == ctx.q @ ctx.p @ ctx.c_star),
    ):
        assert not first_part(false_ctx) and first_part(true_ctx), stmt
        for ctx, value in ((false_ctx, False), (true_ctx, True)):
            got, pairs = _products_with(monkeypatch, evaluators[stmt], ctx)
            second_part = [(x, y) for x, y in pairs
                           if (x is ctx.s and y is ctx.r) or (x is ctx.r and y is ctx.s)]
            assert got == value, (stmt, value)
            assert bool(second_part) == value, (stmt, value)
