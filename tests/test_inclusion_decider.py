"""The exact decision of the set inclusions against the sampling
reference in inclusion_reference.py, and the witnesses check_equivalence
reports for them.

For every law with a set inclusion, over Q(i), F_5 and F_7 at n <= 4,
laws.inclusion_holds must agree with 200 reference draws, and both
outcomes must occur: identity weights with the parametrized side of
full rank make inclusions that hold, scalar weights at n = 3 make
inclusions that fail.  Every witness a report carries must replay: its
inverses are K-inverses of b and a, and its product is not a K-inverse
of the target, also when the draws find nothing and the witness comes
from basis matrices.
"""

import random
from dataclasses import replace

import pytest

import rolcheck.laws
from rolcheck import (
    EQUIVALENT,
    GAUSSIAN_RATIONAL,
    VIOLATION,
    InstanceSpec,
    LawContext,
    LawId,
    Matrix,
    NoMPInverse,
    check_equivalence,
    gen_instance,
    inclusion_holds,
    is_k_inverse,
    prime_field,
)
from rolcheck.harness import random_matrix_of_rank
from rolcheck.laws import LAWS, SampledVerdict
from rolcheck.matrices import random_matrix
from inclusion_reference import INCLUSIONS, sampled_inclusion
from k_inverse_reference import sample_13_inverse, sample_14_inverse

G = GAUSSIAN_RATIONAL
F5 = prime_field(5)
DOMAINS = (G, F5, prime_field(7))
DRAWS = 200
SAMPLED_LAWS = [law for law in LawId if LAWS[law].sampled is not None]


def _contexts(law, domain):
    """(context, seed) pairs at n <= 4: identity weights with one side at
    full rank (b for K = {1,3}, a for K = {1,4}), the law's generated
    weights, also with the other side of rank 1 so that they need not be
    scalar, and scalar weights at n = 3."""
    full, low = ("rank_b", "rank_a") if 3 in LAWS[law].sampled.ks else ("rank_a", "rank_b")
    plans = [
        (2, "identity", {full: 2}, 100),
        (4, "identity", {full: 4}, 101),
        (2, "commutant", {}, 102),
        (3, "commutant", {}, 103),
        (3, "commutant", {full: 3, low: 1}, 100),
        (3, "scalar", {}, 100),
        (3, "scalar", {}, 102),
    ]
    for n, mode, ranks, seed in plans:
        spec = InstanceSpec(domain=domain, size=n, weight_mode=mode, seed=seed, **ranks)
        try:
            yield LawContext(*gen_instance(spec, law)), seed
        except NoMPInverse:
            continue


def _differential(law, contexts):
    """The outcomes of inclusion_holds, and the instances where it
    disagrees with the reference."""
    outcomes, disagreements = set(), []
    for ctx, seed in contexts:
        decided = inclusion_holds(LAWS[law].sampled, ctx)
        outcomes.add(decided)
        if decided != sampled_inclusion(law, ctx.a, ctx.b, ctx.c, DRAWS, seed):
            disagreements.append((seed, decided))
    return outcomes, disagreements


def test_reference_covers_every_sampled_law():
    assert set(INCLUSIONS) == set(SAMPLED_LAWS)
    for law in SAMPLED_LAWS:
        assert INCLUSIONS[law][0] == LAWS[law].sampled.ks


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
@pytest.mark.parametrize("law", SAMPLED_LAWS, ids=str)
def test_decision_agrees_with_sampling(law, domain):
    outcomes, disagreements = _differential(law, _contexts(law, domain))
    assert disagreements == []
    assert outcomes == {True, False}


@pytest.mark.parametrize("law,domain,slip", [
    (LawId.T32, F5, lambda ctx, b_inv, a_inv: ctx.c @ b_inv @ a_inv),
    (LawId.T37, G, lambda ctx, b_inv, a_inv: a_inv @ b_inv),
], ids=["T32-c-moved", "T37-swapped"])
def test_planted_product_slip_is_caught(monkeypatch, law, domain, slip):
    spec = LAWS[law]
    monkeypatch.setitem(LAWS, law, replace(spec, sampled=replace(spec.sampled, product=slip)))
    _, disagreements = _differential(law, _contexts(law, domain))
    assert disagreements


def _replays(law, ctx, witness) -> bool:
    sampled = LAWS[law].sampled
    b_inv, a_inv, product = witness
    return (is_k_inverse(ctx.b, b_inv, sampled.ks)
            and is_k_inverse(ctx.a, a_inv, sampled.ks)
            and product == sampled.product(ctx, b_inv, a_inv)
            and not is_k_inverse(sampled.target(ctx), product, sampled.ks))


def _blind_sampler(law, ctx, samples, seed):
    # A witness search that finds nothing.
    return SampledVerdict(True, samples)


def test_basis_witness_for_an_equivalence_when_draws_find_nothing(monkeypatch):
    monkeypatch.setattr(rolcheck.laws, "inclusion_statement_sampled", _blind_sampler)
    a = Matrix.from_rows([[1, 0], [0, 0]], G)
    b = Matrix.from_rows([[1, 1], [1, 1]], G)
    ctx = LawContext(a, b, Matrix.identity(2, G))
    report = check_equivalence(LawId.T32, ctx, falsify_samples=1)
    assert report.verdict == EQUIVALENT
    assert report.statement_values == {"i": False, "ii": False}
    assert _replays(LawId.T32, ctx, report.witness)


def test_basis_witness_for_a_violation_when_draws_find_nothing(monkeypatch):
    # Swapping the factors of T32's product breaks the inclusion on an
    # instance whose exact statements hold.
    spec = LAWS[LawId.T32]
    slip = replace(spec.sampled, product=lambda ctx, b_inv, a_inv: a_inv @ b_inv @ ctx.c)
    monkeypatch.setitem(LAWS, LawId.T32, replace(spec, sampled=slip))
    monkeypatch.setattr(rolcheck.laws, "inclusion_statement_sampled", _blind_sampler)
    spec = InstanceSpec(domain=G, size=2, rank_a=1, rank_b=2, weight_mode="identity", seed=7)
    ctx = LawContext(*gen_instance(spec, LawId.T32))
    report = check_equivalence(LawId.T32, ctx, samples=1)
    assert report.verdict == VIOLATION
    assert report.statement_values == {"i": False, "ii": True}
    assert "basis" in report.details
    assert _replays(LawId.T32, ctx, report.witness)


def test_every_reported_witness_replays_with_one_draw():
    # One draw per search: the witnesses come from the first draw that
    # breaks the inclusion.  The basis witness, which takes over when no
    # draw does, is covered by the two tests above.
    witnesses = 0
    for law in SAMPLED_LAWS:
        for seed in range(6):
            spec = InstanceSpec(domain=F5, size=3, weight_mode="identity", seed=seed)
            try:
                ctx = LawContext(*gen_instance(spec, law))
            except NoMPInverse:
                continue
            report = check_equivalence(law, ctx, samples=1, seed=seed, falsify_samples=1)
            if report.witness is not None:
                witnesses += 1
                assert _replays(law, ctx, report.witness), (law, seed)
    assert witnesses > 0


@pytest.mark.parametrize("ks", [(1, 3), (1, 4)], ids=["13", "14"])
@pytest.mark.parametrize("domain", (G, prime_field(3), F5, prime_field(7)), ids=lambda d: d.name)
def test_k_inverses_match_the_reference_families(domain, ks):
    # laws._k_inverses, the one parametrization the checker runs, against
    # the families built from each matrix alone, on concrete Y and Z.
    family = sample_13_inverse if 3 in ks else sample_14_inverse
    rng = random.Random(17)
    compared = sides_differ = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_matrix_of_rank(domain, n, n, rng.randint(0, n), rng)
        b = random_matrix_of_rank(domain, n, n, rng.randint(0, n), rng)
        try:
            ctx = LawContext(a, b)
        except NoMPInverse:
            continue
        y, z = random_matrix(domain, n, n, rng), random_matrix(domain, n, n, rng)
        assert rolcheck.laws._k_inverses(ctx, ks, y, z) == (family(b, z), family(a, y))
        compared += 1
        sides = (ctx.comp13_a, ctx.comp13_b) if 3 in ks else (ctx.comp14_a, ctx.comp14_b)
        sides_differ += sides[0] != sides[1]
    # Complements that differ between a and b make a swapped side show.
    assert compared >= 20 and sides_differ >= 10
