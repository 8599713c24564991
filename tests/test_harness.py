import json
import random
from dataclasses import replace

import pytest

from rolcheck import (
    GAUSSIAN_RATIONAL,
    InstanceSpec,
    InvalidSpec,
    LawContext,
    LawId,
    Matrix,
    commutes_with_pair,
    gen_instance,
    law_statement,
    matrix_from_json,
    prime_field,
    rank,
    run_suite,
    search_counterexample,
)
import rolcheck.harness
from rolcheck.harness import _trial_seeds, random_matrix_of_rank
from rolcheck.matrices import random_matrix

G = GAUSSIAN_RATIONAL
F5 = prime_field(5)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        InstanceSpec(domain=G, size=0)
    with pytest.raises(InvalidSpec):
        InstanceSpec(domain=G, size=9)
    with pytest.raises(InvalidSpec):
        InstanceSpec(domain=G, size=3, rank_a=4)
    with pytest.raises(InvalidSpec):
        InstanceSpec(domain=G, size=3, weight_mode="sideways")


@pytest.mark.parametrize("mode", ["identity", "commutant"])
def test_spec_rejects_a_weight_scalar_its_mode_ignores(mode):
    with pytest.raises(InvalidSpec, match="weight_scalar needs weight_mode scalar"):
        InstanceSpec(domain=G, size=3, weight_mode=mode, weight_scalar=2)


@pytest.mark.parametrize("field, value", [
    ("size", True), ("size", 3.0), ("rank_a", 1.5), ("rank_a", True), ("rank_b", "2"),
    ("seed", "7"), ("seed", 1.0), ("seed", False),
])
def test_spec_rejects_non_integer_fields(field, value):
    with pytest.raises(InvalidSpec, match=f"{field} must be an integer"):
        InstanceSpec(**{"domain": G, "size": 3, field: value})


@pytest.mark.parametrize("count", [True, 2.0, "3"])
def test_suite_and_search_reject_non_integer_counts(count):
    spec = InstanceSpec(domain=G, size=2, seed=1)
    with pytest.raises(InvalidSpec, match="trials must be an integer"):
        run_suite(LawId.T23, spec, count)
    with pytest.raises(InvalidSpec, match="budget must be an integer"):
        search_counterexample(LawId.T23, spec, count)


def test_gen_instance_rank_targets():
    for k in range(3):
        spec = InstanceSpec(domain=G, size=2, rank_a=k, rank_b=2 - k, seed=50 + k)
        a, b, c = gen_instance(spec, LawId.T23)
        assert rank(a) == k
        assert rank(b) == 2 - k
        assert commutes_with_pair(c, b)


def test_rank_draws_over_f_p_run_no_exact_rank(monkeypatch):
    """Over F_p the residues are the values, so their rank is the rank: a
    draw that falls short is redrawn with no exact rank, and the draws are
    those of redrawing until the exact rank is right.  Over F_3 some
    6 x 6 products of 6 x 4 and 4 x 6 factors fall short."""
    f3 = prime_field(3)
    calls = []
    monkeypatch.setattr(rolcheck.harness, "rank", lambda a: calls.append(a) or rank(a))
    got, want = random.Random(6), random.Random(6)
    short = 0
    for _ in range(60):
        a = random_matrix(f3, 6, 4, want) @ random_matrix(f3, 4, 6, want)
        while rank(a) != 4:
            short += 1
            a = random_matrix(f3, 6, 4, want) @ random_matrix(f3, 4, 6, want)
        assert random_matrix_of_rank(f3, 6, 6, 4, got) == a
    assert short > 0 and calls == []


def test_gen_instance_weight_modes():
    spec = InstanceSpec(domain=G, size=3, weight_mode="identity", seed=51)
    _, _, c = gen_instance(spec, LawId.T23)
    assert c == Matrix.identity(3, G)

    lam = G.parse("2/3")
    spec = InstanceSpec(domain=G, size=3, weight_mode="scalar", weight_scalar=lam, seed=51)
    _, _, c = gen_instance(spec, LawId.C27)
    assert c == Matrix.identity(3, G).scale(lam)

    spec = InstanceSpec(domain=G, size=3, weight_mode="scalar", seed=51)
    _, _, c = gen_instance(spec, LawId.C27)
    assert c == Matrix.identity(3, G).scale(c[0, 0]) and not c[0, 0].is_zero()

    with pytest.raises(InvalidSpec):
        gen_instance(replace(spec, weight_mode="commutant"), LawId.C27)


def test_gen_instance_determinism():
    spec = InstanceSpec(domain=G, size=3, weight_mode="commutant", seed=52)
    assert gen_instance(spec, LawId.T23) == gen_instance(spec, LawId.T23)
    other = gen_instance(replace(spec, seed=53), LawId.T23)
    assert other != gen_instance(spec, LawId.T23)


def test_t38_weight_satisfies_affine_constraints():
    nontrivial = 0
    for trial in range(25):
        seed, _ = _trial_seeds(54, trial)
        spec = InstanceSpec(domain=G, size=3, weight_mode="commutant", seed=seed)
        a, b, c = gen_instance(spec, LawId.T38)
        ab = a @ b
        assert commutes_with_pair(c, a)
        assert c @ ab == ab
        assert c.star() @ ab == ab
        if not c.is_identity():
            nontrivial += 1
    assert nontrivial > 5


def test_t38_weight_falls_back_to_identity_when_forced():
    # invertible a and ab leave y = 0 as the only solution
    spec = InstanceSpec(domain=G, size=2, rank_a=2, rank_b=2, weight_mode="commutant", seed=55)
    a, b, c = gen_instance(spec, LawId.T38)
    assert rank(a @ b) == 2
    assert c == Matrix.identity(2, G)


def test_run_suite_t23_accounting():
    spec = InstanceSpec(domain=G, size=2, weight_mode="commutant", seed=56)
    res = run_suite(LawId.T23, spec, 40)
    assert res.trials == 40
    assert res.equivalent + len(res.violations) + res.hypothesis_skips == 40
    assert res.to_json_dict()["inconclusive"] == 0
    assert len(res.violations) == 0
    assert res.equivalent == 40


def test_run_suite_greville_sees_both_truth_values():
    spec = InstanceSpec(domain=G, size=2, weight_mode="identity", seed=57)
    res = run_suite(LawId.GREVILLE, spec, 60)
    assert len(res.violations) == 0
    seen = set()
    for trial in range(60):
        gen_seed, _ = _trial_seeds(57, trial)
        a, b, c = gen_instance(replace(spec, seed=gen_seed), LawId.GREVILLE)
        seen.add(law_statement(LawId.GREVILLE, "i", LawContext(a, b, c)))
    assert seen == {True, False}


def test_run_suite_prime_field_skips():
    spec = InstanceSpec(domain=F5, size=2, weight_mode="commutant", seed=58)
    res = run_suite(LawId.T23, spec, 40)
    assert res.hypothesis_skips > 0
    assert len(res.violations) == 0
    assert res.equivalent + res.hypothesis_skips == 40


def test_run_suite_json_deterministic():
    spec = InstanceSpec(domain=G, size=2, weight_mode="commutant", seed=59)
    r1 = run_suite(LawId.T23, spec, 25)
    r2 = run_suite(LawId.T23, spec, 25)
    assert json.dumps(r1.to_json_dict()) == json.dumps(r2.to_json_dict())
    assert "elapsed" not in r1.to_json_dict()


def test_search_finds_greville_failure_and_replays():
    spec = InstanceSpec(domain=G, size=2, weight_mode="identity", seed=60)
    witness = search_counterexample(LawId.GREVILLE, spec, budget=100, stmt="i")
    assert witness is not None
    a = matrix_from_json(witness["a"])
    b = matrix_from_json(witness["b"])
    c = matrix_from_json(witness["c"])
    assert law_statement(LawId.GREVILLE, "i", LawContext(a, b, c)) is False


def test_search_no_violation_of_theorem():
    spec = InstanceSpec(domain=G, size=2, weight_mode="commutant", seed=61)
    assert search_counterexample(LawId.T23, spec, budget=40) is None


def test_search_statement_validation():
    spec = InstanceSpec(domain=G, size=2, seed=62)
    with pytest.raises(InvalidSpec):
        search_counterexample(LawId.T23, spec, budget=5, stmt="vii")
    with pytest.raises(InvalidSpec):
        search_counterexample(LawId.T23, spec, budget=0)
