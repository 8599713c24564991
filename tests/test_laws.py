import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import rolcheck.laws
from rolcheck import (
    EQUIVALENT,
    GAUSSIAN_RATIONAL,
    HYPOTHESIS_NOT_MET,
    HypothesisNotMet,
    InstanceSpec,
    LawContext,
    LawId,
    Matrix,
    NoMPInverse,
    VIOLATION,
    check_equivalence,
    gen_instance,
    inclusion_statement_sampled,
    is_k_inverse,
    law_statement,
    mp_exists,
    mp_inverse,
    prime_field,
    rank,
)
from rolcheck.harness import _trial_seeds
from rolcheck.laws import LAWS, Inclusion
from variant_reference import variant_context

G = GAUSSIAN_RATIONAL


def _witness_pair():
    a = Matrix.from_rows([[1, 0], [0, 0]], G)
    b = Matrix.from_rows([[1, 1], [1, 1]], G)
    return a, b


def _instances(law, count, seed, size=3, weight="commutant", **kw):
    spec = InstanceSpec(domain=G, size=size, weight_mode=weight, seed=seed, **kw)
    for trial in range(count):
        gen_seed, sample_seed = _trial_seeds(seed, trial)
        a, b, c = gen_instance(replace(spec, seed=gen_seed), law)
        yield LawContext(a, b, c), sample_seed


def test_law_context_trivial_and_projection():
    e = Matrix.identity(2, G)
    ctx = LawContext(e, e, e)
    assert ctx.p == e and ctx.q == e and ctx.r == e and ctx.s == e
    a = Matrix.from_rows([[1, 0], [0, 0]], G)
    ctx = LawContext(a, e, e)
    assert ctx.s == a  # a+ a for this projection is a itself
    assert ctx.q == a


def test_law_context_blanket_identities():
    # construction itself asserts hermitian-ness and the defining identities
    for ctx, _ in _instances(LawId.T23, 20, seed=31):
        assert ctx.p.is_hermitian() and ctx.q.is_hermitian()
        assert ctx.r.is_hermitian() and ctx.s.is_hermitian()
        assert ctx.a @ ctx.s == ctx.a
        assert ctx.a @ ctx.q == ctx.a_dag_star
        assert ctx.r @ ctx.b_dag_star == ctx.b
        assert ctx.p @ ctx.b_dag_star == ctx.b_dag_star


@pytest.mark.parametrize("domain", [G, prime_field(3), prime_field(5), prime_field(7)],
                         ids=lambda d: d.name)
def test_q_and_r_inverses_are_the_blanket_products(domain):
    # (x x*)+ = (x+)* x+: the context holds q+ = a* a and r+ = (b+)* b+
    # without computing them, and they must be the Moore-Penrose inverses.
    built = deficient = 0
    for size in (1, 2, 3, 4):
        for seed in range(10):
            spec = InstanceSpec(domain=domain, size=size, seed=seed)
            try:
                ctx = LawContext(*gen_instance(spec, LawId.T23))
            except NoMPInverse:
                continue
            built += 1
            deficient += rank(ctx.a) < size and rank(ctx.b) < size
            assert mp_exists(ctx.q) and mp_exists(ctx.r)
            assert ctx.q_dag == mp_inverse(ctx.q)
            assert ctx.r_dag == mp_inverse(ctx.r)
    assert built >= 20 and deficient >= 5, (built, deficient)


def test_greville_witness_instance():
    a, b = _witness_pair()
    ctx = LawContext(a, b, Matrix.identity(2, G))
    assert mp_inverse(a @ b) == Matrix.from_rows([["1/2", 0], ["1/2", 0]], G)
    assert ctx.b_dag @ ctx.a_dag == Matrix.from_rows([["1/4", 0], ["1/4", 0]], G)
    assert law_statement(LawId.GREVILLE, "i", ctx) is False
    assert law_statement(LawId.GREVILLE, "ii", ctx) is False
    report = check_equivalence(LawId.GREVILLE, ctx)
    assert report.verdict == EQUIVALENT


def test_greville_converse_instance_over_f5():
    # (ab)+ = b+a+ holds here, yet the commutation statements of GREVILLE
    # and KOLIHA_DC fail.  The transpose on F_5 is not a proper involution
    # (x*x = 0 for some x != 0), which the converse may need.
    f5 = prime_field(5)
    a = Matrix.from_rows([[1, 1, 2], [0, 0, 0], [4, 4, 3]], f5)
    b = Matrix.from_rows([[2, 1, 3], [4, 2, 1], [3, 4, 2]], f5)
    assert mp_exists(a) and mp_exists(b)
    ctx = LawContext(a, b, Matrix.identity(3, f5))
    assert is_k_inverse(ctx.ab, ctx.b_dag @ ctx.a_dag, {1, 2, 3, 4})
    assert law_statement(LawId.GREVILLE, "i", ctx) is True
    assert ctx.r @ ctx.s != ctx.s @ ctx.r
    assert not (ctx.q_dag @ ctx.p).is_hermitian()
    assert ctx.s @ ctx.b @ ctx.b_star @ ctx.a_star != ctx.b @ ctx.b_star @ ctx.a_star
    x = Matrix.from_rows([[1], [2], [0]], f5)
    assert not x.is_zero() and (x.star() @ x).is_zero()
    assert not f5.mp_always_exists


def test_c27_witness_lambda_two():
    a, b = _witness_pair()
    lam2 = Matrix.identity(2, G).scale(2)
    ctx = LawContext(a, b, lam2)
    values = {s: law_statement(LawId.C27, s, ctx) for s in ("i", "ii", "iii")}
    assert values == {"i": True, "ii": True, "iii": True}
    # lambda = 1 is the plain reverse order law, false on this witness
    ctx1 = LawContext(a, b, Matrix.identity(2, G))
    values1 = {s: law_statement(LawId.C27, s, ctx1) for s in ("i", "ii", "iii")}
    assert values1 == {"i": False, "ii": False, "iii": False}
    assert check_equivalence(LawId.C27, ctx).verdict == EQUIVALENT
    assert check_equivalence(LawId.C27, ctx1).verdict == EQUIVALENT


def test_c27_rejects_non_scalar_weight():
    a, b = _witness_pair()
    c = Matrix.from_rows([[1, 0], [0, 2]], G)
    with pytest.raises(HypothesisNotMet):
        law_statement(LawId.C27, "i", LawContext(a, b, c))


@pytest.mark.parametrize("law", [LawId.T23, LawId.T24, LawId.T25, LawId.T26])
def test_section2_equivalences_hold(law):
    for ctx, seed in _instances(law, 40, seed=32):
        report = check_equivalence(law, ctx, seed=seed)
        assert report.verdict == EQUIVALENT, report.statement_values


@pytest.mark.parametrize("law", [LawId.T24, LawId.T25, LawId.T26])
def test_reduction_to_t23_is_exact(law):
    for ctx, _ in _instances(law, 25, seed=33):
        vctx = variant_context(ctx, law)
        for stmt in LAWS[law].statements:
            assert law_statement(law, stmt, ctx) == law_statement(LawId.T23, stmt, vctx)


def test_variant_blanket_element_identities():
    for ctx, _ in _instances(LawId.T24, 10, seed=34):
        v = variant_context(ctx, LawId.T24)
        assert v.p == ctx.s and v.s == ctx.p
        assert v.q == ctx.r_dag and v.r == ctx.q_dag
    for ctx, _ in _instances(LawId.T25, 10, seed=35):
        v = variant_context(ctx, LawId.T25)
        assert v.p == ctx.s and v.q == ctx.r and v.r == ctx.q and v.s == ctx.p
    for ctx, _ in _instances(LawId.T26, 10, seed=36):
        v = variant_context(ctx, LawId.T26)
        assert v.p == ctx.p and v.q == ctx.q_dag and v.r == ctx.r_dag and v.s == ctx.s


def test_variant_context_rejects_other_laws():
    a, b = _witness_pair()
    ctx = LawContext(a, b, Matrix.identity(2, G))
    with pytest.raises(ValueError):
        variant_context(ctx, LawId.T23)


def test_greville_koliha_and_t23_with_identity_weight_agree():
    for ctx, seed in _instances(LawId.GREVILLE, 40, seed=37, weight="identity"):
        g_i = law_statement(LawId.GREVILLE, "i", ctx)
        g_ii = law_statement(LawId.GREVILLE, "ii", ctx)
        k_ii = law_statement(LawId.KOLIHA_DC, "ii", ctx)
        t_i = law_statement(LawId.T23, "i", ctx)
        assert g_i == t_i
        assert g_ii == k_ii  # p-q commutation transfers to p-q+ commutation
        assert check_equivalence(LawId.GREVILLE, ctx, seed=seed).verdict == EQUIVALENT
        assert check_equivalence(LawId.KOLIHA_DC, ctx, seed=seed).verdict == EQUIVALENT


def test_greville_truth_is_scale_invariant():
    rng = random.Random(38)
    for ctx, _ in _instances(LawId.GREVILLE, 15, seed=39, weight="identity", size=2):
        mu = Fraction(rng.randint(1, 5), rng.choice((1, 2, 3)))
        nu = Fraction(-rng.randint(1, 5), rng.choice((1, 2, 3)))
        scaled = LawContext(ctx.a.scale(mu), ctx.b.scale(nu), ctx.c)
        for stmt in ("i", "ii"):
            assert law_statement(LawId.GREVILLE, stmt, ctx) == law_statement(
                LawId.GREVILLE, stmt, scaled
            )


def test_sampled_statement_decided_exactly():
    a, b = _witness_pair()
    ctx = LawContext(a, b, Matrix.identity(2, G))
    assert law_statement(LawId.T32, "i", ctx) is False
    assert law_statement(LawId.T32, "i", LawContext(a, a, ctx.c)) is True
    with pytest.raises(ValueError):
        law_statement(LawId.T23, "iv", ctx)
    # an unknown statement is rejected before any hypothesis is checked
    with pytest.raises(ValueError):
        law_statement(LawId.T23, "iv", LawContext(a, b, Matrix.from_rows([[0, 1], [0, 0]], G)))


def test_t32_confirmation_path():
    # invertible b with identity weight makes statement (ii) true
    spec = InstanceSpec(domain=G, size=3, rank_b=3, weight_mode="identity", seed=40)
    a, b, c = gen_instance(spec, LawId.T32)
    ctx = LawContext(a, b, c)
    assert law_statement(LawId.T32, "ii", ctx) is True
    verdict = inclusion_statement_sampled(LawId.T32, ctx, samples=50, seed=41)
    assert verdict.all_passed and verdict.tested == 50
    report = check_equivalence(LawId.T32, ctx, samples=50, seed=41)
    assert report.verdict == EQUIVALENT
    assert report.statement_values == {"i": True, "ii": True}


def test_t32_falsification_path_finds_witness():
    a, b = _witness_pair()
    ctx = LawContext(a, b, Matrix.identity(2, G))
    assert law_statement(LawId.T32, "ii", ctx) is False
    verdict = inclusion_statement_sampled(LawId.T32, ctx, samples=500, seed=42)
    assert not verdict.all_passed
    b_inv, a_inv, product = verdict.witness
    assert is_k_inverse(a, a_inv, {1, 3})
    assert is_k_inverse(b, b_inv, {1, 3})
    assert not is_k_inverse(a @ b, product, {1, 3})
    report = check_equivalence(LawId.T32, ctx, seed=42)
    assert report.verdict == EQUIVALENT
    assert report.statement_values == {"i": False, "ii": False}
    assert report.witness is not None


def test_trivial_zero_product_is_flagged():
    zero = Matrix.zeros(2, 2, G)
    b = Matrix.from_rows([[1, 1], [1, 1]], G)
    ctx = LawContext(zero, b, Matrix.identity(2, G))
    report = check_equivalence(LawId.T32, ctx, seed=43)
    assert report.verdict == EQUIVALENT
    assert report.notes is not None
    assert report.statement_values["i"] is True


_ZERO_NOTE = "target product is zero; every candidate is trivially a K-inverse"


def _outcome_instance(name):
    e = Matrix.identity(2, G)
    a, b = _witness_pair()
    return {"units": (e, e, e), "zero_a": (Matrix.zeros(2, 2, G), b, e),
            "witness_pair": (a, b, e)}[name]


# (law, planted exact statements, instance, expected verdict, statement
# values, details, notes, whether a witness is reported, calls of the
# decider and the witness draws in order).  The planted statements reach
# each outcome on a correct checker; the inclusion itself (None) is not
# planted.
_OUTCOMES = {
    "exact-disagree": (
        LawId.T38, {"i": True, "ii": None, "iii": False, "iv": True}, "units",
        VIOLATION, {"i": True, "ii": None, "iii": False, "iv": True},
        "statement values disagree: (i)=True, (ii)=None, (iii)=False, (iv)=True",
        None, False, []),
    "zero-target-exact-false": (
        LawId.T32, {"i": None, "ii": False}, "zero_a",
        VIOLATION, {"i": True, "ii": False},
        "statement values disagree: (i)=True, (ii)=False", _ZERO_NOTE, False, []),
    "exact-false-inclusion-holds": (
        LawId.T32, {"i": None, "ii": False}, "units",
        VIOLATION, {"i": True, "ii": False},
        "statement values disagree: (i)=True, (ii)=False", None, False,
        [("draws", 500), "decide"]),
    "exact-true-draw-breaks": (
        LawId.T32, {"i": None, "ii": True}, "witness_pair",
        VIOLATION, {"i": False, "ii": True},
        "exact statements hold but sample 1 broke the inclusion", None, True,
        ["decide", ("draws", 200)]),
    "exact-true-inclusion-holds": (
        LawId.T32, {"i": None, "ii": True}, "units",
        EQUIVALENT, {"i": True, "ii": True}, None, None, False, ["decide"]),
    "exact-false-draw-breaks": (
        LawId.T32, {"i": None, "ii": False}, "witness_pair",
        EQUIVALENT, {"i": False, "ii": False}, None, None, True, [("draws", 500)]),
}


@pytest.mark.parametrize("case", list(_OUTCOMES))
def test_check_equivalence_outcomes(monkeypatch, case):
    (law, planted, instance, verdict, values, details, notes, has_witness,
     calls) = _OUTCOMES[case]
    spec = LAWS[law]
    statements = {stmt: spec.statements[stmt] if value is None
                  else (lambda ctx, value=value: value) for stmt, value in planted.items()}
    monkeypatch.setitem(LAWS, law, replace(spec, statements=statements))
    log = []
    draws, decide = rolcheck.laws.inclusion_statement_sampled, rolcheck.laws.inclusion_holds

    def logged_draws(law, ctx, samples, seed):
        log.append(("draws", samples))
        return draws(law, ctx, samples, seed)

    def logged_decide(sampled, ctx):
        log.append("decide")
        return decide(sampled, ctx)

    monkeypatch.setattr(rolcheck.laws, "inclusion_statement_sampled", logged_draws)
    monkeypatch.setattr(rolcheck.laws, "inclusion_holds", logged_decide)
    report = check_equivalence(law, LawContext(*_outcome_instance(instance)))
    assert (report.verdict, report.statement_values, report.details, report.notes) == (
        verdict, values, details, notes)
    assert (report.witness is not None) == has_witness
    assert log == calls


@pytest.mark.parametrize("budget", ["samples", "falsify_samples"])
def test_check_equivalence_rejects_a_draw_budget_below_one(budget):
    # The budget is checked before the hypotheses, so the error does not
    # depend on the instance.
    a, b = _witness_pair()
    met = LawContext(a, b, Matrix.identity(2, G))
    unmet = LawContext(a, b, Matrix.from_rows([[0, 1], [0, 0]], G))
    assert check_equivalence(LawId.T32, unmet).verdict == HYPOTHESIS_NOT_MET
    for ctx in (met, unmet):
        for value in (0, -1):
            with pytest.raises(ValueError, match=f"^{budget} must be >= 1, got {value}$"):
                check_equivalence(LawId.T32, ctx, **{budget: value})


@pytest.mark.parametrize("law", [LawId.T32, LawId.C33, LawId.T34, LawId.C35,
                                 LawId.T36, LawId.T37])
def test_section3_inclusion_equivalences_hold(law):
    for ctx, seed in _instances(law, 30, seed=44):
        report = check_equivalence(law, ctx, samples=60, seed=seed)
        assert report.verdict == EQUIVALENT, (law, report.statement_values, report.details)


@pytest.mark.parametrize("law", [LawId.T38, LawId.T39])
def test_four_way_equivalences_hold(law):
    for ctx, seed in _instances(law, 30, seed=45):
        report = check_equivalence(law, ctx, samples=60, seed=seed)
        assert report.verdict == EQUIVALENT, (law, report.statement_values, report.details)
        assert set(report.statement_values) == {"i", "ii", "iii", "iv"}


def test_t38_hypothesis_gate_names_failure():
    a, b = _witness_pair()
    c = Matrix.identity(2, G).scale(2)  # commutes but 2ab != ab
    ctx = LawContext(a, b, c)
    with pytest.raises(HypothesisNotMet) as err:
        law_statement(LawId.T38, "i", ctx)
    assert "cab = ab" in str(err.value)
    report = check_equivalence(LawId.T38, ctx)
    assert report.verdict == HYPOTHESIS_NOT_MET
    assert report.hypotheses_met is False


@pytest.mark.parametrize("law, a, b, hypothesis", [
    (LawId.T38, [[1, 2, 0], [1, 2, 0], [0, 0, 0]], [[0, 1, 0], [1, 0, 0], [0, 2, 0]],
     "abb+ is Moore-Penrose invertible"),
    (LawId.T39, [[1, 1, 2], [2, 1, 1], [2, 2, 1]], [[1, 0, 1], [1, 0, 1], [0, 0, 0]],
     "a+ab is Moore-Penrose invertible"),
], ids=["T38", "T39"])
def test_four_way_invertibility_hypotheses_can_fail(law, a, b, hypothesis):
    # a+, b+ and (ab)+ exist over F_3, yet abb+ or a+ab has no
    # Moore-Penrose inverse, so these hypotheses are not implied.
    f3 = prime_field(3)
    ctx = LawContext(Matrix.from_rows(a, f3), Matrix.from_rows(b, f3), Matrix.identity(3, f3))
    assert mp_exists(ctx.ab)
    assert check_equivalence(law, ctx).to_json_dict() == {
        "law": law.value, "verdict": HYPOTHESIS_NOT_MET, "statement_values": {},
        "hypotheses_met": False, "details": hypothesis,
    }


def test_t37_regression_abc_nonzero():
    # c commutes with b and b*, and abc != 0.  The second conjunct of
    # (ii) once read ab = ab b+ a+ ab c, which is false here.
    a = Matrix.identity(3, G)
    b = Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 0]], G)
    c = Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]], G)
    ctx = LawContext(a, b, c)
    assert not ctx.abc.is_zero()
    report = check_equivalence(LawId.T37, ctx)
    assert report.verdict == EQUIVALENT, report.details
    assert report.statement_values == {"i": True, "ii": True}


def test_t37_regression_f5_seed_103():
    # abc = 0 but ab != 0: statement (i) holds on the zero target, and so
    # must (ii).
    spec = InstanceSpec(domain=prime_field(5), size=3, weight_mode="commutant", seed=103)
    ctx = LawContext(*gen_instance(spec, LawId.T37))
    assert ctx.abc.is_zero() and not ctx.ab.is_zero()
    report = check_equivalence(LawId.T37, ctx)
    assert report.verdict == EQUIVALENT, report.details
    assert report.statement_values == {"i": True, "ii": True}


def test_commutation_hypothesis_gate():
    a = Matrix.from_rows([[1, 1], [0, 1]], G)
    b = Matrix.from_rows([[1, 0], [1, 1]], G)
    c = Matrix.from_rows([[0, 1], [0, 0]], G)  # commutes with neither side
    ctx = LawContext(a, b, c)
    with pytest.raises(HypothesisNotMet):
        law_statement(LawId.T23, "i", ctx)
    with pytest.raises(HypothesisNotMet):
        law_statement(LawId.T24, "i", ctx)


@pytest.mark.parametrize("law", list(LawId))
def test_registry_entry_is_consistent(law):
    spec = LAWS[law]
    assert spec.side in ("a", "b", "scalar", None)
    # each slot is an exact evaluator or a set inclusion, and a law has at
    # most one set inclusion
    slots = spec.statements.values()
    assert all(callable(s) or isinstance(s, Inclusion) and s.ks in ((1, 3), (1, 4))
               for s in slots)
    assert sum(isinstance(s, Inclusion) for s in slots) <= 1
    assert list(spec.statements) == ["i", "ii", "iii", "iv"][:len(spec.statements)]
    # the four-way weights fix ab from the side they commute with
    assert spec.weight_zero is None or spec.side in ("a", "b")


@pytest.mark.parametrize("law", [LawId.T38, LawId.T39], ids=str)
def test_generated_four_way_weights_meet_the_hypotheses(law):
    """Every weight other than e that gen_instance draws for a four-way
    law meets the law's side hypothesis and its hypotheses on c, in every
    domain, whether or not a+ and b+ exist.  Budget: seeds 0-49 at
    n = 2-4 in four domains, about 1.5 s per law.  Drawn on T38's
    products, five F_3 weights of T39 here broke abc = ab (n=2 seeds 17
    and 40, n=3 seeds 7 and 13, n=4 seed 8)."""
    spec = LAWS[law]
    hypotheses = (*rolcheck.laws._SIDE_HYPOTHESES[spec.side], *spec.hypotheses)
    for domain in (G, prime_field(3), prime_field(5), prime_field(7)):
        for n in (2, 3, 4):
            for seed in range(50):
                instance = InstanceSpec(domain, n, weight_mode="commutant", seed=seed)
                a, b, c = gen_instance(instance, law)
                if c == Matrix.identity(n, domain):
                    continue
                ab = a @ b
                ctx = SimpleNamespace(a=a, b=b, c=c, c_star=c.star(), ab=ab,
                                      cab=c @ ab, abc=ab @ c)
                failed = [name for name, holds in hypotheses if not holds(ctx)]
                assert failed == [], (domain.name, n, seed)


_PLANTED_MP_SCRIPT = """
import sys
import rolcheck.laws as laws
from rolcheck import GAUSSIAN_RATIONAL, BlanketIdentityFailed, Matrix

print("optimize:", sys.flags.optimize)
real_mp_inverse = laws.mp_inverse
laws.mp_inverse = lambda m: real_mp_inverse(m).scale(2)
e = Matrix.identity(2, GAUSSIAN_RATIONAL)
try:
    laws.LawContext(e, e, e)
except BlanketIdentityFailed as exc:
    print("caught:", exc.identity)
"""


def test_blanket_identity_checks_survive_python_O():
    # A planted mp_inverse returning 2 a+ keeps s = a+a hermitian but
    # breaks a = as; the check must fire although -O strips asserts.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-O", "-c", _PLANTED_MP_SCRIPT],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["optimize: 1", "caught: a = as"]


_PLANTED_FACTORS_SCRIPT = """
import random
import sys
from rolcheck import GAUSSIAN_RATIONAL, BlanketIdentityFailed, LawContext
from rolcheck.harness import random_matrix_of_rank
from rolcheck.matrices import RankFactorization

print("optimize:", sys.flags.optimize)
rng = random.Random(1)
a = random_matrix_of_rank(GAUSSIAN_RATIONAL, 3, 3, 2, rng)
b = random_matrix_of_rank(GAUSSIAN_RATIONAL, 3, 3, 2, rng)
a._factors = RankFactorization(a._factors.f.scale(2), a._factors.g, 2)
try:
    LawContext(a, b)
except BlanketIdentityFailed as exc:
    print("caught:", exc.identity)
"""


def test_blanket_identity_checks_guard_recorded_factors_under_python_O():
    # A recorded factorization (2u, v) of a = u v factors 2a, so MacDuffee's
    # formula gives a+/2: s = a+a/2 stays hermitian but a = as breaks.  The
    # existing blanket checks catch it with asserts stripped.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-O", "-c", _PLANTED_FACTORS_SCRIPT],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["optimize: 1", "caught: a = as"]
