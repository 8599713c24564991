"""The trial loop draws each weight last, only for a trial that can still
reach a verdict.

harness._trials builds a weightless LawContext from the pair, checks the
law's pair_hypotheses on it and only then draws c through gen_instance;
the context records that they hold, so check_hypotheses skips them.
These tests hold it against the eager loop of eager_trials_reference.py,
which draws every weight first: suites and searches must agree, and the
trials kept must be those that the reference's own transcription of the
hypotheses on a and b alone keeps.  They also pin the order in which
check_hypotheses walks each law's hypotheses, which `law check` reports.
"""

from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

import eager_trials_reference as eager
import rolcheck.harness as harness
import rolcheck.laws as laws
from rolcheck import (
    GAUSSIAN_RATIONAL,
    DimensionMismatch,
    DomainMismatch,
    HypothesisNotMet,
    InstanceSpec,
    InvalidSpec,
    LawContext,
    LawId,
    Matrix,
    NoMPInverse,
    gen_instance,
    prime_field,
    run_suite,
    search_counterexample,
)
from rolcheck.harness import _trial_seeds
from rolcheck.laws import LAWS

G = GAUSSIAN_RATIONAL
F3, F5, F7 = prime_field(3), prime_field(5), prime_field(7)
DOMAINS = (G, F3, F5, F7)
TRIALS = 4

# The cells of the differential: every law at n = 2, 3 and the four-way
# laws at n = 4, each over all four domains.
CELLS = [(law, n) for law in LawId for n in (2, 3)] + [(LawId.T38, 4), (LawId.T39, 4)]


def _spec(law, domain, n, seed):
    mode = "scalar" if LAWS[law].side == "scalar" else "commutant"
    return InstanceSpec(domain=domain, size=n, weight_mode=mode, seed=seed)


def _outputs(law, spec):
    """run_suite's report and search_counterexample without and with each
    statement, as plain data."""
    out = [run_suite(law, spec, TRIALS).to_json_dict(), search_counterexample(law, spec, TRIALS)]
    out += [search_counterexample(law, spec, TRIALS, stmt=stmt) for stmt in LAWS[law].statements]
    return out


@pytest.mark.parametrize("law,n", CELLS, ids=[f"{law}-n{n}" for law, n in CELLS])
def test_suites_and_searches_match_the_eager_loop(law, n, monkeypatch):
    for seed, domain in enumerate(DOMAINS, 11):
        spec = _spec(law, domain, n, seed)
        kept = [ctx for _, _, ctx in harness._trials(law, spec, TRIALS)]
        drawn = [ctx for _, _, ctx in eager.trials(law, spec, TRIALS)]
        for trial, (ctx, ref) in enumerate(zip(kept, drawn)):
            keep = ref is not None and eager.PAIR_HYPOTHESES[law](ref)
            assert (ctx is not None) == keep, (domain.name, trial)
            if keep:
                assert (ctx.a, ctx.b, ctx.c) == (ref.a, ref.b, ref.c), (domain.name, trial)
        lazy = _outputs(law, spec)
        with monkeypatch.context() as m:
            m.setattr(harness, "_trials", eager.trials)
            assert _outputs(law, spec) == lazy, domain.name


def test_weights_are_drawn_only_for_kept_trials(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return gen_instance(*args, **kwargs)

    monkeypatch.setattr(harness, "gen_instance", counted)
    trials = 30
    res = run_suite(LawId.T38, InstanceSpec(domain=F7, size=4, weight_mode="commutant",
                                            seed=3), trials)
    # T38's weights meet its hypotheses on c, so every weight drawn is used.
    assert res.hypothesis_skips > 0
    assert len(calls) == res.equivalent + len(res.violations) < trials


@pytest.mark.parametrize("law", [law for law in LawId if LAWS[law].pair_hypotheses], ids=str)
def test_each_pair_hypothesis_is_checked_once_per_trial(law, monkeypatch):
    checked, contexts = Counter(), []

    def counted(name, holds):
        def wrapped(ctx):
            contexts.append(ctx)  # keeps every id distinct
            checked[name, id(ctx)] += 1
            return holds(ctx)
        return name, wrapped

    spec = LAWS[law]
    monkeypatch.setitem(LAWS, law, replace(spec, pair_hypotheses=tuple(
        counted(*hypothesis) for hypothesis in spec.pair_hypotheses)))
    kept = 0
    for domain in (G, F5):
        trial_spec = _spec(law, domain, 3, seed=5)
        res = run_suite(law, trial_spec, 6)
        kept += res.equivalent + len(res.violations)
        for stmt in (None, *LAWS[law].statements):
            search_counterexample(law, trial_spec, 6, stmt=stmt)
    assert kept > 0
    assert set(checked.values()) == {1}


def test_recorded_pair_hypotheses_are_skipped_for_their_law_only():
    # Over F_5, ab has no Moore-Penrose inverse.
    a = Matrix.from_rows([[0, 0], [0, 1]], F5)
    b = Matrix.from_rows([[0, 1], [1, 2]], F5)
    ctx = LawContext(a, b, Matrix.identity(2, F5))
    with pytest.raises(HypothesisNotMet, match="ab is Moore-Penrose invertible"):
        laws.check_hypotheses(LawId.T23, ctx)
    ctx.pair_hypotheses_hold = LawId.T23
    laws.check_hypotheses(LawId.T23, ctx)
    with pytest.raises(HypothesisNotMet, match="ab is Moore-Penrose invertible"):
        laws.check_hypotheses(LawId.GREVILLE, ctx)


def test_bad_weight_spec_is_rejected_before_the_first_trial():
    # Trial 0 of this spec has no a+, so no weight is ever drawn for it.
    spec = InstanceSpec(domain=F3, size=3, weight_mode="commutant", seed=1)
    gen_seed, _ = _trial_seeds(1, 0)
    a, b, _ = harness._draw_pair(replace(spec, seed=gen_seed))
    with pytest.raises(NoMPInverse):
        LawContext(a, b)
    with pytest.raises(InvalidSpec):
        run_suite(LawId.C27, spec, 1)
    for stmt in (None, "i"):
        with pytest.raises(InvalidSpec):
            search_counterexample(LawId.C27, spec, 1, stmt=stmt)
    with pytest.raises(InvalidSpec):
        gen_instance(spec, LawId.C27)
    foreign = replace(spec, weight_mode="scalar", weight_scalar=F5.one())
    with pytest.raises(DomainMismatch):
        run_suite(LawId.C27, foreign, 1)
    with pytest.raises(DomainMismatch):
        search_counterexample(LawId.C27, foreign, 1, stmt="i")


def test_gen_instance_takes_a_drawn_pair():
    for law in (None, LawId.T23, LawId.C27, LawId.T38):
        for mode in ("identity", "scalar", "commutant"):
            if law == LawId.C27 and mode == "commutant":
                continue
            spec = InstanceSpec(domain=F5, size=3, weight_mode=mode, seed=21)
            assert gen_instance(spec, law, harness._draw_pair(spec)) == gen_instance(spec, law)


# --- LawContext takes its weight last ---------------------------------------------


def _pair(domain=G, n=2, seed=0):
    for t in range(seed, seed + 100):
        a, b, _ = harness._draw_pair(InstanceSpec(domain=domain, size=n, seed=t))
        try:
            return LawContext(a, b)
        except NoMPInverse:
            continue
    raise AssertionError("no pair with Moore-Penrose inverses")


def test_weight_is_set_once_and_read_only_after():
    ctx = _pair()
    for name in ("c", "c_star", "cab", "abc"):
        with pytest.raises(AttributeError):
            getattr(ctx, name)
    c = Matrix.identity(2, G).scale(G.coerce(3))
    ctx.set_weight(c)
    assert ctx.cab == c @ ctx.a @ ctx.b and ctx.abc == ctx.a @ ctx.b @ c
    assert ctx.c_star == c.star()
    with pytest.raises(ValueError):
        ctx.set_weight(c)
    full = LawContext(ctx.a, ctx.b, c)
    assert (full.c, full.c_star, full.p, full.q, full.r, full.s) == \
        (ctx.c, ctx.c_star, ctx.p, ctx.q, ctx.r, ctx.s)


def test_weight_shape_and_domain_are_checked():
    ctx = _pair()
    with pytest.raises(DimensionMismatch):
        ctx.set_weight(Matrix.identity(3, G))
    with pytest.raises(DomainMismatch):
        ctx.set_weight(Matrix.identity(2, F5))
    with pytest.raises(DimensionMismatch):
        LawContext(ctx.a, ctx.b, Matrix.identity(3, G))


# --- the registry ----------------------------------------------------------------

_AB = "ab is Moore-Penrose invertible"
_A_COMP = "a(e - bb+) is Moore-Penrose invertible"
_B_COMP = "(e - a+a)b is Moore-Penrose invertible"
_ON_A = "c commutes with a and a*"
_ON_B = "c commutes with b and b*"

# law -> (hypotheses that read c, hypotheses on a and b alone), in the
# order check_hypotheses walks them.
WALK = {
    LawId.T23: ((_ON_B,), (_AB,)),
    LawId.T24: ((_ON_A,), (_AB,)),
    LawId.T25: ((_ON_A, "cab is Moore-Penrose invertible"), ()),
    LawId.T26: ((_ON_B, "abc is Moore-Penrose invertible"), ()),
    LawId.C27: (("c is a scalar multiple of the identity",), (_AB,)),
    LawId.GREVILLE: ((), (_AB,)),
    LawId.KOLIHA_DC: ((), (_AB,)),
    LawId.T32: ((_ON_A,), ()),
    LawId.C33: ((_ON_A,), (_A_COMP,)),
    LawId.T34: ((_ON_B,), ()),
    LawId.C35: ((_ON_B,), (_B_COMP,)),
    LawId.T36: ((_ON_A,), ()),
    LawId.T37: ((_ON_B,), ()),
    LawId.T38: ((_ON_A, "cab = ab", "c*ab = ab"),
                (_AB, "abb+ is Moore-Penrose invertible", _A_COMP)),
    LawId.T39: ((_ON_B, "abc = ab", "abc* = ab"),
                (_AB, "a+ab is Moore-Penrose invertible", _B_COMP)),
}


@pytest.mark.parametrize("law", list(LawId), ids=str)
def test_hypothesis_walk_is_pinned(law, monkeypatch):
    walked = []

    def recording(hypotheses):
        return tuple((name, lambda ctx, name=name: walked.append(name) or True)
                     for name, _ in hypotheses)

    spec = LAWS[law]
    monkeypatch.setattr(laws, "_SIDE_HYPOTHESES",
                        {side: recording(h) for side, h in laws._SIDE_HYPOTHESES.items()})
    monkeypatch.setitem(LAWS, law, replace(spec, hypotheses=recording(spec.hypotheses),
                                           pair_hypotheses=recording(spec.pair_hypotheses)))
    laws.check_hypotheses(law, SimpleNamespace(pair_hypotheses_hold=None))
    reads_c, on_pair = WALK[law]
    assert tuple(walked) == reads_c + on_pair
    assert tuple(name for name, _ in spec.pair_hypotheses) == on_pair


@pytest.mark.parametrize("law", list(LawId), ids=str)
def test_pair_hypotheses_need_no_weight(law):
    spec = LAWS[law]
    reads_c = (*laws._SIDE_HYPOTHESES.get(spec.side, ()), *spec.hypotheses)
    for domain in (G, F5):
        for n in (2, 3):
            ctx = _pair(domain, n, seed=40 + n)
            for name, holds in spec.pair_hypotheses:
                assert holds(ctx) in (True, False), name
            for name, holds in reads_c:
                with pytest.raises(AttributeError):
                    holds(ctx)
