"""The trial loop of harness._trials from before the weight was drawn
last, kept as the reference for tests/test_weight_last.py.

Every trial draws its whole instance with gen_instance, weight included,
and then builds its LawContext; the context is None when a or b has no
Moore-Penrose inverse.  Hypotheses are left to the caller.

PAIR_HYPOTHESES transcribes a second time, apart from laws.LAWS, the
hypotheses of each law that read a and b alone, so that a trial the new
loop skips before its weight can be told apart from one it should keep.
"""

from dataclasses import replace

from rolcheck import LawContext, LawId, NoMPInverse, gen_instance, mp_exists
from rolcheck.harness import _trial_seeds


def trials(law, spec, count):
    for trial in range(count):
        gen_seed, sample_seed = _trial_seeds(spec.seed, trial)
        a, b, c = gen_instance(replace(spec, seed=gen_seed), law)
        try:
            ctx = LawContext(a, b, c)
        except NoMPInverse:
            ctx = None
        yield trial, sample_seed, ctx


def _mp(m):
    return m.domain.mp_always_exists or mp_exists(m)


def _ab(ctx):
    return _mp(ctx.a @ ctx.b)


def _a_comp(ctx):  # a(e - bb+)
    return _mp(ctx.a - ctx.a @ ctx.b @ ctx.b_dag)


def _b_comp(ctx):  # (e - a+a)b
    return _mp(ctx.b - ctx.a_dag @ ctx.a @ ctx.b)


# law -> predicate on a weightless context: every hypothesis on a and b alone
PAIR_HYPOTHESES = {
    LawId.T23: _ab,
    LawId.T24: _ab,
    LawId.T25: lambda ctx: True,  # (cab)+ reads c
    LawId.T26: lambda ctx: True,  # (abc)+ reads c
    LawId.C27: _ab,
    LawId.GREVILLE: _ab,
    LawId.KOLIHA_DC: _ab,
    LawId.T32: lambda ctx: True,
    LawId.C33: _a_comp,
    LawId.T34: lambda ctx: True,
    LawId.C35: _b_comp,
    LawId.T36: lambda ctx: True,
    LawId.T37: lambda ctx: True,
    LawId.T38: lambda ctx: _ab(ctx) and _mp(ctx.a @ ctx.b @ ctx.b_dag) and _a_comp(ctx),
    LawId.T39: lambda ctx: _ab(ctx) and _mp(ctx.a_dag @ ctx.a @ ctx.b) and _b_comp(ctx),
}
