"""Weighted reverse order laws and their equivalence checking.

Each law is a theorem of the form "the following statements are
equivalent" about square matrices a, b and a weight c over one scalar
domain.  The blanket elements

    p = b b+,  q = a+ (a+)*,  r = b b*,  s = a+ a

are all hermitian and satisfy a = a s, (a+)* = a q, b = r (b+)*,
(b+)* = p (b+)*.  Statement formulas are transcribed symbol for symbol,
with no algebraic simplification, so a transcription slip shows up as an
equivalence violation in the randomized suites.

Law identifiers and their statement (i):

    T23       (a b)+ = c b+ a+          c commutes with b, b*
    T24       (a b)+ = b+ a+ c          c commutes with a, a*
    T25       (c a b)+ = b+ a+          c commutes with a, a*
    T26       (a b c)+ = b+ a+          c commutes with b, b*
    C27       (a b)+ = lam b+ a+        c = lam e, complex scalar
    GREVILLE  (a b)+ = b+ a+            iff r s = s r and p q = q p
    KOLIHA_DC (a b)+ = b+ a+            iff r s = s r and p q+ = q+ p
    T32/C33   b{1,3} a{1,3} c subset of (a b){1,3}
    T34/C35   c b{1,4} a{1,4} subset of (a b){1,4}
    T36       b{1,3} a{1,3} subset of (c a b){1,3}
    T37       b{1,4} a{1,4} subset of (a b c){1,4}
    T38       four-way: b b+ a* a b = a* a b, the {1,3} inclusion,
              b+ a+ c in (a b){1,3}, b+ a+ c in (a b){1,2,3}
    T39       dual four-way with {1,4} and c b+ a+

Everything the checker knows about a law (its commute side, further
hypotheses, statements and sampled inclusion, and whether its weight must
also fix ab) is one LawSpec entry of the LAWS registry below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Optional

from .errors import BlanketIdentityFailed, DimensionMismatch, HypothesisNotMet
from .geninv import commutes_with_pair, mp_exists, mp_inverse
from .matrices import Matrix, matrix_to_json, random_matrix
from .peirce import is_k_inverse
from .scalars import PrimeFieldDomain


class LawId(Enum):
    T23 = "T23"
    T24 = "T24"
    T25 = "T25"
    T26 = "T26"
    C27 = "C27"
    GREVILLE = "GREVILLE"
    KOLIHA_DC = "KOLIHA_DC"
    T32 = "T32"
    C33 = "C33"
    T34 = "T34"
    C35 = "C35"
    T36 = "T36"
    T37 = "T37"
    T38 = "T38"
    T39 = "T39"

    def __str__(self):
        return self.value


EQUIVALENT = "equivalent"
VIOLATION = "violation"
HYPOTHESIS_NOT_MET = "hypothesis_not_met"
INCONCLUSIVE = "inconclusive"


class LawContext:
    """An instance (a, b, c) with the blanket elements precomputed.

    Construction fails with NoMPInverse when a or b lacks a
    Moore-Penrose inverse (possible over prime fields only).  The
    defining identities of the blanket elements are verified eagerly, and
    a failing one raises BlanketIdentityFailed naming it.
    """

    def __init__(self, a: Matrix, b: Matrix, c: Matrix):
        if a.rows != a.cols or a.shape != b.shape or a.shape != c.shape:
            raise DimensionMismatch(
                f"laws need equal square shapes, got {a.shape}, {b.shape}, {c.shape}"
            )
        a._same_domain(b)
        a._same_domain(c)
        self.a = a
        self.b = b
        self.c = c
        self.a_dag = mp_inverse(a)
        self.b_dag = mp_inverse(b)
        self.a_star = a.star()
        self.b_star = b.star()
        self.c_star = c.star()
        self.a_dag_star = self.a_dag.star()
        self.b_dag_star = self.b_dag.star()
        self.p = b @ self.b_dag
        self.q = self.a_dag @ self.a_dag_star
        self.r = b @ self.b_star
        self.s = self.a_dag @ a
        for identity, holds in (
            ("p = bb+ is hermitian", lambda: self.p.is_hermitian()),
            ("q = a+ a+* is hermitian", lambda: self.q.is_hermitian()),
            ("r = bb* is hermitian", lambda: self.r.is_hermitian()),
            ("s = a+a is hermitian", lambda: self.s.is_hermitian()),
            ("a = as", lambda: a @ self.s == a),
            ("(a+)* = aq", lambda: a @ self.q == self.a_dag_star),
            ("b = r(b+)*", lambda: self.r @ self.b_dag_star == b),
            ("(b+)* = p(b+)*", lambda: self.p @ self.b_dag_star == self.b_dag_star),
        ):
            if not holds():
                raise BlanketIdentityFailed(identity)

    @cached_property
    def e(self) -> Matrix:
        return Matrix.identity(self.a.rows, self.a.domain)

    @cached_property
    def zero(self) -> Matrix:
        return Matrix.zeros(self.a.rows, self.a.cols, self.a.domain)

    @cached_property
    def ab(self) -> Matrix:
        return self.a @ self.b

    @cached_property
    def ab_dag(self) -> Matrix:
        return mp_inverse(self.ab)

    @cached_property
    def q_dag(self) -> Matrix:
        return mp_inverse(self.q)

    @cached_property
    def r_dag(self) -> Matrix:
        return mp_inverse(self.r)

    # complements used by the {1,3}/{1,4} parametrizations
    @cached_property
    def comp13_a(self) -> Matrix:
        return self.e - self.a_dag @ self.a

    @cached_property
    def comp13_b(self) -> Matrix:
        return self.e - self.b_dag @ self.b

    @cached_property
    def comp14_a(self) -> Matrix:
        return self.e - self.a @ self.a_dag

    @cached_property
    def comp14_b(self) -> Matrix:
        return self.e - self.b @ self.b_dag


def law_context(a: Matrix, b: Matrix, c: Matrix) -> LawContext:
    return LawContext(a, b, c)


def variant_context(ctx: LawContext, variant: LawId) -> LawContext:
    """The substituted instance that reduces T24/T25/T26 to T23.

    T24 evaluates T23 on (b*, a*, c*), T25 on (b+, a+, c), and T26 on
    ((a+)*, (b+)*, c*).  The substituted blanket elements come out as
    (s, r+, q+, p), (s, r, q, p) and (p, q+, r+, s) respectively, which
    the tests confirm by recomputation."""
    if variant == LawId.T24:
        return LawContext(ctx.b_star, ctx.a_star, ctx.c_star)
    if variant == LawId.T25:
        return LawContext(ctx.b_dag, ctx.a_dag, ctx.c)
    if variant == LawId.T26:
        return LawContext(ctx.a_dag_star, ctx.b_dag_star, ctx.c_star)
    raise ValueError(f"no reduction defined for {variant}")


def _is_scalar_matrix(c: Matrix) -> bool:
    return c == Matrix.identity(c.rows, c.domain).scale(c[0, 0]) if c.rows else True


def _mp_ok(m: Matrix) -> bool:
    # Existence only ever fails over prime fields.
    if isinstance(m.domain, PrimeFieldDomain):
        return mp_exists(m)
    return True


# --- exact statement evaluators ---------------------------------------------


def _t23_i(ctx):
    return ctx.ab_dag == ctx.c @ ctx.b_dag @ ctx.a_dag


def _t23_ii(ctx):
    lhs1 = ctx.a @ (ctx.c @ ctx.p @ ctx.q - ctx.q @ ctx.p) @ ctx.b_dag_star @ ctx.c_star
    lhs2 = ctx.a @ (ctx.r @ ctx.s @ ctx.c_star - ctx.s @ ctx.r) @ ctx.b_dag_star
    return lhs1.is_zero() and lhs2.is_zero()


def _t23_iii(ctx):
    first = ctx.s @ ctx.c @ ctx.p @ ctx.q @ ctx.p @ ctx.c_star == ctx.q @ ctx.p @ ctx.c_star
    second = ctx.s @ ctx.r @ ctx.s @ ctx.p @ ctx.c_star == ctx.s @ ctx.r
    return first and second


def _t24_i(ctx):
    return ctx.ab_dag == ctx.b_dag @ ctx.a_dag @ ctx.c


def _t24_ii(ctx):
    lhs1 = ctx.b_star @ (ctx.c_star @ ctx.s @ ctx.r_dag - ctx.r_dag @ ctx.s) @ ctx.a_dag @ ctx.c
    lhs2 = ctx.b_star @ (ctx.q_dag @ ctx.p @ ctx.c - ctx.p @ ctx.q_dag) @ ctx.a_dag
    return lhs1.is_zero() and lhs2.is_zero()


def _t24_iii(ctx):
    first = ctx.p @ ctx.c_star @ ctx.s @ ctx.r_dag @ ctx.s @ ctx.c == ctx.r_dag @ ctx.s @ ctx.c
    second = ctx.p @ ctx.q_dag @ ctx.p @ ctx.s @ ctx.c == ctx.p @ ctx.q_dag
    return first and second


def _t25_i(ctx):
    return mp_inverse(ctx.c @ ctx.ab) == ctx.b_dag @ ctx.a_dag


def _t25_ii(ctx):
    lhs1 = ctx.b_dag @ (ctx.c @ ctx.s @ ctx.r - ctx.r @ ctx.s) @ ctx.a_star @ ctx.c_star
    lhs2 = ctx.b_dag @ (ctx.q @ ctx.p @ ctx.c_star - ctx.p @ ctx.q) @ ctx.a_star
    return lhs1.is_zero() and lhs2.is_zero()


def _t25_iii(ctx):
    first = ctx.p @ ctx.c @ ctx.s @ ctx.r @ ctx.s @ ctx.c_star == ctx.r @ ctx.s @ ctx.c_star
    second = ctx.p @ ctx.q @ ctx.p @ ctx.s @ ctx.c_star == ctx.p @ ctx.q
    return first and second


def _t26_i(ctx):
    return mp_inverse(ctx.ab @ ctx.c) == ctx.b_dag @ ctx.a_dag


def _t26_ii(ctx):
    lhs1 = ctx.a_dag_star @ (ctx.c_star @ ctx.p @ ctx.q_dag - ctx.q_dag @ ctx.p) @ ctx.b @ ctx.c
    lhs2 = ctx.a_dag_star @ (ctx.r_dag @ ctx.s @ ctx.c - ctx.s @ ctx.r_dag) @ ctx.b
    return lhs1.is_zero() and lhs2.is_zero()


def _t26_iii(ctx):
    first = ctx.s @ ctx.c_star @ ctx.p @ ctx.q_dag @ ctx.p @ ctx.c == ctx.q_dag @ ctx.p @ ctx.c
    second = ctx.s @ ctx.r_dag @ ctx.s @ ctx.p @ ctx.c == ctx.s @ ctx.r_dag
    return first and second


def _c27_i(ctx):
    return ctx.ab_dag == ctx.c @ ctx.b_dag @ ctx.a_dag


def _c27_ii(ctx):
    lhs1 = ctx.a @ (ctx.c @ ctx.p @ ctx.q - ctx.q @ ctx.p) @ ctx.b_dag_star
    lhs2 = ctx.a @ (ctx.r @ ctx.s @ ctx.c_star - ctx.s @ ctx.r) @ ctx.b_dag_star
    return lhs1.is_zero() and lhs2.is_zero()


def _c27_iii(ctx):
    first = ctx.c @ ctx.s @ ctx.p @ ctx.q @ ctx.p == ctx.q @ ctx.p
    second = ctx.c_star @ ctx.s @ ctx.r @ ctx.s @ ctx.p == ctx.s @ ctx.r
    return first and second


def _greville_i(ctx):
    return ctx.ab_dag == ctx.b_dag @ ctx.a_dag


def _greville_ii(ctx):
    return ctx.r @ ctx.s == ctx.s @ ctx.r and ctx.p @ ctx.q == ctx.q @ ctx.p


def _koliha_ii(ctx):
    return ctx.r @ ctx.s == ctx.s @ ctx.r and ctx.p @ ctx.q_dag == ctx.q_dag @ ctx.p


def _t32_ii(ctx):
    return (
        is_k_inverse(ctx.ab, ctx.b_dag @ ctx.a_dag @ ctx.c, {1, 3})
        and is_k_inverse(ctx.ab, ctx.b_dag @ ctx.a_dag, {1})
        and is_k_inverse(ctx.a @ (ctx.e - ctx.p), ctx.a_dag, {1})
    )


def _c33_ii(ctx):
    return is_k_inverse(ctx.ab, ctx.b_dag @ ctx.a_dag @ ctx.c, {1, 3}) and is_k_inverse(
        ctx.ab, ctx.b_dag @ ctx.a_dag, {1}
    )


def _t34_ii(ctx):
    return (
        is_k_inverse(ctx.ab, ctx.c @ ctx.b_dag @ ctx.a_dag, {1, 4})
        and is_k_inverse(ctx.ab, ctx.b_dag @ ctx.a_dag, {1})
        and is_k_inverse((ctx.e - ctx.s) @ ctx.b, ctx.b_dag, {1})
    )


def _c35_ii(ctx):
    return is_k_inverse(ctx.ab, ctx.c @ ctx.b_dag @ ctx.a_dag, {1, 4}) and is_k_inverse(
        ctx.ab, ctx.b_dag @ ctx.a_dag, {1}
    )


def _t36_ii(ctx):
    cab = ctx.c @ ctx.ab
    a_comp = ctx.a @ (ctx.e - ctx.p)
    return (
        is_k_inverse(cab, ctx.b_dag @ ctx.a_dag, {1, 3})
        and cab == cab @ ctx.b_dag @ ctx.a_dag @ ctx.ab
        and ctx.c @ a_comp @ ctx.a_dag @ ctx.a @ (ctx.e - ctx.p) == ctx.c @ a_comp
    )


def _t37_ii(ctx):
    abc = ctx.ab @ ctx.c
    b_comp = (ctx.e - ctx.s) @ ctx.b
    return (
        is_k_inverse(abc, ctx.b_dag @ ctx.a_dag, {1, 4})
        and ctx.ab == ctx.ab @ ctx.b_dag @ ctx.a_dag @ ctx.ab @ ctx.c
        and b_comp @ ctx.c == b_comp @ ctx.b_dag @ (ctx.e - ctx.s) @ ctx.b @ ctx.c
    )


def _t38_i(ctx):
    return ctx.b @ ctx.b_dag @ ctx.a_star @ ctx.ab == ctx.a_star @ ctx.ab


def _t38_iii(ctx):
    return is_k_inverse(ctx.ab, ctx.b_dag @ ctx.a_dag @ ctx.c, {1, 3})


def _t38_iv(ctx):
    return is_k_inverse(ctx.ab, ctx.b_dag @ ctx.a_dag @ ctx.c, {1, 2, 3})


def _t39_i(ctx):
    return ctx.ab @ ctx.b_star @ ctx.a_dag @ ctx.a == ctx.ab @ ctx.b_star


def _t39_iii(ctx):
    return is_k_inverse(ctx.ab, ctx.c @ ctx.b_dag @ ctx.a_dag, {1, 4})


def _t39_iv(ctx):
    return is_k_inverse(ctx.ab, ctx.c @ ctx.b_dag @ ctx.a_dag, {1, 2, 4})


# --- the law registry -------------------------------------------------------
#
# Predicates, targets and products call library functions by their module
# names at call time, never through stored references, so that code that
# rebinds those names (a tracer, say) sees every call.


@dataclass(frozen=True)
class SampledStatement:
    """A quantified statement: every product of sampled K-inverses of b
    and a lies in the target's K-inverse set."""

    stmt: str
    ks: tuple  # K: (1, 3) or (1, 4)
    target: Callable[[LawContext], Matrix]
    product: Callable[[LawContext, Matrix, Matrix], Matrix]  # (ctx, b_inv, a_inv)


@dataclass(frozen=True)
class LawSpec:
    """Everything the checker knows about one law."""

    side: Optional[str]  # c commutes with this and its star: "a", "b", "scalar" or None
    hypotheses: tuple  # further (name, predicate on LawContext) pairs, in checking order
    statements: dict  # statement id -> exact evaluator (None: sampled), in reporting order
    sampled: Optional[SampledStatement] = None
    weight_fixes_ab: bool = False  # generated weights also satisfy c ab = ab (T38/T39)

    def is_sampled(self, stmt: str) -> bool:
        return self.sampled is not None and self.sampled.stmt == stmt


def _statements(*evaluators) -> dict:
    return dict(zip(("i", "ii", "iii", "iv"), evaluators))


_SIDE_HYPOTHESES = {
    "a": (("c commutes with a and a*", lambda ctx: commutes_with_pair(ctx.c, ctx.a)),),
    "b": (("c commutes with b and b*", lambda ctx: commutes_with_pair(ctx.c, ctx.b)),),
    "scalar": (("c is a scalar multiple of the identity", lambda ctx: _is_scalar_matrix(ctx.c)),),
}

_AB_MP = ("ab is Moore-Penrose invertible", lambda ctx: _mp_ok(ctx.ab))
_Q_MP = ("q = a+ a+* is Moore-Penrose invertible", lambda ctx: _mp_ok(ctx.q))
_R_MP = ("r = b b* is Moore-Penrose invertible", lambda ctx: _mp_ok(ctx.r))
_CAB_MP = ("cab is Moore-Penrose invertible", lambda ctx: _mp_ok(ctx.c @ ctx.ab))
_ABC_MP = ("abc is Moore-Penrose invertible", lambda ctx: _mp_ok(ctx.ab @ ctx.c))
_A_COMP_MP = ("a(e - bb+) is Moore-Penrose invertible",
              lambda ctx: _mp_ok(ctx.a @ (ctx.e - ctx.p)))
_B_COMP_MP = ("(e - a+a)b is Moore-Penrose invertible",
              lambda ctx: _mp_ok((ctx.e - ctx.s) @ ctx.b))

LAWS = {
    LawId.T23: LawSpec("b", (_AB_MP,), _statements(_t23_i, _t23_ii, _t23_iii)),
    LawId.T24: LawSpec("a", (_AB_MP, _Q_MP, _R_MP), _statements(_t24_i, _t24_ii, _t24_iii)),
    LawId.T25: LawSpec("a", (_CAB_MP,), _statements(_t25_i, _t25_ii, _t25_iii)),
    LawId.T26: LawSpec("b", (_Q_MP, _R_MP, _ABC_MP), _statements(_t26_i, _t26_ii, _t26_iii)),
    LawId.C27: LawSpec("scalar", (_AB_MP,), _statements(_c27_i, _c27_ii, _c27_iii)),
    LawId.GREVILLE: LawSpec(None, (_AB_MP,), _statements(_greville_i, _greville_ii)),
    LawId.KOLIHA_DC: LawSpec(None, (_AB_MP, _Q_MP), _statements(_greville_i, _koliha_ii)),
    LawId.T32: LawSpec("a", (), _statements(None, _t32_ii), SampledStatement(
        "i", (1, 3), lambda ctx: ctx.ab, lambda ctx, b_inv, a_inv: b_inv @ a_inv @ ctx.c)),
    LawId.C33: LawSpec("a", (_A_COMP_MP,), _statements(None, _c33_ii), SampledStatement(
        "i", (1, 3), lambda ctx: ctx.ab, lambda ctx, b_inv, a_inv: b_inv @ a_inv @ ctx.c)),
    LawId.T34: LawSpec("b", (), _statements(None, _t34_ii), SampledStatement(
        "i", (1, 4), lambda ctx: ctx.ab, lambda ctx, b_inv, a_inv: ctx.c @ b_inv @ a_inv)),
    LawId.C35: LawSpec("b", (_B_COMP_MP,), _statements(None, _c35_ii), SampledStatement(
        "i", (1, 4), lambda ctx: ctx.ab, lambda ctx, b_inv, a_inv: ctx.c @ b_inv @ a_inv)),
    LawId.T36: LawSpec("a", (), _statements(None, _t36_ii), SampledStatement(
        "i", (1, 3), lambda ctx: ctx.c @ ctx.ab, lambda ctx, b_inv, a_inv: b_inv @ a_inv)),
    LawId.T37: LawSpec("b", (), _statements(None, _t37_ii), SampledStatement(
        "i", (1, 4), lambda ctx: ctx.ab @ ctx.c, lambda ctx, b_inv, a_inv: b_inv @ a_inv)),
    LawId.T38: LawSpec(
        "a",
        (
            ("cab = ab", lambda ctx: ctx.c @ ctx.ab == ctx.ab),
            ("c*ab = ab", lambda ctx: ctx.c_star @ ctx.ab == ctx.ab),
            _AB_MP,
            ("abb+ is Moore-Penrose invertible", lambda ctx: _mp_ok(ctx.a @ ctx.p)),
            _A_COMP_MP,
        ),
        _statements(_t38_i, None, _t38_iii, _t38_iv),
        SampledStatement(
            "ii", (1, 3), lambda ctx: ctx.ab, lambda ctx, b_inv, a_inv: b_inv @ a_inv @ ctx.c
        ),
        weight_fixes_ab=True,
    ),
    LawId.T39: LawSpec(
        "b",
        (
            ("abc = ab", lambda ctx: ctx.ab @ ctx.c == ctx.ab),
            ("abc* = ab", lambda ctx: ctx.ab @ ctx.c_star == ctx.ab),
            _AB_MP,
            ("a+ab is Moore-Penrose invertible", lambda ctx: _mp_ok(ctx.s @ ctx.b)),
            _B_COMP_MP,
        ),
        _statements(_t39_i, None, _t39_iii, _t39_iv),
        SampledStatement(
            "ii", (1, 4), lambda ctx: ctx.ab, lambda ctx, b_inv, a_inv: ctx.c @ b_inv @ a_inv
        ),
        weight_fixes_ab=True,
    ),
}


def check_hypotheses(law: LawId, ctx: LawContext):
    """Raise HypothesisNotMet (naming the offender) unless the instance
    satisfies every hypothesis of the law."""
    spec = LAWS[law]
    for name, holds in (*_SIDE_HYPOTHESES.get(spec.side, ()), *spec.hypotheses):
        if not holds(ctx):
            raise HypothesisNotMet(name)


def law_statement(law: LawId, stmt: str, ctx: LawContext) -> bool:
    """Exact truth of one algebraic statement of a law.

    Quantified (set-inclusion) statements are not evaluable here; use
    inclusion_statement_sampled for those."""
    check_hypotheses(law, ctx)
    statements = LAWS[law].statements
    if stmt not in statements:
        raise ValueError(f"unknown statement {stmt!r} for {law}")
    if statements[stmt] is None:
        raise ValueError(f"{law} ({stmt}) is quantified; use inclusion_statement_sampled")
    return statements[stmt](ctx)


@dataclass(frozen=True)
class SampledVerdict:
    all_passed: bool
    tested: int
    witness: Optional[tuple] = None  # (b_side_inverse, a_side_inverse, product)


def inclusion_statement_sampled(
    law: LawId, ctx: LawContext, samples: int, seed: int
) -> SampledVerdict:
    """Randomized test of a set-inclusion statement.

    Draws `samples` parameter pairs, forms the corresponding product of
    sampled {1,3}- or {1,4}-inverses, and checks membership in the target
    K-inverse set.  Stops at the first failing product and reports it as
    a counterexample witness."""
    sampled = LAWS[law].sampled
    if sampled is None:
        raise ValueError(f"{law} has no quantified statement")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    check_hypotheses(law, ctx)
    target = sampled.target(ctx)
    kind13 = 3 in sampled.ks
    rng = random.Random(seed)
    n = ctx.a.rows
    domain = ctx.a.domain
    for t in range(samples):
        xa = random_matrix(domain, n, n, rng)
        xb = random_matrix(domain, n, n, rng)
        if kind13:
            a_inv = ctx.a_dag + ctx.comp13_a @ xa
            b_inv = ctx.b_dag + ctx.comp13_b @ xb
        else:
            a_inv = ctx.a_dag + xa @ ctx.comp14_a
            b_inv = ctx.b_dag + xb @ ctx.comp14_b
        product = sampled.product(ctx, b_inv, a_inv)
        if not is_k_inverse(target, product, sampled.ks):
            return SampledVerdict(False, t + 1, (b_inv, a_inv, product))
    return SampledVerdict(True, samples, None)


@dataclass
class EquivalenceReport:
    """Outcome of evaluating every statement of one law on one instance."""

    law: LawId
    statement_values: dict
    hypotheses_met: bool
    verdict: str
    details: Optional[str] = None
    witness: Optional[tuple] = None
    notes: Optional[str] = None

    def to_json_dict(self) -> dict:
        out = {
            "law": self.law.value,
            "verdict": self.verdict,
            "statement_values": dict(self.statement_values),
            "hypotheses_met": self.hypotheses_met,
        }
        if self.details is not None:
            out["details"] = self.details
        if self.notes is not None:
            out["notes"] = self.notes
        if self.witness is not None:
            b_inv, a_inv, product = self.witness
            out["witness"] = {
                "b_side_inverse": matrix_to_json(b_inv),
                "a_side_inverse": matrix_to_json(a_inv),
                "product": matrix_to_json(product),
            }
        return out


def check_equivalence(
    law: LawId, ctx: LawContext, samples: int = 200, seed: int = 0,
    falsify_samples: int = 500,
) -> EquivalenceReport:
    """Evaluate every statement of the law and compare truth values.

    Exact statements are computed directly.  A quantified statement is
    confirmed with `samples` draws when the exact statements are true; it
    is falsified with `falsify_samples` draws when they are false, and a
    fruitless falsification yields INCONCLUSIVE rather than agreement,
    because the failing direction is existence-based.  A zero target
    product (e.g. ab = 0) makes every membership trivial; such instances
    are reported as equivalent with a note."""
    try:
        check_hypotheses(law, ctx)
    except HypothesisNotMet as exc:
        return EquivalenceReport(
            law, {}, False, HYPOTHESIS_NOT_MET, details=exc.hypothesis
        )
    spec = LAWS[law]
    sampled = spec.sampled.stmt if spec.sampled is not None else None
    values = {stmt: fn(ctx) for stmt, fn in spec.statements.items() if fn is not None}
    exact_values = set(values.values())
    witness = None
    notes = None
    details = None
    if sampled is None:
        verdict = EQUIVALENT if len(exact_values) == 1 else VIOLATION
    elif len(exact_values) > 1:
        values[sampled] = None
        verdict = VIOLATION
    else:
        expected = exact_values.pop()
        target = spec.sampled.target(ctx)
        if target.is_zero():
            values[sampled] = True
            notes = "target product is zero; every candidate is trivially a K-inverse"
            verdict = EQUIVALENT if expected else VIOLATION
        elif expected:
            sv = inclusion_statement_sampled(law, ctx, samples, seed)
            values[sampled] = sv.all_passed
            if sv.all_passed:
                verdict = EQUIVALENT
            else:
                verdict = VIOLATION
                witness = sv.witness
                details = (
                    f"exact statements hold but sample {sv.tested} broke the inclusion"
                )
        else:
            sv = inclusion_statement_sampled(law, ctx, falsify_samples, seed)
            if sv.all_passed:
                values[sampled] = None
                verdict = INCONCLUSIVE
                details = f"no counterexample within {falsify_samples} samples"
            else:
                values[sampled] = False
                verdict = EQUIVALENT
                witness = sv.witness
    if verdict == VIOLATION and details is None:
        details = _disagreement(values)
    ordered = {stmt: values[stmt] for stmt in spec.statements}
    return EquivalenceReport(law, ordered, True, verdict, details, witness, notes)


def _disagreement(values) -> str:
    return "statement values disagree: " + ", ".join(
        f"({k})={v}" for k, v in sorted(values.items())
    )
