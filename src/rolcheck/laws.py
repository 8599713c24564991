"""Weighted reverse order laws and their equivalence checking.

Each law is a theorem of the form "the following statements are
equivalent" about square matrices a, b and a weight c over one scalar
domain.  The blanket elements

    p = b b+,  q = a+ (a+)*,  r = b b*,  s = a+ a

are all hermitian and satisfy a = a s, (a+)* = a q, b = r (b+)*,
(b+)* = p (b+)*.  As (x x*)+ = (x+)* x+ whenever x+ exists, q+ = a* a
and r+ = (b+)* b+ always exist, and the context holds these products.
Statement formulas are transcribed symbol for symbol, with no algebraic
simplification, so a transcription slip shows up as an equivalence
violation in the randomized suites.  A statement (i) that says m+ = z is
decided by is_mp_inverse(m, z), the four Penrose equations on z: m+ is
their unique solution, so m+ itself is never formed.

The exact statements run on a deferred view of the context
(LawContext.deferred), whose matrices are matrices.Pending leaves, and
whose ab, cab and abc are Pending products of them until the context
holds them: `@`, `+` and `-` there only record the expression as
written.  `==`, `is_zero()` and `is_hermitian()`, the last for Penrose
equations (3) and (4) in is_k_inverse, first compare images of a probe
vector mod a prime, through each domain's ring map to F_q, with
matrix-vector products; images that differ refute the part exactly,
with no n x n product formed.  Images that agree decide nothing, and
the part is then formed in its written order and compared exactly, so
every value is the one the written formula gives.  A statement of two
parts joined by `and` forms nothing of the second part when the first
is false.  Hypotheses, the blanket identities and the set inclusions run
on the context itself, except that a Moore-Penrose hypothesis reads its
matrix on the view and forms it only where the domain does not answer.

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
hypotheses, statements, and for the four-way laws the products their
generated weight must fix) is one LawSpec entry of the LAWS registry
below.  A set inclusion is an Inclusion in its own statement slot.

A set inclusion is decided exactly.  Its K-inverses are the affine
families a+ + (e - a+ a) Y (K = {1,3}) or a+ + Y (e - a a+) (K = {1,4})
in a free parameter Y for a and Z for b, and the product, the target and
is_k_inverse run on them as wordpoly.WordMatrix polynomials, so the
membership is decided for all Y and Z at once.  Random draws of Y and Z
only look for a witness, a concrete product outside the target's
K-inverse set; when none turns up, the witness is taken from basis
matrices (wordpoly.basis_points).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Optional

from .errors import BlanketIdentityFailed, DimensionMismatch, HypothesisNotMet
from .geninv import commutes_with_pair, is_k_inverse, is_mp_inverse, mp_exists, mp_inverse
from .matrices import Matrix, Pending, matrix_to_json, random_matrix
from .wordpoly import WordMatrix, basis_points


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


def _check_instance(a: Matrix, *others: Matrix) -> None:
    if a.rows != a.cols or any(m.shape != a.shape for m in others):
        raise DimensionMismatch("laws need equal square shapes, got "
                                + ", ".join(str(m.shape) for m in (a, *others)))
    for m in others:
        a._same_domain(m)


class LawContext:
    """An instance (a, b, c) with the blanket elements precomputed.

    Construction fails with NoMPInverse when a or b lacks a
    Moore-Penrose inverse (possible over prime fields only).  The
    defining identities of the blanket elements are verified eagerly, and
    a failing one raises BlanketIdentityFailed naming it.

    The weight may come last: LawContext(a, b) holds everything that
    reads a and b alone, and set_weight(c) adds c once.  Until then c,
    c_star, cab and abc raise AttributeError.

    pair_hypotheses_hold names the law whose pair_hypotheses are known to
    hold on (a, b), or is None; check_hypotheses skips them for that law.
    """

    def __init__(self, a: Matrix, b: Matrix, c: Matrix | None = None):
        _check_instance(a, b, *(() if c is None else (c,)))
        self.a = a
        self.b = b
        self.pair_hypotheses_hold = None
        self.a_dag = mp_inverse(a)
        self.b_dag = mp_inverse(b)
        self.a_star = a.star()
        self.b_star = b.star()
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
        if c is not None:
            self.set_weight(c)

    def set_weight(self, c: Matrix) -> None:
        """Give the instance its weight c; a second weight is refused."""
        if hasattr(self, "c"):
            raise ValueError("the instance already has its weight c")
        _check_instance(self.a, self.b, c)
        self.c = c

    def deferred(self) -> _Deferred:
        """A view of this context for the exact statement evaluators.

        Each matrix attribute reads as a matrices.Pending leaf, built when
        first read and kept, so that products are formed only where the
        probe vector, which Pending builds, cannot refute a statement
        part.  ab, cab and abc that the context does not hold yet read as
        Pending products of the leaves, c (ab) and (ab) c, and the
        context's own ab, cab and abc are the values of those nodes, so
        either forms each product once.  Other attributes pass through,
        and a missing one (c before set_weight) raises the same
        AttributeError.  The views of one context share their nodes,
        which the context keeps in a dict: a kept view would refer back to
        the context, and the cycle would outlive the trial until the
        garbage collector ran."""
        return _Deferred(self)

    @cached_property
    def _nodes(self) -> dict:
        """The Pending nodes of the deferred views, by attribute name."""
        return {}

    @cached_property
    def c_star(self) -> Matrix:
        return self.c.star()

    @cached_property
    def e(self) -> Matrix:
        return Matrix.identity(self.a.rows, self.a.domain)

    @cached_property
    def ab(self) -> Matrix:
        return _Deferred(self).ab.value()

    @cached_property
    def cab(self) -> Matrix:
        return _Deferred(self).cab.value()

    @cached_property
    def abc(self) -> Matrix:
        return _Deferred(self).abc.value()

    @cached_property
    def q_dag(self) -> Matrix:
        return self.a_star @ self.a

    @cached_property
    def r_dag(self) -> Matrix:
        return self.b_dag_star @ self.b_dag

    # complements used by the {1,3}/{1,4} parametrizations
    @cached_property
    def comp13_a(self) -> Matrix:
        return self.e - self.s

    @cached_property
    def comp13_b(self) -> Matrix:
        return self.e - self.b_dag @ self.b

    @cached_property
    def comp14_a(self) -> Matrix:
        return self.e - self.a @ self.a_dag

    @cached_property
    def comp14_b(self) -> Matrix:
        return self.e - self.p


# The context's products, as (left, right) factors in its own association.
_PRODUCTS = {"ab": ("a", "b"), "cab": ("c", "ab"), "abc": ("ab", "c")}


class _Deferred:
    """LawContext.deferred: the context's matrices as Pending leaves, and
    the products it does not hold yet as Pending products."""

    def __init__(self, ctx: LawContext):
        self._ctx = ctx

    def __getattr__(self, name):
        ctx = self._ctx
        node = ctx._nodes.get(name)
        if node is None:
            if name in _PRODUCTS and name not in vars(ctx):
                left, right = _PRODUCTS[name]
                node = getattr(self, left) @ getattr(self, right)
            else:
                value = getattr(ctx, name)
                if not isinstance(value, Matrix):
                    return value
                node = Pending(value)
            ctx._nodes[name] = node
        setattr(self, name, node)
        return node


def _is_scalar_matrix(c: Matrix) -> bool:
    return c == Matrix.identity(c.rows, c.domain).scale(c[0, 0]) if c.rows else True


def _mp_hypothesis(name: str, m_of: Callable) -> tuple:
    """The hypothesis that m_of(ctx) is Moore-Penrose invertible.  m_of
    runs on the deferred view, so it reads what it reads (c, say) but
    forms its matrix only where the domain does not answer for it."""
    def holds(ctx):
        m = m_of(ctx.deferred())
        return m.domain.mp_always_exists or mp_exists(m.value())
    return name, holds


# --- exact statement evaluators ---------------------------------------------


def _t23_i(ctx):
    return is_mp_inverse(ctx.ab, ctx.c @ ctx.b_dag @ ctx.a_dag)


def _t23_ii(ctx):
    return (
        (ctx.a @ (ctx.c @ ctx.p @ ctx.q - ctx.q @ ctx.p) @ ctx.b_dag_star @ ctx.c_star).is_zero()
        and (ctx.a @ (ctx.r @ ctx.s @ ctx.c_star - ctx.s @ ctx.r) @ ctx.b_dag_star).is_zero()
    )


def _t23_iii(ctx):
    return (
        ctx.s @ ctx.c @ ctx.p @ ctx.q @ ctx.p @ ctx.c_star == ctx.q @ ctx.p @ ctx.c_star
        and ctx.s @ ctx.r @ ctx.s @ ctx.p @ ctx.c_star == ctx.s @ ctx.r
    )


def _t24_i(ctx):
    return is_mp_inverse(ctx.ab, ctx.b_dag @ ctx.a_dag @ ctx.c)


def _t24_ii(ctx):
    return (
        (ctx.b_star @ (ctx.c_star @ ctx.s @ ctx.r_dag - ctx.r_dag @ ctx.s) @ ctx.a_dag @ ctx.c).is_zero()
        and (ctx.b_star @ (ctx.q_dag @ ctx.p @ ctx.c - ctx.p @ ctx.q_dag) @ ctx.a_dag).is_zero()
    )


def _t24_iii(ctx):
    return (
        ctx.p @ ctx.c_star @ ctx.s @ ctx.r_dag @ ctx.s @ ctx.c == ctx.r_dag @ ctx.s @ ctx.c
        and ctx.p @ ctx.q_dag @ ctx.p @ ctx.s @ ctx.c == ctx.p @ ctx.q_dag
    )


def _t25_i(ctx):
    return is_mp_inverse(ctx.cab, ctx.b_dag @ ctx.a_dag)


def _t25_ii(ctx):
    return (
        (ctx.b_dag @ (ctx.c @ ctx.s @ ctx.r - ctx.r @ ctx.s) @ ctx.a_star @ ctx.c_star).is_zero()
        and (ctx.b_dag @ (ctx.q @ ctx.p @ ctx.c_star - ctx.p @ ctx.q) @ ctx.a_star).is_zero()
    )


def _t25_iii(ctx):
    return (
        ctx.p @ ctx.c @ ctx.s @ ctx.r @ ctx.s @ ctx.c_star == ctx.r @ ctx.s @ ctx.c_star
        and ctx.p @ ctx.q @ ctx.p @ ctx.s @ ctx.c_star == ctx.p @ ctx.q
    )


def _t26_i(ctx):
    return is_mp_inverse(ctx.abc, ctx.b_dag @ ctx.a_dag)


def _t26_ii(ctx):
    return (
        (ctx.a_dag_star @ (ctx.c_star @ ctx.p @ ctx.q_dag - ctx.q_dag @ ctx.p) @ ctx.b @ ctx.c).is_zero()
        and (ctx.a_dag_star @ (ctx.r_dag @ ctx.s @ ctx.c - ctx.s @ ctx.r_dag) @ ctx.b).is_zero()
    )


def _t26_iii(ctx):
    return (
        ctx.s @ ctx.c_star @ ctx.p @ ctx.q_dag @ ctx.p @ ctx.c == ctx.q_dag @ ctx.p @ ctx.c
        and ctx.s @ ctx.r_dag @ ctx.s @ ctx.p @ ctx.c == ctx.s @ ctx.r_dag
    )


def _c27_i(ctx):
    return is_mp_inverse(ctx.ab, ctx.c @ ctx.b_dag @ ctx.a_dag)


def _c27_ii(ctx):
    return (
        (ctx.a @ (ctx.c @ ctx.p @ ctx.q - ctx.q @ ctx.p) @ ctx.b_dag_star).is_zero()
        and (ctx.a @ (ctx.r @ ctx.s @ ctx.c_star - ctx.s @ ctx.r) @ ctx.b_dag_star).is_zero()
    )


def _c27_iii(ctx):
    return (
        ctx.c @ ctx.s @ ctx.p @ ctx.q @ ctx.p == ctx.q @ ctx.p
        and ctx.c_star @ ctx.s @ ctx.r @ ctx.s @ ctx.p == ctx.s @ ctx.r
    )


def _greville_i(ctx):
    return is_mp_inverse(ctx.ab, ctx.b_dag @ ctx.a_dag)


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
    cab = ctx.cab
    a_comp = ctx.a @ (ctx.e - ctx.p)
    return (
        is_k_inverse(cab, ctx.b_dag @ ctx.a_dag, {1, 3})
        and cab == cab @ ctx.b_dag @ ctx.a_dag @ ctx.ab
        and ctx.c @ a_comp @ ctx.a_dag @ ctx.a @ (ctx.e - ctx.p) == ctx.c @ a_comp
    )


# T37 mirrors T36 under x -> x* with a -> b*, b -> a*, c -> c*, which takes
# cab to abc, b+ a+ to (b+ a+)*, {1,3} to {1,4} and a(e - bb+) to
# ((e - a+a)b)*.  So T36's cab = cab b+ a+ ab becomes
# (c* b* a* (a*)+ (b*)+ b* a*)* = ab b+ a+ abc, that is abc = ab b+ a+ abc.
def _t37_ii(ctx):
    abc = ctx.abc
    b_comp = (ctx.e - ctx.s) @ ctx.b
    return (
        is_k_inverse(abc, ctx.b_dag @ ctx.a_dag, {1, 4})
        and abc == ctx.ab @ ctx.b_dag @ ctx.a_dag @ abc
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
class Inclusion:
    """A set-inclusion statement: every product of K-inverses of b and a
    lies in the target's K-inverse set.  The product also runs on
    WordMatrix parameters, so it may use only +, -, @ and star."""

    ks: tuple  # K: (1, 3) or (1, 4)
    target: Callable[[LawContext], Matrix]
    product: Callable[[LawContext, Matrix, Matrix], Matrix]  # (ctx, b_inv, a_inv)


@dataclass(frozen=True)
class LawSpec:
    """Everything the checker knows about one law.

    Hypotheses are (name, predicate on LawContext) pairs.  Those that
    read a and b alone go in pair_hypotheses: suites check them before
    they draw a weight, on a context that has none.  check_hypotheses
    walks the side hypothesis, then hypotheses, then pair_hypotheses.
    A four-way law's weight_zero maps ab to (left_zero, right_zero): c
    meets its hypotheses exactly when y = c - e has l y = 0 and y r = 0
    for each l and r there.  peirce.sample_constrained draws such a c."""

    side: Optional[str]  # c commutes with this and its star: "a", "b", "scalar" or None
    hypotheses: tuple  # further hypotheses that read c, in checking order
    statements: dict  # statement id -> exact evaluator or Inclusion, in reporting order
    weight_zero: Optional[Callable[[Matrix], tuple]] = None  # ab -> (left_zero, right_zero)
    pair_hypotheses: tuple = ()  # hypotheses on a and b alone, checked last

    @property
    def inclusion(self) -> Optional[tuple]:
        """(statement id, Inclusion) of the law's set inclusion, or None."""
        return next(((stmt, s) for stmt, s in self.statements.items()
                     if isinstance(s, Inclusion)), None)


def _statements(*evaluators) -> dict:
    return dict(zip(("i", "ii", "iii", "iv"), evaluators))


_SIDE_HYPOTHESES = {
    "a": (("c commutes with a and a*", lambda ctx: commutes_with_pair(ctx.c, ctx.a)),),
    "b": (("c commutes with b and b*", lambda ctx: commutes_with_pair(ctx.c, ctx.b)),),
    "scalar": (("c is a scalar multiple of the identity", lambda ctx: _is_scalar_matrix(ctx.c)),),
}

_AB_MP = _mp_hypothesis("ab is Moore-Penrose invertible", lambda ctx: ctx.ab)
_CAB_MP = _mp_hypothesis("cab is Moore-Penrose invertible", lambda ctx: ctx.cab)
_ABC_MP = _mp_hypothesis("abc is Moore-Penrose invertible", lambda ctx: ctx.abc)
_A_COMP_MP = _mp_hypothesis("a(e - bb+) is Moore-Penrose invertible",
                            lambda ctx: ctx.a @ (ctx.e - ctx.p))
_B_COMP_MP = _mp_hypothesis("(e - a+a)b is Moore-Penrose invertible",
                            lambda ctx: (ctx.e - ctx.s) @ ctx.b)

LAWS = {
    LawId.T23: LawSpec("b", (), _statements(_t23_i, _t23_ii, _t23_iii), pair_hypotheses=(_AB_MP,)),
    LawId.T24: LawSpec("a", (), _statements(_t24_i, _t24_ii, _t24_iii), pair_hypotheses=(_AB_MP,)),
    LawId.T25: LawSpec("a", (_CAB_MP,), _statements(_t25_i, _t25_ii, _t25_iii)),
    LawId.T26: LawSpec("b", (_ABC_MP,), _statements(_t26_i, _t26_ii, _t26_iii)),
    LawId.C27: LawSpec("scalar", (), _statements(_c27_i, _c27_ii, _c27_iii),
                       pair_hypotheses=(_AB_MP,)),
    LawId.GREVILLE: LawSpec(None, (), _statements(_greville_i, _greville_ii),
                            pair_hypotheses=(_AB_MP,)),
    LawId.KOLIHA_DC: LawSpec(None, (), _statements(_greville_i, _koliha_ii),
                             pair_hypotheses=(_AB_MP,)),
    LawId.T32: LawSpec("a", (), _statements(Inclusion(
        (1, 3), lambda ctx: ctx.ab, lambda ctx, b_inv, a_inv: b_inv @ a_inv @ ctx.c), _t32_ii)),
    LawId.C33: LawSpec("a", (), _statements(Inclusion(
        (1, 3), lambda ctx: ctx.ab, lambda ctx, b_inv, a_inv: b_inv @ a_inv @ ctx.c), _c33_ii),
        pair_hypotheses=(_A_COMP_MP,)),
    LawId.T34: LawSpec("b", (), _statements(Inclusion(
        (1, 4), lambda ctx: ctx.ab, lambda ctx, b_inv, a_inv: ctx.c @ b_inv @ a_inv), _t34_ii)),
    LawId.C35: LawSpec("b", (), _statements(Inclusion(
        (1, 4), lambda ctx: ctx.ab, lambda ctx, b_inv, a_inv: ctx.c @ b_inv @ a_inv), _c35_ii),
        pair_hypotheses=(_B_COMP_MP,)),
    LawId.T36: LawSpec("a", (), _statements(Inclusion(
        (1, 3), lambda ctx: ctx.cab, lambda ctx, b_inv, a_inv: b_inv @ a_inv), _t36_ii)),
    LawId.T37: LawSpec("b", (), _statements(Inclusion(
        (1, 4), lambda ctx: ctx.abc, lambda ctx, b_inv, a_inv: b_inv @ a_inv), _t37_ii)),
    LawId.T38: LawSpec(
        "a",
        (
            ("cab = ab", lambda ctx: ctx.cab == ctx.ab),
            ("c*ab = ab", lambda ctx: ctx.c_star @ ctx.ab == ctx.ab),
        ),
        _statements(_t38_i, Inclusion(
            (1, 3), lambda ctx: ctx.ab, lambda ctx, b_inv, a_inv: b_inv @ a_inv @ ctx.c
        ), _t38_iii, _t38_iv),
        weight_zero=lambda ab: ((ab.star(),), (ab,)),  # (ab)* y = 0, y ab = 0
        pair_hypotheses=(
            _AB_MP,
            _mp_hypothesis("abb+ is Moore-Penrose invertible", lambda ctx: ctx.a @ ctx.p),
            _A_COMP_MP,
        ),
    ),
    LawId.T39: LawSpec(
        "b",
        (
            ("abc = ab", lambda ctx: ctx.abc == ctx.ab),
            ("abc* = ab", lambda ctx: ctx.ab @ ctx.c_star == ctx.ab),
        ),
        _statements(_t39_i, Inclusion(
            (1, 4), lambda ctx: ctx.ab, lambda ctx, b_inv, a_inv: ctx.c @ b_inv @ a_inv
        ), _t39_iii, _t39_iv),
        weight_zero=lambda ab: ((ab,), (ab.star(),)),  # ab y = 0, y (ab)* = 0
        pair_hypotheses=(
            _AB_MP,
            _mp_hypothesis("a+ab is Moore-Penrose invertible", lambda ctx: ctx.s @ ctx.b),
            _B_COMP_MP,
        ),
    ),
}


def check_hypotheses(law: LawId, ctx: LawContext):
    """Raise HypothesisNotMet (naming the offender) unless the instance
    satisfies every hypothesis of the law.  The pair hypotheses come last,
    so skipping them where the context records that they hold for this
    law names the same first failure."""
    spec = LAWS[law]
    pair = () if ctx.pair_hypotheses_hold is law else spec.pair_hypotheses
    for name, holds in (*_SIDE_HYPOTHESES.get(spec.side, ()), *spec.hypotheses, *pair):
        if not holds(ctx):
            raise HypothesisNotMet(name)


def check_statement_id(law: LawId, stmt: str) -> None:
    """Reject a statement id the law does not have, whatever the instance."""
    if stmt not in LAWS[law].statements:
        raise ValueError(f"unknown statement {stmt!r} for {law}")


def law_statement(law: LawId, stmt: str, ctx: LawContext) -> bool:
    """Exact truth of one statement of a law.

    A set-inclusion statement is decided for every pair of K-inverses at
    once; see inclusion_holds."""
    check_statement_id(law, stmt)
    check_hypotheses(law, ctx)
    evaluate = LAWS[law].statements[stmt]
    if isinstance(evaluate, Inclusion):
        return inclusion_holds(evaluate, ctx)
    return evaluate(ctx.deferred())


def _k_inverses(ctx: LawContext, ks, xa, xb):
    """(b-side, a-side) K-inverses with parameters xb and xa, matrices or
    WordMatrix parameters: a+ + (e - a+ a) x for K = {1,3} and
    a+ + x (e - a a+) for K = {1,4}.  Every K-inverse arises this way."""
    if 3 in ks:
        return ctx.b_dag + ctx.comp13_b @ xb, ctx.a_dag + ctx.comp13_a @ xa
    return ctx.b_dag + xb @ ctx.comp14_b, ctx.a_dag + xa @ ctx.comp14_a


def inclusion_holds(inclusion: Inclusion, ctx: LawContext) -> bool:
    """Exact truth of a set inclusion on an instance.

    The product of the K-inverses of b and a, with free parameters Z and
    Y, lies in the target's K-inverse set for all Y and Z iff the
    Penrose equations of is_k_inverse hold as polynomial identities in
    Y, Z and their stars; wordpoly decides those from the coefficients."""
    n, domain = ctx.a.rows, ctx.a.domain
    b_inv, a_inv = _k_inverses(ctx, inclusion.ks, WordMatrix.parameter("Y", n, n, domain),
                               WordMatrix.parameter("Z", n, n, domain))
    return is_k_inverse(inclusion.target(ctx), inclusion.product(ctx, b_inv, a_inv),
                        inclusion.ks)


@dataclass(frozen=True)
class SampledVerdict:
    all_passed: bool
    tested: int
    witness: Optional[tuple] = None  # (b_side_inverse, a_side_inverse, product)


def inclusion_statement_sampled(
    law: LawId, ctx: LawContext, samples: int, seed: int
) -> SampledVerdict:
    """Randomized witness search against a set-inclusion statement.

    Draws `samples` parameter pairs, forms the corresponding product of
    {1,3}- or {1,4}-inverses, and checks membership in the target
    K-inverse set.  Stops at the first failing product and reports it as
    a witness.  The draws prove only a failure; inclusion_holds decides
    the statement.  Hypotheses are not checked: the inclusion is defined
    on every instance."""
    _, inclusion = LAWS[law].inclusion or (None, None)
    if inclusion is None:
        raise ValueError(f"{law} has no quantified statement")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    n, domain = ctx.a.rows, ctx.a.domain
    draws = ((random_matrix(domain, n, n, rng), random_matrix(domain, n, n, rng))
             for _ in range(samples))
    found = _first_break(inclusion, ctx, draws)
    return SampledVerdict(True, samples) if found is None else SampledVerdict(False, *found)


def _basis_witness(inclusion: Inclusion, ctx: LawContext) -> tuple:
    """(b-side inverse, a-side inverse, product) for the first parameters
    from wordpoly.basis_points whose product breaks an inclusion that
    inclusion_holds found false; such parameters always exist."""
    points = basis_points(ctx.a.rows, ctx.a.cols, ctx.a.domain)
    found = _first_break(inclusion, ctx, ((xa, xb) for xb in points for xa in points))
    if found is None:
        raise RuntimeError("the inclusion was decided false, but no basis point breaks it")
    return found[1]


def _first_break(inclusion: Inclusion, ctx: LawContext, params):
    """(position from 1, (b-side inverse, a-side inverse, product)) for the
    first (Y, Z) pair in params whose product breaks the inclusion, or None."""
    target = inclusion.target(ctx)
    for t, (xa, xb) in enumerate(params, 1):
        b_inv, a_inv = _k_inverses(ctx, inclusion.ks, xa, xb)
        product = inclusion.product(ctx, b_inv, a_inv)
        if not is_k_inverse(target, product, inclusion.ks):
            return t, (b_inv, a_inv, product)
    return None


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

    The verdict is EQUIVALENT iff all statement values agree.  Exact
    statements run on one deferred view of ctx (LawContext.deferred), so
    a part the probe vector refutes forms no product.  A set inclusion is
    None when the exact statements disagree, and True when its target
    product is zero (e.g. ab = 0), which makes every membership trivial
    and adds a note.
    Otherwise inclusion_holds decides it, and random draws only search
    for a witness against it: when the exact statements are false,
    `falsify_samples` draws run before the decider, and the decider runs
    only if they find nothing; when the exact statements hold, the
    decider runs first, and `samples` draws follow only if it finds the
    inclusion false.  A failing inclusion whose draws find nothing gets
    a witness from basis matrices.  Each budget must be at least one
    draw: a smaller one would search nothing, and whether it is reached
    depends on the data."""
    for name, value in (("samples", samples), ("falsify_samples", falsify_samples)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    try:
        check_hypotheses(law, ctx)
    except HypothesisNotMet as exc:
        return EquivalenceReport(
            law, {}, False, HYPOTHESIS_NOT_MET, details=exc.hypothesis
        )
    spec = LAWS[law]
    view = ctx.deferred()
    values = {stmt: evaluate(view) for stmt, evaluate in spec.statements.items()
              if not isinstance(evaluate, Inclusion)}
    exact = set(values.values())
    witness = notes = details = None
    if spec.inclusion is not None:
        stmt, inclusion = spec.inclusion
        if len(exact) > 1:
            values[stmt] = None
        elif inclusion.target(ctx).is_zero():
            values[stmt] = True
            notes = "target product is zero; every candidate is trivially a K-inverse"
        else:
            exact_hold = exact.pop()
            draws = None if exact_hold else inclusion_statement_sampled(
                law, ctx, falsify_samples, seed)
            holds = (draws is None or draws.all_passed) and inclusion_holds(inclusion, ctx)
            values[stmt] = holds
            if not holds:
                if exact_hold:
                    draws = inclusion_statement_sampled(law, ctx, samples, seed)
                    broke = f"sample {draws.tested}" if draws.witness else "a basis-matrix product"
                    details = f"exact statements hold but {broke} broke the inclusion"
                witness = draws.witness or _basis_witness(inclusion, ctx)
    verdict = EQUIVALENT if len(set(values.values())) == 1 else VIOLATION
    if verdict == VIOLATION and details is None:
        details = "statement values disagree: " + ", ".join(
            f"({k})={v}" for k, v in sorted(values.items()))
    ordered = {stmt: values[stmt] for stmt in spec.statements}
    return EquivalenceReport(law, ordered, True, verdict, details, witness, notes)
