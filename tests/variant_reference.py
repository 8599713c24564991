"""The substitution that reduces T24, T25 and T26 to T23.  The checker
evaluates each law on its own statements; the tests use this reduction
to check those statements against T23's.
"""

from rolcheck import LawContext, LawId


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
