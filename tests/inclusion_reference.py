"""The sampling decision that laws.check_equivalence used before set
inclusions were decided exactly, kept as the independent reference for
tests/test_inclusion_decider.py.

Each law's inclusion is transcribed here a second time from the paper,
apart from laws.LAWS, so that a slip in one registry entry shows up as a
disagreement.  The K-inverses are the affine families around the
Moore-Penrose inverse, a+ + (e - a+ a) x for K = {1,3} and
a+ + x (e - a a+) for K = {1,4}, with x drawn at random.  A draw whose
product leaves the target's K-inverse set proves the inclusion false;
when every draw passes, the inclusion is taken to hold.
"""

import random

from rolcheck import LawId, Matrix, is_k_inverse, mp_inverse
from rolcheck.matrices import random_matrix

# law -> (K, target(a, b, c), product(c, b-side inverse, a-side inverse))
INCLUSIONS = {
    # b{1,3} a{1,3} c in (ab){1,3}
    LawId.T32: ((1, 3), lambda a, b, c: a @ b, lambda c, bi, ai: bi @ ai @ c),
    LawId.C33: ((1, 3), lambda a, b, c: a @ b, lambda c, bi, ai: bi @ ai @ c),
    # c b{1,4} a{1,4} in (ab){1,4}
    LawId.T34: ((1, 4), lambda a, b, c: a @ b, lambda c, bi, ai: c @ bi @ ai),
    LawId.C35: ((1, 4), lambda a, b, c: a @ b, lambda c, bi, ai: c @ bi @ ai),
    # b{1,3} a{1,3} in (cab){1,3}
    LawId.T36: ((1, 3), lambda a, b, c: c @ a @ b, lambda c, bi, ai: bi @ ai),
    # b{1,4} a{1,4} in (abc){1,4}
    LawId.T37: ((1, 4), lambda a, b, c: a @ b @ c, lambda c, bi, ai: bi @ ai),
    # statement (ii) of the four-way laws
    LawId.T38: ((1, 3), lambda a, b, c: a @ b, lambda c, bi, ai: bi @ ai @ c),
    LawId.T39: ((1, 4), lambda a, b, c: a @ b, lambda c, bi, ai: c @ bi @ ai),
}


def _family(m: Matrix, ks):
    """x -> the K-inverse of m with parameter x."""
    m_dag = mp_inverse(m)
    e = Matrix.identity(m.rows, m.domain)
    if 3 in ks:
        complement = e - m_dag @ m
        return lambda x: m_dag + complement @ x
    complement = e - m @ m_dag
    return lambda x: m_dag + x @ complement


def sampled_inclusion(law, a: Matrix, b: Matrix, c: Matrix, draws: int, seed: int) -> bool:
    """False at the first of `draws` random K-inverse pairs whose product
    breaks the inclusion; True when none does."""
    ks, target, product = INCLUSIONS[law]
    t = target(a, b, c)
    a_family, b_family = _family(a, ks), _family(b, ks)
    rng = random.Random(seed)
    n = a.rows
    for _ in range(draws):
        a_inv = a_family(random_matrix(a.domain, n, n, rng))
        b_inv = b_family(random_matrix(a.domain, n, n, rng))
        if not is_k_inverse(t, product(c, b_inv, a_inv), ks):
            return False
    return True
