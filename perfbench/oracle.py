"""Independent exact oracle for the benchmark's suite trials.

Written apart from rolcheck: Q(i) scalars are pairs of fractions.Fraction,
F_p scalars are plain ints mod p, and matrices are lists of rows.  Nothing
here imports rolcheck.  The package's matrices reach the oracle only as
the strings of its JSON interchange format, which the oracle parses
itself.

`check_trial` returns the list of problems it finds with one trial; an
empty list means the trial passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from workloads import Workload

_F0 = Fraction(0)
_F1 = Fraction(1)


class GaussianField:
    """Q(i) as pairs (re, im) of Fractions; the involution is conjugation.

    Products and ranks run on Gaussian integers after clearing
    denominators, which is exact and much faster than Fraction arithmetic."""

    zero = (_F0, _F0)
    one = (_F1, _F0)

    @staticmethod
    def parse(text: str):
        s = text.strip()
        if not s.endswith("i"):
            return (Fraction(s), _F0)
        body = s[:-1]
        split = max(body.rfind("+"), body.rfind("-"))
        if split <= 0:
            re_part, im_part = "", body
        else:
            re_part, im_part = body[:split], body[split:]
        im = {"": _F1, "+": _F1, "-": -_F1}.get(im_part)
        if im is None:
            im = Fraction(im_part)
        return (Fraction(re_part) if re_part else _F0, im)

    @staticmethod
    def sub(x, y):
        return (x[0] - y[0], x[1] - y[1])

    @staticmethod
    def conj(x):
        return (x[0], -x[1])

    @staticmethod
    def _integral(rows):
        """(re, im) integer matrices and one common denominator."""
        den = 1
        for row in rows:
            for re, im in row:
                den = math.lcm(den, re.denominator, im.denominator)
        return ([[re.numerator * (den // re.denominator) for re, _ in row] for row in rows],
                [[im.numerator * (den // im.denominator) for _, im in row] for row in rows],
                den)

    def matmul(self, x, y):
        xr, xi, dx = self._integral(x)
        yr, yi, dy = self._integral(y)
        yr_cols = list(zip(*yr))
        yi_cols = list(zip(*yi))
        den = dx * dy
        out = []
        for ar, ai in zip(xr, xi):
            row = []
            for br, bi in zip(yr_cols, yi_cols):
                re = sum(p * q for p, q in zip(ar, br)) - sum(p * q for p, q in zip(ai, bi))
                im = sum(p * q for p, q in zip(ar, bi)) + sum(p * q for p, q in zip(ai, br))
                row.append((Fraction(re, den), Fraction(im, den)))
            out.append(row)
        return out

    def rank(self, x) -> int:
        """Fraction-free elimination over the Gaussian integers."""
        xr, xi, _ = self._integral(x)
        m = [list(zip(r, i)) for r, i in zip(xr, xi)]
        rank = 0
        cols = len(m[0]) if m else 0
        for c in range(cols):
            pivot = next((k for k in range(rank, len(m)) if m[k][c] != (0, 0)), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            pr, pi = m[rank][c]
            for k in range(rank + 1, len(m)):
                fr, fi = m[k][c]
                if fr or fi:
                    # row_k := p * row_k - f * row_rank, then divide out the content
                    row = [(pr * ur - pi * ui - (fr * vr - fi * vi),
                            pr * ui + pi * ur - (fr * vi + fi * vr))
                           for (ur, ui), (vr, vi) in zip(m[k], m[rank])]
                    g = math.gcd(*(t for pair in row for t in pair))
                    m[k] = [(u // g, v // g) for u, v in row] if g > 1 else row
            rank += 1
        return rank


class PrimeField:
    """F_p as ints in [0, p); the involution is the identity."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        self.p = p

    def parse(self, text: str):
        return int(text) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    @staticmethod
    def conj(x):
        return x

    def matmul(self, x, y):
        p = self.p
        cols = list(zip(*y))
        return [[sum(u * v for u, v in zip(row, col)) % p for col in cols] for row in x]

    def rank(self, x) -> int:
        p = self.p
        m = [list(row) for row in x]
        rank = 0
        cols = len(m[0]) if m else 0
        for c in range(cols):
            pivot = next((k for k in range(rank, len(m)) if m[k][c]), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            inv = pow(m[rank][c], -1, p)
            m[rank] = [v * inv % p for v in m[rank]]
            for k in range(rank + 1, len(m)):
                f = m[k][c]
                if f:
                    m[k] = [(u - f * v) % p for u, v in zip(m[k], m[rank])]
            rank += 1
        return rank


def field_for(w: Workload):
    return GaussianField() if w.prime is None else PrimeField(w.prime)


# --- matrices as lists of rows ----------------------------------------------


def parse_matrix(field, obj: dict):
    """Oracle matrix from the package's JSON interchange form."""
    return [[field.parse(s) for s in row] for row in obj["entries"]]


def identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def mul_chain(field, *ms):
    out = ms[0]
    for m in ms[1:]:
        out = field.matmul(out, m)
    return out


def star(field, x):
    return [[field.conj(v) for v in col] for col in zip(*x)]


def msub(field, x, y):
    return [[field.sub(u, v) for u, v in zip(rx, ry)] for rx, ry in zip(x, y)]


def mp_exists(field, x) -> bool:
    """The Moore-Penrose inverse exists iff rank(x* x) = rank(x) = rank(x x*)."""
    r = field.rank(x)
    xs = star(field, x)
    return field.rank(field.matmul(xs, x)) == r and field.rank(field.matmul(x, xs)) == r


def penrose_failures(field, x, y) -> list[int]:
    """Numbers of the Penrose equations that y fails as an inverse of x."""
    xy = field.matmul(x, y)
    yx = field.matmul(y, x)
    failed = []
    if field.matmul(xy, x) != x:
        failed.append(1)
    if field.matmul(yx, y) != y:
        failed.append(2)
    if star(field, xy) != xy:
        failed.append(3)
    if star(field, yx) != yx:
        failed.append(4)
    return failed


def commutes(field, c, x) -> bool:
    return field.matmul(c, x) == field.matmul(x, c)


# --- one trial ----------------------------------------------------------------


@dataclass
class TrialRecord:
    """What the package produced for one one-trial suite, in oracle form.

    a_dag and b_dag are None when the package found no Moore-Penrose
    inverse; statement is the value check_equivalence gave the oracle's
    statement, or None when it reported a hypothesis not met."""

    a: list
    b: list
    c: list
    a_dag: list | None
    b_dag: list | None
    statement: bool | None
    suite: dict


def _weight_problems(w: Workload, field, r: TrialRecord) -> list[str]:
    a, b, c = r.a, r.b, r.c
    if w.weight == "identity":
        return [] if c == identity(field, w.size) else ["weight is not the identity"]
    if w.law == "T23":
        if not (commutes(field, c, b) and commutes(field, c, star(field, b))):
            return ["weight does not commute with b and b*"]
        return []
    if w.law == "T38":
        ab = field.matmul(a, b)
        problems = []
        if not (commutes(field, c, a) and commutes(field, c, star(field, a))):
            problems.append("weight does not commute with a and a*")
        if field.matmul(c, ab) != ab or field.matmul(star(field, c), ab) != ab:
            problems.append("weight does not fix ab from the left (c ab = c* ab = ab)")
        return problems
    raise ValueError(f"no weight rule for {w.law}")


def _hypotheses_hold(w: Workload, field, r: TrialRecord) -> bool:
    """The law's hypotheses beyond the weight, given both inverses exist.

    Over Q(i) every Moore-Penrose inverse exists, so only T38 over F_p has
    hypotheses left to fail: ab, abb+ and a(e - bb+) need inverses."""
    if w.law != "T38" or w.prime is None:
        return True
    a, b = r.a, r.b
    p = field.matmul(b, r.b_dag)
    e = identity(field, w.size)
    return (
        mp_exists(field, field.matmul(a, b))
        and mp_exists(field, field.matmul(a, p))
        and mp_exists(field, field.matmul(a, msub(field, e, p)))
    )


def statement_value(w: Workload, field, r: TrialRecord) -> bool:
    """The workload's exact statement, recomputed from the definitions."""
    a, b, c, a_dag, b_dag = r.a, r.b, r.c, r.a_dag, r.b_dag
    ab = field.matmul(a, b)
    if w.law == "T23":  # (i) (ab)+ = c b+ a+, as the Penrose equations
        return not penrose_failures(field, ab, mul_chain(field, c, b_dag, a_dag))
    if w.law == "T32":  # (ii) b+a+c in (ab){1,3}, b+a+ in (ab){1}, a+ in (a(e-p)){1}
        x = mul_chain(field, b_dag, a_dag, c)
        y = field.matmul(b_dag, a_dag)
        e = identity(field, w.size)
        ap = field.matmul(a, msub(field, e, field.matmul(b, b_dag)))
        return (
            not {1, 3} & set(penrose_failures(field, ab, x))
            and mul_chain(field, ab, y, ab) == ab
            and mul_chain(field, ap, a_dag, ap) == ap
        )
    if w.law == "T38":  # (i) b b+ a* a b = a* a b
        a_star_ab = field.matmul(star(field, a), ab)
        return mul_chain(field, b, b_dag, a_star_ab) == a_star_ab
    if w.law == "GREVILLE":  # (ii) r s = s r and p q = q p
        p = field.matmul(b, b_dag)
        q = field.matmul(a_dag, star(field, a_dag))
        rr = field.matmul(b, star(field, b))
        s = field.matmul(a_dag, a)
        return commutes(field, rr, s) and commutes(field, p, q)
    raise ValueError(f"no statement for {w.law}")


def check_trial(w: Workload, r: TrialRecord) -> list[str]:
    field = field_for(w)
    problems = []
    if field.rank(r.a) != w.rank_a or field.rank(r.b) != w.rank_b:
        problems.append("a or b does not have the requested rank")
    problems += _weight_problems(w, field, r)

    # Over Q(i) every matrix has a Moore-Penrose inverse (the field is
    # formally real); the Penrose check below still verifies the package's.
    invertible = w.prime is None or (mp_exists(field, r.a) and mp_exists(field, r.b))
    if invertible and (r.a_dag is None or r.b_dag is None):
        problems.append("NoMPInverse reported for a pair that has both inverses")
        return problems
    if not invertible and r.a_dag is not None and r.b_dag is not None:
        problems.append("inverses returned although a or b has none")
        return problems
    if invertible:
        for name, x, x_dag in (("a", r.a, r.a_dag), ("b", r.b, r.b_dag)):
            failed = penrose_failures(field, x, x_dag)
            if failed:
                problems.append(f"{name}+ fails Penrose equations {failed}")
        if problems:
            return problems
    expect_skip = not invertible or not _hypotheses_hold(w, field, r)

    s = r.suite
    if s["trials"] != 1 or s["violations"] or s["inconclusive"]:
        problems.append("suite reports a violation or an inconclusive trial")
    if s["hypothesis_skips"] != int(expect_skip) or s["equivalent"] != int(not expect_skip):
        problems.append(
            f"suite counts {s['equivalent']} equivalent and {s['hypothesis_skips']} skipped; "
            f"the oracle expects {int(not expect_skip)} and {int(expect_skip)}"
        )
    if not expect_skip:
        if r.statement is None:
            problems.append("check_equivalence skipped a trial whose hypotheses hold")
        elif r.statement != statement_value(w, field, r):
            problems.append(f"statement ({w.statement}) value {r.statement} is wrong")
    return problems
