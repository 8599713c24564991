"""Statement (i) decided by the Penrose equations, and statements that
stop at their first false part.

Statement (i) of T23-T26, C27, GREVILLE and KOLIHA_DC says that a product
z is the Moore-Penrose inverse of m = ab, cab or abc.  The checker decides
it with is_mp_inverse(m, z), the four Penrose equations on z, which by
uniqueness of m+ holds exactly when mp_inverse(m) == z.  Here the two are
held against each other over Q(i), F_3, F_5 and F_7 at n = 2-4, on a pool
where (i) is true as well as false, and on an F_5 pair whose ab has no
Moore-Penrose inverse.  Spies on Matrix.__matmul__ and on mp_inverse pin
the laziness: check_equivalence forms no further Moore-Penrose inverse on
T23 and GREVILLE, and a false first part of T23 (ii) or (iii) ends the
statement before the second part's products are formed.

The checker runs the exact statements on LawContext.deferred, where a
part is first refuted on a probe vector mod a prime and formed only when
the probe cannot refute it.  The tests from
test_deferred_values_equal_the_eager_ones on hold the deferred values
against the evaluators run on the context itself, pin an F_3 part that
the probe cannot refute, and count the products the view forms.
test_slips_raise_from_every_comparison pins that operands that do not
fit raise, as Matrix raises.  From test_pending_comparisons_agree_with_the_formed_matrices
on, ==, is_zero() and is_hermitian() are held against the formed
matrices on random expressions, on a Q(i) leaf with no image mod P and
on a matrix the hermitian probe cannot refute.
"""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import rolcheck.geninv
import rolcheck.laws
import rolcheck.matrices
from rolcheck import (
    GAUSSIAN_RATIONAL,
    DimensionMismatch,
    DomainMismatch,
    InstanceSpec,
    LawContext,
    LawId,
    Matrix,
    NoMPInverse,
    Singular,
    check_equivalence,
    gen_instance,
    inverse,
    is_mp_inverse,
    law_statement,
    mp_inverse,
    prime_field,
)
from rolcheck.cli import main
from rolcheck.harness import _trial_seeds, _trials, random_matrix_of_rank
from rolcheck.laws import LAWS, Inclusion, check_hypotheses
from rolcheck.matrices import Pending, matrix_to_json, random_matrix

REPO = Path(__file__).resolve().parents[1]

G = GAUSSIAN_RATIONAL
DOMAINS = (G, prime_field(3), prime_field(5), prime_field(7))

# Statement (i) of each law as (m, z): it says m+ = z.
STATEMENT_I = {
    LawId.T23: (lambda ctx: ctx.a @ ctx.b, lambda ctx: ctx.c @ ctx.b_dag @ ctx.a_dag),
    LawId.T24: (lambda ctx: ctx.a @ ctx.b, lambda ctx: ctx.b_dag @ ctx.a_dag @ ctx.c),
    LawId.T25: (lambda ctx: ctx.c @ ctx.a @ ctx.b, lambda ctx: ctx.b_dag @ ctx.a_dag),
    LawId.T26: (lambda ctx: ctx.a @ ctx.b @ ctx.c, lambda ctx: ctx.b_dag @ ctx.a_dag),
    LawId.C27: (lambda ctx: ctx.a @ ctx.b, lambda ctx: ctx.c @ ctx.b_dag @ ctx.a_dag),
    LawId.GREVILLE: (lambda ctx: ctx.a @ ctx.b, lambda ctx: ctx.b_dag @ ctx.a_dag),
    LawId.KOLIHA_DC: (lambda ctx: ctx.a @ ctx.b, lambda ctx: ctx.b_dag @ ctx.a_dag),
}


def _cayley(domain, n, rng):
    """U = (e - K)(e + K)^-1 for K = x - x*: unitary over Q(i), where e + K
    is always invertible, and orthogonal over F_p, where K is redrawn
    while e + K is singular."""
    e = Matrix.identity(n, domain)
    while True:
        x = random_matrix(domain, n, n, rng)
        k = x - x.star()
        try:
            return (e - k) @ inverse(e + k)
        except Singular:
            continue


def _diagonal(domain, n, rank, rng):
    entries = [domain.zero()] * (n * n)
    for i in range(rank):
        entries[i * (n + 1)] = next(s for s in iter(lambda: domain.sample(rng), None)
                                    if not s.is_zero())
    return Matrix(n, n, domain, entries)


def _coupled_pair(domain, n, rng):
    """a = U D1 V*, b = V D2 W* with D1, D2 diagonal of intermediate rank:
    (ab)+ = W (D1 D2)+ U* = b+ a+, so statement (i) holds at c = e."""
    u, v, w = (_cayley(domain, n, rng) for _ in range(3))
    d1 = _diagonal(domain, n, rng.randint(1, n - 1), rng)
    d2 = _diagonal(domain, n, rng.randint(1, n - 1), rng)
    return u @ d1 @ v.star(), v @ d2 @ w.star()


def _pool(domain, n, rng):
    """(a, b, c) instances on which statement (i) is true and false: coupled
    pairs at c = e, 2e and a random c, a = 0, a or b invertible with the
    other of intermediate rank, and random pairs of intermediate rank."""
    def intermediate():
        return random_matrix_of_rank(domain, n, n, rng.randint(1, n - 1), rng)

    e = Matrix.identity(n, domain)
    coupled = _coupled_pair(domain, n, rng)
    yield (*coupled, e)
    yield (*coupled, e.scale(2))
    yield (*_coupled_pair(domain, n, rng), random_matrix(domain, n, n, rng))
    yield (Matrix.zeros(n, n, domain), random_matrix(domain, n, n, rng),
           random_matrix(domain, n, n, rng))
    yield random_matrix_of_rank(domain, n, n, n, rng), intermediate(), e
    yield intermediate(), random_matrix_of_rank(domain, n, n, n, rng), e
    for _ in range(2):
        yield intermediate(), intermediate(), random_matrix(domain, n, n, rng)


def _expected(m, z):
    try:
        return mp_inverse(m) == z
    except NoMPInverse:
        return False


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
def test_statement_i_agrees_with_the_computed_inverse(domain):
    rng = random.Random(21)
    seen = {law: set() for law in STATEMENT_I}
    for n in (2, 3, 4):
        for a, b, c in _pool(domain, n, rng):
            try:
                ctx = LawContext(a, b, c)
            except NoMPInverse:
                continue
            for law, (m_of, z_of) in STATEMENT_I.items():
                m, z = m_of(ctx), z_of(ctx)
                expected = _expected(m, z)
                assert is_mp_inverse(m, z) == expected, (law, a, b, c)
                assert LAWS[law].statements["i"](ctx) == expected, (law, a, b, c)
                seen[law].add(expected)
    assert all(values == {True, False} for values in seen.values()), seen


def test_statement_i_is_false_where_ab_has_no_inverse():
    """Over F_5, a and b have Moore-Penrose inverses but ab does not, as
    (ab)(ab)* = 0 with ab of rank 1.  No z solves the Penrose equations,
    so every statement (i) about (ab)+ is False, at c = e also for cab
    and abc, while mp_inverse refuses ab."""
    f5 = prime_field(5)
    a = Matrix.from_rows([[0, 0], [0, 1]], f5)
    b = Matrix.from_rows([[0, 1], [1, 2]], f5)
    ctx = LawContext(a, b, Matrix.identity(2, f5))
    with pytest.raises(NoMPInverse):
        mp_inverse(ctx.ab)
    for law, (m_of, z_of) in STATEMENT_I.items():
        assert not is_mp_inverse(m_of(ctx), z_of(ctx)), law
        assert not LAWS[law].statements["i"](ctx), law


def _spy(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def spied(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spied)


@pytest.mark.parametrize("law", (LawId.T23, LawId.GREVILLE), ids=str)
@pytest.mark.parametrize("domain", (G, prime_field(7)), ids=lambda d: d.name)
def test_check_equivalence_forms_no_further_mp_inverse(law, domain, monkeypatch):
    """Once the context holds a+ and b+, deciding the law inverts nothing:
    statement (i) runs on the Penrose equations, not on (ab)+."""
    spec = InstanceSpec(domain, 4, rank_a=2, rank_b=3,
                        weight_mode="commutant" if LAWS[law].side else "identity")
    decided = 0
    for trial in range(6):
        a, b, c = gen_instance(replace(spec, seed=_trial_seeds(5, trial)[0]), law)
        try:
            ctx = LawContext(a, b, c)
        except NoMPInverse:
            continue
        calls = []
        with monkeypatch.context() as patch:
            for module in (rolcheck.laws, rolcheck.geninv):
                _spy(patch, module, "mp_inverse", calls)
            for module in (rolcheck.geninv, rolcheck.matrices):
                _spy(patch, module, "inverse", calls)
            report = check_equivalence(law, ctx)
        decided += report.hypotheses_met
        assert calls == [], (trial, calls)
    assert decided > 0


def _products_with(monkeypatch, evaluate, ctx):
    """(value, the (left, right) operand pairs of every product formed)."""
    pairs = []
    original = Matrix.__matmul__

    def spied(self, other):
        pairs.append((self, other))
        return original(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "__matmul__", spied)
        value = evaluate(ctx)
    return value, pairs


def test_false_first_part_forms_no_product_of_the_second(monkeypatch):
    """T23 (ii) and (iii) are each two parts joined by `and`.  Only their
    second parts multiply s and r (r s and s r in (ii), s r in (iii)), so
    no such product may be formed when the first part is false; on a
    coupled pair, where both parts hold, it is."""
    spec = InstanceSpec(G, 4, rank_a=2, rank_b=3, weight_mode="commutant", seed=3)
    false_ctx = LawContext(*gen_instance(spec, LawId.T23))
    a, b = _coupled_pair(G, 4, random.Random(4))
    true_ctx = LawContext(a, b, Matrix.identity(4, G))
    evaluators = LAWS[LawId.T23].statements
    for stmt, first_part in (
        ("ii", lambda ctx: (ctx.a @ (ctx.c @ ctx.p @ ctx.q - ctx.q @ ctx.p)
                            @ ctx.b_dag_star @ ctx.c_star).is_zero()),
        ("iii", lambda ctx: ctx.s @ ctx.c @ ctx.p @ ctx.q @ ctx.p @ ctx.c_star
                            == ctx.q @ ctx.p @ ctx.c_star),
    ):
        assert not first_part(false_ctx) and first_part(true_ctx), stmt
        for ctx, value in ((false_ctx, False), (true_ctx, True)):
            got, pairs = _products_with(monkeypatch, evaluators[stmt], ctx)
            second_part = [(x, y) for x, y in pairs
                           if (x is ctx.s and y is ctx.r) or (x is ctx.r and y is ctx.s)]
            assert got == value, (stmt, value)
            assert bool(second_part) == value, (stmt, value)


def _instances(domain, n, rng):
    """_pool at n >= 2; at n = 1, 1 x 1 pairs of rank 0 or 1 and a random c."""
    if n > 1:
        yield from _pool(domain, n, rng)
        return
    for _ in range(4):
        yield (random_matrix_of_rank(domain, 1, 1, rng.randint(0, 1), rng),
               random_matrix_of_rank(domain, 1, 1, rng.randint(0, 1), rng),
               random_matrix(domain, 1, 1, rng))


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
def test_deferred_values_equal_the_eager_ones(domain):
    """Every exact statement of all 15 laws, run on one deferred view per
    instance, gives the value its evaluator gives on the context itself;
    the coupled pairs make many parts hold, so the exact fallback runs."""
    rng = random.Random(27)
    seen = set()
    for n in (1, 2, 3, 4, 6):
        for a, b, c in _instances(domain, n, rng):
            try:
                ctx = LawContext(a, b, c)
            except NoMPInverse:
                continue
            view = ctx.deferred()
            for law, spec in LAWS.items():
                for stmt, evaluate in spec.statements.items():
                    if not isinstance(evaluate, Inclusion):
                        value = evaluate(view)
                        assert value == evaluate(ctx), (law, stmt, a, b, c)
                        seen.add(value)
    assert seen == {True, False}


def _t24_ii_first_part(ctx):
    return ctx.b_star @ (ctx.c_star @ ctx.s @ ctx.r_dag - ctx.r_dag @ ctx.s) @ ctx.a_dag @ ctx.c


def test_a_part_the_probe_cannot_refute_is_decided_exactly():
    """Over F_3 the first part of T24 (ii) here is [1 1; 2 2], which sends
    the probe (1, 2)^T to zero.  The exact comparison must find it nonzero,
    so (ii) is False as written; a probe trusted when it agrees would make
    (ii) True and the report a violation."""
    f3 = prime_field(3)
    a = Matrix.from_rows([[0, 1], [0, 1]], f3)
    b = Matrix.from_rows([[2, 1], [2, 0]], f3)
    ctx = LawContext(a, b, Matrix.identity(2, f3))
    part = _t24_ii_first_part(ctx.deferred())
    assert not part.is_zero()
    assert not any(part.image())
    assert part.value() == Matrix.from_rows([[1, 1], [2, 2]], f3)
    assert law_statement(LawId.T24, "ii", ctx) is False
    report = check_equivalence(LawId.T24, ctx)
    assert report.statement_values == {"i": False, "ii": False, "iii": False}
    assert report.verdict == "equivalent"


def test_pending_compares_as_the_formed_matrices():
    """== and is_zero() on Pending agree with the formed matrices, also
    where the shapes differ, and == takes a formed Matrix on either side."""
    rng = random.Random(5)
    x, y = (Pending(random_matrix(G, 3, 3, rng)) for _ in range(2))
    wide = Pending(random_matrix(G, 2, 3, rng))
    for left, right in ((x @ y, y @ x), (x - x, x + x), (x @ y - y, x @ y - y)):
        formed = (left.value(), right.value())
        assert (left == right) == (formed[0] == formed[1])
        assert (left == formed[1]) == (formed[1] == left) == (formed[0] == formed[1])
        assert left.is_zero() == formed[0].is_zero()
    assert not wide == x and not x == wide
    assert (x - x).is_zero() and not x.is_zero()



@pytest.mark.parametrize("slip, error", [
    (lambda sq, wide, f5: wide @ wide, DimensionMismatch),
    (lambda sq, wide, f5: sq + wide, DimensionMismatch),
    (lambda sq, wide, f5: sq @ f5, DomainMismatch),
], ids=["inner-size", "sum-of-shapes", "two-domains"])
def test_slips_raise_from_every_comparison(slip, error):
    """Pending checks nothing itself: the Matrix operations that form its
    images and values raise for operands that do not fit, from ==,
    is_zero() and value() alike."""
    rng = random.Random(7)
    sq = Pending(random_matrix(G, 3, 3, rng))
    wide = Pending(random_matrix(G, 2, 3, rng))
    f5 = Pending(random_matrix(prime_field(5), 3, 3, rng))
    for use in (lambda node: node == sq, lambda node: node.is_zero(),
                lambda node: node.value()):
        with pytest.raises(error):
            use(slip(sq, wide, f5))


def test_leaves_of_one_size_share_their_probe():
    """The image of every n-column leaf of one domain is the image of the
    probe (1, ..., n)^T, ints mod the domain's image prime q: the leaf's
    matrix times the probe, sent to F_q.  An @ node's image is its left
    operand's image of its right operand's, a + or - node's the sum or
    difference of its operands' images; so the identity, whose image is
    the probe itself, reads the same probe in every node."""
    rng = random.Random(8)
    for domain in DOMAINS:
        q = domain.image_prime
        for n in (1, 3, 6):
            probe = [i % q for i in range(1, n + 1)]
            e = Pending(Matrix.identity(n, domain))
            assert e.image() == probe and (e @ e).image() == probe
            for rows in (1, 2, n):
                matrix = random_matrix(domain, rows, n, rng)
                leaf = Pending(matrix)
                column = Matrix(n, 1, domain, [domain.coerce(i) for i in range(1, n + 1)])
                assert leaf.image() == list(domain.form_image((matrix @ column).form))
                assert (leaf @ e).image() == leaf.image()
                assert (leaf - leaf).image() == [0] * rows
                assert (leaf + leaf).image() == [2 * v % q for v in leaf.image()]

def _formed_products(monkeypatch, run):
    """(result of run(), [(left, right)] of every product formed)."""
    pairs = []
    original = Matrix.__matmul__

    def spied(self, other):
        pairs.append((self, other))
        return original(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "__matmul__", spied)
        out = run()
    return out, pairs


def test_value_forms_the_written_association(monkeypatch):
    """value() forms x (y z) as y z first, then x times it, and (x y) z as
    x y first; each node forms its product once."""
    rng = random.Random(6)
    x, y, z = (random_matrix(G, 2, 2, rng) for _ in range(3))
    px, py, pz = (Pending(m) for m in (x, y, z))
    for node, expected in ((px @ (py @ pz), [(y, z), (x, y @ z)]),
                           ((px @ py) @ pz, [(x, y), (x @ y, z)])):
        value, pairs = _formed_products(monkeypatch, lambda: (node.value(), node.value()))
        assert pairs == expected and value[0] is value[1]


def _decided_trials(law, spec, count):
    for _, _, ctx in _trials(law, spec, count):
        if ctx is not None:
            check_hypotheses(law, ctx)
            yield ctx


def test_a_refuted_part_forms_no_square_product(monkeypatch):
    """On seed-1 T23 trials of the Q(i), n = 6 benchmark workload, (ii) and
    (iii) are false, refuted on the probe: their leaves are already formed,
    so evaluating them forms only matrix-vector products."""
    spec = InstanceSpec(G, 6, rank_a=4, rank_b=4, weight_mode="commutant", seed=1)
    refuted = 0
    for ctx in _decided_trials(LawId.T23, spec, 4):
        view = ctx.deferred()
        for stmt in ("ii", "iii"):
            value, pairs = _formed_products(
                monkeypatch, lambda: LAWS[LawId.T23].statements[stmt](view))
            assert value is False, stmt
            assert all(y.cols == 1 for _, y in pairs), stmt
            refuted += 1
    assert refuted == 8


def test_t32_forms_the_products_of_the_eager_evaluators(monkeypatch):
    """T32 (ii) is memberships only, which form their operands on entry: on
    the benchmark workload's trials check_equivalence forms the same
    matrix products, in the same order, as with the evaluators run on the
    context itself.  (The set inclusion's products with WordMatrix
    parameters are left out of the comparison.)"""
    spec = InstanceSpec(G, 4, rank_a=3, rank_b=4, weight_mode="identity", seed=1)
    compared = 0
    for ctx in _decided_trials(LawId.T32, spec, 3):
        runs = []
        for deferred in (LawContext.deferred, lambda self: self):
            fresh = LawContext(ctx.a, ctx.b, ctx.c)
            with monkeypatch.context() as patch:
                patch.setattr(LawContext, "deferred", deferred)
                report, pairs = _formed_products(
                    monkeypatch, lambda: check_equivalence(LawId.T32, fresh))
            runs.append((report.to_json_dict(),
                         [(x.shape, x.form, y.shape, y.form) for x, y in pairs
                          if isinstance(y, Matrix)]))
        assert runs[0] == runs[1]
        compared += 1
    assert compared == 3


def _run_law_check(tmp_path, matrices, law):
    args = ["law", "check", "--law", law]
    for name, rows in matrices.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        args += [f"--{name}", str(path)]
    out = tmp_path / "report.json"
    assert main([*args, "--json", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def _square(domain, rows):
    n = len(rows)
    return matrix_to_json(Matrix(n, n, domain, [domain.parse(v) for row in rows for v in row]))


_NOTE = "target product is zero; every candidate is trivially a K-inverse"
_F3 = prime_field(3)


@pytest.mark.parametrize("matrices, expected", [
    ({"a": _square(G, []), "b": _square(G, [])},
     {"T23": ("equivalent", [True] * 3, None),
      "T32": ("equivalent", [True] * 2, _NOTE),
      "T38": ("equivalent", [True] * 4, _NOTE)}),
    ({"a": _square(G, [["2"]]), "b": _square(G, [["1+i"]])},
     {"T23": ("equivalent", [True] * 3, None),
      "T32": ("equivalent", [True] * 2, None),
      "T38": ("equivalent", [True] * 4, None)}),
    ({"a": _square(G, [["2"]]), "b": _square(G, [["1+i"]]), "c": _square(G, [["3"]])},
     {"T23": ("equivalent", [False] * 3, None),
      "T32": ("equivalent", [False] * 2, None),
      "T38": ("hypothesis_not_met", [], None)}),
    ({"a": _square(G, [["0"]]), "b": _square(G, [["1"]])},
     {"T23": ("equivalent", [True] * 3, None),
      "T32": ("equivalent", [True] * 2, _NOTE),
      "T38": ("equivalent", [True] * 4, _NOTE)}),
    ({"a": _square(_F3, [["2"]]), "b": _square(_F3, [["1"]]), "c": _square(_F3, [["2"]])},
     {"T23": ("equivalent", [False] * 3, None),
      "T32": ("equivalent", [False] * 2, None),
      "T38": ("hypothesis_not_met", [], None)}),
], ids=["0x0", "1x1", "1x1-weight-3", "1x1-zero-a", "1x1-f3-weight-2"])
def test_law_check_on_edge_shapes(tmp_path, matrices, expected):
    """`law check` on 0 x 0 and 1 x 1 matrices exits 0 with the report the
    checker gave before statements ran on the deferred view."""
    for law, (verdict, values, notes) in expected.items():
        report = _run_law_check(tmp_path, matrices, law)
        assert report["verdict"] == verdict, law
        assert list(report["statement_values"].values()) == values, law
        assert report.get("notes") == notes, law


def test_weightless_context_view():
    """GREVILLE reads no weight and evaluates on a weightless context; T23
    reads c and raises the AttributeError the context raises."""
    a, b = _coupled_pair(G, 3, random.Random(8))
    ctx = LawContext(a, b)
    for stmt in ("i", "ii"):
        assert law_statement(LawId.GREVILLE, stmt, ctx) is True
    for stmt, evaluate in LAWS[LawId.T23].statements.items():
        with pytest.raises(AttributeError, match="'c'"):
            evaluate(ctx.deferred())
    with pytest.raises(AttributeError, match="'c'"):
        law_statement(LawId.T23, "ii", ctx)


def _cli_outputs(tmp_path, flags):
    """(exit code, JSON text) of suites and statement searches for T23
    and GREVILLE over Q(i) and T32 and T38 over F_7, run as
    `python [flags] -m rolcheck`."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    outputs = []
    for law, domain in (("T23", "gaussian_rational"), ("GREVILLE", "gaussian_rational"),
                        ("T32", "fp:7"), ("T38", "fp:7")):
        for command in (["suite", "--trials", "6"], ["law", "search", "--stmt", "ii"]):
            out = tmp_path / "out.json"
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "rolcheck", *command, "--law", law,
                 "--domain", domain, "--size", "3", "--seed", "4", "--json", str(out)],
                capture_output=True, text=True, env=env)
            outputs.append((proc.returncode, out.read_text(encoding="utf-8")))
    return outputs


def test_outputs_do_not_change_under_python_O(tmp_path):
    """The probe holds no assert: under -O the suites and statement searches
    give the same reports."""
    assert _cli_outputs(tmp_path, ["-O"]) == _cli_outputs(tmp_path, [])


# Comparisons as (operation, expression over leaves x, y, z, d and k).  d is
# u (2, -1, 0, ...) and k is (2, -1, 0, ...)^T (0, 3, -2, 0, ...): d v = 0
# and k v = k* v for the probe v = (1, 2, ..., n)^T exactly, so in every
# domain the probe cannot see d, nor that k is not hermitian.
_COMPARISONS = (
    ("==", lambda m: (m.x @ (m.y @ m.z), (m.x @ m.y) @ m.z)),
    ("==", lambda m: (m.x @ m.y + m.z, m.z + m.x @ m.y)),
    ("==", lambda m: (m.x @ (m.y - m.z), m.x @ m.y - m.x @ m.z)),
    ("==", lambda m: (m.x @ m.y, m.y @ m.x)),
    ("==", lambda m: (m.x @ (m.y + m.d), m.x @ m.y)),
    ("is_zero", lambda m: m.x @ m.y - m.x @ m.y),
    ("is_zero", lambda m: m.x @ (m.y + m.d) - m.x @ m.y),
    ("is_zero", lambda m: m.x - m.y),
    ("is_zero", lambda m: (m.x @ m.y) @ m.z - m.x @ (m.y @ m.z)),
    ("is_hermitian", lambda m: m.x @ m.x_star),
    ("is_hermitian", lambda m: m.x + m.x_star),
    ("is_hermitian", lambda m: m.x @ (m.y + m.y_star) @ m.x_star),
    ("is_hermitian", lambda m: m.x @ m.y),
    ("is_hermitian", lambda m: m.x @ m.x_star + m.k),
    ("is_hermitian", lambda m: m.x_star @ (m.y @ m.y_star + m.k) @ m.x),
)


def _leaves(domain, n, rng):
    """Random n x n x, y, z, their stars, and the probe-blind d and k."""
    x, y, z = (random_matrix(domain, n, n, rng) for _ in range(3))
    w = [2, -1] + [0] * (n - 2) if n > 1 else [0]
    u = [0, 3, -2] + [0] * (n - 3) if n > 2 else [0] * n
    d = random_matrix(domain, n, 1, rng) @ Matrix.from_rows([w], domain)
    k = Matrix.from_rows([[a] for a in w], domain) @ Matrix.from_rows([u], domain)
    return dict(x=x, y=y, z=z, x_star=x.star(), y_star=y.star(), d=d, k=k)


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
def test_pending_comparisons_agree_with_the_formed_matrices(domain):
    """==, is_zero() and is_hermitian() on Pending expressions give what the
    same operation gives on the formed matrices, at n = 1-4 and 6, where
    the probe refutes the comparison and where it cannot."""
    rng = random.Random(30)
    seen = {op: set() for op, _ in _COMPARISONS}
    blind = 0
    for n in (1, 2, 3, 4, 6):
        for _ in range(4):
            leaves = _leaves(domain, n, rng)
            formed = SimpleNamespace(**leaves)
            for op, of in _COMPARISONS:
                pending = of(SimpleNamespace(**{k: Pending(v) for k, v in leaves.items()}))
                expected = of(formed)
                if op == "==":
                    got = pending[0] == pending[1]
                    assert got == (expected[0] == expected[1]), (op, n)
                    assert (pending[0] == expected[1]) == (expected[1] == pending[0]) == got
                else:
                    got = getattr(pending, op)()
                    assert got == getattr(expected, op)(), (op, n)
                seen[op].add(got)
            node = Pending(formed.x) @ Pending(formed.d)
            blind += not any(node.image()) and not node.value().is_zero()
    assert all(values == {True, False} for values in seen.values()), seen
    assert blind > 0


def test_a_leaf_with_no_image_is_decided_exactly():
    """A Q(i) leaf whose denominator is a multiple of P = 32749 has no
    image mod P.  Every comparison it takes part in is decided on the
    formed matrices, true and false alike."""
    rng = random.Random(31)
    x, y = (random_matrix(G, 3, 3, rng) for _ in range(2))
    far = x.scale(Fraction(1, 32749))
    assert far.form[2] % 32749 == 0 and G.form_image(far.form) is None
    leaf, other, star = Pending(far), Pending(y), Pending(far.star())
    with pytest.raises(rolcheck.matrices._NoImage):
        (other @ leaf).image()
    assert leaf @ other == Pending(far @ y) and not leaf @ other == other @ leaf
    assert leaf @ Pending(inverse(far)) == Pending(Matrix.identity(3, G))
    assert (leaf @ other - Pending(far) @ other).is_zero() and not (leaf @ other).is_zero()
    assert (leaf + star).is_hermitian() and (leaf @ star).is_hermitian()
    assert not leaf.is_hermitian() and not (leaf @ other).is_hermitian()


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
def test_a_matrix_the_hermitian_probe_cannot_refute(domain):
    """M = [0 -3 2; 0 0 -1; 0 0 0] has M v = M* v for v = (1, 2, 3)^T, but
    M is not hermitian: is_hermitian() must decide it on M itself."""
    m = Pending(Matrix.from_rows([[0, -3, 2], [0, 0, -1], [0, 0, 0]], domain))
    assert m.image() == m.image(star=True)
    assert not m.is_hermitian()


def test_pending_equality_across_domains_is_false():
    """As for Matrix, == over two domains is False, in both directions and
    with a Pending on both sides; an expression over two domains raises
    (test_slips_raise_from_every_comparison)."""
    f5 = prime_field(5)
    for n in (1, 3):
        left, right = Matrix.identity(n, G), Matrix.identity(n, f5)
        assert not left == right
        assert not Pending(left) == right and not right == Pending(left)
        assert not Pending(left) == Pending(right) and Pending(left) != Pending(right)


@pytest.mark.parametrize("law, spec", [
    (LawId.T23, InstanceSpec(G, 6, rank_a=4, rank_b=4, weight_mode="commutant", seed=1)),
    (LawId.GREVILLE, InstanceSpec(G, 8, rank_a=6, rank_b=6, weight_mode="identity", seed=1)),
], ids=["T23", "GREVILLE"])
def test_a_false_statement_i_forms_no_product(law, spec, monkeypatch):
    """On the seed-1 trials of the T23 and GREVILLE benchmark workloads,
    the hypotheses over Q(i) form no ab, and statement (i) is false:
    is_k_inverse refutes Penrose equation (3) on the probe and forms no
    matrix product.  Once formed, the context's ab is the value of the
    view's ab."""
    decided = 0
    for ctx in _decided_trials(law, spec, 2):
        assert "ab" not in vars(ctx)
        value, pairs = _formed_products(
            monkeypatch, lambda: LAWS[law].statements["i"](ctx.deferred()))
        assert value is False and pairs == []
        assert ctx.ab is ctx.deferred().ab.value()
        decided += 1
    assert decided == 2
