"""The cyclic-element certificate of matrix_equation_basis against the
exact solve.

matrix_equation_basis first writes the weight c as a polynomial in one
cyclic element H of the algebra the commute matrices generate
(`_cyclic_certificate`), and returns the known kernel (span(e) for the
commutant, {0} for the four-way weight) when the rank modulo one prime of
row 0 of each block of that n-column system (the pivot count of
`scalars.row_reduce_mod`, F_p's elimination kernel, on the domain's
`residues`) proves the kernel is no larger.  Here every certified and
every declined system is compared with the exact path, nullspace_basis on
the Kronecker system, over Q(i), F_3, F_5 and F_7, on random b and on
reducible b whose commutant is larger than the scalars, where the
certificate must decline.  A planted certificate that always fires must
fail the comparison, and a property test holds every firing against the
exact kernel.

H is the first candidate whose rows e1' H^k, k < n, have rank n; the
same rows build the system (`_system_rows`).  A property test holds that
choice and those rows against an independent reference
(`_reference_candidate`, `_whole_rows_reference`): H^k in full, and the
whole system as the n x n loop built it, whose first n columns of each
block the one-row rows must be, and whose rank must reach the bound
wherever the certificate fires.  A planted certificate that fires on a
one-row rank one short of the bound must fail the comparisons.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rolcheck.peirce
import rolcheck.scalars
from rolcheck import GAUSSIAN_RATIONAL, LawId, Matrix, prime_field
from rolcheck.harness import InstanceSpec, gen_instance, random_matrix_of_rank
from rolcheck.laws import LAWS
from rolcheck.matrices import inverse, nullspace_basis, random_matrix, rank
from rolcheck.peirce import (
    _cyclic_certificate,
    _equation_system,
    _system_rows,
    matrix_equation_basis,
    sample_constrained,
)
from rolcheck.scalars import columns, matmul_mod, row_reduce_mod

G = GAUSSIAN_RATIONAL
P = rolcheck.scalars._P
DOMAINS = (G, prime_field(3), prime_field(5), prime_field(7))


def _residue_rows(domain, m):
    """(rows of m's residues, q), for row_reduce_mod."""
    (image,), q = domain.residues([m.form])
    return [image[i * m.cols : (i + 1) * m.cols] for i in range(m.rows)], q


def _exact_basis(n, domain, commute_with, left_zero=(), right_zero=()):
    """Kernel of the Kronecker system by nullspace_basis, folded back as
    matrix_equation_basis folds it (column stacking)."""
    system = _equation_system(n, domain, commute_with, left_zero, right_zero)
    return [Matrix(n, n, domain, [v.entries[j * n + i] for i in range(n) for j in range(n)])
            for v in nullspace_basis(system)]


def _cayley_unitary(n, rng):
    """U = (e - K)(e + K)^-1 for a skew-hermitian K over Q(i); e + K is
    invertible because K has imaginary eigenvalues."""
    x = random_matrix(G, n, n, rng)
    k = x - x.star()
    e = Matrix.identity(n, G)
    return (e - k) @ inverse(e + k)


def _block_diagonal(b1):
    m, domain = b1.rows, b1.domain
    zero = domain.zero()
    rows = [list(b1.row(i)) + [zero] * m for i in range(m)]
    rows += [[zero] * m + list(b1.row(i)) for i in range(m)]
    return Matrix(2 * m, 2 * m, domain, [v for row in rows for v in row])


def _cases(domain):
    """(name, b, expected certificate outcome or None when either is right)."""
    rng = random.Random(20_261_019)
    for n in range(1, 6):
        for k in range(6):
            rank = rng.randint(1, n)
            yield (f"random n={n} rank={rank} #{k}",
                   random_matrix_of_rank(domain, n, n, rank, rng), None)
    # At n = 1 every matrix is a scalar, so the kernel is span(e) for any b.
    yield "n=1 b=0", Matrix.zeros(1, 1, domain), "certify"
    scalar = "3-2i" if domain == G else "3"
    yield f"n=1 b={scalar}", Matrix.from_rows([[scalar]], domain), "certify"
    for n in range(2, 6):
        yield f"b=0 n={n}", Matrix.zeros(n, n, domain), "decline"
        # b = b*, so the commutant is that of b alone, of dimension >= n.
        x = random_matrix(domain, n, n, rng)
        yield f"self-adjoint n={n}", x + x.star(), "decline"
        # Over Q(i) a generic b of rank at least 2 is irreducible: its
        # commutant is span(e).  Over a small F_p it need not be generic.
        rank = max(n - 2, 2)
        yield (f"rank-{rank} n={n}", random_matrix_of_rank(domain, n, n, rank, rng),
               "certify" if domain == G else None)
    # For n >= 3, b = u v* and b* map into span(u, v) and kill every w with
    # v*w = u*w = 0.  For x, y in that space of dimension >= n - 2, x y*
    # commutes with b and b*, and it is not a scalar.
    for n in range(3, 6):
        yield f"rank-1 n={n}", random_matrix_of_rank(domain, n, n, 1, rng), "decline"
    # The swap of the two blocks commutes with diag(b1, b1) and its star.
    for m in (1, 2):
        b1 = random_matrix(domain, m, m, rng)
        yield f"diag(b1, b1) n={2 * m}", _block_diagonal(b1), "decline"
    if domain == G:
        for m in (1, 2):
            u = _cayley_unitary(2 * m, rng)
            assert u @ u.star() == Matrix.identity(2 * m, G)
            b1 = random_matrix(G, m, m, rng)
            yield f"U diag(b1, b1) U* n={2 * m}", u @ _block_diagonal(b1) @ u.star(), "decline"
        # Its commutant is span(e) over Q(i), but every entry vanishes mod P.
        yield "P E12 n=2", Matrix.from_rows([[0, P], [0, 0]], G), "decline"


CASES = {domain: list(_cases(domain)) for domain in DOMAINS}


def _powers_reference(h, n, q):
    """e, H, ..., H^(n-1) mod q in full, each row-major."""
    power = [int(i == j) for i in range(n) for j in range(n)]
    powers = []
    for _ in range(n):
        powers.append(power)
        power = matmul_mod(power, h, n, n, n, q)
    return powers


def _whole_rows_reference(h, commute, lefts, rights, n, q):
    """The certificate's whole system as its loop built it before the
    one-row step: H^k in full, and every block an n x n product."""
    rows = []
    for power in _powers_reference(h, n, q):
        row = []
        for m in commute:
            row += [(u - v) % q for u, v in zip(matmul_mod(power, m, n, n, n, q),
                                                matmul_mod(m, power, n, n, n, q))]
        for l in lefts:
            row += matmul_mod(l, power, n, n, n, q)
        for r in rights:
            row += matmul_mod(power, r, n, n, n, q)
        rows.append(row)
    return rows


def _reference_candidate(commute, n, q):
    """(H, [e1' H^k for k < n]) for the first H = m + lambda m' + mu m m'
    of peirce._CANDIDATES whose n rows e1' H^k, read off the full powers,
    have rank n mod q; None when no candidate's have."""
    first, last = commute[0], commute[-1]
    product = matmul_mod(first, last, n, n, n, q)
    for lam, mu in rolcheck.peirce._CANDIDATES:
        h = [(x + lam * y + mu * z) % q for x, y, z in zip(first, last, product)]
        powers = [power[:n] for power in _powers_reference(h, n, q)]
        if len(row_reduce_mod(powers, q)[1]) == n:
            return h, powers
    return None


def _certificate_ranks(n, domain, commute_with, left_zero, right_zero):
    """(one-row rank, whole rank) of the certificate's system on the
    reference candidate, None when there is none, after checking that the
    builder's rows are the first n columns of each block of the whole
    reference system."""
    commute, q = domain.residues([m.form for m in commute_with])
    candidate = _reference_candidate(commute, n, q)
    if candidate is None:
        return None
    h, powers = candidate
    lefts = domain.residues([l.form for l in left_zero])[0]
    rights = domain.residues([r.form for r in right_zero])[0]
    whole = _whole_rows_reference(h, commute, lefts, rights, n, q)
    one_row = _system_rows(powers, columns(h, n), commute, lefts, rights, n, q)
    assert one_row == [[v for t in range(0, len(row), n * n) for v in row[t : t + n]]
                       for row in whole]
    return tuple(len(row_reduce_mod(rows, q)[1]) for rows in (one_row, whole))


def _one_short_mutant(n, domain, commute_with, left_zero, right_zero, stop):
    """The certificate with a planted fault: it fires on a one-row rank one
    short of stop."""
    ranks = _certificate_ranks(n, domain, commute_with, left_zero, right_zero)
    return ranks is not None and ranks[0] >= stop - 1


def _run_cases(domain, certificate):
    """Each case's (name, expected, fired, basis, exact basis), with
    `certificate` standing in for peirce._cyclic_certificate; fired is None
    when no certificate ran."""
    fired = []

    def spy(*args):
        ok = certificate(*args)
        fired.append(ok)
        return ok

    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rolcheck.peirce, "_cyclic_certificate", spy)
        for name, b, expected in CASES[domain]:
            basis = matrix_equation_basis(b.rows, domain, commute_with=(b, b.star()))
            outcome = fired.pop() if fired else None
            exact = _exact_basis(b.rows, domain, (b, b.star()))
            out.append((name, expected, outcome, basis, exact))
    return out


def test_certified_and_declined_bases_equal_the_exact_path():
    for domain in DOMAINS:
        results = _run_cases(domain, _cyclic_certificate)
        assert [name for name, _, _, basis, exact in results if basis != exact] == []
        certified = sum(fired is True for _, _, fired, _, _ in results)
        declined = sum(fired is False for _, _, fired, _, _ in results)
        assert certified + declined == len(results), domain
        assert certified >= 15 and declined >= 15, (domain, certified, declined)
        wrong = [(name, expected) for name, expected, fired, _, _ in results
                 if expected is not None and fired != (expected == "certify")]
        assert wrong == [], domain


def test_entries_divisible_by_p_decline_and_still_give_e():
    b = Matrix.from_rows([[0, P], [0, 0]], G)
    system = _equation_system(2, G, commute_with=(b, b.star()))
    assert len(row_reduce_mod(*_residue_rows(G, system))[1]) == 0
    assert G.residues([b.form, b.star().form]) == ([[0] * 4] * 2, P)
    assert not _cyclic_certificate(2, G, (b, b.star()), (), (), 1)
    assert matrix_equation_basis(2, G, commute_with=(b, b.star())) == [Matrix.identity(2, G)]


def test_always_certify_mutant_fails_the_comparison():
    for domain in DOMAINS:
        results = _run_cases(domain, lambda *args: True)
        mismatched = [name for name, _, _, basis, exact in results if basis != exact]
        kinds = ("b=0", "self-adjoint", "rank-1 ", "diag(b1, b1)") + ("U diag",) * (domain == G)
        for kind in kinds:
            assert any(name.startswith(kind) for name in mismatched), (domain, kind)


def test_prime_and_square_root_of_minus_one():
    p, i = rolcheck.scalars._P, rolcheck.scalars._I
    assert p % 4 == 1 and p < 2**15
    assert all(p % d for d in range(2, int(p**0.5) + 1))
    assert (i * i + 1) % p == 0
    assert G.residues([Matrix(1, 1, G, [rolcheck.scalars.GaussianRational(0, 1)]).form]) == ([[i]], p)


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 5),
       st.sampled_from((None, "matrix", "row 0")), st.integers(0, 2**32))
def test_rank_mod_p_bounds_the_rank(domain, rows, cols, target, times_p, seed):
    """The rank row_reduce_mod gives m's residues is at most the rank over
    Q(i), and 0 when every entry is a multiple of P; over F_p the residues
    are the element values, so it is the rank."""
    rng = random.Random(seed)
    m = random_matrix_of_rank(domain, rows, cols, min(target, rows, cols), rng)
    if domain == G and times_p:
        k = P * G.sample_coefficient(rng)
        m = Matrix(rows, cols, G, [v * k if times_p == "matrix" or i < cols else v
                                   for i, v in enumerate(m.entries)])
    got = len(row_reduce_mod(*_residue_rows(domain, m))[1])
    if domain != G:
        assert got == rank(m)
    else:
        assert got <= rank(m)
        assert times_p != "matrix" or got == 0


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.sampled_from(("random",) * 2 + ("diag(b1, b1)", "U diag(b1, b1) U*")),
       st.sampled_from((None, LawId.T38, LawId.T39)), st.integers(0, 2**32))
def test_every_firing_matches_the_exact_kernel(domain, n, kind, law, seed):
    """Whenever the certificate fires, nullspace_basis on the Kronecker
    system gives the known basis: [e] for a commutant, [] once T38's or
    T39's products of a random ab are zero blocks.  b is random of random
    rank, or reducible, so that its commutant holds M_2 (x) e."""
    assume(kind != "U diag(b1, b1) U*" or domain == G)
    rng = random.Random(seed)
    if kind == "random":
        b = random_matrix_of_rank(domain, n, n, rng.randint(0, n), rng)
    else:
        n = 2 * max(1, n // 2)
        b = _block_diagonal(random_matrix(domain, n // 2, n // 2, rng))
        if kind != "diag(b1, b1)":
            u = _cayley_unitary(n, rng)
            b = u @ b @ u.star()
    left = right = ()
    if law is not None:
        a = random_matrix_of_rank(domain, n, n, rng.randint(0, n), rng)
        left, right = LAWS[law].weight_zero(a @ b)
    known = [] if left or right else [Matrix.identity(n, domain)]
    commute = (b, b.star())
    if _cyclic_certificate(n, domain, commute, left, right, n - len(known)):
        assert _exact_basis(n, domain, commute, left, right) == known


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
def test_no_cyclic_candidate_declines_and_gives_the_exact_basis(domain):
    """For b of rank 1 at n >= 4, range(b) + range(b*) has dimension at most
    2 <= n - 2, and every candidate H = b + lambda b* + mu b b* maps into it.
    So H kills a space of dimension >= 2 and is derogatory: the
    certificate reduces the n x n matrix of the rows e1' H^k, k < n, once
    per candidate, each of rank below n, reduces no system, and the exact
    solve gives a basis larger than [e]."""
    rng = random.Random(4)
    for n in (4, 5):
        b = random_matrix_of_rank(domain, n, n, 1, rng)
        calls = []  # (rows, set of row lengths, rank) per call

        def spy(rows, q):
            reduced, pivots = row_reduce_mod(rows, q)
            calls.append((len(rows), {len(row) for row in rows}, len(pivots)))
            return reduced, pivots

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rolcheck.peirce, "row_reduce_mod", spy)
            basis = matrix_equation_basis(n, domain, commute_with=(b, b.star()))
        assert len(calls) == len(rolcheck.peirce._CANDIDATES), (domain, n)
        assert all(size == n and lengths == {n} and got < n
                   for size, lengths, got in calls), (domain, n, calls)
        exact = _exact_basis(n, domain, (b, b.star()))
        assert basis == exact and len(exact) > 1, (domain, n)


# --- the four-way weight of T38 and T39 ---------------------------------------


def _four_way_outcomes(pairs, certificate=_cyclic_certificate):
    """For each (m, left_zero, right_zero, seed): whether `certificate`,
    standing in for peirce._cyclic_certificate, fired, the weight, and the
    weight with the certificate switched off."""
    fired = []

    def spy(*args):
        ok = certificate(*args)
        fired.append(ok)
        return ok

    out = []
    for m, left, right, seed in pairs:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rolcheck.peirce, "_cyclic_certificate", spy)
            c = sample_constrained(m, left, right, random.Random(seed))
            patch.setattr(rolcheck.peirce, "_cyclic_certificate", lambda *args: False)
            exact = sample_constrained(m, left, right, random.Random(seed))
        out.append((fired.pop() if fired else None, c, exact))
    return out


def _four_way_pairs(domain):
    """(m, left_zero, right_zero, seed) of T38 and T39 weights on random
    pairs with ab nonzero, on either side."""
    rng = random.Random(38)
    pairs = []
    for n in (2, 3, 4):
        for seed in range(4):
            a = random_matrix_of_rank(domain, n, n, rng.randint(1, n), rng)
            b = random_matrix_of_rank(domain, n, n, rng.randint(1, n), rng)
            ab = a @ b
            if not ab.is_zero():
                for law in (LawId.T38, LawId.T39):
                    products = LAWS[law].weight_zero(ab)
                    pairs.append((b, *products, seed))
                    pairs.append((a, *products, seed))
    return pairs


def test_four_way_weight_equals_the_exact_path():
    for domain in DOMAINS:
        pairs = _four_way_pairs(domain)
        outcomes = _four_way_outcomes(pairs)
        assert all(c == exact for _, c, exact in outcomes), domain
        assert sum(fired is True for fired, _, _ in outcomes) >= len(outcomes) // 2, domain
        assert all(c == Matrix.identity(c.rows, domain) for fired, c, _ in outcomes if fired)


def test_four_way_weight_with_ab_zero_declines():
    """With ab = 0, y = e solves the four-way system, so the kernel is not
    {0} and the certificate must decline."""
    for domain in DOMAINS:
        rng = random.Random(39)
        pairs = [(random_matrix_of_rank(domain, n, n, rank, rng),
                  *LAWS[LawId.T38].weight_zero(Matrix.zeros(n, n, domain)), n)
                 for n in (2, 3, 4) for rank in (n - 1, n)]
        outcomes = _four_way_outcomes(pairs)
        assert [fired for fired, _, _ in outcomes] == [False] * len(pairs), domain
        assert all(c == exact for _, c, exact in outcomes), domain


@pytest.mark.parametrize("law", [LawId.T38, LawId.T39])
def test_t38_t39_instances_equal_the_exact_path(law):
    specs = [InstanceSpec(domain=domain, size=n, weight_mode="commutant", seed=seed)
             for domain in (G, prime_field(7)) for n in (2, 3, 4) for seed in range(6)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rolcheck.peirce, "_cyclic_certificate", lambda *args: False)
        exact = [gen_instance(spec, law) for spec in specs]
    assert [gen_instance(spec, law) for spec in specs] == exact


# --- row 0 of each block against the whole system ------------------------------


def _certificate_with_its_rows(n, domain, commute, left, right, stop):
    """(whether the certificate fired, the (powers, H columns) it passed to
    `_system_rows`, or None when it built no system)."""
    built = []

    def spy(powers, h_cols, *args):
        built.append((powers, h_cols))
        return _system_rows(powers, h_cols, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rolcheck.peirce, "_system_rows", spy)
        fired = _cyclic_certificate(n, domain, commute, left, right, stop)
    assert len(built) <= 1
    return fired, (built[0] if built else None)


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.sampled_from(("random", "random", "diag(b1, b1)")),
       st.sampled_from((None, LawId.T38, LawId.T39)), st.integers(0, 2**32))
def test_one_row_certifies_only_where_the_whole_system_does(domain, n, kind, law, seed):
    """The certificate builds its one system on the reference candidate,
    from that candidate's powers; the one-row rank never passes the whole
    rank, which never passes the bound, and a firing means the one-row
    rank, and so the whole rank, reached it.  The basis is the exact
    path's either way."""
    rng = random.Random(seed)
    if kind == "random":
        b = random_matrix_of_rank(domain, n, n, rng.randint(0, n), rng)
    else:
        n = 2 * max(1, n // 2)
        b = _block_diagonal(random_matrix(domain, n // 2, n // 2, rng))
    left = right = ()
    if law is not None:
        a = random_matrix_of_rank(domain, n, n, rng.randint(0, n), rng)
        left, right = LAWS[law].weight_zero(a @ b)
    stop = n if left or right else n - 1
    commute = (b, b.star())
    ranks = _certificate_ranks(n, domain, commute, left, right)
    fired, built = _certificate_with_its_rows(n, domain, commute, left, right, stop)
    images, q = domain.residues([m.form for m in commute])
    candidate = _reference_candidate(images, n, q)
    if ranks is None:
        assert not fired and built is None and candidate is None
    else:
        h, powers = candidate
        assert built == (powers, columns(h, n))
        one_row, whole = ranks
        assert one_row <= whole <= stop
        assert fired == (one_row == stop)
        assert not fired or whole == stop
    basis = matrix_equation_basis(n, domain, commute, left, right)
    assert basis == _exact_basis(n, domain, commute, left, right)


F3 = prime_field(3)
# Pairs over F_3 (b, and a for a T38 weight) whose kernel is the known one
# although the certificate proves less: no candidate's rows e1' H^k are
# independent for the first, and the one-row rank of the second falls one
# short of the bound that its whole system reaches.
SHORT_OF_THE_WHOLE_SYSTEM = [
    ([[2, 0, 0], [2, 1, 1], [1, 0, 1]], None),
    ([[0, 0, 2], [0, 0, 2], [0, 0, 0]], [[0, 0, 1], [1, 0, 2], [0, 0, 1]]),
]


@pytest.mark.parametrize("b_rows, a_rows", SHORT_OF_THE_WHOLE_SYSTEM)
def test_these_f3_pairs_give_the_exact_basis(b_rows, a_rows):
    b = Matrix.from_rows(b_rows, F3)
    left = right = ()
    if a_rows is not None:
        left, right = LAWS[LawId.T38].weight_zero(Matrix.from_rows(a_rows, F3) @ b)
    n, commute = b.rows, (b, b.star())
    known = [] if left or right else [Matrix.identity(n, F3)]
    stop = n - len(known)
    ranks = _certificate_ranks(n, F3, commute, left, right)
    fired, _ = _certificate_with_its_rows(n, F3, commute, left, right, stop)
    assert fired == (ranks is not None and ranks[0] == stop)
    assert matrix_equation_basis(n, F3, commute, left, right) == known
    assert _exact_basis(n, F3, commute, left, right) == known


def test_one_short_mutant_fails_the_comparisons():
    """A certificate that fires on a one-row rank one short of the bound
    gives a basis or a weight the exact path does not, in the commutant
    cases and in the four-way pairs."""
    for domain in DOMAINS:
        results = _run_cases(domain, _one_short_mutant)
        assert any(basis != exact for _, _, _, basis, exact in results), domain
    outcomes = [out for domain in DOMAINS
                for out in _four_way_outcomes(_four_way_pairs(domain), _one_short_mutant)]
    assert any(c != exact for _, c, exact in outcomes)


# --- how often the certificate spares the exact solve ----------------------------


def test_certified_counts_on_benchmark_shaped_weights():
    """The certificate's firings on fixed draws shaped like the benchmark's
    weight workloads: T23's commutant over Q(i) at n = 6 with b of rank 4,
    and T38's four-way weight over F_7 at n = 6 with a and b of rank 4.
    Every decline runs the exact solve, so a change that certifies fewer
    of these gives the same bases and is slower; these counts catch it.
    T38 draws 5 and 127 have a four-way kernel of dimension 1, so no sound
    certificate fires on them."""
    rng = random.Random(23)
    t23 = [random_matrix_of_rank(G, 6, 6, 4, rng) for _ in range(300)]
    assert sum(_cyclic_certificate(6, G, (b, b.star()), (), (), 5) for b in t23) == 300
    f7, rng = prime_field(7), random.Random(1)
    t38 = []
    for _ in range(300):
        a = random_matrix_of_rank(f7, 6, 6, 4, rng)
        b = random_matrix_of_rank(f7, 6, 6, 4, rng)
        t38.append((a, *LAWS[LawId.T38].weight_zero(a @ b)))
    fired = [_cyclic_certificate(6, f7, (a, a.star()), left, right, 6)
             for a, left, right in t38]
    assert [k for k, ok in enumerate(fired) if not ok] == [5, 127]
