"""The rank certificate of matrix_equation_basis against the exact solve.

matrix_equation_basis first computes the rank of the weight system modulo
one prime (`_rank_mod_p` on the domain's `residues`) and returns the known
kernel (span(e) for the commutant, {0} for the four-way weight) when that
rank proves the kernel is no larger.  Here every certified and every
declined system is compared with the exact path, nullspace_basis on the
same system, over Q(i), F_5 and F_7, on random b and on reducible b whose
commutant is larger than the scalars, where the certificate must decline.
A planted certificate that always fires must fail the comparison.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rolcheck.peirce
import rolcheck.scalars
from rolcheck import GAUSSIAN_RATIONAL, LawId, Matrix, prime_field
from rolcheck.harness import InstanceSpec, gen_instance, random_matrix_of_rank
from rolcheck.laws import LAWS
from rolcheck.matrices import inverse, nullspace_basis, random_matrix, rank
from rolcheck.peirce import _equation_system, matrix_equation_basis, sample_constrained

G = GAUSSIAN_RATIONAL
P = rolcheck.scalars._P
DOMAINS = (G, prime_field(5), prime_field(7))


def _commutant_basis_exact(b):
    """Kernel of the commutant system by nullspace_basis, folded back as
    matrix_equation_basis folds it (column stacking)."""
    n, domain = b.rows, b.domain
    system = _equation_system(n, domain, commute_with=(b, b.star()))
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


def _run_cases(domain, certificate):
    """Each case's (name, expected, fired, basis, exact basis), with
    `certificate` standing in for peirce._rank_mod_p; fired is None when
    no certificate ran."""
    fired = []

    def spy(system, stop):
        rank = certificate(system, stop)
        fired.append(rank == stop)
        return rank

    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rolcheck.peirce, "_rank_mod_p", spy)
        for name, b, expected in CASES[domain]:
            basis = matrix_equation_basis(b.rows, domain, commute_with=(b, b.star()))
            outcome = fired.pop() if fired else None
            out.append((name, expected, outcome, basis, _commutant_basis_exact(b)))
    return out


def test_certified_and_declined_bases_equal_the_exact_path():
    for domain in DOMAINS:
        results = _run_cases(domain, rolcheck.peirce._rank_mod_p)
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
    assert rolcheck.peirce._rank_mod_p(system, 3) == 0
    assert matrix_equation_basis(2, G, commute_with=(b, b.star())) == [Matrix.identity(2, G)]


def test_always_certify_mutant_fails_the_comparison():
    for domain in DOMAINS:
        results = _run_cases(domain, lambda system, stop: stop)
        mismatched = [name for name, _, _, basis, exact in results if basis != exact]
        kinds = ("b=0", "self-adjoint", "rank-1 ", "diag(b1, b1)") + ("U diag",) * (domain == G)
        for kind in kinds:
            assert any(name.startswith(kind) for name in mismatched), (domain, kind)


def test_prime_and_square_root_of_minus_one():
    p, i = rolcheck.scalars._P, rolcheck.scalars._I
    assert p % 4 == 1 and p < 2**15
    assert all(p % d for d in range(2, int(p**0.5) + 1))
    assert (i * i + 1) % p == 0
    assert G.residues([[rolcheck.scalars.GaussianRational(0, 1)]]) == ([[i]], p)


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 5),
       st.sampled_from((None, "matrix", "row 0")), st.integers(0, 2**32))
def test_rank_mod_p_bounds_the_rank(domain, rows, cols, target, times_p, seed):
    """_rank_mod_p(m, m.cols) is at most the rank over Q(i), and 0 when
    every entry is a multiple of P; over F_p the residues are the element
    values, so it is the rank."""
    rng = random.Random(seed)
    m = random_matrix_of_rank(domain, rows, cols, min(target, rows, cols), rng)
    if domain == G and times_p:
        k = P * G.sample_coefficient(rng)
        m = Matrix(rows, cols, G, [v * k if times_p == "matrix" or i < cols else v
                                   for i, v in enumerate(m.entries)])
    got = rolcheck.peirce._rank_mod_p(m, m.cols)
    if domain != G:
        assert got == rank(m)
    else:
        assert got <= rank(m)
        assert times_p != "matrix" or got == 0


# --- the four-way weight of T38 and T39 ---------------------------------------


def _four_way_outcomes(pairs):
    """For each (m, left_zero, right_zero, seed): whether the certificate
    fired, the weight, and the weight with the certificate switched off."""
    fired = []
    real = rolcheck.peirce._rank_mod_p

    def spy(system, stop):
        rank = real(system, stop)
        fired.append(rank == stop)
        return rank

    out = []
    for m, left, right, seed in pairs:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rolcheck.peirce, "_rank_mod_p", spy)
            c = sample_constrained(m, left, right, random.Random(seed))
            patch.setattr(rolcheck.peirce, "_rank_mod_p", lambda system, stop: -1)
            exact = sample_constrained(m, left, right, random.Random(seed))
        out.append((fired.pop() if fired else None, c, exact))
    return out


def test_four_way_weight_equals_the_exact_path():
    for domain in DOMAINS:
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
        patch.setattr(rolcheck.peirce, "_rank_mod_p", lambda system, stop: -1)
        exact = [gen_instance(spec, law) for spec in specs]
    assert [gen_instance(spec, law) for spec in specs] == exact
