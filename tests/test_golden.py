"""Golden reports: SHA-256 pins of every law's reports on fixed instances.

For each law, over Q(i) and F_5 at n <= 3, one hash covers
  - check_equivalence(...).to_json_dict() on a shared instance pool,
    including details (hypothesis names), witnesses and notes;
  - run_suite(...).to_json_dict();
  - search_counterexample(...) without a statement and for each statement.

A second hash pins the same reports with K-inverse membership negated
inside the law checker, a planted fault that drives the violation and
witness paths a correct checker never takes, among them set inclusions
decided true where the exact statements are false.

The pool mixes weights generated for either commute side, the four-way
weights of T38/T39, identity and scalar weights, and a few explicit
instances, so that every law meets instances failing its side hypothesis
and its further hypotheses.  A change of any report, hypothesis name or
checking order changes a hash.

A third set of hashes pins weights at n = 6, the size where exact
elimination on the weight system swells: sample_commutant over Q(i) and
the four-way weight of peirce.sample_constrained over F_7, on the
products LAWS[T38].weight_zero names.  One more pins a T39 weight that
gen_instance draws over F_3 at n = 3, on T39's own products.

To print the hashes of the current code: python tests/test_golden.py
"""

import hashlib
import json
import random
from dataclasses import replace

import pytest

import rolcheck.laws

from rolcheck import (
    GAUSSIAN_RATIONAL,
    HYPOTHESIS_NOT_MET,
    InstanceSpec,
    LawContext,
    LawId,
    Matrix,
    NoMPInverse,
    check_equivalence,
    gen_instance,
    prime_field,
    run_suite,
    matrix_to_json,
    sample_commutant,
    search_counterexample,
)
from rolcheck.harness import random_matrix_of_rank
from rolcheck.laws import LAWS
from rolcheck.peirce import sample_constrained

G = GAUSSIAN_RATIONAL
F5 = prime_field(5)
DOMAINS = (G, F5)
DRAWS = 4  # samples and falsify_samples of every check_equivalence call

# Statement ids per law, in reporting order.
STATEMENT_IDS = {
    law: ("i", "ii", "iii") if law in (LawId.T23, LawId.T24, LawId.T25, LawId.T26, LawId.C27)
    else ("i", "ii", "iii", "iv") if law in (LawId.T38, LawId.T39)
    else ("i", "ii")
    for law in LawId
}

_A_SIDE = "c commutes with a and a*"
_B_SIDE = "c commutes with b and b*"
_AB = "ab is Moore-Penrose invertible"

# Every hypothesis name the pool must reach, per law.  Not listed: the
# invertibility of abb+ (T38) and a+ab (T39).  It fails on 4-7% of the
# random 3x3 F_3 and F_5 pairs of rank 1 or 2 with a+, b+ and (ab)+, but
# on no instance of this pool; tests/test_laws.py pins one of each.
REACHED = {
    LawId.T23: {_B_SIDE, _AB},
    LawId.T24: {_A_SIDE, _AB},
    LawId.T25: {_A_SIDE, "cab is Moore-Penrose invertible"},
    LawId.T26: {_B_SIDE, "abc is Moore-Penrose invertible"},
    LawId.C27: {"c is a scalar multiple of the identity", _AB},
    LawId.GREVILLE: {_AB},
    LawId.KOLIHA_DC: {_AB},
    LawId.T32: {_A_SIDE},
    LawId.C33: {_A_SIDE, "a(e - bb+) is Moore-Penrose invertible"},
    LawId.T34: {_B_SIDE},
    LawId.C35: {_B_SIDE, "(e - a+a)b is Moore-Penrose invertible"},
    LawId.T36: {_A_SIDE},
    LawId.T37: {_B_SIDE},
    LawId.T38: {_A_SIDE, "cab = ab", "c*ab = ab", _AB,
                "a(e - bb+) is Moore-Penrose invertible"},
    LawId.T39: {_B_SIDE, "abc = ab", "abc* = ab", _AB,
                "(e - a+a)b is Moore-Penrose invertible"},
}

# Explicit instances (domain, a, b, c): c = e over F_5 where ab, a(e - bb+)
# or (e - a+a)b has no Moore-Penrose inverse; over Q(i) a weight with
# cab = ab but c*ab != ab, and one with abc = ab but abc* != ab.
EXPLICIT = (
    (F5, [[0, 0], [0, 1]], [[0, 1], [1, 2]], [[1, 0], [0, 1]]),
    (F5, [[0, 1], [1, 1]], [[0, 1], [0, 4]], [[1, 0], [0, 1]]),
    (F5, [[0, 0], [0, 1]], [[1, 2], [0, 1]], [[1, 0], [0, 1]]),
    (G, [[1, 0], [0, 1]], [[1, 0], [0, 0]], [[1, 1], [0, 1]]),
    (G, [[1, 0], [0, 0]], [[1, 0], [0, 1]], [[1, 0], [1, 1]]),
    (G, [[1, 0], [0, 0]], [[1, 1], [1, 1]], [[2, 0], [0, 2]]),
)

# (law the weight is generated for, weight mode): b side, a side, the
# four-way weights, identity and a random scalar.
WEIGHTS = (
    (LawId.T23, "commutant"),
    (LawId.T24, "commutant"),
    (LawId.T38, "commutant"),
    (LawId.T39, "commutant"),
    (LawId.T23, "identity"),
    (LawId.T23, "scalar"),
)

GOLDEN = {
    "T23": "af7de1fb944d7a881dd97f571cea13d3b804098c64bd423efdbc865c150af82d",
    "T24": "569b802aa8b4008d99ed5ce7b316e5e251a9a424c8d2e53bd29761d102bc5ba9",
    "T25": "fbe3f1415bc3c171829a9111d57f628a43d922fcc9db68d314ea35428520b74a",
    "T26": "6bef51ef4b83210d339a9d3722fb882f2a2271b25d217425cc3db3972f6ea12b",
    "C27": "3ec7873c6da7551d7f546ee096953066be8f64f8dd7998bd834cb44f169cd7a2",
    "GREVILLE": "02b57c6f4f4d9f9dd8431bf17b224491a49ca93889be9fefc29e0c0d6f843179",
    "KOLIHA_DC": "acd5c04642f463961e8031b42bc0145509a018bc2fe5e0a257b2c34001a0b386",
    "T32": "49fa113d30006a04c7b6a416584fdb3def379d688b3e0d868028e1a8914d721f",
    "C33": "5392381124e042d0b389d47fc3425c31094228bec489d8c3aae8316f92849c08",
    "T34": "0ff8a1781fe859aec5ef191b9fe561d52d285250a55c6e2684b5ad3902a78028",
    "C35": "9ec5caf109f48a756b0d8f2676c389ef5af95db7574f0c704b4ccca511d8c6d0",
    "T36": "39ddd9faa63e407fa5ca3be16f50d7cc4280899a6d1d33815e52f8f1751c544b",
    "T37": "3145975544014c0d7200c665d336c2fe8f2b6a0e2fa4b32f628a32d61a3dac54",
    "T38": "c02339fda904872382e363dd0479c7891a5f608eb4c715434827d8fd706a986a",
    "T39": "002576265721db41afbef781249a1e9bf03a6b0d25c9679042d7fbfcf04ad1e1",
}

GOLDEN_UNDER_FAULT = "38005e1cbab57476cd8c3cde23a004a4c296f776fc240e7e39d1f4574d7f1d51"


def _pool():
    pool = []
    for domain, a, b, c in EXPLICIT:
        pool.append(LawContext(*(Matrix.from_rows(m, domain) for m in (a, b, c))))
    for domain in DOMAINS:
        for size in (2, 3):
            for seed in range(3):
                for law, mode in WEIGHTS:
                    spec = InstanceSpec(domain=domain, size=size, weight_mode=mode, seed=seed)
                    try:
                        pool.append(LawContext(*gen_instance(spec, law)))
                    except NoMPInverse:
                        pass
    return pool


def _law_reports(law, pool):
    reports = [
        check_equivalence(law, ctx, samples=DRAWS, seed=k,
                          falsify_samples=DRAWS).to_json_dict()
        for k, ctx in enumerate(pool)
    ]
    runs = []
    for domain in DOMAINS:
        mode = "scalar" if law == LawId.C27 else "commutant"
        spec = InstanceSpec(domain=domain, size=2, weight_mode=mode, seed=5)
        suite = run_suite(law, spec, 4)
        searches = [
            search_counterexample(law, replace(spec, seed=6), 4, stmt=stmt)
            for stmt in (None, *STATEMENT_IDS[law])
        ]
        runs.append({"suite": suite.to_json_dict(), "searches": searches})
    return reports, runs


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def compute_hashes():
    pool = _pool()
    hashes, reached = {}, {}
    for law in LawId:
        reports, runs = _law_reports(law, pool)
        hashes[law.value] = _digest({"reports": reports, "runs": runs})
        reached[law] = {r["details"] for r in reports if r["verdict"] == HYPOTHESIS_NOT_MET}
    return hashes, reached


def test_golden_reports():
    hashes, reached = compute_hashes()
    assert reached == REACHED
    assert hashes == GOLDEN


def compute_fault_hash():
    pool = _pool()
    real = rolcheck.laws.is_k_inverse
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rolcheck.laws, "is_k_inverse", lambda a, x, k: not real(a, x, k))
        return _digest([_law_reports(law, pool) for law in LawId])


def test_golden_reports_under_planted_fault():
    assert compute_fault_hash() == GOLDEN_UNDER_FAULT


# Weights at n = 6, keyed by domain and seed.  Over Q(i), a commutant of
# a rank-4 b (a 72x36 system).  Over F_7, the four-way weight for
# m = u u* of rank 2 and a rank-1 ab (a 144x36 system); the weight bases
# have dimension 9 and 10, where a generic rank-4 m leaves only e.  A
# T39 weight over F_3 whose draw on T38's products breaks abc = ab.
GOLDEN_WEIGHTS = {
    "qi-0": "4837cf210e3df46077b2349b24d97396184c6dffc91047f99aea7e7278ae1f97",
    "qi-1": "9714031e0801792db8e786e9938bc9e4ae3194aed42812c17c4f1904bd73cb26",
    "f7-0": "f1ba7df709f25977151dedceb350bc228fe55d42d7bfc9647e9a47cd3c9aea0e",
    "f7-2": "4e9d1e3464609983888f4c1af01e27dabaf2d2949e39b7014ba2a3aa98aeb363",
    "t39-f3-7": "0ff4a915eb150c52d77295dddb0c606f3cda8d0f21d7f5b8d52a73be9025539f",
}


def compute_weight_hashes():
    hashes = {}
    for seed in (0, 1):
        b = random_matrix_of_rank(G, 6, 6, 4, random.Random(seed))
        hashes[f"qi-{seed}"] = _digest(matrix_to_json(sample_commutant(b, seed)))
    f7 = prime_field(7)
    for seed in (0, 2):
        rng = random.Random(seed)
        u = random_matrix_of_rank(f7, 6, 2, 2, rng)
        ab = random_matrix_of_rank(f7, 6, 6, 1, rng)
        c = sample_constrained(u @ u.star(), *LAWS[LawId.T38].weight_zero(ab), rng)
        hashes[f"f7-{seed}"] = _digest(matrix_to_json(c))
    spec = InstanceSpec(prime_field(3), 3, weight_mode="commutant", seed=7)
    hashes["t39-f3-7"] = _digest(matrix_to_json(gen_instance(spec, LawId.T39)[2]))
    return hashes


def test_golden_weights_n6():
    assert compute_weight_hashes() == GOLDEN_WEIGHTS


if __name__ == "__main__":
    for name, digest in compute_hashes()[0].items():
        print(f'    "{name}": "{digest}",')
    print(f'GOLDEN_UNDER_FAULT = "{compute_fault_hash()}"')
    for name, digest in compute_weight_hashes().items():
        print(f'    "{name}": "{digest}",')
