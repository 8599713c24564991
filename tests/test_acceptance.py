"""Acceptance suite.

One test per criterion; every check is exact (zero tolerance) and fully
seeded, so the whole module is reproducible run to run.  Run with

    pytest tests/test_acceptance.py -v -s

to get one pass line per criterion.
"""

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from rolcheck import (
    EQUIVALENT,
    GAUSSIAN_RATIONAL,
    InstanceSpec,
    LawContext,
    LawId,
    Matrix,
    NoMPInverse,
    check_equivalence,
    commutes_with_pair,
    gen_instance,
    is_k_inverse,
    law_statement,
    mp_exists,
    mp_inverse,
    prime_field,
    rank,
    run_suite,
    sample_commutant,
)
from rolcheck.harness import _trial_seeds, random_matrix_of_rank
from rolcheck.laws import LAWS
from rolcheck.matrices import random_matrix
from k_inverse_reference import sample_13_inverse
from mp_reference import mp_via_star_group, prop21_check
from variant_reference import variant_context

G = GAUSSIAN_RATIONAL
REPO = Path(__file__).resolve().parents[1]

MASTER_SEED = 20260808


def _pass(num, message):
    print(f"\nACCEPTANCE {num:02d}: PASS - {message}")


def _mixed_instances(count, seed, square=False, max_size=4):
    """Deterministic stream of Q(i) matrices, sizes 1..4, mixed ranks."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rows = rng.randint(1, max_size)
        cols = rows if square else rng.randint(1, max_size)
        k = rng.randint(0, min(rows, cols))
        out.append(random_matrix_of_rank(G, rows, cols, k, rng))
    return out


def _suite_sizes(total, sizes):
    """Split a trial budget across instance sizes."""
    per = total // len(sizes)
    counts = [per] * len(sizes)
    counts[-1] += total - per * len(sizes)
    return list(zip(sizes, counts))


def test_criterion_01_penrose_oracle():
    start = time.perf_counter()
    instances = _mixed_instances(500, MASTER_SEED)
    for a in instances:
        a_dag = mp_inverse(a)
        assert is_k_inverse(a, a_dag, {1, 2, 3, 4})
        assert mp_via_star_group(a) == a_dag
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 too slow: {elapsed:.1f}s"
    _pass(1, f"500 instances, four Penrose equations exact, group-route identical ({elapsed:.1f}s)")


def test_criterion_02_prop21_equivalence():
    instances = _mixed_instances(500, MASTER_SEED)
    deficient = []
    for a in instances:
        a_dag = mp_inverse(a)
        assert prop21_check(a, a_dag)
        if rank(a) < a.cols:
            deficient.append((a, a_dag))
    assert deficient, "mixed-rank stream must contain rank-deficient instances"
    rng = random.Random(MASTER_SEED + 1)
    built = 0
    for j in range(500):
        a, a_dag = deficient[j % len(deficient)]
        comp = Matrix.identity(a.cols, G) - a_dag @ a
        candidate = None
        for _ in range(50):
            x = random_matrix(G, a.cols, a.rows, rng)
            residue = comp @ x
            if not residue.is_zero():
                candidate = a_dag + residue
                break
        assert candidate is not None and candidate != a_dag
        assert is_k_inverse(a, candidate, {1, 3})
        assert not prop21_check(a, candidate)
        built += 1
    assert built == 500
    _pass(2, "b = a+ iff prop21 holds; 500 adversarial {1,3}-residue candidates all rejected")


def test_criterion_03_commutant_transfer():
    instances = _mixed_instances(300, MASTER_SEED + 2, square=True)
    for i, a in enumerate(instances):
        a_dag = mp_inverse(a)
        c = sample_commutant(a, MASTER_SEED + i)
        assert commutes_with_pair(c, a)
        assert commutes_with_pair(c, a_dag)
        c2 = sample_commutant(a_dag, MASTER_SEED + 7 * i + 1)
        assert commutes_with_pair(c2, a_dag)
        assert commutes_with_pair(c2, a)
    _pass(3, "commutant of {a, a*} commutes with a+ and (a+)*, and conversely, 300 instances")


def test_criterion_04_t23_suite():
    start = time.perf_counter()
    total_eq = 0
    for size, trials in _suite_sizes(1000, (1, 2, 3, 4)):
        spec = InstanceSpec(domain=G, size=size, weight_mode="commutant",
                            seed=MASTER_SEED + size)
        res = run_suite(LawId.T23, spec, trials)
        assert res.violations == [], res.violations[:1]
        assert res.hypothesis_skips == 0
        total_eq += res.equivalent
    elapsed = time.perf_counter() - start
    assert total_eq == 1000
    assert elapsed < 60.0, f"criterion 4 too slow: {elapsed:.1f}s"
    _pass(4, f"T23: 1000 instances, statements agree pairwise in every trial ({elapsed:.1f}s)")


@pytest.mark.parametrize("law", [LawId.T24, LawId.T25, LawId.T26, LawId.C27])
def test_criterion_05_section2_variants(law):
    weight = "scalar" if law == LawId.C27 else "commutant"
    checked = 0
    for size, trials in _suite_sizes(500, (1, 2, 3, 4)):
        spec = InstanceSpec(domain=G, size=size, weight_mode=weight,
                            seed=MASTER_SEED + 10 * size)
        for trial in range(trials):
            gen_seed, sample_seed = _trial_seeds(spec.seed, trial)
            a, b, c = gen_instance(replace(spec, seed=gen_seed), law)
            ctx = LawContext(a, b, c)
            report = check_equivalence(law, ctx, seed=sample_seed)
            assert report.verdict == EQUIVALENT, (law, trial, report.statement_values)
            if law != LawId.C27:
                vctx = variant_context(ctx, law)
                for stmt in LAWS[law].statements:
                    assert law_statement(law, stmt, ctx) == law_statement(
                        LawId.T23, stmt, vctx
                    ), (law, stmt, trial)
            checked += 1
    assert checked == 500
    extra = "" if law == LawId.C27 else ", reduction to T23 exact per statement"
    _pass(5, f"{law}: 500 instances equivalent{extra}")


def test_criterion_06_c27_concrete_witness():
    a = Matrix.from_rows([["1", "0"], ["0", "0"]], G)
    b = Matrix.from_rows([["1", "1"], ["1", "1"]], G)
    e = Matrix.identity(2, G)

    plain = LawContext(a, b, e)
    values_plain = {s: law_statement(LawId.C27, s, plain) for s in ("i", "ii", "iii")}
    assert values_plain == {"i": False, "ii": False, "iii": False}
    assert law_statement(LawId.GREVILLE, "i", plain) is False

    lam2 = LawContext(a, b, e.scale(2))
    values_lam2 = {s: law_statement(LawId.C27, s, lam2) for s in ("i", "ii", "iii")}
    assert values_lam2 == {"i": True, "ii": True, "iii": True}

    assert check_equivalence(LawId.C27, plain).verdict == EQUIVALENT
    assert check_equivalence(LawId.C27, lam2).verdict == EQUIVALENT
    _pass(6, "witness a=[[1,0],[0,0]], b=[[1,1],[1,1]]: unweighted law false, lambda=2 law true, statements match")


def _run_inclusion_criterion(num, laws, forced_rank, seed_base, label):
    """Shared mechanics for the set-inclusion criteria.

    300 instances per law: half with random commutant weights and free
    ranks, half with identity weight and the forced full-rank side so the
    confirmation path (statement true, decided exactly) is well exercised.
    Every trial must be equivalent, and every statement-false trial must
    carry a witness product outside the target's K-inverse set."""
    for law in laws:
        _, inclusion = LAWS[law].inclusion
        confirmed = 0
        falsified = 0
        trivial = 0
        trial_plans = []
        for size, trials in _suite_sizes(150, (2, 3, 4)):
            spec = InstanceSpec(domain=G, size=size, weight_mode="commutant",
                                seed=seed_base + size)
            trial_plans.extend((spec, t) for t in range(trials))
        for size, trials in _suite_sizes(150, (2, 3)):
            spec = InstanceSpec(domain=G, size=size, weight_mode="identity",
                                seed=seed_base + 100 + size, **forced_rank(size))
            trial_plans.extend((spec, t) for t in range(trials))
        assert len(trial_plans) == 300
        for spec, trial in trial_plans:
            gen_seed, sample_seed = _trial_seeds(spec.seed, trial)
            a, b, c = gen_instance(replace(spec, seed=gen_seed), law)
            ctx = LawContext(a, b, c)
            report = check_equivalence(
                law, ctx, samples=200, seed=sample_seed, falsify_samples=500
            )
            assert report.verdict == EQUIVALENT, (
                law, trial, report.statement_values, report.details,
            )
            if report.notes is not None:
                trivial += 1
            elif all(v for v in report.statement_values.values()):
                confirmed += 1
            else:
                falsified += 1
                product = report.witness[2]
                assert not is_k_inverse(inclusion.target(ctx), product, inclusion.ks)
        assert confirmed > 0, f"{law}: no statement-true instances sampled"
        _pass(num, f"{label} {law}: 300 instances (true-path {confirmed + trivial}, "
                   f"witnessed {falsified})")


def test_criterion_07_t32_t34_inclusions():
    _run_inclusion_criterion(
        7,
        [LawId.T32, LawId.C33],
        lambda n: {"rank_b": n},
        MASTER_SEED + 700,
        "{1,3} inclusion",
    )
    _run_inclusion_criterion(
        7,
        [LawId.T34, LawId.C35],
        lambda n: {"rank_a": n},
        MASTER_SEED + 740,
        "{1,4} inclusion",
    )


def test_criterion_08_t36_t37_weighted_targets():
    _run_inclusion_criterion(
        8,
        [LawId.T36],
        lambda n: {"rank_b": n},
        MASTER_SEED + 800,
        "weighted target",
    )
    _run_inclusion_criterion(
        8,
        [LawId.T37],
        lambda n: {"rank_a": n},
        MASTER_SEED + 840,
        "weighted target",
    )


def test_criterion_09_four_way_equivalences():
    _run_inclusion_criterion(
        9,
        [LawId.T38],
        lambda n: {"rank_b": n},
        MASTER_SEED + 900,
        "four-way",
    )
    _run_inclusion_criterion(
        9,
        [LawId.T39],
        lambda n: {"rank_a": n},
        MASTER_SEED + 940,
        "four-way",
    )


def test_criterion_10_prime_field_edge():
    F5 = prime_field(5)
    a = Matrix.from_rows([["1", "0"], ["2", "0"]], F5)
    assert not mp_exists(a)
    with pytest.raises(NoMPInverse):
        mp_inverse(a)

    total_skips = 0
    total_violations = 0
    done = 0
    for size, trials in _suite_sizes(200, (1, 2, 3)):
        spec = InstanceSpec(domain=F5, size=size, weight_mode="commutant",
                            seed=MASTER_SEED + 50 + size)
        res = run_suite(LawId.T23, spec, trials)
        total_skips += res.hypothesis_skips
        total_violations += len(res.violations)
        done += res.trials
    assert done == 200
    assert total_skips > 0
    assert total_violations == 0
    _pass(10, f"F_5: padded (1,2) column has no MP inverse; T23 suite: 200 trials, "
              f"{total_skips} hypothesis skips, zero violations")


def test_criterion_11_parametrization_completeness():
    from rolcheck.matrices import nullspace_basis

    rng = random.Random(MASTER_SEED + 11)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = random_matrix_of_rank(G, rows, cols, rng.randint(0, min(rows, cols)), rng)
        a_dag = mp_inverse(a)
        target = a @ a_dag
        # forward: sampled members of a{1,3} satisfy a x = a a+
        x = sample_13_inverse(a, random_matrix(G, cols, rows, rng))
        assert is_k_inverse(a, x, {1, 3})
        assert a @ x == target
        # backward: any solution of a y = a a+ is a {1,3}-inverse and is
        # reconstructed exactly from its parametrization residue
        y = a_dag
        for v in nullspace_basis(a):
            y = y + v @ random_matrix(G, 1, rows, rng)
        assert a @ y == target
        assert is_k_inverse(a, y, {1, 3})
        assert sample_13_inverse(a, y - a_dag) == y
        # and a perturbed candidate violating a z = a a+ is never a {1,3}-inverse
        z = random_matrix(G, cols, rows, rng)
        if a @ z != target:
            assert not is_k_inverse(a, z, {1, 3})
    _pass(11, "x in a{1,3} iff a x = a a+, both directions, 200 instances")


def test_criterion_12_byte_identical_reports(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    args = [sys.executable, "-m", "rolcheck", "suite", "--law", "T23",
            "--trials", "1000", "--size", "3", "--seed", "42"]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    r1 = subprocess.run(args + ["--json", str(out1)], capture_output=True,
                        text=True, env=env)
    r2 = subprocess.run(args + ["--json", str(out2)], capture_output=True,
                        text=True, env=env)
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0, r2.stderr
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    report = json.loads(b1)
    assert report["trials"] == 1000 and report["violations"] == []
    _pass(12, "suite --law T23 --trials 1000 --seed 42 twice: byte-identical JSON")
