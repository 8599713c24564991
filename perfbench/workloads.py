"""The benchmark's workloads: each fixes a law, domain, size, exact ranks
and weight mode, so that every trial of a workload does the same kind of
work.  Kept free of rolcheck imports so the oracle and its test can name
a workload without loading the package."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    law: str  # a rolcheck LawId value
    prime: int | None  # None: Q(i); otherwise F_p
    size: int
    rank_a: int
    rank_b: int
    weight: str  # identity | commutant
    statement: str  # the exact statement the oracle recomputes
    sampled: bool  # the law has a quantified (sampled) statement
    trace_round: int  # distinct trials per traced round
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "t23_weight_qi_n6", "T23", None, 6, 4, 4, "commutant", "i", False, 2,
            "T23 over Q(i), n=6, commutant weight: the 72x36 Kronecker weight "
            "solve, where coefficients swell, is most of every trial",
        ),
        Workload(
            "t32_sample_qi_n4", "T32", None, 4, 3, 4, "identity", "ii", True, 3,
            "T32 over Q(i), n=4, identity weight: 200 sampled {1,3}-inverse "
            "draws per trial and no weight solve",
        ),
        Workload(
            "t38_weight_f7_n6", "T38", 7, 6, 4, 4, "commutant", "i", True, 10,
            "T38 over F_7, n=6: the prime-field scalar path; most trials are "
            "skipped after their 144x36 weight solve",
        ),
        Workload(
            "greville_mp_qi_n8", "GREVILLE", None, 8, 6, 6, "identity", "ii", False, 20,
            "GREVILLE over Q(i), n=8: many small Moore-Penrose inverses "
            "through rref on 8x8 and 8x16 systems",
        ),
    )
}

# Master seeds of the untimed warm-up trials whose suite output is hashed.
# Timed trials use master seeds from 100_000 up, so the two never meet.
HASH_MASTERS = (0, 1, 2)


def timed_master(seed: int, trial: int) -> int:
    """Master seed of the trial-th one-trial suite of a run."""
    return (seed + 1) * 100_000 + trial
