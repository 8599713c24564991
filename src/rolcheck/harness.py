"""Instance generation, randomized suites, and counterexample search.

Everything here is deterministic under a master seed: per-trial seeds
are derived arithmetically from (seed, trial index), so suites can be
replayed and reports compared byte for byte.  Entry magnitudes stay
small (numerators in [-5, 5], denominators in {1, 2, 3}) to keep exact
arithmetic growth polynomial at the supported sizes (n <= 8).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import random

from .errors import HypothesisNotMet, InvalidSpec, NoMPInverse
from .laws import (
    EQUIVALENT,
    LAWS,
    VIOLATION,
    EquivalenceReport,
    LawContext,
    LawId,
    check_equivalence,
    law_statement,
)
from .matrices import Matrix, RankFactorization, matrix_to_json, random_matrix, rank
from .peirce import sample_commutant, sample_constrained
from .scalars import ScalarDomain, row_reduce_mod

MAX_SIZE = 8
_SEED_STRIDE = 1_000_003


def _require_int(name, value):
    # bool is an int subclass; a float or a str would fail only later,
    # with a TypeError from a draw or a range().
    if type(value) is not int:
        raise InvalidSpec(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters for one generated (a, b, c) triple."""

    domain: ScalarDomain
    size: int
    rank_a: int | None = None
    rank_b: int | None = None
    weight_mode: str = "identity"  # identity | scalar | commutant
    weight_scalar: object = None  # fixed scalar for "scalar" mode; None = random
    seed: int = 0

    def __post_init__(self):
        _require_int("size", self.size)
        _require_int("seed", self.seed)
        if not 1 <= self.size <= MAX_SIZE:
            raise InvalidSpec(f"size must be in 1..{MAX_SIZE}, got {self.size}")
        for name in ("rank_a", "rank_b"):
            val = getattr(self, name)
            if val is not None:
                _require_int(name, val)
                if not 0 <= val <= self.size:
                    raise InvalidSpec(f"{name} must be in 0..{self.size}, got {val}")
        if self.weight_mode not in ("identity", "scalar", "commutant"):
            raise InvalidSpec(f"unknown weight_mode {self.weight_mode!r}")
        if self.weight_scalar is not None and self.weight_mode != "scalar":
            raise InvalidSpec(f"weight_scalar needs weight_mode scalar, got {self.weight_mode!r}")


def random_matrix_of_rank(domain, rows, cols, target_rank, rng) -> Matrix:
    """Product of full-rank factors, resampled until the rank is exact.

    u has target_rank columns, so rank(u v) is at most target_rank.  The
    rank of its residues mod a prime (`ScalarDomain.residues`) is at most
    its rank, so when the residue rank reaches target_rank, that is the
    rank.  The exact rank runs only when the residue rank falls short, and
    not where the residues are the values (`residues_are_values`, F_p):
    there the residue rank is the rank, and a short one is a short rank.
    At rank 0, u and v are empty and draw nothing.

    The returned a records (u, v) as its full-rank factorization, which
    geninv's MacDuffee formula then takes in place of the RREF one: once
    rank(u v) = target_rank is proved, u has full column rank and v full
    row rank, and their small entries make a small core."""
    for _ in range(1000):
        u = random_matrix(domain, rows, target_rank, rng)
        v = random_matrix(domain, target_rank, cols, rng)
        a = u @ v
        (image,), q = domain.residues([a.form])
        images = [image[i * cols : (i + 1) * cols] for i in range(rows)]
        if len(row_reduce_mod(images, q)[1]) == target_rank or (
                not domain.residues_are_values and rank(a) == target_rank):
            a._factors = RankFactorization(u, v, target_rank)
            return a
    raise InvalidSpec(f"cannot hit rank {target_rank} for {rows}x{cols} over {domain.name}")


def _nonzero_scalar(domain, rng):
    for _ in range(64):
        s = domain.sample(rng)
        if not s.is_zero():
            return s
    return domain.one()


def _draw_pair(spec: InstanceSpec):
    """(a, b, generator): the spec's pair, drawn first from a generator
    seeded with spec.seed, and the generator the weight is drawn from."""
    rng = random.Random(spec.seed)
    n = spec.size
    rank_a = spec.rank_a if spec.rank_a is not None else rng.randint(0, n)
    rank_b = spec.rank_b if spec.rank_b is not None else rng.randint(0, n)
    a = random_matrix_of_rank(spec.domain, n, n, rank_a, rng)
    b = random_matrix_of_rank(spec.domain, n, n, rank_b, rng)
    return a, b, rng


def _fixed_weight_scalar(spec: InstanceSpec, law: LawId):
    """The checks gen_instance makes on (spec, law), which no draw can
    change.  Returns the spec's weight scalar in its domain, or None when
    it is drawn per instance or the weight is not a scalar."""
    if LAWS[law].side == "scalar" and spec.weight_mode == "commutant":
        raise InvalidSpec(f"{law} takes a scalar weight; use weight_mode scalar or identity")
    if spec.weight_mode == "scalar" and spec.weight_scalar is not None:
        return spec.domain.coerce(spec.weight_scalar)
    return None


def gen_instance(spec: InstanceSpec, law: LawId, pair=None):
    """Deterministic (a, b, c) triple for the spec and target law, which
    fixes the side c must commute with and, for a four-way law, the
    products of LawSpec.weight_zero that c - e must annihilate.

    The pair comes first and the weight last from one generator.  `pair`
    is the (a, b, generator) triple of _draw_pair(spec), for a caller
    that looks at a and b before it asks for the weight; the triple is
    the same either way."""
    lam = _fixed_weight_scalar(spec, law)
    a, b, rng = pair if pair is not None else _draw_pair(spec)
    n = spec.size
    mode = spec.weight_mode
    side = LAWS[law].side
    if mode == "identity":
        c = Matrix.identity(n, spec.domain)
    elif mode == "scalar":
        lam = lam if lam is not None else _nonzero_scalar(spec.domain, rng)
        c = Matrix.identity(n, spec.domain).scale(lam)
    elif LAWS[law].weight_zero is not None:
        c = sample_constrained(a if side == "a" else b, *LAWS[law].weight_zero(a @ b), rng)
    elif side in ("a", "b"):
        c = sample_commutant(a if side == "a" else b, rng.getrandbits(32))
    else:
        c = Matrix.identity(n, spec.domain)
    return a, b, c


@dataclass
class SuiteResult:
    """Aggregated outcome of check_equivalence over generated instances.

    equivalent + len(violations) + hypothesis_skips == trials.
    """

    law: LawId
    trials: int
    equivalent: int
    violations: list
    hypothesis_skips: int
    seed: int
    domain_tag: object
    size: int
    elapsed: float

    def to_json_dict(self) -> dict:
        # elapsed is intentionally omitted: reports must be byte-identical
        # across runs with the same seed.
        return {
            "law": self.law.value,
            "trials": self.trials,
            "equivalent": self.equivalent,
            "violations": self.violations,
            # Every set inclusion is decided exactly, so no trial is left
            # undecided; the key stays so that reports keep their shape.
            "inconclusive": 0,
            "hypothesis_skips": self.hypothesis_skips,
            "seed": self.seed,
            "domain": self.domain_tag,
            "size": self.size,
        }


def _trial_seeds(master: int, trial: int):
    base = master * _SEED_STRIDE + 2 * trial
    return base, base + 1


def _trials(law: LawId, spec: InstanceSpec, count: int):
    """Yield (trial, sample seed, context) for `count` generated instances.

    The checks gen_instance makes on (spec, law) run once, before the
    first trial.  Each trial draws its pair, then its weight last, and
    only when it can still reach a verdict: the context is None, and no
    weight is drawn, when a or b has no Moore-Penrose inverse (possible
    over prime fields only) or when the law's pair_hypotheses fail.
    Such a trial is a skip whatever its weight.  A kept context records
    the law whose pair_hypotheses held (`pair_hypotheses_hold`), so that
    check_hypotheses does not check them again.  The weight is the last
    draw of a trial, and its seed is the trial's own, so suites and
    searches come out as if every weight were drawn."""
    _fixed_weight_scalar(spec, law)
    pair_hypotheses = LAWS[law].pair_hypotheses
    for trial in range(count):
        gen_seed, sample_seed = _trial_seeds(spec.seed, trial)
        trial_spec = replace(spec, seed=gen_seed)
        pair = _draw_pair(trial_spec)
        try:
            ctx = LawContext(*pair[:2])
        except NoMPInverse:
            ctx = None
        if ctx is not None and all(holds(ctx) for _, holds in pair_hypotheses):
            ctx.pair_hypotheses_hold = law
            ctx.set_weight(gen_instance(trial_spec, law, pair)[2])
        else:
            ctx = None
        yield trial, sample_seed, ctx


def _serialize_instance(trial, ctx: LawContext, **fields) -> dict:
    """Replayable witness: the trial's a, b and c, then the fields that
    are not None."""
    out = {
        "trial": trial,
        "a": matrix_to_json(ctx.a),
        "b": matrix_to_json(ctx.b),
        "c": matrix_to_json(ctx.c),
    }
    out.update((name, value) for name, value in fields.items() if value is not None)
    return out


def _violation(trial, ctx: LawContext, report: EquivalenceReport) -> dict:
    return _serialize_instance(trial, ctx, statement_values=dict(report.statement_values),
                               details=report.details)


def run_suite(law: LawId, spec: InstanceSpec, trials: int) -> SuiteResult:
    """Run check_equivalence, at its default witness-draw budgets, on
    `trials` generated instances.

    Instances whose context cannot be built (no Moore-Penrose inverse
    over a prime field) or which fail a law hypothesis are counted as
    hypothesis skips, never silently dropped."""
    _require_int("trials", trials)
    if trials < 1:
        raise InvalidSpec("trials must be >= 1")
    start = time.perf_counter()
    equivalent = 0
    skips = 0
    violations = []
    for trial, sample_seed, ctx in _trials(law, spec, trials):
        if ctx is None:
            skips += 1
            continue
        report = check_equivalence(law, ctx, seed=sample_seed)
        if report.verdict == EQUIVALENT:
            equivalent += 1
        elif report.verdict == VIOLATION:
            violations.append(_violation(trial, ctx, report))
        else:
            skips += 1
    return SuiteResult(
        law=law,
        trials=trials,
        equivalent=equivalent,
        violations=violations,
        hypothesis_skips=skips,
        seed=spec.seed,
        domain_tag=spec.domain.json_tag(),
        size=spec.size,
        elapsed=time.perf_counter() - start,
    )


def search_counterexample(law: LawId, spec: InstanceSpec, budget: int, stmt: str | None = None):
    """Search generated instances for a counterexample.

    With `stmt` given, looks for an instance where that single statement
    is false (hypothesis-satisfying instances only); every statement,
    set inclusions included, is decided exactly.  Without it, looks for
    an equivalence violation with check_equivalence at its default
    witness-draw budgets, which for the theorems should never be found.
    Returns a serialized witness dict or None."""
    _require_int("budget", budget)
    if budget < 1:
        raise InvalidSpec("budget must be >= 1")
    if stmt is not None and stmt not in LAWS[law].statements:
        raise InvalidSpec(f"law {law} has no statement {stmt!r}")
    for trial, sample_seed, ctx in _trials(law, spec, budget):
        if ctx is None:
            continue
        if stmt is None:
            report = check_equivalence(law, ctx, seed=sample_seed)
            if report.verdict == VIOLATION:
                return _violation(trial, ctx, report)
            continue
        try:
            value = law_statement(law, stmt, ctx)
        except HypothesisNotMet:
            continue
        if not value:
            return _serialize_instance(trial, ctx, statement=stmt, value=False)
    return None
