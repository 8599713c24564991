#!/usr/bin/env python3
"""Benchmark of rolcheck suite trials, run from the repository root.

    python3 perfbench/run.py                         # all workloads, one process each
    python3 perfbench/run.py --workload t23_weight_qi_n6 --seed 1 --seconds 10
    python3 perfbench/run.py --workload t23_weight_qi_n6 --trace 1   # per-layer run
    python3 perfbench/run.py --regen-hashes          # rewrite perfbench/hashes.json

Each trial is a one-trial `run_suite` call on its own master seed, timed
from outside.  After the timed loop every trial is checked by the
independent oracle in oracle.py.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics (end-to-end metrics
with --trace 0, per-layer metrics with --trace 1).  End-to-end times are
calibrated against a reference loop timed between trials; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
HASH_FILE = HERE / "hashes.json"
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import HASH_MASTERS, WORKLOADS, timed_master  # noqa: E402

TAIL_BEYOND = 10  # trials beyond the reported tail percentile
MIN_TRIALS = TAIL_BEYOND + 1

# End-to-end times are reported as if the reference loop took this long:
# raw time * REFERENCE_MS / (median reference time of the run).  The speed
# of the shared machine drifts by up to 1.7x within minutes; the reference,
# timed between trials, moves with it, so the ratio holds steady.
REFERENCE_MS = 3.0
REFERENCE_REPEATS = 3  # reference timings after each trial or set-up

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "harness.gen_instance.ms": "ms",
    "harness.gen_instance.self_ms": "ms",
    "harness.weight_useful": "ratio",
    "peirce.matrix_equation_basis.ms": "ms",
    "peirce.matrix_equation_basis.self_ms": "ms",
    "peirce.matrix_equation_basis.calls": "count",
    "peirce.system_entries": "count",
    "matrices.rref.ms": "ms",
    "matrices.rref.self_ms": "ms",
    "matrices.rref.calls": "count",
    "matrices.rref.entries": "count",
    "matrices.matmul.ms": "ms",
    "matrices.matmul.self_ms": "ms",
    "matrices.matmul.calls": "count",
    "matrices.matmul.mults": "count",
    "scalars.add": "count",
    "scalars.sub": "count",
    "scalars.mul": "count",
    "scalars.inv": "count",
    "scalars.alloc": "count",
    "geninv.mp_inverse.ms": "ms",
    "geninv.mp_inverse.self_ms": "ms",
    "geninv.mp_inverse.calls": "count",
    "geninv.mp_exists.ms": "ms",
    "geninv.mp_exists.self_ms": "ms",
    "geninv.mp_exists.calls": "count",
    "laws.LawContext.ms": "ms",
    "laws.LawContext.self_ms": "ms",
    "laws.check_hypotheses.ms": "ms",
    "laws.check_hypotheses.self_ms": "ms",
    "laws.check_equivalence.ms": "ms",
    "laws.check_equivalence.self_ms": "ms",
    "laws.inclusion_statement_sampled.ms": "ms",
    "laws.inclusion_statement_sampled.self_ms": "ms",
    "laws.sample_draws": "count",
    "trace.trial.ms": "ms",
    "trace.trial.self_ms": "ms",
    "trace.overhead": "ratio",
}


# --- the package ----------------------------------------------------------------


def import_package():
    """Import rolcheck afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "rolcheck" or m.startswith("rolcheck.")]:
        del sys.modules[name]
    return importlib.import_module("rolcheck")


def make_spec(pkg, w, seed):
    domain = pkg.GAUSSIAN_RATIONAL if w.prime is None else pkg.prime_field(w.prime)
    return pkg.InstanceSpec(domain=domain, size=w.size, rank_a=w.rank_a,
                            rank_b=w.rank_b, weight_mode=w.weight, seed=seed)


def run_trial(pkg, w, master) -> dict:
    return pkg.run_suite(pkg.LawId(w.law), make_spec(pkg, w, master), trials=1).to_json_dict()


def suite_hash(outputs) -> str:
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def reference_ms() -> float:
    """A fixed pure-Python loop of small-int and big-int arithmetic, about
    3 ms on the machine the benchmark was written on.  It never changes, so
    its time tells machine drift from program change."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc = (acc * 31 + i) % 1_000_003
    big = 3**300
    modulus = big - 12345
    for i in range(1_200):
        acc = (acc * big + i) % modulus
    return (time.perf_counter() - t0) * 1e3


def reference_timings() -> list[float]:
    return [reference_ms() for _ in range(REFERENCE_REPEATS)]


# --- oracle ---------------------------------------------------------------------


def observe(pkg, w, master, suite) -> oracle.TrialRecord:
    """Regenerate a trial's instance with the public API, in oracle form."""
    gen_seed, sample_seed = sys.modules["rolcheck.harness"]._trial_seeds(master, 0)
    law = pkg.LawId(w.law)
    a, b, c = pkg.gen_instance(make_spec(pkg, w, gen_seed), law)
    field = oracle.field_for(w)

    def conv(m):
        return oracle.parse_matrix(field, pkg.matrix_to_json(m))

    try:
        ctx = pkg.LawContext(a, b, c)
    except pkg.NoMPInverse:
        return oracle.TrialRecord(conv(a), conv(b), conv(c), None, None, None, suite)
    # The exact statements do not depend on the draws, so one will do.
    draws = 1 if w.sampled else 200
    report = pkg.check_equivalence(law, ctx, samples=draws, seed=sample_seed,
                                   falsify_samples=draws)
    statement = (None if report.verdict == pkg.HYPOTHESIS_NOT_MET
                 else report.statement_values[w.statement])
    return oracle.TrialRecord(conv(a), conv(b), conv(c), conv(ctx.a_dag), conv(ctx.b_dag),
                              statement, suite)


def trial_problems(pkg, w, master, out) -> list[str]:
    if isinstance(out, Exception):
        return [f"trial raised {type(out).__name__}: {out}"]
    try:
        return oracle.check_trial(w, observe(pkg, w, master, out))
    except Exception as exc:  # an oracle crash fails the trial, not the run
        return [f"oracle raised {type(exc).__name__}: {exc}"]


# --- one workload ---------------------------------------------------------------


def setup(w):
    """Import plus one untimed warm-up trial, once per hashed master seed.

    Returns the package, the median set-up time, the reference times taken
    around the set-ups and the warm-up outputs."""
    times, refs, outputs = [], reference_timings(), []
    for master in HASH_MASTERS:
        t0 = time.perf_counter()
        pkg = import_package()
        outputs.append(run_trial(pkg, w, master))
        times.append(time.perf_counter() - t0)
        refs += reference_timings()
    return pkg, statistics.median(times), refs, outputs


def _guarded(fn, *args):
    """fn(*args), or the exception it raised: a raising trial counts as failed."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def timed_run(pkg, w, seed, seconds):
    """One-trial suites on successive master seeds until `seconds` have
    passed and the tail percentile has its trials, with the reference loop
    timed after each."""
    times, refs, results = [], reference_timings(), []
    start = time.perf_counter()
    while True:
        master = timed_master(seed, len(times))
        t0 = time.perf_counter()
        out = _guarded(run_trial, pkg, w, master)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        results.append((master, out))
        refs += reference_timings()
        if t1 - start >= seconds and len(times) >= MIN_TRIALS:
            return times, refs, results


def end_to_end(pkg, w, seed, seconds):
    times, refs, results = timed_run(pkg, w, seed, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = {}
    for master, out in results:
        problems = trial_problems(pkg, w, master, out)
        if problems:
            failures[master] = problems
    n = len(times)
    ordered = sorted(times)
    raw = {
        "trials_per_s": n / sum(times),
        "trial_ms_p50": statistics.median(times) * 1e3,
        "trial_ms_tail": ordered[n - MIN_TRIALS] * 1e3,
    }
    scale = REFERENCE_MS / statistics.median(refs)
    metrics = {name: value / scale if name == "trials_per_s" else value * scale
               for name, value in raw.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    notes = [f"{n} trials in {sum(times):.2f} s; tail = the trial time with "
             f"{TAIL_BEYOND} of {n} trials beyond it (p{100 * (n - TAIL_BEYOND) / n:.0f})",
             f"reference loop median {statistics.median(refs):.3f} ms over {len(refs)} "
             f"timings; uncalibrated: "
             + ", ".join(f"{k} {v:.4f}" for k, v in raw.items())]
    return n, failures, metrics, END_TO_END_UNITS, notes


def traced(pkg, w, seed, seconds):
    """Rounds of `w.trace_round` trials.  Each trial runs three times:
    untraced, with spans, and with scalar operations counted.

    Every round repeats the same master seeds, so per-trial counts are the
    same however many rounds fit in `seconds`."""
    masters = [timed_master(seed, i) for i in range(w.trace_round)]
    tracer = tracing.Tracer()
    first = {}
    checked = {}
    failures = {}
    untraced_ns = 0
    useful = 0
    start = time.perf_counter()
    while True:
        for master in masters:
            outs = []
            t0 = time.perf_counter_ns()
            outs.append(_guarded(run_trial, pkg, w, master))
            untraced_ns += time.perf_counter_ns() - t0
            trial = tracer.trial = tracer.trial + 1
            tracer.install_spans()
            root = tracer.open(tracing.ROOT)
            try:
                outs.append(_guarded(run_trial, pkg, w, master))
            finally:
                tracer.close(root)
                tracer.uninstall()
            tracer.install_scalar_counts()
            try:
                outs.append(_guarded(run_trial, pkg, w, master))
            finally:
                tracer.uninstall()
            if master not in first:
                first[master] = outs[0]
                checked[master] = trial_problems(pkg, w, master, outs[0])
            problems = list(checked[master])
            if any(out != first[master] for out in outs):
                problems.append("output differs from the first run of its master seed")
            if problems:
                failures[trial] = problems
            if isinstance(outs[1], dict) and outs[1]["hypothesis_skips"] == 0:
                useful += 1
        if time.perf_counter() - start >= seconds:
            break
    n = tracer.trial + 1
    inclusive, self_ns, calls, trial_root, unbalanced = tracing.span_stats(tracer.spans)
    for trial in unbalanced:
        failures.setdefault(trial, []).append(
            "span self times do not add up to the traced trial time")
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        base, _, kind = name.rpartition(".")
        if kind == "ms":
            metrics[name] = inclusive[base] / 1e6 / n
        elif kind == "self_ms":
            metrics[name] = self_ns[base] / 1e6 / n
        elif kind == "calls":
            metrics[name] = calls[base] / n
        else:
            metrics[name] = tracer.counts[name] / n
    metrics["harness.weight_useful"] = useful / calls["harness.gen_instance"]
    metrics["trace.trial.ms"] = sum(trial_root.values()) / 1e6 / n
    metrics["trace.trial.self_ms"] = self_ns[tracing.ROOT] / 1e6 / n
    metrics["trace.overhead"] = sum(trial_root.values()) / untraced_ns
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{w.name}-seed{seed}.jsonl"
    tracing.write_spans(path, tracer.spans)
    notes = [f"{n} traced trials ({n // len(masters)} rounds of {len(masters)}); "
             f"spans written to {path.relative_to(HERE.parent)}"]
    return n, failures, metrics, PER_LAYER_UNITS, notes


def run_workload(args) -> int:
    w = WORKLOADS[args.workload]
    pkg, setup_s, setup_refs, warmups = setup(w)
    expected = json.loads(HASH_FILE.read_text()).get(w.name)
    hash_ok = suite_hash(warmups) == expected
    gc.collect()
    measure = traced if args.trace else end_to_end
    n, failures, metrics, units, notes = measure(pkg, w, args.seed, args.seconds)
    if not args.trace:
        metrics["setup_s"] = setup_s * REFERENCE_MS / statistics.median(setup_refs)
        notes.append(f"uncalibrated setup_s {setup_s:.4f}")

    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    print(f"  attempted {n}  failed {len(failures)}  "
          f"warm-up hash {'ok' if hash_ok else 'MISMATCH'}")
    for key, problems in failures.items():
        print(f"  FAILED {key}: {'; '.join(problems)}")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:14.4f} {units[name]}")
    result = {
        "correct": hash_ok and not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def regen_hashes() -> int:
    """Recompute the warm-up suite hashes, after the oracle passes them."""
    hashes = {}
    for name, w in WORKLOADS.items():
        pkg = import_package()
        outputs = [run_trial(pkg, w, master) for master in HASH_MASTERS]
        for master, out in zip(HASH_MASTERS, outputs):
            problems = trial_problems(pkg, w, master, out)
            if problems:
                print(f"{name} master {master}: {'; '.join(problems)}", file=sys.stderr)
                return 1
        hashes[name] = suite_hash(outputs)
        print(f"{name} {hashes[name]}")
    HASH_FILE.write_text(json.dumps(hashes, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-hashes", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "rolcheck" / "__init__.py").is_file():
        print(f"rolcheck sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.regen_hashes:
        return regen_hashes()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
