"""Per-layer tracing of rolcheck, installed from outside the package.

`Tracer.install_spans` replaces the traced functions and methods with
wrappers, in every rolcheck module that holds a reference to them;
`Tracer.install_scalar_counts` wraps the scalar classes' operations; and
`Tracer.uninstall` puts the originals back, so untraced, traced and
counted trials can alternate in one process.  Spans (name, start, end, parent, trial)
and counts are kept in memory; `write_spans` writes them out at the end.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter_ns

ROOT = "trial"

# (span name, module, attribute) for module-level functions.
SPANNED_FUNCTIONS = (
    ("harness.gen_instance", "rolcheck.harness", "gen_instance"),
    ("peirce.matrix_equation_basis", "rolcheck.peirce", "matrix_equation_basis"),
    ("matrices.rref", "rolcheck.matrices", "rref"),
    ("geninv.mp_inverse", "rolcheck.geninv", "mp_inverse"),
    ("geninv.mp_exists", "rolcheck.geninv", "mp_exists"),
    ("laws.check_hypotheses", "rolcheck.laws", "check_hypotheses"),
    ("laws.check_equivalence", "rolcheck.laws", "check_equivalence"),
    ("laws.inclusion_statement_sampled", "rolcheck.laws", "inclusion_statement_sampled"),
)

# (span name, module, class, method) for methods.
SPANNED_METHODS = (
    ("matrices.matmul", "rolcheck.matrices", "Matrix", "__matmul__"),
    ("laws.LawContext", "rolcheck.laws", "LawContext", "__init__"),
)

SCALAR_CLASSES = ("GaussianRational", "PrimeFieldElement")
SCALAR_OPS = {
    "__add__": "scalars.add", "__radd__": "scalars.add",
    "__sub__": "scalars.sub", "__rsub__": "scalars.sub",
    "__mul__": "scalars.mul", "__rmul__": "scalars.mul",
    "__truediv__": "scalars.inv", "__rtruediv__": "scalars.inv", "inv": "scalars.inv",
}


def _system_entries(args, kwargs):
    n = args[0]
    blocks = sum(len(kwargs.get(k, ())) for k in ("commute_with", "left_zero", "right_zero"))
    return blocks * n * n * n * n


# Work counts taken from a traced call: span name -> (counter, f(args, kwargs, result)).
WORK_COUNTS = {
    "peirce.matrix_equation_basis": ("peirce.system_entries",
                                     lambda args, kwargs, out: _system_entries(args, kwargs)),
    "matrices.rref": ("matrices.rref.entries",
                      lambda args, kwargs, out: args[0].rows * args[0].cols),
    "matrices.matmul": ("matrices.matmul.mults",
                        lambda args, kwargs, out: args[0].rows * args[0].cols * args[1].cols),
    "laws.inclusion_statement_sampled": ("laws.sample_draws",
                                         lambda args, kwargs, out: out.tested),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, trial]
        self.stack = []
        self.trial = -1
        self.counts = Counter()
        self._in_scalar = False
        self._patches = []  # (owner, attribute, original)

    # --- spans ----------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.trial])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = perf_counter_ns()
        self.stack.pop()

    def _span_wrapper(self, name, fn):
        work = WORK_COUNTS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if work is not None:
                self.counts[work[0]] += work[1](args, kwargs, out)
            return out

        return traced

    # --- scalar counts ----------------------------------------------------------

    def _scalar_op_wrapper(self, key, fn):
        # Count calls into the scalar classes from outside only: an
        # operation that calls another (x - y is x + (-y) on Q(i)) counts once.
        def counted(*args):
            if self._in_scalar:
                return fn(*args)
            self.counts[key] += 1
            self._in_scalar = True
            try:
                return fn(*args)
            finally:
                self._in_scalar = False

        return counted

    def _alloc_wrapper(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["scalars.alloc"] += 1
            return fn(*args, **kwargs)

        return counted

    # --- installation ---------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install_spans(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "rolcheck" or name.startswith("rolcheck.")]
        for name, mod, attr in SPANNED_FUNCTIONS:
            original = getattr(sys.modules[mod], attr)
            wrapper = self._span_wrapper(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        for name, mod, cls_name, attr in SPANNED_METHODS:
            cls = getattr(sys.modules[mod], cls_name)
            self._patch(cls, attr, self._span_wrapper(name, cls.__dict__[attr]))

    def install_scalar_counts(self):
        # Kept apart from the spans: counting every scalar operation costs
        # more than the spans do and would distort their times.
        scalars = sys.modules["rolcheck.scalars"]
        for cls_name in SCALAR_CLASSES:
            cls = getattr(scalars, cls_name)
            for attr, key in SCALAR_OPS.items():
                self._patch(cls, attr, self._scalar_op_wrapper(key, cls.__dict__[attr]))
            self._patch(cls, "__init__", self._alloc_wrapper(cls.__dict__["__init__"]))
        raw = scalars.GaussianRational.__dict__["_raw"].__func__
        self._patch(scalars.GaussianRational, "_raw", classmethod(self._alloc_wrapper(raw)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def span_stats(spans):
    """Per-name inclusive and self nanoseconds and call counts, each
    trial's root duration, and the trials whose self times do not add up.

    A span's self time is its duration minus that of its direct children;
    within a trial the self times must sum to the root span's duration,
    and none may be negative.  Inclusive time counts only spans with no
    same-named ancestor."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, trial in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    inclusive = Counter()
    self_ns = Counter()
    calls = Counter()
    trial_self = Counter()
    trial_root = {}
    unbalanced = set()
    for idx, (name, start, end, parent, trial) in enumerate(spans):
        own = end - start - child_ns[idx]
        if own < 0:
            unbalanced.add(trial)
        self_ns[name] += own
        calls[name] += 1
        trial_self[trial] += own
        if parent < 0:
            trial_root[trial] = end - start
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            inclusive[name] += end - start
    unbalanced |= {t for t, ns in trial_root.items() if trial_self[t] != ns}
    return inclusive, self_ns, calls, trial_root, unbalanced


def write_spans(path, spans):
    with open(path, "w") as out:
        for name, start, end, parent, trial in spans:
            out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                  "parent": parent, "trial": trial}) + "\n")
