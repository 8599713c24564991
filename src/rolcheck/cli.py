"""Command-line interface.

Subcommands: mp, groupinv, kcheck, law check, law search, suite.
Every statement, set inclusions included, is decided exactly;
--samples and --falsify-samples only budget the random search for a
witness against a set inclusion.
Exit codes: 0 verified / nothing found, 1 counterexample or negative
result, 3 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .errors import (
    HypothesisNotMet,
    InvalidSpec,
    NoMPInverse,
    NotGroupInvertible,
    RolcheckError,
)
from .geninv import group_inverse, mp_inverse, penrose_equations
from .harness import InstanceSpec, run_suite, search_counterexample
from .laws import (
    VIOLATION,
    LawContext,
    LawId,
    check_draw_counts,
    check_equivalence,
    check_statement_id,
    law_statement,
)
from .matrices import Matrix, matrix_from_json, matrix_to_json
from .peirce import is_k_inverse
from .scalars import GAUSSIAN_RATIONAL, prime_field

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_INPUT = 3

class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; every input error exits 3 here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _parse_domain(text):
    if text in ("gaussian_rational", "qi"):
        return GAUSSIAN_RATIONAL
    if text.startswith("fp:"):
        try:
            return prime_field(int(text[3:]))
        except ValueError as exc:
            raise ValueError(f"bad prime field: {exc}") from exc
    raise ValueError(f"unknown domain {text!r} (use gaussian_rational or fp:<p>)")


def _parse_law(text) -> LawId:
    try:
        return LawId(text.upper())
    except ValueError:
        raise ValueError(
            f"unknown law {text!r}; known: {', '.join(l.value for l in LawId)}"
        ) from None


def _load_matrix(path) -> Matrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return matrix_from_json(obj)


def _emit_json(obj, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=False)
            fh.write("\n")


def _print_matrix(m: Matrix):
    fmt = m.domain.format_scalar
    widths = [
        max((len(fmt(m[i, j])) for i in range(m.rows)), default=1)
        for j in range(m.cols)
    ]
    for i in range(m.rows):
        cells = [fmt(m[i, j]).rjust(widths[j]) for j in range(m.cols)]
        print("[ " + "  ".join(cells) + " ]")
    if m.rows == 0:
        print(f"[ empty {m.rows}x{m.cols} ]")


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", type=int, default=3)
    parser.add_argument("--domain", default="gaussian_rational")
    parser.add_argument("--json", dest="json_out", default=None, metavar="OUT")
    parser.add_argument("--rank-a", type=int, default=None)
    parser.add_argument("--rank-b", type=int, default=None)
    parser.add_argument(
        "--weight",
        default="commutant",
        help="identity | scalar | scalar:<value> | commutant",
    )
    _add_draw_budgets(parser)


def _add_draw_budgets(parser):
    parser.add_argument("--samples", type=int, default=200,
                        help="draws of the witness search when the exact statements hold (>= 1)")
    parser.add_argument("--falsify-samples", type=int, default=500,
                        help="draws of the witness search when the exact statements fail (>= 1)")


def _build_spec(args, domain) -> InstanceSpec:
    mode = args.weight
    weight_scalar = None
    if mode.startswith("scalar:"):
        weight_scalar = domain.parse(mode.split(":", 1)[1])
        mode = "scalar"
    return InstanceSpec(
        domain=domain,
        size=args.size,
        rank_a=args.rank_a,
        rank_b=args.rank_b,
        weight_mode=mode,
        weight_scalar=weight_scalar,
        seed=args.seed,
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="rolcheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, fn, error, failure in (
        ("mp", "Moore-Penrose inverse of a matrix file",
         mp_inverse, NoMPInverse, "no Moore-Penrose inverse"),
        ("groupinv", "group inverse of a square matrix file",
         group_inverse, NotGroupInvertible, "not group invertible"),
    ):
        p_inv = sub.add_parser(name, help=help_text)
        p_inv.add_argument("--in", dest="infile", required=True)
        p_inv.add_argument("--json", dest="json_out", default=None)
        p_inv.set_defaults(run=partial(_cmd_inverse, fn, error, failure))

    p_kc = sub.add_parser("kcheck", help="K-inverse membership test")
    p_kc.add_argument("--a", required=True)
    p_kc.add_argument("--x", required=True)
    p_kc.add_argument("--k", required=True, help="comma-separated subset of 1,2,3,4")
    p_kc.add_argument("--json", dest="json_out", default=None)
    p_kc.set_defaults(run=_cmd_kcheck)

    p_law = sub.add_parser("law", help="evaluate or search a reverse order law")
    law_sub = p_law.add_subparsers(dest="law_command", required=True)

    p_check = law_sub.add_parser("check", help="evaluate a law on explicit matrices")
    p_check.add_argument("--law", required=True)
    p_check.add_argument("--a", required=True)
    p_check.add_argument("--b", required=True)
    p_check.add_argument("--c", default=None)
    p_check.add_argument("--lambda", dest="lam", default=None,
                         help="scalar weight (builds c = lambda * identity)")
    p_check.add_argument("--stmt", default=None)
    _add_draw_budgets(p_check)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--json", dest="json_out", default=None)
    p_check.set_defaults(run=_cmd_law_check)

    p_search = law_sub.add_parser("search", help="search for a counterexample")
    p_search.add_argument("--law", required=True)
    p_search.add_argument("--stmt", default=None,
                          help="statement to falsify; omit to hunt equivalence violations")
    p_search.add_argument("--budget", type=int, default=100)
    _add_common(p_search)
    p_search.set_defaults(run=_cmd_law_search)

    p_suite = sub.add_parser("suite", help="randomized equivalence suite for one law")
    p_suite.add_argument("--law", required=True)
    p_suite.add_argument("--trials", type=int, default=100)
    _add_common(p_suite)
    p_suite.set_defaults(run=_cmd_suite)

    return parser


def _cmd_inverse(fn, error, failure, args) -> int:
    a = _load_matrix(args.infile)
    try:
        result = fn(a)
    except error as exc:
        print(f"{failure}: {exc}", file=sys.stderr)
        return EXIT_FOUND
    _print_matrix(result)
    _emit_json(matrix_to_json(result), args.json_out)
    return EXIT_OK


def _cmd_kcheck(args) -> int:
    a = _load_matrix(args.a)
    x = _load_matrix(args.x)
    ks = {int(t) for t in args.k.split(",") if t.strip()}
    member = is_k_inverse(a, x, ks)
    print(f"member of a{{{','.join(str(k) for k in sorted(ks))}}}: {member}")
    flags = {f"eq{k}": v for k, v in penrose_equations(a, x, (1, 2, 3, 4)).items()}
    print("  " + "  ".join(f"{k}={v}" for k, v in flags.items()))
    _emit_json({"member": member, "k": sorted(ks), "penrose": flags}, args.json_out)
    return EXIT_OK


def _law_check_context(args):
    a = _load_matrix(args.a)
    b = _load_matrix(args.b)
    if args.c is not None and args.lam is not None:
        raise ValueError("give either --c or --lambda, not both")
    if args.c is not None:
        c = _load_matrix(args.c)
    elif args.lam is not None:
        lam = a.domain.parse(args.lam)
        c = Matrix.identity(a.rows, a.domain).scale(lam)
    else:
        c = Matrix.identity(a.rows, a.domain)
    return LawContext(a, b, c)


def _cmd_law_check(args) -> int:
    law = _parse_law(args.law)
    check_draw_counts(args.samples, args.falsify_samples)
    if args.stmt is not None:
        check_statement_id(law, args.stmt)
    try:
        ctx = _law_check_context(args)
    except NoMPInverse as exc:
        print(f"cannot build context: {exc}", file=sys.stderr)
        return EXIT_FOUND
    if args.stmt is not None:
        try:
            value = law_statement(law, args.stmt, ctx)
            print(f"{law} ({args.stmt}): {value}")
        except HypothesisNotMet as exc:
            print(str(exc))
            _emit_json({"law": law.value, "error": str(exc)}, args.json_out)
            return EXIT_OK
        _emit_json({"law": law.value, "statement": args.stmt, "value": value},
                   args.json_out)
        return EXIT_OK
    report = check_equivalence(
        law, ctx, samples=args.samples, seed=args.seed,
        falsify_samples=args.falsify_samples,
    )
    print(f"{law}: {report.verdict}")
    for stmt, value in report.statement_values.items():
        print(f"  ({stmt}) = {value}")
    if report.details:
        print(f"  details: {report.details}")
    if report.notes:
        print(f"  note: {report.notes}")
    _emit_json(report.to_json_dict(), args.json_out)
    if report.verdict == VIOLATION:
        return EXIT_FOUND
    return EXIT_OK


def _cmd_law_search(args) -> int:
    law = _parse_law(args.law)
    domain = _parse_domain(args.domain)
    spec = _build_spec(args, domain)
    witness = search_counterexample(
        law, spec, args.budget, stmt=args.stmt,
        samples=args.samples, falsify_samples=args.falsify_samples,
    )
    if witness is None:
        target = f"statement ({args.stmt})" if args.stmt else "equivalence violation"
        print(f"no counterexample to {law} {target} in {args.budget} instances")
        _emit_json({"law": law.value, "found": False, "budget": args.budget},
                   args.json_out)
        return EXIT_OK
    print(f"counterexample found at trial {witness['trial']}:")
    print(json.dumps(witness, indent=2))
    _emit_json({"law": law.value, "found": True, "witness": witness}, args.json_out)
    return EXIT_FOUND


def _cmd_suite(args) -> int:
    law = _parse_law(args.law)
    domain = _parse_domain(args.domain)
    spec = _build_spec(args, domain)
    result = run_suite(
        law, spec, args.trials,
        samples=args.samples, falsify_samples=args.falsify_samples,
    )
    print(
        f"{law}: trials={result.trials} equivalent={result.equivalent} "
        f"violations={len(result.violations)} "
        f"skips={result.hypothesis_skips} ({result.elapsed:.2f}s)"
    )
    _emit_json(result.to_json_dict(), args.json_out)
    if result.violations:
        return EXIT_FOUND
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError, InvalidSpec) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RolcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
