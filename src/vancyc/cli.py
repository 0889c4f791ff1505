"""Command-line front end.

Subcommands: `bracket` (Poisson bracket of two germ components),
`discriminant` (critical-value hypersurface of a germ file, or of a given
generator), `coxeter` (braid relations, group order, Coxeter element),
`fold` (diagram folding with its automorphism group), `steinberg`
(adjoint-quotient checks for sl_2 / sl_3) and `paper-suite` (the twelve
acceptance checks).  `coxeter`, `fold` and `steinberg` print the checks
that `suite` builds for them, the same ones `paper-suite` summarises;
`discriminant` takes a germ file or `--given`, never both.

Machine-readable output is line-oriented: `CHECK <name> <status>
expected=<v> got=<v>`; `--notes` appends one `NOTE <name> <text>` line per
annotated check.  Exit codes: 0 all-pass, 1 any check failed, 2 usage or
parse error, 3 Groebner budget exhausted without any failure.
"""

from __future__ import annotations

import argparse
import re
import sys

from .germfile import GermFileError, load_germ_file
from .groebner import DEFAULT_PAIR_LIMIT, ResourceLimitExceeded
from .monodromy import CoxeterDatum, FoldingError, LatticeError
from .poly import (IDENTIFIER, PolyError, format_polynomial, parse_polynomial,
                   squarefree_part_bivariate)
from .report import FAIL, PASS, SKIPPED_BUDGET, Report
from .singularity import OFF_ORIGIN, discriminant, multiplicity_at_origin
from .suite import (COXETER_CHECKS, STEINBERG_CHECKS, coxeter_results, fold_results,
                    run_paper_suite, steinberg_results)
from .symplectic import poisson_bracket


def _emit(report: Report, notes: bool) -> int:
    for line in report.lines():
        print(line)
    if notes:
        for line in report.note_lines():
            print(line)
    return report.exit_code()


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------

def cmd_bracket(args) -> int:
    gf = load_germ_file(args.file)
    structure = gf.context()
    k = len(gf.components)
    for idx in (args.i, args.j):
        if not 1 <= idx <= k:
            print(f"error: component index {idx} out of range 1..{k}",
                  file=sys.stderr)
            return 2
    bracket = poisson_bracket(gf.components[args.i - 1],
                              gf.components[args.j - 1], structure)
    print(format_polynomial(bracket))
    return 0


# ---------------------------------------------------------------------------
# discriminant
# ---------------------------------------------------------------------------

def _given_multiplicity(expr: str, budget: int) -> int:
    given = parse_polynomial(expr, sorted(set(re.findall(IDENTIFIER, expr))))
    # The squarefree part vanishes at the origin exactly where `given` does,
    # so a nonzero constant term is refused before its Buchberger run.
    if given.constant_term():
        raise PolyError(OFF_ORIGIN)
    reduced = squarefree_part_bivariate(given, budget)
    print(f"given: {format_polynomial(given)}")
    print(f"reduced: {format_polynomial(reduced)}")
    print(f"multiplicity: {reduced.order_at_origin()}")
    return 0


def cmd_discriminant(args) -> int:
    if (args.file is None) == (args.given is None):
        print("error: give either a germ file or --given, not both", file=sys.stderr)
        return 2
    if args.given is not None:
        return _given_multiplicity(args.given, args.budget)
    d = discriminant(load_germ_file(args.file).to_map_germ(), max_pairs=args.budget)
    print(f"target: {' '.join(d.target_vars)}")
    for g in d.ideal.generators:
        print(f"generator: {format_polynomial(g)}")
    if d.note:
        print(f"note: {d.note}")
    if d.reduced_generator is not None:
        print(f"reduced: {format_polynomial(d.reduced_generator)}")
        if d.k >= 2:
            print(f"multiplicity: {multiplicity_at_origin(d)}")
    return 0


# ---------------------------------------------------------------------------
# coxeter
# ---------------------------------------------------------------------------

MAX_COXETER_RANK = 8


def _coxeter_types() -> list[str]:
    """Every label `CoxeterDatum.for_type` builds up to MAX_COXETER_RANK, in
    its canonical spelling (no leading zero)."""
    labels = []
    for label in (f"{t}{r}" for t in "ABCDEFG" for r in range(1, MAX_COXETER_RANK + 1)):
        try:
            CoxeterDatum.for_type(label)
        except LatticeError:
            continue
        labels.append(label)
    return labels


def cmd_coxeter(args) -> int:
    label = args.type
    supported = _coxeter_types()
    if label not in supported:
        print(f"error: unsupported type '{label}' (supported: "
              f"{', '.join(supported)})", file=sys.stderr)
        return 2
    checks = COXETER_CHECKS if args.check == "all" else (args.check,)
    return _emit(Report(coxeter_results(label, checks)), args.notes)


# ---------------------------------------------------------------------------
# fold
# ---------------------------------------------------------------------------

def cmd_fold(args) -> int:
    return _emit(Report(fold_results(args.source, args.automorphism)), args.notes)


# ---------------------------------------------------------------------------
# steinberg
# ---------------------------------------------------------------------------

def cmd_steinberg(args) -> int:
    if args.check == "slice" and args.rank != 2:
        print("error: the slice check needs --rank 2", file=sys.stderr)
        return 2
    results, _ = steinberg_results(
        args.rank, STEINBERG_CHECKS if args.check == "all" else (args.check,))
    return _emit(Report(results), args.notes)


# ---------------------------------------------------------------------------
# paper-suite
# ---------------------------------------------------------------------------

def cmd_paper_suite(args) -> int:
    report = run_paper_suite(budget=args.budget)
    code = _emit(report, args.notes)
    counts = {PASS: 0, FAIL: 0, SKIPPED_BUDGET: 0}
    for c in report.checks:
        counts[c.status] += 1
    print(f"paper-suite: {counts[PASS]} pass, {counts[FAIL]} fail, "
          f"{counts[SKIPPED_BUDGET]} skipped-budget", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _non_negative_int(text: str) -> int:
    if not re.fullmatch(r"\d+", text):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vancyc",
        description="Exact checks for involutive germs, discriminants, "
                    "monodromy lattices and adjoint quotients.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="Poisson bracket of two germ components")
    p.add_argument("file", help="germ file path")
    p.add_argument("i", type=int, help="first component index (1-based)")
    p.add_argument("j", type=int, help="second component index (1-based)")
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("discriminant",
                       help="discriminant generators and multiplicity of a germ")
    p.add_argument("file", nargs="?", default=None, help="germ file path")
    p.add_argument("--budget", type=_non_negative_int, default=DEFAULT_PAIR_LIMIT,
                   help="Groebner S-pair cap (default %(default)s)")
    p.add_argument("--given", metavar="EXPR", default=None,
                   help="skip elimination; reduce EXPR and report its "
                        "multiplicity at the origin")
    p.set_defaults(func=cmd_discriminant)

    p = sub.add_parser("coxeter", help="braid relations, group order, "
                                       "Coxeter element order")
    p.add_argument("type", help="type label, e.g. A3, B2, G2")
    p.add_argument("--check", choices=COXETER_CHECKS + ("all",),
                   default="all")
    p.add_argument("--notes", action="store_true", help="print NOTE lines")
    p.set_defaults(func=cmd_coxeter)

    p = sub.add_parser("fold", help="fold a simply-laced diagram")
    p.add_argument("source", help="simply-laced type label, e.g. D4")
    p.add_argument("automorphism",
                   choices=("identity", "flip", "triality", "full"),
                   help="named automorphism set")
    p.add_argument("--notes", action="store_true", help="print NOTE lines")
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("steinberg", help="adjoint-quotient checks for sl_2/sl_3")
    p.add_argument("--rank", type=int, default=2, help="1 or 2 (default 2)")
    p.add_argument("--check", choices=STEINBERG_CHECKS + ("all",), default="all")
    p.add_argument("--notes", action="store_true", help="print NOTE lines")
    p.set_defaults(func=cmd_steinberg)

    p = sub.add_parser("paper-suite", help="run the twelve acceptance checks")
    p.add_argument("--budget", type=_non_negative_int, default=DEFAULT_PAIR_LIMIT,
                   help="Groebner S-pair cap for elimination-based checks "
                        "(default %(default)s)")
    p.add_argument("--notes", action="store_true", help="print NOTE lines")
    p.set_defaults(func=cmd_paper_suite)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GermFileError, PolyError, LatticeError, FoldingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitExceeded as exc:
        print(f"budget-exhausted: stopped after {exc.pairs_processed} S-pairs "
              f"(limit {exc.limit})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
