"""Command-line front end.

Subcommands: `bracket` (Poisson bracket of two germ components),
`discriminant` (critical-value hypersurface of a germ file, or of a given
generator), `coxeter` (braid relations, group order, Coxeter element),
`fold` (diagram folding with its automorphism group), `steinberg`
(adjoint-quotient checks for sl_2 / sl_3) and `paper-suite` (the twelve
acceptance checks).

Machine-readable output is line-oriented: `CHECK <name> <status>
expected=<v> got=<v>`; `--notes` appends one `NOTE <name> <text>` line per
annotated check.  Exit codes: 0 all-pass, 1 any check failed, 2 usage or
parse error, 3 Groebner budget exhausted without any failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from math import prod

from .germfile import GermFileError, load_germ_file
from .groebner import DEFAULT_PAIR_LIMIT, ResourceLimitExceeded
from .monodromy import (SUPPORTED_TYPES, CoxeterDatum, FoldingError, LatticeError,
                        braid_relation_check, coxeter_element_order, fold,
                        quotient_rank_check, standard_automorphisms,
                        weyl_generators, weyl_group_order)
from .poly import (PolyError, format_polynomial, normalized, parse_polynomial,
                   squarefree_part_bivariate)
from .report import FAIL, PASS, SKIPPED_BUDGET, Report, check
from .singularity import curve_multiplicity, discriminant, multiplicity_at_origin
from .suite import (STEINBERG_CHECKS, fold_expectation, invariant_degrees,
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
    if gf.symplectic_pairs is None:
        print("error: germ file declares no symplectic pairing", file=sys.stderr)
        return 2
    k = len(gf.components)
    for idx in (args.i, args.j):
        if not 1 <= idx <= k:
            print(f"error: component index {idx} out of range 1..{k}",
                  file=sys.stderr)
            return 2
    bracket = poisson_bracket(gf.components[args.i - 1],
                              gf.components[args.j - 1], gf.context())
    print(format_polynomial(bracket))
    return 0


# ---------------------------------------------------------------------------
# discriminant
# ---------------------------------------------------------------------------

def _given_multiplicity(expr: str) -> int:
    names: list[str] = []
    for m in re.finditer(r"[A-Za-z][A-Za-z0-9_]*", expr):
        if m.group(0) not in names:
            names.append(m.group(0))
    given = parse_polynomial(expr, tuple(sorted(names)))
    mult = curve_multiplicity(given)
    reduced = normalized(squarefree_part_bivariate(given))
    print(f"given: {format_polynomial(given)}")
    print(f"reduced: {format_polynomial(reduced)}")
    print(f"multiplicity: {mult}")
    return 0


def cmd_discriminant(args) -> int:
    if args.given is not None:
        return _given_multiplicity(args.given)
    if args.file is None:
        print("error: a germ file (or --given) is required", file=sys.stderr)
        return 2
    germ = load_germ_file(args.file).to_map_germ()
    try:
        d = discriminant(germ, max_pairs=args.budget)
    except ResourceLimitExceeded as exc:
        print(f"budget-exhausted: stopped after {exc.pairs_processed} S-pairs "
              f"(limit {exc.limit})")
        return 3
    print(f"target: {' '.join(d.target_vars)}")
    for g in d.ideal.generators:
        print(f"generator: {format_polynomial(g)}")
    if not d.ideal.generators:
        print("generator: 0 (discriminant fills the target)")
    if d.note:
        print(f"note: {d.note}")
    if d.reduced_generator is not None:
        print(f"reduced: {format_polynomial(normalized(d.reduced_generator))}")
        if d.k >= 2:
            print(f"multiplicity: {multiplicity_at_origin(d)}")
    return 0


# ---------------------------------------------------------------------------
# coxeter
# ---------------------------------------------------------------------------

def cmd_coxeter(args) -> int:
    label = args.type
    if label not in SUPPORTED_TYPES:
        print(f"error: unsupported type '{label}' (supported: "
              f"{', '.join(SUPPORTED_TYPES)})", file=sys.stderr)
        return 2
    datum = CoxeterDatum.for_type(label)
    gens = weyl_generators(datum)
    degrees = invariant_degrees(label)
    report = Report()
    wanted = ("braid", "order", "coxeter-element") if args.check == "all" \
        else (args.check,)
    if "braid" in wanted:
        braid_ok, witness = braid_relation_check(gens, datum.coxeter)
        report.add(check(f"braid-{label}", True, braid_ok,
                         note=f"failing pair {witness}" if witness else ""))
    if "order" in wanted:
        report.add(check(f"order-{label}", prod(degrees),
                         weyl_group_order(datum.cartan)))
    if "coxeter-element" in wanted:
        report.add(check(f"coxeter-element-{label}", max(degrees),
                         coxeter_element_order(gens)))
    return _emit(report, args.notes)


# ---------------------------------------------------------------------------
# fold
# ---------------------------------------------------------------------------

def cmd_fold(args) -> int:
    label, name = args.source, args.automorphism
    folding = fold(label, standard_automorphisms(label, name))
    expected = fold_expectation(label, name)
    if expected is None:
        print(f"error: no independent expectation for folding {label} by "
              f"'{name}'", file=sys.stderr)
        return 2
    want_type, want_order, want_abelian = expected
    report = Report()
    orbit_note = "orbits " + ";".join(
        "{" + ",".join(str(i) for i in orbit) + "}" for orbit in folding.orbits)
    report.add(check("fold-type", want_type, folding.folded.label, note=orbit_note))
    report.add(check("fold-group-order", want_order, folding.group_order,
                     note=f"group {folding.group_name}"))
    report.add(check("fold-group-abelian", want_abelian, folding.group_abelian))
    report.add(check("fold-quotient-rank", True, quotient_rank_check(folding)))
    return _emit(report, args.notes)


# ---------------------------------------------------------------------------
# steinberg
# ---------------------------------------------------------------------------

def cmd_steinberg(args) -> int:
    rank = args.rank
    if rank not in (1, 2):
        print("error: --rank must be 1 or 2", file=sys.stderr)
        return 2
    if args.check == "slice" and rank != 2:
        print("error: the slice check needs --rank 2", file=sys.stderr)
        return 2
    results, _ = steinberg_results(
        rank, STEINBERG_CHECKS if args.check == "all" else (args.check,))
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
    p.add_argument("--check", choices=("braid", "order", "coxeter-element", "all"),
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
