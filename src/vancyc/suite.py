"""The deterministic verification suite behind the `paper-suite` subcommand.

Twelve named checks cover the worked examples end to end: involutivity of
the model germs, discriminant generators and multiplicities, the binomial
law for action-coordinate germs, Milnor-number baselines, braid relations
and Weyl-group orders, reflection and variation properties of root
lattices, diagram foldings with their automorphism groups, and the
adjoint-quotient suite for sl_2 and sl_3.  The lattice checks work on the
Python-int rows that `monodromy` returns, with its one exact product.  The
golden values (invariant degrees, fold expectations) and the steinberg-*
check builder live here too, shared with the `coxeter`, `fold` and
`steinberg` subcommands.

Budget semantics: `budget` caps Groebner S-pairs for the elimination-based
checks (discriminant-basic, discriminant-al6, the k=2 cases of the binomial
law, and the non-blocking radical-membership stretch).  When a budget runs
out, those checks fall back to the hyperplane-counting path where one
exists and report skipped-budget instead of failing.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

from .groebner import DEFAULT_PAIR_LIMIT, ResourceLimitExceeded, radical_membership
from .monodromy import (CoxeterDatum, IntersectionLattice, _identity, _matmul,
                        _transpose, braid_relation_check, fold, group_name,
                        group_order_bfs, pl_reflection, quotient_rank_check,
                        standard_automorphisms, variation_matrix, weyl_generators,
                        weyl_group_order)
from .poly import Polynomial, format_polynomial, normalized, parse_polynomial
from .report import FAIL, PASS, SKIPPED_BUDGET, CheckResult, Report, check, format_value
from .singularity import (NonIsolatedSingularityError, action_coordinates_germ,
                          al_multiplicity_by_counting, curve_multiplicity,
                          discriminant, milnor_number, multiplicity_at_origin)
from .steinberg import (SubregularSliceReport, casimir_components_check,
                        jacobian_rank_at, steinberg_discriminant_multiplicity,
                        steinberg_kks, steinberg_map, subregular_slice_check)
from .symplectic import MapGerm, SymplecticContext, poisson_bracket

# ---------------------------------------------------------------------------
# The worked-example germs, defined once for the suite, the CLI fixtures and
# the tests.
# ---------------------------------------------------------------------------

_C4 = ("q1", "p1", "q2", "p2")
_C4_PAIRS = (("q1", "p1"), ("q2", "p2"))

AL_MATRICES: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {
    (3, 2): ((1, 1, 0), (0, 1, 1)),
    (4, 2): ((1, 1, 1, 0), (0, 1, 2, 1)),
    (4, 3): ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)),
}


def basic_germ() -> MapGerm:
    """(p1 q1, p2): the simplest involutive germ with a smooth discriminant line."""
    ctx = SymplecticContext.from_pairs(_C4_PAIRS)
    comps = (parse_polynomial("p1*q1", _C4), parse_polynomial("p2", _C4))
    return MapGerm(_C4, comps, ctx)


def henon_heiles_germ() -> MapGerm:
    """The quartic integrable pair on C^4 with Poisson-commuting components.

    The first integral H2 is fixed so that {H1, H2} = 0 exactly for the
    bracket convention used here; the commonly printed sign variant
    q1^4 - 4 q1^2 q2^2 + 4 p1 (q1 p2 - q2 p1) does not commute with H1.
    """
    ctx = SymplecticContext.from_pairs(_C4_PAIRS)
    h1 = parse_polynomial("p1^2+p2^2-4*q2^3-2*q1^2*q2", _C4)
    h2 = parse_polynomial("q1^4+4*q1^2*q2^2-4*p1*(q1*p2-q2*p1)", _C4)
    return MapGerm(_C4, (h1, h2), ctx)


def henon_heiles_given_discriminant() -> Polynomial:
    """Reduced discriminant curve of the quartic pair: a line and a (4,3)-cusp."""
    return parse_polynomial("s2*(s2^3-s1^4)", ("s1", "s2"))


def _fmt(p: Polynomial) -> str:
    return format_polynomial(p, compact=True)


# ---------------------------------------------------------------------------
# Golden values, defined once for the suite and the CLI
# ---------------------------------------------------------------------------

_EXCEPTIONAL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12), "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30), "F4": (2, 6, 8, 12), "G2": (2, 6),
}


def invariant_degrees(label: str) -> tuple[int, ...]:
    """Degrees of the basic invariants of the Weyl group of a type label.

    The group order is their product and the Coxeter number their maximum
    (Humphreys, Reflection Groups and Coxeter Groups, 1990, 3.7-3.9); both
    are independent of the group closure they gate.
    """
    letter, rank = label[0], int(label[1:])
    if letter == "A":
        return tuple(range(2, rank + 2))
    if letter in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if letter == "D":
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    return _EXCEPTIONAL_DEGREES[label]


# (source, automorphisms) -> (folded type, group order, group abelian)
_FOLD_EXPECTED = {
    ("D4", "flip"): ("B3", 2, True),
    ("D4", "triality"): ("G2", 3, True),
    ("D4", "full"): ("G2", 6, False),
    ("E6", "flip"): ("F4", 2, True),
}


def fold_expectation(label: str, name: str) -> tuple[str, int, bool] | None:
    """Folded type, group order and abelianness of a named folding, or None
    when no independent value is known.

    The identity fixes every diagram, and the flip folds A_{2k-1} onto C_k
    (k >= 2); the other foldings are tabled.
    """
    letter, rank = label[0], int(label[1:])
    if name == "identity":
        return label, 1, True
    if name == "flip" and letter == "A" and rank >= 3 and rank % 2:
        return f"C{(rank + 1) // 2}", 2, True
    return _FOLD_EXPECTED.get((label, name))


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def check_involutivity() -> CheckResult:
    """Both model germs have Poisson-commuting components."""
    results = []
    for germ in (basic_germ(), henon_heiles_germ()):
        f, g = germ.components
        results.append(poisson_bracket(f, g, germ.context))
    got = ";".join(_fmt(b) for b in results)
    return check("involutivity", "0;0", got)


def check_discriminant_basic(budget: int) -> CheckResult:
    """Elimination for (p1 q1, p2) gives the line s1 = 0 with multiplicity 1."""
    expected = "gen=s1;mult=1"
    try:
        d = discriminant(basic_germ(), max_pairs=budget)
        got = f"gen={_fmt(normalized(d.reduced_generator))};mult={multiplicity_at_origin(d)}"
        return check("discriminant-basic", expected, got)
    except ResourceLimitExceeded as exc:
        return CheckResult("discriminant-basic", SKIPPED_BUDGET, expected, None,
                           note=f"elimination stopped after {exc.pairs_processed} S-pairs")


def check_discriminant_al6(budget: int) -> CheckResult:
    """Elimination for the C^6 action-coordinate germ gives three lines."""
    expected = "gen=s1^2*s2-s1*s2^2;mult=3"
    R = AL_MATRICES[(3, 2)]
    try:
        d = discriminant(action_coordinates_germ(3, 2, R), max_pairs=budget)
        got = f"gen={_fmt(normalized(d.reduced_generator))};mult={multiplicity_at_origin(d)}"
        return check("discriminant-al6", expected, got)
    except ResourceLimitExceeded as exc:
        count = al_multiplicity_by_counting(3, 2, R)
        status = SKIPPED_BUDGET if count == 3 else FAIL
        return CheckResult("discriminant-al6", status, "mult=3", f"mult={count}",
                           note=("elimination stopped after "
                                 f"{exc.pairs_processed} S-pairs; "
                                 "hyperplane counting path used instead"))


def check_al_binomial(budget: int) -> CheckResult:
    """Multiplicities follow the binomial law C(n, k-1) for fixed generic R."""
    cases = (((3, 2), 3), ((4, 2), 4), ((4, 3), 6))
    values: list[int] = []
    exhausted = False
    for (n, k), _want in cases:
        R = AL_MATRICES[(n, k)]
        if k == 2:
            try:
                d = discriminant(action_coordinates_germ(n, k, R), max_pairs=budget)
                values.append(multiplicity_at_origin(d))
                continue
            except ResourceLimitExceeded:
                exhausted = True
        values.append(al_multiplicity_by_counting(n, k, R))
    expected = [want for _case, want in cases]
    if values != expected:
        status = FAIL
    elif exhausted:
        status = SKIPPED_BUDGET
    else:
        status = PASS
    note = "k=2 cases eliminated; k=3 case counted" if not exhausted else \
        "elimination budget exhausted; all cases counted"
    return CheckResult("arnold-liouville-binomial", status, expected, values, note=note)


def check_henon_heiles(stretch_pairs: int | None = None) -> CheckResult:
    """The given reduced discriminant s2 (s2^3 - s1^4) has multiplicity 4.

    Stretch (non-blocking): eliminate the critical ideal of the involutive
    pair and test radical membership of the given generator.  The honest
    eliminated discriminant is s2 (27 s1^4 + 16 s2^3) up to scalar -- the
    same line-plus-(3,4)-cusp with the same multiplicity -- so the literal
    membership test reports false; the given curve matches the eliminated
    one only after rescaling s2 by the real cube root -(16/27)^(1/3).  The
    outcome is recorded in the note either way and never blocks the check.
    """
    given = henon_heiles_given_discriminant()
    result = check("henon-heiles", "mult=4", f"mult={curve_multiplicity(given)}")
    if result.status != PASS:
        return result
    if stretch_pairs is None or stretch_pairs <= 0:
        return CheckResult(result.name, result.status, result.expected, result.got,
                           note="radical-membership stretch skipped (budget)")
    try:
        d = discriminant(henon_heiles_germ(), max_pairs=stretch_pairs)
        member = radical_membership(given, d.ideal, max_pairs=stretch_pairs)
    except ResourceLimitExceeded as exc:
        return CheckResult(result.name, result.status, result.expected, result.got,
                           note="radical-membership stretch stopped after "
                           f"{exc.pairs_processed} S-pairs")
    honest = normalized(d.reduced_generator)
    note = (f"stretch: eliminated discriminant {_fmt(honest)} "
            f"(multiplicity {multiplicity_at_origin(d)}); given generator in its "
            f"radical: {'yes' if member else 'no'}"
            + ("" if member else
               " (same line-plus-cusp shape; equal after rescaling s2 by the real "
               "cube root -(16/27)^(1/3))"))
    return CheckResult(result.name, result.status, result.expected, result.got,
                       note=note)


def check_milnor_baseline() -> CheckResult:
    """mu(x^2 + y^2) = 1, mu(x^3 + y^2) = 2, x^2 y rejected as non-isolated."""
    xy = ("x", "y")
    got = [milnor_number(parse_polynomial("x^2+y^2", xy)),
           milnor_number(parse_polynomial("x^3+y^2", xy))]
    try:
        milnor_number(parse_polynomial("x^2*y", xy))
        third = "isolated"
    except NonIsolatedSingularityError:
        third = "non-isolated"
    return check("milnor-baseline", "1,2,non-isolated",
                 f"{got[0]},{got[1]},{third}")


_BRAID_TYPES = ("A2", "A3", "B2", "B3", "D4", "F4", "G2", "E6")


def check_braid_relations() -> CheckResult:
    """Weyl generators are involutions satisfying all braid relations."""
    good = 0
    failing = []
    for label in _BRAID_TYPES:
        datum = CoxeterDatum.for_type(label)
        gens = weyl_generators(datum)
        braid_ok, witness = braid_relation_check(gens, datum.coxeter)
        if braid_ok:
            good += 1
        else:
            failing.append(f"{label}{witness}")
    return check("braid-relations", f"{len(_BRAID_TYPES)}/{len(_BRAID_TYPES)}",
                 f"{good}/{len(_BRAID_TYPES)}",
                 note="failing: " + ",".join(failing) if failing else "")


_ORDER_TYPES = ("A2", "B2", "G2", "A3", "D4", "F4", "E6", "E7", "E8")
# Closed element by element as well; at most 1,152 elements each.
_BFS_TYPES = _ORDER_TYPES[:6]


def check_weyl_orders() -> CheckResult:
    """Orbit-stabilizer orders match prod d_i, and the BFS closure agrees on
    the small types; a disagreement shows as `order/bfs` in the got list."""
    want = [prod(invariant_degrees(label)) for label in _ORDER_TYPES]
    got: list[object] = []
    for label in _ORDER_TYPES:
        datum = CoxeterDatum.for_type(label)
        order = weyl_group_order(datum.cartan)
        if label in _BFS_TYPES:
            bfs = group_order_bfs(weyl_generators(datum))
            if bfs != order:
                order = f"{format_value(order)}/{format_value(bfs)}"
        got.append(order)
    return check("weyl-orders", want, got,
                 note="orbit-stabilizer on fundamental weights; BFS closure "
                      f"cross-checks {','.join(_BFS_TYPES)}")


_LATTICE_TYPES = ("A2", "A3", "D4")


def check_picard_lefschetz() -> CheckResult:
    """Reflections preserve the form, square to one, and equal the Weyl action."""
    ok = True
    for label in _LATTICE_TYPES:
        lattice = IntersectionLattice.root_lattice(label)
        datum = CoxeterDatum.for_type(label)
        gens = weyl_generators(datum)
        identity = _identity(lattice.rank)
        s = lattice.form
        for i in range(lattice.rank):
            h = pl_reflection(lattice, i)
            ok = ok and _matmul(_matmul(_transpose(h), s), h) == s
            ok = ok and _matmul(h, h) == identity
            ok = ok and h == gens[i]
    return check("picard-lefschetz", True, ok,
                 note="types " + ",".join(_LATTICE_TYPES))


def check_variation_matrix() -> CheckResult:
    """W is triangular with -1 diagonal, det +-1, and S = W + W^T."""
    ok = True
    dets = []
    for label in _LATTICE_TYPES:
        lattice = IntersectionLattice.root_lattice(label)
        w = variation_matrix(lattice)
        s = lattice.form
        r = lattice.rank
        ok = ok and all(w[i][j] == 0 for i in range(r) for j in range(i + 1, r))
        ok = ok and all(abs(w[i][i]) == 1 for i in range(r))
        det = prod(w[i][i] for i in range(r))
        dets.append(det)
        ok = ok and det in (-1, 1)
        ok = ok and all(w[i][j] + w[j][i] == s[i][j] for i in range(r) for j in range(r))
    return check("variation-matrix", True, ok,
                 note="diagonals -1; dets " + ",".join(str(d) for d in dets))


_SUITE_FOLDS = (("D4", "full"), ("E6", "flip"), ("A3", "flip"))


def _fold_summary(label: str, folded: str, order: int, abelian: bool) -> str:
    # a nonabelian group is spelled out, since its order alone does not name it
    name = "" if abelian else ":" + group_name(order, abelian)
    return f"{label}>{folded}:{order}{name}"


def check_folding_groups() -> CheckResult:
    """Foldings land on the stated types with the stated symmetry groups."""
    folds = [fold(label, standard_automorphisms(label, name))
             for label, name in _SUITE_FOLDS]
    parts = [_fold_summary(label, f.folded.label, f.group_order, f.group_abelian)
             for (label, _), f in zip(_SUITE_FOLDS, folds)]
    expected = [_fold_summary(label, *fold_expectation(label, name))
                for label, name in _SUITE_FOLDS]
    identity_trivial = True
    for label in ("A3", "D4", "E6"):
        ident = fold(label, standard_automorphisms(label, "identity"))
        identity_trivial = identity_trivial and (
            ident.folded.label == label and ident.group_order == 1
            and ident.group_name == "trivial")
    parts.append(f"id:{'trivial' if identity_trivial else 'nontrivial'}")
    ranks = all(quotient_rank_check(f) for f in folds)
    parts.append(f"rank:{'ok' if ranks else 'bad'}")
    return check("folding-groups", ";".join(expected + ["id:trivial", "rank:ok"]),
                 ";".join(parts), note="abelian flags: D4-full="
                 + ("abelian" if folds[0].group_abelian else "nonabelian"))


STEINBERG_CHECKS = ("casimir", "rank", "discriminant", "slice")

# (subregular, regular) traceless points of sl_2 and sl_3
_STEINBERG_POINTS = {
    1: (((0, 0), (0, 0)), ((1, 0), (0, -1))),
    2: (((1, 0, 0), (0, 1, 0), (0, 0, -2)), ((1, 0, 0), (0, 2, 0), (0, 0, -3))),
}


def steinberg_results(rank: int, checks: Sequence[str] = STEINBERG_CHECKS
                      ) -> tuple[list[CheckResult], SubregularSliceReport | None]:
    """The steinberg-* checks of sl_{rank+1} named in `checks`, in the order of
    STEINBERG_CHECKS, and the slice report; the slice exists for rank 2 only
    and is None otherwise."""
    smap = steinberg_map(rank)
    results = []
    if "casimir" in checks:
        results.append(check("steinberg-casimir", True,
                             casimir_components_check(smap, steinberg_kks(smap)),
                             note=f"{rank} component(s) against the Lie-Poisson bracket"))
    if "rank" in checks:
        subregular, regular = _STEINBERG_POINTS[rank]
        results.append(check("steinberg-rank-subregular", rank - 1,
                             jacobian_rank_at(smap, subregular)))
        results.append(check("steinberg-rank-regular", rank,
                             jacobian_rank_at(smap, regular)))
    if "discriminant" in checks:
        results.append(check("steinberg-discriminant", rank,
                             steinberg_discriminant_multiplicity(rank)))
    slice_report = None
    if "slice" in checks and rank == 2:
        slice_report = subregular_slice_check(smap)
        results.append(check(
            "steinberg-slice", True, slice_report.passed,
            note=f"c2 block Hessian rank {slice_report.block_hessian_rank}; "
                 f"differential rank {slice_report.differential_rank}"))
    return results, slice_report


def check_steinberg_suite() -> CheckResult:
    """Rank drops, discriminant multiplicities, Casimirs and the A_1 slice."""
    rank1, _ = steinberg_results(1, ("casimir", "discriminant"))
    rank2, slice_report = steinberg_results(2)
    one = {c.name: c.got for c in rank1}
    two = {c.name: c.got for c in rank2}
    casimirs = one["steinberg-casimir"] and two["steinberg-casimir"]
    got = (f"ranks={two['steinberg-rank-subregular']},{two['steinberg-rank-regular']};"
           f"mults={one['steinberg-discriminant']},{two['steinberg-discriminant']};"
           f"casimirs={format_value(casimirs)};"
           f"slice={format_value(two['steinberg-slice'])}")
    return check("steinberg-suite",
                 "ranks=1,2;mults=1,2;casimirs=true;slice=true", got,
                 note="slice quadratic block rank "
                 f"{slice_report.block_hessian_rank}")


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------

STRETCH_PAIR_LIMIT = 20_000


def run_paper_suite(budget: int = DEFAULT_PAIR_LIMIT) -> Report:
    """Run the twelve acceptance checks; see the module docstring for budgets."""
    stretch = min(budget, STRETCH_PAIR_LIMIT)
    report = Report()
    report.add(check_involutivity())
    report.add(check_discriminant_basic(budget))
    report.add(check_discriminant_al6(budget))
    report.add(check_al_binomial(budget))
    report.add(check_henon_heiles(stretch_pairs=stretch))
    report.add(check_milnor_baseline())
    report.add(check_braid_relations())
    report.add(check_weyl_orders())
    report.add(check_picard_lefschetz())
    report.add(check_variation_matrix())
    report.add(check_folding_groups())
    report.add(check_steinberg_suite())
    return report
