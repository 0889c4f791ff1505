"""The deterministic verification suite behind the `paper-suite` subcommand.

Twelve named checks cover the worked examples end to end: involutivity of
the model germs, discriminant generators and multiplicities, the binomial
law for action-coordinate germs, Milnor-number baselines, braid relations
and Weyl-group orders, reflection and variation properties of root
lattices, diagram foldings with their automorphism groups, and the
adjoint-quotient suite for sl_2 and sl_3.  The lattice checks work on the
Python-int rows that `monodromy` returns, with its one exact product.

Each check of the `coxeter`, `fold` and `steinberg` subcommands is built
once here, by `coxeter_results`, `fold_results` and `steinberg_results`,
from the golden values tabled beside them (invariant degrees, fold
expectations).  The subcommands print those results; `braid-relations`,
`weyl-orders`, `folding-groups` and `steinberg-suite` summarise them.

Budget semantics: `budget` caps the Groebner S-pairs of every Buchberger
run of the battery (an elimination, a gcd or a Jacobian basis); no other
cap applies to them.  When a budget runs out, a check reports
skipped-budget instead of failing and the rest of the battery still runs.
The Arnold-Liouville checks then show the hyperplane count C(n, k-1),
which holds for every matrix that passes the genericity test, not an
independent value.
"""

from __future__ import annotations

from functools import reduce
from math import prod
from typing import Sequence

from .groebner import DEFAULT_PAIR_LIMIT, ResourceLimitExceeded
from .monodromy import (CoxeterDatum, FoldingError, IntersectionLattice, _identity,
                        _matmul, _transpose, braid_relation_check,
                        coxeter_element_order, fold, group_name, group_order_bfs,
                        pl_reflection, quotient_rank_check, standard_automorphisms,
                        variation_matrix, weyl_generators, weyl_group_order)
from .poly import parse_polynomial
from .report import FAIL, PASS, SKIPPED_BUDGET, CheckResult, Report, check, format_value
from .singularity import (NonIsolatedSingularityError, action_coordinates_germ,
                          al_multiplicity_by_counting, discriminant,
                          milnor_number, multiplicity_at_origin)
from .steinberg import (SubregularSliceReport, casimir_components_check,
                        jacobian_rank_at, steinberg_discriminant_multiplicity,
                        steinberg_kks, steinberg_map, subregular_slice_check)
from .symplectic import MapGerm, PoissonStructure, poisson_bracket

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
    comps = (parse_polynomial("p1*q1", _C4), parse_polynomial("p2", _C4))
    return MapGerm(_C4, comps)


def henon_heiles_germ() -> MapGerm:
    """The quartic integrable pair on C^4 with Poisson-commuting components.

    The first integral H2 is fixed so that {H1, H2} = 0 exactly for the
    bracket convention used here; the commonly printed sign variant
    q1^4 - 4 q1^2 q2^2 + 4 p1 (q1 p2 - q2 p1) does not commute with H1.
    """
    h1 = parse_polynomial("p1^2+p2^2-4*q2^3-2*q1^2*q2", _C4)
    h2 = parse_polynomial("q1^4+4*q1^2*q2^2-4*p1*(q1*p2-q2*p1)", _C4)
    return MapGerm(_C4, (h1, h2))


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
# Checks shared by the coxeter and fold subcommands and the suite
# ---------------------------------------------------------------------------

COXETER_CHECKS = ("braid", "order", "coxeter-element")


def coxeter_results(label: str, checks: Sequence[str] = COXETER_CHECKS
                    ) -> list[CheckResult]:
    """The braid-, order- and coxeter-element- checks of a type label named in
    `checks`, in the order of COXETER_CHECKS.  The order and the Coxeter
    element are compared with the invariant degrees; a braid failure notes
    its witness pair."""
    datum = CoxeterDatum.for_type(label)
    gens = weyl_generators(datum)
    degrees = invariant_degrees(label)
    results = []
    if "braid" in checks:
        braid_ok, witness = braid_relation_check(gens, datum.coxeter)
        results.append(check(f"braid-{label}", True, braid_ok,
                             note=f"failing pair {witness}" if witness else ""))
    if "order" in checks:
        results.append(check(f"order-{label}", prod(degrees),
                             weyl_group_order(datum.cartan)))
    if "coxeter-element" in checks:
        results.append(check(f"coxeter-element-{label}", max(degrees),
                             coxeter_element_order(gens)))
    return results


def fold_results(label: str, name: str) -> list[CheckResult]:
    """The fold-type, fold-group-order, fold-group-abelian and
    fold-quotient-rank checks of folding `label` by the named automorphisms.

    FoldingError when the folding is invalid, or when no independent
    expectation is known, since a folding is never checked against itself.
    """
    folding = fold(label, standard_automorphisms(label, name))
    expected = fold_expectation(label, name)
    if expected is None:
        raise FoldingError(
            f"no independent expectation for folding {label} by '{name}'")
    want_type, want_order, want_abelian = expected
    orbit_note = "orbits " + ";".join(
        "{" + ",".join(str(i) for i in orbit) + "}" for orbit in folding.orbits)
    return [check("fold-type", want_type, folding.folded.label, note=orbit_note),
            check("fold-group-order", want_order, folding.group_order,
                  note=f"group {folding.group_name}"),
            check("fold-group-abelian", want_abelian, folding.group_abelian),
            check("fold-quotient-rank", True, quotient_rank_check(folding))]


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def check_involutivity() -> CheckResult:
    """Both model germs have Poisson-commuting components."""
    structure = PoissonStructure.from_pairs(_C4, _C4_PAIRS)
    results = [poisson_bracket(*germ.components, structure)
               for germ in (basic_germ(), henon_heiles_germ())]
    got = ";".join(format_value(b) for b in results)
    return check("involutivity", "0;0", got)


def _budget_skip(name: str, expected: str, exc: ResourceLimitExceeded,
                 run: str = "elimination") -> CheckResult:
    return CheckResult(name, SKIPPED_BUDGET, expected, None,
                       note=f"{run} stopped after {exc.pairs_processed} S-pairs")


def check_discriminant_basic(budget: int) -> CheckResult:
    """Elimination for (p1 q1, p2) gives the line s1 = 0 with multiplicity 1."""
    expected = "gen=s1;mult=1"
    try:
        d = discriminant(basic_germ(), max_pairs=budget)
        got = f"gen={format_value(d.reduced_generator)};mult={multiplicity_at_origin(d)}"
        return check("discriminant-basic", expected, got)
    except ResourceLimitExceeded as exc:
        return _budget_skip("discriminant-basic", expected, exc)


def check_discriminant_al6(budget: int) -> CheckResult:
    """Elimination for the C^6 action-coordinate germ gives three lines."""
    expected = "gen=s1^2*s2-s1*s2^2;mult=3"
    R = AL_MATRICES[(3, 2)]
    try:
        d = discriminant(action_coordinates_germ(3, 2, R), max_pairs=budget)
        got = f"gen={format_value(d.reduced_generator)};mult={multiplicity_at_origin(d)}"
        return check("discriminant-al6", expected, got)
    except ResourceLimitExceeded as exc:
        return CheckResult("discriminant-al6", SKIPPED_BUDGET, "mult=3",
                           f"mult={al_multiplicity_by_counting(3, 2, R)}",
                           note=("elimination stopped after "
                                 f"{exc.pairs_processed} S-pairs; "
                                 "mult is C(3,1) by construction"))


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
    note = "k=2 cases eliminated; k=3 value is C(4,2) by construction" if not exhausted \
        else "elimination budget exhausted; every value is C(n,k-1) by construction"
    return CheckResult("arnold-liouville-binomial", status, expected, values, note=note)


def check_henon_heiles(budget: int) -> CheckResult:
    """Elimination for the quartic pair gives a line and a (3,4)-cusp,
    s2 (27 s1^4 + 16 s2^3) up to scalar, with multiplicity 4.

    The literature prints the curve as s2 (s2^3 - s1^4), equal to this one
    after rescaling s2 by a real cube root; the note quotes it as text.
    """
    expected = "mult=4"
    try:
        d = discriminant(henon_heiles_germ(), max_pairs=budget)
    except ResourceLimitExceeded as exc:
        return _budget_skip("henon-heiles", expected, exc)
    return check("henon-heiles", expected, f"mult={multiplicity_at_origin(d)}",
                 note=f"eliminated discriminant {format_value(d.reduced_generator)}; "
                      "the literature prints the same line-plus-cusp curve as "
                      "s2*(s2^3-s1^4)")


def check_milnor_baseline(budget: int) -> CheckResult:
    """mu(x^2 + y^2) = 1, mu(x^3 + y^2) = 2, x^2 y rejected as non-isolated;
    each Jacobian basis runs under `budget` S-pairs."""
    expected = "1,2,non-isolated"
    xy = ("x", "y")
    try:
        got = [milnor_number(parse_polynomial("x^2+y^2", xy), budget),
               milnor_number(parse_polynomial("x^3+y^2", xy), budget)]
        try:
            milnor_number(parse_polynomial("x^2*y", xy), budget)
            third = "isolated"
        except NonIsolatedSingularityError:
            third = "non-isolated"
    except ResourceLimitExceeded as exc:
        return _budget_skip("milnor-baseline", expected, exc, "Jacobian basis")
    return check("milnor-baseline", expected, f"{got[0]},{got[1]},{third}")


_BRAID_TYPES = ("A2", "A3", "B2", "B3", "D4", "F4", "G2", "E6")


def check_braid_relations() -> CheckResult:
    """Weyl generators are involutions satisfying all braid relations."""
    results = [r for label in _BRAID_TYPES for r in coxeter_results(label, ("braid",))]
    failing = [f"{r.name} {r.note}" for r in results if r.status != PASS]
    return check("braid-relations", f"{len(results)}/{len(results)}",
                 f"{len(results) - len(failing)}/{len(results)}",
                 note="failing: " + "; ".join(failing) if failing else "")


_ORDER_TYPES = ("A2", "B2", "G2", "A3", "D4", "F4", "E6", "E7", "E8")
# Counted by group_order_bfs as well; at most 1,152 elements each.
_BFS_TYPES = _ORDER_TYPES[:6]


def check_weyl_orders() -> CheckResult:
    """Orbit-stabilizer orders match prod d_i, and the stabilizer chain of
    group_order_bfs agrees on the small types; a disagreement shows as
    `order/bfs` in the got list."""
    results = [r for label in _ORDER_TYPES for r in coxeter_results(label, ("order",))]
    got: list[object] = [r.got for r in results]
    for k, label in enumerate(_BFS_TYPES):
        bfs = group_order_bfs(weyl_generators(CoxeterDatum.for_type(label)))
        if bfs != got[k]:
            got[k] = f"{format_value(got[k])}/{format_value(bfs)}"
    return check("weyl-orders", [r.expected for r in results], got,
                 note="orbit-stabilizer on fundamental weights; stabilizer chain "
                      f"on the roots cross-checks {','.join(_BFS_TYPES)}")


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
    """W is triangular with -1 diagonal, det +-1, S = W + W^T, and the
    monodromy T_1...T_r of the Picard-Lefschetz reflections is -W^(-T) W,
    checked without an inverse as W^T T_1...T_r = -W."""
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
        monodromy = reduce(_matmul, (pl_reflection(lattice, i) for i in range(r)))
        ok = ok and _matmul(_transpose(w), monodromy) == [[-x for x in row] for row in w]
    return check("variation-matrix", True, ok,
                 note="diagonals -1; dets " + ",".join(str(d) for d in dets))


_SUITE_FOLDS = (("D4", "full"), ("E6", "flip"), ("A3", "flip"))


def _fold_summary(label: str, folded: str, order: int, abelian: bool) -> str:
    # a nonabelian group is spelled out, since its order alone does not name it
    name = "" if abelian else ":" + group_name(order, abelian)
    return f"{label}>{folded}:{order}{name}"


def check_folding_groups() -> CheckResult:
    """Foldings land on the stated types with the stated symmetry groups."""
    folds = [fold_results(label, name) for label, name in _SUITE_FOLDS]
    # fold-type, fold-group-order and fold-group-abelian come first
    expected = [_fold_summary(label, *(r.expected for r in results[:3]))
                for (label, _), results in zip(_SUITE_FOLDS, folds)]
    parts = [_fold_summary(label, *(r.got for r in results[:3]))
             for (label, _), results in zip(_SUITE_FOLDS, folds)]
    identity_trivial = all(r.status == PASS for label in ("A3", "D4", "E6")
                           for r in fold_results(label, "identity")[:3])
    parts.append(f"id:{'trivial' if identity_trivial else 'nontrivial'}")
    ranks = all(results[3].status == PASS for results in folds)
    parts.append(f"rank:{'ok' if ranks else 'bad'}")
    return check("folding-groups", ";".join(expected + ["id:trivial", "rank:ok"]),
                 ";".join(parts), note="abelian flags: D4-full="
                 + ("abelian" if folds[0][2].got else "nonabelian"))


STEINBERG_CHECKS = ("casimir", "rank", "discriminant", "slice")

# (subregular, regular) traceless points of sl_2 and sl_3
_STEINBERG_POINTS = {
    1: (((0, 0), (0, 0)), ((1, 0), (0, -1))),
    2: (((1, 0, 0), (0, 1, 0), (0, 0, -2)), ((1, 0, 0), (0, 2, 0), (0, 0, -3))),
}


def steinberg_results(rank: int, checks: Sequence[str] = STEINBERG_CHECKS,
                      max_pairs: int = DEFAULT_PAIR_LIMIT
                      ) -> tuple[list[CheckResult], SubregularSliceReport | None]:
    """The steinberg-* checks of sl_{rank+1} named in `checks`, in the order of
    STEINBERG_CHECKS, and the slice report (rank 2 only, None otherwise); the
    discriminant's elimination and gcds each run under `max_pairs` S-pairs."""
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
                             steinberg_discriminant_multiplicity(rank, max_pairs)))
    slice_report = None
    if "slice" in checks and rank == 2:
        slice_report = subregular_slice_check(smap)
        results.append(check(
            "steinberg-slice", True, slice_report.passed,
            note=f"c2 block Hessian rank {slice_report.block_hessian_rank}; "
                 f"differential rank {slice_report.differential_rank}"))
    return results, slice_report


def check_steinberg_suite(budget: int) -> CheckResult:
    """Rank drops, discriminant multiplicities, Casimirs and the A_1 slice."""
    expected = "ranks=1,2;mults=1,2;casimirs=true;slice=true"
    try:
        rank1, _ = steinberg_results(1, ("casimir", "discriminant"), budget)
        rank2, slice_report = steinberg_results(2, max_pairs=budget)
    except ResourceLimitExceeded as exc:
        return _budget_skip("steinberg-suite", expected, exc)
    one = {c.name: c.got for c in rank1}
    two = {c.name: c.got for c in rank2}
    casimirs = one["steinberg-casimir"] and two["steinberg-casimir"]
    got = (f"ranks={two['steinberg-rank-subregular']},{two['steinberg-rank-regular']};"
           f"mults={one['steinberg-discriminant']},{two['steinberg-discriminant']};"
           f"casimirs={format_value(casimirs)};"
           f"slice={format_value(two['steinberg-slice'])}")
    return check("steinberg-suite", expected, got,
                 note=f"slice quadratic block rank {slice_report.block_hessian_rank}")


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------

def run_paper_suite(budget: int = DEFAULT_PAIR_LIMIT) -> Report:
    """Run the twelve acceptance checks; see the module docstring for budgets."""
    report = Report()
    report.add(check_involutivity())
    report.add(check_discriminant_basic(budget))
    report.add(check_discriminant_al6(budget))
    report.add(check_al_binomial(budget))
    report.add(check_henon_heiles(budget))
    report.add(check_milnor_baseline(budget))
    report.add(check_braid_relations())
    report.add(check_weyl_orders())
    report.add(check_picard_lefschetz())
    report.add(check_variation_matrix())
    report.add(check_folding_groups())
    report.add(check_steinberg_suite(budget))
    return report
