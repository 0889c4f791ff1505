"""Twelve acceptance checks, one test and one printed verdict line each.

The full battery runs once at the default budget; every test looks up its
check by name, prints `ACCEPTANCE <name>: PASS|FAIL (expected=... got=...)`,
and asserts the recorded status.
"""

import pytest

from vancyc import groebner, steinberg
from vancyc import suite as suite_module
from vancyc.groebner import DEFAULT_PAIR_LIMIT
from vancyc.report import FAIL, PASS, SKIPPED_BUDGET, CheckResult, format_value
from vancyc.suite import (basic_germ, check_al_binomial, check_discriminant_al6,
                          check_henon_heiles, check_picard_lefschetz,
                          check_variation_matrix, check_weyl_orders, run_paper_suite)

EXPECTED_NAMES = [
    "involutivity",
    "discriminant-basic",
    "discriminant-al6",
    "arnold-liouville-binomial",
    "henon-heiles",
    "milnor-baseline",
    "braid-relations",
    "weyl-orders",
    "picard-lefschetz",
    "variation-matrix",
    "folding-groups",
    "steinberg-suite",
]


@pytest.fixture(scope="module")
def suite():
    report = run_paper_suite()
    return {c.name: c for c in report.checks}


def _verdict(suite, name):
    result = suite[name]
    status = "PASS" if result.status == PASS else "FAIL"
    print(f"ACCEPTANCE {name}: {status} "
          f"(expected={format_value(result.expected)} got={format_value(result.got)})")
    assert result.status == PASS, result.line()


def test_suite_names_and_count():
    """The battery reports exactly the twelve named checks, in order."""
    report = run_paper_suite()
    assert [c.name for c in report.checks] == EXPECTED_NAMES
    assert report.exit_code() == 0


def test_acceptance_involutivity(suite):
    """Both integrable pairs have all pairwise brackets identically zero."""
    _verdict(suite, "involutivity")


def test_acceptance_discriminant_basic(suite):
    """(p1 q1, p2): reduced discriminant s1, multiplicity 1."""
    _verdict(suite, "discriminant-basic")


def test_acceptance_discriminant_al6(suite):
    """Three-torus germ: three distinct lines, multiplicity 3."""
    _verdict(suite, "discriminant-al6")


def test_acceptance_arnold_liouville_binomial(suite):
    """Counted multiplicities follow C(n, k-1) for (3,2), (4,2), (4,3)."""
    _verdict(suite, "arnold-liouville-binomial")


def test_each_germ_is_eliminated_once(monkeypatch):
    """One run calls `discriminant` once per germ, six in all: the binomial
    check reads the (3,2) value off discriminant-al6 instead of eliminating
    that germ again."""
    germs = []
    for module in (suite_module, steinberg):
        def recording(germ, max_pairs=DEFAULT_PAIR_LIMIT, real=module.discriminant):
            germs.append((germ.ambient, germ.components))
            return real(germ, max_pairs)
        monkeypatch.setattr(module, "discriminant", recording)
    run_paper_suite()
    assert len(germs) == len(set(germs)) == 6


def test_binomial_reads_the_al6_multiplicity():
    """A discriminant-al6 result of mult 2 fails the binomial law as 2,4,6."""
    al6 = CheckResult("discriminant-al6", FAIL, {"mult": 3}, {"mult": 2})
    result = check_al_binomial(DEFAULT_PAIR_LIMIT, al6)
    assert result.status == FAIL
    assert format_value(result.got) == "2,4,6"


def test_binomial_skips_with_a_skipped_al6():
    """A discriminant-al6 that ran out of S-pairs makes the binomial check
    skipped-budget, with its count named in the note."""
    result = check_al_binomial(DEFAULT_PAIR_LIMIT, check_discriminant_al6(0))
    assert result.status == SKIPPED_BUDGET
    assert result.note == ("elimination budget exhausted; the (3,2),(4,3) values "
                           "are C(n,k-1) by construction")


def test_binomial_note_names_only_the_counts(monkeypatch):
    """With (3,2) eliminated and the (4,2) elimination stopped, the note
    names (4,2) and (4,3) as counts, not every value."""
    real = suite_module.discriminant

    def stop_on_c8(germ, max_pairs):
        if len(germ.ambient) == 8:  # the (4,2) germ on C^8
            raise groebner.ResourceLimitExceeded(0, max_pairs)
        return real(germ, max_pairs)

    monkeypatch.setattr(suite_module, "discriminant", stop_on_c8)
    al6 = check_discriminant_al6(DEFAULT_PAIR_LIMIT)
    assert al6.status == PASS
    result = check_al_binomial(DEFAULT_PAIR_LIMIT, al6)
    assert (result.status, result.got) == (SKIPPED_BUDGET, [3, 4, 6])
    assert result.note == ("elimination budget exhausted; the (4,2),(4,3) values "
                           "are C(n,k-1) by construction")


def test_acceptance_henon_heiles(suite):
    """The cubic-potential pair's discriminant, eliminated from its critical
    ideal, has multiplicity 4."""
    _verdict(suite, "henon-heiles")


def test_henon_heiles_gate_reads_the_eliminated_discriminant(monkeypatch):
    """With the basic germ in place of the quartic pair, the eliminated
    discriminant is a line and the gate fails with mult=1."""
    monkeypatch.setattr(suite_module, "henon_heiles_germ", basic_germ)
    result = check_henon_heiles(DEFAULT_PAIR_LIMIT)
    assert result.status == FAIL
    assert format_value(result.got) == "mult=1"


def test_budget_reaches_every_elimination(monkeypatch):
    """Every Buchberger run of the battery, the Jacobian bases of
    milnor-baseline included, gets the suite's budget."""
    runs = []
    buchberger = groebner.buchberger

    def recording(ideal, key, max_pairs=DEFAULT_PAIR_LIMIT):
        runs.append(max_pairs)
        return buchberger(ideal, key, max_pairs)

    monkeypatch.setattr(groebner, "buchberger", recording)
    run_paper_suite(budget=3)
    assert runs and set(runs) == {3}


def test_milnor_baseline_skips_on_a_spent_budget(monkeypatch):
    """A Jacobian basis that runs out of S-pairs skips the check and names
    the basis, not an elimination."""
    def spent(h, max_pairs):
        raise groebner.ResourceLimitExceeded(0, max_pairs)

    monkeypatch.setattr(suite_module, "milnor_number", spent)
    result = suite_module.check_milnor_baseline(0)
    assert result.status == SKIPPED_BUDGET
    assert result.note == "Jacobian basis stopped after 0 S-pairs"


def test_acceptance_milnor_baseline(suite):
    """Milnor numbers 1 and 2, plus a detected non-isolated case."""
    _verdict(suite, "milnor-baseline")


def test_milnor_baseline_gate_can_fail(monkeypatch):
    """A Milnor number that x^2 y returns instead of refusing fails the gate."""
    real = suite_module.milnor_number

    def isolated(h, max_pairs):
        return 1 if str(h) == "x^2*y" else real(h, max_pairs)

    monkeypatch.setattr(suite_module, "milnor_number", isolated)
    result = suite_module.check_milnor_baseline(DEFAULT_PAIR_LIMIT)
    assert result.line() == "CHECK milnor-baseline fail expected=1,2,non-isolated got=1,2,isolated"


def test_acceptance_braid_relations(suite):
    """All eight tabulated reflection groups satisfy their braid relations."""
    _verdict(suite, "braid-relations")


def test_acceptance_weyl_orders(suite):
    """Group orders match the classical values up to E8's 696729600."""
    _verdict(suite, "weyl-orders")


@pytest.mark.parametrize("name, order, shown", [
    ("group_order_bfs", 1152, "1152/1153"),
    ("weyl_group_order", 696729600, "696729601"),
])
def test_weyl_orders_gate_can_fail(monkeypatch, name, order, shown):
    """A BFS count off by one on F4, or an orbit-stabilizer count off by one
    on E8, fails the gate and shows in the got list."""
    real = getattr(suite_module, name)

    def off_by_one(*args, **kwargs):
        got = real(*args, **kwargs)
        return got + 1 if got == order else got

    monkeypatch.setattr(suite_module, name, off_by_one)
    result = check_weyl_orders()
    assert result.status == FAIL
    assert shown in format_value(result.got).split(",")


def test_acceptance_picard_lefschetz(suite):
    """On Pham's lattices of A2, A3 and D4 the reflections are involutions,
    preserve the form, and their product has the Coxeter number as order."""
    _verdict(suite, "picard-lefschetz")


def test_acceptance_variation_matrix(suite):
    """On Pham's lattices the variation matrix is -V^T for the Seifert
    matrix V, and V T_1...T_mu = -V^T for the reflections."""
    _verdict(suite, "variation-matrix")


def _wrong_sign(real):
    """x |-> x - (x . delta) delta: 2I - T, since T is I plus one row."""
    def reflection(lattice, i):
        return [[2 * (j == k) - x for k, x in enumerate(row)]
                for j, row in enumerate(real(lattice, i))]
    return reflection


def _transposed(real):
    def reflection(lattice, i):
        return [list(col) for col in zip(*real(lattice, i))]
    return reflection


@pytest.mark.parametrize("mutation", [_wrong_sign, _transposed])
def test_lattice_gates_read_the_reflections(monkeypatch, mutation):
    """Both gates multiply the Picard-Lefschetz reflections: with each given
    the wrong sign, or replaced by its transpose, both fail."""
    monkeypatch.setattr(suite_module, "pl_reflection", mutation(suite_module.pl_reflection))
    assert check_picard_lefschetz().status == FAIL
    assert check_variation_matrix().status == FAIL


def test_picard_lefschetz_gate_reads_the_type_table(monkeypatch):
    """With (2,3,3) tabled as A4, the monodromy's order 6 is not A4's
    Coxeter number 5 and the gate fails."""
    monkeypatch.setitem(suite_module._PHAM_TYPES, (2, 3, 3), "A4")
    assert check_picard_lefschetz().status == FAIL


def test_variation_gate_reads_the_variation_matrix(monkeypatch):
    """A transposed variation matrix is not -V^T and fails the gate."""
    real = suite_module.variation_matrix
    monkeypatch.setattr(suite_module, "variation_matrix",
                        lambda lattice: [list(col) for col in zip(*real(lattice))])
    assert check_variation_matrix().status == FAIL


def test_variation_note_reads_the_diagonal(monkeypatch):
    """With -W in place of the variation matrix the gate fails, and its note
    shows the diagonal entries 1 that it read."""
    real = suite_module.variation_matrix
    monkeypatch.setattr(suite_module, "variation_matrix",
                        lambda lattice: [[-x for x in row] for row in real(lattice)])
    result = check_variation_matrix()
    assert result.status == FAIL
    assert result.note == "diagonals 1; dets 1,1,1"


def test_acceptance_folding_groups(suite):
    """Folding group orders and names for the tabulated diagram quotients."""
    _verdict(suite, "folding-groups")


def test_acceptance_steinberg_suite(suite):
    """Coefficient-map ranks, multiplicities, Casimirs, and the Morse slice."""
    _verdict(suite, "steinberg-suite")
