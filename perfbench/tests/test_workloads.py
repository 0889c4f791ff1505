"""Seeded generators and their closed-form expected values, at toy sizes."""

from fractions import Fraction
from math import factorial

import workloads as w


def _listing(items):
    return [(item.name, item.spec, item.expected) for item in items]


def test_generators_are_deterministic_per_seed():
    for workload in ("elimination", "milnor", "reflection"):
        assert _listing(w.build_items(workload, 7)) == _listing(w.build_items(workload, 7))
        assert [item.spec for item in w.build_items(workload, 7)] != \
            [item.spec for item in w.build_items(workload, 8)]


def test_seed_only_changes_signs_of_the_catalogue_inputs():
    base = w.al_base_matrices()
    for seed in (0, 1):
        for n, R in w.al_matrices(seed).items():
            assert [[abs(x) for x in row] for row in R] == \
                [[abs(x) for x in row] for row in base[n]]
            assert w._is_generic_2xn(R)
            assert all(-3 <= x <= 3 for row in R for x in row)


def test_linear_changes_are_invertible_with_small_entries():
    for A in w.linear_changes(3):
        assert w._det(A) != 0
        assert all(-2 <= x <= 2 for row in A for x in row)


def test_relabellings_are_permutations():
    for label, perm in w.relabellings(5).items():
        assert sorted(perm) == list(range(int(label[1:])))


def test_closed_forms():
    assert [w.weyl_order(f"A{r}") for r in (1, 4, 7)] == [2, 120, factorial(8)]
    assert [w.weyl_order(t) for t in ("B3", "C3", "D4", "E6", "F4", "G2")] == \
        [48, 48, 192, 51840, 1152, 12]
    assert [w.coxeter_number(t) for t in ("A5", "B4", "D4", "E6", "F4", "G2")] == \
        [6, 8, 6, 12, 12, 6]
    assert w._det([[1, 2], [3, 4]]) == Fraction(-2)
    mu = {name: m for name, _text, _vars, m in w.MILNOR_FORMS}
    assert (mu["A5"], mu["D7"], mu["E8"], mu["BP678"]) == (5, 7, 8, 210)
    assert mu["nonisolated-x2y"] == w.NON_ISOLATED
