"""Cartan data, reflection groups, intersection lattices, and diagram folding."""

import ast
import os
import random
import re
import subprocess
import sys
from functools import reduce
from itertools import combinations
from math import prod
from operator import mul
from pathlib import Path

import numpy as np
import pytest

import vancyc
from vancyc import monodromy
from vancyc.monodromy import (
    SUPPORTED_TYPES,
    CoxeterDatum,
    FoldingError,
    IntersectionLattice,
    LatticeError,
    braid_relation_check,
    cartan_matrix,
    coxeter_element_order,
    coxeter_matrix_from_cartan,
    fold,
    group_name,
    group_order_bfs,
    identify_type,
    permutation_matrix,
    pl_reflection,
    quotient_rank_check,
    standard_automorphisms,
    variation_matrix,
    weyl_generators,
    weyl_group_order,
)
from vancyc.cli import _coxeter_types
from vancyc.monodromy import (_IDENTITY_PERM, _cycle_lengths, _identity, _matmul, _orbits,
                              _root_permutations, _transpose)
from vancyc.suite import fold_results, invariant_degrees

ORDER_GOLDEN = {
    "A2": 6, "B2": 8, "G2": 12, "A3": 24, "D4": 192, "F4": 1152, "E6": 51840,
}


def test_cartan_matrix_goldens():
    """Small Cartan matrices match the fixed node ordering and arrow convention."""
    assert cartan_matrix("A2").tolist() == [[2, -1], [-1, 2]]
    assert cartan_matrix("B2").tolist() == [[2, -1], [-2, 2]]
    assert cartan_matrix("G2").tolist() == [[2, -1], [-3, 2]]
    assert cartan_matrix("C3").tolist() == [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
    assert cartan_matrix("D4").tolist() == [
        [2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    with pytest.raises(LatticeError):
        cartan_matrix("Z9")
    with pytest.raises(LatticeError):
        cartan_matrix("D3")


@pytest.mark.parametrize("label, message", [
    ("A07", "unrecognized type label 'A07'"),
    ("A0", "unrecognized type label 'A0'"),
    ("A300", "type label 'A300' has rank above 256"),
])
def test_type_labels_refuse_leading_zeros_and_ranks_past_256(label, message):
    """One label rule for every type: no leading zero, and no rank past the
    256 column ids a reflection group's tables allow, refused before the
    rank^2 Cartan rows are built."""
    with pytest.raises(LatticeError, match=message):
        CoxeterDatum.for_type(label)


def test_type_labels_that_are_not_strings_are_refused():
    """A label that is not a str is refused like a misspelt one, not with the
    TypeError or AttributeError of reading it as text; a CoxeterDatum is not
    a label either."""
    for call in (lambda: CoxeterDatum.for_type(3),
                 lambda: standard_automorphisms(None, "identity"),
                 lambda: fold(4, []),
                 lambda: fold(CoxeterDatum.for_type("A3"), [])):
        with pytest.raises(LatticeError, match="unrecognized type label"):
            call()


def test_a_label_that_is_not_a_string_is_named_by_its_type():
    """The refusal names the label's type, not its repr: a D256 datum's repr
    runs to hundreds of thousands of characters."""
    with pytest.raises(LatticeError) as exc:
        fold(CoxeterDatum.for_type("D256"), [])
    assert str(exc.value) == "unrecognized type label of type CoxeterDatum"
    assert len(str(exc.value)) < 100


def test_cartan_matrices_are_well_formed():
    """Diagonal 2, non-positive off-diagonal, zeros matched symmetrically."""
    for label in SUPPORTED_TYPES:
        c = cartan_matrix(label)
        r = c.shape[0]
        for i in range(r):
            assert c[i, i] == 2
            for j in range(r):
                if i != j:
                    assert c[i, j] <= 0
                    assert (c[i, j] == 0) == (c[j, i] == 0)


def test_coxeter_matrix_from_cartan():
    """Bond products 0,1,2,3 map to orders 2,3,4,6."""
    m = coxeter_matrix_from_cartan(cartan_matrix("B3"))
    assert m == [[1, 3, 2], [3, 1, 4], [2, 4, 1]]
    g = coxeter_matrix_from_cartan(cartan_matrix("G2"))
    assert g[0][1] == 6


def test_coxeter_matrix_bond_product_is_exact():
    """a_01 * a_10 = 2^64 is not a finite-type bond; an int64 product would
    wrap it to 0 and report m_01 = 2."""
    with pytest.raises(LatticeError, match="bond product 18446744073709551616 at"):
        coxeter_matrix_from_cartan([[2, -2 ** 32], [-2 ** 32, 2]])
    with pytest.raises(LatticeError, match="bond product 18446744073709551616 at"):
        coxeter_matrix_from_cartan(np.array([[2, -2 ** 32], [-2 ** 32, 2]]))


def _is_int_rows(m) -> bool:
    return type(m) is list and all(
        type(row) is list and len(row) == len(m) and all(type(a) is int for a in row)
        for row in m)


def test_matrices_are_python_int_rows():
    """Stored data and every returned matrix are lists of rows of Python ints,
    also when the input is a numpy array."""
    c = cartan_matrix("D4")
    datum = CoxeterDatum("D4", c, coxeter_matrix_from_cartan(c))
    assert _is_int_rows(datum.cartan) and _is_int_rows(datum.coxeter)
    assert datum == CoxeterDatum.for_type("D4")
    lattice = IntersectionLattice(-c)
    assert _is_int_rows(lattice.form)
    assert lattice == _minus_cartan_lattice("D4")
    mats = [pl_reflection(lattice, 0), variation_matrix(lattice),
            permutation_matrix((2, 1, 3, 0)), *weyl_generators(datum)]
    folding = fold("D4", standard_automorphisms("D4", "full"))
    mats += [folding.folded.cartan, folding.folded.coxeter]
    assert all(_is_int_rows(m) for m in mats)


def _imports_numpy(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            return True
    return False


def test_only_monodromy_imports_numpy():
    """numpy forms only cartan_matrix's return value; no other module of the
    package imports it."""
    package = Path(vancyc.__file__).parent
    users = sorted(p.name for p in package.glob("*.py") if _imports_numpy(p))
    assert users == ["monodromy.py"]


def test_importing_the_package_loads_no_numpy():
    """A fresh interpreter imports vancyc and its CLI without loading numpy."""
    src = str(Path(vancyc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, vancyc, vancyc.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_identify_type_round_trip():
    """Every finite type label of rank 1-8 is recognized after a node
    permutation; a rank-2 double bond reports 'C2' (B2 up to relabeling)."""
    rng = random.Random(5)
    labels = []
    for r in range(1, 9):
        for label in (f"{letter}{r}" for letter in "ABCDEFG"):
            try:
                c = cartan_matrix(label).tolist()
            except LatticeError:
                continue
            labels.append(label)
            p = rng.sample(range(r), r)
            scrambled = [[c[i][j] for j in p] for i in p]
            expected = "C2" if label == "B2" else label
            assert identify_type(scrambled) == expected, label
    assert len(labels) == 8 + 7 + 7 + 5 + 3 + 1 + 1
    assert set(SUPPORTED_TYPES) <= set(labels)
    assert identify_type(np.array([[2, -1], [-4, 2]])) is None


def test_identify_type_walks_from_end_nodes(monkeypatch):
    """A matched node has the target node's degree, so naming a rank-r
    diagram takes at most 5 (r + 1) `_match_nodes` calls: on the folds of
    A65 by its flip (C33) and of D65 by the identity, and on seeded
    relabellings of A-D at ranks up to 40.  A node-by-node backtrack with no
    degree test makes 2,086 and 4,292 calls on the two folds."""
    calls = []
    match_nodes = monodromy._match_nodes

    def counted(c, target, p):
        calls.append(len(p))
        return match_nodes(c, target, p)

    monkeypatch.setattr(monodromy, "_match_nodes", counted)
    for label, name, want in (("A65", "flip", "C33"), ("D65", "identity", "D65")):
        calls.clear()
        folded = fold(label, standard_automorphisms(label, name)).folded
        assert folded.label == want
        assert len(calls) <= 5 * (folded.rank + 1), (label, len(calls))
    rng = random.Random(37)
    for r in (5, 12, 27, 40):
        for letter in "ABCD":
            c = cartan_matrix(f"{letter}{r}").tolist()
            p = rng.sample(range(r), r)
            calls.clear()
            assert identify_type([[c[i][j] for j in p] for i in p]) == f"{letter}{r}"
            assert len(calls) <= 5 * (r + 1), (letter, r, len(calls))


def test_generators_are_involutions_and_braid_relations_hold():
    """Reflection generators square to one and satisfy all braid relations."""
    for label in ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "F4", "G2", "E6"):
        datum = CoxeterDatum.for_type(label)
        gens = weyl_generators(datum)
        for g in gens:
            assert _matmul(g, g) == _identity(datum.rank)
        ok, witness = braid_relation_check(gens, datum.coxeter)
        assert ok and witness is None


def test_braid_check_names_the_failing_generator_or_pair():
    """A non-involution is witnessed as (i, i), a broken relation as (i, j).
    2 s_1 has infinite order, its columns 2^k s_1 e_j never repeat, so it is
    refused like every group whose unit columns pass 256 ids."""
    datum = CoxeterDatum.for_type("A3")
    gens = weyl_generators(datum)
    rotation = gens[:1] + [_matmul(gens[0], gens[1])] + gens[2:]
    assert braid_relation_check(rotation, datum.coxeter) == (False, (1, 1))
    doubled = gens[:1] + [[[2 * a for a in row] for row in gens[1]]] + gens[2:]
    with pytest.raises(LatticeError, match="more than 256 ids"):
        braid_relation_check(doubled, datum.coxeter)
    swapped = [gens[0], gens[2], gens[1]]
    assert braid_relation_check(swapped, datum.coxeter) == (False, (0, 1))


def test_braid_check_validates_the_coxeter_matrix():
    """A Coxeter matrix must be an integer matrix with one row per generator,
    symmetric, with ones on the diagonal and entries at least 1.  A non-integer
    order (3.7 was truncated to 3), a lower triangle that disagrees (it was
    never read), a string order and a matrix with too few rows (an IndexError)
    are each a LatticeError, not a pass; a numpy array still passes."""
    datum = CoxeterDatum.for_type("A2")
    gens = weyl_generators(datum)
    for bad in ([[1, 3.7], [3.7, 1]], [[1, 3], [2, 1]], [[1, "3"], ["3", 1]], [[1]],
                [[2, 3], [3, 1]], [[1, 3], [3, 1], [1, 1]], "3"):
        with pytest.raises(LatticeError):
            braid_relation_check(gens, bad)
    assert braid_relation_check(gens, np.array(datum.coxeter)) == (True, None)


def _with_order(coxeter, i, j, m):
    c = [list(row) for row in coxeter]
    c[i][j] = c[j][i] = m
    return c


def test_braid_check_requires_the_exact_order():
    """s_i s_j must have order exactly m_ij.  On A3 the multiples m_01 = 6
    and m_02 = 4 of the true orders 3 and 2 fail at their pair; on every
    type, each wrong order from 1 to 12 fails at its pair, while the true
    one passes.  An order below 1 is refused."""
    datum = CoxeterDatum.for_type("A3")
    gens = weyl_generators(datum)
    assert braid_relation_check(gens, _with_order(datum.coxeter, 0, 1, 6)) == (False, (0, 1))
    assert braid_relation_check(gens, _with_order(datum.coxeter, 0, 2, 4)) == (False, (0, 2))
    for label in ("A2", "B2", "G2", "A3", "B3", "F4"):
        datum = CoxeterDatum.for_type(label)
        gens = weyl_generators(datum)
        for i, j in combinations(range(datum.rank), 2):
            product = _matmul(gens[i], gens[j])
            power, order = product, 1
            while power != _identity(datum.rank):
                power, order = _matmul(power, product), order + 1
            assert order == datum.coxeter[i][j], (label, i, j)
            for m in range(1, 13):
                got = braid_relation_check(gens, _with_order(datum.coxeter, i, j, m))
                assert got == ((True, None) if m == order else (False, (i, j))), (label, i, j, m)
    with pytest.raises(LatticeError, match="positive order"):
        braid_relation_check(gens, _with_order(datum.coxeter, 0, 1, 0))


def test_invariant_degrees_give_orders_and_coxeter_numbers():
    """The degree table satisfies rank = #degrees and N = sum(d - 1) = r h / 2,
    and its products and maxima are the tabled orders and Coxeter numbers."""
    for label in SUPPORTED_TYPES + ("E7", "E8"):
        degrees = invariant_degrees(label)
        rank = CoxeterDatum.for_type(label).rank
        assert len(degrees) == rank
        assert 2 * sum(d - 1 for d in degrees) == rank * max(degrees)
    for label, expected in ORDER_GOLDEN.items():
        assert prod(invariant_degrees(label)) == expected
    assert prod(invariant_degrees("E8")) == 696729600
    assert [max(invariant_degrees(t)) for t in ("A3", "B3", "G2", "E6")] == [4, 6, 6, 12]


def test_group_orders_match_goldens():
    """The stabilizer chain reproduces the classical reflection-group orders."""
    for label, expected in ORDER_GOLDEN.items():
        gens = weyl_generators(CoxeterDatum.for_type(label))
        assert group_order_bfs(gens) == expected


def test_group_order_cap_returns_none():
    """An element cap below the group order reports None, not a wrong count;
    a cap equal to the order still returns it."""
    gens = weyl_generators(CoxeterDatum.for_type("A2"))
    assert group_order_bfs(gens, cap=3) is None
    for label in ("A2", "F4", "E6"):
        gens = weyl_generators(CoxeterDatum.for_type(label))
        order = prod(invariant_degrees(label))
        assert group_order_bfs(gens, cap=order) == order
        assert group_order_bfs(gens, cap=order - 1) is None


def test_group_order_cap_below_one_is_refused():
    """No group has fewer than one element, so a cap below 1 could never be
    met; it is refused, for the trivial group too, instead of returning 1.
    A cap of 1 still counts the trivial group."""
    a2 = weyl_generators(CoxeterDatum.for_type("A2"))
    for gens, at_cap_one in (([], 1), ([[[1, 0], [0, 1]]], 1), (a2, None)):
        for cap in (0, -1):
            with pytest.raises(LatticeError, match=f"cap {cap} is below 1"):
                group_order_bfs(gens, cap=cap)
        assert group_order_bfs(gens, cap=1) == at_cap_one


def test_caps_must_be_integers():
    """A cap is read as an integer, numpy ints included; anything else is a
    LatticeError, not a TypeError or a float cap that rounds down."""
    a2 = weyl_generators(CoxeterDatum.for_type("A2"))
    for count, arg in ((group_order_bfs, a2), (weyl_group_order, cartan_matrix("A2"))):
        for cap in (None, "7", 6.5, 6.0, [6]):
            with pytest.raises(LatticeError, match=f"cap {re.escape(repr(cap))} is not an integer"):
                count(arg, cap=cap)
        assert count(arg, cap=np.int64(6)) == 6


# Reflections of the rank-2 hyperbolic Cartan matrix [[2, -3], [-3, 2]]: an
# infinite group whose entries grow by a factor of about 6.85 per letter pair.
HYPERBOLIC = [[[-1, 3], [0, 1]], [[1, 0], [3, -1]]]


def test_group_order_bfs_is_exact_past_int64():
    """Infinite groups pass the 256-column budget, whatever the cap, and are
    refused.  [[1, 2^62], [0, 1]] has infinite order, but its fourth power is
    the identity modulo 2^64, so a closure in int64 would report 4."""
    for gens, cap in ((HYPERBOLIC, 100), (HYPERBOLIC, 10 ** 6), ([[[1, 2 ** 62], [0, 1]]], 100)):
        with pytest.raises(LatticeError, match="more than 256 ids"):
            group_order_bfs(gens, cap=cap)
    assert group_order_bfs([[[1, 2 ** 62], [0, -1]]]) == 2


def test_group_order_bfs_small_cases():
    """Diagram-automorphism groups as permutation matrices; no generators;
    lists and numpy arrays alike."""
    for label, name, order in (("A3", "flip", 2), ("E6", "flip", 2),
                               ("D4", "triality", 3), ("D4", "full", 6)):
        mats = [permutation_matrix(p) for p in standard_automorphisms(label, name)]
        assert group_order_bfs(mats) == order
    assert group_order_bfs([]) == 1
    gens = weyl_generators(CoxeterDatum.for_type("B3"))
    assert group_order_bfs([np.array(g) for g in gens]) == group_order_bfs(gens) == 48


def test_group_order_bfs_rejects_bad_generators():
    """Ragged, non-square, non-integer and mixed-size generators are a
    LatticeError, not a count; so is a singular generator, whose table maps
    two columns to one, at any cap."""
    for bad in ([[[1, 0], [0]]], [[[1, 0]]], [[[1.0]]], [np.eye(2)],
                [[[1]], [[1, 0], [0, 1]]], [[1, 0]]):
        with pytest.raises(LatticeError):
            group_order_bfs(bad)
    b3 = weyl_generators(CoxeterDatum.for_type("B3"))
    for bad in ([[[0]]], [np.array([[0]])], [[[1, 0], [0, 0]]], [[[0, 1], [0, 0]]],
                b3 + [[[0, 0, 0]] * 3]):
        for cap in (10 ** 6, 2, 1):
            with pytest.raises(LatticeError, match="singular generator"):
                group_order_bfs(bad, cap=cap)


def _row_closure_order(mats, cap):
    """Reference closure on tuples of interned row ids, with no column
    budget: group_order_bfs must agree with it whenever the elements have
    at most 256 distinct columns."""
    row_ids = {}
    rows = []

    def intern(row):
        if row not in row_ids:
            row_ids[row] = len(rows)
            rows.append(row)
        return row_ids[row]

    n = len(mats[0])
    identity = tuple(intern(tuple(int(i == j) for j in range(n))) for i in range(n))
    tables = [[] for _ in mats]
    seen = {identity}
    frontier = [identity]
    while frontier:
        known = len(rows)
        for table, g in zip(tables, mats):
            cols = list(zip(*g))
            for rid in range(len(table), known):
                row = rows[rid]
                table.append(intern(tuple(sum(map(mul, row, col)) for col in cols)))
        lookups = [table.__getitem__ for table in tables]
        next_frontier = []
        for m in frontier:
            for lookup in lookups:
                prod = tuple(map(lookup, m))
                if prod not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(prod)
                    next_frontier.append(prod)
        frontier = next_frontier
    return len(seen)


def test_group_order_bfs_refuses_singular_generators_past_the_column_budget():
    """A singular generator is a LatticeError even when its columns pass 256
    ids, so that no table is read: 2^k e_0 never repeats.  Its exact rank is
    named.  Nonsingular generators past the budget are refused by that rule."""
    for bad, k in (([[[2, 0], [0, 0]]], 0), ([HYPERBOLIC[0], [[2, 0], [0, 0]]], 1),
                   (HYPERBOLIC + [[[3, 6], [1, 2]]], 2)):
        for cap in (10 ** 6, 1):
            with pytest.raises(LatticeError, match=f"singular generator {k}: its rank is 1 < 2"):
                group_order_bfs(bad, cap=cap)
    for gens in ([[[1, 1], [0, 1]]], HYPERBOLIC, [permutation_matrix(range(257))]):
        with pytest.raises(LatticeError, match="more than 256 ids"):
            group_order_bfs(gens)


def test_group_order_bfs_agrees_with_the_row_closure():
    """The stabilizer chain and the row-id closure give the same value on
    every supported type but A8, under seeded relabellings, at cap = |W| and
    cap = |W| - 1; likewise on the folding groups, where the identity's
    cap of 0 is refused."""
    rng = random.Random(19)
    for label in SUPPORTED_TYPES:
        if label == "A8":
            continue
        order = prod(invariant_degrees(label))
        c = cartan_matrix(label).tolist()
        for _ in range(3):
            p = rng.sample(range(len(c)), len(c))
            relabelled = [[c[i][j] for j in p] for i in p]
            gens = weyl_generators(
                CoxeterDatum(label, relabelled, coxeter_matrix_from_cartan(relabelled)))
            for cap in (order, order - 1):
                want = _row_closure_order(gens, cap)
                assert want == (order if cap == order else None)
                assert group_order_bfs(gens, cap=cap) == want, (label, p, cap)
    for label, name in (("A3", "flip"), ("A5", "flip"), ("E6", "flip"),
                        ("D4", "triality"), ("D4", "full"), ("A2", "identity")):
        mats = [permutation_matrix(p) for p in standard_automorphisms(label, name)]
        order = _row_closure_order(mats, 10 ** 6)
        for cap in (order, order - 1):
            if cap < 1:  # the identity folding: no group fits a cap of 0
                with pytest.raises(LatticeError, match="cap 0 is below 1"):
                    group_order_bfs(mats, cap=cap)
            else:
                assert group_order_bfs(mats, cap=cap) == _row_closure_order(mats, cap)


def _signed_permutation_matrix(perm, signs) -> list[list[int]]:
    """The matrix sending e_i to signs[i] * e_perm[i]."""
    return [[s * int(p == a) for p, s in zip(perm, signs)] for a in range(len(perm))]


def test_group_order_bfs_agrees_with_the_row_closure_off_weyl_groups():
    """On groups generated by seeded random permutation matrices of 3-8
    points and signed-permutation matrices of 2-5 points, not by simple
    reflections, the chain equals the row-id closure at cap = |G| and
    cap = |G| - 1; one trivial group is drawn, and its cap of 0 is refused."""
    rng = random.Random(29)
    groups = []
    for n in range(3, 9):
        for k in (1, 2, 2, 3):
            groups.append([permutation_matrix(rng.sample(range(n), n)) for _ in range(k)])
    for n in range(2, 6):
        for k in (1, 2, 3):
            groups.append([_signed_permutation_matrix(
                rng.sample(range(n), n), [rng.choice((1, -1)) for _ in range(n)])
                for _ in range(k)])
    orders = set()
    for mats in groups:
        order = _row_closure_order(mats, 10 ** 5)
        orders.add(order)
        for cap in (order, order - 1):
            if cap < 1:  # a trivial group drawn: no group fits a cap of 0
                with pytest.raises(LatticeError, match="cap 0 is below 1"):
                    group_order_bfs(mats, cap=cap)
            else:
                assert group_order_bfs(mats, cap=cap) == _row_closure_order(mats, cap), (mats, cap)
    assert len(orders) > 10 and 40320 in orders  # S_8 among them


def test_group_order_bfs_of_e7_and_e8():
    """Past the default cap the chain still counts E7 and E8 exactly, and at
    cap = |W| - 1 it reports None."""
    for label in ("E7", "E8"):
        gens = weyl_generators(CoxeterDatum.for_type(label))
        order = prod(invariant_degrees(label))
        assert group_order_bfs(gens) is None
        assert group_order_bfs(gens, cap=10 ** 9) == order
        assert group_order_bfs(gens, cap=order) == order
        assert group_order_bfs(gens, cap=order - 1) is None


def test_group_order_bfs_of_the_full_symmetric_group_on_256_points():
    """A 256-cycle and a transposition generate S_256, whose 256 columns fit
    the column ids but whose order passes the default cap: None."""
    cycle = permutation_matrix([(i + 1) % 256 for i in range(256)])
    swap = permutation_matrix([1, 0] + list(range(2, 256)))
    assert group_order_bfs([cycle, swap]) is None


def test_group_order_bfs_equals_orbit_stabilizer_on_every_supported_type():
    """The chain and orbit-stabilizer give the same order on every supported
    type, A8 included, under seeded node relabellings."""
    rng = random.Random(31)
    for label in SUPPORTED_TYPES:
        c = cartan_matrix(label).tolist()
        want = weyl_group_order(c)
        for _ in range(3):
            p = rng.sample(range(len(c)), len(c))
            relabelled = [[c[i][j] for j in p] for i in p]
            datum = CoxeterDatum(label, relabelled, coxeter_matrix_from_cartan(relabelled))
            assert group_order_bfs(weyl_generators(datum)) == want, (label, p)


def test_group_order_bfs_of_transposed_generators():
    """The transposes generate a group of the same order (w -> w^T reverses
    products); their columns are the orbits of the fundamental weights, which
    for E6 number 27 + 27 + 72 + 216 + 216 + 720, past the column budget, so
    the finite transposed E6 is refused."""
    for label in SUPPORTED_TYPES:
        if label in ("A8", "E6"):
            continue
        gens = weyl_generators(CoxeterDatum.for_type(label))
        transposed = [[list(col) for col in zip(*g)] for g in gens]
        assert group_order_bfs(transposed) == group_order_bfs(gens), label
    e6 = weyl_generators(CoxeterDatum.for_type("E6"))
    with pytest.raises(LatticeError, match="more than 256 ids"):
        group_order_bfs([[list(col) for col in zip(*g)] for g in e6])


def test_group_order_bfs_column_budget():
    """256 distinct columns fit one byte each; a 257th ends the closure with
    a LatticeError, unlike the element cap's None, and so does a generator
    of size 257."""
    assert group_order_bfs([permutation_matrix([(i + 1) % 256 for i in range(256)])]) == 256
    for mats in ([permutation_matrix([(i + 1) % 257 for i in range(257)])],
                 [permutation_matrix(range(257))]):
        with pytest.raises(LatticeError, match="more than 256 ids"):
            group_order_bfs(mats)


def test_weyl_group_order_is_the_degree_product():
    """Orbit-stabilizer gives prod d_i for every supported type and E7, E8,
    also on seeded node relabellings of the Cartan matrix."""
    rng = random.Random(5)
    for label in SUPPORTED_TYPES + ("E7", "E8"):
        want = prod(invariant_degrees(label))
        c = cartan_matrix(label).tolist()
        assert weyl_group_order(c) == want, label
        for _ in range(3):
            p = list(range(len(c)))
            rng.shuffle(p)
            assert weyl_group_order([[c[i][j] for j in p] for i in p]) == want, (label, p)


def test_weyl_group_order_agrees_with_bfs():
    """The element-by-element closure and orbit-stabilizer agree on every
    supported type but A8, also on seeded node relabellings."""
    rng = random.Random(11)
    for label in SUPPORTED_TYPES:
        if label == "A8":
            continue
        c = cartan_matrix(label).tolist()
        want = weyl_group_order(c)
        for k in range(4):
            p = list(range(len(c)))
            if k:
                rng.shuffle(p)
            relabelled = np.array([[c[i][j] for j in p] for i in p])
            datum = CoxeterDatum(label, relabelled, coxeter_matrix_from_cartan(relabelled))
            assert group_order_bfs(weyl_generators(datum)) == want, (label, p)


def test_weyl_group_order_cap_and_infinite_groups():
    """An orbit may have exactly `cap` points; one more gives None.  The affine
    and hyperbolic rank-2 groups are infinite and always hit the cap; at cap
    100 the hyperbolic weights already need 138 bits, which int64 would wrap."""
    a2 = cartan_matrix("A2")
    assert weyl_group_order(a2, cap=3) == 6
    assert weyl_group_order(a2, cap=2) is None
    for cartan in ([[2, -2], [-2, 2]], [[2, -3], [-3, 2]]):
        assert weyl_group_order(cartan, cap=100) is None
    assert weyl_group_order([]) == 1


def test_weyl_group_order_rejects_bad_matrices():
    """Non-square and non-Cartan input is a LatticeError, not a wrong order."""
    for bad in ([[2, -1]], [[2, -1], [-1, 2], [0, 0]], [2, -1], [[2.0]],
                [[3]], [[2, 1], [1, 2]], [[2, -1], [0, 2]]):
        with pytest.raises(LatticeError):
            weyl_group_order(bad)


def test_coxeter_element_order_is_order_independent():
    """Products over shuffled generator orders all have the same order."""
    rng = random.Random(7)
    for label, expected in (("A3", 4), ("B3", 6), ("G2", 6)):
        gens = weyl_generators(CoxeterDatum.for_type(label))
        assert coxeter_element_order(gens) == expected
        for _ in range(3):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert coxeter_element_order(shuffled) == expected


def test_braid_and_coxeter_element_are_exact():
    """The hyperbolic pair (two involutions with no braid relation and a
    Coxeter element of infinite order), [[1, 2^62], [0, 1]] and
    [[2^63 - 1, 0], [0, 1]] generate infinite groups, whose unit columns
    pass 256 ids: both questions are refused, not answered modulo 2^64,
    where (2^63 - 1)^2 = 1 and ([[1, 2^62], [0, 1]])^4 = 1."""
    for gens, coxeter in ((HYPERBOLIC, [[1, 3], [3, 1]]), ([[[1, 2 ** 62], [0, 1]]], [[1]]),
                          ([[[2 ** 63 - 1, 0], [0, 1]]], [[1]])):
        with pytest.raises(LatticeError, match="more than 256 ids"):
            braid_relation_check(gens, coxeter)
        with pytest.raises(LatticeError, match="more than 256 ids"):
            coxeter_element_order(gens)
    assert coxeter_element_order([]) == 1
    with pytest.raises(LatticeError):
        braid_relation_check([[[1]], [[1, 0], [0, 1]]], [[1, 2], [2, 1]])


def test_coxeter_element_permutes_the_roots_in_rank_cycles_of_length_h():
    """Kostant (Amer. J. Math. 81, 1959): a Coxeter element permutes the
    roots in r cycles of length h, the Coxeter number.  On every type the
    CLI accepts, c's table has exactly r cycles of length h = max degree, on
    the m = r h column ids; E8's 240 roots fit the 256 ids."""
    labels = _coxeter_types()
    assert len(labels) == 32 and "E8" in labels
    for label in labels:
        datum = CoxeterDatum.for_type(label)
        tables, m = _root_permutations(weyl_generators(datum))
        c = reduce(bytes.translate, reversed(tables), _IDENTITY_PERM)
        h = max(invariant_degrees(label))
        assert m == datum.rank * h, label
        assert _cycle_lengths(c, m) == [h] * datum.rank, label


def _alternating_word_check(mats, coxeter):
    """Reference braid check on matrix products, with no column budget: a
    non-involution fails as (i, i); for involutions the words s_i s_j s_i ...
    and s_j s_i s_j ... of length k agree exactly when (s_i s_j)^k = 1, so a
    pair fails when they agree at some k < m_ij or still differ at k = m_ij."""
    n = len(mats[0])
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, g in enumerate(mats):
        if _matmul(g, g) != identity:
            return False, (i, i)
    for i, j in combinations(range(len(mats)), 2):
        a, b = mats[i], mats[j]
        u, v = a, b
        for k in range(1, coxeter[i][j]):
            if u == v:
                return False, (i, j)
            u, v = _matmul(u, (a, b)[k % 2]), _matmul(v, (b, a)[k % 2])
        if u != v:
            return False, (i, j)
    return True, None


def _power_loop_order(mats, cap=10 ** 4):
    """Reference Coxeter-element order: the least k <= cap with c^k = 1 for
    the matrix product c of mats in their order; None past cap."""
    c = reduce(_matmul, mats)
    identity = [[int(i == j) for j in range(len(c))] for i in range(len(c))]
    power = c
    for k in range(1, cap + 1):
        if power == identity:
            return k
        power = _matmul(power, c)
    return None


def test_braid_and_coxeter_element_agree_with_matrix_products():
    """The tables give the matrix algorithms' answers: on every type the CLI
    accepts, under two seeded relabellings each, for the Weyl generators in a
    shuffled order, for each wrong order from 1 to 12 at a seeded pair, and
    with a seeded generator replaced by a product s_a s_b, a finite
    non-involution (or, for a = b, the identity)."""
    rng = random.Random(37)
    outcomes = set()
    for label in _coxeter_types():
        c = cartan_matrix(label).tolist()
        r = len(c)
        for _ in range(2):
            p = rng.sample(range(r), r)
            relabelled = [[c[i][j] for j in p] for i in p]
            coxeter = coxeter_matrix_from_cartan(relabelled)
            gens = weyl_generators(CoxeterDatum(label, relabelled, coxeter))
            k = rng.randrange(r)
            product = _matmul(gens[rng.randrange(r)], gens[rng.randrange(r)])
            generator_lists = [gens, rng.sample(gens, r), gens[:k] + [product] + gens[k + 1:]]
            cases = [(mats, coxeter) for mats in generator_lists]
            if r > 1:
                i, j = sorted(rng.sample(range(r), 2))
                cases += [(gens, _with_order(coxeter, i, j, m)) for m in range(1, 13)]
            for mats, orders in cases:
                want = _alternating_word_check(mats, orders)
                outcomes.add(want[0])
                assert braid_relation_check(mats, orders) == want, (label, p, mats, orders)
            for mats in generator_lists:
                assert coxeter_element_order(mats) == _power_loop_order(mats), (label, p, mats)
    assert outcomes == {True, False}


def _minus_cartan_lattice(label):
    """The lattice S = -Cartan of a simply-laced type, from Python-int rows."""
    return IntersectionLattice([[-a for a in row] for row in CoxeterDatum.for_type(label).cartan])


def test_minus_cartan_lattices_and_reflections():
    """Simply-laced lattices give involutive reflections preserving the form."""
    for label in ("A2", "A3", "D4"):
        lattice = _minus_cartan_lattice(label)
        s = lattice.form
        assert s == _transpose(s)
        assert all(s[i][i] == -2 for i in range(lattice.rank))
        for i in range(lattice.rank):
            h = pl_reflection(lattice, i)
            for k in range(lattice.rank):
                for l in range(lattice.rank):
                    expected = (1 if k == l else 0) + (s[i][l] if k == i else 0)
                    assert h[k][l] == expected
            assert _matmul(h, h) == _identity(lattice.rank)
            assert _matmul(_matmul(_transpose(h), s), h) == s


def test_reflection_index_must_be_an_integer():
    """The index is read with operator.index: a float or a string is a
    LatticeError, not a TypeError, and a numpy integer is an index."""
    lattice = _minus_cartan_lattice("A2")
    for bad in (1.0, "1", None):
        with pytest.raises(LatticeError, match="not an integer"):
            pl_reflection(lattice, bad)
    assert pl_reflection(lattice, np.int64(1)) == pl_reflection(lattice, 1)
    with pytest.raises(LatticeError, match="out of range"):
        pl_reflection(lattice, 2)


def test_reflections_match_weyl_generators():
    """On S = -Cartan of a simply-laced type both reflection models coincide:
    `pl_reflection` passes `_reflection` the row S_i and `weyl_generators`
    minus column i of the Cartan matrix, which are equal here."""
    for label in ("A2", "A3", "D4"):
        datum = CoxeterDatum.for_type(label)
        lattice = _minus_cartan_lattice(label)
        gens = weyl_generators(datum)
        for i in range(datum.rank):
            assert pl_reflection(lattice, i) == gens[i]


def test_weyl_generators_read_the_cartan_columns():
    """s_i(e_j) = e_j - C_ji e_i: row i of s_i is e_i minus column i of the
    Cartan matrix, which B2 and G2 tell apart from row i."""
    assert weyl_generators(CoxeterDatum.for_type("B2")) == [[[-1, 2], [0, 1]],
                                                          [[1, 0], [1, -1]]]
    assert weyl_generators(CoxeterDatum.for_type("G2")) == [[[-1, 3], [0, 1]],
                                                          [[1, 0], [1, -1]]]


def test_intersection_form_must_be_symmetric():
    """A non-symmetric pairing is not an intersection lattice."""
    with pytest.raises(LatticeError, match="symmetric"):
        IntersectionLattice(np.array([[-2, 1], [0, -2]]))


def test_variation_matrix_properties():
    """W is lower triangular with diagonal -1, S = W + W^T, and det W, the
    product of the diagonal of a triangular matrix, is (-1)^r."""
    for label in ("A2", "A3", "D4"):
        lattice = _minus_cartan_lattice(label)
        w = variation_matrix(lattice)
        r = lattice.rank
        for i in range(r):
            assert w[i][i] == -1
            for j in range(i + 1, r):
                assert w[i][j] == 0
        assert [[a + b for a, b in zip(*rows)] for rows in zip(w, _transpose(w))] == lattice.form
        assert prod(w[i][i] for i in range(r)) == (-1) ** r


def test_fold_d4_by_full_automorphism_group():
    """All six symmetries of the order-4 fork fold it to the rank-2 triple bond."""
    folding = fold("D4", standard_automorphisms("D4", "full"))
    assert folding.folded.label == "G2"
    assert folding.group_order == 6
    assert not folding.group_abelian
    assert group_name(folding.group_order, folding.group_abelian) == "S3"
    assert quotient_rank_check(folding)


def test_fold_d4_by_rotation():
    """A 3-cycle of the outer nodes folds to the same target with group Z/3."""
    folding = fold("D4", standard_automorphisms("D4", "triality"))
    assert folding.folded.label == "G2"
    assert folding.group_order == 3
    assert folding.group_abelian
    assert group_name(folding.group_order, folding.group_abelian) == "Z/3"


def test_fold_flips():
    """Order-2 diagram flips fold to the classical non-simply-laced targets."""
    cases = [("A3", "C2"), ("A5", "C3"), ("A7", "C4"), ("D4", "B3"), ("E6", "F4")]
    for source, target in cases:
        folding = fold(source, standard_automorphisms(source, "flip"))
        assert folding.folded.label == target
        assert folding.group_order == 2
        assert group_name(folding.group_order, folding.group_abelian) == "Z/2"
        assert quotient_rank_check(folding)


def test_fold_identity_is_trivial():
    """Folding by the identity returns the source type with the trivial group."""
    folding = fold("A2", standard_automorphisms("A2", "identity"))
    assert folding.folded.label == "A2"
    assert folding.group_order == 1
    assert group_name(folding.group_order, folding.group_abelian) == "trivial"


def _reachable(i, perms):
    """Every node some word in the permutations sends i to, by brute force."""
    reached = {i}
    while True:
        more = {p[a] for a in reached for p in perms} - reached
        if not more:
            return tuple(sorted(reached))
        reached |= more


@pytest.mark.parametrize("label, name", [
    ("D4", "full"), ("E6", "flip"), ("A7", "flip"), ("A255", "flip")])
def test_a_fold_reads_its_source_once(monkeypatch, label, name):
    """`fold_results` builds the source `CoxeterDatum` once and computes two
    Coxeter matrices, the source's and the folded type's:
    `standard_automorphisms` reads only the rank off the Cartan rows."""
    calls = []
    coxeter_matrix = monodromy.coxeter_matrix_from_cartan
    for_type = CoxeterDatum.for_type.__func__

    def counted_coxeter_matrix(cartan):
        calls.append("coxeter")
        return coxeter_matrix(cartan)

    def counted_for_type(cls, type_label):
        calls.append("for_type")
        return for_type(cls, type_label)

    monkeypatch.setattr(monodromy, "coxeter_matrix_from_cartan", counted_coxeter_matrix)
    monkeypatch.setattr(CoxeterDatum, "for_type", classmethod(counted_for_type))
    assert all(r.status == "pass" for r in fold_results(label, name))
    assert (calls.count("for_type"), calls.count("coxeter")) == (1, 2)


def test_fold_orbits_are_the_reachability_classes():
    """On seeded random sets of permutations of 1 to 8 points, with the
    empty set and the identity among them, the fold's orbits are the classes
    of nodes reachable from one another, each sorted, in the order of their
    smallest node."""
    rng = random.Random(29)
    for r in range(1, 9):
        sets = [[], [tuple(range(r))]] + [
            [tuple(rng.sample(range(r), r)) for _ in range(rng.randint(1, 3))]
            for _ in range(25)]
        for perms in sets:
            classes = {_reachable(i, perms) for i in range(r)}
            assert _orbits(r, perms) == sorted(classes, key=min), (r, perms)


def test_fold_validates_automorphisms():
    """Permutations that break the Cartan matrix or bonds are rejected, and so
    are non-integer entries: (0, 1, 3.5, 2) was read as (0, 1, 3, 2).  numpy
    integer entries pass."""
    for bad in ([(0, 1, 3.5, 2)], [(0, 1, "3", 2)], [3]):
        with pytest.raises(FoldingError, match="not a permutation"):
            fold("D4", bad)
    assert fold("D4", [np.array([0, 1, 3, 2])]).group_order == 2
    with pytest.raises(FoldingError):
        fold("A3", [(1, 0, 2)])
    with pytest.raises(FoldingError):
        fold("B3", [(0, 1, 2)])
    with pytest.raises(FoldingError):
        fold("A2", [(1, 0)])


def test_automorphisms_preserve_cartan_matrix():
    """sigma^T C sigma = C for every standard automorphism."""
    for label, name in [("A3", "flip"), ("D4", "triality"), ("D4", "full"),
                        ("E6", "flip")]:
        c = cartan_matrix(label).tolist()
        for perm in standard_automorphisms(label, name):
            p = permutation_matrix(perm)
            assert _matmul(_matmul(_transpose(p), c), p) == c
