"""The vanishing-cycle lattices of the Brieskorn-Pham germs x^a + y^b + z^c.

Pham's distinguished basis has Seifert matrix V = V_a (x) V_b (x) V_c, where
V_a is the (a-1) x (a-1) matrix with 1 on the diagonal and -1 just above it,
and intersection form S = -(V + V^T) (Sebastiani and Thom, Bull. SMF 99,
1971; Gabrielov, Funct. Anal. Appl. 7, 1973).  On these lattices the
library's Picard-Lefschetz reflections T_i = `pl_reflection(S, i)` must give
the values the paper's isolated-singularity baseline predicts: rank S = mu,
the variation matrix -V^T, the integer identity V T_1...T_mu = -V^T in the
column convention of `pl_reflection`, the monodromy's eigenvalues as power
traces (Milnor and Orlik, Topology 9, 1970), and for the simple
singularities the root count, Coxeter number, group order and ADE type of
the form.  `_seifert` is written here once more, as the oracle of the
library's `pham_seifert_matrix` and of the Pham forms the suite gates on.
"""

from functools import reduce
from math import lcm, prod

import pytest

from vancyc.monodromy import (IntersectionLattice, LatticeError, coxeter_element_order,
                              group_order_bfs, identify_type, pham_seifert_matrix,
                              pl_reflection, variation_matrix)
from vancyc.monodromy import _identity, _matmul, _root_permutations, _transpose
from vancyc.poly import parse_polynomial, rational_rank
from vancyc.singularity import milnor_number
from vancyc.suite import _PHAM_TYPES

# (a, b, c) -> type, roots, Coxeter number, group order (None past 10**6), det(-S)
SIMPLE = {
    (2, 2, 2): ("A1", 2, 2, 2, 2),
    (2, 2, 3): ("A2", 6, 3, 6, 3),
    (2, 2, 4): ("A3", 12, 4, 24, 4),
    (2, 2, 5): ("A4", 20, 5, 120, 5),
    (2, 2, 6): ("A5", 30, 6, 720, 6),
    (2, 3, 3): ("D4", 24, 6, 192, 4),
    (2, 3, 4): ("E6", 72, 12, 51840, 3),
    (2, 3, 5): ("E8", 240, 30, None, 1),
}
# (a, b, c) -> rank of S
PARABOLIC = {(3, 3, 3): 6, (2, 4, 4): 7, (2, 3, 6): 8}


def _name(exponents):
    return "".join(map(str, exponents))


def _seifert(exponents):
    def block(a):
        return [[1 if j == i else -1 if j == i + 1 else 0 for j in range(a - 1)]
                for i in range(a - 1)]

    def kron(a, b):
        return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]

    return reduce(kron, map(block, exponents))


def _pham(exponents):
    """(V, S, the reflections T_1..T_mu) of Pham's basis."""
    v = _seifert(exponents)
    mu = len(v)
    s = [[-(v[i][j] + v[j][i]) for j in range(mu)] for i in range(mu)]
    lattice = IntersectionLattice(s)
    return v, s, [pl_reflection(lattice, i) for i in range(mu)]


def _negated(m):
    return [[-x for x in row] for row in m]


def _roots(reflections):
    """The orbit of the basis vectors under the reflections, acting on columns."""
    n = len(reflections)
    found = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    seen = set(found)
    for root in found:  # the list grows while it is read
        for t in reflections:
            image = tuple(sum(a * x for a, x in zip(row, root)) for row in t)
            if image not in seen:
                seen.add(image)
                found.append(image)
    return found


def _simple_root_cartan(s, roots):
    """-S on the simple roots of the positive system that a generic integer
    functional cuts out: the positive roots that are not the sum of two."""
    weights = [3 ** k + k for k in range(len(s))]
    heights = {r: sum(map(int.__mul__, weights, r)) for r in roots}
    assert all(heights.values())
    positive = {r for r in roots if heights[r] > 0}
    sums = {tuple(map(int.__add__, a, b)) for a in positive for b in positive}
    simple = sorted(positive - sums, key=heights.get)
    assert len(simple) == len(s)
    return [[-sum(a[i] * s[i][j] * b[j] for i in range(len(s)) for j in range(len(s)))
             for b in simple] for a in simple]


@pytest.mark.parametrize("exponents", [*SIMPLE, *PARABOLIC], ids=_name)
def test_library_seifert_matrix_is_pham_s(exponents):
    """`pham_seifert_matrix` is the Kronecker product written out above."""
    assert pham_seifert_matrix(exponents) == _seifert(exponents)


def test_suite_forms_carry_their_types():
    """Each Pham form the suite gates on is tabled with the type given here."""
    assert _PHAM_TYPES and all(SIMPLE[e][0] == label for e, label in _PHAM_TYPES.items())


@pytest.mark.parametrize("exponents", [*SIMPLE, *PARABOLIC], ids=_name)
def test_monodromy_eigenvalues_by_power_traces(exponents):
    """The monodromy h = T_1...T_mu has the eigenvalues of Milnor and Orlik:
    the products of nontrivial x-th roots of unity over x in (a, b, c).  So
    tr(h^m) is the product over x of x - 1 when x divides m and -1
    otherwise, for m = 1..lcm(a, b, c), and h^lcm(a, b, c) = I."""
    _, _, reflections = _pham(exponents)
    h = reduce(_matmul, reflections)
    power = _identity(len(h))
    for m in range(1, lcm(*exponents) + 1):
        power = _matmul(power, h)
        expected = prod(x - 1 if m % x == 0 else -1 for x in exponents)
        assert sum(power[i][i] for i in range(len(h))) == expected, m
    assert power == _identity(len(h))


@pytest.mark.parametrize("exponents", [*SIMPLE, *PARABOLIC], ids=_name)
def test_lattice_rank_and_milnor_number(exponents):
    """mu = (a-1)(b-1)(c-1) is the Milnor number of the germ; S has rank mu
    on the simple forms and mu - 2 on the parabolic ones."""
    a, b, c = exponents
    v, s, _ = _pham(exponents)
    mu = (a - 1) * (b - 1) * (c - 1)
    germ = parse_polynomial(f"x^{a} + y^{b} + z^{c}", ("x", "y", "z"))
    assert len(v) == mu == milnor_number(germ)
    assert rational_rank(s) == PARABOLIC.get(exponents, mu)


@pytest.mark.parametrize("exponents", [*SIMPLE, *PARABOLIC], ids=_name)
def test_variation_and_picard_lefschetz_product(exponents):
    """The variation matrix of S is -V^T, and V T_1...T_mu = -V^T; the product
    on the other side, T_1...T_mu V, is -V^T only for A1."""
    v, s, reflections = _pham(exponents)
    minus_vt = _negated(_transpose(v))
    product = reduce(_matmul, reflections)
    assert variation_matrix(IntersectionLattice(s)) == minus_vt
    assert _matmul(v, product) == minus_vt
    assert (_matmul(product, v) == minus_vt) == (exponents == (2, 2, 2))


@pytest.mark.parametrize("exponents", SIMPLE, ids=_name)
def test_simple_forms_give_their_weyl_groups(exponents):
    """The reflections of a simple form close the unit columns into r h roots,
    the Coxeter element has order h, the group has the order of the Weyl
    group, and -S on the simple roots is the Cartan matrix of the type."""
    label, roots, coxeter_number, order, _ = SIMPLE[exponents]
    _, s, reflections = _pham(exponents)
    assert _root_permutations(reflections)[1] == roots
    assert coxeter_element_order(reflections) == coxeter_number
    assert group_order_bfs(reflections) == order
    found = _roots(reflections)
    assert len(found) == roots
    assert identify_type(_simple_root_cartan(s, found)) == label


@pytest.mark.parametrize("exponents", PARABOLIC, ids=_name)
def test_parabolic_forms_have_infinitely_many_roots(exponents):
    """The columns of a parabolic form's reflections pass 256 ids, so there
    is no root table and no Coxeter element order."""
    _, _, reflections = _pham(exponents)
    with pytest.raises(LatticeError, match="more than 256 ids"):
        _root_permutations(reflections)
    with pytest.raises(LatticeError, match="more than 256 ids"):
        coxeter_element_order(reflections)


def test_discriminants_of_simple_forms_by_sympy():
    """det(-S) is the determinant of the Cartan matrix of the type."""
    sympy = pytest.importorskip("sympy")
    for exponents, (*_, det) in SIMPLE.items():
        _, s, _ = _pham(exponents)
        assert sympy.Matrix(_negated(s)).det() == det, exponents
