"""Poisson structures, the bracket, the Jacobi audit and Casimirs."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from brackets import reference_bracket
from randpoly import random_polynomial
from vancyc.poly import AmbientMismatchError, PolyError, Polynomial, variables
from vancyc.steinberg import steinberg_kks, steinberg_map
from vancyc.symplectic import (
    MapGerm,
    PoissonStructure,
    casimir_check,
    jacobi_check,
    poisson_bracket,
)

AMB = ("q1", "p1", "q2", "p2", "q3", "p3")
PAIRS = (("q1", "p1"), ("q2", "p2"), ("q3", "p3"))
CANONICAL = PoissonStructure.from_pairs(AMB, PAIRS)


def _rand(rng, max_terms=4):
    return random_polynomial(rng, AMB, max_terms=max_terms, max_exp=3)


def _canonical_structure():
    """The constant matrix of the canonical bracket, by hand: Pi(q_l, p_l) = 1."""
    zero = Polynomial.zero(AMB)
    one = Polynomial.constant(AMB, 1)
    rows = [[zero] * len(AMB) for _ in AMB]
    for q, p in PAIRS:
        i, j = AMB.index(q), AMB.index(p)
        rows[i][j], rows[j][i] = one, -one
    return PoissonStructure(AMB, rows)


def test_bracket_antisymmetry_and_bilinearity():
    """{f, g} = -{g, f} and the bracket is Q-linear in each slot."""
    rng = random.Random(2)
    for _ in range(8):
        f, g, h = _rand(rng), _rand(rng), _rand(rng)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert poisson_bracket(f, g, CANONICAL) == -poisson_bracket(g, f, CANONICAL)
        assert (poisson_bracket(f.scale(c) + g, h, CANONICAL)
                == poisson_bracket(f, h, CANONICAL).scale(c) + poisson_bracket(g, h, CANONICAL))


def test_bracket_leibniz():
    """{fg, h} = f{g, h} + g{f, h} on random inputs."""
    rng = random.Random(9)
    for _ in range(6):
        f, g, h = _rand(rng, 3), _rand(rng, 3), _rand(rng, 3)
        assert (poisson_bracket(f * g, h, CANONICAL)
                == f * poisson_bracket(g, h, CANONICAL) + g * poisson_bracket(f, h, CANONICAL))


def test_bracket_jacobi_randomized():
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}} = 0 for random cubics."""
    rng = random.Random(29)
    for _ in range(5):
        f, g, h = _rand(rng, 3), _rand(rng, 3), _rand(rng, 3)
        total = (poisson_bracket(f, poisson_bracket(g, h, CANONICAL), CANONICAL)
                 + poisson_bracket(g, poisson_bracket(h, f, CANONICAL), CANONICAL)
                 + poisson_bracket(h, poisson_bracket(f, g, CANONICAL), CANONICAL))
        assert total.is_zero()


def test_bracket_goldens():
    """{q_i, p_j} = delta_ij and disjoint pairs commute."""
    q1, p1, q2, p2, q3, p3 = variables(AMB)
    one = Polynomial.constant(AMB, 1)
    assert poisson_bracket(q1, p1, CANONICAL) == one
    assert poisson_bracket(q1, p2, CANONICAL).is_zero()
    assert poisson_bracket(q1, q2, CANONICAL).is_zero()
    f = q1 * q1 * p1
    g = q2 * p2 * p2 + q3
    assert poisson_bracket(f, g, CANONICAL).is_zero()


def test_canonical_structure_matches_direct_bracket():
    """The constant-matrix structure reproduces the canonical bracket."""
    rng = random.Random(43)
    structure = _canonical_structure()
    for _ in range(6):
        f, g = _rand(rng, 3), _rand(rng, 3)
        assert reference_bracket(f, g, structure) == poisson_bracket(f, g, CANONICAL)
    assert jacobi_check(structure)


def test_from_pairs_builds_the_canonical_matrix():
    """from_pairs equals the hand-built matrix; an unpaired variable gets a
    zero row and column; a reused variable and a pair outside the ambient
    are refused."""
    assert CANONICAL == _canonical_structure()
    amb = ("q1", "p1", "z")
    structure = PoissonStructure.from_pairs(amb, [("q1", "p1")])
    one = Polynomial.constant(amb, 1)
    assert structure.matrix[0][1] == one and structure.matrix[1][0] == -one
    assert not any(structure.matrix[2]) and not any(row[2] for row in structure.matrix)
    assert casimir_check(Polynomial.variable(amb, "z"), structure)
    with pytest.raises(PolyError, match="reuses a variable"):
        PoissonStructure.from_pairs(amb, [("q1", "p1"), ("p1", "z")])
    with pytest.raises(PolyError, match="reuses a variable"):
        PoissonStructure.from_pairs(amb, [("q1", "q1")])
    with pytest.raises(AmbientMismatchError, match=r"\['w'\]"):
        PoissonStructure.from_pairs(amb, [("q1", "p1"), ("z", "w")])


def test_bracket_on_the_lie_poisson_structure():
    """On sl_3's Lie-Poisson structure the bracket is the coordinate formula
    on seeded polynomials, and every characteristic coefficient brackets to
    zero with every coordinate."""
    s = steinberg_map(2)
    structure = steinberg_kks(s)
    rng = random.Random(71)
    for _ in range(6):
        f, g = (random_polynomial(rng, s.ambient, max_terms=3, max_exp=2)
                for _ in range(2))
        assert poisson_bracket(f, g, structure) == reference_bracket(f, g, structure)
    for x in variables(s.ambient):
        for c in s.components:
            assert poisson_bracket(x, c, structure).is_zero()


def test_bracket_rejects_a_foreign_ambient():
    """Arguments over different ambients, or over one the structure does not
    share, are errors."""
    q1 = Polynomial.variable(("q1", "p1"), "q1")
    with pytest.raises(AmbientMismatchError):
        poisson_bracket(q1, Polynomial.variable(AMB, "q1"), CANONICAL)
    with pytest.raises(AmbientMismatchError):
        poisson_bracket(q1, q1, CANONICAL)


def test_structure_requires_antisymmetry():
    """A symmetric coefficient matrix is rejected at construction."""
    amb = ("x1", "x2")
    one = Polynomial.constant(amb, 1)
    zero = Polynomial.zero(amb)
    with pytest.raises(PolyError):
        PoissonStructure(amb, [[zero, one], [one, zero]])


def test_structure_requires_square_matrix_over_its_ambient():
    """A matrix of the wrong size, a ragged one, an empty ambient and an entry
    over another ambient are rejected at construction."""
    amb = ("x1", "x2")
    zero = Polynomial.zero(amb)
    for rows in ([[zero]], [[zero, zero], [zero]], [[zero, zero, zero]] * 3):
        with pytest.raises(PolyError):
            PoissonStructure(amb, rows)
    with pytest.raises(PolyError):
        PoissonStructure((), [])
    with pytest.raises(AmbientMismatchError):
        PoissonStructure(amb, [[zero, Polynomial.zero(("x1",))], [zero, zero]])


def test_jacobi_check_counterexample():
    """A bracket with Pi_12 = x1, Pi_23 = x1 + x2 violates Jacobi."""
    amb = ("x1", "x2", "x3")
    x1 = Polynomial.variable(amb, "x1")
    x2 = Polynomial.variable(amb, "x2")
    zero = Polynomial.zero(amb)
    rows = [
        [zero, x1, zero],
        [-x1, zero, x1 + x2],
        [zero, -(x1 + x2), zero],
    ]
    structure = PoissonStructure(amb, rows)
    assert not jacobi_check(structure)


def test_casimir_check():
    """Constants are always Casimirs; coordinates are not for the canonical bracket."""
    structure = _canonical_structure()
    assert casimir_check(Polynomial.constant(AMB, 5), structure)
    assert not casimir_check(Polynomial.variable(AMB, "q1"), structure)
    amb = ("x1", "x2")
    zero = Polynomial.zero(amb)
    trivial = PoissonStructure(amb, [[zero, zero], [zero, zero]])
    assert casimir_check(Polynomial.variable(amb, "x1"), trivial)


def test_map_germ_must_vanish_at_origin():
    """Components with a constant term are rejected."""
    amb = ("q1", "p1")
    q1, p1 = variables(amb)
    one = Polynomial.constant(amb, 1)
    with pytest.raises(PolyError):
        MapGerm(amb, [p1 * q1 + one])
    with pytest.raises(PolyError):
        MapGerm(amb, [])


# ---------------------------------------------------------------------------
# The contraction against the coordinate formulas it replaced
# ---------------------------------------------------------------------------

def _reference_jacobi(structure):
    """{x_a, {x_b, x_c}} summed cyclically, by double coordinate brackets."""
    coords = variables(structure.ambient)
    for i, j, k in combinations(range(len(coords)), 3):
        total = Polynomial.zero(structure.ambient)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = reference_bracket(coords[b], coords[c], structure)
            total = total + reference_bracket(coords[a], inner, structure)
        if total:
            return False
    return True


def _reference_casimir(c, structure):
    """{c, x_i} = 0 for every coordinate x_i."""
    return all(not reference_bracket(c, x, structure)
               for x in variables(structure.ambient))


X4 = ("x1", "x2", "x3", "x4")


def _form(rng, degree, terms=3):
    """A random form of the given degree on X4 with small integer coefficients."""
    out = Polynomial.zero(X4)
    for _ in range(terms):
        exps = [0] * len(X4)
        for _ in range(degree):
            exps[rng.randrange(len(X4))] += 1
        out = out + Polynomial(X4, {tuple(exps): rng.randint(-3, 3)})
    return out


def _antisymmetric(entries):
    """The structure with Pi_ij = entries[i, j] for i < j."""
    zero = Polynomial.zero(X4)
    rows = [[zero] * len(X4) for _ in X4]
    for (i, j), e in entries.items():
        rows[i][j], rows[j][i] = e, -e
    return PoissonStructure(X4, rows)


def _random_structure(rng):
    """Linear and quadratic entries drawn independently; Jacobi usually fails."""
    return _antisymmetric({(i, j): _form(rng, rng.choice((1, 2)))
                           for i, j in combinations(range(len(X4)), 2)
                           if rng.random() < 0.7})


def _nambu_structure(rng):
    """Pi_ij = f eps_ijk d_k h on x1..x3 with x4 a parameter: a Poisson
    structure for any f and h, with h a Casimir.  f is linear or constant and
    h quadratic, so the entries are quadratic or linear."""
    f = _form(rng, rng.choice((0, 1)))
    h = _form(rng, 2, terms=4)
    dh = [h.partial_derivative(v) for v in X4[:3]]
    return _antisymmetric({(0, 1): f * dh[2], (1, 2): f * dh[0],
                           (0, 2): -(f * dh[1])}), h


def _assert_matches_reference(structure, rng, casimirs=()):
    amb = structure.ambient
    assert jacobi_check(structure) == _reference_jacobi(structure)
    for c in (*casimirs, Polynomial.constant(amb, 3), *variables(amb),
              random_polynomial(rng, amb, max_terms=3, max_exp=2)):
        assert casimir_check(c, structure) == _reference_casimir(c, structure)


def test_flow_matches_the_coordinate_formulas_on_random_structures():
    """The Jacobi audit and the Casimir test agree with the double
    coordinate brackets and {c, x_i} on seeded structures that satisfy
    Jacobi and on ones that break it."""
    rng = random.Random(61)
    broken = 0
    for _ in range(6):
        structure = _random_structure(rng)
        _assert_matches_reference(structure, rng)
        broken += not jacobi_check(structure)
    assert broken
    for _ in range(6):
        structure, h = _nambu_structure(rng)
        assert jacobi_check(structure)
        assert casimir_check(h, structure)
        _assert_matches_reference(structure, rng, casimirs=(h,))


def test_flow_matches_the_coordinate_formulas_on_named_structures():
    """The same agreement on the canonical, sl_2 and sl_3 structures, with
    the characteristic coefficients as Casimirs."""
    rng = random.Random(67)
    _assert_matches_reference(_canonical_structure(), rng)
    for r in (1, 2):
        s = steinberg_map(r)
        _assert_matches_reference(steinberg_kks(s), rng, casimirs=s.components)


def test_casimir_check_rejects_a_foreign_ambient():
    """A polynomial over another ambient is an error, not a verdict."""
    with pytest.raises(AmbientMismatchError):
        casimir_check(Polynomial.variable(("q1", "p1"), "q1"), _canonical_structure())
