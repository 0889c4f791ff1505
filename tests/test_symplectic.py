"""Canonical and general Poisson brackets and Hamiltonian fields."""

import random
from fractions import Fraction

import pytest

from conftest import random_polynomial
from vancyc.poly import PolyError, PolyMatrix, Polynomial, variables
from vancyc.symplectic import (
    MapGerm,
    PoissonStructure,
    SymplecticContext,
    casimir_check,
    general_bracket,
    hamiltonian_vector_field,
    is_involutive,
    jacobi_check,
    poisson_bracket,
)

AMB = ("q1", "p1", "q2", "p2", "q3", "p3")
CTX = SymplecticContext.from_pairs([("q1", "p1"), ("q2", "p2"), ("q3", "p3")])


def _rand(rng, max_terms=4):
    return random_polynomial(rng, AMB, max_terms=max_terms, max_exp=3)


def test_bracket_antisymmetry_and_bilinearity():
    """{f, g} = -{g, f} and the bracket is Q-linear in each slot."""
    rng = random.Random(2)
    for _ in range(8):
        f, g, h = _rand(rng), _rand(rng), _rand(rng)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert poisson_bracket(f, g, CTX) == -poisson_bracket(g, f, CTX)
        assert (poisson_bracket(f.scale(c) + g, h, CTX)
                == poisson_bracket(f, h, CTX).scale(c) + poisson_bracket(g, h, CTX))


def test_bracket_leibniz():
    """{fg, h} = f{g, h} + g{f, h} on random inputs."""
    rng = random.Random(9)
    for _ in range(6):
        f, g, h = _rand(rng, 3), _rand(rng, 3), _rand(rng, 3)
        assert (poisson_bracket(f * g, h, CTX)
                == f * poisson_bracket(g, h, CTX) + g * poisson_bracket(f, h, CTX))


def test_bracket_jacobi_randomized():
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}} = 0 for random cubics."""
    rng = random.Random(29)
    for _ in range(5):
        f, g, h = _rand(rng, 3), _rand(rng, 3), _rand(rng, 3)
        total = (poisson_bracket(f, poisson_bracket(g, h, CTX), CTX)
                 + poisson_bracket(g, poisson_bracket(h, f, CTX), CTX)
                 + poisson_bracket(h, poisson_bracket(f, g, CTX), CTX))
        assert total.is_zero()


def test_bracket_goldens():
    """{q_i, p_j} = delta_ij and disjoint pairs commute."""
    q1, p1, q2, p2, q3, p3 = variables(AMB)
    one = Polynomial.constant(AMB, 1)
    assert poisson_bracket(q1, p1, CTX) == one
    assert poisson_bracket(q1, p2, CTX).is_zero()
    assert poisson_bracket(q1, q2, CTX).is_zero()
    f = q1 * q1 * p1
    g = q2 * p2 * p2 + q3
    assert poisson_bracket(f, g, CTX).is_zero()


def test_hamiltonian_field_matches_bracket():
    """Applying X_h to f term-by-term reproduces {f, h}."""
    rng = random.Random(37)
    for _ in range(6):
        f, h = _rand(rng, 3), _rand(rng, 3)
        field = hamiltonian_vector_field(h, CTX)
        applied = Polynomial.zero(AMB)
        for v, comp in zip(AMB, field):
            applied = applied + f.partial_derivative(v) * comp
        assert applied == poisson_bracket(f, h, CTX)


def test_hamiltonian_field_golden():
    """X_h for h = p1 q1 is (q1, -p1, 0, ...) in ambient order."""
    q1, p1 = variables(AMB)[:2]
    field = hamiltonian_vector_field(p1 * q1, CTX)
    assert field[0] == q1
    assert field[1] == -p1
    assert all(c.is_zero() for c in field[2:])


def test_canonical_structure_matches_direct_bracket():
    """The constant-matrix structure reproduces the canonical bracket."""
    rng = random.Random(43)
    structure = PoissonStructure.canonical(CTX, AMB)
    for _ in range(6):
        f, g = _rand(rng, 3), _rand(rng, 3)
        assert general_bracket(f, g, structure) == poisson_bracket(f, g, CTX)
    assert jacobi_check(structure)


def test_structure_requires_antisymmetry():
    """A symmetric coefficient matrix is rejected at construction."""
    amb = ("x1", "x2")
    one = Polynomial.constant(amb, 1)
    zero = Polynomial.zero(amb)
    with pytest.raises(PolyError):
        PoissonStructure(amb, PolyMatrix.from_rows([[zero, one], [one, zero]]))


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
    structure = PoissonStructure(amb, PolyMatrix.from_rows(rows))
    assert not jacobi_check(structure)


def test_casimir_check():
    """Constants are always Casimirs; coordinates are not for the canonical bracket."""
    structure = PoissonStructure.canonical(CTX, AMB)
    assert casimir_check(Polynomial.constant(AMB, 5), structure)
    assert not casimir_check(Polynomial.variable(AMB, "q1"), structure)
    amb = ("x1", "x2")
    zero = Polynomial.zero(amb)
    trivial = PoissonStructure(amb, PolyMatrix.from_rows([[zero, zero], [zero, zero]]))
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


def test_is_involutive_witness():
    """Non-commuting components yield a 1-based witness with the bracket."""
    amb = ("q1", "p1")
    ctx = SymplecticContext.from_pairs([("q1", "p1")])
    q1, p1 = variables(amb)
    ok, witness = is_involutive(MapGerm(amb, [q1, p1], ctx))
    assert not ok
    assert witness[0] == 1 and witness[1] == 2
    assert witness[2] == Polynomial.constant(amb, 1)
    ok, witness = is_involutive(MapGerm(amb, [q1, q1 * q1], ctx))
    assert ok and witness is None

