"""Every coefficient stays in canonical form, an int when it is an integer and
otherwise a Fraction with denominator > 1, through each operation that
builds a Polynomial, through Groebner bases, and through the critical ideals
and discriminants of the bundled and suite germs; no float gets in."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from canonical import assert_canonical, is_canonical_coefficient
from orders import ORDERS
from randpoly import random_polynomial
from vancyc.germfile import load_germ_file
from vancyc.groebner import IdealBasis, buchberger, divmod_polynomials
from vancyc.poly import (
    PolyError,
    Polynomial,
    exact_divide,
    gcd_polynomials,
    normalized,
    parse_polynomial,
    rational_rank,
    rref,
    variables,
)
from vancyc.singularity import action_coordinates_germ, critical_ideal, discriminant
from vancyc.suite import AL_MATRICES, basic_germ, henon_heiles_germ

AMB = ("x", "y", "z")


def _integral(p):
    """p with its coefficients rounded to nonzero ints, so that integer and
    rational inputs both occur."""
    return Polynomial(p.ambient, {e: round(c) or 1 for e, c in p.terms.items()})


def _inputs(rng, count):
    for run in range(count):
        p, q, r = (random_polynomial(rng, AMB, max_terms=4, max_exp=2, nonzero=True)
                   for _ in range(3))
        if run % 2:
            p, q = _integral(p), _integral(q)
        yield p, q, r


def test_calculus_substitution_and_ambient_changes_are_canonical():
    """partial_derivative, substitute, over, coefficient_in and evaluate
    leave no integral Fraction behind: x^2/2 differentiates to the int 1."""
    rng = random.Random(31)
    for p, q, r in _inputs(rng, 40):
        for v in AMB:
            assert_canonical(p.partial_derivative(v))
        assert_canonical(p.substitute({"x": q, "y": r}))
        assert_canonical(p.over(("z", "w", "y", "x")))
        for degree in range(3):
            assert_canonical(p.coefficient_in("x", degree))
        value = p.evaluate({"x": Fraction(1, 2), "y": 2, "z": Fraction(4, 2)})
        assert is_canonical_coefficient(value)
    half_square = parse_polynomial("1/2*x^2 + 3/2*y", AMB)
    assert half_square.partial_derivative("x").terms == {(1, 0, 0): 1}
    assert type(half_square.partial_derivative("y").terms[(0, 0, 0)]) is Fraction
    assert type(half_square.evaluate({"x": 1, "y": 1})) is int


def test_division_gcd_and_normalization_are_canonical():
    """Quotients and remainders of divmod_polynomials, exact_divide,
    normalized and gcd_polynomials give canonical coefficients, and the
    quotients are exact."""
    rng = random.Random(37)
    for p, q, r in _inputs(rng, 30):
        for key in ORDERS.values():
            quotients, remainder = divmod_polynomials(p, [q, r], key)
            for part in quotients + [remainder]:
                assert_canonical(part)
            assert quotients[0] * q + quotients[1] * r + remainder == p
        assert_canonical(normalized(p))
        assert exact_divide(p * q, q) == p
        assert_canonical(exact_divide(p * q, q))
    x, y, _ = variables(AMB)
    g = gcd_polynomials((x - y).scale(Fraction(2, 3)) * (x + 1), (x - y) * (y + 2))
    assert g == x - y
    assert_canonical(g)
    assert_canonical(gcd_polynomials(x.scale(Fraction(1, 2)) * y, x * y * y))


def test_groebner_elements_are_canonical():
    """The reduced basis of a run is monic with canonical coefficients, for
    rational and for integer generators under every order."""
    ideals = [["x^2*y - 1/2*z", "2*x*y^2 - 3/4*x", "y*z - x"],
              ["3*x^2 - y", "2/5*y^2 - z", "-4*x*z + 2/3*y*z^2 - 1"],
              ["x^3 - 2*x*y", "x^2*y - 2*y^2 + x"]]
    for gens in ideals:
        ideal = IdealBasis(AMB, [parse_polynomial(g, AMB) for g in gens])
        for key in ORDERS.values():
            elements = buchberger(ideal, key).elements
            assert elements
            for g in elements:
                assert_canonical(g)
                assert g.lead(key)[1] == 1 and type(g.lead(key)[1]) is int


def _germs(germs_dir):
    for path in sorted(germs_dir.glob("*.germ")):
        yield path.name, load_germ_file(path).to_map_germ()
    yield "basic", basic_germ()
    yield "henon-heiles", henon_heiles_germ()
    for (n, k), R in AL_MATRICES.items():
        yield f"al-{n}-{k}", action_coordinates_germ(n, k, R)


def test_critical_ideals_and_discriminants_are_canonical(germs_dir):
    """The five bundled germ files and the suite's germs: every coefficient
    of each critical ideal, eliminated ideal and reduced generator is an int
    or a Fraction with denominator > 1, never a float."""
    names = []
    for name, germ in _germs(germs_dir):
        names.append(name)
        for g in critical_ideal(germ).generators:
            assert_canonical(g)
        d = discriminant(germ)
        for g in d.ideal.generators:
            assert_canonical(g)
        if d.reduced_generator is not None:
            assert_canonical(d.reduced_generator)
    assert len(names) == 5 + 2 + len(AL_MATRICES)


def test_integral_fractions_build_the_same_polynomial():
    """Fraction(4, 2) and 2 build equal Polynomials with equal hashes and an
    int coefficient; copies and pickles round-trip in canonical form."""
    from_fraction = Polynomial(AMB, {(1, 0, 0): Fraction(4, 2), (0, 0, 0): Fraction(1, 3)})
    from_int = Polynomial(AMB, {(1, 0, 0): 2, (0, 0, 0): Fraction(1, 3)})
    assert from_fraction == from_int
    assert hash(from_fraction) == hash(from_int)
    assert type(from_fraction.terms[(1, 0, 0)]) is int
    assert Polynomial.constant(AMB, Fraction(6, 3)).terms == {(0, 0, 0): 2}
    assert type(Polynomial.constant(AMB, True).terms[(0, 0, 0)]) is int
    assert parse_polynomial("4/2*x + 1/3", AMB) == from_int
    # two keys that name the same exponent tuple are summed, into an int here
    merged = Polynomial(AMB, {(1, 2, 3): Fraction(1, 2), range(1, 4): Fraction(1, 2)})
    assert merged.terms == {(1, 2, 3): 1} and type(merged.terms[(1, 2, 3)]) is int
    halves = Polynomial(AMB, {(1, 0, 0): Fraction(1, 2)})
    assert type((halves + halves).terms[(1, 0, 0)]) is int
    assert type((halves * Polynomial.constant(AMB, 2)).terms[(1, 0, 0)]) is int
    assert type(halves.scale(4).terms[(1, 0, 0)]) is int
    for p in (from_int, halves, Polynomial.zero(AMB)):
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert twin == p and hash(twin) == hash(p)
            assert_canonical(twin)


def test_floats_are_refused():
    """A float is refused wherever a coefficient or a matrix entry enters."""
    p = parse_polynomial("x + 1", AMB)
    with pytest.raises(PolyError, match="rational"):
        Polynomial(AMB, {(0, 0, 0): 1.0})
    with pytest.raises(PolyError, match="rational"):
        Polynomial.constant(AMB, 0.5)
    with pytest.raises(PolyError, match="rational"):
        p.scale(2.0)
    with pytest.raises(PolyError, match="rational"):
        p.evaluate({"x": 0.5})
    with pytest.raises(PolyError, match="rational"):
        rref([[1, 2.0]])
    with pytest.raises(PolyError, match="rational"):
        rational_rank([[0.5]])
