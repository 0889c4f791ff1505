"""gcd, squarefree part and resultant agree with sympy on seeded inputs.

Inputs are products of small random factors raised to random powers, in one
or two effective variables of a three-variable ambient, so repeated factors
and factors shared between the two arguments are common.  sympy is an
independent oracle used by the tests only; the module is skipped when it is
not installed.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from randpoly import random_polynomial  # noqa: E402
from vancyc.poly import (Polynomial, gcd_polynomials, normalized,  # noqa: E402
                         resultant, squarefree_part_bivariate)

AMB = ("x", "y", "z")
FRAMES = (("y",), ("z",), ("x", "y"), ("x", "z"), ("y", "z"))


def _to_sympy(p: Polynomial):
    symbols = sympy.symbols(p.ambient)
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
                for exps, c in p.terms.items()), sympy.Integer(0))


def _from_sympy(expr, ambient) -> Polynomial:
    poly = sympy.Poly(expr, *sympy.symbols(ambient), domain="QQ")
    return Polynomial(ambient, {exps: Fraction(int(c.p), int(c.q))
                                for exps, c in poly.terms()})


def _factor(rng, frame, var=None):
    """A random non-constant factor in the frame's variables, of positive
    degree in var when var is given."""
    while True:
        f = random_polynomial(rng, frame, max_terms=3, max_exp=2).extend(AMB)
        if not f.is_constant() and (var is None or f.degree_in(var) > 0):
            return f


def _product(rng, factors, var, top):
    """A random rational multiple of some of the factors, each to a power
    1..top, of positive degree in var when var is given."""
    p = Polynomial.constant(AMB, Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)))
    for f in factors:
        if rng.random() < 0.7:
            p = p * f ** rng.randint(1, top)
    if var is not None and p.degree_in(var) < 1:
        p = p * factors[0]
    return p


def _cases(seed: int, count: int, var_in_frame=False, top=3):
    """(frame, p, q) with p and q built from shared factors, each to a power
    of at most top."""
    rng = random.Random(seed)
    for _ in range(count):
        frame = rng.choice(FRAMES)
        var = frame[-1] if var_in_frame else None
        shared = [_factor(rng, frame, var) for _ in range(rng.randint(1, 2))]
        p = _product(rng, shared + [_factor(rng, frame)], var, top)
        q = _product(rng, shared + [_factor(rng, frame)], var, top)
        yield frame, p, q


def test_gcd_matches_sympy():
    """gcd_polynomials is sympy's gcd scaled to grevlex lead coefficient 1."""
    for _, p, q in _cases(seed=41, count=40):
        want = normalized(_from_sympy(sympy.gcd(_to_sympy(p), _to_sympy(q)), AMB))
        assert gcd_polynomials(p, q) == want


def test_squarefree_part_matches_sympy():
    """The squarefree part is the product of sympy's distinct irreducible
    factors, scaled to grevlex lead coefficient 1."""
    for _, p, q in _cases(seed=43, count=40):
        for f in (p, q):
            _, factors = sympy.factor_list(_to_sympy(f))
            want = Polynomial.constant(AMB, 1)
            for g, _multiplicity in factors:
                want = want * _from_sympy(g, AMB)
            assert squarefree_part_bivariate(f) == normalized(want)


def test_resultant_matches_sympy():
    """The Sylvester resultant equals sympy's, sign and scale included."""
    for frame, p, q in _cases(seed=47, count=40, var_in_frame=True, top=2):
        var = frame[-1]
        rest = tuple(v for v in AMB if v != var)
        want = sympy.resultant(_to_sympy(p), _to_sympy(q), sympy.Symbol(var))
        assert resultant(p, q, var) == _from_sympy(want, rest)
