"""gcd, squarefree part and resultant agree with sympy on seeded inputs.

Inputs are products of small random factors raised to random powers, in one
to three effective variables of a three-variable ambient, so repeated
factors and factors shared between the two arguments are common.  sympy is
an independent oracle used by the tests only; the module is skipped when it
is not installed.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from randpoly import factored_pairs, resultant_pairs  # noqa: E402
from vancyc.poly import (Polynomial, gcd_polynomials, normalized,  # noqa: E402
                         resultant, squarefree_part_bivariate)

AMB = ("x", "y", "z")


def _to_sympy(p: Polynomial):
    symbols = sympy.symbols(p.ambient)
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
                for exps, c in p.terms.items()), sympy.Integer(0))


def _from_sympy(expr, ambient) -> Polynomial:
    poly = sympy.Poly(expr, *sympy.symbols(ambient), domain="QQ")
    return Polynomial(ambient, {exps: Fraction(int(c.p), int(c.q))
                                for exps, c in poly.terms()})


def test_gcd_matches_sympy():
    """gcd_polynomials is sympy's gcd scaled to grevlex lead coefficient 1."""
    for _, p, q in factored_pairs(seed=41, count=40):
        want = normalized(_from_sympy(sympy.gcd(_to_sympy(p), _to_sympy(q)), AMB))
        assert gcd_polynomials(p, q) == want


def test_squarefree_part_matches_sympy():
    """The squarefree part is the product of sympy's distinct irreducible
    factors, scaled to grevlex lead coefficient 1."""
    for _, p, q in factored_pairs(seed=43, count=40):
        for f in (p, q):
            _, factors = sympy.factor_list(_to_sympy(f))
            want = Polynomial.constant(AMB, 1)
            for g, _multiplicity in factors:
                want = want * _from_sympy(g, AMB)
            assert squarefree_part_bivariate(f) == normalized(want)


def test_resultant_matches_sympy():
    """The resultant equals sympy's, sign and scale included."""
    for var, p, q in resultant_pairs():
        rest = tuple(v for v in AMB if v != var)
        m, n = p.degree_in(var), q.degree_in(var)
        # sympy 1.14 drops the sign (-1)^(mn) of res(p, q) = (-1)^(mn) res(q, p)
        # when m < n are both odd (it gives 2 for res(z + 1, z^3 + z), whose
        # Sylvester determinant is -2), so it is asked larger degree first.
        first, second, sign = (p, q, 1) if m >= n else (q, p, (-1) ** (m * n))
        want = sympy.resultant(_to_sympy(first), _to_sympy(second), sympy.Symbol(var))
        assert resultant(p, q, var) == _from_sympy(want, rest).scale(sign)
