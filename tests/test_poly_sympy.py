"""gcd and squarefree part agree with sympy on seeded inputs, and the
discriminant of the A_r unfolding with sympy's discriminant.

Inputs are products of small random factors raised to random powers, in one
to three effective variables of a three-variable ambient, so repeated
factors and factors shared between the two arguments are common.  sympy is
an independent oracle used by the tests only; the module is skipped when it
is not installed.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from randpoly import factored_pairs  # noqa: E402
from vancyc.poly import (Polynomial, gcd_polynomials, normalized,  # noqa: E402
                         squarefree_part_bivariate)
from vancyc.singularity import discriminant, multiplicity_at_origin  # noqa: E402
from vancyc.steinberg import _ar_unfolding  # noqa: E402

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


def test_ar_unfolding_discriminant_matches_sympy():
    """For r = 1..4 the reduced discriminant of the A_r unfolding is sympy's
    discriminant of lam^(r+1) + s1 lam^(r-1) + ... + s_r, scaled to grevlex
    lead coefficient 1, and it has multiplicity r at the origin."""
    lam = sympy.Symbol("lam")
    for r in range(1, 5):
        s = sympy.symbols(f"s1:{r + 1}")
        char = lam ** (r + 1) + sum(si * lam ** (r - i) for i, si in enumerate(s, 1))
        d = discriminant(_ar_unfolding(r))
        want = _from_sympy(sympy.discriminant(char, lam), d.target_vars)
        assert d.reduced_generator == normalized(want)
        assert multiplicity_at_origin(d) == r
