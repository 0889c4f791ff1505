"""gcd and squarefree part agree with sympy on seeded inputs, the
discriminant of the A_r unfolding with sympy's discriminant, and the reduced
row echelon form and rank of seeded matrices with sympy's, exactly.

Inputs are products of small random factors raised to random powers, in one
to three effective variables of a three-variable ambient, so repeated
factors and factors shared between the two arguments are common.  sympy is
an independent oracle used by the tests only; the module is skipped when it
is not installed.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from canonical import is_canonical_coefficient  # noqa: E402
from randpoly import factored_pairs  # noqa: E402
from vancyc.poly import (Polynomial, gcd_polynomials, normalized,  # noqa: E402
                         rational_rank, rref, squarefree_part_bivariate)
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


def _seeded_matrix(rng, integral: bool) -> list[list]:
    """A small matrix of ints or of Fractions; about half of them have a row
    that is a combination of two others, so the rank drops."""
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    if integral:
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    else:
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(cols)]
             for _ in range(rows)]
    if rows >= 3 and rng.random() < 0.5:
        a, b = rng.randint(-2, 2), Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        m[0] = [a * x + b * y for x, y in zip(m[1], m[2])]
    return m


def test_rref_and_rank_match_sympy_exactly():
    """rref equals sympy's Matrix.rref() entry for entry and pivot for pivot,
    and rational_rank equals sympy's rank, on seeded integer and rational
    matrices; every entry is an int or a Fraction with denominator > 1, so
    a float (1.0 for a unit pivot, 0.333... for a third) fails."""
    rng = random.Random(41)
    matrices = [_seeded_matrix(rng, integral=trial % 2 == 0) for trial in range(120)]
    matrices += [[[0, 0, 0], [0, 0, 0]], [[Fraction(0, 3)]], [[Fraction(4, 2), 6], [1, 3]]]
    ranks = set()
    for m in matrices:
        got, pivots = rref(m)
        want, want_pivots = sympy.Matrix(m).rref()
        assert pivots == list(want_pivots), m
        assert got == [[Fraction(int(x.p), int(x.q)) for x in row] for row in want.tolist()], m
        assert all(is_canonical_coefficient(x) for row in got for x in row), got
        assert rational_rank(m) == sympy.Matrix(m).rank() == len(pivots)
        ranks.add(len(pivots))
    assert ranks == {0, 1, 2, 3, 4, 5}
