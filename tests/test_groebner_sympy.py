"""Reduced Groebner bases agree with sympy's on seeded small ideals.

sympy is an independent oracle used by the tests only; the module is skipped
when it is not installed.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import ProductOrder, grevlex  # noqa: E402

from orders import ORDERS, front  # noqa: E402
from randpoly import random_polynomial  # noqa: E402
from vancyc.groebner import IdealBasis, buchberger  # noqa: E402
from vancyc.poly import Polynomial  # noqa: E402

AMB = ("x", "y", "z")
SYMBOLS = sympy.symbols(AMB)


def _sympy_order(name: str):
    if name == "lex0":
        return "lex"
    if name == "degrevlex0":
        return "grevlex"
    k = front(name)
    return ProductOrder((grevlex, lambda m: m[:k]), (grevlex, lambda m: m[k:]))


def _to_sympy(p: Polynomial):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s ** e for s, e in zip(SYMBOLS, exps)))
                for exps, c in p.terms.items()), sympy.Integer(0))


def _monic(p: Polynomial, key) -> Polynomial:
    return p.scale(Fraction(1) / p.lead(key)[1])


def _sympy_basis(ideal: IdealBasis, name: str) -> set[Polynomial]:
    gb = sympy.groebner([_to_sympy(g) for g in ideal.generators], *SYMBOLS,
                        order=_sympy_order(name))
    out = set()
    for poly in gb.polys:
        terms = {exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.terms()}
        out.add(_monic(Polynomial(AMB, terms), ORDERS[name]))
    return out


def _ideals(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        gens = [random_polynomial(rng, AMB, max_terms=4, max_exp=2, nonzero=True)
                for _ in range(rng.randint(2, 3))]
        yield IdealBasis(AMB, gens)


@pytest.mark.parametrize("name", ORDERS)
def test_reduced_basis_matches_sympy(name):
    """The reduced basis, made monic, is the same set as sympy's."""
    key = ORDERS[name]
    for ideal in _ideals(seed=29 + front(name), count=10):
        ours = buchberger(ideal, key).elements
        assert all(g.lead(key)[1] == 1 for g in ours)
        assert set(ours) == _sympy_basis(ideal, name)


def _monomial_heavy_ideals(seed: int, count: int):
    """Three to five monomials and one or two short polynomials: most
    S-pairs join two monomials, and reductions make new monomials too."""
    rng = random.Random(seed)
    for _ in range(count):
        gens = [random_polynomial(rng, AMB, max_terms=1, max_exp=3, nonzero=True)
                for _ in range(rng.randint(3, 5))]
        gens += [random_polynomial(rng, AMB, max_terms=3, max_exp=2, nonzero=True)
                 for _ in range(rng.randint(1, 2))]
        yield IdealBasis(AMB, gens)


@pytest.mark.parametrize("name", ORDERS)
def test_monomial_heavy_basis_matches_sympy(name):
    """Ideals with a large monomial part, whose monomial pairs are never
    queued, have the same reduced basis as sympy's."""
    key = ORDERS[name]
    for ideal in _monomial_heavy_ideals(seed=59 + front(name), count=10):
        assert set(buchberger(ideal, key).elements) == _sympy_basis(ideal, name)
