"""Reduced Groebner bases agree with sympy's on seeded small ideals.

sympy is an independent oracle used by the tests only; the module is skipped
when it is not installed.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import ProductOrder, grevlex  # noqa: E402

from randpoly import random_polynomial  # noqa: E402
from vancyc.groebner import IdealBasis, MonomialOrder, buchberger  # noqa: E402
from vancyc.poly import Polynomial  # noqa: E402

AMB = ("x", "y", "z")
SYMBOLS = sympy.symbols(AMB)


def _sympy_order(order: MonomialOrder):
    if order.kind == "lex":
        return "lex"
    if order.kind == "degrevlex":
        return "grevlex"
    k = order.front
    return ProductOrder((grevlex, lambda m: m[:k]), (grevlex, lambda m: m[k:]))


def _to_sympy(p: Polynomial):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s ** e for s, e in zip(SYMBOLS, exps)))
                for exps, c in p.terms.items()), sympy.Integer(0))


def _monic(p: Polynomial, order: MonomialOrder) -> Polynomial:
    return p.scale(1 / p.lead(order.key)[1])


def _sympy_basis(ideal: IdealBasis, order: MonomialOrder) -> set[Polynomial]:
    gb = sympy.groebner([_to_sympy(g) for g in ideal.generators], *SYMBOLS,
                        order=_sympy_order(order))
    out = set()
    for poly in gb.polys:
        terms = {exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.terms()}
        out.add(_monic(Polynomial(AMB, terms), order))
    return out


def _ideals(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        gens = [random_polynomial(rng, AMB, max_terms=4, max_exp=2, nonzero=True)
                for _ in range(rng.randint(2, 3))]
        yield IdealBasis(AMB, gens)


@pytest.mark.parametrize("order", [MonomialOrder.degrevlex(), MonomialOrder.lex(),
                                   MonomialOrder.elimination(1),
                                   MonomialOrder.elimination(2)],
                         ids=lambda o: f"{o.kind}{o.front}")
def test_reduced_basis_matches_sympy(order):
    """The reduced basis, made monic, is the same set as sympy's."""
    for ideal in _ideals(seed=29 + order.front, count=10):
        ours = buchberger(ideal, order).elements
        assert all(g.lead(order.key)[1] == 1 for g in ours)
        assert set(ours) == _sympy_basis(ideal, order)
