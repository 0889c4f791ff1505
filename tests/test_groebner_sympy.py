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
from vancyc.groebner import (IdealBasis, _DivisorIndex, buchberger,  # noqa: E402
                             divmod_polynomials)
from vancyc.poly import Polynomial, parse_polynomial  # noqa: E402

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


def _from_sympy(expr) -> Polynomial:
    poly = sympy.Poly(expr, *SYMBOLS)
    return Polynomial(AMB, {exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.terms()})


@pytest.fixture
def widenings(monkeypatch):
    """(elements indexed, pairs queued, width before) of every widening."""
    log = []
    real = _DivisorIndex.widen

    def widen(index, top):
        log.append((len(index.leads), len(index.pairs), index.width))
        return real(index, top)

    monkeypatch.setattr(_DivisorIndex, "widen", widen)
    return log


def test_widening_mid_run_matches_sympy(widenings):
    """The generators' exponents fit the starting width, and reductions
    pass it: under lex and both block orders the index widens after
    elements have joined, under block2 with pairs queued, and the reduced
    basis is still sympy's under all four orders."""
    ideal = IdealBasis(AMB, [parse_polynomial(t, AMB)
                             for t in ("x^3 - y^2", "y^3 - z^2 - x", "x*z - 1")])
    mid_run = {}
    for name, key in ORDERS.items():
        widenings.clear()
        assert set(buchberger(ideal, key).elements) == _sympy_basis(ideal, name)
        mid_run[name] = [w for w in widenings if w[0]]
    assert all(mid_run[name] for name in ("lex0", "block1", "block2"))
    assert any(queued for _, queued, _ in mid_run["block2"])


@pytest.mark.parametrize("name", ORDERS)
def test_dividend_past_the_divisors_width_matches_sympy(name, widenings):
    """A dividend whose exponents pass the width of the indexed divisors
    widens the index, and its quotients and remainder are sympy's."""
    divisors = [parse_polynomial(t, AMB) for t in ("x^2 - 3*y", "y*z - 1/2", "z^2 + x")]
    p = parse_polynomial("x^40*z^3 + 2/3*y^17*z - x*z^9 + 5", AMB)
    quotients, r = divmod_polynomials(p, divisors, ORDERS[name])
    assert [w[0] for w in widenings] == [0, 3]
    want_q, want_r = sympy.reduced(_to_sympy(p), [_to_sympy(d) for d in divisors],
                                   *SYMBOLS, order=_sympy_order(name))
    assert quotients == [_from_sympy(q) for q in want_q]
    assert r == _from_sympy(want_r)
