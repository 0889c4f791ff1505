"""Property tests: arithmetic results stay canonical and memoized leads agree
with a fresh maximum.  Skipped when hypothesis is not installed."""

from fractions import Fraction
from operator import add, le

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from orders import ORDERS  # noqa: E402
from vancyc.groebner import _lead_mask  # noqa: E402
from vancyc.poly import Polynomial, _DivisorIndex, grevlex_key  # noqa: E402

AMB = ("x", "y", "z")
KEYS = list(ORDERS.values())

exponents = st.tuples(*(st.integers(0, 3) for _ in AMB))
# zero coefficients are included on purpose: the constructor must drop them
coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=5)
polynomials = st.dictionaries(exponents, coefficients, max_size=6).map(
    lambda terms: Polynomial(AMB, terms))
scalars = st.one_of(st.integers(-3, 3), coefficients)


def _assert_canonical(p: Polynomial):
    assert p.ambient == AMB
    for exps, c in p.terms.items():
        assert type(exps) is tuple and len(exps) == len(AMB)
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(c) is Fraction and c != 0
    assert Polynomial(p.ambient, p.terms) == p


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polynomials, polynomials, scalars)
def test_arithmetic_results_are_canonical(a, b, c):
    """+, -, *, negation and scale never leave a zero, a non-Fraction
    coefficient or a malformed exponent tuple behind."""
    for result in (a + b, a - b, a * b, -a, a + c, a - c, a.scale(c), a * c):
        _assert_canonical(result)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polynomials, polynomials)
def test_memoized_lead_matches_fresh_max(a, b):
    """Asking for leads under alternating orders always gives the maximum
    under the order asked for, never a lead memoized for another order."""
    for p in (a, b, a * b, a - b):
        if not p:
            continue
        for order_key in KEYS + KEYS[::-1]:
            for key in (order_key, grevlex_key):
                exps = max(p.terms, key=key)
                assert p.lead(key) == (exps, p.terms[exps])


masked_exponents = st.integers(1, 18).flatmap(
    lambda n: st.tuples(*(st.integers(0, 4) for _ in range(n))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(masked_exponents, st.data())
def test_lead_mask_soundness(a, data):
    """a | b implies mask(a) & ~mask(b) == 0, and mask(lcm(a, b)) is
    mask(a) | mask(b), for exponents in 1-18 variables; b is drawn both
    freely and as a multiple of a."""
    free = data.draw(st.tuples(*(st.integers(0, 4) for _ in a)))
    for b in (free, tuple(map(add, a, free))):
        assert _lead_mask(tuple(map(max, a, b))) == _lead_mask(a) | _lead_mask(b)
        if all(map(le, a, b)):
            assert _lead_mask(a) & ~_lead_mask(b) == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 18).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(*(st.integers(0, 4) for _ in range(n))), min_size=1, max_size=12),
    st.lists(st.tuples(*(st.integers(0, 6) for _ in range(n))), max_size=6))))
def test_divisor_index_first_divisor_matches_scan(case):
    """After every append, the lowest set bit of the index lookup is the
    first lead a linear scan finds dividing the monomial, in 0-18
    variables; the leads may repeat, be constant or raise an exponent past
    a column's length, and every lead is also queried."""
    leads, queries = case
    n = len(leads[0])
    amb = tuple(f"v{i}" for i in range(n))
    index = _DivisorIndex(amb, grevlex_key)
    for k, lead in enumerate(leads):
        index.append(Polynomial(amb, {lead: 1}))
        for e in queries + leads:
            m = index.dividing(e)
            first = next((i for i, de in enumerate(leads[:k + 1])
                          if all(map(le, de, e))), None)
            assert (m & -m).bit_length() - 1 == (-1 if first is None else first)
