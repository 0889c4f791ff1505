"""Property tests: arithmetic results stay canonical, memoized leads agree
with a fresh maximum, and a run's packed monomials follow the exponents and
the order key.  Skipped when hypothesis is not installed."""

from operator import le

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from canonical import assert_canonical  # noqa: E402
from orders import ORDERS  # noqa: E402
from packing import (append_polynomial, check_encoding, check_packed_kernel,  # noqa: E402
                     packed)
from vancyc.groebner import _DivisorIndex  # noqa: E402
from vancyc.poly import Polynomial, grevlex_key  # noqa: E402

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
    assert_canonical(p)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polynomials, polynomials, scalars)
def test_arithmetic_results_are_canonical(a, b, c):
    """+, -, *, negation and scale never leave a zero, a coefficient out
    of canonical form or a malformed exponent tuple behind."""
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 18), st.integers(1, 10), st.data())
def test_packed_kernel_matches_tuple_arithmetic(n, width, data):
    """Packed lcms, the guard divisibility test, the coprimality test and
    the order of proper divisors agree with tuple arithmetic, in 0-18
    variables at widths 1-10 with exponents up to 2**(width - 1) - 1; b is
    drawn both freely and as a multiple of a."""
    exponents = st.tuples(*(st.integers(0, (1 << width - 1) - 1) for _ in range(n)))
    a, free = data.draw(exponents), data.draw(exponents)
    for b in (free, tuple(map(max, a, free))):
        check_packed_kernel(a, b, width)
        check_packed_kernel(b, a, width)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(ORDERS)), st.integers(0, 18), st.data())
def test_packed_encoding_matches_the_order_key(name, n, data):
    """Under each of the four orders in 0-18 variables, the packed monomial
    X is additive, ordered as the key orders, divisible exactly when the
    exponents are, and unpacks to its exponents (`check_encoding`); b is
    drawn both freely and as a multiple of a, exponents up to 300."""
    exponents = st.tuples(*(st.integers(0, 300) | st.integers(0, 3) for _ in range(n)))
    a, free = data.draw(exponents), data.draw(exponents)
    for b in (free, tuple(map(max, a, free))):
        check_encoding(ORDERS[name], a, b)
        check_encoding(ORDERS[name], b, a)


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
        append_polynomial(index, Polynomial(amb, {lead: 1}))
        for e in queries + leads:
            m = index.dividing(packed(index, e))
            first = next((i for i, de in enumerate(leads[:k + 1])
                          if all(map(le, de, e))), None)
            assert (m & -m).bit_length() - 1 == (-1 if first is None else first)
