"""Buchberger bases, elimination, quotient dimension, and radical membership."""

import random

import pytest

from randpoly import random_polynomial
from vancyc.groebner import (
    DEFAULT_PAIR_LIMIT,
    IdealBasis,
    MonomialOrder,
    ResourceLimitExceeded,
    buchberger,
    divmod_polynomials,
    eliminate,
    normal_form,
    quotient_dimension,
    radical_membership,
)
from vancyc.poly import (AmbientMismatchError, Polynomial, format_polynomial,
                         parse_polynomial)

AMB = ("x", "y", "z")


def _ideal(*texts, amb=AMB):
    return IdealBasis(amb, [parse_polynomial(t, amb) for t in texts])


def _member(p, ideal):
    return normal_form(p, buchberger(ideal, MonomialOrder.degrevlex())).is_zero()


def test_generators_reduce_to_zero():
    """Every input generator has normal form zero against its own basis."""
    ideal = _ideal("x^2 - y", "x^3 - z", "x*y - z")
    gb = buchberger(ideal, MonomialOrder.lex())
    for g in ideal.generators:
        assert normal_form(g, gb).is_zero()


def test_reduced_basis_is_canonical():
    """Adding redundant combinations of generators does not change the basis."""
    rng = random.Random(3)
    ideal = _ideal("x^2 + y", "x*y - 1")
    base = buchberger(ideal, MonomialOrder.degrevlex()).elements
    for _ in range(3):
        a = random_polynomial(rng, AMB, max_terms=3, max_exp=2)
        b = random_polynomial(rng, AMB, max_terms=3, max_exp=2)
        comb = a * ideal.generators[0] + b * ideal.generators[1]
        bigger = IdealBasis(AMB, list(ideal.generators) + [comb])
        assert buchberger(bigger, MonomialOrder.degrevlex()).elements == base


def test_twisted_cubic_lex_golden():
    """Reduced lex basis of (x^2 - y, x^3 - z) is the classical four-element set."""
    gb = buchberger(_ideal("x^2 - y", "x^3 - z"), MonomialOrder.lex())
    got = sorted(format_polynomial(g, compact=True) for g in gb.elements)
    assert got == sorted(["x^2-y", "x*y-z", "-y^2+x*z", "y^3-z^2"])


ORDERS = [MonomialOrder.lex(), MonomialOrder.degrevlex(),
          MonomialOrder.elimination(1), MonomialOrder.elimination(2)]


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"{o.kind}{o.front}")
def test_division_identity(order):
    """p = sum(q_i * d_i) + r, no term of r is divisible by a divisor lead,
    and no q_i * d_i leads above p."""
    rng = random.Random(f"division-{order.kind}-{order.front}")
    for _ in range(25):
        divisors = [random_polynomial(rng, AMB, max_terms=4, max_exp=2, nonzero=True)
                    for _ in range(rng.randint(1, 3))]
        p = random_polynomial(rng, AMB, max_terms=8, max_exp=4)
        quotients, r = divmod_polynomials(p, divisors, order)
        assert len(quotients) == len(divisors)
        total = r
        for q, d in zip(quotients, divisors):
            total = total + q * d
        assert total == p
        leads = [d.lead(order.key)[0] for d in divisors]
        for e in r.terms:
            assert not any(all(a <= b for a, b in zip(de, e)) for de in leads)
        for q, d in zip(quotients, divisors):
            if q:
                assert order.key((q * d).lead(order.key)[0]) <= \
                    order.key(p.lead(order.key)[0])


def test_division_rejects_foreign_divisor():
    """A divisor over another ambient is an error, not a silent truncation."""
    p = parse_polynomial("x^2 + y", AMB)
    other = parse_polynomial("x", ("x", "y"))
    with pytest.raises(AmbientMismatchError):
        divmod_polynomials(p, [other], MonomialOrder.lex())


def test_normal_form_is_idempotent():
    """Reducing twice gives the same remainder as reducing once."""
    rng = random.Random(17)
    gb = buchberger(_ideal("x^2 - y", "y^2 - z"), MonomialOrder.degrevlex())
    for _ in range(10):
        p = random_polynomial(rng, AMB)
        r = normal_form(p, gb)
        assert normal_form(r, gb) == r


def test_membership():
    """Combinations are members; a generic outsider is not."""
    ideal = _ideal("x^2 - y", "y^2 - z")
    x, y, z = (Polynomial.variable(AMB, v) for v in AMB)
    assert _member((x * x - y) * z + (y * y - z) * x, ideal)
    assert not _member(x + y, ideal)


def test_pair_limit_raises():
    """A tiny S-pair budget aborts with the processed count and limit attached."""
    ideal = _ideal("x^2 + y*z", "y^2 + x*z", "z^2 + x*y")
    with pytest.raises(ResourceLimitExceeded) as exc:
        buchberger(ideal, MonomialOrder.degrevlex(), max_pairs=2)
    assert exc.value.limit == 2
    assert exc.value.pairs_processed == 2
    assert DEFAULT_PAIR_LIMIT == 200_000


def test_elimination_order_key():
    """Any monomial touching the front block beats any back-block monomial."""
    order = MonomialOrder.elimination(1)
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))
    assert order.key((0, 2, 0)) < order.key((1, 0, 0))


def test_eliminate_parametrized_curve():
    """Eliminating t from (x - t^2, y - t^3) leaves exactly the cusp relation."""
    amb = ("t", "x", "y")
    ideal = _ideal("x - t^2", "y - t^3", amb=amb)
    kept = eliminate(ideal, ("t",))
    assert kept.ambient == ("x", "y")
    for g in kept.generators:
        assert "t" not in g.effective_variables()
        lifted = g.extend(amb).reorder(amb)
        assert _member(lifted, ideal)
    cusp = parse_polynomial("x^3 - y^2", ("x", "y"))
    assert _member(cusp, kept)


def test_quotient_dimension_is_order_independent():
    """Zero-dimensional quotient counts agree between lex and degrevlex."""
    for texts, expected in [
        (("x^3", "y^2"), 6),
        (("x^2 + y", "y^2"), 4),
        (("x", "y"), 1),
    ]:
        ideal = _ideal(*texts, amb=("x", "y"))
        lex = quotient_dimension(ideal, MonomialOrder.lex())
        grevlex = quotient_dimension(ideal, MonomialOrder.degrevlex())
        assert lex == grevlex == expected


def test_quotient_dimension_infinite_is_none():
    """A positive-dimensional quotient reports None instead of a count."""
    assert quotient_dimension(_ideal("x*y", amb=("x", "y"))) is None


def test_radical_membership():
    """Nilpotent witnesses pass, non-members fail."""
    amb = ("x", "y")
    x, y = (Polynomial.variable(amb, v) for v in amb)
    square = IdealBasis(amb, [(x + y) ** 2])
    assert radical_membership(x + y, square)
    assert not radical_membership(x, square)
    corner = _ideal("x^2*y", "x*y^2", amb=amb)
    assert radical_membership(x * y, corner)
    assert not radical_membership(x, corner)
