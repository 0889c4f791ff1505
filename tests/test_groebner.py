"""Buchberger bases, elimination, quotient dimension, and radical membership."""

import random
from fractions import Fraction
from operator import add, sub

import pytest

from orders import ORDERS, lex, seed_tag
from randpoly import random_polynomial
from vancyc import groebner
from vancyc.groebner import (
    DEFAULT_PAIR_LIMIT,
    IdealBasis,
    ResourceLimitExceeded,
    buchberger,
    divmod_polynomials,
    eliminate,
    elimination_key,
    normal_form,
    quotient_dimension,
    radical_membership,
)
from vancyc.groebner import _lead_mask, _minimalize, _spoly, _standard_monomial_count
from vancyc.poly import (AmbientMismatchError, Polynomial, _DivisorIndex,
                         format_polynomial, grevlex_key, parse_polynomial)
from vancyc.singularity import action_coordinates_germ, critical_ideal, milnor_number
from vancyc.suite import AL_MATRICES

AMB = ("x", "y", "z")


def _ideal(*texts, amb=AMB):
    return IdealBasis(amb, [parse_polynomial(t, amb) for t in texts])


def _member(p, ideal):
    return normal_form(p, buchberger(ideal, grevlex_key)).is_zero()


def test_generators_reduce_to_zero():
    """Every input generator has normal form zero against its own basis."""
    ideal = _ideal("x^2 - y", "x^3 - z", "x*y - z")
    gb = buchberger(ideal, lex)
    for g in ideal.generators:
        assert normal_form(g, gb).is_zero()


def test_reduced_basis_is_canonical():
    """Adding redundant combinations of generators does not change the basis."""
    rng = random.Random(3)
    ideal = _ideal("x^2 + y", "x*y - 1")
    base = buchberger(ideal, grevlex_key).elements
    for _ in range(3):
        a = random_polynomial(rng, AMB, max_terms=3, max_exp=2)
        b = random_polynomial(rng, AMB, max_terms=3, max_exp=2)
        comb = a * ideal.generators[0] + b * ideal.generators[1]
        bigger = IdealBasis(AMB, list(ideal.generators) + [comb])
        assert buchberger(bigger, grevlex_key).elements == base


def test_twisted_cubic_lex_golden():
    """Reduced lex basis of (x^2 - y, x^3 - z) is the classical four-element set."""
    gb = buchberger(_ideal("x^2 - y", "x^3 - z"), lex)
    got = sorted(format_polynomial(g, compact=True) for g in gb.elements)
    assert got == sorted(["x^2-y", "x*y-z", "-y^2+x*z", "y^3-z^2"])


@pytest.mark.parametrize("name", ORDERS)
def test_division_identity(name):
    """p = sum(q_i * d_i) + r, no term of r is divisible by a divisor lead,
    and no q_i * d_i leads above p."""
    key = ORDERS[name]
    rng = random.Random(f"division-{seed_tag(name)}")
    for _ in range(25):
        divisors = [random_polynomial(rng, AMB, max_terms=4, max_exp=2, nonzero=True)
                    for _ in range(rng.randint(1, 3))]
        p = random_polynomial(rng, AMB, max_terms=8, max_exp=4)
        quotients, r = divmod_polynomials(p, divisors, key)
        assert len(quotients) == len(divisors)
        total = r
        for q, d in zip(quotients, divisors):
            total = total + q * d
        assert total == p
        leads = [d.lead(key)[0] for d in divisors]
        for e in r.terms:
            assert not any(all(a <= b for a, b in zip(de, e)) for de in leads)
        for q, d in zip(quotients, divisors):
            if q:
                assert key((q * d).lead(key)[0]) <= key(p.lead(key)[0])


def test_division_rejects_foreign_divisor():
    """A divisor over another ambient is an error, not a silent truncation."""
    p = parse_polynomial("x^2 + y", AMB)
    other = parse_polynomial("x", ("x", "y"))
    with pytest.raises(AmbientMismatchError):
        divmod_polynomials(p, [other], lex)


def _scan(leads, e):
    """Indices of the leads dividing e, by a linear scan."""
    return [i for i, de in enumerate(leads) if all(a <= b for a, b in zip(de, e))]


def _bits(m):
    return [i for i in range(m.bit_length()) if m >> i & 1]


def test_divisor_index_matches_linear_scan_seeded():
    """The index finds the same dividing leads, so the same first divisor,
    as a linear scan, after every append, in 1-18 variables.  Leads come
    from a small pool so that duplicates are common, one run in three
    appends the constant, and exponents grow over the run so that appends
    raise an exponent past a column's current length."""
    rng = random.Random(37)
    for run in range(150):
        n = rng.randint(1, 18)
        amb = tuple(f"v{i}" for i in range(n))
        pool = []
        for k in range(8):
            top = 1 + k // 2
            pool.append(tuple(rng.choice((0, 0, 0, rng.randint(1, top))) for _ in range(n)))
        if run % 3 == 0:
            pool.append((0,) * n)
        index = _DivisorIndex(amb, grevlex_key)
        leads = []
        for lead in [rng.choice(pool[:k + 1]) for k in range(len(pool))] + pool:
            index.append(Polynomial(amb, {lead: rng.choice((1, -2, Fraction(3, 4)))}))
            leads.append(lead)
            queries = [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(5)]
            queries += [tuple(map(add, lead, q)) for q in queries[:3]]
            queries.append(lead)
            for e in queries:
                assert _bits(index.dividing(e)) == _scan(leads, e)
        assert index.leads == leads


def test_divisor_index_without_variables():
    """Over a zero-variable ambient every divisor is a constant and divides
    the one monomial; division is division of rationals."""
    key = lex
    index = _DivisorIndex((), key)
    assert not index
    assert index.dividing(()) == 0
    index.append(Polynomial.constant((), 3))
    index.append(Polynomial.constant((), 5))
    assert index.dividing(()) == 0b11
    p = Polynomial.constant((), Fraction(7, 2))
    quotients, r = divmod_polynomials(p, index, key)
    assert quotients[0] == Polynomial.constant((), Fraction(7, 6))
    assert not quotients[1] and not r


def test_divisor_index_live_set_narrows_division():
    """Clearing a divisor's bit in `live` removes it from every lookup, and
    a division then equals the one by the list without that divisor."""
    divisors = _ideal("x^2 - y", "x*y - z", "y^2 - x").generators
    index = _DivisorIndex(AMB, grevlex_key, divisors)
    p = parse_polynomial("x^3*y + x^2*y^2 - z^2 + x", AMB)
    for i in range(3):
        index.live = 0b111 ^ 1 << i
        assert not index.dividing(divisors[i].lead(grevlex_key)[0]) >> i & 1
        rest = divisors[:i] + divisors[i + 1:]
        assert divmod_polynomials(p, index, grevlex_key)[1] == \
            divmod_polynomials(p, rest, grevlex_key)[1]


@pytest.mark.parametrize("name", ORDERS)
def test_division_by_index_equals_division_by_list(name):
    """A prepared index and the plain list give the same quotients and
    remainder, term for term and in the same term order; the quotient list
    has one entry per divisor, and every unused entry is one shared zero."""
    key = ORDERS[name]
    rng = random.Random(f"index-{seed_tag(name)}")
    for _ in range(25):
        divisors = [random_polynomial(rng, AMB, max_terms=4, max_exp=2, nonzero=True)
                    for _ in range(rng.randint(1, 6))]
        p = random_polynomial(rng, AMB, max_terms=8, max_exp=4)
        qs_a, r_a = divmod_polynomials(p, divisors, key)
        qs_b, r_b = divmod_polynomials(p, _DivisorIndex(AMB, key, divisors), key)
        assert len(qs_a) == len(qs_b) == len(divisors)
        assert [list(q.terms.items()) for q in qs_a] == \
            [list(q.terms.items()) for q in qs_b]
        assert list(r_a.terms.items()) == list(r_b.terms.items())
        for quotients in (qs_a, qs_b):
            unused = [q for q in quotients if not q]
            assert all(q is unused[0] for q in unused)


def test_division_by_index_rejects_foreign_ambient_and_key():
    """A dividend over another ambient, a divisor appended over another
    ambient, and a key other than the index's are errors."""
    index = _DivisorIndex(("x", "y"), lex, [parse_polynomial("x", ("x", "y"))])
    with pytest.raises(AmbientMismatchError):
        divmod_polynomials(parse_polynomial("x^2 + y", AMB), index, lex)
    with pytest.raises(AmbientMismatchError):
        index.append(parse_polynomial("x", AMB))
    with pytest.raises(ValueError):
        divmod_polynomials(parse_polynomial("x^2", ("x", "y")), index, grevlex_key)


def test_minimalize_keeps_first_of_equal_leads():
    """Of equal leads the first is kept, and a lead with a proper divisor
    anywhere in the list is dropped; against the all-pairs rule on seeded
    leads with many repeats."""
    rng = random.Random(41)
    key = grevlex_key
    for _ in range(200):
        pool = [tuple(rng.randint(0, 2) for _ in AMB) for _ in range(4)]
        leads = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
        index = _DivisorIndex(AMB, key, [Polynomial(AMB, {e: 1}) for e in leads])
        want = [i for i, li in enumerate(leads)
                if not any(j != i and all(a <= b for a, b in zip(lj, li))
                           and (lj != li or j < i) for j, lj in enumerate(leads))]
        assert _bits(_minimalize(index)) == want


def test_normal_form_is_idempotent():
    """Reducing twice gives the same remainder as reducing once."""
    rng = random.Random(17)
    gb = buchberger(_ideal("x^2 - y", "y^2 - z"), grevlex_key)
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
        buchberger(ideal, grevlex_key, max_pairs=2)
    assert exc.value.limit == 2
    assert exc.value.pairs_processed == 2
    assert DEFAULT_PAIR_LIMIT == 200_000


def test_elimination_order_key():
    """Any monomial touching the front block beats any back-block monomial;
    the key is the degrevlex key of each block, concatenated."""
    key = elimination_key(1)
    assert key((1, 0, 0)) > key((0, 5, 5))
    assert key((0, 2, 0)) < key((1, 0, 0))
    assert key((2, 3, 4)) == grevlex_key((2,)) + grevlex_key((3, 4)) == (2, -2, 7, -4, -3)


def test_order_keys_look_up_grevlex_key_at_call_time(monkeypatch):
    """The degrevlex and elimination keys reach `grevlex_key` through the
    groebner module's globals at call time, so a counter rebound there (as
    perfbench/tracer.py does) counts the calls of both milnor_number and
    eliminate."""
    calls = []
    real = groebner.grevlex_key

    def counted(exps):
        calls.append(exps)
        return real(exps)

    monkeypatch.setattr(groebner, "grevlex_key", counted)
    assert milnor_number(parse_polynomial("x^3 + y^4", ("x", "y"))) == 6
    assert calls
    calls.clear()
    eliminate(_ideal("x - t^2", "y - t^3", amb=("t", "x", "y")), ("t",))
    assert calls


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
    """Zero-dimensional quotient counts agree between lex and degrevlex,
    each counted by the standard monomials of its own basis."""
    for texts, expected in [
        (("x^3", "y^2"), 6),
        (("x^2 + y", "y^2"), 4),
        (("x", "y"), 1),
    ]:
        ideal = _ideal(*texts, amb=("x", "y"))
        lex_count = _standard_monomial_count(buchberger(ideal, lex))
        assert lex_count == quotient_dimension(ideal) == expected


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


AL6_BLOCK_BASIS = [
    "s1^2*s2-s1*s2^2", "p3*s1", "q3*s1", "p2*s1-p2*s2", "q2*s1-q2*s2", "p1*s2",
    "q1*s2", "q3*p3*s2+s1*s2-s2^2", "p2*p3", "q2*p3", "p1*p3", "q1*p3", "p2*q3",
    "q2*q3", "p1*q3", "q1*q3", "q2*p2+q3*p3-s2", "p1*p2", "q1*p2", "p1*q2",
    "q1*q2", "q1*p1-q3*p3-s1+s2", "q3*p3^2-p3*s2", "q3^2*p3-q3*s2"]

E7_JACOBIAN_BASIS = [
    "x+2*z", "y*z^2-4/3*z^3+2*y^2-8*y*z+8*z^2",
    "y^2*z-5/3*z^3+7*y^2-28*y*z+28*z^2", "y^3-2*z^3+18*y^2-72*y*z+72*z^2",
    "z^4+z^3+3*y^2-12*y*z+12*z^2"]


def _basis_lines(gb):
    return [format_polynomial(g, compact=True) for g in gb.elements]


def test_discriminant_al6_critical_basis_is_pinned():
    """The block-order basis behind discriminant-al6: its S-pair count and its
    elements, in the basis's own order."""
    crit = critical_ideal(action_coordinates_germ(3, 2, AL_MATRICES[(3, 2)]))
    gb = buchberger(crit.ideal, elimination_key(len(crit.source_vars)))
    assert gb.pairs_processed == 89
    assert _basis_lines(gb) == AL6_BLOCK_BASIS


@pytest.mark.parametrize("n, R, pairs, length", [
    (4, ((1, 1, 1, 0), (0, 1, 2, 1)), 210, 41),
    (5, ((1, 1, 1, 1, 0), (0, 1, 2, 3, 1)), 403, 62),
])
def test_action_coordinate_block_basis_counts_are_pinned(n, R, pairs, length):
    """S-pair counts and basis lengths of the block-order critical ideals of
    the (n, 2) action-coordinate germs, so a change to the pair criteria
    shows up as a count change."""
    crit = critical_ideal(action_coordinates_germ(n, 2, R))
    gb = buchberger(crit.ideal, elimination_key(len(crit.source_vars)))
    assert gb.pairs_processed == pairs
    assert len(gb.elements) == length


def test_milnor_jacobian_basis_is_pinned():
    """The degrevlex basis of the Jacobian ideal of E_7 after a linear change
    of coordinates: its S-pair count and its elements, in order."""
    h = parse_polynomial("(x+y)^3 + (x+y)*(y-z)^3 + (x+2*z)^2", AMB)
    gb = buchberger(IdealBasis(AMB, [h.partial_derivative(v) for v in AMB]), grevlex_key)
    assert gb.pairs_processed == 7
    assert _basis_lines(gb) == E7_JACOBIAN_BASIS


@pytest.mark.parametrize("name, pairs", [("lex0", 8), ("degrevlex0", 8), ("block1", 4)])
def test_non_monic_generators_match_monic_scalings(name, pairs):
    """Non-unit and rational lead coefficients give the same reduced basis
    and the same S-pair count as the generators scaled to be monic.  The
    count is pinned too: under lex it needs the chain criterion on queued
    pairs, without which it is 12."""
    key = ORDERS[name]
    gens = _ideal("3*x^2 - y", "2/5*y^2 - z", "-4*x*z + 2/3*y*z^2 - 1").generators
    monic = [g.scale(1 / g.lead(key)[1]) for g in gens]
    assert any(g != m for g, m in zip(gens, monic))
    got = buchberger(IdealBasis(AMB, gens), key)
    want = buchberger(IdealBasis(AMB, monic), key)
    assert got.elements == want.elements
    assert got.pairs_processed == want.pairs_processed == pairs


def test_spoly_of_monic_elements():
    """For monic f and g the S-polynomial is x^a*f - x^b*g with the lead
    terms cancelled, under every order."""
    rng = random.Random(29)
    for key in ORDERS.values():
        for _ in range(20):
            f, g = (random_polynomial(rng, AMB, max_terms=4, max_exp=3, nonzero=True)
                    for _ in range(2))
            f, g = (p.scale(1 / p.lead(key)[1]) for p in (f, g))
            fe, ge = f.lead(key)[0], g.lead(key)[0]
            lcm = tuple(map(max, fe, ge))
            want = (Polynomial(AMB, {tuple(map(sub, lcm, fe)): 1}) * f
                    - Polynomial(AMB, {tuple(map(sub, lcm, ge)): 1}) * g)
            assert _spoly(f, g, lcm, key) == want


def _check_lead_mask(a, b):
    lcm = tuple(map(max, a, b))
    assert _lead_mask(lcm) == _lead_mask(a) | _lead_mask(b)
    if all(x <= y for x, y in zip(a, b)):
        assert _lead_mask(a) & ~_lead_mask(b) == 0


def test_lead_mask_soundness_seeded():
    """A divisor's mask lies inside the multiple's mask, and the mask of an
    lcm is the union of the masks, for random exponents in 1-18 variables;
    half of the pairs are built so that a divides b."""
    rng = random.Random(31)
    for _ in range(2000):
        n = rng.randint(1, 18)
        a = tuple(rng.choice((0, 0, 1, 2, 3, 7)) for _ in range(n))
        b = tuple(rng.choice((0, 0, 1, 2, 3, 7)) for _ in range(n))
        if rng.random() < 0.5:
            b = tuple(map(add, a, b))
        _check_lead_mask(a, b)
        _check_lead_mask(b, a)
