"""Buchberger bases, elimination, quotient dimension, and radical membership."""

import copy
import heapq
import importlib.util
import itertools
import math
import pickle
import random
import sys
from fractions import Fraction
from operator import add, sub
from pathlib import Path

import pytest

from canonical import assert_canonical
from orders import ORDERS, front, lex, seed_tag
from packing import check_packed_kernel, reference_pack
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
from vancyc.groebner import (_minimalize, _pack_newest, _spoly, _standard_monomial_count,
                             _update_pairs)
from vancyc.poly import (AmbientMismatchError, Polynomial, _DivisorIndex,
                         format_polynomial, grevlex_key, parse_polynomial)
from vancyc.singularity import action_coordinates_germ, critical_ideal, milnor_number
from vancyc.suite import AL_MATRICES

AMB = ("x", "y", "z")


def _ideal(*texts, amb=AMB):
    return IdealBasis(amb, [parse_polynomial(t, amb) for t in texts])


def _remainder(p, gb):
    """The remainder of p modulo a Groebner basis, unique whatever the
    order of division."""
    return divmod_polynomials(p, gb.elements, gb.key)[1]


def _member(p, ideal):
    return _remainder(p, buchberger(ideal, grevlex_key)).is_zero()


def _assert_integer_multiple(got, want):
    """`got`, an integer remainder as `normal_form` returns it, has int
    coefficients and `want`'s monomials in `want`'s term order, and is
    `want` times one positive rational."""
    assert all(type(c) is int for c in got.terms.values())
    assert list(got.terms) == list(want.terms)
    if want:
        e = next(iter(want.terms))
        ratio = Fraction(got.terms[e]) / want.terms[e]
        assert ratio > 0 and got == want.scale(ratio)


def test_generators_reduce_to_zero():
    """Every input generator has remainder zero modulo its own basis."""
    ideal = _ideal("x^2 - y", "x^3 - z", "x*y - z")
    gb = buchberger(ideal, lex)
    for g in ideal.generators:
        assert _remainder(g, gb).is_zero()


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
    assert not index.live
    assert index.dividing(()) == 0
    divisors = [Polynomial.constant((), 3), Polynomial.constant((), 5)]
    for d in divisors:
        index.append(d)
    assert index.dividing(()) == 0b11
    p = Polynomial.constant((), Fraction(7, 2))
    quotients, r = divmod_polynomials(p, divisors, key)
    assert quotients[0] == Polynomial.constant((), Fraction(7, 6))
    assert not quotients[1] and not r


def test_divisor_index_live_set_narrows_division():
    """Clearing a divisor's bit in `live` removes it from every lookup, and
    a normal form on the index is then a positive multiple of the remainder
    of the division by the list without that divisor."""
    divisors = _ideal("x^2 - y", "x*y - z", "y^2 - x").generators
    index = _DivisorIndex(AMB, grevlex_key, divisors)
    p = parse_polynomial("x^3*y + x^2*y^2 - z^2 + x", AMB)
    for i in range(3):
        index.live = 0b111 ^ 1 << i
        assert not index.dividing(divisors[i].lead(grevlex_key)[0]) >> i & 1
        rest = divisors[:i] + divisors[i + 1:]
        _assert_integer_multiple(normal_form(p, index),
                                 divmod_polynomials(p, rest, grevlex_key)[1])


@pytest.mark.parametrize("name", ORDERS)
def test_division_by_index_equals_division_by_list(name):
    """A normal form on a prepared index gives a positive integer multiple
    of the remainder of the division by the plain list, with the same
    monomials in the same term order; the quotient list has one entry per
    divisor, and every unused entry is one shared zero."""
    key = ORDERS[name]
    rng = random.Random(f"index-{seed_tag(name)}")
    for _ in range(25):
        divisors = [random_polynomial(rng, AMB, max_terms=4, max_exp=2, nonzero=True)
                    for _ in range(rng.randint(1, 6))]
        p = random_polynomial(rng, AMB, max_terms=8, max_exp=4)
        quotients, r = divmod_polynomials(p, divisors, key)
        assert len(quotients) == len(divisors)
        _assert_integer_multiple(normal_form(p, _DivisorIndex(AMB, key, divisors)), r)
        unused = [q for q in quotients if not q]
        assert all(q is unused[0] for q in unused)


def test_divisor_index_rejects_foreign_ambient():
    """A dividend over another ambient and a divisor appended over another
    ambient are errors."""
    index = _DivisorIndex(("x", "y"), lex, [parse_polynomial("x", ("x", "y"))])
    with pytest.raises(AmbientMismatchError):
        normal_form(parse_polynomial("x^2 + y", AMB), index)
    with pytest.raises(AmbientMismatchError):
        index.append(parse_polynomial("x", AMB))


def _fraction_division(p, divisors, key):
    """Reference division over Q with one Fraction per term, the loop that
    the integer division must match step for step: the largest remaining
    term comes off a heap keyed by the negated order key and is reduced by
    the first divisor, found by a linear scan, whose lead divides it."""
    leads = [d.lead(key) for d in divisors]
    tails = [[(e, c) for e, c in d.terms.items() if e != lead[0]]
             for d, lead in zip(divisors, leads)]
    quotients = [{} for _ in divisors]
    remainder = {}
    work = dict(p.terms)
    heap = [(tuple(-k for k in key(e)), e) for e in work]
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e)
        if not c:
            continue
        i = next((i for i, (de, _) in enumerate(leads) if _divides(de, e)), None)
        if i is None:
            remainder[e] = c
            continue
        me = tuple(map(sub, e, leads[i][0]))
        mc = Fraction(c) / leads[i][1]
        quotients[i][me] = mc
        for fe, fc in tails[i]:
            k = tuple(map(add, me, fe))
            if k not in work:
                work[k] = Fraction(0)
                heapq.heappush(heap, (tuple(-x for x in key(k)), k))
            work[k] -= mc * fc
    return ([Polynomial(p.ambient, q) for q in quotients],
            Polynomial(p.ambient, remainder))


def _wide_fraction(rng, bits):
    """A nonzero rational whose numerator and denominator have up to `bits` bits."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 2 ** bits - 1),
                    rng.randint(1, 2 ** bits - 1))


def _scaled(rng, p, bits):
    """p with every coefficient multiplied by its own wide rational."""
    return Polynomial(p.ambient, {e: c * _wide_fraction(rng, bits) for e, c in p.terms.items()})


def _assert_same_division(p, divisors, key):
    got_q, got_r = divmod_polynomials(p, divisors, key)
    want_q, want_r = _fraction_division(p, divisors, key)
    assert [list(q.terms.items()) for q in got_q] == \
        [list(q.terms.items()) for q in want_q]
    assert list(got_r.terms.items()) == list(want_r.terms.items())
    for q in got_q + [got_r]:
        assert_canonical(q)
    _assert_integer_multiple(normal_form(p, _DivisorIndex(p.ambient, key, divisors)), want_r)


def _integer_form(index, i):
    """(exponents, coefficients) of divisor i's integer form, lead first."""
    terms = [(index.leads[i], index.coeffs[i])] + index.tails[i]
    return [e for e, _ in terms], [c for _, c in terms]


@pytest.mark.parametrize("name", ORDERS)
def test_integer_division_matches_fraction_division(name):
    """divmod_polynomials gives the Fraction loop's quotients and remainder,
    coefficient for coefficient and in the same term order, and normal_form
    gives a positive integer multiple of that remainder; on seeded non-monic
    divisors with non-integral coefficients and negative leads, and again
    with every coefficient scaled by a rational of up to 256 bits (the
    parser's cap)."""
    key = ORDERS[name]
    rng = random.Random(f"integer-division-{seed_tag(name)}")
    negative = 0
    for run in range(40):
        divisors = [random_polynomial(rng, AMB, max_terms=4, max_exp=2, nonzero=True)
                    for _ in range(rng.randint(1, 5))]
        p = random_polynomial(rng, AMB, max_terms=10, max_exp=4)
        if run % 2:
            divisors = [_scaled(rng, d, 256) for d in divisors]
            p = _scaled(rng, p, 256)
        negative += sum(d.lead(key)[1] < 0 for d in divisors)
        _assert_same_division(p, divisors, key)
        # products of the divisors leave remainder zero
        q = random_polynomial(rng, AMB, max_terms=3, max_exp=2)
        _assert_same_division(q * divisors[0], divisors, key)
    assert negative


def test_integer_division_without_variables():
    """Over a zero-variable ambient the integer loop divides rationals as
    the Fraction loop does, wide ones included."""
    rng = random.Random(47)
    for _ in range(50):
        divisors = [Polynomial.constant((), _wide_fraction(rng, rng.choice((3, 256))))
                    for _ in range(rng.randint(1, 3))]
        p = Polynomial.constant((), _wide_fraction(rng, 256) * rng.randint(0, 1))
        _assert_same_division(p, divisors, lex)


def test_divisor_index_holds_primitive_integer_forms():
    """Each indexed divisor is a rational multiple of an integer form whose
    coefficients have gcd 1 and whose lead coefficient is positive, with
    the lead as the divisor's lead; the multiple is the ratio of the two
    lead coefficients.  Wide and negative-lead divisors included."""
    rng = random.Random(53)
    for key in ORDERS.values():
        divisors = [random_polynomial(rng, AMB, max_terms=5, max_exp=3, nonzero=True)
                    for _ in range(30)]
        divisors += [_scaled(rng, d, 256) for d in divisors[:10]]
        divisors += [d.scale(-1) for d in divisors[:10]]
        index = _DivisorIndex(AMB, key, divisors)
        for i, d in enumerate(divisors):
            exps, coeffs = _integer_form(index, i)
            assert all(type(c) is int for c in coeffs)
            assert math.gcd(*coeffs) == 1 and coeffs[0] > 0
            assert exps[0] == d.lead(key)[0]
            factor = Fraction(d.lead(key)[1]) / coeffs[0]
            assert Polynomial(AMB, dict(zip(exps, coeffs))).scale(factor) == d


def test_buchberger_reduces_through_normal_form(monkeypatch):
    """buchberger looks `normal_form` up in the groebner module at call
    time, so a wrapper rebound there (as perfbench/tracer.py rebinds its
    counter) sees every S-pair reduction and every inter-reduction, and the
    basis does not change.  No S-polynomial of this ideal is zero before
    reduction, so there is one call per S-pair and one per element.  The
    reduced elements are built on first read, so `want`'s are read before
    the wrapper goes in and `got`'s under it."""
    ideal = _ideal("x^2 + 2*y*z - 3", "y^2 - x*z + 1/2", "3*z^2 - x*y")
    want = buchberger(ideal, grevlex_key)
    want.elements
    calls = []
    real = groebner.normal_form

    def counted(p, basis):
        calls.append(p)
        return real(p, basis)

    monkeypatch.setattr(groebner, "normal_form", counted)
    got = buchberger(ideal, grevlex_key)
    got.elements
    assert got == want
    assert len(calls) == got.pairs_processed + len(got.elements) == 8 + 6


def test_only_reading_the_reduced_basis_builds_fractions(monkeypatch):
    """A run stays in integer forms: every normal form it takes has int
    coefficients, and `_divided`, which builds the Fraction polynomials, is
    not called while `buchberger` runs.  It is called once per element
    when `free_of(front)` is read and once per element when `elements` is
    read, and not again on a second read of `elements`.  Seeded ideals
    under the block orders, with rational generators."""
    divided, forms = [], []
    real_divided, real_nf = groebner._divided, groebner.normal_form

    def counted(*args):
        divided.append(args)
        return real_divided(*args)

    def recorded(p, index):
        r = real_nf(p, index)
        forms.append(r)
        return r

    monkeypatch.setattr(groebner, "_divided", counted)
    monkeypatch.setattr(groebner, "normal_form", recorded)
    rng = random.Random(61)
    for name in ("block1", "block2"):
        key, f = ORDERS[name], front(name)
        for _ in range(10):
            ideal = IdealBasis(AMB, [random_polynomial(rng, AMB, max_terms=3, max_exp=2,
                                                       nonzero=True)
                                     for _ in range(rng.randint(2, 3))])
            gb = buchberger(ideal, key)
            assert not divided
            assert all(type(c) is int for r in forms for c in r.terms.values())
            part = gb.free_of(f)
            assert len(divided) == len(part) == sum(1 for e in gb.leads if not any(e[:f]))
            divided.clear()
            elements = gb.elements
            assert len(divided) == len(elements) == len(gb.leads)
            divided.clear()
            gb.elements
            assert not divided
            forms.clear()


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
    """Reducing twice modulo a basis gives the same remainder as reducing
    once."""
    rng = random.Random(17)
    gb = buchberger(_ideal("x^2 - y", "y^2 - z"), grevlex_key)
    for _ in range(10):
        p = random_polynomial(rng, AMB)
        r = _remainder(p, gb)
        assert _remainder(r, gb) == r


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
        lifted = g.over(amb)
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


def _box_count(gb):
    """Standard monomials counted over the whole box below the pure-power
    bounds, each tested against every lead."""
    if not all(map(any, gb.leads)):
        return 0  # the unit ideal
    bounds = [min(lead[i] for lead in gb.leads if sum(lead) == lead[i] > 0)
              for i in range(len(gb.ambient))]
    return sum(1 for exps in itertools.product(*(range(b) for b in bounds))
               if not any(_divides(lead, exps) for lead in gb.leads))


def _milnor_workload_forms(monkeypatch):
    """The Jacobian ideals of the benchmark's `milnor` forms, as written and
    under its seed-3 linear changes."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("milnor_forms_source", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    changes = iter(workloads.linear_changes(3))
    for _name, text, ambient, _mu in workloads.MILNOR_FORMS:
        for h in [parse_polynomial(text, ambient)] + [
                workloads._changed(text, ambient, next(changes))
                for _ in range(workloads.CHANGES_PER_FORM)]:
            yield IdealBasis(ambient, [h.partial_derivative(v) for v in ambient])


def test_standard_monomials_walk_the_staircase(monkeypatch):
    """The staircase walk counts what the whole box counts, on every `milnor`
    workload form and on seeded random monomial ideals, finite or not."""
    ideals = list(_milnor_workload_forms(monkeypatch))
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(1, 4)
        amb = AMB + ("w",)
        monomials = [[rng.randint(0, 4) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        for i in range(n):
            if rng.random() < 0.9:
                monomials.append([rng.randint(1, 6) if j == i else 0 for j in range(n)])
        ideals.append(IdealBasis(amb[:n], [
            Polynomial(amb[:n], {tuple(e): rng.randint(1, 3)}) for e in monomials]))
    finite = 0
    for ideal in ideals:
        gb = buchberger(ideal, grevlex_key)
        count = _standard_monomial_count(gb)
        if count is None:
            assert any(all(sum(lead) != lead[i] for lead in gb.leads)
                       for i in range(len(gb.ambient)))
        else:
            finite += 1
            assert count == _box_count(gb), ideal
    assert finite > 100


def test_quotient_dimension_infinite_is_none():
    """A positive-dimensional quotient reports None instead of a count."""
    assert quotient_dimension(_ideal("x*y", amb=("x", "y"))) is None


def test_quotient_dimension_reads_only_the_leads(monkeypatch):
    """A quotient dimension, and so a Milnor number, reduces each S-polynomial
    that is not zero before reduction and nothing else: no basis element is
    inter-reduced, since the count reads only the leads."""
    calls, spolys = [], []
    real_nf, real_spoly = groebner.normal_form, groebner._spoly

    def counted(p, basis):
        calls.append(p)
        return real_nf(p, basis)

    def recorded(*args):
        s = real_spoly(*args)
        spolys.append(s)
        return s

    monkeypatch.setattr(groebner, "normal_form", counted)
    monkeypatch.setattr(groebner, "_spoly", recorded)
    assert quotient_dimension(_ideal("x^2 + 2*y*z - 3", "y^2 - x*z + 1/2",
                                     "3*z^2 - x*y")) == 8
    assert len(calls) == len(spolys) == 8
    for text, mu in [("x^3 + y^4", 6), ("(x+y)^3 + (x+y)*(y-z)^3 + (x+2*z)^2", 7)]:
        calls.clear()
        spolys.clear()
        assert milnor_number(parse_polynomial(text, AMB if "z" in text else ("x", "y"))) == mu
        assert len(calls) == sum(1 for s in spolys if s)


@pytest.mark.parametrize("name", ["block1", "block2"])
def test_free_of_is_the_front_free_part_of_the_reduced_basis(name):
    """Under a block order, `free_of(front)` equals the elements of the
    reduced basis that are free of the front block, whether it is read
    before or after `elements`: the reduced basis of the elimination ideal
    is unique, so reducing only its part gives the same polynomials.  The
    divisor index's live set survives every read.  Seeded ideals."""
    key, f = ORDERS[name], front(name)
    rng = random.Random(f"free-of-{seed_tag(name)}")
    parts = set()
    for _ in range(30):
        ideal = IdealBasis(AMB, [random_polynomial(rng, AMB, max_terms=3, max_exp=2,
                                                   nonzero=True)
                                 for _ in range(rng.randint(2, 3))])
        lazy, eager = buchberger(ideal, key), buchberger(ideal, key)
        live = lazy._index.live
        first = lazy.free_of(f)
        assert lazy._index.live == live
        want = tuple(g for g in eager.elements
                     if not any(any(e[:f]) for e in g.terms))
        assert first == want == eager.free_of(f) == lazy.free_of(f)
        assert lazy.elements == eager.elements
        assert lazy._index.live == live
        parts.add(len(want))
    assert {0, 1} <= parts


def test_contains_one_reads_the_leads():
    """`contains_one`, read from the leads before the basis is reduced,
    agrees with the reduced basis, on a unit and on a non-unit ideal; the
    leads are those of the reduced elements, in order."""
    unit = buchberger(_ideal("x*y - 1", "x", "y^2 + z"), grevlex_key)
    assert unit.contains_one()
    assert unit.leads == ((0, 0, 0),)
    assert unit.elements == (Polynomial.constant(AMB, 1),)
    proper = buchberger(_ideal("x^2 - y", "x^3 - z"), lex)
    assert not proper.contains_one()
    assert proper.leads == tuple(g.lead(lex)[0] for g in proper.elements)
    assert len(proper.elements) == 4


def test_copy_and_pickle_round_trips():
    """copy, deepcopy and pickle rebuild an equal basis with the same leads
    and the same eliminated part, before and after `elements` is read."""
    gb = buchberger(_ideal("x^2 + 2*y*z - 3", "y^2 - x*z + 1/2", "3*z^2 - x*y"),
                    grevlex_key)
    for _ in range(2):
        for twin in (copy.copy(gb), copy.deepcopy(gb), pickle.loads(pickle.dumps(gb))):
            assert twin.leads == gb.leads
            assert twin.free_of(1) == gb.free_of(1)
            assert twin == gb
            assert hash(twin) == hash(gb)
        gb.elements


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
    gb = buchberger(critical_ideal(action_coordinates_germ(3, 2, AL_MATRICES[(3, 2)])),
                    elimination_key(6))
    assert gb.pairs_processed == 46
    assert _basis_lines(gb) == AL6_BLOCK_BASIS


@pytest.mark.parametrize("n, R, pairs, length", [
    (4, ((1, 1, 1, 0), (0, 1, 2, 1)), 99, 41),
    (5, ((1, 1, 1, 1, 0), (0, 1, 2, 3, 1)), 172, 62),
    (4, AL_MATRICES[(4, 3)], 426, 95),
], ids=["n4", "n5", "n4-k3"])
def test_action_coordinate_block_basis_counts_are_pinned(n, R, pairs, length):
    """S-pair counts and basis lengths of the block-order critical ideals of
    the (n, k) action-coordinate germs (k the rows of R), so a change to the
    pair criteria or to the generators shows up as a count change; (4, 3)
    is the one germ whose critical ideal holds 3 x 3 minors."""
    gb = buchberger(critical_ideal(action_coordinates_germ(n, len(R), R)),
                    elimination_key(2 * n))
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
    monic = [g.scale(Fraction(1) / g.lead(key)[1]) for g in gens]
    assert any(g != m for g, m in zip(gens, monic))
    got = buchberger(IdealBasis(AMB, gens), key)
    want = buchberger(IdealBasis(AMB, monic), key)
    assert got.elements == want.elements
    assert got.pairs_processed == want.pairs_processed == pairs


def test_spoly_of_integer_forms():
    """The S-polynomial of two indexed divisors has int coefficients, and it
    is x^a*f - x^b*g for the monic f and g times lcm(a_f, a_g), the lcm of
    the lead coefficients of their integer forms, under every order."""
    rng = random.Random(29)
    for key in ORDERS.values():
        for _ in range(20):
            f, g = (random_polynomial(rng, AMB, max_terms=4, max_exp=3, nonzero=True)
                    for _ in range(2))
            index = _DivisorIndex(AMB, key, [f, g])
            f, g = (p.scale(Fraction(1) / p.lead(key)[1]) for p in (f, g))
            fe, ge = f.lead(key)[0], g.lead(key)[0]
            lcm = tuple(map(max, fe, ge))
            want = (Polynomial(AMB, {tuple(map(sub, lcm, fe)): 1}) * f
                    - Polynomial(AMB, {tuple(map(sub, lcm, ge)): 1}) * g)
            got = _spoly(index, 0, 1, lcm)
            assert all(type(c) is int for c in got.terms.values())
            assert got == want.scale(math.lcm(*index.coeffs))


def test_packed_kernel_matches_tuple_arithmetic_seeded():
    """Packed lcms, the guard divisibility test, the coprimality test and
    the order of proper divisors agree with tuple arithmetic, in 0-18
    variables at widths 1-10 with exponents up to 2**(width - 1) - 1; half
    of the pairs are built so that a divides b."""
    rng = random.Random(31)
    for _ in range(2000):
        n = rng.randint(0, 18)
        width = rng.randint(1, 10)
        top = (1 << width - 1) - 1
        a, b = (tuple(rng.choice((0, 0, min(1, top), top, rng.randint(0, top)))
                      for _ in range(n))
                for _ in range(2))
        if rng.random() < 0.5:
            b = tuple(x + rng.randint(0, top - x) for x in a)
        check_packed_kernel(a, b, width)
        check_packed_kernel(b, a, width)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _reference_update(pairs, leads, key, width):
    """The Gebauer-Moeller update without the monomial-pair rule, by brute
    force: lcms by tuple(map(max, ...)), the chain test against every other
    new lcm, and coprimality read off the exponents.  New pairs are
    appended by degree, then by i, as `_update_pairs` appends them; every
    entry ends in its lcm packed at `width`, so queued pairs are packed
    again when the width grows."""
    t = len(leads) - 1
    lt = leads[t]
    lcms = [tuple(map(max, lead, lt)) for lead in leads[:t]]
    new = [(sum(lcm), key(lcm), i, t, lcm, reference_pack(lcm, width))
           for i, lcm in enumerate(lcms)
           if lcms.index(lcm) == i
           and not any(other != lcm and _divides(other, lcm) for other in lcms)
           and any(a and b for a, b in zip(leads[i], lt))]
    new.sort(key=lambda entry: entry[0])
    pairs[:] = [(d, k, i, j, lcm, reference_pack(lcm, width)) for d, k, i, j, lcm, _ in pairs
                if not (_divides(lt, lcm) and lcm not in (lcms[i], lcms[j]))]
    pairs += new
    heapq.heapify(pairs)


def test_update_pairs_matches_reference_seeded():
    """After every append, in 0-18 variables (18 is the ambient of
    `al-n8`), the queue equals the one the brute-force reference update
    builds: entry for entry when no element is a monomial, and otherwise
    the reference queue minus exactly the pairs of two monomials.  Leads
    come from a small pool so that repeated lcms and chain-criterion hits
    are common.  In half of the runs the later leads raise the pool's
    exponent 3 to 127, then 128, then 300, so the width grows mid-run, up
    to three times, and queued pairs are packed again."""
    rng = random.Random(43)
    keys = list(ORDERS.values())
    skipped = repacked = 0
    for run in range(300):
        n = rng.randint(0, 18)
        key = rng.choice(keys)
        pool = [tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n)) for _ in range(8)]
        with_monomials = run % 2 == 1
        crossing = run % 4 >= 2
        size = rng.randint(2, 16)
        leads, packed, monomial, width = [], [], [], 1
        ours, ref = [], []
        for step in range(size):
            lead = rng.choice(pool)
            if crossing and 2 * step >= size:
                big = (127, 128, 300)[3 * (2 * step - size) // size]
                lead = tuple(big if e == 3 else e for e in lead)
            leads.append(lead)
            queued, old_width = len(ours), width
            width = _pack_newest(ours, leads, packed, width)
            repacked += queued > 0 and width > old_width
            assert max((e for lead in leads for e in lead), default=0) < 1 << width - 1
            assert packed == [reference_pack(e, width) for e in leads]
            monomial.append(with_monomials and rng.random() < 0.6)
            _update_pairs(ours, leads, packed, monomial, key, width)
            _reference_update(ref, leads, key, width)
            if not with_monomials:
                assert ours == ref
            else:
                kept = [e for e in ref if not (monomial[e[2]] and monomial[e[3]])]
                skipped += len(ref) - len(kept)
                assert sorted(ours) == sorted(kept)
    assert skipped and repacked


# Reduced bases and S-pair counts of ideals whose leads outgrow the packing
# width during the run, as computed before the pair update was packed.
LARGE_EXPONENT_BASES = {
    ('x - y', 'y^300 - 1'): {
        'lex0': (0, ['y^300-1', 'x-y']),
        'degrevlex0': (0, ['x-y', 'y^300-1']),
        'block1': (0, ['y^300-1', 'x-y']),
        'block2': (0, ['x-y', 'y^300-1']),
    },
    ('x^2*y - z', 'y^130 - x', 'z^3 - x*y'): {
        'lex0': (6, ['z^653-z', '-z^6+y*z', 'y^131-z^3', '-y^130+x']),
        'degrevlex0': (296, ['z^3-x*y', 'x^2*y-z', 'x^3*z^2-x^2', 'y^93*z-x^93', 'x*y^94-x^92',
                             'x^95-y^92*z^2', 'y^130-x']),
        'block1': (4, ['z^6-y*z', 'y^131-z^3', 'y^130*z^3-z', '-y^130+x']),
        'block2': (12, ['z^653-z', '-z^6+y*z', '-z^651+x*z', '-z^3+x*y', '-z^648+x^2', 'y^130-x']),
    },
    ('x^127 - y', 'y^2 - z^129', 'x*z - 1'): {
        'lex0': (258, ['z^383-1', '-z^256+y', '-z^382+x']),
        'degrevlex0': (133, ['x*z-1', 'y^3-z^2', 'x^64-y*z^63', 'y*z^64-x^63', 'z^66-x^63*y^2']),
        'block1': (257, ['y^3-z^2', 'y*z^127-1', 'z^129-y^2', '-y*z^126+x']),
        'block2': (258, ['z^383-1', '-z^256+y', '-z^382+x']),
    },
    ('x^200*y^3 - z', 'x^5 - y^140'): {
        'lex0': (1, ['y^5603-z', '-y^140+x^5']),
        'degrevlex0': (2, ['y^140-x^5', 'x^200*y^3-z', 'x^205-y^137*z']),
        'block1': (1, ['y^5603-z', '-y^140+x^5']),
        'block2': (2, ['y^140-x^5', 'x^200*y^3-z', 'x^205-y^137*z']),
    },
}


def test_large_exponent_bases_are_pinned(monkeypatch):
    """Under all four orders, the reduced bases and `pairs_processed` of
    ideals with exponents 127-300 are the pinned ones, and some runs widen
    the packing while pairs are queued."""
    repacks = []

    def pack_newest(pairs, leads, packed, width):
        new_width = _pack_newest(pairs, leads, packed, width)
        if new_width > width and pairs:
            repacks.append(new_width)
        return new_width

    monkeypatch.setattr(groebner, "_pack_newest", pack_newest)
    for gens, by_order in LARGE_EXPONENT_BASES.items():
        for name, (pairs, basis) in by_order.items():
            gb = buchberger(_ideal(*gens), ORDERS[name])
            assert (gb.pairs_processed, _basis_lines(gb)) == (pairs, basis), (gens, name)
    assert repacks


def test_buchberger_without_variables():
    """Over a zero-variable ambient nonzero constants generate the unit
    ideal; every new lcm is the empty monomial and no pair is queued."""
    gens = [Polynomial.constant((), c) for c in (3, Fraction(-1, 2), 7)]
    gb = buchberger(IdealBasis((), gens), grevlex_key)
    assert gb.elements == (Polynomial.constant((), 1),)
    assert gb.pairs_processed == 0


@pytest.mark.parametrize("name", ORDERS)
def test_monomial_ideal_needs_no_pairs(name):
    """A purely monomial ideal queues no S-pair, and its reduced basis is
    its minimal monomial generators in key order; seeded monomials with
    repeats and divisibilities, against the all-pairs minimal set."""
    key = ORDERS[name]
    rng = random.Random(f"monomial-{seed_tag(name)}")
    for _ in range(20):
        exps = [tuple(rng.randint(0, 3) for _ in AMB) for _ in range(rng.randint(1, 7))]
        gens = [Polynomial(AMB, {e: rng.choice((1, -3, Fraction(2, 5)))}) for e in exps]
        gb = buchberger(IdealBasis(AMB, gens), key)
        minimal = {e for e in exps
                   if not any(o != e and _divides(o, e) for o in exps)}
        assert gb.pairs_processed == 0
        assert gb.elements == tuple(Polynomial(AMB, {e: 1}) for e in sorted(minimal, key=key))
