"""Buchberger Groebner bases, elimination and quotient dimension.

Pair selection uses the normal strategy (smallest lcm degree first).  When
an element t joins the basis, the Gebauer-Moeller update prunes five kinds
of pair: a new pair (i, t) whose lcm repeats that of a new pair with a
smaller i; a new pair whose lcm another new lcm properly divides; a new pair
whose two leads are coprime; a new pair of two monomials, whose S-polynomial
is zero; and a queued old pair (i, j) whose lcm lead_t divides, unless that
lcm equals lcm(lead_i, lead_t) or lcm(lead_j, lead_t).
The update runs on packed exponents (Monagan and Pearce, CASC 2007): each
lead of a run is one int with `width` bits per variable and the top bit of
each field kept clear as a guard, so one lcm, one divisibility test or one
coprimality test is a few int operations on all variables at once.  The
width grows during a run when a lead needs it.  Every public entry point
takes a cap on the number of S-pairs reduced; exceeding it raises
ResourceLimitExceeded so callers can degrade instead of hanging.  A
monomial order is its key function: `poly.grevlex_key` for degrevlex,
`elimination_key(front)` for the block elimination order.

A Buchberger run keeps one divisor index of its basis (`poly._DivisorIndex`),
appending each new element, so each normal form finds its reducers with
one AND per variable.  The index holds each element once, as a primitive
integer polynomial with a positive lead coefficient, and the run works on
those integer forms alone: each S-polynomial is built from two of them in
one pass, `normal_form` reduces it with the fraction-free heap division of
`poly._reduce` to a positive multiple of its remainder, and a nonzero
remainder joins the index, which takes its content out.  The same index
finds the minimal elements of the final basis, whose leads are the leads
of the reduced basis, and the `GroebnerBasis` a run returns keeps both.
It inter-reduces only where it is read: its `elements`, the reduced basis,
are built on first read, and each divides a minimal element by the index
narrowed to the other minimal ones and is made monic, the only Fractions
built.  `quotient_dimension` reads only the leads (Macaulay's basis
theorem) and counts standard monomials through the run's own index, so a
Milnor number reduces no basis element.  `eliminate` reduces only the
elements free of the eliminated block, which form the reduced basis of the
elimination ideal.  Besides these entry points, `buchberger` serves
`poly.gcd_polynomials`, which reads lcm(p, q) off the basis of
(t*p, (1 - t)*q) under `elimination_key(1)`, the same way.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import gcd
from operator import add, itemgetter, sub
from typing import Callable, Sequence

from .poly import (DEFAULT_PAIR_LIMIT, AmbientMismatchError, PolyError, Polynomial,
                   _DivisorIndex, _divided, _reduce, grevlex_key)
# not called here: perfbench/tracer.py times division under this module's name
from .poly import divmod_polynomials  # noqa: F401


class ResourceLimitExceeded(RuntimeError):
    """The S-pair budget ran out before the basis stabilized."""

    def __init__(self, pairs_processed: int, limit: int):
        super().__init__(
            f"S-pair budget exhausted: processed {pairs_processed} of {limit}")
        self.pairs_processed = pairs_processed
        self.limit = limit


def elimination_key(front: int):
    """Key of the two-block elimination order, front block first.

    Both blocks are compared by degrevlex; a monomial is larger whenever its
    front block is larger, so any basis element whose lead is front-free is
    entirely front-free.  Keys are flat tuples of one length per ambient,
    so tuple comparison is the order.
    """
    def key(exps: Sequence[int]) -> tuple[int, ...]:
        return grevlex_key(exps[:front]) + grevlex_key(exps[front:])
    return key


@dataclass(frozen=True)
class IdealBasis:
    """A finite generating set; zero generators are dropped."""

    ambient: tuple[str, ...]
    generators: tuple[Polynomial, ...]

    def __init__(self, ambient, generators):
        ambient = tuple(ambient)
        gens = []
        for g in generators:
            if g.ambient != ambient:
                raise AmbientMismatchError(
                    f"generator ambient {g.ambient} != ideal ambient {ambient}")
            if not g.is_zero():
                gens.append(g)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "generators", tuple(gens))


@dataclass(frozen=True, eq=False)
class GroebnerBasis:
    """Groebner basis of one Buchberger run, reduced only where it is read.

    It keeps the run's divisor index and the indices of its minimal
    elements (`_minimalize`) in key order.  `leads` are their leads, which
    are the leads of the reduced basis.  `free_of(front)` reduces only the
    minimal elements whose leads are free of the first `front` variables;
    `elements`, the whole reduced basis, monic, inter-reduced and sorted by
    key, is `free_of(0)`, built on first read and memoized.  Two bases are
    equal when their ambients, keys, reduced elements and pair counts are.
    """

    ambient: tuple[str, ...]
    key: Callable[[Sequence[int]], tuple[int, ...]]
    _index: _DivisorIndex = field(repr=False)
    _minimal: list[int] = field(repr=False)
    pairs_processed: int = 0

    @property
    def leads(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._index.leads[i] for i in self._minimal)

    @cached_property
    def elements(self) -> tuple[Polynomial, ...]:
        return self.free_of(0)

    def free_of(self, front: int) -> tuple[Polynomial, ...]:
        """The reduced elements whose leads are free of the first `front`
        variables, in key order.  Under `elimination_key(front)` they are
        the elements free of those variables, the reduced basis of the
        ideal's intersection with the subring of the others (Cox, Little
        and O'Shea, 3.1)."""
        leads = self._index.leads
        ids = [i for i in self._minimal if not any(leads[i][:front])]
        return tuple(_interreduce(self._index, self._minimal, ids))

    def contains_one(self) -> bool:
        leads = self.leads
        return len(leads) == 1 and not any(leads[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return ((self.ambient, self.key, self.elements, self.pairs_processed)
                == (other.ambient, other.key, other.elements, other.pairs_processed))

    def __hash__(self):
        return hash((self.ambient, self.key, self.elements, self.pairs_processed))

    def __repr__(self) -> str:
        return (f"GroebnerBasis(ambient={self.ambient!r}, key={self.key!r}, "
                f"elements={self.elements!r}, pairs_processed={self.pairs_processed!r})")


def normal_form(p: Polynomial, index: _DivisorIndex) -> Polynomial:
    """D * r for the remainder r of p modulo the live divisors of a
    Buchberger run's index and some D > 0, with int coefficients: the
    integer remainder of `poly._reduce`, zero exactly when r is."""
    return Polynomial._trusted(p.ambient, _reduce(p, index)[0])


def _spoly(index: _DivisorIndex, i: int, j: int, lcm: tuple[int, ...]) -> Polynomial:
    """(b/d)*x^u*g_i - (a/d)*x^v*g_j for the integer forms g_i and g_j of
    the index, with leads a*x^l_i and b*x^l_j, d = gcd(a, b) and
    x^u*x^l_i = x^v*x^l_j = x^lcm: a positive integer multiple of the
    S-polynomial of the monic elements, with int coefficients.  The lead
    terms are skipped as cancelled, and the tails are shifted and scaled
    into one dict.
    """
    a, b = index.coeffs[i], index.coeffs[j]
    d = gcd(a, b)
    fi, fj = b // d, a // d
    u = tuple(map(sub, lcm, index.leads[i]))
    v = tuple(map(sub, lcm, index.leads[j]))
    out = {tuple(map(add, e, u)): fi * c for e, c in index.tails[i]}
    for e, c in index.tails[j]:
        k = tuple(map(add, e, v))
        old = out.get(k)
        if old is None:
            out[k] = -fj * c
        else:
            d = old - fj * c
            if d:
                out[k] = d
            else:
                del out[k]
    return Polynomial._trusted(index.ambient, out)


def _pack(exps: Sequence[int], width: int) -> int:
    """Exponent tuple as one int, variable v in bits v*width to
    (v + 1)*width - 1.  Every exponent must be below 2**(width - 1), so the
    top bit of each field, its guard, stays clear."""
    p = 0
    for e in reversed(exps):
        p = p << width | e
    return p


def _pack_newest(pairs: list, leads: list[tuple], packed: list[int], width: int) -> int:
    """Append the packed newest lead to `packed` and return the width.  When
    an exponent of that lead reaches 2**(width - 1), the width grows to fit
    it, and the stored leads and the packed lcm of each queued pair are
    packed again; the heap order, which never reads them, is kept."""
    lead = leads[-1]
    top = max(lead, default=0)
    if top >> width - 1:
        width = top.bit_length() + 1
        packed[:] = [_pack(e, width) for e in leads[:-1]]
        pairs[:] = [entry[:5] + (_pack(entry[4], width),) for entry in pairs]
    packed.append(_pack(lead, width))
    return width


def _guard_bits(width: int, n: int) -> int:
    """The top bit of each of n fields of `width` bits: G in `_update_pairs`."""
    return ((1 << width * n) - 1) // ((1 << width) - 1) << width - 1


def _packed_lcms(packed: list[int], pt: int, guard: int, width: int) -> list[int]:
    """lcm(a, pt) for each packed a: ((a | G) - pt) & G keeps the guard of
    each field where a_v >= pt_v, shifting it down and multiplying by a
    field of ones fills those fields, and the filled mask picks a's field
    there and pt's elsewhere."""
    shift, fill = width - 1, (1 << width) - 1
    return [pt ^ ((a ^ pt) & ((((a | guard) - pt) & guard) >> shift) * fill)
            for a in packed]


def _update_pairs(pairs: list, leads: list[tuple], packed: list[int],
                  monomial: list[bool], key, width: int):
    """Gebauer-Moeller update for the newest basis element t.

    Of the pairs (i, t), queue one per distinct lcm(lead_i, lead_t), with the
    smallest i, and only for lcms that no other such lcm properly divides
    (chain criterion), whose two leads share a variable (coprime-lead
    criterion) and whose two elements are not both monomials (their
    S-polynomial is zero).  Coprime and monomial pairs still take part in
    the chain test: each has a standard representation already.  Drop every
    queued pair (i, j) whose lcm lead_t divides unless it equals
    lcm(lead_i, lead_t) or lcm(lead_j, lead_t) (chain criterion on old
    pairs).

    Everything runs on the leads as `packed` holds them (see `_pack`), with
    G the guard bits: a divides c exactly when ((c | G) - a) & G == G, as no
    field borrows from the next and a field keeps its guard exactly when
    c_v >= a_v; the same difference gives the lcms (`_packed_lcms`); and two
    leads are coprime exactly when their lcm is their sum.  A proper divisor
    packs to a smaller int, so walking the distinct lcms in increasing order
    meets every minimal lcm before its multiples; a non-minimal divisor
    implies a minimal one, so testing against the minimal ones suffices.
    Only a queued pair gets an exponent tuple and an order key.  A queued
    pair is (degree, order key, i, j, lcm, packed lcm), and new pairs join
    by degree, then by i; no two share (i, j), so the packed lcm never
    decides heap order.
    """
    t = len(packed) - 1
    pt, lt = packed[t], leads[t]
    guard = _guard_bits(width, len(lt))
    lcms = _packed_lcms(packed[:t], pt, guard, width)
    first: dict[int, int] = {}
    for i, c in enumerate(lcms):
        first.setdefault(c, i)
    minimal: list[int] = []
    new = []
    mono_t = monomial[t]
    for c in sorted(first):
        cg = c | guard
        # newest first: on the `elimination` benchmark this makes 2.6 times
        # fewer divisibility tests than oldest first
        for m in reversed(minimal):
            if (cg - m) & guard == guard:
                break
        else:
            minimal.append(c)
            i = first[c]
            # otherwise the leads are coprime or both elements are monomials
            if c != packed[i] + pt and not (mono_t and monomial[i]):
                lcm = tuple(map(max, leads[i], lt))
                new.append((sum(lcm), key(lcm), i, t, lcm, c))
    new.sort(key=itemgetter(0, 2))
    survivors = [entry for entry in pairs
                 if not (((entry[5] | guard) - pt) & guard == guard
                         and entry[5] != lcms[entry[2]] and entry[5] != lcms[entry[3]])]
    pairs[:] = survivors + new
    heapq.heapify(pairs)


def _minimalize(index: _DivisorIndex) -> int:
    """Bitset of the elements whose lead no other lead divides; of equal
    leads the first is kept."""
    same: dict[tuple, int] = {}
    for i, lead in enumerate(index.leads):
        same[lead] = same.get(lead, 0) | 1 << i
    keep = 0
    for lead, ids in same.items():
        if not index.dividing(lead) & ~ids:
            keep |= ids & -ids
    return keep


def _interreduce(index: _DivisorIndex, minimal: list[int], ids: list[int]) -> list[Polynomial]:
    """Reduce each element of `ids` by the other elements of `minimal` and
    make it monic, in the order of `ids`; one pass suffices on a minimal
    basis, since no lead divides another and every lead survives.  The
    index's live set is narrowed for each division and restored at the
    end."""
    live, keep = index.live, sum(1 << i for i in minimal)
    out = []
    for i in ids:
        index.live = keep ^ 1 << i
        lead = index.leads[i]
        terms = dict(index.tails[i])
        terms[lead] = index.coeffs[i]
        r = normal_form(Polynomial._trusted(index.ambient, terms), index)
        out.append(_divided(index.ambient, r.terms, r.terms[lead]))
    index.live = live
    return out


def buchberger(ideal: IdealBasis, key,
               max_pairs: int = DEFAULT_PAIR_LIMIT) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the order of `key`.

    `max_pairs` caps, and `pairs_processed` counts, only the S-pairs that
    survive the pair criteria and are taken from the queue; a pruned pair is
    never queued, so it counts against neither.  The run holds each element
    once, as the primitive integer form of its divisor index, and its
    S-polynomials and their remainders have int coefficients; Fractions
    appear only in the generators and in the monic reduced basis, built
    when it is read.
    """
    gens = sorted(ideal.generators, key=lambda g: key(g.lead(key)[0]))
    index = _DivisorIndex(ideal.ambient, key)
    packed: list[int] = []
    width = 1
    monomial: list[bool] = []
    pairs: list = []
    processed = 0

    def add_element(g: Polynomial):
        nonlocal width
        index.append(g)
        width = _pack_newest(pairs, index.leads, packed, width)
        monomial.append(not index.tails[-1])
        _update_pairs(pairs, index.leads, packed, monomial, key, width)

    for g in gens:
        add_element(g)
    while pairs:
        if processed >= max_pairs:
            raise ResourceLimitExceeded(processed, max_pairs)
        _, _, i, j, lcm, _ = heapq.heappop(pairs)
        processed += 1
        s = _spoly(index, i, j, lcm)
        if s.is_zero():
            continue
        r = normal_form(s, index)
        if not r.is_zero():
            add_element(r)
    keep = _minimalize(index)
    minimal = sorted((i for i in range(len(index.leads)) if keep >> i & 1),
                     key=lambda i: key(index.leads[i]))
    return GroebnerBasis(ideal.ambient, key, index, minimal, processed)


def _fresh_name(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def radical_membership(p: Polynomial, ideal: IdealBasis,
                       max_pairs: int = DEFAULT_PAIR_LIMIT) -> bool:
    """Rabinowitsch test: p is in the radical iff 1 in ideal + (1 - t*p)."""
    if p.ambient != ideal.ambient:
        raise AmbientMismatchError("polynomial/ideal ambient mismatch")
    if p.is_zero():
        return True
    t = _fresh_name("t", ideal.ambient)
    ambient = ideal.ambient + (t,)
    gens = [g.over(ambient) for g in ideal.generators]
    tp = Polynomial.variable(ambient, t) * p.over(ambient)
    gens.append(Polynomial.constant(ambient, 1) - tp)
    gb = buchberger(IdealBasis(ambient, gens), grevlex_key, max_pairs)
    return gb.contains_one()


def eliminate(ideal: IdealBasis, drop: Sequence[str],
              max_pairs: int = DEFAULT_PAIR_LIMIT) -> IdealBasis:
    """Generators of the ideal's intersection with the subring of kept variables."""
    drop_set = set(drop)
    unknown = drop_set - set(ideal.ambient)
    if unknown:
        raise PolyError(f"cannot eliminate unknown variables {sorted(unknown)}")
    front = [v for v in ideal.ambient if v in drop_set]
    kept = tuple(v for v in ideal.ambient if v not in drop_set)
    reordered = IdealBasis(
        tuple(front) + kept,
        [g.over(tuple(front) + kept) for g in ideal.generators])
    gb = buchberger(reordered, elimination_key(len(front)), max_pairs)
    return IdealBasis(kept, [g.over(kept) for g in gb.free_of(len(front))])


def quotient_dimension(ideal: IdealBasis,
                       max_pairs: int = DEFAULT_PAIR_LIMIT) -> int | None:
    """Q-dimension of ambient ring / ideal counted by the standard monomials
    of its degrevlex basis; None when the quotient is infinite-dimensional."""
    return _standard_monomial_count(buchberger(ideal, grevlex_key, max_pairs))


def _standard_monomial_count(gb: GroebnerBasis) -> int | None:
    """Number of monomials no lead of the basis divides, or None when some
    variable has no pure-power lead (the count is infinite).  Only the
    leads are read (Macaulay's basis theorem; Cox, Little and O'Shea, 5.3),
    and the monomials are tested through the run's own divisor index, whose
    live leads all have a minimal lead among their divisors."""
    leads = gb.leads
    if not leads:
        return None if gb.ambient else 1
    if gb.contains_one():
        return 0
    bounds = [None] * len(gb.ambient)
    for lead in leads:
        support = [i for i, e in enumerate(lead) if e]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or lead[i] < bounds[i]:
                bounds[i] = lead[i]
    if any(b is None for b in bounds):
        return None
    dividing = gb._index.dividing
    return sum(1 for exps in product(*(range(b) for b in bounds))
               if not dividing(exps))
