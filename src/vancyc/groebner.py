"""Multivariate division, Buchberger Groebner bases, elimination and
quotient dimension.

A monomial order is its key function: `poly.grevlex_key` for degrevlex,
`elimination_key(front)` for the block elimination order.  The key must be
integer-linear: key(0) is zero and key(e) is the sum of e_v times the key
of the v-th unit vector.  Inside a run each monomial is then one int
(packed monomials, Monagan and Pearce, CASC 2007): for n variables and a
field width W, X(e) = K(e) * 2**(n*W) + P(e).  P packs e_v into bits v*W
to (v + 1)*W - 1, the top bit of each field, its guard, kept clear; K packs
the key's digits, signed, each in a field wide enough for any exponent
below the guards, so integer order is the key's order.  X is linear: a
product of monomials is one `+`, its quotient by a dividing lead one `-`, a
form's lead is its `max()`, and a divides c exactly when
((P(c) | G) - P(a)) & G == G for G the guard bits, as no field borrows from
the next.  The unit keys are read once per index, and each term's key is
checked against them when a polynomial is packed; a key that is not linear
is a PolyError.  When a product would fill a guard, W grows in place: the
index, the queued pairs and the form in hand are packed again.  Tuples
appear only at the boundary: generators come in, and leads, reduced
elements and `divmod_polynomials`' results go out.

Division runs on a divisor index (`_DivisorIndex`) of primitive integer
polynomials, with, for each variable v and exponent k, a bitset (a Python
int) of the divisors whose lead has e_v <= k: the AND of one bitset per
variable is the set of leads dividing a monomial, and its lowest bit the
divisor a linear scan would pick.  `_reduce`, the one division loop, keeps
the terms still to be reduced in a heap of negated packed monomials (after
Monagan and Pearce, "Sparse polynomial division using a heap", JSC 2011),
and stays in Python ints by Bareiss's fraction-free scaling.

Pair selection uses the normal strategy (smallest lcm degree first), and
the Gebauer-Moeller update (`_update_pairs`) runs on P, a few int
operations per lcm or test on all variables at once.  Every public entry
point takes a cap on the number of S-pairs reduced; exceeding it raises
ResourceLimitExceeded so callers can degrade instead of hanging.

A Buchberger run keeps one divisor index of its basis and works on its
packed integer forms alone: `_spoly` builds each S-polynomial from two of
them, `normal_form` reduces it, and a nonzero remainder joins the index.
The `GroebnerBasis` a run returns keeps the index and its minimal elements,
and inter-reduces only where it is read: `quotient_dimension` reads only
the leads (Macaulay's basis theorem), so a Milnor number reduces no basis
element, and `eliminate` reduces only the elements free of the eliminated
block, the reduced basis of the elimination ideal; so does
`poly.gcd_polynomials`, which reads lcm(p, q) off the basis of
(t*p, (1 - t)*q) under `elimination_key(1)`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Callable, Iterable, Sequence

from .poly import (DEFAULT_PAIR_LIMIT, AmbientMismatchError, PolyError, Polynomial,
                   grevlex_key)


class ResourceLimitExceeded(RuntimeError):
    """The S-pair budget ran out before the basis stabilized."""

    def __init__(self, pairs_processed: int, limit: int):
        super().__init__(
            f"S-pair budget exhausted: processed {pairs_processed} of {limit}")
        self.pairs_processed = pairs_processed
        self.limit = limit


def elimination_key(front: int):
    """Key of the two-block elimination order, front block first: both
    blocks by degrevlex, so any basis element whose lead is front-free is
    entirely front-free.  Keys are flat tuples of one length per ambient,
    so tuple comparison is the order."""
    def key(exps: Sequence[int]) -> tuple[int, ...]:
        return grevlex_key(exps[:front]) + grevlex_key(exps[front:])
    return key


class _Form(dict):
    """A polynomial inside a run: {X(e): int coefficient}, zero when empty."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self


class _DivisorIndex:
    """Divisors prepared once for division under one order key, and the
    packing of a run's monomials (`units`, the X of the unit vectors).  A
    divisor is a primitive integer polynomial: packed lead, lead
    coefficient, tail ((X, int) pairs) and in `tops` the P of its tail's
    largest exponents.  `below[v][k]` is the bitset (bit i for divisor i)
    of the divisors whose lead has e_v <= k; past a column's end every
    divisor qualifies, so only the `used` columns, longer than one entry,
    are read.  `live` is the bitset of the divisors a division may use, and
    `pairs` the S-pair queue of a Buchberger run."""

    __slots__ = ("ambient", "key", "unit_keys", "width", "radix", "half", "guard", "pmask",
                 "units", "leads", "coeffs", "tails", "tops", "below", "used", "live", "pairs")

    def __init__(self, ambient: tuple[str, ...], key,
                 divisors: Iterable[Polynomial] = ()):
        self.ambient, self.key, n = ambient, key, len(ambient)
        zero = key((0,) * n)
        self.unit_keys = [key(tuple(int(u == v) for u in range(n))) for v in range(n)]
        if any(zero) or any(len(k) != len(zero) for k in self.unit_keys):
            raise PolyError("the order key is not integer-linear")
        self.radix = [0] * len(zero)  # one digit per key entry
        self.leads, self.coeffs, self.tops, self.pairs = [], [], [], []
        self.tails: list[list[tuple[int, int]]] = []
        self.below: list[list[int]] = [[] for _ in ambient]
        self.live = 0
        self._layout(1)
        for form, _ in self.forms(list(divisors)):
            self.append(form)

    def _layout(self, width: int) -> None:
        """Fields of `width` bits for P, and for K signed digits wide enough
        for the key of any monomial whose exponents fit below the guards."""
        n = len(self.ambient)
        spread = max((sum(map(abs, col)) for col in zip(*self.unit_keys)), default=0)
        digit = width + spread.bit_length()
        self.width, self.half = width, 1 << digit - 1
        self.radix = [1 << digit * j for j in reversed(range(len(self.radix)))]
        self.guard = ((1 << width * n) - 1) // ((1 << width) - 1) << width - 1
        self.pmask = (1 << n * width) - 1
        self.units = [(sum(map(mul, k, self.radix)) << n * width) + (1 << v * width)
                      for v, k in enumerate(self.unit_keys)]
        self.used = [(v * width, col) for v, col in enumerate(self.below) if len(col) > 1]

    def pack(self, exps: Sequence[int]) -> int:
        """X(exps), whose exponents must fit below the guards; a PolyError
        when the key of exps is not the sum the unit keys give."""
        x = sum(map(mul, exps, self.units))
        k, half = self.key(exps), self.half
        if (len(k) != len(self.radix) or min(k, default=0) <= -half or max(k, default=0)
                >= half or sum(map(mul, k, self.radix)) != x >> len(self.ambient) * self.width):
            raise PolyError(f"the order key is not integer-linear at {tuple(exps)}")
        return x

    def exponents(self, x: int) -> tuple[int, ...]:
        """The exponent tuple of a packed monomial."""
        w = self.width
        return tuple(map(((1 << w) - 1).__and__,
                         map(x.__rshift__, range(0, len(self.ambient) * w, w))))

    def forms(self, polys: Sequence[Polynomial]) -> list[tuple[_Form, int]]:
        """(D * p packed, D) for each p, D the lcm of its denominators, all
        in one width, widened first to fit them."""
        for p in polys:
            if p.ambient != self.ambient:
                raise AmbientMismatchError(f"ambient {p.ambient} != index's {self.ambient}")
        top = max((max(e, default=0) for p in polys for e in p.terms), default=0)
        if top >> self.width - 1:
            self.widen(top)
        out = []
        for p in polys:
            den = lcm(*[c.denominator for c in p.terms.values()])
            out.append((_Form((self.pack(e), c.numerator * (den // c.denominator))
                              for e, c in p.terms.items()), den))
        return out

    def widen(self, top: int):
        """Widen the fields by a bit, or to fit exponents up to `top`, and
        pack the leads, tails, tops and queued pairs again.  Returns the map
        that packs any other monomial again; it keeps order, so a heap stays
        a heap."""
        n, w, f = len(self.ambient), self.width, (1 << self.width) - 1
        shifts = range(0, n * w, w)
        self._layout(max(w + 1, top.bit_length() + 2))
        units, pmask = self.units, self.pmask

        def repack(x: int) -> int:
            return sum(map(mul, map(f.__and__, map(x.__rshift__, shifts)), units))

        self.leads[:] = map(repack, self.leads)
        self.tails[:] = [[(repack(x), c) for x, c in tail] for tail in self.tails]
        self.tops[:] = [repack(p) & pmask for p in self.tops]
        for k, (d, x, i, j, _) in enumerate(self.pairs):
            x = repack(x)
            self.pairs[k] = (d, x, i, j, x & pmask)
        return repack

    def append(self, form: dict) -> None:
        """Index a nonzero packed form, taking its content out once."""
        lead = max(form)
        c = form[lead]
        content = gcd(*form.values()) if c > 0 else -gcd(*form.values())
        bit = 1 << len(self.leads)
        self.leads.append(lead)
        self.coeffs.append(c // content)
        tail = [(x, fc // content) for x, fc in form.items() if x != lead]
        self.tails.append(tail)
        top, guard, shift, fill = 0, self.guard, self.width - 1, (1 << self.width) - 1
        for x, _ in tail:  # the lcm of `_packed_lcms`
            top ^= (x ^ top) & ((((x | guard) - top) & guard) >> shift) * fill
        self.tops.append(top)
        for v, (col, e) in enumerate(zip(self.below, self.exponents(lead))):
            if e >= len(col):
                if len(col) <= 1 and e >= 1:
                    self.used.append((v * self.width, col))
                # the new entries cover every divisor so far, as past the end
                col.extend([col[-1] if col else 0] * (e + 1 - len(col)))
            for k in range(e, len(col)):
                col[k] |= bit
        self.live |= bit

    def dividing(self, x: int) -> int:
        """Bitset of the live divisors whose lead divides the monomial."""
        m, f = self.live, (1 << self.width) - 1
        for s, col in self.used:
            k = x >> s & f
            if k < len(col):
                m &= col[k]
        return m


def _reduce(form: dict, index: _DivisorIndex,
            quotients: dict[int, dict] | None = None) -> tuple[_Form, int]:
    """Fraction-free heap division of a packed integer form by the integer
    forms g_i of the index: (R, D) with D * form = sum(Q_i * g_i) + R, Q_i
    and R integer and no term of R divisible by a live lead.  Q_i fills
    entry i of `quotients`, when given, for the divisors used.  Each term
    c * x^e is reduced by the first divisor whose lead a * x^l divides it:
    by c / a when a divides c, otherwise by c / gcd(a, c) after the work, R,
    every Q_i and D are scaled by a / gcd(a, c).  A monomial enters the heap
    once, when it enters `work`, where a cancelled coefficient waits as
    zero; every new monomial is smaller than the one reduced.  Before a step
    whose products would fill a guard, the index widens and the work, heap,
    remainder and quotients are packed again.
    """
    leads, coeffs, tails, tops, dividing = (index.leads, index.coeffs, index.tails,
                                            index.tops, index.dividing)
    work = dict(form)
    remainder, den = _Form(), 1
    heap = [-x for x in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        e = -pop(heap)
        c = work.pop(e)
        if not c:
            continue
        m = dividing(e)
        if not m:
            remainder[e] = c
            continue
        i = (m & -m).bit_length() - 1
        me = e - leads[i]
        if (me & index.pmask) + tops[i] & index.guard:
            repack = index.widen(0)
            me = repack(me)
            heap = [-repack(-x) for x in heap]
            work = {repack(x): v for x, v in work.items()}
            remainder = _Form((repack(x), v) for x, v in remainder.items())
            for j, q in (quotients or {}).items():
                quotients[j] = {repack(x): v for x, v in q.items()}
        a = coeffs[i]
        mc, rest = divmod(c, a)
        if rest:
            g = gcd(a, c)
            s = a // g
            mc = c // g
            den *= s
            for scaled in (work, remainder, *(quotients.values() if quotients else ())):
                for k in scaled:
                    scaled[k] *= s
        if quotients is not None:
            q = quotients.get(i)
            if q is None:
                q = quotients[i] = {}
            q[me] = mc
        for fe, fc in tails[i]:
            k = me + fe
            old = work.get(k)
            if old is None:
                work[k] = -mc * fc
                push(heap, -k)
            else:
                work[k] = old - mc * fc
    return remainder, den


def _quotient(a: int, b: int) -> int | Fraction:
    """a / b in canonical form: an int when b divides a, else a Fraction."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _divided(index: _DivisorIndex, form: dict, divisor: Fraction | int) -> Polynomial:
    """The Polynomial with coefficients c / divisor for the int coefficients
    c of a packed form, each exact and canonical, in the same term order."""
    num, den, unpack = divisor.denominator, divisor.numerator, index.exponents
    return Polynomial._trusted(index.ambient,
                               {unpack(x): _quotient(c * num, den) for x, c in form.items()})


def divmod_polynomials(p: Polynomial, divisors: Sequence[Polynomial],
                       key=grevlex_key) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division under the order of `key`: p = sum(q_i *
    divisors_i) + r, no term of r divisible by any divisor lead monomial.
    Each term is reduced by the first divisor whose lead divides it, as over
    Q; `_reduce` divides by the packed primitive integer form g_i of each
    divisor, and q_i is the integer quotient of g_i scaled by the ratio of
    the lead coefficients of g_i and divisors_i, the only Fractions built.
    """
    index = _DivisorIndex(p.ambient, key, divisors)
    ((work, den),) = index.forms([p])
    quotients: dict[int, dict] = {}
    remainder, scale = _reduce(work, index, quotients)
    den *= scale
    zero = Polynomial._trusted(p.ambient, {})  # shared by every empty quotient
    return ([_divided(index, quotients[i],
                      Fraction(d.terms[index.exponents(index.leads[i])], index.coeffs[i]) * den)
             if i in quotients else zero for i, d in enumerate(divisors)],
            _divided(index, remainder, den))


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

    It keeps the run's divisor index and its minimal elements
    (`_minimalize`) in key order, whose leads, unpacked, are the leads of
    the reduced basis.  `free_of(front)` reduces only the minimal elements
    whose leads are free of the first `front` variables; `elements`, the
    whole reduced basis, monic and sorted by key, is `free_of(0)`, memoized.
    Two bases are equal when their ambients, keys, reduced elements and pair
    counts are.
    """

    ambient: tuple[str, ...]
    key: Callable[[Sequence[int]], tuple[int, ...]]
    _index: _DivisorIndex = field(repr=False)
    _minimal: list[int] = field(repr=False)
    pairs_processed: int = 0

    @property
    def leads(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._index.exponents(self._index.leads[i]) for i in self._minimal)

    @cached_property
    def elements(self) -> tuple[Polynomial, ...]:
        return self.free_of(0)

    def free_of(self, front: int) -> tuple[Polynomial, ...]:
        """The reduced elements whose leads are free of the first `front`
        variables, in key order.  Under `elimination_key(front)` they are
        the elements free of those variables, the reduced basis of the
        ideal's intersection with the subring of the others (Cox, Little
        and O'Shea, 3.1)."""
        index = self._index
        low = (1 << front * index.width) - 1
        ids = [i for i in self._minimal if not index.leads[i] & low]
        return tuple(_interreduce(index, self._minimal, ids))

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


def normal_form(form: dict, index: _DivisorIndex) -> _Form:
    """D * r for the remainder r of a packed form modulo the live divisors
    of a Buchberger run's index and some D > 0: the packed integer
    remainder of `_reduce`, zero exactly when r is."""
    return _reduce(form, index)[0]


def _spoly(index: _DivisorIndex, i: int, j: int, lcm: int) -> _Form:
    """(b/d)*x^u*g_i - (a/d)*x^v*g_j for the integer forms g_i and g_j of
    the index, with leads a*x^l_i and b*x^l_j, d = gcd(a, b) and
    x^u*x^l_i = x^v*x^l_j = x^lcm, lcm packed: a positive integer multiple
    of the monic elements' S-polynomial, packed.  The tails are shifted and
    scaled into one dict, after the index widens if they would fill a guard.
    """
    a, b = index.coeffs[i], index.coeffs[j]
    d = gcd(a, b)
    fi, fj = b // d, a // d
    u, v = lcm - index.leads[i], lcm - index.leads[j]
    pmask = index.pmask
    if ((u & pmask) + index.tops[i] | (v & pmask) + index.tops[j]) & index.guard:
        repack = index.widen(0)
        u, v = repack(u), repack(v)
    out = _Form((e + u, fi * c) for e, c in index.tails[i])
    for e, c in index.tails[j]:
        k = e + v
        d = out.get(k, 0) - fj * c
        if d:
            out[k] = d
        else:
            del out[k]
    return out


def _packed_lcms(packed: Sequence[int], pt: int, guard: int, width: int) -> list[int]:
    """P of lcm(a, pt) for each packed a (an X or a P) and a P pt:
    ((a | G) - pt) & G keeps the guard of each field where a_v >= pt_v,
    shifted down and times a field of ones it fills those fields, and the
    filled mask picks a's field there and pt's elsewhere."""
    shift, fill = width - 1, (1 << width) - 1
    return [pt ^ ((a ^ pt) & ((((a | guard) - pt) & guard) >> shift) * fill)
            for a in packed]


def _update_pairs(index: _DivisorIndex) -> None:
    """Gebauer-Moeller update of the index's queue for the newest element t.

    Of the pairs (i, t), queue one per distinct lcm(lead_i, lead_t), with the
    smallest i, and only for lcms that no other such lcm properly divides
    (chain criterion), whose leads share a variable (coprime criterion) and
    whose elements are not both monomials (their S-polynomial is zero);
    coprime and monomial pairs still take part in the chain test.  Drop
    every queued pair (i, j) whose lcm lead_t divides unless it equals
    lcm(lead_i, lead_t) or lcm(lead_j, lead_t) (chain criterion on old
    pairs).  Everything runs on the P of the leads: the guard test divides, its
    difference gives the lcms (`_packed_lcms`), and two leads are coprime
    exactly when their lcm is their sum.  A proper divisor packs to a
    smaller int, so walking the distinct lcms in increasing order meets
    every minimal lcm before its multiples, and testing against the minimal
    ones suffices.  A queued pair is (degree, X, i, j, P) of its lcm, and
    new pairs join by degree, then by i; no two share (i, j), so the P never
    decides heap order.
    """
    leads, tails, pairs = index.leads, index.tails, index.pairs
    width, guard, pmask = index.width, index.guard, index.pmask
    t = len(leads) - 1
    pt = leads[t] & pmask
    lcms = _packed_lcms(leads[:t], pt, guard, width)
    first: dict[int, int] = {}
    for i, c in enumerate(lcms):
        first.setdefault(c, i)
    minimal: list[int] = []
    new = []
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
            if c != (leads[i] & pmask) + pt and (tails[t] or tails[i]):
                exps = index.exponents(c)
                new.append((sum(exps), sum(map(mul, exps, index.units)), i, t, c))
    new.sort(key=itemgetter(0, 2))
    survivors = [entry for entry in pairs
                 if not (((entry[4] | guard) - pt) & guard == guard
                         and entry[4] != lcms[entry[2]] and entry[4] != lcms[entry[3]])]
    pairs[:] = survivors + new
    heapq.heapify(pairs)


def _minimalize(index: _DivisorIndex) -> int:
    """Bitset of the elements whose lead no other lead divides; of equal
    leads the first is kept."""
    same: dict[int, int] = {}
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
    basis, since no lead divides another and every lead survives.  The live
    set is narrowed for each division and restored at the end."""
    live, keep = index.live, sum(1 << i for i in minimal)
    out = []
    for i in ids:
        index.live = keep ^ 1 << i
        r = normal_form(_Form([(index.leads[i], index.coeffs[i]), *index.tails[i]]), index)
        out.append(_divided(index, r, r[index.leads[i]]))
    index.live = live
    return out


def buchberger(ideal: IdealBasis, key,
               max_pairs: int = DEFAULT_PAIR_LIMIT) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the order of `key`.

    `max_pairs` caps, and `pairs_processed` counts, only the S-pairs that
    survive the pair criteria and are taken from the queue; a pruned pair is
    never queued, so it counts against neither.  The run holds each element
    once, as a packed primitive integer form of its divisor index.
    """
    index = _DivisorIndex(ideal.ambient, key)
    pairs, processed = index.pairs, 0
    for form, _ in sorted(index.forms(ideal.generators), key=lambda f: max(f[0])):
        index.append(form)
        _update_pairs(index)
    while pairs:
        if processed >= max_pairs:
            raise ResourceLimitExceeded(processed, max_pairs)
        _, lcm, i, j, _ = heapq.heappop(pairs)
        processed += 1
        s = _spoly(index, i, j, lcm)
        if not s:
            continue
        r = normal_form(s, index)
        if r:
            index.append(r)
            _update_pairs(index)
    keep = _minimalize(index)
    minimal = sorted((i for i in range(len(index.leads)) if keep >> i & 1),
                     key=index.leads.__getitem__)
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
    through the run's own divisor index, whose live leads all have a minimal
    lead among their divisors.  The standard monomials are a staircase:
    below the pure-power bounds of the other variables, the last exponent
    is walked up to its first divisible value only."""
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
    index = gb._index
    dividing, step, top = index.dividing, index.units[-1], bounds[-1]
    count = 0
    for head in product(*(range(b) for b in bounds[:-1])):
        x, last = sum(map(mul, head, index.units)), 0
        while last < top and not dividing(x):
            x += step
            last += 1
        count += last
    return count
