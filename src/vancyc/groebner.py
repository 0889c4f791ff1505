"""Buchberger Groebner bases, normal forms, elimination and quotient dimension.

Pair selection uses the normal strategy (smallest lcm degree first).  When
an element t joins the basis, the Gebauer-Moeller update prunes four kinds
of pair: a new pair (i, t) whose lcm repeats that of a new pair with a
smaller i; a new pair whose lcm another new lcm properly divides; a new pair
whose two leads are coprime; and a queued old pair (i, j) whose lcm lead_t
divides, unless that lcm equals lcm(lead_i, lead_t) or lcm(lead_j, lead_t).
Each lead carries a divisibility mask, so one AND settles most divisibility
tests, and S-polynomials of the monic elements are built in one pass.
Every public entry point takes a cap on the number of S-pairs reduced;
exceeding it raises ResourceLimitExceeded so callers can degrade instead of
hanging.  A monomial order is its key function: `poly.grevlex_key` for
degrevlex, `elimination_key(front)` for the block elimination order.
Normal forms use the heap division of `poly.divmod_polynomials` under that
key.  A Buchberger run keeps one divisor index of its basis
(`poly._DivisorIndex`), appending each new element, so each normal form
finds its reducers with one AND per variable.  The same index
finds the redundant elements of the final basis, and inter-reduction
divides each kept element by the index narrowed to the other kept ones.
`quotient_dimension` counts standard monomials through an index of the
reduced basis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import product
from operator import add, le, sub
from typing import Callable, Sequence

from .poly import (AmbientMismatchError, PolyError, Polynomial, _DivisorIndex,
                   divmod_polynomials, grevlex_key)

DEFAULT_PAIR_LIMIT = 200_000


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


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic, inter-reduced, deterministically sorted."""

    ambient: tuple[str, ...]
    key: Callable[[Sequence[int]], tuple[int, ...]]
    elements: tuple[Polynomial, ...]
    pairs_processed: int = 0

    def contains_one(self) -> bool:
        return len(self.elements) == 1 and self.elements[0].is_constant()


def _lead_mask(exps: Sequence[int]) -> int:
    """Divisibility mask of an exponent tuple, two bits per variable: bit 2v
    is set when e_v >= 1 and bit 2v+1 when e_v >= 2.  If a divides b then
    mask(a) & ~mask(b) == 0, so a nonzero result rules division out; and
    mask(lcm(a, b)) == mask(a) | mask(b), since max keeps both thresholds."""
    m = 0
    for v, e in enumerate(exps):
        if e:
            m |= (1 if e == 1 else 3) << 2 * v
    return m


def normal_form(p: Polynomial, basis: GroebnerBasis | _DivisorIndex) -> Polynomial:
    """Remainder of p modulo a GroebnerBasis or the divisor index of a
    Buchberger run, under the order key each carries."""
    divisors = basis.elements if isinstance(basis, GroebnerBasis) else basis
    if not divisors:
        return p
    _, r = divmod_polynomials(p, divisors, basis.key)
    return r


def _spoly(f: Polynomial, g: Polynomial, lcm: tuple[int, ...], key) -> Polynomial:
    """x^a*f - x^b*g where x^a*lead(f) = x^b*lead(g) = x^lcm.

    f and g must be monic under `key`: the lead terms are skipped as
    cancelled, and the tails are shifted without any rescaling, into one
    dict.
    """
    fe = f.lead(key)[0]
    ge = g.lead(key)[0]
    a = tuple(map(sub, lcm, fe))
    b = tuple(map(sub, lcm, ge))
    out = {tuple(map(add, e, a)): c for e, c in f.terms.items() if e != fe}
    for e, c in g.terms.items():
        if e == ge:
            continue
        k = tuple(map(add, e, b))
        old = out.get(k)
        if old is None:
            out[k] = -c
        else:
            d = old - c
            if d:
                out[k] = d
            else:
                del out[k]
    return Polynomial._trusted(f.ambient, out)


def _update_pairs(pairs: list, leads: list[tuple], masks: list[int], key):
    """Gebauer-Moeller update for the newest basis element t.

    Of the pairs (i, t), queue one per distinct lcm(lead_i, lead_t), with the
    smallest i, and only for lcms that no other such lcm properly divides
    (chain criterion) and whose two leads share a variable (coprime-lead
    criterion).  Drop every queued pair (i, j) whose lcm lead_t divides
    unless it equals lcm(lead_i, lead_t) or lcm(lead_j, lead_t) (chain
    criterion on old pairs).  A queued pair is (degree, order key, i, j, lcm,
    lcm mask); no two share (i, j), so the mask never decides heap order.
    """
    t = len(leads) - 1
    lt, mt = leads[t], masks[t]
    lcms = [tuple(map(max, lead, lt)) for lead in leads[:t]]
    first: dict[tuple, int] = {}
    for i, lcm in enumerate(lcms):
        first.setdefault(lcm, i)
    # a proper divisor has lower degree, so walking by degree meets every
    # minimal lcm before its multiples; a non-minimal divisor of c implies
    # a minimal one, so testing against the minimal ones suffices
    minimal: list[tuple] = []
    new = []
    for lcm, i in sorted(first.items(), key=lambda item: sum(item[0])):
        m = masks[i] | mt
        if not any(not (mm & ~m) and all(map(le, ml, lcm)) for ml, mm in minimal):
            minimal.append((lcm, m))
            if masks[i] & mt:  # otherwise the leads are coprime
                new.append((sum(lcm), key(lcm), i, t, lcm, m))
    survivors = []
    for entry in pairs:
        _, _, i, j, lcm, m = entry
        if (not (mt & ~m) and all(map(le, lt, lcm))
                and lcms[i] != lcm and lcms[j] != lcm):
            continue
        survivors.append(entry)
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


def _interreduce(G: list[Polynomial], index: _DivisorIndex,
                 keep: int) -> list[Polynomial]:
    """Reduce each kept element by the other kept ones, narrowing the
    index's live set to them; one pass suffices on a minimal basis of monic
    elements, since no lead divides another and every lead survives."""
    out = []
    for i, g in enumerate(G):
        bit = 1 << i
        if keep & bit:
            index.live = keep ^ bit
            out.append(normal_form(g, index))
    return out


def buchberger(ideal: IdealBasis, key,
               max_pairs: int = DEFAULT_PAIR_LIMIT) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the order of `key`."""
    gens = []
    for g in ideal.generators:
        _, c = g.lead(key)
        gens.append(g.scale(1 / c))
    gens.sort(key=lambda g: key(g.lead(key)[0]))
    if not gens:
        return GroebnerBasis(ideal.ambient, key, ())
    G: list[Polynomial] = []
    index = _DivisorIndex(ideal.ambient, key)
    masks: list[int] = []
    pairs: list = []
    processed = 0

    def add_element(g: Polynomial):
        G.append(g)
        index.append(g)
        masks.append(_lead_mask(index.leads[-1]))
        _update_pairs(pairs, index.leads, masks, key)

    for g in gens:
        add_element(g)
    while pairs:
        if processed >= max_pairs:
            raise ResourceLimitExceeded(processed, max_pairs)
        _, _, i, j, lcm, _ = heapq.heappop(pairs)
        processed += 1
        s = _spoly(G[i], G[j], lcm, key)
        if s.is_zero():
            continue
        r = normal_form(s, index)
        if r.is_zero():
            continue
        _, c = r.lead(key)
        add_element(r.scale(1 / c))
    reduced = _interreduce(G, index, _minimalize(index))
    reduced.sort(key=lambda g: key(g.lead(key)[0]))
    return GroebnerBasis(ideal.ambient, key, tuple(reduced), processed)


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
    gens = [g.extend(ambient) for g in ideal.generators]
    tp = Polynomial.variable(ambient, t) * p.extend(ambient)
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
        [g.reorder(tuple(front) + kept) for g in ideal.generators])
    gb = buchberger(reordered, elimination_key(len(front)), max_pairs)
    nfront = len(front)
    out = []
    for g in gb.elements:
        if all(all(e == 0 for e in exps[:nfront]) for exps in g.terms):
            out.append(g.restrict(kept))
    return IdealBasis(kept, out)


def quotient_dimension(ideal: IdealBasis,
                       max_pairs: int = DEFAULT_PAIR_LIMIT) -> int | None:
    """Q-dimension of ambient ring / ideal counted by the standard monomials
    of its degrevlex basis; None when the quotient is infinite-dimensional."""
    return _standard_monomial_count(buchberger(ideal, grevlex_key, max_pairs))


def _standard_monomial_count(gb: GroebnerBasis) -> int | None:
    """Number of monomials no lead of the reduced basis divides, or None
    when some variable has no pure-power lead (the count is infinite)."""
    if not gb.elements:
        return None if gb.ambient else 1
    if gb.contains_one():
        return 0
    index = _DivisorIndex(gb.ambient, gb.key, gb.elements)
    bounds = [None] * len(gb.ambient)
    for lead in index.leads:
        support = [i for i, e in enumerate(lead) if e]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or lead[i] < bounds[i]:
                bounds[i] = lead[i]
    if any(b is None for b in bounds):
        return None
    return sum(1 for exps in product(*(range(b) for b in bounds))
               if not index.dividing(exps))
