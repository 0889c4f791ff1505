"""Buchberger Groebner bases, normal forms, elimination and quotient dimension.

Pair selection uses the normal strategy (smallest lcm degree first) and the
update step prunes with Buchberger's coprime-lead criterion plus the chain
criterion in Gebauer-Moeller form.  Every public entry point takes a cap on
the number of S-pairs reduced; exceeding it raises ResourceLimitExceeded so
callers can degrade instead of hanging.

Division keeps the terms still to be reduced in a heap ordered by the
monomial order, so each monomial's order key is computed once, when it
enters the work set, and the next term to reduce is a heap pop rather than a
rescan (after Monagan and Pearce, "Sparse polynomial division using a heap",
JSC 2011).  Lead terms are memoized inside each immutable Polynomial
(`Polynomial.lead`), so a basis element's lead is found once per order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import product
from operator import add, le, neg, sub
from typing import Sequence

from .poly import Polynomial, grevlex_key, AmbientMismatchError, PolyError

DEFAULT_PAIR_LIMIT = 200_000


class ResourceLimitExceeded(RuntimeError):
    """The S-pair budget ran out before the basis stabilized."""

    def __init__(self, pairs_processed: int, limit: int):
        super().__init__(
            f"S-pair budget exhausted: processed {pairs_processed} of {limit}")
        self.pairs_processed = pairs_processed
        self.limit = limit


@dataclass(frozen=True)
class MonomialOrder:
    """lex, degrevlex, or a two-block elimination order (front block first).

    Both blocks of the elimination order are compared by degrevlex; a
    monomial is larger whenever its front block is larger, so any basis
    element whose lead is front-free is entirely front-free.
    """

    kind: str
    front: int = 0

    @classmethod
    def lex(cls) -> "MonomialOrder":
        return cls("lex")

    @classmethod
    def degrevlex(cls) -> "MonomialOrder":
        return cls("degrevlex")

    @classmethod
    def elimination(cls, front: int) -> "MonomialOrder":
        if front < 0:
            raise ValueError("front block size must be >= 0")
        return cls("block", front)

    def key(self, exps: Sequence[int]):
        if self.kind == "lex":
            return tuple(exps)
        if self.kind == "degrevlex":
            return grevlex_key(exps)
        return (grevlex_key(exps[: self.front]), grevlex_key(exps[self.front:]))

    def _descending_key(self, exps: Sequence[int]) -> tuple:
        """key() with every integer negated: ascending order of this key is
        descending monomial order, as a min-heap needs."""
        k = self.key(exps)
        if self.kind == "lex":
            return tuple(map(neg, k))
        if self.kind == "degrevlex":
            return (-k[0], tuple(map(neg, k[1])))
        (d1, r1), (d2, r2) = k
        return (-d1, tuple(map(neg, r1)), -d2, tuple(map(neg, r2)))


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
    order: MonomialOrder
    elements: tuple[Polynomial, ...]
    pairs_processed: int = 0

    def contains_one(self) -> bool:
        return len(self.elements) == 1 and self.elements[0].is_constant()


def _monomial_divides(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(map(le, a, b))


def _monomial_lcm(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(max, a, b))


def divmod_polynomials(p: Polynomial, divisors: Sequence[Polynomial],
                       order: MonomialOrder) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division: p = sum(q_i * divisors_i) + r, no term of r
    divisible by any divisor lead monomial.

    The largest remaining term is taken from a heap of (descending order key,
    monomial) entries.  A monomial gets its one entry when it enters `work`;
    a coefficient that cancels stays in `work` as zero until its entry is
    popped, so no monomial is ever queued twice.  Every new monomial is
    smaller than the one being reduced, so a popped monomial never returns.
    """
    key = order.key
    heap_key = order._descending_key
    ambient = p.ambient
    for d in divisors:
        if d.ambient != ambient:
            raise AmbientMismatchError(
                f"divisor ambient {d.ambient} != dividend ambient {ambient}")
    leads = [d.lead(key) for d in divisors]
    quotients: list[dict] = [{} for _ in divisors]
    remainder: dict = {}
    work = dict(p.terms)
    heap = [(heap_key(e), e) for e in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        e = pop(heap)[1]
        c = work.pop(e)
        if not c:
            continue
        for i, (de, dc) in enumerate(leads):
            if all(map(le, de, e)):
                me = tuple(map(sub, e, de))
                mc = c / dc
                quotients[i][me] = mc
                for fe, fc in divisors[i].terms.items():
                    if fe == de:
                        continue
                    k = tuple(map(add, me, fe))
                    old = work.get(k)
                    if old is None:
                        work[k] = -mc * fc
                        push(heap, (heap_key(k), k))
                    else:
                        work[k] = old - mc * fc
                break
        else:
            remainder[e] = c
    zero = Polynomial._trusted(ambient, {})  # shared by every empty quotient
    return ([Polynomial._trusted(ambient, q) if q else zero for q in quotients],
            Polynomial._trusted(ambient, remainder))


def normal_form(p: Polynomial, basis, order: MonomialOrder | None = None) -> Polynomial:
    """Remainder of p modulo a basis (a GroebnerBasis or an explicit list)."""
    if isinstance(basis, GroebnerBasis):
        divisors: Sequence[Polynomial] = basis.elements
        order = basis.order
    else:
        divisors = list(basis)
        if order is None:
            raise ValueError("normal_form over a raw list needs an order")
    if not divisors:
        return p
    _, r = divmod_polynomials(p, divisors, order)
    return r


def _spoly(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    fe, fc = f.lead(order.key)
    ge, gc = g.lead(order.key)
    lcm = _monomial_lcm(fe, ge)
    return (f.monomial_times(tuple(map(sub, lcm, fe)), 1 / fc)
            - g.monomial_times(tuple(map(sub, lcm, ge)), 1 / gc))


def _update_pairs(pairs: list, G: list[Polynomial],
                  leads: list[tuple], new_index: int, order: MonomialOrder):
    """Gebauer-Moeller update: queue pairs (i, new) pruned by the coprime and
    chain criteria, and drop queued pairs the new lead makes redundant."""
    t = new_index
    lt = leads[t]
    candidates = {i: _monomial_lcm(leads[i], lt) for i in range(t)}
    keep = set(candidates)
    # chain criterion among the new pairs: drop (i,t) when some (j,t) lcm
    # properly divides it, or equal lcms keep the smallest index
    for i in list(keep):
        ci = candidates[i]
        for j, cj in candidates.items():
            if (j != i and j in keep and all(map(le, cj, ci))
                    and (cj != ci or j < i)):
                keep.discard(i)
                break
    # coprime-lead criterion
    coprime = {i for i in keep
               if candidates[i] == tuple(map(add, leads[i], lt))}
    keep -= coprime
    # prune old queued pairs whose lcm is divisible by the new lead; every
    # queued index is below t, so candidates holds lcm(lead_i, new lead)
    survivors = []
    for entry in pairs:
        _, _, i, j, lcm = entry
        if (_monomial_divides(lt, lcm)
                and candidates[i] != lcm
                and candidates[j] != lcm):
            continue
        survivors.append(entry)
    pairs[:] = survivors
    for i in sorted(keep):
        lcm = candidates[i]
        pairs.append((sum(lcm), order.key(lcm), i, t, lcm))
    heapq.heapify(pairs)


def _minimalize(G: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    leads = [g.lead(order.key)[0] for g in G]
    keep = []
    for i, g in enumerate(G):
        redundant = any(
            j != i and _monomial_divides(leads[j], leads[i])
            and (leads[j] != leads[i] or j < i)
            for j in range(len(G)))
        if not redundant:
            keep.append(g)
    return keep


def _interreduce(G: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """Reduce each element by the others; one pass suffices on a minimal basis
    of monic elements, since no lead divides another and every lead survives."""
    return [normal_form(g, G[:i] + G[i + 1:], order) for i, g in enumerate(G)]


def buchberger(ideal: IdealBasis, order: MonomialOrder,
               max_pairs: int = DEFAULT_PAIR_LIMIT) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order."""
    gens = []
    for g in ideal.generators:
        _, c = g.lead(order.key)
        gens.append(g.scale(1 / c))
    gens.sort(key=lambda g: order.key(g.lead(order.key)[0]))
    if not gens:
        return GroebnerBasis(ideal.ambient, order, ())
    G: list[Polynomial] = []
    leads: list[tuple] = []
    pairs: list = []
    processed = 0
    for g in gens:
        G.append(g)
        leads.append(g.lead(order.key)[0])
        _update_pairs(pairs, G, leads, len(G) - 1, order)
    while pairs:
        if processed >= max_pairs:
            raise ResourceLimitExceeded(processed, max_pairs)
        _, _, i, j, _ = heapq.heappop(pairs)
        processed += 1
        s = _spoly(G[i], G[j], order)
        if s.is_zero():
            continue
        r = normal_form(s, G, order)
        if r.is_zero():
            continue
        _, c = r.lead(order.key)
        G.append(r.scale(1 / c))
        leads.append(G[-1].lead(order.key)[0])
        _update_pairs(pairs, G, leads, len(G) - 1, order)
    reduced = _interreduce(_minimalize(G, order), order)
    reduced.sort(key=lambda g: order.key(g.lead(order.key)[0]))
    return GroebnerBasis(ideal.ambient, order, tuple(reduced), processed)


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
    gb = buchberger(IdealBasis(ambient, gens), MonomialOrder.degrevlex(), max_pairs)
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
    gb = buchberger(reordered, MonomialOrder.elimination(len(front)), max_pairs)
    nfront = len(front)
    out = []
    for g in gb.elements:
        if all(all(e == 0 for e in exps[:nfront]) for exps in g.terms):
            out.append(g.restrict(kept))
    return IdealBasis(kept, out)


def quotient_dimension(ideal: IdealBasis, order: MonomialOrder | None = None,
                       max_pairs: int = DEFAULT_PAIR_LIMIT) -> int | None:
    """Q-dimension of ambient ring / ideal counted by standard monomials.

    Returns None when the quotient is infinite-dimensional.  The count is
    order-independent; the order argument only steers the basis computation.
    """
    order = order or MonomialOrder.degrevlex()
    gb = buchberger(ideal, order, max_pairs)
    if not gb.elements:
        return None if ideal.ambient else 1
    if gb.contains_one():
        return 0
    leads = [g.lead(order.key)[0] for g in gb.elements]
    n = len(ideal.ambient)
    bounds = [None] * n
    for lead in leads:
        support = [i for i, e in enumerate(lead) if e]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or lead[i] < bounds[i]:
                bounds[i] = lead[i]
    if any(b is None for b in bounds):
        return None
    count = 0
    for exps in product(*(range(b) for b in bounds)):
        if not any(_monomial_divides(lead, exps) for lead in leads):
            count += 1
    return count
