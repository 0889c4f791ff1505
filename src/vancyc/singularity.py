"""Critical ideals, discriminants by elimination, multiplicities, Milnor numbers.

The discriminant of a map germ f: (C^m, 0) -> (C^k, 0) is computed as the
image of its critical locus: adjoin target variables s_1..s_k, generate the
ideal (f_i - s_i) + (k x k minors of the Jacobian), and eliminate the source
variables.  For every k a reduced (squarefree) generator of the divisorial
part is extracted, whose order at the origin is the discriminant
multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

from .groebner import DEFAULT_PAIR_LIMIT, IdealBasis, eliminate, quotient_dimension
from .poly import (PolyError, Polynomial, _as_coefficient, gcd_polynomials, maximal_minors,
                   normalized, rational_rank, squarefree_part_bivariate,
                   variables)
from .symplectic import MapGerm


class NonIsolatedSingularityError(PolyError):
    """The Jacobian ideal has an infinite-dimensional quotient."""


class NonGenericMatrixError(PolyError):
    """A coefficient matrix failed a genericity (maximal minor) check."""

    def __init__(self, message: str, columns: tuple[int, ...]):
        super().__init__(message)
        self.columns = columns


def jacobian(germ: MapGerm) -> list[list[Polynomial]]:
    """k x m matrix of partial derivatives, rows by component, columns by variable."""
    return [[c.partial_derivative(v) for v in germ.ambient] for c in germ.components]


def _target_names(k: int, taken: Sequence[str]) -> tuple[str, ...]:
    names = tuple(f"s{i + 1}" for i in range(k))
    clash = set(names) & set(taken)
    if clash:
        raise PolyError(
            f"source variables clash with target names {sorted(clash)}; rename them")
    return names


def critical_ideal(germ: MapGerm) -> IdealBasis:
    """The ideal of the critical locus over the source variables then
    s1..sk: the fibre equations f_i - s_i, then the nonzero k x k Jacobian
    minors in column-subset order, less scalar multiples of earlier ones."""
    k = germ.k
    if k > germ.m:
        raise PolyError("map germ has more components than source variables")
    svars = _target_names(k, germ.ambient)
    ambient = germ.ambient + svars
    gens = [comp.over(ambient) - Polynomial.variable(ambient, s)
            for comp, s in zip(germ.components, svars)]
    seen = set()
    for minor in maximal_minors(jacobian(germ)):
        key = normalized(minor)
        if minor and key not in seen:
            seen.add(key)
            gens.append(minor.over(ambient))
    return IdealBasis(ambient, gens)


@dataclass(frozen=True)
class DiscriminantDescription:
    """Eliminated critical ideal in the target variables.

    reduced_generator is the squarefree equation of the discriminant
    hypersurface when the eliminated ideal has one (for several generators,
    their gcd is used for the divisorial part and noted), normalized to
    grevlex lead coefficient 1 by `squarefree_part_bivariate`.
    """

    k: int
    target_vars: tuple[str, ...]
    ideal: IdealBasis
    reduced_generator: Polynomial | None
    note: str = ""

    def is_empty(self) -> bool:
        return any(g.is_constant() for g in self.ideal.generators)


def discriminant(germ: MapGerm,
                 max_pairs: int = DEFAULT_PAIR_LIMIT) -> DiscriminantDescription:
    """Eliminate the source variables from the critical ideal.

    `max_pairs` caps each Buchberger run of the call on its own: the
    elimination, and each gcd behind the reduced generator (the gcd of
    several eliminated generators and those of its squarefree part).  It
    is a cap per run, not a total over the call.
    """
    eliminated = eliminate(critical_ideal(germ), germ.ambient, max_pairs)
    gens = eliminated.generators
    reduced = None
    note = ""
    if any(g.is_constant() for g in gens):
        note = "empty discriminant (critical ideal eliminates to the unit ideal)"
    elif len(gens) == 1:
        reduced = squarefree_part_bivariate(gens[0], max_pairs)
    else:
        divisor = gens[0]
        for g in gens[1:]:
            divisor = gcd_polynomials(divisor, g, max_pairs)
        if divisor.is_constant():
            note = "eliminated ideal has no divisorial part"
        else:
            reduced = squarefree_part_bivariate(divisor, max_pairs)
            note = f"reduced generator from gcd of {len(gens)} generators"
    return DiscriminantDescription(germ.k, eliminated.ambient, eliminated, reduced, note)


OFF_ORIGIN = "discriminant does not pass through the origin"


def _reduced_multiplicity(reduced: Polynomial) -> int:
    order = reduced.order_at_origin()
    if order == 0:
        raise PolyError(OFF_ORIGIN)
    return order


def multiplicity_at_origin(d: DiscriminantDescription) -> int:
    """Multiplicity at the origin of the discriminant, for any k; its
    reduced generator already is the squarefree part."""
    if d.reduced_generator is None:
        raise PolyError("no reduced principal generator available")
    return _reduced_multiplicity(d.reduced_generator)


def milnor_number(h: Polynomial,
                  max_pairs: int = DEFAULT_PAIR_LIMIT) -> int:
    """dim_Q of ambient ring / (all first partials of h); isolated case only."""
    gens = [h.partial_derivative(v) for v in h.ambient]
    ideal = IdealBasis(h.ambient, gens)
    dim = quotient_dimension(ideal, max_pairs)
    if dim is None:
        raise NonIsolatedSingularityError(
            "non-isolated singularity: Jacobian quotient is infinite-dimensional")
    return dim


# ---------------------------------------------------------------------------
# Product-of-coordinates integrable germs composed with a rational matrix
# ---------------------------------------------------------------------------

def _check_generic(R: Sequence[Sequence[Fraction]], n: int, k: int):
    rows = [[_as_coefficient(x) for x in row] for row in R]
    if len(rows) != k or any(len(r) != n for r in rows):
        raise PolyError(f"coefficient matrix must be {k} x {n}")
    for cols in combinations(range(n), k):
        sub = [[rows[i][j] for j in cols] for i in range(k)]
        if rational_rank(sub) < k:
            raise NonGenericMatrixError(
                f"non-generic matrix: columns {cols} are rank-deficient", cols)
    for cols in combinations(range(n), k - 1):
        sub = [[rows[i][j] for j in cols] for i in range(k)]
        if rational_rank(sub) < k - 1:
            raise NonGenericMatrixError(
                f"non-generic matrix: columns {cols} do not span a hyperplane", cols)
    return rows


def action_coordinates_germ(n: int, k: int,
                            R: Sequence[Sequence[Fraction]]) -> MapGerm:
    """The germ R o (p_1 q_1, ..., p_n q_n) on C^{2n} = (q1, p1, ..., qn, pn),
    whose components commute under the canonical pairing (q_i, p_i)."""
    rows = _check_generic(R, n, k)
    ambient = tuple(x for i in range(1, n + 1) for x in (f"q{i}", f"p{i}"))
    gen = variables(ambient)
    products = [gen[2 * i] * gen[2 * i + 1] for i in range(n)]
    comps = []
    for i in range(k):
        c = Polynomial.zero(ambient)
        for j in range(n):
            c = c + products[j].scale(rows[i][j])
        comps.append(c)
    return MapGerm(ambient, comps)


def al_multiplicity_by_counting(n: int, k: int,
                                R: Sequence[Sequence[Fraction]]) -> int:
    """The number C(n, k-1) of hyperplanes spanned by the (k-1)-column
    subsets of a generic R.

    The critical values of R o (p_i q_i) sweep the spans of the (k-1)-column
    subsets of R, and the reduced discriminant is the union of the distinct
    spans.  `_check_generic` makes each span a hyperplane, and makes them
    distinct: for n >= k, two subsets with the same span would put at least
    k columns of rank k-1 into it, a rank-deficient k-column set that the
    check refuses; for n < k there is at most one subset.  So the count is
    the binomial by construction, not an independent value.
    """
    _check_generic(R, n, k)
    return comb(n, k - 1)
