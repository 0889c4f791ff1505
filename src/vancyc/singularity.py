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
from typing import Sequence

from .groebner import DEFAULT_PAIR_LIMIT, IdealBasis, eliminate, quotient_dimension
from .poly import (PolyError, Polynomial, determinant_fraction_free,
                   gcd_polynomials, normalized, rational_rank, rref,
                   squarefree_part_bivariate, variables)
from .symplectic import MapGerm, SymplecticContext


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


@dataclass(frozen=True)
class CriticalIdeal:
    """Fibre equations f_i - s_i together with the k x k Jacobian minors."""

    ambient: tuple[str, ...]          # source variables then target variables
    source_vars: tuple[str, ...]
    target_vars: tuple[str, ...]
    ideal: IdealBasis


def _target_names(k: int, taken: Sequence[str]) -> tuple[str, ...]:
    names = tuple(f"s{i + 1}" for i in range(k))
    clash = set(names) & set(taken)
    if clash:
        raise PolyError(
            f"source variables clash with target names {sorted(clash)}; rename them")
    return names


def critical_ideal(germ: MapGerm) -> CriticalIdeal:
    """The ideal cutting out the critical locus inside source x target space."""
    k, m = germ.k, germ.m
    if k > m:
        raise PolyError("map germ has more components than source variables")
    svars = _target_names(k, germ.ambient)
    ambient = germ.ambient + svars
    gens: list[Polynomial] = []
    for comp, s in zip(germ.components, svars):
        gens.append(comp.extend(ambient) - Polynomial.variable(ambient, s))
    jac = jacobian(germ)
    minors: list[Polynomial] = []
    for cols in combinations(range(m), k):
        sub = [[row[j] for j in cols] for row in jac]
        minors.append(determinant_fraction_free(sub).extend(ambient))
    seen = set()
    for minor in minors:
        if minor.is_zero():
            continue
        key = normalized(minor)
        if key in seen:
            continue
        seen.add(key)
        gens.append(minor)
    return CriticalIdeal(ambient, germ.ambient, svars, IdealBasis(ambient, gens))


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
    crit = critical_ideal(germ)
    eliminated = eliminate(crit.ideal, crit.source_vars, max_pairs)
    gens = eliminated.generators
    reduced = None
    note = ""
    if any(g.is_constant() for g in gens):
        note = "empty discriminant (critical ideal eliminates to the unit ideal)"
    elif not gens:
        note = "discriminant is the whole target (zero eliminated ideal)"
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
    return DiscriminantDescription(germ.k, crit.target_vars, eliminated, reduced, note)


def _reduced_multiplicity(reduced: Polynomial) -> int:
    order = reduced.order_at_origin()
    if order == 0:
        raise PolyError("discriminant does not pass through the origin")
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
    rows = [[Fraction(x) for x in row] for row in R]
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
    """The germ R o (p_1 q_1, ..., p_n q_n) on C^{2n} with its symplectic context."""
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
    ctx = SymplecticContext.from_pairs(
        [(f"q{i}", f"p{i}") for i in range(1, n + 1)])
    return MapGerm(ambient, comps, ctx)


def al_multiplicity_by_counting(n: int, k: int,
                                R: Sequence[Sequence[Fraction]]) -> int:
    """Count the distinct hyperplane images of the (k-1)-column subspaces.

    The critical values of R o (p_i q_i) sweep the spans of the (k-1)-column
    subsets of R; for generic R these are C(n, k-1) distinct hyperplanes
    through 0, and the reduced discriminant has that multiplicity.  The
    count is returned as found, so callers compare it with the binomial.
    """
    rows = _check_generic(R, n, k)
    normals = set()
    for cols in combinations(range(n), k - 1):
        sub = [[rows[i][j] for j in cols] for i in range(k)]
        # normal covector: kernel of the transposed k x (k-1) block
        basisless = _kernel_covector(sub, k)
        normals.add(basisless)
    return len(normals)


def _kernel_covector(sub: list[list[Fraction]], k: int) -> tuple[Fraction, ...]:
    """The 1-dimensional left kernel of a k x (k-1) full-rank block, normalized."""
    transpose = [[row[j] for row in sub] for j in range(len(sub[0]) if sub else 0)]
    m, pivots = rref(transpose)
    free = [c for c in range(k) if c not in pivots]
    if len(free) != 1:
        raise PolyError("expected a one-dimensional kernel")
    v = [Fraction(0)] * k
    v[free[0]] = Fraction(1)
    for row, col in zip(m, pivots):
        v[col] = -row[free[0]]
    lead = next(x for x in v if x)
    return tuple(x / lead for x in v)
