"""Poisson structures, their one bracket, the Jacobi audit and Casimirs.

A Poisson bracket is given by its matrix Pi_ij = {x_i, x_j} on the ambient
coordinates, and every bracket is

  {f, g} = sum_ij Pi_ij d_i f d_j g.

The canonical structure of a pairing (q_l, p_l) has Pi(q_l, p_l) = 1, so
{f, g} = sum_l d_{q_l} f d_{p_l} g - d_{p_l} f d_{q_l} g; `steinberg` builds
the Lie-Poisson matrix.  One contraction, {x_i, g} = sum_j Pi_ij d_j g,
gives the bracket, the Jacobi audit {x_i, Pi_jk} + {x_j, Pi_ki} +
{x_k, Pi_ij} = 0 (the coordinate form of [Pi, Pi] = 0; Weinstein, J. Diff.
Geom. 18, 1983) and the Casimir test, every {x_i, c} zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .poly import AmbientMismatchError, PolyError, Polynomial


@dataclass(frozen=True)
class MapGerm:
    """A polynomial map germ (C^m, 0) -> (C^k, 0); components vanish at 0.
    The bracket its components are tested under is a `PoissonStructure`
    passed beside it, not part of the germ."""

    ambient: tuple[str, ...]
    components: tuple[Polynomial, ...]

    def __init__(self, ambient, components):
        ambient = tuple(ambient)
        components = tuple(components)
        if not components:
            raise PolyError("a map germ needs at least one component")
        for c in components:
            if c.ambient != ambient:
                raise AmbientMismatchError("component ambient mismatch")
            if c.constant_term():
                raise PolyError(
                    f"component {c} does not vanish at the origin")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "components", components)

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def m(self) -> int:
        return len(self.ambient)


@dataclass(frozen=True)
class PoissonStructure:
    """Antisymmetric matrix of polynomial coefficients Pi_ij = {x_i, x_j},
    stored as a tuple of rows."""

    ambient: tuple[str, ...]
    matrix: tuple[tuple[Polynomial, ...], ...]

    def __init__(self, ambient, matrix: Sequence[Sequence[Polynomial]]):
        ambient = tuple(ambient)
        matrix = tuple(tuple(row) for row in matrix)
        n = len(ambient)
        if not n:
            raise PolyError("a Poisson structure needs at least one coordinate")
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise PolyError(f"Poisson matrix must be {n}x{n}")
        if any(e.ambient != ambient for row in matrix for e in row):
            raise AmbientMismatchError("Poisson matrix ambient mismatch")
        for i in range(n):
            for j in range(n):
                if matrix[i][j] != -matrix[j][i]:
                    raise PolyError(
                        f"Poisson matrix is not antisymmetric at ({i}, {j})")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def from_pairs(cls, ambient: Sequence[str],
                   pairs: Sequence[tuple[str, str]]) -> "PoissonStructure":
        """The canonical structure of conjugate pairs (q_l, p_l):
        Pi(q_l, p_l) = 1, Pi(p_l, q_l) = -1, every other entry zero, so an
        unpaired variable is a Casimir."""
        ambient = tuple(ambient)
        names = [x for pair in pairs for x in pair]
        if len(set(names)) != len(names):
            raise PolyError("symplectic pairing reuses a variable")
        missing = set(names) - set(ambient)
        if missing:
            raise AmbientMismatchError(
                f"ambient is missing symplectic variables {sorted(missing)}")
        zero = Polynomial.zero(ambient)
        one = Polynomial.constant(ambient, 1)
        rows = [[zero] * len(ambient) for _ in ambient]
        for q, p in pairs:
            i, j = ambient.index(q), ambient.index(p)
            rows[i][j], rows[j][i] = one, -one
        return cls(ambient, rows)


def _flow(g: Polynomial, structure: PoissonStructure) -> list[Polynomial]:
    """[{x_i, g} for each coordinate x_i], each sum_j Pi_ij d_j g over the
    nonzero entries and nonzero partials."""
    ambient = structure.ambient
    if g.ambient != ambient:
        raise AmbientMismatchError("bracket arguments must match the structure ambient")
    dg = [(j, d) for j, d in enumerate(map(g.partial_derivative, ambient)) if d]
    zero = Polynomial.zero(ambient)
    return [sum((row[j] * d for j, d in dg if row[j]), zero)
            for row in structure.matrix]


def poisson_bracket(f: Polynomial, g: Polynomial,
                    structure: PoissonStructure) -> Polynomial:
    """{f, g} = sum_i d_i f {x_i, g} for two polynomials over the
    structure's ambient."""
    if f.ambient != g.ambient:
        raise AmbientMismatchError("bracket arguments disagree on ambient")
    pairs = zip(map(f.partial_derivative, f.ambient), _flow(g, structure))
    return sum((df * h for df, h in pairs if df and h), Polynomial.zero(f.ambient))


def jacobi_check(structure: PoissonStructure) -> bool:
    """{x_i, Pi_jk} + {x_j, Pi_ki} + {x_k, Pi_ij} = 0 on every triple of
    coordinates, the coordinate form of [Pi, Pi] = 0."""
    n = len(structure.ambient)
    # the flow of Pi_ab for a < b; Pi_ki = -Pi_ik
    flows = {(a, b): _flow(structure.matrix[a][b], structure)
             for a, b in combinations(range(n), 2)}
    return not any(flows[j, k][i] - flows[i, k][j] + flows[i, j][k]
                   for i, j, k in combinations(range(n), 3))


def casimir_check(c: Polynomial, structure: PoissonStructure) -> bool:
    """True iff {x_i, c} = 0 for every coordinate x_i; by the Leibniz rule
    the bracket with any polynomial is a combination of these."""
    return not any(_flow(c, structure))
