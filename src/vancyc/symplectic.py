"""The canonical bracket, Poisson structures, the Jacobi audit and Casimirs.

Sign convention of the canonical bracket, fixed once here and used
everywhere else:

  {f, g} = sum_l  d_{q_l} f * d_{p_l} g  -  d_{p_l} f * d_{q_l} g

A general (polynomial) bracket is given by its matrix Pi_ij = {x_i, x_j}
on the ambient coordinates.  One contraction, {x_i, g} = sum_j Pi_ij d_j g,
gives the Jacobi audit {x_i, Pi_jk} + {x_j, Pi_ki} + {x_k, Pi_ij} = 0 (the
coordinate form of [Pi, Pi] = 0; Weinstein, J. Diff. Geom. 18, 1983) and
the Casimir test, every {x_i, c} zero; `steinberg` audits the Lie-Poisson
matrix with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .poly import AmbientMismatchError, PolyError, Polynomial


@dataclass(frozen=True)
class SymplecticContext:
    """Conjugate variable pairs (q_l, p_l) spanning the ambient C^{2n}."""

    q_names: tuple[str, ...]
    p_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.q_names) != len(self.p_names):
            raise PolyError("q and p lists must have equal length")
        seen = self.q_names + self.p_names
        if len(set(seen)) != len(seen):
            raise PolyError("symplectic pairing reuses a variable")

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[str, str]]) -> "SymplecticContext":
        return cls(tuple(q for q, _ in pairs), tuple(p for _, p in pairs))

    def pairs(self) -> list[tuple[str, str]]:
        return list(zip(self.q_names, self.p_names))

    def check_ambient(self, ambient: Sequence[str]):
        missing = (set(self.q_names) | set(self.p_names)) - set(ambient)
        if missing:
            raise AmbientMismatchError(
                f"ambient is missing symplectic variables {sorted(missing)}")


@dataclass(frozen=True)
class MapGerm:
    """A polynomial map germ (C^m, 0) -> (C^k, 0); components vanish at 0."""

    ambient: tuple[str, ...]
    components: tuple[Polynomial, ...]
    context: SymplecticContext | None = None

    def __init__(self, ambient, components, context=None):
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
        if context is not None:
            context.check_ambient(ambient)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "context", context)

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def m(self) -> int:
        return len(self.ambient)


def poisson_bracket(f: Polynomial, g: Polynomial,
                    context: SymplecticContext) -> Polynomial:
    """Canonical bracket of two polynomials over the same ambient."""
    if f.ambient != g.ambient:
        raise AmbientMismatchError("bracket arguments disagree on ambient")
    context.check_ambient(f.ambient)
    out = Polynomial.zero(f.ambient)
    for q, p in context.pairs():
        out = out + (f.partial_derivative(q) * g.partial_derivative(p)
                     - f.partial_derivative(p) * g.partial_derivative(q))
    return out


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
