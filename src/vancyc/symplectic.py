"""Canonical and general Poisson brackets, the Jacobi audit and Casimirs.

Sign convention of the canonical bracket, fixed once here and used
everywhere else:

  {f, g} = sum_l  d_{q_l} f * d_{p_l} g  -  d_{p_l} f * d_{q_l} g

A general (polynomial) bracket is given by its matrix Pi_ij = {x_i, x_j}
on the ambient coordinates; `jacobi_check` audits such a matrix, and
`steinberg` builds the Lie-Poisson one of sl_2 and sl_3 with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .poly import AmbientMismatchError, PolyError, PolyMatrix, Polynomial


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
    """Antisymmetric matrix of polynomial coefficients Pi_ij = {x_i, x_j}."""

    ambient: tuple[str, ...]
    matrix: PolyMatrix

    def __init__(self, ambient, matrix: PolyMatrix):
        ambient = tuple(ambient)
        n = len(ambient)
        rows, cols = matrix.shape
        if rows != n or cols != n:
            raise PolyError(f"Poisson matrix must be {n}x{n}")
        if matrix.ambient != ambient:
            raise AmbientMismatchError("Poisson matrix ambient mismatch")
        for i in range(n):
            for j in range(n):
                if matrix.entry(i, j) != -matrix.entry(j, i):
                    raise PolyError(
                        f"Poisson matrix is not antisymmetric at ({i}, {j})")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "matrix", matrix)


def general_bracket(f: Polynomial, g: Polynomial,
                    structure: PoissonStructure) -> Polynomial:
    """{f, g} = sum_{i<j} Pi_ij (d_i f d_j g - d_j f d_i g)."""
    if f.ambient != structure.ambient or g.ambient != structure.ambient:
        raise AmbientMismatchError("bracket arguments must match the structure ambient")
    ambient = structure.ambient
    df = [f.partial_derivative(v) for v in ambient]
    dg = [g.partial_derivative(v) for v in ambient]
    out = Polynomial.zero(ambient)
    for i in range(len(ambient)):
        for j in range(i + 1, len(ambient)):
            if not ((df[i] and dg[j]) or (df[j] and dg[i])):
                continue
            pij = structure.matrix.entry(i, j)
            if pij.is_zero():
                continue
            out = out + pij * (df[i] * dg[j] - df[j] * dg[i])
    return out


def jacobi_check(structure: PoissonStructure,
                 triples: Sequence[tuple[int, int, int]] | None = None) -> bool:
    """Jacobi identity on coordinate triples (all of them when N <= 10)."""
    n = len(structure.ambient)
    if triples is None:
        if n > 10:
            raise PolyError("explicit triple sample required for more than 10 variables")
        triples = [(i, j, k) for i in range(n)
                   for j in range(i + 1, n) for k in range(j + 1, n)]
    coords = [Polynomial.variable(structure.ambient, v) for v in structure.ambient]
    for i, j, k in triples:
        total = Polynomial.zero(structure.ambient)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = general_bracket(coords[b], coords[c], structure)
            total = total + general_bracket(coords[a], inner, structure)
        if not total.is_zero():
            return False
    return True


def casimir_check(c: Polynomial, structure: PoissonStructure) -> bool:
    """True iff {c, x_i} = 0 for every coordinate x_i.

    By the Leibniz rule the bracket with any polynomial is a combination of
    brackets with coordinates, so this suffices.
    """
    for v in structure.ambient:
        x = Polynomial.variable(structure.ambient, v)
        if not general_bracket(c, x, structure).is_zero():
            return False
    return True
