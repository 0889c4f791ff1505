"""Adjoint quotients of sl_2 and sl_3: characteristic coefficients, the
Lie-Poisson structure, rank drops at subregular points, and the A_1 block
in a subregular slice.

Characteristic polynomial convention, fixed here:

  det(lam * Id - X) = lam^(r+1) + s_1 lam^(r-1) + ... + s_r,

so the quotient map sends a traceless matrix to the coefficient tuple
(s_1, ..., s_r); for r = 2 these are (sum of principal 2x2 minors, -det X).

The generic traceless matrix X of `steinberg_map` is the one place that
fixes the entry coordinates.  The Lie-Poisson bracket on them is read off
X through matrix commutators, Pi_ab = tr(X [b_a, b_b]) with b_a the trace
dual of coordinate a, and is audited with `symplectic.jacobi_check`; the
Casimir check then compares Bareiss determinants against that bracket
(Kostant, Amer. J. Math. 85, 1963).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .poly import (PolyError, PolyMatrix, Polynomial, determinant_fraction_free,
                   rational_rank, resultant, squarefree_part_bivariate, variables)
from .symplectic import PoissonStructure, casimir_check, jacobi_check


# ---------------------------------------------------------------------------
# The adjoint-quotient (characteristic coefficient) map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteinbergMap:
    """Characteristic coefficients of a generic traceless (r+1) x (r+1) matrix.

    generic_matrix fixes the entry coordinates: x_ij is its (i, j) entry for
    every position but the last diagonal one, which is -(x_11 + ... + x_rr).
    """

    rank: int
    ambient: tuple[str, ...]
    generic_matrix: PolyMatrix
    components: tuple[Polynomial, ...]


def steinberg_map(r: int) -> SteinbergMap:
    """Coefficient map (s_1, ..., s_r) for sl_{r+1}, r in {1, 2}."""
    if r not in (1, 2):
        raise PolyError("only ranks 1 and 2 are supported")
    n = r + 1
    positions = [(i, j) for i in range(n) for j in range(n) if not i == j == n - 1]
    ambient = tuple(f"x{i + 1}{j + 1}" for (i, j) in positions)
    entries = [[None] * n for _ in range(n)]
    for (i, j) in positions:
        entries[i][j] = Polynomial.variable(ambient, f"x{i + 1}{j + 1}")
    last = Polynomial.zero(ambient)
    for d in range(n - 1):
        last = last - entries[d][d]
    entries[n - 1][n - 1] = last
    generic = PolyMatrix.from_rows(entries)
    lam_ambient = ambient + ("lam",)
    lam = Polynomial.variable(lam_ambient, "lam")
    char_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = -entries[i][j].extend(lam_ambient)
            if i == j:
                e = e + lam
            row.append(e)
        char_rows.append(row)
    char = determinant_fraction_free(PolyMatrix.from_rows(char_rows))
    if not char.coefficient_in("lam", n - 1).is_zero():
        raise PolyError("generic matrix is not traceless")
    comps = tuple(char.coefficient_in("lam", d) for d in range(n - 2, -1, -1))
    return SteinbergMap(r, ambient, generic, comps)


def _coordinate_positions(s: SteinbergMap) -> list[tuple[int, int]]:
    """The (i, j) entry of the generic matrix that each coordinate reads off."""
    n = s.rank + 1
    cells = {s.generic_matrix.entry(i, j): (i, j)
             for i in range(n) for j in range(n)}
    return [cells[x] for x in variables(s.ambient)]


def _commutator(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]


def _trace_pairing(x: PolyMatrix, c) -> Polynomial:
    """tr(x c) for a polynomial matrix x and a rational matrix c."""
    n = len(c)
    out = Polynomial.zero(x.ambient)
    for i in range(n):
        for k in range(n):
            if c[k][i]:
                out = out + x.entry(i, k).scale(c[k][i])
    return out


def steinberg_kks(s: SteinbergMap) -> PoissonStructure:
    """Lie-Poisson structure on the entry coordinates of s, audited by Jacobi.

    Under the trace form the coordinate x_ij is dual to b_ij = E_ji off the
    diagonal and to E_ii - Id/n on it, so Pi_ab = tr(X [b_a, b_b]) for the
    generic matrix X, that is {x_ij, x_kl} = delta_il x_kj - delta_kj x_il.
    """
    n = s.rank + 1
    duals = []
    for i, j in _coordinate_positions(s):
        b = [[Fraction(0)] * n for _ in range(n)]
        b[j][i] = Fraction(1)
        if i == j:
            for d in range(n):
                b[d][d] -= Fraction(1, n)
        duals.append(b)
    rows = [[_trace_pairing(s.generic_matrix, _commutator(a, b)) for b in duals]
            for a in duals]
    structure = PoissonStructure(s.ambient, PolyMatrix.from_rows(rows))
    if not jacobi_check(structure):
        raise PolyError("Lie-Poisson matrix fails the Jacobi identity")
    return structure


def casimir_components_check(s: SteinbergMap, structure: PoissonStructure) -> bool:
    """Every characteristic coefficient is a Casimir of the Lie-Poisson bracket."""
    if structure.ambient != s.ambient:
        raise PolyError("Poisson structure must live on the map's entry coordinates")
    return all(casimir_check(c, structure) for c in s.components)


def steinberg_discriminant_multiplicity(r: int) -> int:
    """Order at 0 of the reduced lam-discriminant of the characteristic polynomial."""
    if r == 1:
        ambient = ("s1", "lam")
        lam = Polynomial.variable(ambient, "lam")
        s1 = Polynomial.variable(ambient, "s1")
        p = lam ** 2 + s1
    elif r == 2:
        ambient = ("s1", "s2", "lam")
        lam = Polynomial.variable(ambient, "lam")
        s1 = Polynomial.variable(ambient, "s1")
        s2 = Polynomial.variable(ambient, "s2")
        p = lam ** 3 + s1 * lam + s2
    else:
        raise PolyError("only ranks 1 and 2 are supported")
    res = resultant(p, p.partial_derivative("lam"), "lam")
    return squarefree_part_bivariate(res).order_at_origin()


def jacobian_rank_at(s: SteinbergMap,
                     point_matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the differential of the coefficient map at a traceless matrix."""
    n = s.rank + 1
    rows = [[Fraction(x) for x in row] for row in point_matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise PolyError(f"point must be a {n} x {n} matrix")
    if sum(rows[i][i] for i in range(n)):
        raise PolyError("point matrix must be traceless")
    point = {v: rows[i][j] for v, (i, j) in zip(s.ambient, _coordinate_positions(s))}
    jac = [[c.partial_derivative(v).evaluate(point) for v in s.ambient]
           for c in s.components]
    return rational_rank(jac)


# ---------------------------------------------------------------------------
# Subregular slice for sl_3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubregularSliceReport:
    """Exact checks along X(t, Y) = diag(t, t, -2t) + (Y in the upper sl_2 block)."""

    slice_ambient: tuple[str, ...]
    c2: Polynomial
    c3: Polynomial
    block_hessian_rank: int        # of c2 in the sl_2-block entries; want 3
    differential_rank: int         # of (c2, c3) at t=1, Y=0; want 1
    t_column_only: bool            # the rank comes from the t direction alone
    a1_at_origin: bool             # t=0 fibre has a Morse (A_1) point at Y=0
    c3_vanishes_at_t0: bool

    @property
    def passed(self) -> bool:
        return (self.block_hessian_rank == 3 and self.differential_rank == 1
                and self.t_column_only and self.a1_at_origin)


def subregular_slice_check() -> SubregularSliceReport:
    """Exhibit the A_1 (Morse) block transverse to the subregular locus of sl_3."""
    ambient = ("t", "y11", "y12", "y21")
    t, y11, y12, y21 = variables(ambient)
    zero = Polynomial.zero(ambient)
    x = PolyMatrix.from_rows([
        [t + y11, y12, zero],
        [y21, t - y11, zero],
        [zero, zero, (-2) * t],
    ])
    lam_ambient = ambient + ("lam",)
    lam = Polynomial.variable(lam_ambient, "lam")
    rows = []
    for i in range(3):
        rows.append([
            (lam if i == j else Polynomial.zero(lam_ambient))
            - x.entry(i, j).extend(lam_ambient)
            for j in range(3)])
    char = determinant_fraction_free(PolyMatrix.from_rows(rows))
    c2 = char.coefficient_in("lam", 1)
    c3 = char.coefficient_in("lam", 0)
    block = ("y11", "y12", "y21")
    origin = {v: 0 for v in ambient}
    hess = [[c2.partial_derivative(a).partial_derivative(b).evaluate(origin)
             for b in block] for a in block]
    block_rank = rational_rank(hess)
    subregular_point = {"t": Fraction(1), "y11": 0, "y12": 0, "y21": 0}
    diff = [[c.partial_derivative(v).evaluate(subregular_point) for v in ambient]
            for c in (c2, c3)]
    diff_rank = rational_rank(diff)
    t_only = all(diff[row][col] == 0
                 for row in range(2) for col in range(1, 4))
    t_zero = {"t": Polynomial.zero(ambient)}
    c2_fibre = c2.substitute(t_zero)
    grad_zero = all(c2_fibre.partial_derivative(v).evaluate(origin) == 0
                    for v in block)
    a1 = (c2_fibre.constant_term() == 0) and grad_zero and (block_rank == 3)
    c3_t0 = c3.substitute(t_zero).is_zero()
    return SubregularSliceReport(ambient, c2, c3, block_rank, diff_rank,
                                 t_only, a1, c3_t0)
