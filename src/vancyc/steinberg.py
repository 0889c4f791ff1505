"""Adjoint quotients of sl_2 and sl_3: characteristic coefficients, the
Lie-Poisson structure, rank drops at subregular points, the discriminant of
the quotient and the A_1 block in a subregular slice.

Characteristic polynomial convention, fixed here:

  det(lam * Id - X) = lam^(r+1) + s_1 lam^(r-1) + ... + s_r,

so the quotient map sends a traceless matrix to the coefficient tuple
(s_1, ..., s_r); for r = 2 these are (sum of principal 2x2 minors, -det X).

The generic traceless matrix X of `steinberg_map` is the one place that
fixes the entry coordinates; `_cells` lists the entry each one names.  The
Lie-Poisson bracket on them is the closed form
{x_ij, x_kl} = delta_il X_kj - delta_kj X_il over the entries of X, whose last
diagonal entry -(x_11 + ... + x_rr) carries the trace-zero constraint, and is
audited with `symplectic.jacobi_check`; the Casimir check then tests the
characteristic coefficients against that bracket (Kostant, Amer. J. Math. 85, 1963).

The discriminant of the quotient, the (s_1, ..., s_r) whose characteristic
polynomial has a repeated root, is the discriminant of the miniversal
unfolding of the A_r singularity lam^(r+1) (Brieskorn, ICM 1970; Slodowy,
LNM 815, 1980).  That unfolding is a map germ, so its discriminant comes
from `singularity.discriminant` like every other one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .groebner import DEFAULT_PAIR_LIMIT
from .poly import (PolyError, Polynomial, _as_coefficient, determinant_fraction_free,
                   rational_rank, variables)
from .singularity import discriminant, multiplicity_at_origin
from .symplectic import MapGerm, PoissonStructure, casimir_check, jacobi_check


# ---------------------------------------------------------------------------
# The adjoint-quotient (characteristic coefficient) map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteinbergMap:
    """Characteristic coefficients of a generic traceless (r+1) x (r+1) matrix.

    generic_matrix, a tuple of rows, fixes the entry coordinates: x_ij is its
    (i, j) entry for every position but the last diagonal one, which is
    -(x_11 + ... + x_rr).
    """

    rank: int
    ambient: tuple[str, ...]
    generic_matrix: tuple[tuple[Polynomial, ...], ...]
    components: tuple[Polynomial, ...]


def _cells(n: int) -> list[tuple[int, int]]:
    """The (i, j) entry that each coordinate of an n x n traceless matrix
    names, in coordinate order: every entry but the last diagonal one."""
    return [(i, j) for i in range(n) for j in range(n) if not i == j == n - 1]


def steinberg_map(r: int) -> SteinbergMap:
    """Coefficient map (s_1, ..., s_r) for sl_{r+1}, r in {1, 2}."""
    if r not in (1, 2):
        raise PolyError("only ranks 1 and 2 are supported")
    n = r + 1
    cells = _cells(n)
    ambient = tuple(f"x{i + 1}{j + 1}" for (i, j) in cells)
    entries = [[None] * n for _ in range(n)]
    for (i, j) in cells:
        entries[i][j] = Polynomial.variable(ambient, f"x{i + 1}{j + 1}")
    last = Polynomial.zero(ambient)
    for d in range(n - 1):
        last = last - entries[d][d]
    entries[n - 1][n - 1] = last
    generic = tuple(tuple(row) for row in entries)
    lam_ambient = ambient + ("lam",)
    lam = Polynomial.variable(lam_ambient, "lam")
    char_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = -entries[i][j].over(lam_ambient)
            if i == j:
                e = e + lam
            row.append(e)
        char_rows.append(row)
    char = determinant_fraction_free(char_rows)
    # the lam^(n-1) coefficient, -tr X, is zero through the last diagonal entry
    comps = tuple(char.coefficient_in("lam", d) for d in range(n - 2, -1, -1))
    return SteinbergMap(r, ambient, generic, comps)


def steinberg_kks(s: SteinbergMap) -> PoissonStructure:
    """Lie-Poisson structure on the entry coordinates of s, audited by Jacobi.

    Under the trace form x_ij is dual to E_ji (less Id/n on the diagonal,
    which commutes with everything), so {x_ij, x_kl} = tr(X [E_ji, E_lk])
    = delta_il X_kj - delta_kj X_il for the generic matrix X.
    """
    x = s.generic_matrix
    zero = Polynomial.zero(s.ambient)
    cells = _cells(s.rank + 1)
    rows = [[(x[k][j] if i == l else zero) - (x[i][l] if k == j else zero)
             for (k, l) in cells] for (i, j) in cells]
    structure = PoissonStructure(s.ambient, rows)
    if not jacobi_check(structure):
        raise PolyError("Lie-Poisson matrix fails the Jacobi identity")
    return structure


def casimir_components_check(s: SteinbergMap, structure: PoissonStructure) -> bool:
    """Every characteristic coefficient is a Casimir of the Lie-Poisson
    bracket; a structure over other coordinates raises AmbientMismatchError."""
    return all(casimir_check(c, structure) for c in s.components)


def _ar_unfolding(r: int) -> MapGerm:
    """The miniversal unfolding of the A_r singularity as a map germ

      (lam, u_1, ..., u_(r-1)) -> (u_1, ..., u_(r-1),
                                   -(lam^(r+1) + u_1 lam^(r-1) + ... + u_(r-1) lam)).

    The fibre over (s_1, ..., s_r) is the set of roots of
    lam^(r+1) + s_1 lam^(r-1) + ... + s_r, so its critical values are the
    coefficient tuples with a repeated root.  The source variables are not
    named s*, which `singularity.discriminant` keeps for the target.
    """
    lam, *u = variables(["lam"] + [f"u{i}" for i in range(1, r)])
    last = lam ** (r + 1)
    for i, ui in enumerate(u, 1):
        last = last + ui * lam ** (r - i)
    return MapGerm(lam.ambient, [*u, -last])


def steinberg_discriminant_multiplicity(r: int,
                                        max_pairs: int = DEFAULT_PAIR_LIMIT) -> int:
    """Multiplicity at 0 of the lam-discriminant of the characteristic
    polynomial lam^(r+1) + s_1 lam^(r-1) + ... + s_r, the discriminant of
    the A_r unfolding; each Buchberger run of `discriminant` (the
    elimination and the gcds of the squarefree part) is capped at
    `max_pairs` S-pairs.  Any rank r >= 1 is accepted."""
    if r < 1:
        raise PolyError("rank must be at least 1")
    return multiplicity_at_origin(discriminant(_ar_unfolding(r), max_pairs=max_pairs))


def _jacobian_at(polys: Sequence[Polynomial], names: Sequence[str],
                 point: dict) -> list[list[Fraction]]:
    """The partials of each of polys by each of names, evaluated at point."""
    return [[p.partial_derivative(v).evaluate(point) for v in names] for p in polys]


def jacobian_rank_at(s: SteinbergMap,
                     point_matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the differential of the coefficient map at a traceless matrix."""
    n = s.rank + 1
    rows = [[_as_coefficient(x) for x in row] for row in point_matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise PolyError(f"point must be a {n} x {n} matrix")
    if sum(rows[i][i] for i in range(n)):
        raise PolyError("point matrix must be traceless")
    point = {v: rows[i][j] for v, (i, j) in zip(s.ambient, _cells(n))}
    return rational_rank(_jacobian_at(s.components, s.ambient, point))


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
                and self.t_column_only and self.a1_at_origin
                and self.c3_vanishes_at_t0)


def subregular_slice_check(smap: SteinbergMap) -> SubregularSliceReport:
    """Exhibit the A_1 (Morse) block transverse to the subregular locus of sl_3.

    c2 and c3 are the components (s_1, s_2) of the rank-2 map `smap` with the
    slice entries substituted for the entry coordinates.
    """
    if smap.rank != 2:
        raise PolyError("the subregular slice is built in sl_3 (rank 2)")
    ambient = ("t", "y11", "y12", "y21")
    t, y11, y12, y21 = variables(ambient)
    zero = Polynomial.zero(ambient)
    x = [[t + y11, y12, zero],
         [y21, t - y11, zero],
         [zero, zero, (-2) * t]]
    on_slice = {v: x[i][j] for v, (i, j) in zip(smap.ambient, _cells(3))}
    c2, c3 = (c.substitute(on_slice) for c in smap.components)
    block = ("y11", "y12", "y21")
    origin = {v: 0 for v in ambient}
    gradient = [c2.partial_derivative(v) for v in block]
    block_rank = rational_rank(_jacobian_at(gradient, block, origin))
    subregular_point = {"t": Fraction(1), "y11": 0, "y12": 0, "y21": 0}
    diff = _jacobian_at((c2, c3), ambient, subregular_point)
    diff_rank = rational_rank(diff)
    t_only = all(diff[row][col] == 0
                 for row in range(2) for col in range(1, 4))
    # the origin lies in the t = 0 fibre, so c2's value and block gradient
    # there are those of the fibre
    grad_zero = not any(g.evaluate(origin) for g in gradient)
    a1 = c2.constant_term() == 0 and grad_zero and block_rank == 3
    c3_t0 = c3.coefficient_in("t", 0).is_zero()
    return SubregularSliceReport(ambient, c2, c3, block_rank, diff_rank,
                                 t_only, a1, c3_t0)
