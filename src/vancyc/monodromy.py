"""Intersection lattices, Picard-Lefschetz reflections, Coxeter groups, folding.

Every matrix is a list of rows of Python ints: Cartan and Coxeter data,
intersection forms, reflections, variation matrices and foldings.  Inputs
(nested lists or integer numpy arrays) go through `_int_rows`, and every
product is a sum of Python ints, so no entry can wrap.  The only numpy array
is the return value of `cartan_matrix`, the one place that imports numpy.
Every reflection is `_reflection`, the identity with row i replaced:
e_j |-> e_j + P_ij e_i, with P_ij = -C_ji for the Weyl generators and S_ij for
the Picard-Lefschetz reflection a |-> a + (a . delta_i) delta_i in a class of
square -2, as in Pham's vanishing-cycle lattices (`pham_seifert_matrix`).

One function answers every question about a matrix group: in one pass
`_root_permutations` reads the generators, closes the unit columns under them
(the roots, for a Weyl group) into at most 256 ids, reads each generator as a
permutation of the ids and refuses.  `group_order_bfs` counts that
permutation group by a Schreier-Sims chain; `braid_relation_check` and
`coxeter_element_order` read element orders off cycle lengths; all three
raise its LatticeErrors, one of them past 256 ids, as for an infinite group.
`weyl_group_order` counts a Weyl group by orbit-stabilizer.  `fold` builds
its source diagram once, from a type label, and `identify_type` names the
folded Cartan matrix by matching nodes of equal degree.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations, product
from math import lcm
from typing import Sequence

from .poly import rational_rank


class LatticeError(ValueError):
    """Invalid lattice data or an unsupported reflection request."""


class FoldingError(ValueError):
    """The permutations are not diagram automorphisms or the fold is invalid."""


# ---------------------------------------------------------------------------
# Cartan and Coxeter data
# ---------------------------------------------------------------------------

_TYPE_RE = re.compile(r"^([A-G])([1-9]\d*)$")

# The types whose groups group_order_bfs counts at its default 10**6-element
# cap, which E7 and E8 pass: the benchmark's `reflection` workload builds its
# type list from this tuple.  `vancyc coxeter` accepts every type up to rank 8.
SUPPORTED_TYPES = tuple(
    [f"A{r}" for r in range(1, 9)] + ["B2", "B3", "B4", "C3", "D4", "E6", "F4", "G2"])


def _chain_edges(r: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(r - 1)]


def cartan_matrix(label: str):
    """Cartan matrix of a finite type label like 'A3', 'B2', 'E6', 'G2', as
    a numpy int array."""
    # An array only because perfbench/workloads.py:relabelled_datum relabels
    # the result with the fancy index c[perm][:, perm]; the library itself
    # reads _cartan_rows.  numpy is imported here so that importing vancyc
    # does not load it.
    import numpy as np
    return np.array(_cartan_rows(label))


def _cartan_rows(label: str) -> list[list[int]]:
    if not isinstance(label, str):
        raise LatticeError(f"unrecognized type label of type {type(label).__name__}")
    m = _TYPE_RE.match(label)
    if not m:
        raise LatticeError(f"unrecognized type label '{label}'")
    letter, rank = m.group(1), int(m.group(2))
    if rank > _COLUMN_IDS:  # refused before the rank^2 rows
        raise LatticeError(f"type label '{label}' has rank above {_COLUMN_IDS}, "
                           "the column ids of a reflection group")
    edges: list[tuple[int, int, int, int]] = []  # (i, j, a_ij, a_ji)

    def simple(pairs):
        return [(i, j, -1, -1) for i, j in pairs]

    if letter == "A" and rank >= 1:
        edges = simple(_chain_edges(rank))
    elif letter == "B" and rank >= 2:
        edges = simple(_chain_edges(rank - 1)) + [(rank - 2, rank - 1, -1, -2)]
    elif letter == "C" and rank >= 2:
        edges = simple(_chain_edges(rank - 1)) + [(rank - 2, rank - 1, -2, -1)]
    elif letter == "D" and rank >= 4:
        edges = simple(_chain_edges(rank - 1)) + [(rank - 3, rank - 1, -1, -1)]
    elif letter == "E" and rank in (6, 7, 8):
        # chain 0-2-3-4-...-(rank-1) with node 1 attached to node 3
        chain = [(0, 2)] + [(i, i + 1) for i in range(2, rank - 1)]
        edges = simple(chain + [(1, 3)])
    elif letter == "F" and rank == 4:
        edges = simple([(0, 1), (2, 3)]) + [(1, 2, -1, -2)]
    elif letter == "G" and rank == 2:
        edges = [(0, 1, -1, -3)]
    else:
        raise LatticeError(f"unsupported type label '{label}'")
    c = _identity(rank, 2)
    for i, j, aij, aji in edges:
        c[i][j] = aij
        c[j][i] = aji
    return c


_BOND_TO_M = {0: 2, 1: 3, 2: 4, 3: 6}


def coxeter_matrix_from_cartan(cartan) -> list[list[int]]:
    """m_ij from the products a_ij * a_ji (0,1,2,3 -> 2,3,4,6)."""
    c = _int_rows(cartan)
    m = _identity(len(c))
    for i, j in permutations(range(len(c)), 2):
        prod = c[i][j] * c[j][i]
        if prod not in _BOND_TO_M:
            raise LatticeError(f"bond product {prod} at ({i},{j}) is not finite type")
        m[i][j] = _BOND_TO_M[prod]
    return m


@dataclass(frozen=True)
class CoxeterDatum:
    """A type label with its Cartan and Coxeter matrices, as int rows."""

    label: str
    cartan: list[list[int]]
    coxeter: list[list[int]]

    def __post_init__(self):
        object.__setattr__(self, "cartan", _int_rows(self.cartan))
        object.__setattr__(self, "coxeter", _int_rows(self.coxeter))

    @classmethod
    def for_type(cls, label: str) -> "CoxeterDatum":
        c = _cartan_rows(label)
        return cls(label, c, coxeter_matrix_from_cartan(c))

    @property
    def rank(self) -> int:
        return len(self.cartan)

    def is_simply_laced(self) -> bool:
        return self.cartan == _transpose(self.cartan)


def identify_type(cartan) -> str | None:
    """Match a Cartan matrix against the finite types up to node permutation.

    Rank 2 with a double bond reports 'C2' (equal to B2 up to relabeling).
    """
    c = _int_rows(cartan)
    r = len(c)
    for label in (f"{letter}{r}" for letter in "ADEFGCB"):
        try:
            target = _cartan_rows(label)
        except LatticeError:
            continue
        if _match_nodes(c, target, []):
            return label
    return None


def _match_nodes(c: list[list[int]], target: list[list[int]], p: list[int]) -> bool:
    """Extend p, where node m of target is node p[m] of c, one node at a
    time, backtracking at the first entry that disagrees; True once every
    node is matched, p then being the node order that relabels c as target.
    A candidate needs the target node's degree (its count of zero entries)
    and is compared with the placed nodes newest first: each target's node 0
    is an end node, and for A-D each later node but the last neighbours the
    one placed before it, so along a chain a wrong candidate fails at once.
    In a tree the path from a seed is unique, so a seed costs about r calls."""
    k = len(p)
    if k == len(c):
        return True
    degree = target[k].count(0)
    for i in range(len(c)):
        if i not in p and c[i][i] == target[k][k] and c[i].count(0) == degree and all(
                c[i][p[m]] == target[k][m] and c[p[m]][i] == target[m][k]
                for m in range(k - 1, -1, -1)):
            p.append(i)
            if _match_nodes(c, target, p):
                return True
            p.pop()
    return False


# ---------------------------------------------------------------------------
# Intersection lattices and Picard-Lefschetz data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntersectionLattice:
    """Free Z-module with a symmetric integer pairing, as int rows."""

    form: list[list[int]]

    def __post_init__(self):
        form = _int_rows(self.form)
        object.__setattr__(self, "form", form)
        if form != _transpose(form):
            raise LatticeError("intersection form must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.form)


def pham_seifert_matrix(exponents: Sequence[int]) -> list[list[int]]:
    """V_a (x) V_b (x) ..., V_a with 1 on the diagonal and -1 just above it: the
    Seifert matrix of Pham's basis of x^a + y^b + ..., of form -(V + V^T) (Sebastiani
    and Thom, Bull. SMF 99, 1971; Gabrielov, Funct. Anal. Appl. 7, 1973)."""
    if not (isinstance(exponents, (list, tuple)) and exponents
            and all(isinstance(a, int) and a >= 2 for a in exponents)):
        raise LatticeError(f"Pham exponents {exponents!r} must be integers >= 2")
    v = [[1]]
    for a in exponents:
        v = [[x * ((k == l) - (l == k + 1)) for x in row for l in range(a - 1)]
             for row in v for k in range(a - 1)]
    return v


def pl_reflection(lattice: IntersectionLattice, i: int) -> list[list[int]]:
    """Matrix of a |-> a + (a . delta_i) delta_i in the basis delta_1..delta_r,
    `_reflection` with row S_i; requires (delta_i . delta_i) = -2, and is then
    an involution preserving the form."""
    s = lattice.form
    i = _integer(i, "reflection index")
    if not 0 <= i < len(s):
        raise LatticeError(f"reflection index {i} out of range 0..{len(s) - 1}")
    if s[i][i] != -2:
        raise LatticeError(f"self-intersection {s[i][i]} != -2: reflection formula not applicable")
    return _reflection(i, s[i])


def variation_matrix(lattice: IntersectionLattice) -> list[list[int]]:
    """Lower-triangular W with W_ii = -1, W_ij = S_ij (i > j); then S = W + W^T."""
    s = lattice.form
    r = lattice.rank
    if any(s[i][i] != -2 for i in range(r)):
        raise LatticeError("variation matrix needs an even form with diagonal -2")
    return [s[i][:i] + [-1] + [0] * (r - i - 1) for i in range(r)]


def weyl_generators(datum: CoxeterDatum) -> list[list[list[int]]]:
    """Reflection representation on the root lattice: s_i(e_j) = e_j - C_ji e_i."""
    return [_reflection(i, [-row[i] for row in datum.cartan]) for i in range(datum.rank)]


def _reflection(i: int, row: list[int]) -> list[list[int]]:
    """The identity with row i replaced by e_i + row: e_j |-> e_j + row[j] e_i."""
    m = _identity(len(row))
    m[i] = [a + b for a, b in zip(m[i], row)]
    return m


def _int_rows(matrix) -> list[list[int]]:
    """A square integer matrix (nested lists or an integer numpy array) as
    new lists of Python ints, the module's one matrix type; LatticeError
    otherwise."""
    try:
        rows = [[operator.index(x) for x in row] for row in matrix]
    except TypeError:
        raise LatticeError("expected a square integer matrix") from None
    if any(len(row) != len(rows) for row in rows):
        raise LatticeError("expected a square integer matrix")
    return rows


def _integer(x, name: str) -> int:
    """x through `operator.index`; LatticeError naming it otherwise."""
    try:
        return operator.index(x)
    except TypeError:
        raise LatticeError(f"{name} {x!r} is not an integer") from None


def _identity(n: int, diagonal: int = 1) -> list[list[int]]:
    return [[diagonal if i == j else 0 for j in range(n)] for i in range(n)]


def _transpose(m: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*m)]


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Exact product of two integer matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


_COLUMN_IDS = 256  # one byte per column id
_IDENTITY_PERM = bytes(range(_COLUMN_IDS))


def _root_permutations(generators: Sequence) -> tuple[list[bytes], int]:
    """The generators as permutations of the m <= 256 ids of the unit
    columns' closure under them, each its 256-byte `bytes.translate` table;
    its LatticeErrors are the one refusal of every group question.

    Each generator goes through `_int_rows`; all must have one size.  Column a
    of g.h is g.(column a of h), so the ids are the columns of every element
    of the monoid the generators generate (the roots, for `weyl_generators`),
    in the order of discovery, e_k first as id k.  An element is fixed by its
    images of the unit columns, so the group acts faithfully on the ids: its
    elements and their orders are those of their tables.  LatticeError past
    256 ids (a size past 256 included), naming the first singular generator
    `poly.rational_rank` finds, if any; within 256 ids, for a table that is
    not a permutation, a singular generator since the columns span Q^n.
    """
    mats = [_int_rows(g) for g in generators]
    if len({len(g) for g in mats}) > 1:
        raise LatticeError("generators must be square matrices of one common size")
    if not mats:
        return [], 0
    n = len(mats[0])
    units = _identity(n)
    cols = list(map(tuple, units))
    col_ids = {col: k for k, col in enumerate(cols)}
    tables: list[list[int]] = [[] for _ in mats]
    # g.e_k is g's own column k; a later column is changed only by the rows
    # of g that differ from the identity's, one row for a reflection.
    per_matrix = [(table, list(zip(*g)),
                   [(i, row) for i, (row, unit) in enumerate(zip(g, units)) if row != unit])
                  for table, g in zip(tables, mats)]
    mul = operator.mul
    for k, col in enumerate(cols):  # the list grows while it is read
        if len(cols) > _COLUMN_IDS:
            break
        for table, g_cols, rows in per_matrix:
            if k < n:
                image = g_cols[k]
            else:
                image = list(col)
                for i, row in rows:
                    image[i] = sum(map(mul, row, col))
                image = tuple(image)
            k_image = col_ids.setdefault(image, len(cols))
            if k_image == len(cols):
                cols.append(image)
            table.append(k_image)
    m = len(cols)
    if m > _COLUMN_IDS:
        for k, g in enumerate(mats):
            rank = rational_rank(g)
            if rank < n:
                raise LatticeError(f"singular generator {k}: its rank is {rank} < {n}")
        raise LatticeError(f"the unit columns close into more than {_COLUMN_IDS} ids")
    for k, table in enumerate(tables):
        if len(set(table)) < m:
            raise LatticeError(
                f"singular generator {k}: it maps two columns to one column")
    return [bytes(table) + _IDENTITY_PERM[m:] for table in tables], m


def _cycle_lengths(t: bytes, m: int) -> list[int]:
    """The cycle lengths of a permutation of 0..m-1; their lcm is its order."""
    seen = bytearray(m)
    lengths = []
    for start in range(m):
        a, length = start, 0
        while not seen[a]:
            seen[a] = 1
            a, length = t[a], length + 1
        if length:
            lengths.append(length)
    return lengths


def group_order_bfs(generators: Sequence, cap: int = 10 ** 6) -> int | None:
    """Order of the matrix group generated, listing no element; None exactly
    when it has more than `cap` >= 1 elements, an integer.
    `_stabilizer_chain_order` counts `_root_permutations`, whose
    LatticeErrors it raises."""
    cap = _integer(cap, "cap")
    if cap < 1:
        raise LatticeError(f"cap {cap} is below 1, the order of the trivial group")
    return _stabilizer_chain_order(*_root_permutations(generators), cap)


def braid_relation_check(generators: Sequence,
                         coxeter) -> tuple[bool, tuple[int, int] | None]:
    """Check each generator is an involution and each product s_i s_j has
    order exactly m_ij, read on `_root_permutations` (whose LatticeErrors
    it raises) as the lcm of the cycle lengths of s_i s_j.  The first failing
    generator i is reported as the witness (i, i), the first failing pair as
    (i, j).  LatticeError for a bad Coxeter matrix (`_coxeter_rows`).
    """
    tables, m = _root_permutations(generators)
    orders = _coxeter_rows(coxeter, len(tables))
    for i, t in enumerate(tables):
        if t.translate(t) != _IDENTITY_PERM:
            return False, (i, i)
    for i, j in combinations(range(len(tables)), 2):
        if lcm(*_cycle_lengths(tables[j].translate(tables[i]), m)) != orders[i][j]:
            return False, (i, j)
    return True, None


def _coxeter_rows(coxeter, n: int) -> list[list[int]]:
    """The Coxeter matrix of n generators as int rows; LatticeError unless it
    is n x n and symmetric, with ones on the diagonal and entries >= 1."""
    rows = _int_rows(coxeter)
    if len(rows) != n:
        raise LatticeError(f"the Coxeter matrix has {len(rows)} rows for {n} generators")
    for i, j in product(range(n), repeat=2):
        if rows[i][j] < 1:
            raise LatticeError(f"coxeter[{i}][{j}] = {rows[i][j]} is not a positive order")
        if rows[i][j] != (1 if i == j else rows[j][i]):
            raise LatticeError(f"not a Coxeter matrix at ({i},{j})")
    return rows


def _stabilizer_chain_order(translations: list[bytes], m: int,
                            cap: int) -> int | None:
    """Order of the group that permutations of 0..m-1 generate, each given as
    its 256-byte `bytes.translate` table; None once it passes `cap` elements.

    A deterministic incremental Schreier-Sims chain (Sims, 1970; Seress,
    Permutation Group Algorithms, 2003, ch. 4).  Level i has a base point b_i,
    generators S_i that fix b_0..b_{i-1}, the orbit of b_i under them and,
    for each orbit point a, u_a with u_a(b_i) = a, as the m bytes of its
    images; q.p (p first) is `p.translate(q)`.  The pairs (orbit point a,
    s in S_i) are tested once each, counted off per orbit point.  s.u_a
    either reaches a new orbit point or gives the Schreier generator
    u_{s(a)}^-1.s.u_a, sifted through the deeper levels.  A residue other
    than the identity joins S_{i+1}..S_j, j its drop level (a new level at
    its least moved point when j is past the last), and the walk goes on at
    level j, then back up.  Once every pair of every level is tested, |G| is
    the product of the orbit lengths.  Each orbit lies in the orbit of b_i
    under the stabilizer of b_0..b_{i-1}, so at every step the product is a
    lower bound on |G|: passing `cap` means |G| > cap.
    """
    ident = _IDENTITY_PERM[:m]
    gens = [t for t in translations if t != _IDENTITY_PERM]
    if not gens:
        return 1
    levels = [_chain_level(gens[0], gens, ident)]
    order = 1
    i = 0
    while i >= 0:
        base, gens, orbit, tested, u, u_inv = levels[i]
        others = order // len(orbit)
        limit = cap // others  # the longest orbit that keeps the product within cap
        ng = len(gens)
        drop = None
        for a, point in enumerate(orbit):  # the orbit grows while it is read
            if tested[a] == ng:
                continue
            u_a = u[point]
            for k in range(tested[a], ng):
                su = u_a.translate(gens[k])
                y = su[base]
                u_y = u[y]
                if u_y is None:
                    u[y] = su
                    orbit.append(y)
                    tested.append(0)
                    if len(orbit) > limit:
                        return None
                elif su != u_y:
                    drop, h = _sift(levels, i, su, ident)
                    if drop is not None:
                        tested[a] = k + 1
                        break
            else:
                tested[a] = ng
                continue
            break
        order = others * len(orbit)
        if drop is None:
            i -= 1
        else:
            if drop == len(levels):
                levels.append(_chain_level(h, [], ident))
            h += _IDENTITY_PERM[m:]
            for level in levels[i + 1:drop + 1]:
                level[1].append(h)
            i = drop
    return order


def _chain_level(h: bytes, gens: list[bytes], ident: bytes) -> tuple:
    """A level based at the least point h moves: (b, S, orbit [b], pairs
    tested per orbit point, u_a by point a, the table of u_a^-1 by point a,
    filled when first read); ident is the identity on the m points."""
    base = 0
    while h[base] == base:
        base += 1
    u: list[bytes | None] = [None] * len(ident)
    u[base] = ident
    return base, gens, [base], [0], u, [None] * len(ident)


def _sift(levels: list[tuple], i: int, h: bytes,
          ident: bytes) -> tuple[int | None, bytes]:
    """Strip h through levels i.. of the chain: (None, h) when it sifts to
    the identity, else (its drop level, the residue)."""
    for j in range(i, len(levels)):
        base, _, _, _, u, u_inv = levels[j]
        a = h[base]
        t = u_inv[a]
        if t is None:
            if u[a] is None:
                return j, h
            t = u_inv[a] = bytes.maketrans(u[a], ident)
        h = h.translate(t)
    return (None, h) if h == ident else (len(levels), h)


def _generalized_cartan_rows(cartan) -> list[list[int]]:
    """The matrix as lists of ints; LatticeError unless it is square with
    diagonal 2, off-diagonal entries <= 0 and a_ij = 0 exactly when a_ji = 0."""
    rows = _int_rows(cartan)
    for i, row in enumerate(rows):
        for j, a in enumerate(row):
            if a != 2 if i == j else a > 0 or (a == 0) != (rows[j][i] == 0):
                raise LatticeError(f"not a generalized Cartan matrix at ({i},{j})")
    return rows


def _peripheral_node(rows: list[list[int]]) -> int:
    """A node with the largest total diagram distance to the nodes it reaches;
    the lowest index among ties.  In a tree this is a leaf, the end of the
    longest arm for E_n and D_n."""
    r = len(rows)

    def total_distance(i: int) -> int:
        dist = {i: 0}
        frontier = [i]
        while frontier:
            next_frontier = []
            for a in frontier:
                for b in range(r):
                    if rows[a][b] and b not in dist:
                        dist[b] = dist[a] + 1
                        next_frontier.append(b)
            frontier = next_frontier
        return sum(dist.values())

    return max(range(r), key=total_distance)


def _fundamental_orbit_size(rows: list[list[int]], i: int, cap: int) -> int | None:
    """Size of the orbit of omega_i, in fundamental-weight coordinates; None
    when it passes `cap` points.

    s_j(lam) = lam - lam_j * alpha_j with alpha_j = row j.  Every orbit point
    is reached from the dominant omega_i by steps with lam_j > 0 (each lowers
    the weight), so only those steps are taken.
    """
    start = tuple(int(k == i) for k in range(len(rows)))
    seen = {start}
    frontier = [start]
    while frontier:
        next_frontier = []
        for lam in frontier:
            for j, lam_j in enumerate(lam):
                if lam_j > 0:
                    mu = tuple([a - lam_j * b for a, b in zip(lam, rows[j])])
                    if mu not in seen:
                        if len(seen) >= cap:
                            return None
                        seen.add(mu)
                        next_frontier.append(mu)
        frontier = next_frontier
    return len(seen)


def weyl_group_order(cartan, cap: int = 10 ** 6) -> int | None:
    """Order of the Weyl group of a (generalized) Cartan matrix; None once an
    orbit passes `cap` points, as for an infinite group.

    Orbit-stabilizer on fundamental weights: the stabilizer of omega_i is the
    parabolic subgroup W_J, J the diagram without node i, so
    |W| = |W.omega_i| * |W_J|, and the count recurses on the Cartan submatrix
    of J (Humphreys, Reflection Groups and Coxeter Groups, 1990, 1.12 and 5.13;
    Bourbaki, Lie Groups ch. VI, plates).  Node i is `_peripheral_node`, which
    keeps the orbits small whatever the node labels: E8 counts 240 roots first
    instead of up to 483,840 weights from its branch node.  Plain Python ints,
    so no entry wraps; LatticeError on a matrix that is not a generalized
    Cartan matrix or a cap that is not an integer.
    """
    cap = _integer(cap, "cap")
    rows = _generalized_cartan_rows(cartan)
    order = 1
    while rows:
        i = _peripheral_node(rows)
        size = _fundamental_orbit_size(rows, i, cap)
        if size is None:
            return None
        order *= size
        rows = [row[:i] + row[i + 1:] for k, row in enumerate(rows) if k != i]
    return order


def coxeter_element_order(generators: Sequence) -> int:
    """Order of the product of all generators in the listed order: the lcm of
    the cycle lengths of its table, composed rightmost generator first from
    `_root_permutations`, whose LatticeErrors it raises."""
    tables, m = _root_permutations(generators)
    return lcm(*_cycle_lengths(reduce(bytes.translate, reversed(tables), _IDENTITY_PERM), m))


# ---------------------------------------------------------------------------
# Diagram foldings
# ---------------------------------------------------------------------------

def _validate_automorphism(cartan: list[list[int]], perm: Sequence[int]) -> tuple[int, ...]:
    r = len(cartan)
    try:
        p = tuple(map(operator.index, perm))
    except TypeError:
        raise FoldingError(f"{perm!r} is not a permutation of 0..{r - 1}") from None
    if sorted(p) != list(range(r)):
        raise FoldingError(f"{p} is not a permutation of 0..{r - 1}")
    for i in range(r):
        for j in range(r):
            if cartan[p[i]][p[j]] != cartan[i][j]:
                raise FoldingError(
                    f"permutation breaks the diagram at edge ({i}, {j})")
    return p


def _orbits(r: int, perms: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Orbits of the group the permutations generate on 0..r-1, each sorted,
    in the order of their smallest node."""
    placed: set[int] = set()
    orbits = []
    for i in range(r):
        if i not in placed:
            orbit = [i]
            for a in orbit:  # the list grows while it is read
                for p in perms:
                    if p[a] not in orbit:
                        orbit.append(p[a])
            placed.update(orbit)
            orbits.append(tuple(sorted(orbit)))
    return orbits


@dataclass(frozen=True)
class FoldingDatum:
    """A simply-laced diagram folded along a group of diagram automorphisms."""

    source: CoxeterDatum
    automorphisms: tuple[tuple[int, ...], ...]
    orbits: tuple[tuple[int, ...], ...]
    folded: CoxeterDatum
    group_order: int
    group_abelian: bool


def permutation_matrix(perm: Sequence[int]) -> list[list[int]]:
    """The matrix sending e_i to e_perm[i]."""
    return [[int(p == a) for p in perm] for a in range(len(perm))]


def fold(label: str, automorphisms: Sequence[Sequence[int]]) -> FoldingDatum:
    """Fold the simply-laced type `label` by the group the automorphisms generate.

    Folded Cartan entry for orbits O, O': sum over i in O of C[i, j] for any
    fixed j in O' (the orbit-sum coroot pairing), and orbits containing
    adjacent nodes are rejected.  The sum does not depend on j: the orbits
    are those of the group the validated automorphisms generate, and each
    element g of it fixes C and maps O onto itself, so the sum at g(j) is
    the sum at j.
    """
    datum = CoxeterDatum.for_type(label)
    if not datum.is_simply_laced():
        raise FoldingError(f"can only fold simply-laced types, not {datum.label}")
    c = datum.cartan
    perms = tuple(_validate_automorphism(c, p) for p in automorphisms)
    orbits = tuple(_orbits(datum.rank, perms))
    for orbit in orbits:
        for i, j in permutations(orbit, 2):
            if c[i][j] != 0:
                raise FoldingError(f"orbit {orbit} contains adjacent nodes {i}, {j}")
    folded = [[sum(c[i][ob[0]] for i in oa) for ob in orbits] for oa in orbits]
    target = identify_type(folded)
    if target is None:
        raise FoldingError("folded Cartan matrix is not of finite type")
    folded_datum = CoxeterDatum(target, folded, coxeter_matrix_from_cartan(folded))
    order = group_order_bfs([permutation_matrix(p) for p in perms])
    if order is None:
        raise FoldingError("automorphism group is unexpectedly large")
    abelian = all(x[y[i]] == y[x[i]] for x in perms for y in perms for i in range(len(x)))
    return FoldingDatum(datum, perms, orbits, folded_datum, order, abelian)


def group_name(order: int, abelian: bool) -> str:
    """Name of a diagram-automorphism group from its order and commutativity."""
    if order == 6 and not abelian:
        return "S3"
    return {1: "trivial", 2: "Z/2", 3: "Z/3"}.get(
        order, f"order-{order} {'abelian' if abelian else 'nonabelian'}")


def quotient_rank_check(folding: FoldingDatum) -> bool:
    """Folded rank equals the orbit count and the group preserves S = -Cartan:
    P^T S P = S for each permutation matrix P, that is S[p_i][p_j] = S[i][j]."""
    c = folding.source.cartan
    return folding.folded.rank == len(folding.orbits) and all(
        c[p[i]][p[j]] == c[i][j] for p in folding.automorphisms for i, j in product(p, p))


def standard_automorphisms(label: str, name: str) -> list[tuple[int, ...]]:
    """Named automorphism generators: 'identity', 'flip', 'triality', 'full'.
    The rank is read off the label's Cartan rows, which refuse a bad label."""
    r = len(_cartan_rows(label))
    if name == "identity":
        return [tuple(range(r))]
    if name == "flip":
        if label.startswith("A"):
            return [tuple(r - 1 - i for i in range(r))]
        if label == "D4":
            return [(0, 1, 3, 2)]  # swap the two fork nodes
        if label == "E6":
            return [(5, 1, 4, 3, 2, 0)]
        raise FoldingError(f"no named flip for {label}")
    if label == "D4" and name == "triality":
        return [(2, 1, 3, 0)]  # 3-cycle on the outer nodes 0, 2, 3
    if label == "D4" and name == "full":
        return [(2, 1, 0, 3), (2, 1, 3, 0)]  # a transposition and a 3-cycle
    raise FoldingError(f"no automorphism named '{name}' for {label}")
