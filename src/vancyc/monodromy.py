"""Intersection lattices, Picard-Lefschetz reflections, Coxeter groups, folding.

Every matrix is a list of rows of Python ints: Cartan and Coxeter data,
intersection forms, reflections, variation matrices and foldings.  Inputs
(nested lists or integer numpy arrays) go through `_int_rows`, and every
product is a sum of Python ints, so no entry can wrap.  The only numpy array
is the return value of `cartan_matrix`, the one place that imports numpy.
The reflection in the i-th vanishing class delta_i of an even lattice with
self-intersection -2 is a |-> a + (a . delta_i) delta_i; on the root-lattice
model (S = -Cartan for simply-laced types) these coincide with the Weyl
generators s_i(e_j) = e_j - C_ji e_i.

Two independent group orders, neither of which lists the elements:
`group_order_bfs` closes the unit columns under the generators (the roots,
for a Weyl group), then counts the permutation group they induce on the
column ids by a Schreier-Sims stabilizer chain, and `weyl_group_order`
counts a Weyl group by orbit-stabilizer on fundamental weights.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from .poly import rational_rank


class LatticeError(ValueError):
    """Invalid lattice data or an unsupported reflection request."""


class FoldingError(ValueError):
    """The permutations are not diagram automorphisms or the fold is invalid."""


# ---------------------------------------------------------------------------
# Cartan and Coxeter data
# ---------------------------------------------------------------------------

_TYPE_RE = re.compile(r"^([A-G])(\d+)$")

# The types whose groups group_order_bfs counts at its default cap: the
# benchmark's `reflection` workload builds its type list from this tuple.
# Their roots, the columns it closes first, fit its 256 column ids (E6 has
# 72).  E7 and E8 (126 and 240 roots) fit too and cost milliseconds; they stay
# out only because their orders pass the default 10**6-element cap.
# `vancyc coxeter` accepts every type up to rank 8, E7 and E8 included.
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
    m = _TYPE_RE.match(label)
    if not m:
        raise LatticeError(f"unrecognized type label '{label}'")
    letter, rank = m.group(1), int(m.group(2))
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
    node is matched."""
    k = len(p)
    if k == len(c):
        return True
    for i in range(len(c)):
        if i not in p and c[i][i] == target[k][k] and all(
                c[i][pm] == target[k][m] and c[pm][i] == target[m][k]
                for m, pm in enumerate(p)):
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

    @classmethod
    def root_lattice(cls, label: str) -> "IntersectionLattice":
        """Vanishing-cycle lattice of a simply-laced type: S = -Cartan."""
        datum = CoxeterDatum.for_type(label)
        if not datum.is_simply_laced():
            raise LatticeError(f"root lattice model needs a simply-laced type, not {label}")
        return cls([[-a for a in row] for row in datum.cartan])


def pl_reflection(lattice: IntersectionLattice, i: int) -> list[list[int]]:
    """Matrix of a |-> a + (a . delta_i) delta_i in the basis delta_1..delta_r.

    Requires (delta_i . delta_i) = -2; the map is then an involution
    preserving the form.
    """
    s = lattice.form
    r = lattice.rank
    if not 0 <= i < r:
        raise LatticeError(f"reflection index {i} out of range 0..{r - 1}")
    if s[i][i] != -2:
        raise LatticeError(
            f"self-intersection {s[i][i]} != -2: reflection formula not applicable")
    h = _identity(r)
    h[i] = [a + b for a, b in zip(h[i], s[i])]
    return h


def variation_matrix(lattice: IntersectionLattice) -> list[list[int]]:
    """Lower-triangular W with W_ii = -1, W_ij = S_ij (i > j); then S = W + W^T."""
    s = lattice.form
    r = lattice.rank
    if any(s[i][i] != -2 for i in range(r)):
        raise LatticeError("variation matrix needs an even form with diagonal -2")
    return [s[i][:i] + [-1] + [0] * (r - i - 1) for i in range(r)]


def weyl_generators(datum: CoxeterDatum) -> list[list[list[int]]]:
    """Reflection representation on the root lattice: s_i(e_j) = e_j - C_ji e_i."""
    c = datum.cartan
    r = datum.rank
    gens = []
    for i in range(r):
        m = _identity(r)
        m[i] = [a - row[i] for a, row in zip(m[i], c)]
        gens.append(m)
    return gens


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


def _int_generators(generators) -> list[list[list[int]]]:
    """Each generator through `_int_rows`; LatticeError unless all have one size."""
    mats = [_int_rows(g) for g in generators]
    if len({len(m) for m in mats}) > 1:
        raise LatticeError("generators must be square matrices of one common size")
    return mats


def _identity(n: int, diagonal: int = 1) -> list[list[int]]:
    return [[diagonal if i == j else 0 for j in range(n)] for i in range(n)]


def _transpose(m: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*m)]


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Exact product of two integer matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def braid_relation_check(generators: Sequence,
                         coxeter) -> tuple[bool, tuple[int, int] | None]:
    """Check each generator is an involution and each product s_i s_j has
    order exactly m_ij; the first failing generator i is reported as the
    witness (i, i), and the first failing pair as (i, j).  LatticeError for
    an m_ij below 1.  Exact in Python ints.

    For involutions, the alternating words s_i s_j s_i ... and s_j s_i s_j
    ... of length k agree exactly when (s_i s_j)^k = 1.  So both words grow
    one factor at a time: a pair fails when they agree at some k < m_ij, or
    still differ at k = m_ij.  That takes 2(m_ij - 1) products per pair.
    """
    mats = _int_generators(generators)
    if not mats:
        return True, None
    identity = _identity(len(mats[0]))
    for i, g in enumerate(mats):
        if _matmul(g, g) != identity:
            return False, (i, i)
    n = len(mats)
    for i in range(n):
        for j in range(i + 1, n):
            m = int(coxeter[i][j])
            if m < 1:
                raise LatticeError(f"coxeter[{i}][{j}] = {m} is not a positive order")
            a, b = mats[i], mats[j]
            u, v = a, b  # the words of length k = 1
            for k in range(1, m):
                if u == v:
                    return False, (i, j)
                u, v = _matmul(u, (a, b)[k % 2]), _matmul(v, (b, a)[k % 2])
            if u != v:
                return False, (i, j)
    return True, None


_COLUMN_IDS = 256  # one byte per column id
_IDENTITY_PERM = bytes(range(_COLUMN_IDS))


def _column_tables(mats: list[list[list[int]]]) -> list[list[int]] | None:
    """The closure of the unit columns under the matrices, as one table per
    matrix from a column id to the id of g.column; None at a 257th column.

    Column a of g.m is g.(column a of m), so these are the columns of every
    element of the monoid the matrices generate (the roots, for
    `weyl_generators`).  Ids follow the order of discovery, e_k first as id k,
    so a matrix of size past 256 is None too.
    """
    n = len(mats[0])
    if n > _COLUMN_IDS:
        return None
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
                if k_image == _COLUMN_IDS:
                    return None
                cols.append(image)
            table.append(k_image)
    return tables


def group_order_bfs(generators: Sequence, cap: int = 10 ** 6) -> int | None:
    """Order of the matrix group generated; None when it has more than `cap`
    elements or when its elements have more than 256 distinct columns between
    them; LatticeError for a singular generator, whatever its entries.

    Two phases, deterministic, exact in Python ints; no element is listed.
    The first is `_column_tables`, which ends an infinite group at its 257th
    column.  An element is fixed by the ids of its images of the unit
    columns, so the group acts faithfully on the column ids, each generator
    as its table.  A table that is not a permutation of the ids is a singular
    generator, since the columns span Q^n.  When the columns do not fit, so
    that no table is read, each generator's rank is found instead by exact
    elimination (`poly.rational_rank`).  The second phase counts the
    permutation group by `_stabilizer_chain_order`.
    """
    mats = _int_generators(generators)
    if not mats:
        return 1
    tables = _column_tables(mats)
    if tables is None:
        n = len(mats[0])
        for k, g in enumerate(mats):
            rank = rational_rank(g)
            if rank < n:
                raise LatticeError(f"singular generator {k}: its rank is {rank} < {n}")
        return None
    m = len(tables[0])
    fixed = _IDENTITY_PERM[m:]
    translations = []
    for k, table in enumerate(tables):
        if len(set(table)) < m:
            raise LatticeError(
                f"singular generator {k}: it maps two columns to one column")
        translations.append(bytes(table) + fixed)
    return _stabilizer_chain_order(translations, m, cap)


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
    Cartan matrix.
    """
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


def coxeter_element_order(generators: Sequence, cap: int = 10 ** 4) -> int:
    """Order of the product of all generators in the listed order, in
    Python ints; LatticeError once it passes `cap`."""
    mats = _int_generators(generators)
    if not mats:
        return 1
    c = mats[0]
    for g in mats[1:]:
        c = _matmul(c, g)
    identity = _identity(len(c))
    power = c
    for k in range(1, cap + 1):
        if power == identity:
            return k
        power = _matmul(power, c)
    raise LatticeError("element order exceeds the iteration cap")


# ---------------------------------------------------------------------------
# Diagram foldings
# ---------------------------------------------------------------------------

def _validate_automorphism(cartan: list[list[int]], perm: Sequence[int]) -> tuple[int, ...]:
    r = len(cartan)
    p = tuple(int(x) for x in perm)
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
    group_name: str


def permutation_matrix(perm: Sequence[int]) -> list[list[int]]:
    """The matrix sending e_i to e_perm[i]."""
    return [[int(p == a) for p in perm] for a in range(len(perm))]


def fold(source: CoxeterDatum | str,
         automorphisms: Sequence[Sequence[int]]) -> FoldingDatum:
    """Fold a simply-laced diagram by the group its automorphisms generate.

    Folded Cartan entry for orbits O, O': sum over i in O of C[i, j] for any
    fixed j in O' (the orbit-sum coroot pairing), and orbits containing
    adjacent nodes are rejected.  The sum does not depend on j: the orbits
    are those of the group the validated automorphisms generate, and each
    element g of it fixes C and maps O onto itself, so the sum at g(j) is
    the sum at j.
    """
    datum = CoxeterDatum.for_type(source) if isinstance(source, str) else source
    if not datum.is_simply_laced():
        raise FoldingError(f"can only fold simply-laced types, not {datum.label}")
    c = datum.cartan
    perms = tuple(_validate_automorphism(c, p) for p in automorphisms)
    orbits = tuple(_orbits(datum.rank, perms))
    for orbit in orbits:
        for i in orbit:
            for j in orbit:
                if i != j and c[i][j] != 0:
                    raise FoldingError(
                        f"orbit {orbit} contains adjacent nodes {i}, {j}")
    k = len(orbits)
    folded = [[0] * k for _ in range(k)]
    for a, oa in enumerate(orbits):
        for b, ob in enumerate(orbits):
            folded[a][b] = sum(c[i][ob[0]] for i in oa)
    label = identify_type(folded)
    if label is None:
        raise FoldingError("folded Cartan matrix is not of finite type")
    folded_datum = CoxeterDatum(label, folded, coxeter_matrix_from_cartan(folded))
    mats = [permutation_matrix(p) for p in perms] or [_identity(datum.rank)]
    order = group_order_bfs(mats, cap=10 ** 5)
    if order is None:
        raise FoldingError("automorphism group is unexpectedly large")
    abelian = all(_matmul(x, y) == _matmul(y, x) for x in mats for y in mats)
    return FoldingDatum(datum, perms, orbits, folded_datum, order, abelian,
                        group_name(order, abelian))


def group_name(order: int, abelian: bool) -> str:
    """Name of a diagram-automorphism group from its order and commutativity."""
    if order == 6 and not abelian:
        return "S3"
    return {1: "trivial", 2: "Z/2", 3: "Z/3"}.get(
        order, f"order-{order} {'abelian' if abelian else 'nonabelian'}")


def quotient_rank_check(folding: FoldingDatum) -> bool:
    """Folded rank equals the orbit count and the group preserves S = -Cartan."""
    if folding.folded.rank != len(folding.orbits):
        return False
    s = [[-a for a in row] for row in folding.source.cartan]
    for p in folding.automorphisms:
        mat = permutation_matrix(p)
        if _matmul(_matmul(_transpose(mat), s), mat) != s:
            return False
    return True


def standard_automorphisms(label: str, name: str) -> list[tuple[int, ...]]:
    """Named automorphism generators: 'identity', 'flip', 'triality', 'full'."""
    datum = CoxeterDatum.for_type(label)
    r = datum.rank
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
