"""Intersection lattices, Picard-Lefschetz reflections, Coxeter groups, folding.

Every matrix is a list of rows of Python ints: Cartan and Coxeter data,
intersection forms, reflections, variation matrices and foldings.  Inputs
(nested lists or integer numpy arrays) go through `_int_rows`, and `_matmul`
is the one product, so no entry can wrap.  The only numpy array is the return
value of `cartan_matrix`, the one place that imports numpy.  The reflection
in the i-th vanishing class delta_i of an even lattice with self-intersection
-2 is a |-> a + (a . delta_i) delta_i; on the root-lattice model (S = -Cartan
for simply-laced types) these coincide with the Weyl generators
s_i(e_j) = e_j - C_ji e_i.

Two independent group orders: `group_order_bfs` closes a matrix group element
by element, on interned integer rows, and `weyl_group_order` counts a Weyl
group by orbit-stabilizer on fundamental weights without listing its
elements.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import reduce
from itertools import permutations
from typing import Sequence


class LatticeError(ValueError):
    """Invalid lattice data or an unsupported reflection request."""


class FoldingError(ValueError):
    """The permutations are not diagram automorphisms or the fold is invalid."""


# ---------------------------------------------------------------------------
# Cartan and Coxeter data
# ---------------------------------------------------------------------------

_TYPE_RE = re.compile(r"^([A-G])(\d+)$")

# The types whose groups the breadth-first closure can count: the benchmark's
# `reflection` workload builds its type list from this tuple, and E7 and E8
# stay out because their groups pass group_order_bfs's 10**6-element cap.
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
        for p in permutations(range(r)):
            if [[c[i][j] for j in p] for i in p] == target:
                return label
    return None


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
    """Check each generator is an involution and the alternating products of
    length m_ij agree for every pair; a generator i that does not square to
    the identity is reported as the witness (i, i).  Exact in Python ints."""
    mats = _int_generators(generators)
    if not mats:
        return True, None
    identity = _identity(len(mats[0]))
    for i, g in enumerate(mats):
        if _matmul(g, g) != identity:
            return False, (i, i)

    def alternating(a, b, length):
        factors = [(a, b)[k % 2] for k in range(length)]
        return reduce(_matmul, factors) if factors else identity

    n = len(mats)
    for i in range(n):
        for j in range(i + 1, n):
            m = int(coxeter[i][j])
            if alternating(mats[i], mats[j], m) != alternating(mats[j], mats[i], m):
                return False, (i, j)
    return True, None


def group_order_bfs(generators: Sequence, cap: int = 10 ** 6) -> int | None:
    """Order of the matrix group (the monoid, for singular generators)
    generated; None when it has more than `cap` elements.

    Level-synchronous breadth-first closure, deterministic, in Python ints.
    Every distinct row vector gets an id and an element is the tuple of its
    row ids.  Row a of m.g is (row a of m).g, so one table per generator,
    mapping a row id to the id of row.g, turns a product into a lookup per
    row.  The tables are filled at the start of each level for the rows
    that exist then, never to closure: an infinite group has infinitely
    many rows.
    """
    mats = _int_generators(generators)
    if not mats:
        return 1
    row_ids: dict[tuple[int, ...], int] = {}
    rows: list[tuple[int, ...]] = []

    def intern(row: tuple[int, ...]) -> int:
        rid = row_ids.get(row)
        if rid is None:
            rid = row_ids[row] = len(rows)
            rows.append(row)
        return rid

    identity = tuple(intern(tuple(row)) for row in _identity(len(mats[0])))
    tables: list[list[int]] = [[] for _ in mats]
    seen = {identity}
    frontier = [identity]
    while frontier:
        known = len(rows)
        for table, g in zip(tables, mats):
            for rid in range(len(table), known):
                table.append(intern(tuple(_matmul([rows[rid]], g)[0])))
        lookups = [table.__getitem__ for table in tables]
        next_frontier = []
        for m in frontier:
            for lookup in lookups:
                prod = tuple(map(lookup, m))
                if prod not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(prod)
                    next_frontier.append(prod)
        frontier = next_frontier
    return len(seen)


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
                    mu = tuple(a - lam_j * b for a, b in zip(lam, rows[j]))
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
    parent = list(range(r))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for i in range(r):
            a, b = find(i), find(p[i])
            if a != b:
                parent[max(a, b)] = min(a, b)
    buckets: dict[int, list[int]] = {}
    for i in range(r):
        buckets.setdefault(find(i), []).append(i)
    return [tuple(sorted(v)) for _, v in sorted(buckets.items())]


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
    fixed j in O' (the orbit-sum coroot pairing); independence of j is
    checked, and orbits containing adjacent nodes are rejected.
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
            values = {sum(c[i][j] for i in oa) for j in ob}
            if len(values) != 1:
                raise FoldingError(
                    f"orbit pairing between {oa} and {ob} is not well-defined")
            folded[a][b] = values.pop()
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
