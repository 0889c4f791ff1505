"""Intersection lattices, Picard-Lefschetz reflections, Coxeter groups, folding.

Matrices are numpy int64 arrays; all arithmetic is exact integer work.  The
reflection in the i-th vanishing class delta_i of an even lattice with
self-intersection -2 is a |-> a + (a . delta_i) delta_i; on the root-lattice
model (S = -Cartan for simply-laced types) these coincide with the Weyl
generators s_i(e_j) = e_j - C_ji e_i.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class LatticeError(ValueError):
    """Invalid lattice data or an unsupported reflection request."""


class FoldingError(ValueError):
    """The permutations are not diagram automorphisms or the fold is invalid."""


def _as_int_matrix(rows) -> np.ndarray:
    m = np.array(rows, dtype=np.int64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise LatticeError("expected a square integer matrix")
    return m


# ---------------------------------------------------------------------------
# Cartan and Coxeter data
# ---------------------------------------------------------------------------

_TYPE_RE = re.compile(r"^([A-G])(\d+)$")

# CLI-facing whitelist; the library constructors accept more ranks.
SUPPORTED_TYPES = tuple(
    [f"A{r}" for r in range(1, 9)] + ["B2", "B3", "B4", "C3", "D4", "E6", "F4", "G2"])


def _chain_edges(r: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(r - 1)]


def cartan_matrix(label: str) -> np.ndarray:
    """Cartan matrix of a finite type label like 'A3', 'B2', 'E6', 'G2'."""
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
    c = 2 * np.eye(rank, dtype=np.int64)
    for i, j, aij, aji in edges:
        c[i, j] = aij
        c[j, i] = aji
    return c


_BOND_TO_M = {0: 2, 1: 3, 2: 4, 3: 6}


def coxeter_matrix_from_cartan(cartan: np.ndarray) -> np.ndarray:
    """m_ij from the products a_ij * a_ji (0,1,2,3 -> 2,3,4,6)."""
    c = _as_int_matrix(cartan)
    r = c.shape[0]
    m = np.ones((r, r), dtype=np.int64)
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            prod = int(c[i, j] * c[j, i])
            if prod not in _BOND_TO_M:
                raise LatticeError(f"bond product {prod} at ({i},{j}) is not finite type")
            m[i, j] = _BOND_TO_M[prod]
    return m


@dataclass(frozen=True)
class CoxeterDatum:
    """A type label with its Cartan and Coxeter matrices."""

    label: str
    cartan: np.ndarray
    coxeter: np.ndarray

    @classmethod
    def for_type(cls, label: str) -> "CoxeterDatum":
        c = cartan_matrix(label)
        return cls(label, c, coxeter_matrix_from_cartan(c))

    @property
    def rank(self) -> int:
        return int(self.cartan.shape[0])

    def is_simply_laced(self) -> bool:
        return bool(np.array_equal(self.cartan, self.cartan.T))


def identify_type(cartan: np.ndarray) -> str | None:
    """Match a Cartan matrix against the finite types up to node permutation.

    Rank 2 with a double bond reports 'C2' (equal to B2 up to relabeling).
    """
    from itertools import permutations

    c = _as_int_matrix(cartan)
    r = c.shape[0]
    candidates: list[str] = [f"A{r}"]
    if r >= 4:
        candidates.append(f"D{r}")
    if r in (6, 7, 8):
        candidates.append(f"E{r}")
    if r == 4:
        candidates.append("F4")
    if r == 2:
        candidates.append("G2")
    if r >= 2:
        candidates.append(f"C{r}")
        if r >= 3:
            candidates.append(f"B{r}")
    for label in candidates:
        try:
            target = cartan_matrix(label)
        except LatticeError:
            continue
        for perm in permutations(range(r)):
            p = list(perm)
            if np.array_equal(c[np.ix_(p, p)], target):
                return label
    return None


# ---------------------------------------------------------------------------
# Intersection lattices and Picard-Lefschetz data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntersectionLattice:
    """Free Z-module with a symmetric integer pairing."""

    form: np.ndarray

    def __post_init__(self):
        form = _as_int_matrix(self.form)
        object.__setattr__(self, "form", form)
        if not np.array_equal(form, form.T):
            raise LatticeError("intersection form must be symmetric")

    @property
    def rank(self) -> int:
        return int(self.form.shape[0])

    @classmethod
    def root_lattice(cls, label: str) -> "IntersectionLattice":
        """Vanishing-cycle lattice of a simply-laced type: S = -Cartan."""
        datum = CoxeterDatum.for_type(label)
        if not datum.is_simply_laced():
            raise LatticeError(f"root lattice model needs a simply-laced type, not {label}")
        return cls(-datum.cartan)


def pl_reflection(lattice: IntersectionLattice, i: int) -> np.ndarray:
    """Matrix of a |-> a + (a . delta_i) delta_i in the basis delta_1..delta_r.

    Requires (delta_i . delta_i) = -2; the map is then an involution
    preserving the form.
    """
    s = lattice.form
    r = lattice.rank
    if not 0 <= i < r:
        raise LatticeError(f"reflection index {i} out of range 0..{r - 1}")
    if s[i, i] != -2:
        raise LatticeError(
            f"self-intersection {int(s[i, i])} != -2: reflection formula not applicable")
    h = np.eye(r, dtype=np.int64)
    h[i, :] += s[i, :]
    return h


def variation_matrix(lattice: IntersectionLattice) -> np.ndarray:
    """Lower-triangular W with W_ii = -1, W_ij = S_ij (i > j); then S = W + W^T."""
    s = lattice.form
    if np.any(np.diag(s) != -2):
        raise LatticeError("variation matrix needs an even form with diagonal -2")
    r = lattice.rank
    w = np.zeros((r, r), dtype=np.int64)
    for i in range(r):
        w[i, i] = -1
        for j in range(i):
            w[i, j] = s[i, j]
    return w


def weyl_generators(datum: CoxeterDatum) -> list[np.ndarray]:
    """Reflection representation on the root lattice: s_i(e_j) = e_j - C_ji e_i."""
    c = datum.cartan
    r = datum.rank
    gens = []
    for i in range(r):
        m = np.eye(r, dtype=np.int64)
        m[i, :] -= c[:, i]
        gens.append(m)
    return gens


def braid_relation_check(generators: Sequence[np.ndarray],
                         coxeter: np.ndarray) -> tuple[bool, tuple[int, int] | None]:
    """Check each generator is an involution and the alternating products of
    length m_ij agree for every pair; a generator i that does not square to
    the identity is reported as the witness (i, i)."""
    for i, g in enumerate(generators):
        if not np.array_equal(g @ g, np.eye(*g.shape, dtype=np.int64)):
            return False, (i, i)
    n = len(generators)
    for i in range(n):
        for j in range(i + 1, n):
            m = int(coxeter[i, j])
            left = np.eye(*generators[0].shape, dtype=np.int64)
            right = left.copy()
            for k in range(m):
                left = left @ (generators[i] if k % 2 == 0 else generators[j])
                right = right @ (generators[j] if k % 2 == 0 else generators[i])
            if not np.array_equal(left, right):
                return False, (i, j)
    return True, None


def group_order_bfs(generators: Sequence[np.ndarray],
                    cap: int = 10 ** 6) -> int | None:
    """Order of the matrix group generated; None when the cap is exceeded.

    Level-synchronous breadth-first closure, deterministic.
    """
    if not generators:
        return 1
    shape = generators[0].shape
    identity = np.eye(shape[0], dtype=np.int64)
    seen = {identity.tobytes()}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for m in frontier:
            for g in generators:
                prod = m @ g
                key = prod.tobytes()
                if key not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(key)
                    next_frontier.append(prod)
        frontier = next_frontier
    return len(seen)


def coxeter_element_order(generators: Sequence[np.ndarray], cap: int = 10 ** 4) -> int:
    """Order of the product of all generators in the listed order."""
    c = generators[0]
    for g in generators[1:]:
        c = c @ g
    identity = np.eye(c.shape[0], dtype=np.int64)
    power = c.copy()
    for k in range(1, cap + 1):
        if np.array_equal(power, identity):
            return k
        power = power @ c
    raise LatticeError("element order exceeds the iteration cap")


# ---------------------------------------------------------------------------
# Diagram foldings
# ---------------------------------------------------------------------------

def _validate_automorphism(cartan: np.ndarray, perm: Sequence[int]) -> tuple[int, ...]:
    r = cartan.shape[0]
    p = tuple(int(x) for x in perm)
    if sorted(p) != list(range(r)):
        raise FoldingError(f"{p} is not a permutation of 0..{r - 1}")
    for i in range(r):
        for j in range(r):
            if cartan[p[i], p[j]] != cartan[i, j]:
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


def permutation_matrix(perm: Sequence[int]) -> np.ndarray:
    r = len(perm)
    m = np.zeros((r, r), dtype=np.int64)
    for i, pi in enumerate(perm):
        m[pi, i] = 1
    return m


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
                if i != j and c[i, j] != 0:
                    raise FoldingError(
                        f"orbit {orbit} contains adjacent nodes {i}, {j}")
    k = len(orbits)
    folded = np.zeros((k, k), dtype=np.int64)
    for a, oa in enumerate(orbits):
        for b, ob in enumerate(orbits):
            values = {int(sum(c[i, j] for i in oa)) for j in ob}
            if len(values) != 1:
                raise FoldingError(
                    f"orbit pairing between {oa} and {ob} is not well-defined")
            folded[a, b] = values.pop()
    label = identify_type(folded)
    if label is None:
        raise FoldingError("folded Cartan matrix is not of finite type")
    folded_datum = CoxeterDatum(label, folded, coxeter_matrix_from_cartan(folded))
    mats = [permutation_matrix(p) for p in perms] or [np.eye(datum.rank, dtype=np.int64)]
    order = group_order_bfs(mats, cap=10 ** 5)
    if order is None:
        raise FoldingError("automorphism group is unexpectedly large")
    abelian = all(np.array_equal(x @ y, y @ x) for x in mats for y in mats)
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
    s = -folding.source.cartan
    for p in folding.automorphisms:
        mat = permutation_matrix(p)
        if not np.array_equal(mat.T @ s @ mat, s):
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
