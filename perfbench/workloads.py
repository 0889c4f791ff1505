"""Seeded inputs, expected values and item lists of the four workloads.

Every expected value comes from a closed form or a table kept in this file,
never from the program's own golden tables: C(n, 1) = n hyperplanes for the
action-coordinate germs, the Milnor numbers of the ADE and Brieskorn-Pham
normal forms, |W| and the Coxeter number h as the product and the maximum of
the degrees of the basic invariants, and the standard foldings.

A seed varies the inputs only through a symmetry that every step of the
computation commutes with: a sign change of variables or target
coordinates (it preserves every monomial order, so a Groebner basis run
performs the same steps on coefficients of equal size) and a relabelling of
Dynkin diagram nodes (the group and every orbit keep their size).  The base
inputs are drawn once from a fixed stream.  A seed therefore changes what
the program receives but not how much work it does, which keeps the spread
of run times across seeds down to the noise of the machine.

Items call the program through module attributes (``singularity.discriminant``)
at run time, so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from pathlib import Path
from typing import Any, Callable

from vancyc import cli, germfile, groebner, monodromy, poly, singularity

WORKLOADS = ("paper-suite", "elimination", "milnor", "reflection")

# The base inputs come from this fixed stream; the --seed only picks signs
# and relabellings (see the module docstring).
CATALOGUE_SEED = 20051115

GERMS_DIR = Path(__file__).resolve().parents[1] / "germs"


@dataclass(frozen=True)
class Item:
    """One timed call into the program and the value it must return.

    ``expected`` may be a dict, in which case each key is one outcome of the
    call (the paper-suite item reports twelve CHECK lines and an exit code).
    """

    name: str
    run: Callable[[], Any]
    expected: Any
    spec: str = ""  # the generated input, for the environment stamp and tests


# ---------------------------------------------------------------------------
# paper-suite: the command users run; no seeded input
# ---------------------------------------------------------------------------

SUITE_CHECKS = ("involutivity", "discriminant-basic", "discriminant-al6",
                "arnold-liouville-binomial", "henon-heiles", "milnor-baseline",
                "braid-relations", "weyl-orders", "picard-lefschetz",
                "variation-matrix", "folding-groups", "steinberg-suite")


def _run_paper_suite() -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["paper-suite"])
    got = {"exit": code}
    for line in out.getvalue().splitlines():
        fields = line.split()
        if fields[:1] == ["CHECK"] and len(fields) >= 3:
            got[fields[1]] = fields[2]
    return got


def paper_suite_items(seed: int) -> list[Item]:
    expected = {"exit": 0, **{name: "pass" for name in SUITE_CHECKS}}
    return [Item("paper-suite", _run_paper_suite, expected, "vancyc paper-suite")]


# ---------------------------------------------------------------------------
# elimination: few, long block-order Groebner bases
# ---------------------------------------------------------------------------

AL_SIZES = tuple(range(3, 9))
AL_ENTRY = 3
STRETCH_PAIRS = 20_000

# Expected discriminant of each bundled germ file, from the worked examples.
GERM_EXPECTED = {
    "al6.germ": "mult=3",
    "basic.germ": "mult=1",
    "canonical_pair.germ": "empty",
    "fold.germ": "reduced=s1",
    # The given curve s2*(s2^3-s1^4) matches the eliminated one only after
    # rescaling s2 by a real cube root, so it is not in the radical.
    "henon_heiles.germ": "mult=4;given-in-radical=False",
}
HENON_HEILES_GIVEN = "s2*(s2^3-s1^4)"


def _is_generic_2xn(R: list[list[int]]) -> bool:
    """No zero column and no two proportional columns (every 2x2 minor != 0)."""
    n = len(R[0])
    if any(R[0][j] == 0 and R[1][j] == 0 for j in range(n)):
        return False
    return all(R[0][i] * R[1][j] != R[0][j] * R[1][i]
               for i in range(n) for j in range(i + 1, n))


def al_base_matrices() -> dict[int, list[list[int]]]:
    """Generic 2 x n integer matrices, entries in [-3, 3], from the catalogue."""
    rng = random.Random(f"{CATALOGUE_SEED}-elimination")
    out = {}
    for n in range(1, max(AL_SIZES) + 1):
        while True:
            R = [[rng.randint(-AL_ENTRY, AL_ENTRY) for _ in range(n)] for _ in range(2)]
            if _is_generic_2xn(R):
                break
        if n in AL_SIZES:
            out[n] = R
    return out


def al_matrices(seed: int) -> dict[int, list[list[int]]]:
    """Base matrices with seeded signs on rows (s_i -> -s_i) and columns (p_j -> -p_j)."""
    rng = random.Random(f"{seed}-elimination")
    out = {}
    for n, R in al_base_matrices().items():
        rows = [rng.choice((-1, 1)) for _ in range(2)]
        cols = [rng.choice((-1, 1)) for _ in range(n)]
        out[n] = [[rows[i] * cols[j] * R[i][j] for j in range(n)] for i in range(2)]
    return out


def _describe(d) -> str:
    if d.is_empty():
        return "empty"
    if d.k == 2:
        return f"mult={singularity.multiplicity_at_origin(d)}"
    return "reduced=" + poly.format_polynomial(poly.normalized(d.reduced_generator))


def _al_item(n: int, R: list[list[int]]) -> Item:
    germ = singularity.action_coordinates_germ(n, 2, R)
    return Item(f"al-n{n}", lambda: _describe(singularity.discriminant(germ)),
                f"mult={n}", f"R={R}")


def _germ_item(name: str, text: str) -> Item:
    def run():
        germ = germfile.parse_germ_text(text, name).to_map_germ()
        d = singularity.discriminant(germ)
        got = _describe(d)
        if name == "henon_heiles.germ":
            given = poly.parse_polynomial(HENON_HEILES_GIVEN, d.target_vars)
            member = groebner.radical_membership(given, d.ideal, max_pairs=STRETCH_PAIRS)
            got += f";given-in-radical={member}"
        return got
    return Item(f"germ-{name}", run, GERM_EXPECTED[name], name)


def read_germ_texts() -> dict[str, str]:
    """Texts of the bundled germ files, parsed once to check they are valid."""
    texts = {}
    for name in GERM_EXPECTED:
        text = (GERMS_DIR / name).read_text(encoding="utf-8")
        germfile.parse_germ_text(text, name)
        texts[name] = text
    return texts


def elimination_items(seed: int) -> list[Item]:
    items = [_al_item(n, R) for n, R in al_matrices(seed).items()]
    items += [_germ_item(name, text) for name, text in read_germ_texts().items()]
    return items


# ---------------------------------------------------------------------------
# milnor: many short degrevlex bases and standard-monomial counts
# ---------------------------------------------------------------------------

XY = ("x", "y")
XYZ = ("x", "y", "z")
NON_ISOLATED = "non-isolated"
CHANGES_PER_FORM = 2
CHANGE_ENTRY = 2


MAX_K = 10  # A_k for k = 1..MAX_K and D_k for k = 4..MAX_K
BP_FORMS = ((2, 2, 2), (2, 3, 4), (3, 3, 3), (3, 4, 5), (4, 4, 4),
            (3, 5, 7), (4, 5, 6), (5, 5, 5), (5, 6, 7), (6, 7, 8))

# (name, normal form, variables, Milnor number) in Arnold's normal forms.
MILNOR_FORMS = (
    [(f"A{k}", f"x^{k + 1}+y^2", XY, k) for k in range(1, MAX_K + 1)]
    + [(f"D{k}", f"x^2*y+y^{k - 1}", XY, k) for k in range(4, MAX_K + 1)]
    + [("E6", "x^3+y^4", XY, 6), ("E7", "x^3+x*y^3", XY, 7), ("E8", "x^3+y^5", XY, 8)]
    + [(f"BP{a}{b}{c}", f"x^{a}+y^{b}+z^{c}", XYZ, (a - 1) * (b - 1) * (c - 1))
       for a, b, c in BP_FORMS]
    + [("nonisolated-x2y", "x^2*y", XY, NON_ISOLATED),
       ("nonisolated-x2y2", "x^2*y^2", XY, NON_ISOLATED),
       ("nonisolated-x2y+z2", "x^2*y+z^2", XYZ, NON_ISOLATED),
       ("nonisolated-xyz", "x*y*z", XYZ, NON_ISOLATED)]
)


def _det(m: list[list[int]]) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def linear_changes(seed: int) -> list[list[list[int]]]:
    """Invertible integer matrices with entries in [-2, 2], CHANGES_PER_FORM per
    form, from the catalogue, with seeded signs on the columns (x_j -> -x_j)."""
    base_rng = random.Random(f"{CATALOGUE_SEED}-milnor")
    rng = random.Random(f"{seed}-milnor")
    out = []
    for _name, _text, ambient, _mu in MILNOR_FORMS:
        n = len(ambient)
        for _ in range(CHANGES_PER_FORM):
            while True:
                A = [[base_rng.randint(-CHANGE_ENTRY, CHANGE_ENTRY) for _ in range(n)]
                     for _ in range(n)]
                if _det(A):
                    break
            signs = [rng.choice((-1, 1)) for _ in range(n)]
            out.append([[A[i][j] * signs[j] for j in range(n)] for i in range(n)])
    return out


def _changed(text: str, ambient: tuple, A: list[list[int]]):
    """h(A x): the normal form in the coordinates x_i -> sum_j A_ij x_j."""
    h = poly.parse_polynomial(text, ambient)
    gens = [poly.Polynomial.variable(ambient, v) for v in ambient]
    images = {}
    for i, v in enumerate(ambient):
        image = poly.Polynomial.zero(ambient)
        for j, g in enumerate(gens):
            image = image + g.scale(A[i][j])
        images[v] = image
    return h.substitute(images)


def _milnor_or_flag(h) -> Any:
    try:
        return singularity.milnor_number(h)
    except singularity.NonIsolatedSingularityError:
        return NON_ISOLATED


def milnor_items(seed: int) -> list[Item]:
    changes = iter(linear_changes(seed))
    items = []
    for name, text, ambient, mu in MILNOR_FORMS:
        for c in range(CHANGES_PER_FORM):
            A = next(changes)
            h = _changed(text, ambient, A)
            items.append(Item(f"{name}-{c}", lambda h=h: _milnor_or_flag(h), mu,
                              poly.format_polynomial(h)))
    return items


# ---------------------------------------------------------------------------
# reflection: integer group work, no polynomial arithmetic
# ---------------------------------------------------------------------------

# A8 is left out: its breadth-first closure alone takes ~8.5 s and 249 MB,
# longer than the passes a run can afford; A7 and E6 are the large cases.
REFLECTION_TYPES = tuple(t for t in monodromy.SUPPORTED_TYPES if t != "A8")


def invariant_degrees(label: str) -> tuple[int, ...]:
    """Degrees of the basic invariants of the Weyl group (Humphreys 3.7)."""
    letter, r = label[0], int(label[1:])
    if letter == "A":
        return tuple(range(2, r + 2))
    if letter in "BC":
        return tuple(range(2, 2 * r + 1, 2))
    if letter == "D":
        return tuple(sorted([*range(2, 2 * r - 1, 2), r]))
    return {"E6": (2, 5, 6, 8, 9, 12), "F4": (2, 6, 8, 12), "G2": (2, 6)}[label]


def weyl_order(label: str) -> int:
    """|W| is the product of the invariant degrees."""
    return prod(invariant_degrees(label))


def coxeter_number(label: str) -> int:
    """h is the largest invariant degree."""
    return max(invariant_degrees(label))


# (source, automorphisms) -> (folded type, group order, group abelian), in
# this library's labelling: folding A_{2n-1} by its flip gives C_n.
FOLDINGS = {
    ("A3", "flip"): ("C2", 2, True),
    ("A5", "flip"): ("C3", 2, True),
    ("A7", "flip"): ("C4", 2, True),
    ("D4", "flip"): ("B3", 2, True),
    ("D4", "triality"): ("G2", 3, True),
    ("D4", "full"): ("G2", 6, False),
    ("E6", "flip"): ("F4", 2, True),
}


def relabellings(seed: int) -> dict[str, list[int]]:
    rng = random.Random(f"{seed}-reflection")
    out = {}
    for label in REFLECTION_TYPES:
        perm = list(range(int(label[1:])))
        rng.shuffle(perm)
        out[label] = perm
    return out


def relabelled_datum(label: str, perm: list[int]):
    """The Coxeter datum of ``label`` whose node i is the standard node perm[i]."""
    c = monodromy.cartan_matrix(label)
    c = c[perm][:, perm]
    return monodromy.CoxeterDatum(label, c, monodromy.coxeter_matrix_from_cartan(c))


def _fold(label: str, name: str):
    folding = monodromy.fold(label, monodromy.standard_automorphisms(label, name))
    return (folding.folded.label, folding.group_order, folding.group_abelian,
            monodromy.quotient_rank_check(folding))


def reflection_items(seed: int) -> list[Item]:
    items = []
    for label, perm in relabellings(seed).items():
        datum = relabelled_datum(label, perm)
        spec = f"perm={perm}"
        items.append(Item(
            f"order-{label}",
            lambda d=datum: monodromy.group_order_bfs(monodromy.weyl_generators(d)),
            weyl_order(label), spec))
        items.append(Item(
            f"braid-{label}",
            lambda d=datum: monodromy.braid_relation_check(
                monodromy.weyl_generators(d), d.coxeter),
            (True, None), spec))
        items.append(Item(
            f"coxeter-element-{label}",
            lambda d=datum: monodromy.coxeter_element_order(monodromy.weyl_generators(d)),
            coxeter_number(label), spec))
    for label, name in FOLDINGS:
        items.append(Item(f"fold-{label}-{name}", lambda l=label, n=name: _fold(l, n),
                          FOLDINGS[(label, name)] + (True,), f"{label} {name}"))
    return items


BUILDERS = {
    "paper-suite": paper_suite_items,
    "elimination": elimination_items,
    "milnor": milnor_items,
    "reflection": reflection_items,
}


def build_items(workload: str, seed: int) -> list[Item]:
    return BUILDERS[workload](seed)
