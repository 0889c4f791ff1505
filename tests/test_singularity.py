"""Discriminants, multiplicities, Milnor numbers, and the binomial count law."""

import random
from itertools import combinations
from math import comb

import pytest

from minors import cofactor_minors
from vancyc.germfile import load_germ_file
from vancyc.groebner import ResourceLimitExceeded
from vancyc.poly import (
    PolyError,
    format_polynomial,
    normalized,
    parse_polynomial,
    rational_rank,
    squarefree_part_bivariate,
)
from vancyc.singularity import (
    NonGenericMatrixError,
    NonIsolatedSingularityError,
    action_coordinates_germ,
    al_multiplicity_by_counting,
    critical_ideal,
    discriminant,
    jacobian,
    milnor_number,
    multiplicity_at_origin,
)
from vancyc.groebner import radical_membership
from vancyc.steinberg import _ar_unfolding
from vancyc.suite import AL_MATRICES, basic_germ, henon_heiles_germ
from vancyc.symplectic import MapGerm


def test_discriminant_of_basic_germ():
    """(p1 q1, p2) has reduced discriminant s1 with multiplicity 1."""
    d = discriminant(basic_germ())
    assert d.k == 2
    assert d.target_vars == ("s1", "s2")
    assert format_polynomial(normalized(d.reduced_generator)) == "s1"
    assert multiplicity_at_origin(d) == 1


def test_discriminant_of_three_torus_germ():
    """R = [[1,1,0],[0,1,1]] gives the three-line curve s1 s2 (s1 - s2)."""
    d = discriminant(action_coordinates_germ(3, 2, AL_MATRICES[(3, 2)]))
    reduced = normalized(d.reduced_generator)
    expected = parse_polynomial("s1^2*s2 - s1*s2^2", ("s1", "s2"))
    assert reduced == normalized(expected)
    assert multiplicity_at_origin(d) == 3


def test_discriminant_of_four_torus_germ():
    """R = [[1,1,1,0],[0,1,2,1]] gives four distinct lines through the origin."""
    d = discriminant(action_coordinates_germ(4, 2, AL_MATRICES[(4, 2)]))
    reduced = normalized(d.reduced_generator)
    expected = parse_polynomial(
        "s1^3*s2 - 3/2*s1^2*s2^2 + 1/2*s1*s2^3", ("s1", "s2"))
    assert reduced == normalized(expected)
    assert multiplicity_at_origin(d) == 4


def test_discriminant_generators_are_radical_members():
    """The reduced generator lies in the radical of the eliminated ideal."""
    for germ in (basic_germ(), henon_heiles_germ()):
        d = discriminant(germ)
        assert radical_membership(d.reduced_generator, d.ideal)


def test_henon_heiles_discriminant():
    """The corrected cubic-potential pair has a degree-5 curve of multiplicity 4."""
    d = discriminant(henon_heiles_germ())
    reduced = normalized(d.reduced_generator)
    expected = parse_polynomial("s1^4*s2 + 16/27*s2^4", ("s1", "s2"))
    assert reduced == normalized(expected)
    assert multiplicity_at_origin(d) == 4


def test_multiplicity_invariant_under_linear_target_change():
    """Random GL_2(Q) substitutions preserve the order at the origin."""
    rng = random.Random(19)
    amb = ("s1", "s2")
    curves = [
        parse_polynomial("s1^2*s2 - s1*s2^2", amb),
        parse_polynomial("s1^4*s2 + 16/27*s2^4", amb),
        parse_polynomial("s1", amb),
    ]
    s1 = parse_polynomial("s1", amb)
    s2 = parse_polynomial("s2", amb)
    for curve in curves:
        base = squarefree_part_bivariate(curve).order_at_origin()
        done = 0
        while done < 5:
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d - b * c == 0:
                continue
            moved = curve.substitute(
                {"s1": s1.scale(a) + s2.scale(b), "s2": s1.scale(c) + s2.scale(d)})
            assert squarefree_part_bivariate(moved).order_at_origin() == base
            done += 1


def test_binomial_multiplicity_law():
    """Multiplicity equals C(n, k-1) for generic matrices, n up to 4, both by
    elimination and by hyperplane counting, for every k; the (4, 3) case
    reduces a three-variable discriminant of order C(4, 2) = 6."""
    generic = {
        (2, 2): [[1, 1], [0, 1]],
        (3, 2): AL_MATRICES[(3, 2)],
        (3, 3): [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        (4, 2): AL_MATRICES[(4, 2)],
        (4, 3): AL_MATRICES[(4, 3)],
        (4, 4): [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    }
    for (n, k), R in generic.items():
        d = discriminant(action_coordinates_germ(n, k, R))
        assert multiplicity_at_origin(d) == al_multiplicity_by_counting(n, k, R) \
            == comb(n, k - 1)


def test_multiplicity_of_one_component_germ(germs_dir):
    """The k = 1 fold q1^2 has discriminant s1 = 0, of multiplicity 1."""
    germ = load_germ_file(germs_dir / "fold.germ").to_map_germ()
    assert multiplicity_at_origin(discriminant(germ)) == 1


def test_counting_rejects_non_generic_matrix():
    """A rank-deficient column pair is refused with the witness columns."""
    with pytest.raises(NonGenericMatrixError):
        al_multiplicity_by_counting(3, 2, [[1, 0, 0], [0, 1, 0]])


def test_germ_and_count_refuse_float_matrix_entries():
    """A float entry is a PolyError, not its binary fraction (0.1 would be
    3602879701896397/36028797018963968); integer entries stay ints."""
    for call in (action_coordinates_germ, al_multiplicity_by_counting):
        with pytest.raises(PolyError, match="got float"):
            call(3, 2, [[0.1, 1, 0], [0, 1, 1]])
    germ = action_coordinates_germ(3, 2, [[1, 1, 0], [0, 1, 1]])
    assert {type(c) for p in germ.components for c in p.terms.values()} == {int}


def test_generic_matrices_span_distinct_hyperplanes():
    """The argument behind the count: on seeded random matrices that pass the
    genericity test, no two (k-1)-column subsets span the same hyperplane."""
    rng = random.Random(71)
    checked = 0
    while checked < 20:
        n, k = rng.choice(((3, 2), (4, 2), (4, 3), (5, 3), (5, 4)))
        R = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        try:
            count = al_multiplicity_by_counting(n, k, R)
        except NonGenericMatrixError:
            continue
        for a, b in combinations(combinations(range(n), k - 1), 2):
            cols = sorted(set(a) | set(b))
            assert rational_rank([[row[j] for j in cols] for row in R]) == k, (R, a, b)
        assert count == comb(n, k - 1)
        checked += 1


def _products_germ(texts):
    xyz = ("x", "y", "z")
    return MapGerm(xyz, [parse_polynomial(t, xyz) for t in texts])


def test_discriminant_without_divisorial_part():
    """(x z, y z) eliminates to (s2, s1): the origin alone, no reduced
    generator, so no multiplicity."""
    d = discriminant(_products_germ(("x*z", "y*z")))
    assert [format_polynomial(g) for g in d.ideal.generators] == ["s2", "s1"]
    assert d.reduced_generator is None
    assert d.note == "eliminated ideal has no divisorial part"
    with pytest.raises(PolyError):
        multiplicity_at_origin(d)


def test_discriminant_reduced_from_the_gcd():
    """(x^2, x y z) eliminates to (s2^2, s1 s2), whose gcd s2 is reduced."""
    d = discriminant(_products_germ(("x^2", "x*y*z")))
    assert [format_polynomial(g) for g in d.ideal.generators] == ["s2^2", "s1*s2"]
    assert format_polynomial(d.reduced_generator) == "s2"
    assert d.note == "reduced generator from gcd of 2 generators"
    assert multiplicity_at_origin(d) == 1


def test_elimination_budget_propagates():
    """A zero S-pair budget aborts the k = 2 elimination route."""
    with pytest.raises(ResourceLimitExceeded):
        discriminant(action_coordinates_germ(3, 2, AL_MATRICES[(3, 2)]), max_pairs=0)


def test_milnor_numbers():
    """The simple singularities have Milnor number their index: A_k = x^(k+1)
    + y^2, D_k = x^2*y + y^(k-1), E_6,7,8; stabilising by squares keeps it."""
    amb = ("x", "y")
    cases = [(f"x^{k + 1} + y^2", k) for k in range(1, 7)]
    cases += [(f"x^2*y + y^{k - 1}", k) for k in (4, 5, 6)]
    cases += [("x^3 + y^4", 6), ("x^3 + x*y^3", 7), ("x^3 + y^5", 8)]
    for text, mu in cases:
        assert milnor_number(parse_polynomial(text, amb)) == mu, text
    xyz = ("x", "y", "z")
    assert milnor_number(parse_polynomial("x^2 + y^2 + z^2", xyz)) == 1
    assert milnor_number(parse_polynomial("x^2*y + y^3 + z^2", xyz)) == 4
    with pytest.raises(NonIsolatedSingularityError):
        milnor_number(parse_polynomial("x^2*y^2", amb))


def test_critical_ideal_shape():
    """The critical ideal couples source minors with target graph equations,
    over the source variables then the targets."""
    germ = basic_germ()
    crit = critical_ideal(germ)
    assert crit.ambient == germ.ambient + ("s1", "s2")
    jac = jacobian(germ)
    assert len(jac) == 2 and all(len(row) == 4 for row in jac)


@pytest.mark.parametrize("germ", [
    action_coordinates_germ(4, 3, AL_MATRICES[(4, 3)]),
    henon_heiles_germ(),
    _ar_unfolding(3),
], ids=["al-4-3", "henon-heiles", "a3-unfolding"])
def test_critical_ideal_generators_are_the_cofactor_minors(germ):
    """The generators are the fibre equations f_i - s_i, then the nonzero
    cofactor-expanded Jacobian minors in column-subset order, each kept
    unless an earlier one is a scalar multiple of it.  The (4, 3) germ is
    the one case with 3 x 3 minors."""
    crit = critical_ideal(germ)
    targets = crit.ambient[germ.m:]
    fibres = [c.over(crit.ambient) - parse_polynomial(s, crit.ambient)
              for c, s in zip(germ.components, targets)]
    minors, seen = [], set()
    for minor in cofactor_minors(jacobian(germ)):
        if minor and normalized(minor) not in seen:
            seen.add(normalized(minor))
            minors.append(minor.over(crit.ambient))
    assert list(crit.generators) == fibres + minors
    assert minors


def test_discriminant_pair_cap_reaches_every_buchberger_run(monkeypatch, germs_dir):
    """A caller's S-pair cap reaches the elimination and each gcd of the
    squarefree part: every Buchberger run gets the cap, not the default."""
    import vancyc.groebner as groebner
    from vancyc.steinberg import steinberg_discriminant_multiplicity

    runs = []
    buchberger = groebner.buchberger

    def recording(ideal, key, max_pairs=groebner.DEFAULT_PAIR_LIMIT):
        runs.append((ideal.ambient[0], max_pairs))
        return buchberger(ideal, key, max_pairs)

    monkeypatch.setattr(groebner, "buchberger", recording)
    germ = load_germ_file(germs_dir / "al6.germ").to_map_germ()
    assert multiplicity_at_origin(discriminant(germ, max_pairs=1000)) == 3
    # the elimination, then one gcd (front variable t) per target variable
    assert runs == [("q1", 1000), ("t", 1000), ("t", 1000)]
    runs.clear()
    assert steinberg_discriminant_multiplicity(2, max_pairs=5) == 2
    assert runs == [("lam", 5), ("t", 5)]
