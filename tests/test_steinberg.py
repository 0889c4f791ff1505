"""Trace-form coadjoint brackets and the adjoint-quotient coefficient map."""

import random
from fractions import Fraction

import pytest

from brackets import reference_bracket
from vancyc import steinberg
from vancyc.groebner import ResourceLimitExceeded
from vancyc.poly import (AmbientMismatchError, PolyError, Polynomial,
                         determinant_fraction_free, parse_polynomial, rational_rank, rref)
from vancyc.singularity import discriminant
from vancyc.steinberg import (
    SteinbergMap,
    casimir_components_check,
    jacobian_rank_at,
    steinberg_discriminant_multiplicity,
    steinberg_kks,
    steinberg_map,
    subregular_slice_check,
)
from vancyc.symplectic import PoissonStructure, jacobi_check


def _coord(structure, name):
    return Polynomial.variable(structure.ambient, name)


def _entry(n, ambient, i, j):
    """The (i, j) entry (0-based) of a traceless matrix in entry coordinates."""
    if i == j == n - 1:
        return parse_polynomial(
            "-(" + " + ".join(f"x{d}{d}" for d in range(1, n)) + ")", ambient)
    return Polynomial.variable(ambient, f"x{i + 1}{j + 1}")


def test_lie_poisson_matrix_closed_form():
    """Every entry of the Lie-Poisson matrix is delta_il x_kj - delta_kj x_il,
    with x_nn read as -(x_11 + ... + x_(n-1)(n-1)), for n = 2 and 3."""
    for n in (2, 3):
        structure = steinberg_kks(steinberg_map(n - 1))
        amb = structure.ambient
        assert amb == tuple(f"x{i}{j}" for i in range(1, n + 1)
                            for j in range(1, n + 1) if not i == j == n)
        cells = [(int(v[1]) - 1, int(v[2]) - 1) for v in amb]
        for a, (i, j) in enumerate(cells):
            for b, (k, l) in enumerate(cells):
                expected = Polynomial.zero(amb)
                if i == l:
                    expected = expected + _entry(n, amb, k, j)
                if k == j:
                    expected = expected - _entry(n, amb, i, l)
                assert structure.matrix[a][b] == expected, (amb[a], amb[b])


def test_sl2_structure_constants():
    """[h, e] = 2e, [h, f] = -2f, [e, f] = h in the standard basis, read as
    the linear functions h = tr(X h) = 2 x11, e = tr(X E12) = x21, f = x12."""
    s2 = steinberg_kks(steinberg_map(1))
    x11, x12, x21 = (_coord(s2, v) for v in ("x11", "x12", "x21"))
    h, e, f = x11 + x11, x21, x12
    assert reference_bracket(h, e, s2) == e + e
    assert reference_bracket(h, f, s2) == -(f + f)
    assert reference_bracket(e, f, s2) == h


def test_sl3_structure_is_consistent():
    """The eight-dimensional structure passes the Jacobi audit and gives
    [E12, E23] = E13, with E_ab read as the linear function x_ba."""
    s3 = steinberg_kks(steinberg_map(2))
    assert len(s3.ambient) == 8
    assert jacobi_check(s3)
    assert reference_bracket(_coord(s3, "x21"), _coord(s3, "x32"), s3) \
        == _coord(s3, "x31")


def test_entry_coordinate_brackets():
    """{x_ij, x_kl} = delta_il x_kj - delta_kj x_il on trace-zero entries."""
    s2 = steinberg_kks(steinberg_map(1))
    assert s2.ambient == ("x11", "x12", "x21")
    x11, x12, x21 = (_coord(s2, v) for v in s2.ambient)
    assert reference_bracket(x11, x12, s2) == -x12
    assert reference_bracket(x11, x21, s2) == x21
    assert reference_bracket(x12, x21, s2) == -x11 - x11

    s3 = steinberg_kks(steinberg_map(2))
    x12 = _coord(s3, "x12")
    x21 = _coord(s3, "x21")
    x22 = _coord(s3, "x22")
    x11 = _coord(s3, "x11")
    assert reference_bracket(x12, x21, s3) == x22 - x11
    x13 = _coord(s3, "x13")
    x23 = _coord(s3, "x23")
    assert reference_bracket(x12, x23, s3) == -x13


def test_kks_structures_satisfy_jacobi():
    """The linear coadjoint brackets pass the coordinate-triple Jacobi check."""
    assert jacobi_check(steinberg_kks(steinberg_map(1)))
    assert jacobi_check(steinberg_kks(steinberg_map(2)))


def test_kks_gates_on_the_jacobi_audit(monkeypatch):
    """A Lie-Poisson matrix the Jacobi audit rejects is an error, not a result."""
    monkeypatch.setattr(steinberg, "jacobi_check", lambda structure: False)
    with pytest.raises(PolyError, match="Jacobi"):
        steinberg_kks(steinberg_map(1))


def test_jacobi_audit_catches_one_flipped_pair():
    """Flipping the sign of any one nonzero pair Pi_ab = -Pi_ba of the sl_3
    Lie-Poisson matrix breaks the Jacobi identity, and the audit sees it."""
    s3 = steinberg_kks(steinberg_map(2))
    n = len(s3.ambient)
    flipped = 0
    for a in range(n):
        for b in range(a + 1, n):
            if s3.matrix[a][b]:
                rows = [list(row) for row in s3.matrix]
                rows[a][b], rows[b][a] = -rows[a][b], -rows[b][a]
                assert not jacobi_check(PoissonStructure(s3.ambient, rows)), (a, b)
                flipped += 1
    assert flipped == 17


def test_sl4_lie_poisson_structure_passes_its_audit():
    """The closed form on the 15 entry coordinates of sl_4 passes the Jacobi
    audit, and the characteristic coefficients are its Casimirs; the map is
    built here because `steinberg_map` stops at rank 2."""
    n = 4
    cells = [(i, j) for i in range(n) for j in range(n) if not i == j == n - 1]
    amb = tuple(f"x{i + 1}{j + 1}" for i, j in cells)
    x = [[_entry(n, amb, i, j) for j in range(n)] for i in range(n)]
    lam_amb = amb + ("lam",)
    lam = Polynomial.variable(lam_amb, "lam")
    char = determinant_fraction_free(
        [[(lam if i == j else 0) - x[i][j].over(lam_amb) for j in range(n)]
         for i in range(n)])
    comps = tuple(char.coefficient_in("lam", d) for d in range(n - 2, -1, -1))
    s = SteinbergMap(n - 1, amb, tuple(map(tuple, x)), comps)
    structure = steinberg_kks(s)
    assert len(structure.ambient) == 15
    assert casimir_components_check(s, structure)


def test_coefficient_map_components():
    """Characteristic coefficients of the generic traceless matrix, both ranks."""
    s1 = steinberg_map(1)
    assert s1.ambient == ("x11", "x12", "x21")
    assert s1.components == (parse_polynomial("-x11^2 - x12*x21", s1.ambient),)

    s2 = steinberg_map(2)
    c2 = parse_polynomial(
        "-x11^2 - x11*x22 - x22^2 - x12*x21 - x13*x31 - x23*x32", s2.ambient)
    assert s2.components[0] == c2


def test_coefficient_map_matches_numeric_characteristic_polynomial():
    """Evaluating the components at a sample matrix gives its true coefficients."""
    s = steinberg_map(2)
    sample = [[1, 2, 0], [3, -1, 1], [0, 1, 0]]
    point = {"x11": 1, "x12": 2, "x13": 0,
             "x21": 3, "x22": -1, "x23": 1,
             "x31": 0, "x32": 1}
    m = [[Fraction(x) for x in row] for row in sample]
    c2 = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i]
             for i in range(3) for j in range(i + 1, 3))
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    assert s.components[0].evaluate(point) == c2
    assert s.components[1].evaluate(point) == -det


def test_components_are_casimirs():
    """Both coefficient maps Poisson-commute with every entry coordinate."""
    for r in (1, 2):
        s = steinberg_map(r)
        assert casimir_components_check(s, steinberg_kks(s))


def test_casimir_check_refuses_a_foreign_structure():
    """A structure over other coordinates than the map's entries is refused
    with the bracket's own ambient error."""
    s1, s2 = steinberg_map(1), steinberg_map(2)
    with pytest.raises(AmbientMismatchError):
        casimir_components_check(s1, steinberg_kks(s2))


def test_jacobian_ranks():
    """Rank r at regular points, r - 1 on the subregular stratum, 0 at zero."""
    s1 = steinberg_map(1)
    assert jacobian_rank_at(s1, [[0, 0], [0, 0]]) == 0
    assert jacobian_rank_at(s1, [[1, 0], [0, -1]]) == 1

    s2 = steinberg_map(2)
    assert jacobian_rank_at(s2, [[0, 0, 0], [0, 0, 0], [0, 0, 0]]) == 0
    assert jacobian_rank_at(s2, [[1, 0, 0], [0, 1, 0], [0, 0, -2]]) == 1
    assert jacobian_rank_at(s2, [[1, 0, 0], [0, 2, 0], [0, 0, -3]]) == 2
    with pytest.raises(PolyError):
        jacobian_rank_at(s2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_jacobian_rank_never_exceeds_rank():
    """Random traceless sample points keep the differential rank at most r."""
    rng = random.Random(13)
    s = steinberg_map(2)
    for _ in range(5):
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        m[2][2] = -m[0][0] - m[1][1]
        assert jacobian_rank_at(s, m) <= 2


def _conjugate(s, g):
    """Entry-coordinate images of the generic matrix X under X -> g X g^-1."""
    n = s.rank + 1
    m, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                      for i, row in enumerate(g)])
    assert len(pivots) == n
    gi = [row[n:] for row in m]
    x = s.generic_matrix
    images = {}
    for i in range(n):
        for j in range(n):
            e = Polynomial.zero(s.ambient)
            for a in range(n):
                for b in range(n):
                    if g[i][a] * gi[b][j]:
                        e = e + x[a][b].scale(g[i][a] * gi[b][j])
            if not i == j == n - 1:
                images[f"x{i + 1}{j + 1}"] = e
    return images


def test_conjugation_invariance():
    """x -> g x g^{-1} fixes the coefficient polynomials, 10 random g each rank."""
    rng = random.Random(101)
    for r in (1, 2):
        s = steinberg_map(r)
        n = r + 1
        done = 0
        while done < 10:
            g = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                  for _ in range(n)] for _ in range(n)]
            if rational_rank(g) < n:
                continue
            images = _conjugate(s, g)
            assert sorted(images) == sorted(s.ambient)
            assert all(c.substitute(images) == c for c in s.components)
            done += 1


def test_discriminant_multiplicities():
    """Repeated-eigenvalue loci of lam^(r+1) + ... meet the origin with
    multiplicity r for r = 1..4; rank 0 is refused."""
    for r in range(1, 5):
        assert steinberg_discriminant_multiplicity(r) == r
    with pytest.raises(PolyError, match="at least 1"):
        steinberg_discriminant_multiplicity(0)


def test_discriminant_multiplicity_runs_under_the_pair_budget():
    """The elimination behind the multiplicity stops at its S-pair cap."""
    with pytest.raises(ResourceLimitExceeded) as exc:
        steinberg_discriminant_multiplicity(2, max_pairs=0)
    assert exc.value.pairs_processed == 0


def test_sl3_discriminant_is_the_a2_unfolding_discriminant():
    """Eliminating the A_2 unfolding's critical ideal leaves one generator,
    the discriminant -4 s1^3 - 27 s2^2 of lam^3 + s1 lam + s2 scaled to lead
    coefficient 1, which is already squarefree."""
    d = discriminant(steinberg._ar_unfolding(2))
    want = parse_polynomial("s1^3 + 27/4*s2^2", ("s1", "s2"))
    assert d.ideal.generators == (want,)
    assert d.reduced_generator == want


def test_subregular_slice():
    """The two-parameter slice shows the Morse block transverse to the stratum."""
    report = subregular_slice_check(steinberg_map(2))
    amb = report.slice_ambient
    assert amb == ("t", "y11", "y12", "y21")
    assert report.c2 == parse_polynomial("-3*t^2 - y11^2 - y12*y21", amb)
    assert report.c3 == parse_polynomial("2*t^3 - 2*t*y11^2 - 2*t*y12*y21", amb)
    assert report.block_hessian_rank == 3
    assert report.differential_rank == 1
    assert report.t_column_only
    assert report.a1_at_origin
    assert report.c3_vanishes_at_t0
    assert report.passed
    with pytest.raises(PolyError):
        subregular_slice_check(steinberg_map(1))
