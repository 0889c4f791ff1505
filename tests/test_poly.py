"""Exact polynomial arithmetic, parsing/printing, and linear algebra over Q."""

import copy
import pickle
import random
import time
from fractions import Fraction

import pytest

from randpoly import random_polynomial, resultant_pairs
from vancyc.poly import (
    AmbientMismatchError,
    PolyError,
    PolyMatrix,
    PolyParseError,
    Polynomial,
    UnknownVariableError,
    determinant_fraction_free,
    exact_divide,
    format_polynomial,
    gcd_polynomials,
    normalized,
    parse_polynomial,
    rational_rank,
    resultant,
    rref,
    squarefree_part_bivariate,
    variables,
)

AMB = ("x", "y", "z")


def test_ring_axioms_randomized():
    """Commutative-ring identities hold on random triples."""
    rng = random.Random(11)
    zero = Polynomial.zero(AMB)
    one = Polynomial.constant(AMB, 1)
    for _ in range(30):
        a = random_polynomial(rng, AMB)
        b = random_polynomial(rng, AMB)
        c = random_polynomial(rng, AMB)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero


def test_integer_scalars_mix_with_polynomials():
    """Plain ints and Fractions combine with polynomials on either side."""
    x, y, _ = variables(AMB)
    assert 2 * x == x + x
    assert x * 2 == x + x
    assert 1 + x - 1 == x
    assert Fraction(1, 2) * (x + y) * 2 == x + y


def test_parse_format_round_trip_randomized():
    """parse(format(p)) == p for 100 random polynomials, spaced and compact."""
    rng = random.Random(23)
    for _ in range(100):
        p = random_polynomial(rng, AMB)
        assert parse_polynomial(format_polynomial(p), AMB) == p
        assert parse_polynomial(format_polynomial(p, compact=True), AMB) == p


def test_format_goldens():
    """Printed forms are deterministic: descending grevlex, '0' for zero."""
    assert format_polynomial(parse_polynomial("y + x^2 + 1", AMB)) == "x^2 + y + 1"
    assert format_polynomial(parse_polynomial("-x - 1", AMB)) == "-x - 1"
    assert format_polynomial(parse_polynomial("1/2*x - 3", AMB)) == "1/2*x - 3"
    assert format_polynomial(parse_polynomial("x - x", AMB)) == "0"
    assert format_polynomial(parse_polynomial("(x+y)^2", AMB), compact=True) == "x^2+2*x*y+y^2"


def test_parse_error_positions():
    """Parse failures carry 0-based offsets pointing at the offending token."""
    cases = [
        ("x + + y", 4),
        ("x^", 2),
        ("(x + y", 6),
        ("x @ y", 2),
        ("", 0),
        ("x^y", 2),
        ("2x", 1),
    ]
    for text, pos in cases:
        with pytest.raises(PolyParseError) as exc:
            parse_polynomial(text, AMB)
        assert exc.value.position == pos
    with pytest.raises(UnknownVariableError) as exc:
        parse_polynomial("x + w", AMB)
    assert exc.value.position == 4


def test_parse_caps_the_expanded_size():
    """An operator whose bound on the expanded term count passes the cap fails
    at its own position before expanding; sparse powers and products under
    the cap still expand exactly."""
    cases = [
        ("(x+y+z)^80", 7),  # C(82, 80) = 3321 terms
        ("x + ((x+y)^9)^9", 13),  # C(18, 9): the bound, not the 82 real terms
        ("(x+y)^24 * (x+y)^20", 9),  # 25 * 21 = 525
    ]
    for text, pos in cases:
        start = time.perf_counter()
        with pytest.raises(PolyParseError, match="500 terms") as exc:
            parse_polynomial(text, AMB)
        assert time.perf_counter() - start < 0.05, text
        assert exc.value.position == pos
    assert len(parse_polynomial("(x+y)^24 * (x+y)^19", AMB).terms) == 44  # bound 500
    assert len(parse_polynomial("(x+y+z)^12", AMB).terms) == 91
    assert parse_polynomial("x^100000*y^3", AMB).degree_in("x") == 100000
    assert len(parse_polynomial("(x+y+z)^4 * (x+y)^9", AMB).terms) == 60  # bound 150


def test_parse_caps_the_coefficient_height():
    """An operator whose bound on the coefficient bit height passes the cap
    fails at its own position before expanding, also under the term cap;
    a result at the bound still expands exactly."""
    cases = [
        ("(x+y)^499", 5),  # 500 terms, but binomials of 495 bits
        ("(1/3*x + y)^100", 11),  # 100 * log2(4 * 3) bits
        ("2^200 * 3^100", 6),  # 200 + 158.5 bits
    ]
    for text, pos in cases:
        start = time.perf_counter()
        with pytest.raises(PolyParseError, match="256-bit coefficients") as exc:
            parse_polynomial(text, AMB)
        assert time.perf_counter() - start < 0.05, text
        assert exc.value.position == pos
    x, y, _ = variables(AMB)
    assert parse_polynomial("2^256", AMB) == Polynomial.constant(AMB, 2 ** 256)
    assert parse_polynomial("(2*x - 2*y)^64", AMB) == 2 ** 64 * (x - y) ** 64


def test_derivative_linear_and_leibniz_randomized():
    """d(a+b) = da + db and d(ab) = da*b + a*db in every variable."""
    rng = random.Random(5)
    for _ in range(15):
        a = random_polynomial(rng, AMB)
        b = random_polynomial(rng, AMB)
        for v in AMB:
            da, db = a.partial_derivative(v), b.partial_derivative(v)
            assert (a + b).partial_derivative(v) == da + db
            assert (a * b).partial_derivative(v) == da * b + a * db


def test_substitute_keeps_unmapped_variables():
    """Substitution leaves unmapped variables alone and respects composition."""
    x, y, z = variables(AMB)
    p = x * x + y * z
    q = p.substitute({"x": x + y})
    assert q == (x + y) ** 2 + y * z
    assert q.ambient == AMB
    assert p.substitute({}) == p


def test_evaluate_agrees_with_substitution():
    """Full-point evaluation matches substituting constants throughout."""
    rng = random.Random(7)
    for _ in range(10):
        p = random_polynomial(rng, AMB)
        point = {v: Fraction(rng.randint(-3, 3)) for v in AMB}
        images = {v: Polynomial.constant(AMB, point[v]) for v in AMB}
        assert p.substitute(images).constant_term() == p.evaluate(point)


def test_order_at_origin_is_additive():
    """order(p*q) = order(p) + order(q) for random nonzero factors."""
    rng = random.Random(31)
    for _ in range(20):
        p = random_polynomial(rng, AMB, nonzero=True)
        q = random_polynomial(rng, AMB, nonzero=True)
        assert (p * q).order_at_origin() == p.order_at_origin() + q.order_at_origin()
    with pytest.raises(PolyError):
        Polynomial.zero(AMB).order_at_origin()


def test_determinant_matches_cofactor_expansion():
    """Fraction-free determinant equals naive cofactor expansion up to size 4."""

    def cofactor_det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = Polynomial.zero(rows[0][0].ambient)
        for j in range(n):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = rows[0][j] * cofactor_det(minor)
            total = total + (term if j % 2 == 0 else -term)
        return total

    rng = random.Random(13)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            rows = [[random_polynomial(rng, ("x", "y"), max_terms=2, max_exp=1)
                     for _ in range(n)] for _ in range(n)]
            m = PolyMatrix.from_rows(rows)
            assert determinant_fraction_free(m) == cofactor_det(rows)


def test_determinant_golden():
    """det [[x, y], [1, x]] = x^2 - y."""
    x, y = variables(("x", "y"))
    one = Polynomial.constant(("x", "y"), 1)
    m = PolyMatrix.from_rows([[x, y], [one, x]])
    assert determinant_fraction_free(m) == x * x - y


def test_resultant_detects_shared_roots():
    """Sylvester resultant of factored univariates vanishes iff roots overlap."""
    rng = random.Random(41)
    x = Polynomial.variable(("x",), "x")

    def lin(a):
        return x - Polynomial.constant(("x",), a)

    for _ in range(20):
        a, b = rng.sample(range(-5, 6), 2)
        c, d = rng.sample(range(-5, 6), 2)
        r = resultant(lin(a) * lin(b), lin(c) * lin(d), "x")
        shares = bool({a, b} & {c, d})
        assert r.is_zero() == shares


def test_resultant_specializes():
    """Eliminating x then evaluating y agrees with evaluating y first."""
    amb = ("x", "y")
    p = parse_polynomial("x^2 + y*x + y^2 - 1", amb)
    q = parse_polynomial("x - y", amb)
    r = resultant(p, q, "x")
    for y0 in range(-3, 4):
        spec = {"y": Polynomial.constant(amb, y0)}
        direct = resultant(p.substitute(spec), q.substitute(spec), "x")
        assert direct.constant_term() == r.evaluate({"x": 0, "y": y0})


def _sylvester(p: Polynomial, q: Polynomial, var: str) -> PolyMatrix:
    """The Sylvester matrix of p and q in var, over the other variables."""
    a = [p.coefficient_in(var, k) for k in range(p.degree_in(var), -1, -1)]
    b = [q.coefficient_in(var, k) for k in range(q.degree_in(var), -1, -1)]
    size = len(a) + len(b) - 2
    zero = Polynomial.zero(a[0].ambient)
    rows = [[zero] * i + a + [zero] * (size - i - len(a)) for i in range(len(b) - 1)]
    rows += [[zero] * i + b + [zero] * (size - i - len(b)) for i in range(len(a) - 1)]
    return PolyMatrix.from_rows(rows)


def test_resultant_is_the_sylvester_determinant():
    """The resultant equals the Bareiss determinant of the Sylvester matrix,
    an independent algorithm kept here as the reference.  The seeded pairs
    have powers up to 2, since the determinant takes seconds at 3; the
    first pair has odd degrees 1 < 3, where the sign (-1)^(1*3) of
    swapping the arguments shows."""
    z = Polynomial.variable(AMB, "z")
    pairs = [("z", z + 1, z ** 3 + z), *resultant_pairs(top=2)]
    for var, p, q in pairs:
        assert resultant(p, q, var) == determinant_fraction_free(_sylvester(p, q, var))


def test_exact_divide():
    """Exact division returns the cofactor and rejects a non-divisor, the
    zero divisor and a divisor over another ambient."""
    x, y = variables(("x", "y"))
    assert exact_divide(x * x - y * y, x - y) == x + y
    assert exact_divide(Polynomial.zero(("x", "y")), x - y).is_zero()
    with pytest.raises(PolyError, match="non-exact polynomial division"):
        exact_divide(x * x - y * y, x + Polynomial.constant(("x", "y"), 1))
    with pytest.raises(PolyError, match="division by zero polynomial"):
        exact_divide(x * y, Polynomial.zero(("x", "y")))
    with pytest.raises(AmbientMismatchError):
        exact_divide(x * y, Polynomial.variable(("x", "y", "z"), "x"))


def test_gcd_and_squarefree():
    """PRS gcd and squarefree part behave on small bivariate products."""
    x, y = variables(("x", "y"))
    g = gcd_polynomials((x - y) * (x + y), (x - y) ** 2)
    assert g == normalized(x - y)
    sf = squarefree_part_bivariate((x - y) ** 2 * (x + y))
    assert sf == normalized((x - y) * (x + y))
    for p, squarefree in ((x * x - y, True), ((x - y) ** 2 * (x + y), False)):
        assert squarefree == all(gcd_polynomials(p, p.partial_derivative(v)).is_constant()
                                 for v in p.effective_variables())
    assert normalized(-2 * (x - y)).lead()[1] == 1


def test_rational_linear_algebra():
    """Rank agrees with hand values over Q; non-rational entries are refused."""
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[1, 2], [3, 4]]) == 2
    with pytest.raises(PolyError, match="rational"):
        rational_rank([[1.5]])


def test_rref_is_reduced_and_respects_the_pivot_block():
    """Pivot columns carry unit vectors; an augmented block is never pivoted."""
    m, pivots = rref([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    assert pivots == [0, 1]
    assert m == [[1, 0, -1], [0, 1, 2], [0, 0, 0]]
    m, pivots = rref([[0, 1], [0, 2]], 1)
    assert pivots == [] and m == [[0, 1], [0, 2]]
    assert rref([]) == ([], [])


def test_coefficient_extraction():
    """coefficient_in removes the chosen variable from the ambient."""
    p = parse_polynomial("x^2*y + x*y + y + 1", ("x", "y"))
    c1 = p.coefficient_in("x", 1)
    assert c1.ambient == ("y",)
    assert c1 == Polynomial.variable(("y",), "y")
    assert p.coefficient_in("x", 0) == parse_polynomial("y + 1", ("y",))


def test_copy_and_pickle_round_trips():
    """copy, deepcopy and pickle rebuild an equal polynomial with the same lead."""
    p = parse_polynomial("x^2*y - 3/2*y + 1", ("x", "y"))
    p.lead()  # fill the memo, which must not travel with the state
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p
        assert hash(twin) == hash(p)
        assert twin.lead() == p.lead()
