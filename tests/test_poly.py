"""Exact polynomial arithmetic, parsing/printing, and linear algebra over Q."""

import copy
import pickle
import random
import sys
import time
from fractions import Fraction

import pytest

from canonical import assert_canonical
from minors import cofactor_det, cofactor_minors
from randpoly import random_polynomial
from vancyc.poly import (
    MAX_EXPONENT,
    MAX_NESTING,
    AmbientMismatchError,
    MissingAssignmentError,
    PolyError,
    PolyParseError,
    Polynomial,
    UnknownVariableError,
    determinant_fraction_free,
    exact_divide,
    format_polynomial,
    gcd_polynomials,
    maximal_minors,
    normalized,
    parse_polynomial,
    rational_rank,
    rational_rows,
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
    assert parse_polynomial("x^100000*y^3", AMB).terms == {(100000, 3, 0): 1}
    assert len(parse_polynomial("(x+y+z)^4 * (x+y)^9", AMB).terms) == 60  # bound 150


def test_parse_caps_the_exponents():
    """An operator whose bound on a variable's exponent passes MAX_EXPONENT,
    n * e for '^' and e_p + e_q for '*', fails at its own position before
    expanding; a result at the cap still parses.  A power's n is bounded
    too, on a constant as well, and first, so a far larger exponent is
    refused at once, not after a slow term bound or a float overflow."""
    huge = "9" * 400  # past the largest float
    cases = [
        (f"x^{MAX_EXPONENT + 1}", 1),
        (f"x^{MAX_EXPONENT * 10 ** 5}", 1),
        (f"1^{MAX_EXPONENT + 1}", 1),
        (f"y + 2^{huge}", 5),
        (f"((x+y+z)^5)^{huge}", 11),
        (f"y + (x^2*z)^{MAX_EXPONENT // 2 + 1}", 11),
        (f"x^{MAX_EXPONENT // 2}*y*x^{MAX_EXPONENT // 2 + 1}", 10),
        (f"(x + 1)^2 * x^{MAX_EXPONENT - 1}", 10),
    ]
    for text, pos in cases:
        start = time.perf_counter()
        with pytest.raises(PolyParseError, match=f"exceed exponent {MAX_EXPONENT}") as exc:
            parse_polynomial(text, AMB)
        assert time.perf_counter() - start < 0.05, text
        assert exc.value.position == pos, text
    assert parse_polynomial(f"x^{MAX_EXPONENT // 2}*x^{MAX_EXPONENT // 2}", AMB).terms == {
        (MAX_EXPONENT, 0, 0): 1}
    assert parse_polynomial(f"(-1)^{MAX_EXPONENT}", AMB) == Polynomial.constant(AMB, 1)


def test_parse_caps_the_nesting_depth():
    """MAX_NESTING nested parentheses parse; one level more is refused at
    the offending '(' instead of overflowing the stack."""
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_polynomial(deep, AMB) == Polynomial.variable(AMB, "x")
    with pytest.raises(PolyParseError, match="nested parentheses") as exc:
        parse_polynomial("y + (" + deep + ")", AMB)
    assert exc.value.position == 4 + MAX_NESTING
    with pytest.raises(PolyParseError) as exc:
        parse_polynomial("(" * 1000 + "x" + ")" * 1000, AMB)
    assert exc.value.position == MAX_NESTING


def test_parse_refuses_integers_past_the_digit_limit():
    """An integer token longer than Python converts from a string, as a
    literal, an exponent or a denominator, is refused at the token's own
    position; one at the limit still parses."""
    limit = sys.get_int_max_str_digits()
    long = "1" * (limit + 1)
    for text, pos in [(f"{long}*x", 0), (f"x^{long}", 2), (f"y + 1/{long}", 6)]:
        with pytest.raises(PolyParseError, match=f"longer than {limit} digits") as exc:
            parse_polynomial(text, AMB)
        assert exc.value.position == pos
    assert parse_polynomial("9" * limit, AMB) == Polynomial.constant(AMB, int("9" * limit))


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


def test_substitute_refuses_other_images_and_variables():
    """An image that is not a Polynomial, and a key that is not an ambient
    variable, are each a PolyError: neither is dropped nor an AttributeError."""
    x, y, z = variables(AMB)
    p = x * y
    with pytest.raises(PolyError, match="int for 'x'"):
        p.substitute({"x": 1})
    with pytest.raises(PolyError, match="for 'w'"):
        p.substitute({"w": x + y})
    with pytest.raises(PolyError, match="'x'"):
        p.substitute({"y": z, "x": Fraction(1, 2)})


def test_evaluate_agrees_with_substitution():
    """Full-point evaluation matches substituting constants throughout."""
    rng = random.Random(7)
    for _ in range(10):
        p = random_polynomial(rng, AMB)
        point = {v: Fraction(rng.randint(-3, 3)) for v in AMB}
        images = {v: Polynomial.constant(AMB, point[v]) for v in AMB}
        assert p.substitute(images).constant_term() == p.evaluate(point)


def test_evaluate_refuses_a_point_missing_a_variable():
    """A point with no value for a variable of the ambient is refused by name."""
    x, y = variables(("x", "y"))
    with pytest.raises(MissingAssignmentError, match=r"^no value for variable 'y'$"):
        (x + y).evaluate({"x": 1})


def test_evaluate_refuses_a_variable_outside_the_ambient():
    """A point entry for a variable outside the ambient is a PolyError that
    names it, as `substitute` refuses one, whether or not the point holds
    every ambient variable and whether or not the polynomial is constant."""
    x, y = variables(("x", "y"))
    for p, point in [(x + y, {"x": 1, "y": 2, "z": 5}), (x + y, {"z": 5}),
                     (Polynomial.constant(("x", "y"), 3), {"w": 0})]:
        name = next(v for v in point if v not in ("x", "y"))
        with pytest.raises(PolyError, match=f"for '{name}'") as refused:
            p.evaluate(point)
        assert type(refused.value) is PolyError
    with pytest.raises(PolyError, match="for 'z'"):
        (x + y).substitute({"z": x})
    assert (x + y).evaluate({"x": 1, "y": 2}) == 3


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
    rng = random.Random(13)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            rows = [[random_polynomial(rng, ("x", "y"), max_terms=2, max_exp=1)
                     for _ in range(n)] for _ in range(n)]
            assert determinant_fraction_free(rows) == cofactor_det(rows)


def test_determinant_golden():
    """det [[x, y], [1, x]] = x^2 - y."""
    x, y = variables(("x", "y"))
    one = Polynomial.constant(("x", "y"), 1)
    assert determinant_fraction_free([[x, y], [one, x]]) == x * x - y


def test_maximal_minors_match_cofactor_expansion():
    """Every k x k minor of seeded k x m matrices (k <= m <= 6), in
    column-subset order, equals its cofactor expansion; zero entries are
    frequent, and zero and all-zero-column minors come back as zero."""
    rng = random.Random(29)
    zero = Polynomial.zero(("x", "y"))
    saw_zero_minor = False
    for m in range(1, 7):
        for k in range(1, m + 1):
            for _ in range(2):
                rows = [[random_polynomial(rng, ("x", "y"), max_terms=2, max_exp=1)
                         for _ in range(m)] for _ in range(k)]
                if rng.random() < 0.3:
                    dead = rng.randrange(m)
                    for row in rows:
                        row[dead] = zero
                got = maximal_minors(rows)
                assert got == cofactor_minors(rows)
                saw_zero_minor = saw_zero_minor or any(not g for g in got)
    assert saw_zero_minor
    # rows [x, 0, y] and [1, x, 0]: minors on columns (0,1), (0,2), (1,2)
    x, y = variables(("x", "y"))
    one = Polynomial.constant(("x", "y"), 1)
    assert maximal_minors([[x, zero, y], [one, x, zero]]) == [x * x, -y, -x * y]


def test_determinant_never_divides(monkeypatch):
    """Determinants take no polynomial division: with `exact_divide` made to
    raise, 3 x 3 and 4 x 4 determinants still match cofactor expansion."""
    import vancyc.poly as poly

    def refuse(p, q):
        raise AssertionError("determinant divided")

    monkeypatch.setattr(poly, "exact_divide", refuse)
    rng = random.Random(41)
    for n in (3, 4):
        rows = [[random_polynomial(rng, ("x", "y"), max_terms=3, max_exp=2, nonzero=True)
                 for _ in range(n)] for _ in range(n)]
        assert determinant_fraction_free(rows) == cofactor_det(rows)


def test_determinant_rejects_malformed_matrices():
    """An empty, ragged or non-square matrix is a PolyError, so is a matrix
    with more rows than columns for its minors, and entries over different
    ambients are an AmbientMismatchError, for the determinant and the
    maximal minors alike."""
    x, y = variables(("x", "y"))
    z = Polynomial.variable(("z",), "z")
    for bad in ([], [[]], [[x, y], [x]], [[x, y]], [[x], [y]]):
        with pytest.raises(PolyError):
            determinant_fraction_free(bad)
    for bad in ([], [[]], [[x, y], [x]], [[x], [y]], [[x, y], [y, x], [x, x]]):
        with pytest.raises(PolyError):
            maximal_minors(bad)
    for mixed in ([[x, y], [z, x]], [[z, x], [y, x]]):
        for call in (determinant_fraction_free, maximal_minors):
            with pytest.raises(AmbientMismatchError):
                call(mixed)
    with pytest.raises(AmbientMismatchError):
        maximal_minors([[x, y, x], [x, y, z]])


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
    """gcd and squarefree part behave on small bivariate products; the gcd
    picks a fresh name for its elimination variable and answers zero and
    constant arguments directly."""
    x, y = variables(("x", "y"))
    g = gcd_polynomials((x - y) * (x + y), (x - y) ** 2)
    assert g == normalized(x - y)
    sf = squarefree_part_bivariate((x - y) ** 2 * (x + y))
    assert sf == normalized((x - y) * (x + y))
    for p, squarefree in ((x * x - y, True), ((x - y) ** 2 * (x + y), False)):
        assert squarefree == all(gcd_polynomials(p, p.partial_derivative(v)).is_constant()
                                 for v in p.effective_variables())
    assert normalized(-2 * (x - y)).lead()[1] == 1
    t, t_, x = variables(("t", "t_", "x"))
    assert gcd_polynomials((t - t_) * (t + x), (t - t_) ** 2 * x) == t - t_
    zero = Polynomial.zero(t.ambient)
    assert gcd_polynomials(zero, zero) == zero
    assert gcd_polynomials(zero, -2 * t * x) == t * x
    assert gcd_polynomials(Polynomial.constant(t.ambient, 3), t) == \
        Polynomial.constant(t.ambient, 1)


def test_squarefree_part_of_zero_is_refused():
    with pytest.raises(PolyError, match="zero polynomial"):
        squarefree_part_bivariate(Polynomial.zero(("x", "y")))


def test_rational_linear_algebra():
    """Rank agrees with hand values over Q; non-rational entries are refused."""
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[1, 2], [3, 4]]) == 2
    with pytest.raises(PolyError, match="rational"):
        rational_rank([[1.5]])


def test_ragged_matrices_are_refused():
    """A ragged matrix is a PolyError for the rank and the row echelon form,
    whichever row is short: [[1, 2], [3]] was an IndexError and [[1], [2, 3]]
    had rank 1."""
    for bad in ([[1, 2], [3]], [[1], [2, 3]], [[1, 2], [3, 4], []]):
        for call in (rational_rows, rref, rational_rank):
            with pytest.raises(PolyError, match="ragged"):
                call(bad)


def test_input_that_is_not_rows_is_refused():
    """A matrix that is not a sequence of rows is a PolyError wherever
    `rational_rows` reads it, not a TypeError from iterating it."""
    from vancyc.singularity import action_coordinates_germ
    from vancyc.steinberg import jacobian_rank_at, steinberg_map
    calls = (lambda: rational_rank([1, 2]), lambda: rational_rank(5),
             lambda: jacobian_rank_at(steinberg_map(1), [1, 2]),
             lambda: action_coordinates_germ(3, 2, 5))
    for call in calls:
        with pytest.raises(PolyError, match="sequence of rows"):
            call()


def test_rational_rows_are_new_canonical_rows():
    """rational_rows copies its input into lists of canonical coefficients:
    an integral Fraction becomes its int, and the input is left alone."""
    given = ((Fraction(4, 2), 3), [Fraction(1, 3), True])
    rows = rational_rows(given)
    assert rows == [[2, 3], [Fraction(1, 3), 1]]
    assert [type(a) for row in rows for a in row] == [int, int, Fraction, int]
    assert type(given[0][0]) is Fraction
    assert rational_rows([]) == [] and rational_rows([[]]) == [[]]


def test_rref_is_reduced_and_respects_the_pivot_block():
    """Pivot columns carry unit vectors; a dependent column gets no pivot."""
    m, pivots = rref([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    assert pivots == [0, 1]
    assert m == [[1, 0, -1], [0, 1, 2], [0, 0, 0]]
    assert rref([]) == ([], [])


def test_coefficient_extraction():
    """coefficient_in removes the chosen variable from the ambient."""
    p = parse_polynomial("x^2*y + x*y + y + 1", ("x", "y"))
    c1 = p.coefficient_in("x", 1)
    assert c1.ambient == ("y",)
    assert c1 == Polynomial.variable(("y",), "y")
    assert p.coefficient_in("x", 0) == parse_polynomial("y + 1", ("y",))


def test_over_reorders_extends_and_restricts():
    """over() keeps every term while it reorders the variables, adds a new
    one and drops an unused one, and the way back gives p again; it refuses
    an ambient that lacks a variable in use, and a duplicated ambient."""
    p = parse_polynomial("3*x^2*z - x*z^3 - z + 1/2", AMB)
    q = p.over(("z", "w", "x"))
    assert q.ambient == ("z", "w", "x")
    assert q == parse_polynomial("3*x^2*z - x*z^3 - z + 1/2", ("z", "w", "x"))
    assert sorted(q.terms) == [(0, 0, 0), (1, 0, 0), (1, 0, 2), (3, 0, 1)]
    assert_canonical(q)
    assert q.over(AMB) == p
    with pytest.raises(PolyError, match="lacks variables in use"):
        p.over(("x", "y", "w"))
    with pytest.raises(PolyError, match="duplicate"):
        p.over(("x", "z", "x"))


def test_copy_and_pickle_round_trips():
    """copy, deepcopy and pickle rebuild an equal polynomial with the same lead."""
    p = parse_polynomial("x^2*y - 3/2*y + 1", ("x", "y"))
    p.lead()  # fill the memo, which must not travel with the state
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p
        assert hash(twin) == hash(p)
        assert twin.lead() == p.lead()
