"""Fuzzing the two text parsers: `parse_polynomial` may fail only with a
positioned `PolyParseError`, and a germ file only with a positioned
`GermFileError`.  Skipped when hypothesis is not installed."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vancyc.germfile import GermFileError, parse_germ_text  # noqa: E402
from vancyc.poly import PolyParseError, parse_polynomial  # noqa: E402

AMB = ("x", "y", "z")

# Token soup is joined by spaces, so every integer has one digit, and at most
# 12 tokens nest powers at most as deep as ((x+y)^9)^9, which the parser's
# expansion cap rejects.  Well-formed expressions raise only atoms to a
# power and the raw text has no '^', so that every case stays quick.
TOKENS = ["x", "y", "z", "w", "x1", "0", "1", "2", "9", "3/2", "1/0", "2/x",
          "+", "-", "*", "^", "/", "(", ")", "$", "٣", "\t"]
token_soup = st.lists(st.sampled_from(TOKENS), max_size=12).map(" ".join)
atoms = st.sampled_from(["x", "y", "z", "0", "1", "2", "3/2"])
leaves = st.one_of(atoms, st.builds("{}^{}".format, atoms, st.sampled_from("0129")))
well_formed = st.recursive(
    leaves, lambda e: st.builds("({} {} {})".format, e, st.sampled_from("+-*"), e),
    max_leaves=6)
expressions = st.one_of(well_formed, token_soup)
raw_text = st.text(alphabet="xyz019+-*/() .#:\né", max_size=30)

# Most texts start with a valid header, so the component lines get checked.
headers = st.sampled_from(["vars: x y z", "vars: x y z\nsymplectic: (x,y)", ""])
LINES = ["vars: x x", "vars:", "symplectic: (x,y)", "symplectic: (x,w)",
         "symplectic: x y", "bogus: 1", "# comment", "", "  :", "component:"]
germ_lines = st.one_of(expressions.map("component: {}".format), st.sampled_from(LINES))
germ_texts = st.one_of(
    st.builds(lambda h, rest: "\n".join([h] + rest), headers,
              st.lists(germ_lines, min_size=1, max_size=4)),
    raw_text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(expressions, raw_text))
def test_parse_polynomial_fails_only_with_a_position(text):
    """Any exception but PolyParseError, at a position inside the text,
    escapes and fails the test."""
    try:
        parse_polynomial(text, AMB)
    except PolyParseError as exc:
        assert 0 <= exc.position <= len(text), (text, exc.position)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(germ_texts)
def test_germ_text_fails_only_with_a_position(text):
    """Parsing and building the map germ raise nothing but GermFileError,
    at a line of the text (line 1 for a missing line) and a column >= 1."""
    try:
        parse_germ_text(text).to_map_germ()
    except GermFileError as exc:
        assert 1 <= exc.line <= max(1, len(text.splitlines())), (text, exc.line)
        assert exc.column >= 1, (text, exc.column)
