"""The germ file format: parsing, validation, and positioned errors."""

import pytest

from vancyc.germfile import GermFileError, load_germ_file, parse_germ_text
from vancyc.poly import format_polynomial
from vancyc.symplectic import poisson_bracket

GOOD = """\
# a commuting pair on four coordinates
vars: q1 p1 q2 p2
symplectic: (q1,p1) (q2,p2)
component: p1*q1
component: p2
"""


def test_parse_good_text():
    """All keys land in the right fields and expressions parse over vars."""
    gf = parse_germ_text(GOOD, "inline")
    assert gf.source_name == "inline"
    assert gf.variables == ("q1", "p1", "q2", "p2")
    assert gf.symplectic_pairs == (("q1", "p1"), ("q2", "p2"))
    assert [format_polynomial(c, compact=True) for c in gf.components] == ["q1*p1", "p2"]
    germ = gf.to_map_germ()
    assert germ.context is not None
    assert poisson_bracket(*germ.components, germ.context).is_zero()


def test_symplectic_pairing_is_optional():
    """Files without a pairing still load; the germ has no context."""
    gf = parse_germ_text("vars: x y\ncomponent: x*y\n")
    assert gf.symplectic_pairs is None
    assert gf.to_map_germ().context is None


def test_error_positions_are_one_based():
    """Each rejected construct reports its 1-based line and column."""
    cases = [
        ("component: q1\nvars: q1 p1\n", 1, 1),
        ("vars: q1 q1\ncomponent: q1\n", 1, 10),
        ("vars: q1 p1\ncomponent: q1 + z\n", 2, 17),
        ("vars: q1 p1\ncomponent: q1 + + p1\n", 2, 17),
        ("vars: q1 p1\nsymplectic: (q1,p1)\nassume: pyramidal\ncomponent: q1\n", 3, 1),
        ("vars: q1 p1\nsingular_dim: 1\ncomponent: q1\n", 2, 1),
        ("vars: q1 p1\n", 1, 1),
        ("vars: q1 p1\nsymplectic: (q1,z)\ncomponent: q1\n", 2, 13),
        ("vars: q1 p1\nsymplectic: q1 p1\ncomponent: q1\n", 2, 13),
        ("vars: q1 p1\nbogus_key: 1\ncomponent: q1\n", 2, 1),
    ]
    for text, line, column in cases:
        with pytest.raises(GermFileError) as exc:
            parse_germ_text(text)
        assert (exc.value.line, exc.value.column) == (line, column)


def test_comments_and_blank_lines_are_ignored():
    """'#' comments and empty lines never affect the parse."""
    text = "\n# leading comment\nvars: x  # trailing\n\ncomponent: x^2\n# done\n"
    gf = parse_germ_text(text)
    assert gf.variables == ("x",)
    assert format_polynomial(gf.components[0]) == "x^2"


def test_load_bundled_fixtures(germs_dir):
    """Every bundled fixture file parses and converts to a germ."""
    names = sorted(p.name for p in germs_dir.glob("*.germ"))
    assert names == ["al6.germ", "basic.germ", "canonical_pair.germ",
                     "fold.germ", "henon_heiles.germ"]
    for name in names:
        gf = load_germ_file(germs_dir / name)
        assert gf.components
        gf.to_map_germ()


def test_bundled_pairs_commute(germs_dir):
    """The integrable fixtures really are pairwise in involution."""
    for name in ("basic.germ", "henon_heiles.germ", "al6.germ"):
        germ = load_germ_file(germs_dir / name).to_map_germ()
        comps = germ.components
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                bracket = poisson_bracket(comps[i], comps[j], germ.context)
                assert bracket.is_zero(), (name, i + 1, j + 1, bracket)


def test_missing_file_is_oserror(germs_dir):
    """A nonexistent path surfaces as OSError for the CLI to map to exit 2."""
    with pytest.raises(OSError):
        load_germ_file(germs_dir / "no_such.germ")
