"""The germ file format: parsing, validation, and positioned errors."""

import pytest

from vancyc import suite
from vancyc.germfile import GermFileError, load_germ_file, parse_germ_text
from vancyc.poly import format_polynomial
from vancyc.singularity import action_coordinates_germ
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
    assert poisson_bracket(*gf.components, gf.context()).is_zero()


def test_symplectic_pairing_is_optional():
    """Files without a pairing still load, and asking for their Poisson
    structure is an error placed at line 1, column 1."""
    gf = parse_germ_text("vars: x y\ncomponent: x*y\n")
    assert gf.symplectic_pairs is None
    with pytest.raises(GermFileError) as exc:
        gf.context()
    assert (exc.value.line, exc.value.column) == (1, 1)
    assert str(exc.value) == "line 1, column 1: <germ> declares no symplectic pairing"


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
        ("vars: x y\ncomponent: x\ncomponent:  2 + x\n", 3, 13),
        ("  foo: x\n", 1, 3),
        ("vars: x\n   vars: x\ncomponent: x\n", 2, 4),
        ("vars: x y\nsymplectic: (x,y)\n\tsymplectic: (x,y)\ncomponent: x\n", 3, 2),
        (" component: x\nvars: x\n", 1, 2),
        ("  symplectic: (x,y)\nvars: x y\n", 1, 3),
    ]
    for text, line, column in cases:
        with pytest.raises(GermFileError) as exc:
            parse_germ_text(text)
        assert (exc.value.line, exc.value.column) == (line, column)


def test_name_and_pair_errors_are_pinned():
    """The messages and columns of the vars and symplectic scanners: a bad
    name, a repeated name, a repeated pair member, a malformed pair and an
    empty line each name the spot, whatever else the line holds."""
    cases = [
        ("vars: x 1y\ncomponent: x\n",
         "line 1, column 9: invalid name at '1'"),
        ("vars: x y x\ncomponent: x\n",
         "line 1, column 11: variable x declared twice"),
        ("vars: x y z w\nsymplectic: (x,y)  (y,z)\ncomponent: x\n",
         "line 2, column 20: variable y paired twice"),
        ("vars: x y\nsymplectic: (x,y) [x]\ncomponent: x\n",
         "line 2, column 19: expected a pair of the form (q,p)"),
        ("vars:\ncomponent: x\n",
         "line 1, column 6: vars line declares no variables"),
        ("vars: x y\nsymplectic:   \ncomponent: x\n",
         "line 2, column 12: symplectic line declares no pairs"),
        # every name is read before any repeat is sought; each pair is
        # checked before the next one is read
        ("vars: x x 1\ncomponent: x\n",
         "line 1, column 11: invalid name at '1'"),
        ("vars: x y\nsymplectic: (x,y) (y,x) [\ncomponent: x\n",
         "line 2, column 19: variable y paired twice"),
        ("vars: x y\nsymplectic: (x,z)(y\ncomponent: x\n",
         "line 2, column 13: undeclared variable z"),
    ]
    for text, message in cases:
        with pytest.raises(GermFileError) as exc:
            parse_germ_text(text)
        assert str(exc.value) == message, text


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
        gf = load_germ_file(germs_dir / name)
        comps, structure = gf.components, gf.context()
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                bracket = poisson_bracket(comps[i], comps[j], structure)
                assert bracket.is_zero(), (name, i + 1, j + 1, bracket)


def test_missing_file_is_oserror(germs_dir):
    """A nonexistent path surfaces as OSError for the CLI to map to exit 2."""
    with pytest.raises(OSError):
        load_germ_file(germs_dir / "no_such.germ")


def test_invalid_utf8_is_a_positioned_error(tmp_path):
    """A byte that is not valid UTF-8 is a GermFileError at its 1-based line
    and column, counted in the characters decoded before it, whatever the
    line ends; valid multi-byte characters still load."""
    cases = [
        (b"vars: x y\ncomponent: x\xff\n", 2, 13, 0xff),
        (b"vars: x y\r\ncomponent: x\r\n\xc3(\n", 3, 1, 0xc3),
        (b"vars: x y\ncomponent: \xc3\xa9x\xe2\x82\n", 2, 14, 0xe2),
        (b"\x80", 1, 1, 0x80),
    ]
    path = tmp_path / "bad.germ"
    for data, line, column, byte in cases:
        path.write_bytes(data)
        with pytest.raises(GermFileError) as exc:
            load_germ_file(path)
        assert (exc.value.line, exc.value.column) == (line, column), data
        assert str(exc.value) == (f"line {line}, column {column}: "
                                  f"byte {byte:#04x} is not valid UTF-8")
    path.write_bytes("# déjà vu\r\nvars: x y\r\ncomponent: x*y\r\n".encode())
    assert load_germ_file(path).variables == ("x", "y")


def test_one_leading_byte_order_mark_is_skipped(tmp_path):
    """A file saved with a UTF-8 byte-order mark loads as its text without
    the mark, and a bad byte's column on the first line is counted from the
    first character after it; a second mark is text, refused at column 1."""
    bom = b"\xef\xbb\xbf"
    text = "vars: x y\nsymplectic: (x,y)\ncomponent: x^2+y^3\n"
    path = tmp_path / "bom.germ"
    path.write_bytes(bom + text.encode())
    assert load_germ_file(path) == parse_germ_text(text, source_name=str(path))
    for data, line, column in [(bom + b"vars: x\xff\n", 1, 8),
                               (bom + b"vars: x y\ncomponent: x\xff\n", 2, 13)]:
        path.write_bytes(data)
        with pytest.raises(GermFileError, match="byte 0xff is not valid UTF-8") as exc:
            load_germ_file(path)
        assert (exc.value.line, exc.value.column) == (line, column), data
    path.write_bytes(bom + bom + text.encode())
    with pytest.raises(GermFileError, match="expected '<key>: <payload>'") as exc:
        load_germ_file(path)
    assert (exc.value.line, exc.value.column) == (1, 1)


@pytest.mark.parametrize("name, germ", [
    ("basic", suite.basic_germ()),
    ("henon_heiles", suite.henon_heiles_germ()),
    ("al6", action_coordinates_germ(3, 2, suite.AL_MATRICES[(3, 2)])),
])
def test_worked_example_files_match_the_suite_germs(germs_dir, name, germ):
    """Each worked example exists twice, as a germ file and as the germ the
    paper suite builds; both load to one MapGerm with the canonical pairing
    (q_i, p_i) of its ambient."""
    gf = load_germ_file(germs_dir / f"{name}.germ")
    assert gf.to_map_germ() == germ
    assert gf.symplectic_pairs == tuple(zip(germ.ambient[::2], germ.ambient[1::2]))
