"""End-to-end command-line behavior: output lines and the exit-code contract."""

import sys

import pytest

from vancyc import cli, suite
from vancyc.cli import main
from vancyc.poly import MAX_EXPONENT, MAX_NESTING
from vancyc.report import FAIL


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err.splitlines()


def test_bracket_of_canonical_pair(capsys, germs_dir):
    """{q1, p1} = 1 printed as a bare polynomial."""
    code, out, err = run(capsys, "bracket", str(germs_dir / "canonical_pair.germ"), "1", "2")
    assert code == 0
    assert out == ["1"]
    assert err == []


def test_bracket_index_out_of_range(capsys, germs_dir):
    """Component indices are 1-based and validated."""
    code, out, err = run(capsys, "bracket", str(germs_dir / "basic.germ"), "0", "2")
    assert code == 2
    assert "out of range" in err[0]


def test_bracket_requires_symplectic_block(capsys, germs_dir):
    """A germ without a pairing cannot be bracketed."""
    code, out, err = run(capsys, "bracket", str(germs_dir / "fold.germ"), "1", "1")
    assert code == 2
    assert "no symplectic pairing" in err[0]


# stdout of `bracket FILE i j` for every ordered pair of components of each
# bundled germ file with a pairing; only {q1, p1} is nonzero
BRACKET_PINS = {
    "al6.germ": {(1, 1): "0", (1, 2): "0", (2, 1): "0", (2, 2): "0"},
    "basic.germ": {(1, 1): "0", (1, 2): "0", (2, 1): "0", (2, 2): "0"},
    "canonical_pair.germ": {(1, 1): "0", (1, 2): "1", (2, 1): "-1", (2, 2): "0"},
    "henon_heiles.germ": {(1, 1): "0", (1, 2): "0", (2, 1): "0", (2, 2): "0"},
}


@pytest.mark.parametrize("name", sorted(BRACKET_PINS))
def test_bracket_pins(capsys, germs_dir, name):
    """The bracket of every ordered pair of components, exit 0, no stderr."""
    for (i, j), want in BRACKET_PINS[name].items():
        code, out, err = run(capsys, "bracket", str(germs_dir / name), str(i), str(j))
        assert (code, out, err) == (0, [want], []), (name, i, j)


def test_bracket_pin_without_a_pairing(capsys, germs_dir):
    """fold.germ declares no pairing: exit 2 and one positioned error line."""
    path = germs_dir / "fold.germ"
    code, out, err = run(capsys, "bracket", str(path), "1", "1")
    assert (code, out) == (2, [])
    assert err == [f"error: line 1, column 1: {path} declares no symplectic pairing"]


def test_discriminant_file_mode(capsys, germs_dir):
    """Full elimination output: target, generators, reduced form, multiplicity."""
    code, out, err = run(capsys, "discriminant", str(germs_dir / "basic.germ"))
    assert code == 0
    assert out == ["target: s1 s2", "generator: s1", "reduced: s1", "multiplicity: 1"]


def test_discriminant_file_mode_three_components(capsys, tmp_path):
    """A germ to C^3 reports the multiplicity of its surface: C(4, 2) = 6
    planes for the (4, 3) action-coordinate germ."""
    germ = tmp_path / "al8.germ"
    germ.write_text("vars: q1 p1 q2 p2 q3 p3 q4 p4\n"
                    "component: p1*q1+p4*q4\n"
                    "component: p2*q2+p4*q4\n"
                    "component: p3*q3+p4*q4\n", encoding="utf-8")
    code, out, err = run(capsys, "discriminant", str(germ))
    assert code == 0
    assert out[0] == "target: s1 s2 s3"
    assert out[-1] == "multiplicity: 6"


def test_discriminant_given_mode(capsys):
    """--given reduces the provided curve and reports its origin multiplicity."""
    code, out, err = run(capsys, "discriminant", "--given", "s2*(s2^3-s1^4)")
    assert code == 0
    assert out == ["given: -s1^4*s2 + s2^4",
                   "reduced: s1^4*s2 - s2^4",
                   "multiplicity: 4"]


def test_discriminant_given_names_and_syntax_errors(capsys):
    """--given reads every identifier as a variable, in sorted order, and a
    syntax error is a positioned error with exit 2."""
    code, out, err = run(capsys, "discriminant", "--given", "x_1^2*y2+x_1*y2^2")
    assert (code, err) == (0, [])
    assert out == ["given: x_1^2*y2 + x_1*y2^2",
                   "reduced: x_1^2*y2 + x_1*y2^2",
                   "multiplicity: 3"]
    code, out, err = run(capsys, "discriminant", "--given", "2x")
    assert (code, out) == (2, [])
    assert err == ["error: trailing input 'x' (at position 1)"]


def test_discriminant_given_curve_off_origin(capsys):
    """A given curve that misses the origin is an error, as on the elimination path."""
    for curve in ("1", "s1+1"):
        code, out, err = run(capsys, "discriminant", "--given", curve)
        assert code == 2
        assert out == []
        assert err == ["error: discriminant does not pass through the origin"]


def test_discriminant_given_off_origin_is_refused_before_its_squarefree_part(
        capsys, monkeypatch):
    """The origin is read off the given curve's constant term: a huge curve
    off the origin exits 2 without a Buchberger run."""
    def no_squarefree_part(*args):
        raise AssertionError("squarefree part computed")
    monkeypatch.setattr(cli, "squarefree_part_bivariate", no_squarefree_part)
    code, out, err = run(capsys, "discriminant", "--given", "s1^999999 + 1")
    assert code == 2
    assert out == []
    assert err == ["error: discriminant does not pass through the origin"]


def test_discriminant_without_divisorial_part(capsys, tmp_path):
    """(x z, y z) eliminates to the origin alone: its generators and the note,
    with no reduced generator and no multiplicity."""
    germ = tmp_path / "point.germ"
    germ.write_text("vars: x y z\ncomponent: x*z\ncomponent: y*z\n", encoding="utf-8")
    code, out, err = run(capsys, "discriminant", str(germ))
    assert code == 0
    assert out == ["target: s1 s2", "generator: s2", "generator: s1",
                   "note: eliminated ideal has no divisorial part"]


def test_discriminant_budget_exhaustion(capsys, germs_dir):
    """A zero S-pair budget exits 3 with the stopped-after diagnostic on
    stderr, as every command reports a spent budget."""
    code, out, err = run(capsys, "discriminant", str(germs_dir / "basic.germ"),
                         "--budget", "0")
    assert code == 3
    assert out == []
    assert err == ["budget-exhausted: stopped after 0 S-pairs (limit 0)"]


def test_discriminant_given_budget_exhaustion(capsys):
    """--budget caps the squarefree part of a given curve too."""
    code, out, err = run(capsys, "discriminant", "--given", "s2*(s2^3-s1^4)",
                         "--budget", "0")
    assert code == 3
    assert out == []
    assert err == ["budget-exhausted: stopped after 0 S-pairs (limit 0)"]


def test_discriminant_requires_input(capsys):
    """No file and no --given is a usage error."""
    code, out, err = run(capsys, "discriminant")
    assert code == 2


def test_discriminant_refuses_file_and_given(capsys, germs_dir):
    """A germ file and --given together are a usage error: neither is ignored."""
    code, out, err = run(capsys, "discriminant", str(germs_dir / "basic.germ"),
                         "--given", "s1")
    assert code == 2
    assert out == []
    assert len(err) == 1 and err[0].startswith("error:")


def test_missing_germ_file(capsys, germs_dir):
    """Unreadable paths map to exit 2 with an error line."""
    code, out, err = run(capsys, "discriminant", str(germs_dir / "no_such.germ"))
    assert code == 2
    assert err and err[0].startswith("error:")


def test_bad_germ_file_reports_position(capsys, tmp_path):
    """Syntax errors and components off the origin carry line/column in the
    message."""
    bad = tmp_path / "bad.germ"
    bad.write_text("vars: x\ncomponent: x + + 1\n")
    code, out, err = run(capsys, "discriminant", str(bad))
    assert code == 2
    assert "line 2" in err[0]
    bad.write_text("vars: x\ncomponent: x\ncomponent: 2\n")
    code, out, err = run(capsys, "discriminant", str(bad))
    assert code == 2
    assert err == ["error: line 3, column 12: component 2 does not vanish at the origin"]


def test_deep_parentheses_are_a_positioned_error(capsys, tmp_path):
    """Parentheses nested past the parser's cap are an input error (exit 2)
    with its position, in a germ file and in --given, not a traceback."""
    deep = "(" * 300 + "x" + ")" * 300
    bad = tmp_path / "deep.germ"
    bad.write_text(f"vars: x\ncomponent: {deep}\n", encoding="utf-8")
    code, out, err = run(capsys, "discriminant", str(bad))
    assert code == 2
    assert err == [f"error: line 2, column {12 + MAX_NESTING}: more than "
                   f"{MAX_NESTING} nested parentheses (at position {MAX_NESTING})"]
    code, out, err = run(capsys, "discriminant", "--given", deep.replace("x", "s1"))
    assert code == 2
    assert err == [f"error: more than {MAX_NESTING} nested parentheses "
                   f"(at position {MAX_NESTING})"]


def test_invalid_utf8_germ_file_is_a_positioned_error(capsys, tmp_path):
    """A germ file with a byte that is not UTF-8 exits 2 with one
    positioned error line from discriminant and bracket, not a traceback."""
    bad = tmp_path / "bad.germ"
    bad.write_bytes(b"vars: x y\ncomponent: x\xff\n")
    for argv in (["discriminant", str(bad)], ["bracket", str(bad), "1", "1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, [])
        assert err == ["error: line 2, column 13: byte 0xff is not valid UTF-8"]


def test_overlong_integer_is_a_positioned_error(capsys, tmp_path):
    """An integer token past Python's int-string limit exits 2 with its
    position, as a literal, an exponent or a denominator, in --given and in
    a germ file."""
    limit = sys.get_int_max_str_digits()
    long = "1" * (limit + 1)
    message = f"integer longer than {limit} digits"
    for given, pos in [(f"{long}*s1", 0), (f"s1^{long}", 3), (f"s2 - 1/{long}*s1", 7)]:
        code, out, err = run(capsys, "discriminant", "--given", given)
        assert (code, out) == (2, [])
        assert err == [f"error: {message} (at position {pos})"]
    bad = tmp_path / "long.germ"
    bad.write_text(f"vars: x\ncomponent: x^{long}\n", encoding="utf-8")
    code, out, err = run(capsys, "discriminant", str(bad))
    assert (code, out) == (2, [])
    assert err == [f"error: line 2, column 14: {message} (at position 2)"]


def test_exponent_past_the_cap_is_a_positioned_error(capsys, tmp_path):
    """A power whose exponent passes MAX_EXPONENT exits 2 with the position
    of its '^', in a germ file and in --given, before the rest of the line
    is read and before any division index is built; so does a power of a
    constant whose exponent is too large for a float."""
    message = f"expanding '^' may exceed exponent {MAX_EXPONENT}"
    bad = tmp_path / "power.germ"
    bad.write_text(f"vars: q p\nsymplectic: (q,p)\ncomponent: q^{MAX_EXPONENT + 1}\n"
                   "component: p\n", encoding="utf-8")
    code, out, err = run(capsys, "bracket", str(bad), "1", "2")
    assert (code, out) == (2, [])
    assert err == [f"error: line 3, column 13: {message} (at position 1)"]
    for given, pos in [(f"s1^{MAX_EXPONENT + 1} + 1/0", 2), ("s2 - 2^" + "9" * 400, 6)]:
        code, out, err = run(capsys, "discriminant", "--given", given)
        assert (code, out) == (2, [])
        assert err == [f"error: {message} (at position {pos})"]


def test_germ_file_with_a_byte_order_mark(capsys, tmp_path):
    """One leading UTF-8 byte-order mark is skipped: the file gives the
    output of the same file without it, and positions on its first line are
    counted from the first character after it."""
    path = tmp_path / "bom.germ"
    text = b"vars: x y\ncomponent: x^2+y^3\n"
    path.write_bytes(text)
    want = run(capsys, "discriminant", str(path))
    assert want[0] == 0
    path.write_bytes(b"\xef\xbb\xbf" + text)
    assert run(capsys, "discriminant", str(path)) == want
    path.write_bytes(b"\xef\xbb\xbfvars: x\xff y\ncomponent: x\n")
    code, out, err = run(capsys, "discriminant", str(path))
    assert (code, out) == (2, [])
    assert err == ["error: line 1, column 8: byte 0xff is not valid UTF-8"]


def test_coxeter_full_run(capsys):
    """Type A3: braid relations, group order 24, Coxeter element order 4."""
    code, out, err = run(capsys, "coxeter", "A3")
    assert code == 0
    assert out == [
        "CHECK braid-A3 pass expected=true got=true",
        "CHECK order-A3 pass expected=24 got=24",
        "CHECK coxeter-element-A3 pass expected=4 got=4",
    ]


def test_coxeter_single_check(capsys):
    """--check braid restricts the output to one CHECK line."""
    code, out, err = run(capsys, "coxeter", "G2", "--check", "braid")
    assert code == 0
    assert out == ["CHECK braid-G2 pass expected=true got=true"]


def test_coxeter_rejects_unsupported_type(capsys):
    """Unknown types, ranks past 8 and non-canonical spellings are usage
    errors; the error line lists the accepted labels, E7 and E8 among them."""
    for label in ("A9", "Z9", "A99", "A08"):
        code, out, err = run(capsys, "coxeter", label)
        assert (code, out) == (2, [])
        assert err[0].startswith(f"error: unsupported type '{label}' (supported: A1, ")
        assert "D8, E6, E7, E8, F4, G2)" in err[0]


def test_coxeter_and_weyl_orders_share_the_order_check(capsys, monkeypatch):
    """A wrong orbit-stabilizer count fails `coxeter --check order` and the
    suite's weyl-orders gate alike, since both use one check."""
    real = suite.weyl_group_order
    monkeypatch.setattr(suite, "weyl_group_order", lambda cartan: real(cartan) + 1)
    code, out, err = run(capsys, "coxeter", "A3", "--check", "order")
    assert code == 1
    assert out == ["CHECK order-A3 fail expected=24 got=25"]
    assert suite.check_weyl_orders().status == FAIL


def test_braid_relations_note_names_failing_types(monkeypatch):
    """On failure the braid-relations note names each failing type's check
    and its witness pair."""
    real = suite.braid_relation_check

    def rank_two_fails(gens, coxeter):
        return (False, (0, 1)) if len(gens) == 2 else real(gens, coxeter)

    monkeypatch.setattr(suite, "braid_relation_check", rank_two_fails)
    result = suite.check_braid_relations()
    assert result.status == FAIL
    assert result.got == "5/8"
    assert result.note == ("failing: braid-A2 failing pair (0, 1); "
                           "braid-B2 failing pair (0, 1); braid-G2 failing pair (0, 1)")


def test_fold_and_folding_groups_share_the_rank_check(capsys, monkeypatch):
    """A failing quotient-rank check fails `fold` and reads rank:bad in the
    suite's folding-groups gate, since both use one check."""
    monkeypatch.setattr(suite, "quotient_rank_check", lambda folding: False)
    code, out, err = run(capsys, "fold", "D4", "full")
    assert code == 1
    assert out[-1] == "CHECK fold-quotient-rank fail expected=true got=false"
    result = suite.check_folding_groups()
    assert result.status == FAIL
    assert result.got.split(";")[-2:] == ["id:trivial", "rank:bad"]


def test_fold_d4_full(capsys):
    """The full fold prints type, group order/name, abelianness, rank check."""
    code, out, err = run(capsys, "fold", "D4", "full", "--notes")
    assert code == 0
    assert out == [
        "CHECK fold-type pass expected=G2 got=G2",
        "CHECK fold-group-order pass expected=6 got=6",
        "CHECK fold-group-abelian pass expected=false got=false",
        "CHECK fold-quotient-rank pass expected=true got=true",
        "NOTE fold-type orbits {0,2,3};{1}",
        "NOTE fold-group-order group S3",
    ]


def test_fold_flip_of_odd_a_uses_the_closed_form(capsys):
    """A_{2k-1} folds onto C_k by its flip, also outside the table (A9 -> C5)."""
    code, out, err = run(capsys, "fold", "A9", "flip")
    assert code == 0
    assert out[0] == "CHECK fold-type pass expected=C5 got=C5"
    assert all(" pass " in line for line in out)


def test_fold_without_expectation_is_a_usage_error(capsys):
    """A folding with no independent expected value is refused, not self-checked."""
    code, out, err = run(capsys, "fold", "A1", "flip")
    assert code == 2
    assert out == []
    assert err == ["error: no independent expectation for folding A1 by 'flip'"]


def test_negative_budget_is_a_usage_error(capsys, germs_dir):
    """Both --budget flags reject negative values through argparse (exit 2)."""
    for argv in (["paper-suite", "--budget", "-1"],
                 ["discriminant", str(germs_dir / "basic.germ"), "--budget", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected a non-negative integer, got '-1'" in err


def test_fold_rejects_non_simply_laced(capsys):
    """Folding a multiply-laced source is an input error."""
    code, out, err = run(capsys, "fold", "B3", "flip")
    assert code == 2
    assert err and err[0].startswith("error:") and "B3" in err[0]


def test_steinberg_all_checks(capsys):
    """Rank 2 runs five checks."""
    code, out, err = run(capsys, "steinberg", "--rank", "2", "--check", "all")
    assert code == 0
    assert out == [
        "CHECK steinberg-casimir pass expected=true got=true",
        "CHECK steinberg-rank-subregular pass expected=1 got=1",
        "CHECK steinberg-rank-regular pass expected=2 got=2",
        "CHECK steinberg-discriminant pass expected=2 got=2",
        "CHECK steinberg-slice pass expected=true got=true",
    ]


def test_steinberg_rank_one(capsys):
    """Rank 1 drops the slice check instead of failing it."""
    code, out, err = run(capsys, "steinberg", "--rank", "1", "--check", "all")
    assert code == 0
    assert all("steinberg-slice" not in line for line in out)


def test_steinberg_usage_errors(capsys):
    """Unsupported ranks and the rank-1 slice request are usage errors."""
    code, _, err = run(capsys, "steinberg", "--rank", "3")
    assert code == 2
    assert err == ["error: only ranks 1 and 2 are supported"]
    code, _, err = run(capsys, "steinberg", "--rank", "1", "--check", "slice")
    assert code == 2


def test_paper_suite_passes(capsys):
    """All twelve checks pass at the default budget and exit 0."""
    code, out, err = run(capsys, "paper-suite")
    assert code == 0
    assert len(out) == 12
    assert all(line.startswith("CHECK ") for line in out)
    assert all(" pass " in line for line in out)
    assert err == ["paper-suite: 12 pass, 0 fail, 0 skipped-budget"]


def test_paper_suite_is_deterministic(capsys):
    """Two runs at the same budget produce byte-identical reports."""
    code1 = main(["paper-suite"])
    first = capsys.readouterr().out
    code2 = main(["paper-suite"])
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second


def test_paper_suite_budget_zero(capsys):
    """Elimination-gated checks skip cleanly; everything else still passes."""
    code, out, err = run(capsys, "paper-suite", "--budget", "0")
    assert code == 3
    assert len(out) == 12
    skipped = [line.split()[1] for line in out if " skipped-budget " in line]
    assert skipped == ["discriminant-basic", "discriminant-al6",
                       "arnold-liouville-binomial", "henon-heiles", "steinberg-suite"]
    assert sum(" pass " in line for line in out) == 7
    assert err == ["paper-suite: 7 pass, 0 fail, 5 skipped-budget"]


def test_paper_suite_notes(capsys):
    """--notes appends NOTE lines after the CHECK block."""
    code, out, err = run(capsys, "paper-suite", "--notes")
    assert code == 0
    notes = [line for line in out if line.startswith("NOTE ")]
    assert notes
    assert all(line.startswith(("CHECK ", "NOTE ")) for line in out)
    assert any(line.startswith("NOTE henon-heiles ") for line in out)


def test_argparse_usage_errors():
    """No subcommand or an unknown one exits 2 via the parser."""
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
