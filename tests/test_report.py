"""CHECK-line formatting, value rendering, and exit-code aggregation."""

from fractions import Fraction

import pytest

from vancyc.poly import parse_polynomial
from vancyc.report import (
    FAIL,
    PASS,
    SKIPPED_BUDGET,
    CheckResult,
    Report,
    check,
    format_value,
)


def test_format_value():
    """Values render space-free: none/true/false, compact polynomials, joins."""
    assert format_value(None) == "none"
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(7) == "7"
    assert format_value(Fraction(1, 2)) == "1/2"
    assert format_value("a b c") == "abc"
    assert format_value((1, 2, 3)) == "1,2,3"
    assert format_value({"gen": "s1", "mult": 1}) == "gen=s1;mult=1"
    p = parse_polynomial("s1^2*s2 - s1*s2^2", ("s1", "s2"))
    assert format_value(p) == "s1^2*s2-s1*s2^2"


def test_check_result_validation():
    """Names with spaces and unknown statuses are rejected."""
    with pytest.raises(ValueError):
        CheckResult("bad name", PASS, "1", "1")
    with pytest.raises(ValueError):
        CheckResult("ok", "maybe", "1", "1")


def test_check_compares_formatted_values():
    """check() passes exactly when the rendered values agree."""
    assert check("t", 3, 3).status == PASS
    assert check("t", 3, 4).status == FAIL
    assert check("t", (1, 2), (1, 2)).status == PASS
    line = check("involutivity", "0;0", "0;0").line()
    assert line == "CHECK involutivity pass expected=0;0 got=0;0"


def test_report_exit_codes():
    """fail -> 1 dominates; skipped-budget alone -> 3; otherwise 0."""
    ok = check("a", 1, 1)
    bad = check("b", 1, 2)
    skipped = CheckResult("c", SKIPPED_BUDGET, "1", None)

    r = Report()
    r.add(ok)
    assert r.exit_code() == 0
    assert not r.failed

    r.add(skipped)
    assert r.exit_code() == 3
    assert r.budget_exhausted

    r.add(bad)
    assert r.exit_code() == 1
    assert r.failed


def test_report_lines_and_notes():
    """lines() is one CHECK line per result; notes render separately."""
    r = Report()
    r.add(check("first", "x", "x"))
    r.add(check("second", 2, 2, note="explained"))
    assert r.lines() == [
        "CHECK first pass expected=x got=x",
        "CHECK second pass expected=2 got=2",
    ]
    assert r.note_lines() == ["NOTE second explained"]
