"""Check results and line-oriented reports shared by the CLI subcommands.

Machine-readable form, one line per check, diff-able across runs:

    CHECK <name> <status> expected=<value> got=<value>

Statuses: pass, fail, skipped-budget.  Values never
contain spaces (polynomials are printed in their compact form).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .poly import Polynomial, format_polynomial

PASS = "pass"
FAIL = "fail"
SKIPPED_BUDGET = "skipped-budget"

_STATUSES = (PASS, FAIL, SKIPPED_BUDGET)


def format_value(value) -> str:
    """Space-free rendering of a check value for a report line."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Polynomial):
        return format_polynomial(value, compact=True)
    if isinstance(value, str):
        return value.replace(" ", "")
    if isinstance(value, (tuple, list)):
        return ",".join(format_value(v) for v in value)
    if isinstance(value, dict):
        return ";".join(f"{k}={format_value(v)}" for k, v in value.items())
    return str(value).replace(" ", "")


@dataclass(frozen=True)
class CheckResult:
    """A single named check with its status and compared values."""

    name: str
    status: str
    expected: object
    got: object
    note: str = ""

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if " " in self.name:
            raise ValueError("check names must not contain spaces")

    def line(self) -> str:
        return (f"CHECK {self.name} {self.status} "
                f"expected={format_value(self.expected)} "
                f"got={format_value(self.got)}")


def check(name: str, expected, got, note: str = "") -> CheckResult:
    """Pass/fail check comparing formatted expected and computed values."""
    status = PASS if format_value(expected) == format_value(got) else FAIL
    return CheckResult(name, status, expected, got, note)


@dataclass
class Report:
    """Ordered collection of check results with aggregate exit semantics."""

    checks: list[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> CheckResult:
        self.checks.append(result)
        return result

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]

    def note_lines(self) -> list[str]:
        return [f"NOTE {c.name} {c.note}" for c in self.checks if c.note]

    @property
    def failed(self) -> bool:
        return any(c.status == FAIL for c in self.checks)

    @property
    def budget_exhausted(self) -> bool:
        return any(c.status == SKIPPED_BUDGET for c in self.checks)

    def exit_code(self) -> int:
        """0 all-pass, 1 any failure, 3 budget exhausted without failure."""
        if self.failed:
            return 1
        if self.budget_exhausted:
            return 3
        return 0
