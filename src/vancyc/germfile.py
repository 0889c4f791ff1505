"""Parser for the line-oriented germ file format.

A germ file declares a polynomial map germ: its variables, an optional
symplectic pairing of those variables, and one component expression per
``component:`` line.  ``#`` starts a comment.

    vars: q1 p1 q2 p2
    symplectic: (q1,p1) (q2,p2)
    component: p1*q1
    component: p2

Every component must vanish at the origin.  Parse and validation errors
carry 1-based line and column numbers.
"""

from __future__ import annotations

import codecs
import re
from dataclasses import dataclass

from .poly import IDENTIFIER, PolyParseError, Polynomial, parse_polynomial
from .symplectic import MapGerm, PoissonStructure

_IDENT = re.compile(IDENTIFIER)
_KEY = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_-]*)\s*:")
_PAIR = re.compile(rf"\(({IDENTIFIER}),({IDENTIFIER})\)")


class GermFileError(ValueError):
    """Parse or validation failure in a germ file, with 1-based position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class GermFile:
    """Parsed germ file: variables, optional pairing, components."""

    source_name: str
    variables: tuple[str, ...]
    symplectic_pairs: tuple[tuple[str, str], ...] | None
    components: tuple[Polynomial, ...]

    def context(self) -> PoissonStructure:
        """The canonical Poisson structure of the declared pairing, the
        bracket `vancyc bracket` takes; an error if the file has none."""
        if self.symplectic_pairs is None:
            raise GermFileError(
                f"{self.source_name} declares no symplectic pairing", 1, 1)
        return PoissonStructure.from_pairs(self.variables, self.symplectic_pairs)

    def to_map_germ(self) -> MapGerm:
        return MapGerm(self.variables, self.components)


def _fields(line: str, lineno: int) -> tuple[str, int, str, int] | None:
    """Split a raw line into (key, its column, payload, its column), 1-based."""
    stripped = line.split("#", 1)[0]
    if not stripped.strip():
        return None
    m = _KEY.match(stripped)
    if not m:
        col = len(stripped) - len(stripped.lstrip()) + 1
        raise GermFileError("expected '<key>: <payload>'", lineno, col)
    return m.group(1), m.start(1) + 1, stripped[m.end():], m.end() + 1


def _items(payload: str, pattern: re.Pattern, error: str, lineno: int, base_col: int):
    """Yield each whitespace-separated match of pattern with its column; at
    any other text, raise error, formatted with the character found there."""
    pos = 0
    while pos < len(payload):
        if payload[pos].isspace():
            pos += 1
            continue
        m = pattern.match(payload, pos)
        if not m:
            raise GermFileError(error.format(payload[pos]), lineno, base_col + pos)
        yield m, base_col + pos
        pos = m.end()


def parse_germ_text(text: str, source_name: str = "<germ>") -> GermFile:
    """Parse germ file text, validating names, pairing and expressions."""
    variables: tuple[str, ...] | None = None
    pairs: list[tuple[str, str]] | None = None
    components: list[Polynomial] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = _fields(raw, lineno)
        if parts is None:
            continue
        key, key_col, payload, col = parts
        if key == "vars":
            if variables is not None:
                raise GermFileError("duplicate vars line", lineno, key_col)
            names = [(m.group(0), ncol) for m, ncol in
                     _items(payload, _IDENT, "invalid name at {!r}", lineno, col)]
            if not names:
                raise GermFileError("vars line declares no variables", lineno, col)
            seen = set()
            for name, ncol in names:
                if name in seen:
                    raise GermFileError(f"variable {name} declared twice",
                                        lineno, ncol)
                seen.add(name)
            variables = tuple(name for name, _ in names)
        elif key == "symplectic":
            if variables is None:
                raise GermFileError("symplectic line must follow vars", lineno, key_col)
            if pairs is not None:
                raise GermFileError("duplicate symplectic line", lineno, key_col)
            pairs = []
            used = set()
            for m, pcol in _items(payload, _PAIR, "expected a pair of the form (q,p)",
                                  lineno, col):
                for name in m.groups():
                    if name not in variables:
                        raise GermFileError(f"undeclared variable {name}", lineno, pcol)
                    if name in used:
                        raise GermFileError(f"variable {name} paired twice", lineno, pcol)
                    used.add(name)
                pairs.append(m.groups())
            if not pairs:
                raise GermFileError("symplectic line declares no pairs",
                                    lineno, col)
        elif key == "component":
            if variables is None:
                raise GermFileError("component line must follow vars", lineno, key_col)
            expr = payload.strip()
            offset = payload.index(expr) if expr else 0
            try:
                component = parse_polynomial(expr, variables)
            except PolyParseError as exc:
                raise GermFileError(str(exc), lineno,
                                    col + offset + exc.position) from exc
            if component.constant_term():
                raise GermFileError(
                    f"component {expr} does not vanish at the origin",
                    lineno, col + offset)
            components.append(component)
        else:
            raise GermFileError(f"unknown key {key!r}", lineno, key_col)
    if variables is None:
        raise GermFileError("missing vars line", 1, 1)
    if not components:
        raise GermFileError("germ file declares no components", 1, 1)
    return GermFile(source_name, variables,
                    tuple(pairs) if pairs is not None else None,
                    tuple(components))


def load_germ_file(path) -> GermFile:
    """Read and parse a UTF-8 germ file from disk, after one leading
    byte-order mark if it has one; a byte that is not valid UTF-8 is an
    error at its line and column."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes; one more character stands for it
        lines = (data[:exc.start].decode("utf-8") + "\ufffd").splitlines()
        raise GermFileError(f"byte {data[exc.start]:#04x} is not valid UTF-8",
                            len(lines), len(lines[-1])) from None
    return parse_germ_text(text, source_name=str(path))
