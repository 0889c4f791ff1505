"""Sparse multivariate polynomials over Q with exact arithmetic.

A polynomial is a dict from exponent tuples (one slot per ambient variable)
to nonzero coefficients, each in one canonical form: an int when its value
is an integer, a `fractions.Fraction` with denominator > 1 otherwise.  So
int sums and products never build a Fraction; every true division of a
coefficient goes through `Fraction`, and a float is refused.  The module
also carries the exact linear algebra used elsewhere in the package: the
maximal minors of a polynomial matrix (one Laplace expansion over column
subsets, with no division) and so its determinant, gcds (through an lcm
from the Buchberger algorithm of `groebner`) and squarefree parts in any
number of variables, and Gauss-Jordan elimination (reduced row echelon form
and rank) over Q.  A matrix, of polynomials or of numbers, is a list
(or tuple) of rows, as everywhere in the package; `rational_rows` is the one
reader of a matrix of numbers.  `IDENTIFIER` is the one syntax of a variable
name, shared by the parser, germ files and `vancyc discriminant --given`.

An order key maps an exponent tuple to a flat tuple of ints, so that plain
tuple comparison is the monomial order.  Lead terms are memoized inside
each immutable Polynomial (`Polynomial.lead`), so a divisor's lead is found
once per order.  Multivariate division lives in `groebner`, beside the
divisor index it runs on; `exact_divide` reads `groebner.divmod_polynomials`
at call time, as `gcd_polynomials` reads `groebner.buchberger`.

`Polynomial.over` is the one change of ambient: it reorders, adds and
drops variables, and refuses to drop one in use.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import chain, combinations
from math import comb, lcm, log2
from operator import add, neg
from typing import Mapping, Sequence


# The default cap on the S-pairs of one Buchberger run.  It lives here, not
# in groebner, because the gcd below takes it as a default and groebner
# imports this module; groebner re-exports it.
DEFAULT_PAIR_LIMIT = 200_000


class PolyError(ValueError):
    """Base class for polynomial-layer errors."""


class AmbientMismatchError(PolyError):
    """Raised when two polynomials over different variable tuples are combined."""


class PolyParseError(PolyError):
    """Syntax error in a polynomial expression; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(PolyParseError):
    """An identifier in the input is not an ambient variable."""

    def __init__(self, name: str, position: int):
        PolyParseError.__init__(self, f"unknown variable '{name}'", position)
        self.name = name


class MissingAssignmentError(PolyError):
    """evaluate() was called without a value for a variable that occurs."""


def grevlex_key(exponents: Sequence[int]) -> tuple[int, ...]:
    """Sort key for graded reverse lexicographic order (max = largest
    monomial): the flat tuple (deg, -e_n, ..., -e_1)."""
    return (sum(exponents), *map(neg, reversed(exponents)))


def _as_coefficient(value) -> int | Fraction:
    """A rational value in canonical form: its int when it is an integer,
    otherwise a Fraction (with denominator > 1)."""
    if isinstance(value, (int, Fraction)):
        return value.numerator if value.denominator == 1 else value
    raise PolyError(f"coefficient must be rational, got {type(value).__name__}")


def _integral(terms: dict) -> dict:
    """The terms with each Fraction coefficient of denominator 1 replaced by
    its int, in place: canonical again after arithmetic that met a Fraction."""
    for e, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[e] = c.numerator
    return terms


def _has_fraction(terms: Mapping) -> bool:
    return Fraction in set(map(type, terms.values()))


class Polynomial:
    """Immutable sparse polynomial over Q in a fixed tuple of variables."""

    # _lead memoizes the last lead() as (key function, (exponents, coefficient))
    __slots__ = ("ambient", "terms", "_lead")

    def __init__(self, ambient: Sequence[str], terms: Mapping[tuple, object] | None = None):
        ambient = tuple(ambient)
        if len(set(ambient)) != len(ambient):
            raise PolyError(f"duplicate variable in ambient {ambient}")
        clean: dict[tuple[int, ...], int | Fraction] = {}
        if terms:
            n = len(ambient)
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != n or any((not isinstance(e, int)) or e < 0 for e in exps):
                    raise PolyError(f"bad exponent tuple {exps} for ambient of size {n}")
                c = _as_coefficient(coeff)
                if c:
                    clean[exps] = _as_coefficient(clean.get(exps, 0) + c)
                    if not clean[exps]:
                        del clean[exps]
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_lead", None)

    @classmethod
    def _trusted(cls, ambient: tuple[str, ...], terms: dict) -> "Polynomial":
        """Wrap terms that are already canonical: an ambient tuple without
        duplicates, exponent tuples of its length with non-negative ints, and
        nonzero coefficients, each an int or a Fraction with denominator > 1.
        The dict is taken over, not copied."""
        p = object.__new__(cls)
        object.__setattr__(p, "ambient", ambient)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_lead", None)
        return p

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the terms; the lead memo is not state
        return Polynomial, (self.ambient, self.terms)

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ambient) -> "Polynomial":
        return cls(ambient, {})

    @classmethod
    def constant(cls, ambient, value) -> "Polynomial":
        ambient = tuple(ambient)
        return cls(ambient, {(0,) * len(ambient): value})

    @classmethod
    def variable(cls, ambient, name: str) -> "Polynomial":
        ambient = tuple(ambient)
        if name not in ambient:
            raise PolyError(f"variable '{name}' not in ambient {ambient}")
        exps = tuple(1 if v == name else 0 for v in ambient)
        return cls(ambient, {exps: 1})

    # ---- basic queries -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_term(self) -> int | Fraction:
        return self.terms.get((0,) * len(self.ambient), 0)

    def order_at_origin(self) -> int:
        """Minimal total degree of a term (the multiplicity of 0 as a point of the zero set)."""
        if not self.terms:
            raise PolyError("order at origin of the zero polynomial is undefined")
        return min(sum(e) for e in self.terms)

    def effective_variables(self) -> tuple[str, ...]:
        used = [False] * len(self.ambient)
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.ambient, used) if u)

    def _index(self, var: str) -> int:
        try:
            return self.ambient.index(var)
        except ValueError:
            raise PolyError(f"variable '{var}' not in ambient {self.ambient}") from None

    def lead(self, key=grevlex_key) -> tuple[tuple[int, ...], int | Fraction]:
        """(exponent tuple, coefficient) of the largest term under `key`.

        The result is memoized for the last key function asked for, so
        repeated calls with the same order cost no key evaluations.
        """
        cached = self._lead
        if cached is not None and cached[0] == key:
            return cached[1]
        if not self.terms:
            raise PolyError("zero polynomial has no lead term")
        exps = max(self.terms, key=key)
        lead = exps, self.terms[exps]
        object.__setattr__(self, "_lead", (key, lead))
        return lead

    # ---- equality ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ambient == other.ambient and self.terms == other.terms

    def __hash__(self):
        return hash((self.ambient, frozenset(self.terms.items())))

    # ---- arithmetic ----------------------------------------------------

    def _check_ambient(self, other: "Polynomial"):
        if self.ambient != other.ambient:
            raise AmbientMismatchError(
                f"ambient mismatch: {self.ambient} vs {other.ambient}")

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ambient, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ambient(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) + c
            if not s:
                out.pop(exps, None)
            elif type(s) is Fraction and s.denominator == 1:
                out[exps] = s.numerator
            else:
                out[exps] = s
        return Polynomial._trusted(self.ambient, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.ambient, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ambient, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ambient(other)
        out: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        # ints add and multiply to ints: only a Fraction operand can leave
        # an integral Fraction behind
        if _has_fraction(self.terms) or _has_fraction(other.terms):
            _integral(out)
        return Polynomial._trusted(self.ambient, out)

    __rmul__ = __mul__

    def scale(self, value) -> "Polynomial":
        c = _as_coefficient(value)
        if not c:
            return Polynomial.zero(self.ambient)
        return Polynomial._trusted(self.ambient,
                                   _integral({e: k * c for e, k in self.terms.items()}))

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise PolyError("exponent must be a non-negative integer")
        out = Polynomial.constant(self.ambient, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # ---- calculus and evaluation ----------------------------------------

    def partial_derivative(self, var: str) -> "Polynomial":
        i = self._index(var)
        out: dict[tuple[int, ...], int | Fraction] = {}
        for exps, c in self.terms.items():
            if exps[i]:
                e = list(exps)
                k = e[i]
                e[i] = k - 1
                # e -> e - 1_i is injective on exponents with e_i >= 1, and
                # c * e_i is nonzero, so no two terms meet and none cancels
                out[tuple(e)] = c * k
        return Polynomial._trusted(self.ambient, _integral(out))

    def evaluate(self, point: Mapping[str, object]) -> int | Fraction:
        """The value at a point; PolyError for a point entry outside the
        ambient, MissingAssignmentError for a variable the terms need and
        the point leaves out."""
        for v in point:
            if v not in self.ambient:
                raise PolyError(f"cannot evaluate at a value for '{v}' "
                                f"in ambient {self.ambient}")
        vals: list[int | Fraction | None] = []
        for v in self.ambient:
            vals.append(_as_coefficient(point[v]) if v in point else None)
        total = 0
        for exps, c in self.terms.items():
            term = c
            for i, e in enumerate(exps):
                if e:
                    if vals[i] is None:
                        raise MissingAssignmentError(
                            f"no value for variable '{self.ambient[i]}'")
                    term *= vals[i] ** e
            total += term
        return _as_coefficient(total)

    def substitute(self, mapping: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for ambient variables; unmapped variables
        persist.  PolyError for any other key or for an image that is not a
        Polynomial."""
        ambient = None
        for v, repl in mapping.items():
            if v not in self.ambient or not isinstance(repl, Polynomial):
                raise PolyError(f"cannot substitute {type(repl).__name__} for '{v}' "
                                f"in ambient {self.ambient}")
            if ambient is None:
                ambient = repl.ambient
            elif repl.ambient != ambient:
                raise AmbientMismatchError("substitution images disagree on ambient")
        if ambient is None:
            ambient = self.ambient
        images: list[Polynomial] = []
        for v in self.ambient:
            if v in mapping:
                images.append(mapping[v])
            else:
                images.append(Polynomial.variable(ambient, v))
        powers: list[dict[int, Polynomial]] = [dict() for _ in images]
        out = Polynomial.zero(ambient)
        for exps, c in self.terms.items():
            term = Polynomial.constant(ambient, c)
            for i, e in enumerate(exps):
                if not e:
                    continue
                cache = powers[i]
                if e not in cache:
                    cache[e] = images[i] ** e
                term = term * cache[e]
            out = out + term
        return out

    # ---- ambient surgery -------------------------------------------------

    def over(self, ambient: Sequence[str]) -> "Polynomial":
        """Re-express over another ambient that holds every variable in use:
        the order may change, new variables get exponent 0, and unused
        ones may be dropped."""
        ambient = tuple(ambient)
        if len(set(ambient)) != len(ambient):
            raise PolyError(f"duplicate variable in ambient {ambient}")
        missing = set(self.effective_variables()) - set(ambient)
        if missing:
            raise PolyError(f"ambient {ambient} lacks variables in use: {sorted(missing)}")
        # a new variable reads slot n, the 0 padded onto each exponent tuple;
        # every used variable keeps its exponent, so no two terms meet
        n = len(self.ambient)
        pos = [self.ambient.index(v) if v in self.ambient else n for v in ambient]
        return Polynomial._trusted(ambient, {tuple(map((e + (0,)).__getitem__, pos)): c
                                             for e, c in self.terms.items()})

    def coefficient_in(self, var: str, degree: int) -> "Polynomial":
        """Coefficient of var**degree, as a polynomial with var removed."""
        i = self._index(var)
        rest = tuple(v for v in self.ambient if v != var)
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == degree:
                out[tuple(e for j, e in enumerate(exps) if j != i)] = c
        return Polynomial(rest, out)

    # ---- printing --------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r}, ambient={self.ambient})"


def variables(ambient: Sequence[str]) -> list[Polynomial]:
    """One generator Polynomial per ambient variable, in order."""
    ambient = tuple(ambient)
    return [Polynomial.variable(ambient, v) for v in ambient]


# ---------------------------------------------------------------------------
# Canonical text form
# ---------------------------------------------------------------------------

def _monomial_str(ambient, exps) -> str:
    parts = []
    for v, e in zip(ambient, exps):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial, compact: bool = False) -> str:
    """Canonical text: terms in descending grevlex order, coefficients exact.

    The output re-parses to the same polynomial.  With compact=True the
    separators carry no spaces (for machine-readable report fields).
    """
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: grevlex_key(kv[0]), reverse=True)
    plus, minus = (" + ", " - ") if not compact else ("+", "-")
    chunks: list[str] = []
    for i, (exps, coeff) in enumerate(items):
        mono = _monomial_str(p.ambient, exps)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if i == 0:
            chunks.append(body if coeff > 0 else "-" + body)
        else:
            chunks.append((plus if coeff > 0 else minus) + body)
    return "".join(chunks)


# ---------------------------------------------------------------------------
# Parser
#
# expr   := '-'? term (('+' | '-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' nonneg-integer)?
# base   := identifier | integer | integer '/' positive-integer | '(' expr ')'
# ---------------------------------------------------------------------------

IDENTIFIER = r"[A-Za-z][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(rf"(?P<int>\d+)|(?P<ident>{IDENTIFIER})|(?P<op>[-+*^()/])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise PolyParseError(f"unexpected character '{text[i]}'", i)
        kind = m.lastgroup
        tokens.append((kind, m.group(), i))
        i = m.end()
    tokens.append(("end", "", n))
    return tokens


# Caps on the term count and on the coefficient bit height that one '^' or
# '*' of a parsed expression may produce, checked on upper bounds before
# expanding, so a short line cannot stall the parser: (x+y+z)^80 (3,321 terms)
# took 5 s to expand, and (x+y)^499 (500 terms, 495-bit binomials) 0.8 s.
# Under both caps the slowest expansions, (x+y)^256 and (x+y+z)^30, take
# under 0.2 s.
MAX_EXPANDED_TERMS = 500
MAX_COEFFICIENT_BITS = 256
# Cap on nested parentheses: each costs the parser four stack frames, and
# about 250 overflowed Python's default stack.
MAX_NESTING = 100
# Cap on the exponent of a variable that one '^' or '*' may produce: the
# division index keeps one list entry per exponent up to a divisor's largest,
# and 10**6 entries take 8 MB per column.
MAX_EXPONENT = 10 ** 6


def _height(p: Polynomial) -> float:
    """log2(N * D), where D is the lcm of p's denominators and N the sum of
    |c| * D over its coefficients c.  It bounds the bits of every numerator
    and denominator of p, and it is subadditive: _height(p * q) is at most
    _height(p) + _height(q)."""
    d = lcm(*(c.denominator for c in p.terms.values()))
    n = sum(abs(c.numerator) * (d // c.denominator) for c in p.terms.values())
    return log2(n * d) if n else 0.0


def _max_exponent(p: Polynomial) -> int:
    return max(chain.from_iterable(p.terms), default=0)


def _check_exponent(exponent: int, op: str, at: int) -> None:
    if exponent > MAX_EXPONENT:
        raise PolyParseError(f"expanding '{op}' may exceed exponent {MAX_EXPONENT}", at)


def _check_expansion(terms: int, bits: float, op: str, at: int) -> None:
    if terms > MAX_EXPANDED_TERMS:
        raise PolyParseError(
            f"expanding '{op}' may exceed {MAX_EXPANDED_TERMS} terms", at)
    if bits > MAX_COEFFICIENT_BITS:
        raise PolyParseError(
            f"expanding '{op}' may exceed {MAX_COEFFICIENT_BITS}-bit coefficients", at)


def _integer(digits: str, at: int) -> int:
    """The int of a digit token, or a positioned error past Python's limit
    on the digits of an int converted from a string."""
    try:
        return int(digits)
    except ValueError:
        raise PolyParseError(f"integer longer than {sys.get_int_max_str_digits()} digits",
                             at) from None


class _Parser:
    def __init__(self, tokens, ambient):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.ambient = tuple(ambient)

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept_op(self, op: str) -> bool:
        kind, val, _ = self.peek()
        if kind == "op" and val == op:
            self.pos += 1
            return True
        return False

    def expect_op(self, op: str):
        kind, val, at = self.peek()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected '{op}'", at)
        self.pos += 1

    def parse_expr(self) -> Polynomial:
        negate = self.accept_op("-")
        p = self.parse_term()
        if negate:
            p = -p
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.pos += 1
                q = self.parse_term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def parse_term(self) -> Polynomial:
        p = self.parse_factor()
        while True:
            at = self.peek()[2]
            if not self.accept_op("*"):
                return p
            q = self.parse_factor()
            _check_exponent(_max_exponent(p) + _max_exponent(q), "*", at)
            _check_expansion(len(p.terms) * len(q.terms), _height(p) + _height(q),
                             "*", at)
            p = p * q

    def parse_factor(self) -> Polynomial:
        p = self.parse_base()
        at = self.peek()[2]
        if self.accept_op("^"):
            kind, val, at_exp = self.peek()
            if kind != "int":
                raise PolyParseError("exponent must be a non-negative integer", at_exp)
            self.pos += 1
            n = _integer(val, at_exp)
            # n itself is bounded too, first: it keeps comb() fast and
            # n * _height(p) a finite float, for a constant p as well
            _check_exponent(n * max(_max_exponent(p), 1), "^", at)
            # a product of n terms from t has at most C(t + n - 1, n) monomials
            _check_expansion(comb(len(p.terms) + n - 1, n) if n else 1,
                             n * _height(p), "^", at)
            return p ** n
        return p

    def parse_base(self) -> Polynomial:
        kind, val, at = self.take()
        if kind == "int":
            num = _integer(val, at)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.pos += 1
                k3, v3, at3 = self.take()
                if k3 != "int":
                    raise PolyParseError("denominator must be an integer", at3)
                den = _integer(v3, at3)
                if den <= 0:
                    raise PolyParseError("denominator must be positive", at3)
                return Polynomial.constant(self.ambient, Fraction(num, den))
            return Polynomial.constant(self.ambient, num)
        if kind == "ident":
            if val not in self.ambient:
                raise UnknownVariableError(val, at)
            return Polynomial.variable(self.ambient, val)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise PolyParseError(f"more than {MAX_NESTING} nested parentheses", at)
            self.depth += 1
            p = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return p
        raise PolyParseError(f"unexpected token '{val}'" if val else "unexpected end of input", at)


def parse_polynomial(text: str, ambient: Sequence[str]) -> Polynomial:
    """Parse an expression over the given variables into canonical form."""
    parser = _Parser(_tokenize(text), ambient)
    p = parser.parse_expr()
    kind, val, at = parser.peek()
    if kind != "end":
        raise PolyParseError(f"trailing input '{val}'", at)
    return p


# ---------------------------------------------------------------------------
# Division and normalization
# ---------------------------------------------------------------------------

def exact_divide(p: Polynomial, q: Polynomial) -> Polynomial:
    """Return p/q when q divides p exactly; raise PolyError otherwise."""
    p._check_ambient(q)
    if q.is_zero():
        raise PolyError("division by zero polynomial")
    # groebner imports this module, so it is imported here, at call time
    from .groebner import divmod_polynomials
    (quotient,), remainder = divmod_polynomials(p, [q])
    if remainder:
        raise PolyError("non-exact polynomial division")
    return quotient


def normalized(p: Polynomial) -> Polynomial:
    """Scale so the grevlex lead coefficient is 1 (canonical up-to-scalar form)."""
    if p.is_zero():
        return p
    _, c = p.lead()
    return p.scale(Fraction(1, c))


# ---------------------------------------------------------------------------
# Maximal minors and determinants of polynomial matrices (lists of rows)
# ---------------------------------------------------------------------------

def maximal_minors(rows: Sequence[Sequence[Polynomial]]) -> list[Polynomial]:
    """Every k x k minor of a k x m matrix of polynomials over one ambient,
    1 <= k <= m, in `itertools.combinations(range(m), k)` order, from one
    Laplace expansion with no division: after r rows, `partial` maps each
    r-column bitmask to its nonzero minor on those rows, and the next row
    adds a column j outside a mask with sign (-1)^(mask bits above j)."""
    k, m = len(rows), len(rows[0]) if rows else 0
    if not m:
        raise PolyError("minors of an empty matrix")
    ambient = rows[0][0].ambient
    for row in rows:
        if len(row) != m:
            raise PolyError(f"ragged matrix: rows of {m} and of {len(row)} entries")
        if any(e.ambient != ambient for e in row):
            raise AmbientMismatchError("matrix entries disagree on ambient")
    if k > m:
        raise PolyError(f"no {k} x {k} minors in a matrix of {m} columns")
    partial = {0: Polynomial.constant(ambient, 1)}
    for row in rows:
        grown: dict[int, Polynomial] = {}
        for mask, minor in partial.items():
            for j, entry in enumerate(row):
                if entry and not mask >> j & 1:
                    term = -minor * entry if (mask >> j).bit_count() & 1 else minor * entry
                    wider = mask | 1 << j
                    grown[wider] = grown[wider] + term if wider in grown else term
        partial = {mask: minor for mask, minor in grown.items() if minor}
    zero = Polynomial.zero(ambient)
    return [partial.get(sum(1 << j for j in cols), zero) for cols in combinations(range(m), k)]


def determinant_fraction_free(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Exact determinant of a non-empty square matrix of polynomials over one
    ambient, given as rows: its one maximal minor."""
    if any(len(row) != len(matrix) for row in matrix):
        raise PolyError(f"determinant of a non-square matrix of {len(matrix)} rows")
    (det,) = maximal_minors(matrix)
    return det


# ---------------------------------------------------------------------------
# gcd and squarefree part
# ---------------------------------------------------------------------------

def gcd_polynomials(p: Polynomial, q: Polynomial,
                    max_pairs: int = DEFAULT_PAIR_LIMIT) -> Polynomial:
    """gcd of two polynomials in any number of variables, normalized to
    grevlex lead coefficient 1; zero only when both are zero.

    For nonconstant p and q it is p*q / lcm(p, q), and the lcm generates
    the ideal (t*p, (1 - t)*q) intersected with Q[x] for a fresh variable t
    (Cox, Little and O'Shea, 4.3).  `groebner.buchberger` finds it under
    `max_pairs` S-pairs and raises `ResourceLimitExceeded` past the cap.
    """
    p._check_ambient(q)
    if not p or not q:
        return normalized(p + q)
    if p.is_constant() or q.is_constant():
        return Polynomial.constant(p.ambient, 1)
    # groebner imports this module, so it is imported here, at call time
    from .groebner import IdealBasis, _fresh_name, buchberger, elimination_key
    ambient = (_fresh_name("t", p.ambient),) + p.ambient
    t = Polynomial.variable(ambient, ambient[0])
    gens = [t * p.over(ambient), (1 - t) * q.over(ambient)]
    basis = buchberger(IdealBasis(ambient, gens), elimination_key(1), max_pairs)
    (multiple,) = basis.free_of(1)
    return normalized(exact_divide(p, exact_divide(multiple.over(p.ambient), q)))


def squarefree_part_bivariate(p: Polynomial,
                              max_pairs: int = DEFAULT_PAIR_LIMIT) -> Polynomial:
    """Product of the distinct irreducible factors of p, in any number of
    variables.  (The name is from an earlier two-variable version; it stays
    because benchmark spans and callers refer to it.)

    The result is p divided by the gcd of p and its partial derivatives: over
    Q that gcd holds every irreducible factor of p with its exponent lowered
    by exactly one.  The result is squarefree and normalized to grevlex lead
    coefficient 1; it is canonical up to that scalar choice.  Each of its
    gcds runs under its own cap of `max_pairs` S-pairs; the cap is per
    Buchberger run, not a total.
    """
    if p.is_zero():
        raise PolyError("squarefree part of the zero polynomial is undefined")
    g = p
    for v in p.effective_variables():
        g = gcd_polynomials(g, p.partial_derivative(v), max_pairs)
    return normalized(exact_divide(p, g))


# ---------------------------------------------------------------------------
# Exact linear algebra over Q
# ---------------------------------------------------------------------------

def rational_rows(rows: Sequence[Sequence[object]]) -> list[list[int | Fraction]]:
    """New rows of the entries in canonical form; PolyError for an input that
    is not a sequence of rows, an entry that is not rational or a ragged matrix."""
    try:
        rows = [list(row) for row in rows]
    except TypeError:
        raise PolyError("expected a matrix as a sequence of rows") from None
    m = [[_as_coefficient(x) for x in row] for row in rows]
    for row in m:
        if len(row) != len(m[0]):
            raise PolyError(f"ragged matrix: rows of {len(m[0])} and of {len(row)} entries")
    return m


def rref(rows: Sequence[Sequence[object]]) -> tuple[list[list[int | Fraction]], list[int]]:
    """Gauss-Jordan elimination over Q: (reduced row echelon form, pivot
    columns), each entry an int or a Fraction in canonical form."""
    m = rational_rows(rows)
    pivots: list[int] = []
    for col in range(len(m[0]) if m else 0):
        rank = len(pivots)
        if rank == len(m):
            break
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        if lead != 1:
            m[rank] = [_as_coefficient(Fraction(x, lead)) for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [_as_coefficient(a - f * b) for a, b in zip(m[r], m[rank])]
        pivots.append(col)
    return m, pivots


def rational_rank(rows: Sequence[Sequence[object]]) -> int:
    """Rank of a rational matrix."""
    return len(rref(rows)[1])
