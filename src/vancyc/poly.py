"""Sparse multivariate polynomials over Q with exact arithmetic.

Coefficients are `fractions.Fraction`; a polynomial is a dict from exponent
tuples (one slot per ambient variable) to nonzero coefficients.  The module
also carries the exact linear algebra used elsewhere in the package:
fraction-free (Bareiss) determinants of polynomial matrices, Sylvester
resultants, squarefree parts and gcds of polynomials in at most two
effective variables, and Gauss-Jordan elimination (reduced row echelon
form and rank) over Q.

An order key maps an exponent tuple to a flat tuple of ints, so that plain
tuple comparison is the monomial order.  `divmod_polynomials` is the one
multivariate division: it keeps the terms still to be reduced in a heap
ordered by the negated key, so each monomial's key is computed once, when it
enters the work set, and the next term to reduce is a heap pop rather than a
rescan (after Monagan and Pearce, "Sparse polynomial division using a heap",
JSC 2011).  Lead terms are memoized inside each immutable Polynomial
(`Polynomial.lead`), so a divisor's lead is found once per order.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add, le, neg, sub
from typing import Iterable, Mapping, Sequence


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


class UnsupportedArityError(PolyError):
    """An operation restricted to <= 2 effective variables got more."""


def grevlex_key(exponents: Sequence[int]) -> tuple[int, ...]:
    """Sort key for graded reverse lexicographic order (max = largest
    monomial): the flat tuple (deg, -e_n, ..., -e_1)."""
    return (sum(exponents), *map(neg, reversed(exponents)))


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise PolyError(f"coefficient must be rational, got {type(value).__name__}")


class Polynomial:
    """Immutable sparse polynomial over Q in a fixed tuple of variables."""

    # _lead memoizes the last lead() as (key function, (exponents, coefficient))
    __slots__ = ("ambient", "terms", "_lead")

    def __init__(self, ambient: Sequence[str], terms: Mapping[tuple, object] | None = None):
        ambient = tuple(ambient)
        if len(set(ambient)) != len(ambient):
            raise PolyError(f"duplicate variable in ambient {ambient}")
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            n = len(ambient)
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != n or any((not isinstance(e, int)) or e < 0 for e in exps):
                    raise PolyError(f"bad exponent tuple {exps} for ambient of size {n}")
                c = _as_fraction(coeff)
                if c:
                    clean[exps] = clean.get(exps, Fraction(0)) + c
                    if not clean[exps]:
                        del clean[exps]
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_lead", None)

    @classmethod
    def _trusted(cls, ambient: tuple[str, ...], terms: dict) -> "Polynomial":
        """Wrap terms that are already canonical: an ambient tuple without
        duplicates, exponent tuples of its length with non-negative ints, and
        nonzero Fraction coefficients.  The dict is taken over, not copied."""
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
        return cls(ambient, {(0,) * len(ambient): _as_fraction(value)})

    @classmethod
    def variable(cls, ambient, name: str) -> "Polynomial":
        ambient = tuple(ambient)
        if name not in ambient:
            raise PolyError(f"variable '{name}' not in ambient {ambient}")
        exps = tuple(1 if v == name else 0 for v in ambient)
        return cls(ambient, {exps: Fraction(1)})

    # ---- basic queries -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.ambient), Fraction(0))

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

    def degree_in(self, var: str) -> int:
        i = self._index(var)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def _index(self, var: str) -> int:
        try:
            return self.ambient.index(var)
        except ValueError:
            raise PolyError(f"variable '{var}' not in ambient {self.ambient}") from None

    def lead(self, key=grevlex_key) -> tuple[tuple[int, ...], Fraction]:
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
            s = out.get(exps, Fraction(0)) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
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
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(key, Fraction(0)) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Polynomial(self.ambient, out)

    __rmul__ = __mul__

    def scale(self, value) -> "Polynomial":
        c = _as_fraction(value)
        if not c:
            return Polynomial.zero(self.ambient)
        return Polynomial._trusted(self.ambient, {e: k * c for e, k in self.terms.items()})

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

    def monomial_times(self, exps: Sequence[int], coeff) -> "Polynomial":
        """Multiply by coeff * x^exps without building an intermediate Polynomial."""
        c = _as_fraction(coeff)
        if not c:
            return Polynomial.zero(self.ambient)
        exps = tuple(exps)
        if len(exps) != len(self.ambient) or any(
                not isinstance(e, int) or e < 0 for e in exps):
            raise PolyError(
                f"bad exponent tuple {exps} for ambient of size {len(self.ambient)}")
        return Polynomial._trusted(self.ambient, {
            tuple(map(add, e, exps)): k * c for e, k in self.terms.items()})

    # ---- calculus and evaluation ----------------------------------------

    def partial_derivative(self, var: str) -> "Polynomial":
        i = self._index(var)
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            if exps[i]:
                e = list(exps)
                k = e[i]
                e[i] = k - 1
                key = tuple(e)
                s = out.get(key, Fraction(0)) + c * k
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Polynomial(self.ambient, out)

    def evaluate(self, point: Mapping[str, object]) -> Fraction:
        vals: list[Fraction | None] = []
        for v in self.ambient:
            vals.append(_as_fraction(point[v]) if v in point else None)
        total = Fraction(0)
        for exps, c in self.terms.items():
            term = c
            for i, e in enumerate(exps):
                if e:
                    if vals[i] is None:
                        raise MissingAssignmentError(
                            f"no value for variable '{self.ambient[i]}'")
                    term *= vals[i] ** e
            total += term
        return total

    def substitute(self, mapping: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for variables; unmapped variables persist."""
        ambient = None
        for repl in mapping.values():
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

    def extend(self, new_ambient: Sequence[str]) -> "Polynomial":
        """Re-express over a larger ambient that contains the current one."""
        new_ambient = tuple(new_ambient)
        pos = []
        for v in self.ambient:
            if v not in new_ambient:
                raise PolyError(f"extend target is missing variable '{v}'")
            pos.append(new_ambient.index(v))
        out = {}
        for exps, c in self.terms.items():
            e = [0] * len(new_ambient)
            for p, k in zip(pos, exps):
                e[p] = k
            out[tuple(e)] = c
        return Polynomial(new_ambient, out)

    def restrict(self, new_ambient: Sequence[str]) -> "Polynomial":
        """Re-express over a sub-ambient; dropped variables must be absent."""
        new_ambient = tuple(new_ambient)
        eff = set(self.effective_variables())
        missing = eff - set(new_ambient)
        if missing:
            raise PolyError(f"cannot drop variables still in use: {sorted(missing)}")
        pos = [self.ambient.index(v) for v in new_ambient]
        out = {}
        for exps, c in self.terms.items():
            out[tuple(exps[p] for p in pos)] = c
        return Polynomial(new_ambient, out)

    def reorder(self, new_ambient: Sequence[str]) -> "Polynomial":
        """Same variables, new order."""
        if set(new_ambient) != set(self.ambient):
            raise PolyError("reorder must use exactly the same variables")
        return self.restrict(new_ambient)

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

_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*^()/])")


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


# Cap on the term count one '^' or '*' of a parsed expression may produce,
# checked on an upper bound before expanding, so a short line cannot stall the
# parser: (x+y+z)^80 (3,321 terms) took 5 s to expand; the slowest expansion
# under the cap, (x+y)^499, takes about 0.7 s, mostly in 150-digit binomials.
MAX_EXPANDED_TERMS = 500


def _check_expansion(bound: int, op: str, at: int) -> None:
    if bound > MAX_EXPANDED_TERMS:
        raise PolyParseError(
            f"expanding '{op}' may exceed {MAX_EXPANDED_TERMS} terms", at)


class _Parser:
    def __init__(self, tokens, ambient):
        self.tokens = tokens
        self.pos = 0
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
            _check_expansion(len(p.terms) * len(q.terms), "*", at)
            p = p * q

    def parse_factor(self) -> Polynomial:
        p = self.parse_base()
        at = self.peek()[2]
        if self.accept_op("^"):
            kind, val, at_exp = self.peek()
            if kind != "int":
                raise PolyParseError("exponent must be a non-negative integer", at_exp)
            self.pos += 1
            n = int(val)
            # a product of n terms from t has at most C(t + n - 1, n) monomials
            _check_expansion(comb(len(p.terms) + n - 1, n) if n else 1, "^", at)
            return p ** n
        return p

    def parse_base(self) -> Polynomial:
        kind, val, at = self.take()
        if kind == "int":
            num = int(val)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.pos += 1
                k3, v3, at3 = self.take()
                if k3 != "int":
                    raise PolyParseError("denominator must be an integer", at3)
                den = int(v3)
                if den <= 0:
                    raise PolyParseError("denominator must be positive", at3)
                return Polynomial.constant(self.ambient, Fraction(num, den))
            return Polynomial.constant(self.ambient, num)
        if kind == "ident":
            if val not in self.ambient:
                raise UnknownVariableError(val, at)
            return Polynomial.variable(self.ambient, val)
        if kind == "op" and val == "(":
            p = self.parse_expr()
            self.expect_op(")")
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

def divmod_polynomials(p: Polynomial, divisors: Sequence[Polynomial],
                       key=grevlex_key) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division under the order of `key`: p = sum(q_i *
    divisors_i) + r, no term of r divisible by any divisor lead monomial.

    The largest remaining term is taken from a heap of (negated order key,
    monomial) entries.  A monomial gets its one entry when it enters `work`;
    a coefficient that cancels stays in `work` as zero until its entry is
    popped, so no monomial is ever queued twice.  Every new monomial is
    smaller than the one being reduced, so a popped monomial never returns.
    """
    ambient = p.ambient
    for d in divisors:
        if d.ambient != ambient:
            raise AmbientMismatchError(
                f"divisor ambient {d.ambient} != dividend ambient {ambient}")
    leads = [d.lead(key) for d in divisors]
    quotients: list[dict] = [{} for _ in divisors]
    remainder: dict = {}
    work = dict(p.terms)
    heap = [(tuple(map(neg, key(e))), e) for e in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        e = pop(heap)[1]
        c = work.pop(e)
        if not c:
            continue
        for i, (de, dc) in enumerate(leads):
            if all(map(le, de, e)):
                me = tuple(map(sub, e, de))
                mc = c / dc
                quotients[i][me] = mc
                for fe, fc in divisors[i].terms.items():
                    if fe == de:
                        continue
                    k = tuple(map(add, me, fe))
                    old = work.get(k)
                    if old is None:
                        work[k] = -mc * fc
                        push(heap, (tuple(map(neg, key(k))), k))
                    else:
                        work[k] = old - mc * fc
                break
        else:
            remainder[e] = c
    zero = Polynomial._trusted(ambient, {})  # shared by every empty quotient
    return ([Polynomial._trusted(ambient, q) if q else zero for q in quotients],
            Polynomial._trusted(ambient, remainder))


def exact_divide(p: Polynomial, q: Polynomial) -> Polynomial:
    """Return p/q when q divides p exactly; raise PolyError otherwise."""
    p._check_ambient(q)
    if q.is_zero():
        raise PolyError("division by zero polynomial")
    (quotient,), remainder = divmod_polynomials(p, [q])
    if remainder:
        raise PolyError("non-exact polynomial division")
    return quotient


def normalized(p: Polynomial) -> Polynomial:
    """Scale so the grevlex lead coefficient is 1 (canonical up-to-scalar form)."""
    if p.is_zero():
        return p
    _, c = p.lead()
    return p.scale(1 / c)


# ---------------------------------------------------------------------------
# Polynomial matrices, fraction-free determinants, resultants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyMatrix:
    """Rectangular matrix of polynomials over a shared ambient."""

    entries: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise PolyError("PolyMatrix must be non-empty")
        ambient = self.entries[0][0].ambient
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise PolyError("ragged PolyMatrix rows")
            for e in row:
                if e.ambient != ambient:
                    raise AmbientMismatchError("PolyMatrix entries disagree on ambient")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Polynomial]]) -> "PolyMatrix":
        return cls(tuple(tuple(r) for r in rows))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.entries), len(self.entries[0])

    @property
    def ambient(self):
        return self.entries[0][0].ambient

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i][j]


def determinant_fraction_free(matrix: PolyMatrix) -> Polynomial:
    """Exact determinant via Bareiss elimination (all divisions exact)."""
    rows, cols = matrix.shape
    if rows != cols:
        raise PolyError(f"determinant of non-square matrix {rows}x{cols}")
    ambient = matrix.ambient
    m = [list(r) for r in matrix.entries]
    n = rows
    sign = 1
    prev = Polynomial.constant(ambient, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if pivot is None:
                return Polynomial.zero(ambient)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = exact_divide(num, prev)
            m[i][k] = Polynomial.zero(ambient)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def resultant(p: Polynomial, q: Polynomial, var: str) -> Polynomial:
    """Sylvester resultant eliminating var; result lives over the remaining variables."""
    p._check_ambient(q)
    m = p.degree_in(var)
    n = q.degree_in(var)
    if m < 1 or n < 1:
        raise PolyError("resultant needs positive degree in the eliminated variable")
    # coefficients in var by descending degree, over the other variables
    a = [p.coefficient_in(var, k) for k in range(m, -1, -1)]
    b = [q.coefficient_in(var, k) for k in range(n, -1, -1)]
    size = m + n
    zero = Polynomial.zero(a[0].ambient)
    rows = []
    for i in range(n):
        rows.append([zero] * i + a + [zero] * (size - i - len(a)))
    for i in range(m):
        rows.append([zero] * i + b + [zero] * (size - i - len(b)))
    return determinant_fraction_free(PolyMatrix.from_rows(rows))


# ---------------------------------------------------------------------------
# gcd and squarefree part in at most two effective variables
# ---------------------------------------------------------------------------

def _univ_to_list(p: Polynomial, var: str) -> list[Fraction]:
    """Ascending coefficient list of a polynomial effective only in var."""
    i = p._index(var)
    eff = p.effective_variables()
    if any(v != var for v in eff):
        raise PolyError("polynomial is not univariate in the requested variable")
    out = [Fraction(0)] * (max((e[i] for e in p.terms), default=0) + 1)
    for exps, c in p.terms.items():
        out[exps[i]] = c
    return out


def _univ_from_list(coeffs: Sequence[Fraction], var: str, ambient) -> Polynomial:
    ambient = tuple(ambient)
    i = ambient.index(var)
    terms = {}
    for d, c in enumerate(coeffs):
        if c:
            e = [0] * len(ambient)
            e[i] = d
            terms[tuple(e)] = c
    return Polynomial(ambient, terms)


def _univ_trim(a: list[Fraction]) -> list[Fraction]:
    while a and not a[-1]:
        a.pop()
    return a


def _univ_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        k = len(a) - 1 - db
        f = a[-1] / lb
        for i, c in enumerate(b):
            a[i + k] -= f * c
        _univ_trim(a)
    return a


def _univ_gcd_lists(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _univ_trim(list(a)), _univ_trim(list(b))
    while b:
        a, b = b, _univ_mod(a, b)
    if not a:
        return a
    lead = a[-1]
    return [c / lead for c in a]


def _gcd_univariate(p: Polynomial, q: Polynomial, var: str) -> Polynomial:
    g = _univ_gcd_lists(_univ_to_list(p, var), _univ_to_list(q, var))
    return _univ_from_list(g, var, p.ambient)


def _uv_coeffs(p: Polynomial, yvar: str) -> list[Polynomial]:
    """p as a list (ascending in yvar) of coefficient polynomials over the full ambient."""
    i = p._index(yvar)
    d = p.degree_in(yvar)
    buckets: list[dict] = [dict() for _ in range(d + 1)]
    for exps, c in p.terms.items():
        e = list(exps)
        k = e[i]
        e[i] = 0
        buckets[k][tuple(e)] = c
    return [Polynomial(p.ambient, b) for b in buckets]


def _uv_assemble(coeffs: Sequence[Polynomial], yvar: str) -> Polynomial:
    if not coeffs:
        raise PolyError("empty coefficient list")
    ambient = coeffs[0].ambient
    i = ambient.index(yvar)
    out = {}
    for d, cp in enumerate(coeffs):
        for exps, c in cp.terms.items():
            e = list(exps)
            e[i] += d
            out[tuple(e)] = c
    return Polynomial(ambient, out)


def _uv_trim(coeffs: list[Polynomial]) -> list[Polynomial]:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _uv_content(coeffs: Sequence[Polynomial], xvar: str | None) -> Polynomial:
    """gcd of the coefficient polynomials (each constant or univariate in xvar)."""
    ambient = coeffs[0].ambient
    nonzero = [c for c in coeffs if not c.is_zero()]
    if not nonzero:
        return Polynomial.zero(ambient)
    if xvar is None or all(c.is_constant() for c in nonzero):
        return Polynomial.constant(ambient, 1)
    g = _univ_to_list(nonzero[0], xvar)
    for c in nonzero[1:]:
        g = _univ_gcd_lists(g, _univ_to_list(c, xvar))
        if len(g) == 1:
            break
    return _univ_from_list(g, xvar, ambient)


def _uv_primitive(coeffs: list[Polynomial], xvar: str | None) -> tuple[list[Polynomial], Polynomial]:
    cont = _uv_content(coeffs, xvar)
    if cont.is_constant() and cont.constant_term() == 1:
        return list(coeffs), cont
    return [exact_divide(c, cont) for c in coeffs], cont


def _uv_pseudo_rem(a: list[Polynomial], b: list[Polynomial]) -> list[Polynomial]:
    """Pseudo-remainder of coefficient lists (ascending); stays polynomial."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while _uv_trim(a) and len(a) - 1 >= db:
        da = len(a) - 1
        la = a[-1]
        shifted = [Polynomial.zero(lb.ambient)] * (da - db) + [c * la for c in b]
        a = [x * lb for x in a]
        a = [x - y for x, y in zip(a, shifted)]
        _uv_trim(a)
    return a


def _effective_frame(ps: Sequence[Polynomial]) -> tuple[str | None, str | None]:
    """(xvar, yvar) among the union of effective variables; error above two."""
    seen: list[str] = []
    ambient = ps[0].ambient
    for v in ambient:
        if any(v in p.effective_variables() for p in ps):
            seen.append(v)
    if len(seen) > 2:
        raise UnsupportedArityError(
            f"operation supports at most 2 effective variables, got {seen}")
    if len(seen) == 2:
        return seen[0], seen[1]
    if len(seen) == 1:
        return None, seen[0]
    return None, None


def gcd_polynomials(p: Polynomial, q: Polynomial) -> Polynomial:
    """gcd of two polynomials with at most two effective variables between them.

    Result is normalized to grevlex lead coefficient 1.
    """
    p._check_ambient(q)
    if p.is_zero():
        return normalized(q)
    if q.is_zero():
        return normalized(p)
    xvar, yvar = _effective_frame([p, q])
    if yvar is None:
        return Polynomial.constant(p.ambient, 1)
    if xvar is None:
        return normalized(_gcd_univariate(p, q, yvar))
    # content/primitive split with respect to the main variable yvar
    A, contA = _uv_primitive(_uv_coeffs(p, yvar), xvar)
    B, contB = _uv_primitive(_uv_coeffs(q, yvar), xvar)
    cont = _gcd_univariate(contA, contB, xvar) if not (
        contA.is_constant() and contB.is_constant()) else Polynomial.constant(p.ambient, 1)
    r0, r1 = A, B
    if len(r0) < len(r1):
        r0, r1 = r1, r0
    while _uv_trim(list(r1)):
        r = _uv_pseudo_rem(r0, r1)
        r = _uv_trim(r)
        if r:
            r, _ = _uv_primitive(r, xvar)
        r0, r1 = r1, r
    g, _ = _uv_primitive(list(r0), xvar)
    return normalized(cont * _uv_assemble(g, yvar))


def squarefree_part_bivariate(p: Polynomial) -> Polynomial:
    """Product of the distinct irreducible factors of p (<= 2 effective variables).

    The result is p divided by the gcd of p and its partial derivatives: over
    Q that gcd holds every irreducible factor of p with its exponent lowered
    by exactly one.  The result is squarefree and normalized to grevlex lead
    coefficient 1; it is canonical up to that scalar choice.
    """
    if p.is_zero():
        raise PolyError("squarefree part of the zero polynomial is undefined")
    g = p
    for v in p.effective_variables():
        g = gcd_polynomials(g, p.partial_derivative(v))
    return normalized(exact_divide(p, g))


# ---------------------------------------------------------------------------
# Exact linear algebra over Q
# ---------------------------------------------------------------------------

def rref(rows: Sequence[Sequence[object]],
         ncols: int | None = None) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination over Q: (reduced row echelon form, pivot columns).

    Pivots are sought in the first `ncols` columns only (all by default), so
    an augmented block to their right is carried along without pivoting.
    """
    m = [[_as_fraction(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(m):
            break
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
    return m, pivots


def rational_rank(rows: Sequence[Sequence[object]]) -> int:
    """Rank of a rational matrix."""
    return len(rref(rows)[1])
