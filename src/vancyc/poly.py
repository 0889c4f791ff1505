"""Sparse multivariate polynomials over Q with exact arithmetic.

Coefficients are `fractions.Fraction`; a polynomial is a dict from exponent
tuples (one slot per ambient variable) to nonzero coefficients.  The module
also carries the exact linear algebra used elsewhere in the package:
fraction-free (Bareiss) determinants of polynomial matrices, gcds,
resultants and squarefree parts in any number of variables from one
subresultant remainder sequence, and Gauss-Jordan elimination (reduced row
echelon form and rank) over Q.

An order key maps an exponent tuple to a flat tuple of ints, so that plain
tuple comparison is the monomial order.  `divmod_polynomials` is the one
multivariate division: it keeps the terms still to be reduced in a heap
ordered by the negated key, so each monomial's key is computed once, when it
enters the work set, and the next term to reduce is a heap pop rather than a
rescan (after Monagan and Pearce, "Sparse polynomial division using a heap",
JSC 2011).  Lead terms are memoized inside each immutable Polynomial
(`Polynomial.lead`), so a divisor's lead is found once per order.

The reducer of each term comes from a divisor index (`_DivisorIndex`): for
each variable v and exponent k, a bitset (a Python int) of the divisors
whose lead has e_v <= k.  The AND of one such bitset per variable is the
set of leads dividing a monomial, and its lowest bit is the first divisor,
the one a linear scan would pick.  An index is built once per list of
divisors, or kept across divisions by a caller whose divisor list only
grows, as a Buchberger run does.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm, log2
from operator import add, neg, sub
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
        return Polynomial._trusted(self.ambient, out)

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
        return Polynomial._trusted(self.ambient, out)

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


# Caps on the term count and on the coefficient bit height that one '^' or
# '*' of a parsed expression may produce, checked on upper bounds before
# expanding, so a short line cannot stall the parser: (x+y+z)^80 (3,321 terms)
# took 5 s to expand, and (x+y)^499 (500 terms, 495-bit binomials) 0.8 s.
# Under both caps the slowest expansions, (x+y)^256 and (x+y+z)^30, take
# under 0.2 s.
MAX_EXPANDED_TERMS = 500
MAX_COEFFICIENT_BITS = 256


def _height(p: Polynomial) -> float:
    """log2(N * D), where D is the lcm of p's denominators and N the sum of
    |c| * D over its coefficients c.  It bounds the bits of every numerator
    and denominator of p, and it is subadditive: _height(p * q) is at most
    _height(p) + _height(q)."""
    d = lcm(*(c.denominator for c in p.terms.values()))
    n = sum(abs(c.numerator) * (d // c.denominator) for c in p.terms.values())
    return log2(n * d) if n else 0.0


def _check_expansion(terms: int, bits: float, op: str, at: int) -> None:
    if terms > MAX_EXPANDED_TERMS:
        raise PolyParseError(
            f"expanding '{op}' may exceed {MAX_EXPANDED_TERMS} terms", at)
    if bits > MAX_COEFFICIENT_BITS:
        raise PolyParseError(
            f"expanding '{op}' may exceed {MAX_COEFFICIENT_BITS}-bit coefficients", at)


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
            n = int(val)
            # a product of n terms from t has at most C(t + n - 1, n) monomials
            _check_expansion(comb(len(p.terms) + n - 1, n) if n else 1,
                             n * _height(p), "^", at)
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

class _DivisorIndex:
    """Divisors prepared once for repeated division under one order key.

    Each divisor's lead (exponents and coefficient) and tail are taken once.
    For each variable v, `below[v][k]` is the bitset (a Python int, bit i
    for divisor i) of the divisors whose lead has e_v <= k; a column ends at
    the largest e_v of any lead, and past its end every divisor qualifies.
    The leads dividing a monomial e are then the AND over v of
    `below[v][e_v]`, and the lowest set bit is the first of them in divisor
    order.  `live` is the bitset of the divisors a division may use: every
    divisor appended, unless a caller narrows it.
    """

    __slots__ = ("ambient", "key", "leads", "coeffs", "tails", "below", "live")

    def __init__(self, ambient: tuple[str, ...], key,
                 divisors: Iterable[Polynomial] = ()):
        self.ambient = ambient
        self.key = key
        self.leads: list[tuple[int, ...]] = []
        self.coeffs: list[Fraction] = []
        self.tails: list[list[tuple[tuple[int, ...], Fraction]]] = []
        self.below: list[list[int]] = [[] for _ in ambient]
        self.live = 0
        for d in divisors:
            self.append(d)

    def __bool__(self) -> bool:
        return bool(self.live)

    def append(self, d: Polynomial) -> None:
        if d.ambient != self.ambient:
            raise AmbientMismatchError(
                f"divisor ambient {d.ambient} != dividend ambient {self.ambient}")
        de, dc = d.lead(self.key)
        bit = 1 << len(self.leads)
        self.leads.append(de)
        self.coeffs.append(dc)
        self.tails.append([(fe, fc) for fe, fc in d.terms.items() if fe != de])
        for col, e in zip(self.below, de):
            if e >= len(col):
                # the new entries cover every divisor so far, as past the end
                col.extend([col[-1] if col else 0] * (e + 1 - len(col)))
            for k in range(e, len(col)):
                col[k] |= bit
        self.live |= bit

    def dividing(self, exps: Sequence[int]) -> int:
        """Bitset of the live divisors whose lead divides the monomial."""
        m = self.live
        for col, k in zip(self.below, exps):
            if k < len(col):
                m &= col[k]
        return m


def divmod_polynomials(p: Polynomial, divisors: Sequence[Polynomial] | _DivisorIndex,
                       key=grevlex_key) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division under the order of `key`: p = sum(q_i *
    divisors_i) + r, no term of r divisible by any divisor lead monomial.

    `divisors` is a list of polynomials or a `_DivisorIndex` prepared under
    the same key; a list is indexed on entry.  Each term is reduced by the
    first divisor whose lead divides it, found through the index.  The
    largest remaining term is taken from a heap of (negated order key,
    monomial) entries.  A monomial gets its one entry when it enters `work`;
    a coefficient that cancels stays in `work` as zero until its entry is
    popped, so no monomial is ever queued twice.  Every new monomial is
    smaller than the one being reduced, so a popped monomial never returns.
    """
    ambient = p.ambient
    if isinstance(divisors, _DivisorIndex):
        index = divisors
        if index.ambient != ambient:
            raise AmbientMismatchError(
                f"divisor ambient {index.ambient} != dividend ambient {ambient}")
        if index.key != key:
            raise ValueError("divisor index was prepared under another order key")
    else:
        index = _DivisorIndex(ambient, key, divisors)
    leads, coeffs, tails, dividing = index.leads, index.coeffs, index.tails, index.dividing
    quotients: dict[int, dict] = {}  # only for the divisors used
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
        m = dividing(e)
        if not m:
            remainder[e] = c
            continue
        i = (m & -m).bit_length() - 1
        me = tuple(map(sub, e, leads[i]))
        mc = c / coeffs[i]
        q = quotients.get(i)
        if q is None:
            q = quotients[i] = {}
        q[me] = mc
        for fe, fc in tails[i]:
            k = tuple(map(add, me, fe))
            old = work.get(k)
            if old is None:
                work[k] = -mc * fc
                push(heap, (tuple(map(neg, key(k))), k))
            else:
                work[k] = old - mc * fc
    zero = Polynomial._trusted(ambient, {})  # shared by every empty quotient
    return ([Polynomial._trusted(ambient, quotients[i]) if i in quotients else zero
             for i in range(len(leads))],
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
# Polynomial matrices and fraction-free determinants
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


# ---------------------------------------------------------------------------
# gcd, resultant and squarefree part: one subresultant remainder sequence
#
# A polynomial is read as one in a main variable x_i over Q[the others]: a
# list of coefficients, ascending in x_i, each a Polynomial over the same
# ambient with exponent 0 in slot i.  Contents are gcds of those
# coefficients, which involve fewer variables, so the gcd recurses down to
# constants.
# ---------------------------------------------------------------------------

def _one(ambient: tuple[str, ...]) -> Polynomial:
    return Polynomial._trusted(ambient, {(0,) * len(ambient): Fraction(1)})


def _coefficients(p: Polynomial, i: int) -> list[Polynomial]:
    """Ascending coefficients of a nonzero p in ambient slot i."""
    buckets: list[dict] = [{} for _ in range(max(e[i] for e in p.terms) + 1)]
    for exps, c in p.terms.items():
        buckets[exps[i]][exps[:i] + (0,) + exps[i + 1:]] = c
    return [Polynomial._trusted(p.ambient, b) for b in buckets]


def _assemble(coeffs: Sequence[Polynomial], i: int) -> Polynomial:
    """Inverse of _coefficients."""
    out = {}
    for d, cp in enumerate(coeffs):
        for exps, c in cp.terms.items():
            out[exps[:i] + (d,) + exps[i + 1:]] = c
    return Polynomial._trusted(coeffs[0].ambient, out)


def _primitive(coeffs: list[Polynomial]) -> tuple[Polynomial, list[Polynomial]]:
    """(content, primitive part) of a nonzero coefficient list.

    The content is the gcd of the coefficients times a rational chosen so
    that the primitive part has coprime integer coefficients.  The
    remainder sequence then runs on integers, where Fraction arithmetic
    needs no gcd of large denominators.
    """
    content = coeffs[-1]
    for c in coeffs:
        if content.is_constant():
            break
        content = _gcd(content, c)
    if content.is_constant():
        content = _one(content.ambient)
    else:
        coeffs = [exact_divide(c, content) for c in coeffs]
    values = [v for c in coeffs for v in c.terms.values()]
    scale = Fraction(gcd(*(v.numerator for v in values)),
                     lcm(*(v.denominator for v in values)))
    if scale == 1:
        return content, coeffs
    return content.scale(scale), [c.scale(1 / scale) for c in coeffs]


def _pseudo_remainder(a: list[Polynomial], b: list[Polynomial]) -> list[Polynomial]:
    """lc(b)^(deg a - deg b + 1) * a mod b, for deg a >= deg b >= 1."""
    lb, db = b[-1], len(b) - 1
    r = list(a)
    unused = len(a) - db  # factors of lc(b) not yet applied
    while len(r) > db:
        lr = r.pop()
        shift = len(r) - db
        r = [c * lb for c in r]
        for j, c in enumerate(b[:-1]):
            r[shift + j] -= lr * c
        while r and not r[-1]:
            r.pop()
        unused -= 1
    if unused:
        factor = lb ** unused
        r = [c * factor for c in r]
    return r


def _subresultant_prs(a: list[Polynomial], b: list[Polynomial]
                      ) -> tuple[list[Polynomial], list[Polynomial], Polynomial, int]:
    """Brown's subresultant remainder sequence of coefficient lists with
    deg a >= deg b >= 1 (Cohen, GTM 138, Alg. 3.3.1 and 3.3.7).

    Runs until a remainder of degree < 1 and returns (a, b, h, sign): a is
    the last remainder of positive degree, b the next one (empty when it is
    zero), h the subresultant scale of a, and sign the product of
    (-1)^(deg a * deg b) over the steps.  Every division is exact.
    """
    g = h = _one(a[0].ambient)
    sign = 1
    while True:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        r = _pseudo_remainder(a, b)
        divisor = g * h ** delta
        a, b = b, [exact_divide(c, divisor) for c in r]
        g = a[-1]
        if delta:
            h = exact_divide(g ** delta, h ** (delta - 1))
        if len(b) < 2:
            return a, b, h, sign


def _gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """A gcd of p and q, up to a nonzero rational factor.  The main variable
    is the last one that either polynomial involves."""
    if not p:
        return q
    if not q:
        return p
    if p.is_constant() or q.is_constant():
        return _one(p.ambient)
    i = next(i for i in reversed(range(len(p.ambient)))
             if any(e[i] for e in p.terms) or any(e[i] for e in q.terms))
    content_p, a = _primitive(_coefficients(p, i))
    content_q, b = _primitive(_coefficients(q, i))
    content = _gcd(content_p, content_q)
    if len(a) < len(b):
        a, b = b, a
    if len(b) > 1:
        a, b, _, _ = _subresultant_prs(a, b)
    if b:  # a nonzero remainder free of x_i: the primitive parts are coprime
        return content
    return content * _assemble(_primitive(a)[1], i)


def gcd_polynomials(p: Polynomial, q: Polynomial) -> Polynomial:
    """gcd of two polynomials in any number of variables, normalized to
    grevlex lead coefficient 1; zero only when both are zero."""
    p._check_ambient(q)
    return normalized(_gcd(p, q))


def resultant(p: Polynomial, q: Polynomial, var: str) -> Polynomial:
    """Resultant eliminating var: the determinant of the Sylvester matrix,
    sign and scale included.  The result lives over the remaining variables."""
    p._check_ambient(q)
    i = p._index(var)
    m = p.degree_in(var)
    n = q.degree_in(var)
    if m < 1 or n < 1:
        raise PolyError("resultant needs positive degree in the eliminated variable")
    content_p, a = _primitive(_coefficients(p, i))
    content_q, b = _primitive(_coefficients(q, i))
    sign = 1
    if m < n:  # res(q, p) = (-1)^(mn) res(p, q)
        a, b = b, a
        sign = (-1) ** (m * n)
    a, b, h, steps = _subresultant_prs(a, b)
    if not b:
        return Polynomial.zero(tuple(v for v in p.ambient if v != var))
    da = len(a) - 1
    res = content_p ** n * content_q ** m * exact_divide(b[0] ** da, h ** (da - 1))
    return res.scale(sign * steps).coefficient_in(var, 0)


def squarefree_part_bivariate(p: Polynomial) -> Polynomial:
    """Product of the distinct irreducible factors of p, in any number of
    variables.  (The name is from an earlier two-variable version; it stays
    because benchmark spans and callers refer to it.)

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
