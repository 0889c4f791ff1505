"""The canonical form of a Polynomial, shared by the polynomial, Groebner
and singularity tests: exponent tuples of the ambient's length, and nonzero
coefficients that are each an int when integral, else a Fraction with
denominator > 1.  Never a float, and never a Fraction that equals an int."""

from fractions import Fraction

from vancyc.poly import Polynomial


def is_canonical_coefficient(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def assert_canonical(p: Polynomial) -> None:
    n = len(p.ambient)
    for exps, c in p.terms.items():
        assert type(exps) is tuple and len(exps) == n
        assert all(type(e) is int and e >= 0 for e in exps)
        assert c != 0 and is_canonical_coefficient(c), (exps, c, type(c))
    assert Polynomial(p.ambient, p.terms) == p
