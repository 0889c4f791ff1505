"""A seeded random-polynomial factory shared by the polynomial and bracket tests.

It lives outside conftest.py because pytest also collects perfbench/tests,
whose conftest module would shadow this directory's under the same name.
"""

from fractions import Fraction

from vancyc.poly import Polynomial


def random_polynomial(rng, ambient, max_terms=5, max_exp=3, nonzero=False):
    """A sparse polynomial with small random rational coefficients."""
    n = len(ambient)
    while True:
        terms = {}
        for _ in range(rng.randint(0, max_terms)):
            exps = tuple(rng.randint(0, max_exp) for _ in range(n))
            terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = Polynomial(ambient, terms)
        if p or not nonzero:
            return p
