"""Seeded random-polynomial factories shared by the polynomial and bracket tests.

It lives outside conftest.py because pytest also collects perfbench/tests,
whose conftest module would shadow this directory's under the same name.
"""

import random
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


XYZ = ("x", "y", "z")
FRAMES = (("y",), ("z",), ("x", "y"), ("x", "z"), ("y", "z"), XYZ)


def _factor(rng, frame):
    """A random non-constant factor in the frame's variables."""
    while True:
        f = random_polynomial(rng, frame, max_terms=3, max_exp=2).over(XYZ)
        if not f.is_constant():
            return f


def _product(rng, factors):
    """A random rational multiple of some of the factors, each to a power 1..3."""
    p = Polynomial.constant(XYZ, Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)))
    for f in factors:
        if rng.random() < 0.7:
            p = p * f ** rng.randint(1, 3)
    return p


def factored_pairs(seed: int, count: int):
    """(frame, p, q) over x, y, z, the frame drawn from FRAMES: p and q are
    products of small random factors in the frame's variables, some shared
    between them, each to a power of at most 3, so repeated and common
    factors are frequent."""
    rng = random.Random(seed)
    for _ in range(count):
        frame = rng.choice(FRAMES)
        shared = [_factor(rng, frame) for _ in range(rng.randint(1, 2))]
        p = _product(rng, shared + [_factor(rng, frame)])
        q = _product(rng, shared + [_factor(rng, frame)])
        yield frame, p, q
