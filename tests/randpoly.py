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


def _factor(rng, frame, var=None):
    """A random non-constant factor in the frame's variables, of positive
    degree in var when var is given."""
    while True:
        f = random_polynomial(rng, frame, max_terms=3, max_exp=2).extend(XYZ)
        if not f.is_constant() and (var is None or f.degree_in(var) > 0):
            return f


def _product(rng, factors, var, top):
    """A random rational multiple of some of the factors, each to a power
    1..top, of positive degree in var when var is given."""
    p = Polynomial.constant(XYZ, Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)))
    for f in factors:
        if rng.random() < 0.7:
            p = p * f ** rng.randint(1, top)
    if var is not None and p.degree_in(var) < 1:
        p = p * factors[0]
    return p


def factored_pairs(seed: int, count: int, var_in_frame=False, top=3, frames=FRAMES):
    """(frame, p, q) over x, y, z, the frame drawn from frames: p and q are
    products of small random factors in the frame's variables, some shared
    between them, each to a power of at most top, so repeated and common
    factors are frequent.  With var_in_frame both have positive degree in
    the frame's last variable."""
    rng = random.Random(seed)
    for _ in range(count):
        frame = rng.choice(frames)
        var = frame[-1] if var_in_frame else None
        shared = [_factor(rng, frame, var) for _ in range(rng.randint(1, 2))]
        p = _product(rng, shared + [_factor(rng, frame)], var, top)
        q = _product(rng, shared + [_factor(rng, frame)], var, top)
        yield frame, p, q


def resultant_pairs(top=3):
    """(var, p, q) with p and q of positive degree in var: 40 pairs over one
    or two variables with powers up to top, then 10 over all three with
    powers up to 2.  With powers up to 3, some three-variable pairs reach
    degree 14 in var, where one resultant takes from seconds to over a
    minute, sympy's as well."""
    for frames, seed, count, cap in ((FRAMES[:-1], 47, 40, top), ((XYZ,), 53, 10, 2)):
        for frame, p, q in factored_pairs(seed, count, True, cap, frames):
            yield frame[-1], p, q
