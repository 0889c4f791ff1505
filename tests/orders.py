"""The monomial orders of the Groebner tests, as key functions, by name.

A name such as `block1` is both a test id and, through `seed_tag`, part of
the seed strings of the seeded inputs, so the names are fixed.
"""

from vancyc.groebner import elimination_key
from vancyc.poly import grevlex_key

lex = tuple  # pure lex: the exponent tuple is its own key

ORDERS = {"lex0": lex, "degrevlex0": grevlex_key,
          "block1": elimination_key(1), "block2": elimination_key(2)}


def front(name: str) -> int:
    """Size of the elimination front block (0 for lex and degrevlex)."""
    return int(name[-1])


def seed_tag(name: str) -> str:
    """'block1' -> 'block-1', the order's part of a seed string."""
    return f"{name[:-1]}-{front(name)}"
