"""The packed monomials of a Buchberger run, X(e) = K(e) * 2**(n*W) + P(e)
(`groebner._DivisorIndex`), checked against tuple arithmetic and the order
key; shared by the seeded and the property-based tests."""

from operator import add, le

from vancyc.groebner import _DivisorIndex, _packed_lcms


def reference_pack(exps, width: int) -> int:
    """Variable v in bits v*width to (v + 1)*width - 1, by a plain sum."""
    return sum(e << width * v for v, e in enumerate(exps))


def check_packed_kernel(a, b, width: int):
    """For exponent tuples a and b below 2**(width - 1), on an index laid
    out at `width`: the P of X(a) is the reference packing, the packed lcm
    is tuple(map(max, a, b)) packed, the guard test holds exactly when a
    divides b, the lcm is the sum exactly when a and b are coprime, and a
    proper divisor packs to a smaller int."""
    index = _DivisorIndex(tuple(f"v{i}" for i in range(len(a))), tuple)
    index._layout(width)
    guard = index.guard
    assert guard == sum(1 << width * v + width - 1 for v in range(len(a)))
    pa, pb = index.pack(a) & index.pmask, index.pack(b) & index.pmask
    assert (pa, pb) == (reference_pack(a, width), reference_pack(b, width))
    lcm = reference_pack(tuple(map(max, a, b)), width)
    assert _packed_lcms([pa], pb, guard, width) == [lcm]
    assert _packed_lcms([pb], pa, guard, width) == [lcm]
    divides = all(map(le, a, b))
    assert (((pb | guard) - pa) & guard == guard) == divides
    assert (lcm == pa + pb) == (not any(x and y for x, y in zip(a, b)))
    if divides and a != b:
        assert pa < pb


def check_encoding(key, a, b):
    """For exponent tuples a and b and a linear order key, on an index
    widened to fit a + b: X(a) + X(b) is X(a + b), X(a) - X(b) has the sign
    of the comparison of key(a) with key(b), the guard test on X(a) and
    X(b) holds exactly when a divides b, and X(a) unpacks to a."""
    index = _DivisorIndex(tuple(f"v{i}" for i in range(len(a))), key)
    total = packed(index, tuple(map(add, a, b)))
    xa, xb = index.pack(a), index.pack(b)
    assert xa + xb == total
    ka, kb = key(a), key(b)
    assert (xa > xb) - (xa < xb) == (ka > kb) - (ka < kb)
    guard = index.guard
    assert (((xb | guard) - xa) & guard == guard) == all(map(le, a, b))
    assert index.exponents(xa) == tuple(a)


def append_polynomial(index: _DivisorIndex, p) -> None:
    """Pack a Polynomial through the index, widening it if need be, and
    append it."""
    ((form, _),) = index.forms([p])
    index.append(form)


def packed(index: _DivisorIndex, exps) -> int:
    """X(exps) on the index, widened first if an exponent does not fit."""
    top = max(exps, default=0)
    if top >> index.width - 1:
        index.widen(top)
    return index.pack(exps)
