"""The packed-exponent kernel of `groebner._update_pairs`, checked against
tuple arithmetic; shared by the seeded and the property-based tests."""

from operator import le

from vancyc.groebner import _guard_bits, _pack, _packed_lcms


def reference_pack(exps, width: int) -> int:
    """Variable v in bits v*width to (v + 1)*width - 1, by a plain sum."""
    return sum(e << width * v for v, e in enumerate(exps))


def check_packed_kernel(a, b, width: int):
    """For exponent tuples a and b below 2**(width - 1): the packed lcm is
    tuple(map(max, a, b)) packed, the guard test holds exactly when a
    divides b, the lcm is the sum exactly when a and b are coprime, and a
    proper divisor packs to a smaller int."""
    guard = _guard_bits(width, len(a))
    pa, pb = _pack(a, width), _pack(b, width)
    assert (pa, pb) == (reference_pack(a, width), reference_pack(b, width))
    lcm = reference_pack(tuple(map(max, a, b)), width)
    assert _packed_lcms([pa], pb, guard, width) == [lcm]
    assert _packed_lcms([pb], pa, guard, width) == [lcm]
    divides = all(map(le, a, b))
    assert (((pb | guard) - pa) & guard == guard) == divides
    assert (lcm == pa + pb) == (not any(x and y for x, y in zip(a, b)))
    if divides and a != b:
        assert pa < pb
