"""The Poisson bracket of a structure by its coordinate formula, the
reference the symplectic and adjoint-quotient tests compare against."""

from itertools import combinations

from vancyc.poly import Polynomial


def reference_bracket(f, g, structure):
    """{f, g} = sum_{i<j} Pi_ij (d_i f d_j g - d_j f d_i g)."""
    amb = structure.ambient
    df = [f.partial_derivative(v) for v in amb]
    dg = [g.partial_derivative(v) for v in amb]
    out = Polynomial.zero(amb)
    for i, j in combinations(range(len(amb)), 2):
        out = out + structure.matrix[i][j] * (df[i] * dg[j] - df[j] * dg[i])
    return out
