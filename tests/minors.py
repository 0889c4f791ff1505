"""Minors by naive cofactor expansion, the reference the determinant, minor
and critical-ideal tests compare against."""

from itertools import combinations

from vancyc.poly import Polynomial


def cofactor_det(rows):
    """Determinant of a non-empty square matrix by expansion along row 0."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Polynomial.zero(rows[0][0].ambient)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def cofactor_minors(rows):
    """Every k x k minor of a k x m matrix, in column-subset order."""
    return [cofactor_det([[r[j] for j in cols] for r in rows])
            for cols in combinations(range(len(rows[0])), len(rows))]
