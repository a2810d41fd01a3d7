"""Exact rational linear algebra owned by the benchmark.

The checker takes its reference values from here, never from skewchar, so a
wrong answer in the program under test cannot also be the reference.  The
determinant is plain Gaussian elimination over Fraction, a different
algorithm from the integer Bareiss elimination the program uses.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def det(rows) -> Fraction:
    """Exact determinant by Gaussian elimination with first-nonzero pivoting."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    result = Fraction(1)
    for k in range(n):
        p = next((r for r in range(k, n) if m[r][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            result = -result
        pivot = m[k][k]
        result *= pivot
        row_k = m[k]
        for i in range(k + 1, n):
            f = m[i][k] / pivot
            if f:
                row_i = m[i]
                for j in range(k + 1, n):
                    row_i[j] -= f * row_k[j]
    return result


def det_a_minus_l(a, upper: dict) -> Fraction:
    """det(A - L) for the skew L with strict upper entries {(i, j): value}, 1-based."""
    m = [list(row) for row in a]
    for (i, j), v in upper.items():
        m[i - 1][j - 1] -= v
        m[j - 1][i - 1] += v
    return det(m)


def congruent(diag, s) -> tuple[tuple[Fraction, ...], ...]:
    """S^T diag(d) S for rational d and an integer matrix S."""
    n = len(diag)
    den = lcm(*(Fraction(d).denominator for d in diag))
    w = [int(Fraction(d) * den) for d in diag]
    return tuple(
        tuple(
            Fraction(sum(s[k][i] * w[k] * s[k][j] for k in range(n)), den)
            for j in range(n)
        )
        for i in range(n)
    )
