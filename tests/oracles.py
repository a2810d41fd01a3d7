"""Independent oracles the test suite checks the library against.

Nothing here shares code with the implementation under test: the symbolic
matrix A - L is assembled entry by entry from MultiPoly and Var, determinants
go through naive cofactor expansion instead of the Pfaffian expansion, and
signatures come from characteristic polynomial coefficients via the
Faddeev-LeVerrier recurrence and Descartes' rule (exact for symmetric
matrices, whose eigenvalues are all real).
"""

from __future__ import annotations

from fractions import Fraction

from skewchar import MultiPoly, Var


def cofactor_det(rows):
    """Determinant by first-row cofactor expansion; generic over + - *."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def symbolic_difference(a):
    """Rows of A - L as MultiPoly entries: a_ij - l_ij above the diagonal,
    a_ij + l_ji below it, a_ii on it."""
    rows = []
    for i in range(a.n):
        row = []
        for j in range(a.n):
            entry = MultiPoly.constant(a.entry(i, j))
            if i < j:
                entry = entry - MultiPoly.variable(Var(i + 1, j + 1))
            elif i > j:
                entry = entry + MultiPoly.variable(Var(j + 1, i + 1))
            row.append(entry)
        rows.append(row)
    return rows


def char_poly_coeffs(rows) -> list[Fraction]:
    """Coefficients [c_0 .. c_n] of det(t*I - A) = sum c_k t^k, exactly.

    Faddeev-LeVerrier: M_1 = A, c_{n-k} = -tr(A M_k)/k, M_{k+1} = A M_k + c_{n-k} I.
    """
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][p] * m[p][j] for p in range(n)) for j in range(n)]
              for i in range(n)]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def _descartes_sign_changes(coeffs) -> int:
    nonzero = [c for c in coeffs if c != 0]
    return sum(
        1 for u, v in zip(nonzero, nonzero[1:]) if (u > 0) != (v > 0)
    )


def signature_by_charpoly(rows) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    All roots of the characteristic polynomial are real, so Descartes' rule
    counts them exactly; zero eigenvalues are the trailing zero coefficients.
    """
    n = len(rows)
    coeffs = char_poly_coeffs(rows)
    zeros = next(k for k, c in enumerate(coeffs) if c != 0)
    reduced = coeffs[zeros:]
    positive = _descartes_sign_changes(reduced)
    negated = [c if k % 2 == 0 else -c for k, c in enumerate(reduced)]
    negative = _descartes_sign_changes(negated)
    assert positive + negative + zeros == n
    return positive, negative, zeros
