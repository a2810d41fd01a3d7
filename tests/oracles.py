"""Independent oracles the test suite checks the library against.

Nothing here shares code with the implementation under test: the symbolic
matrix A - L is assembled entry by entry from MultiPoly and Var, determinants
go through cofactor expansion instead of the Pfaffian expansion,
Pfaffians through first-row expansion instead of skew elimination or the
packed subset kernel, signatures come from characteristic polynomial
coefficients via the Faddeev-LeVerrier recurrence and Descartes' rule (exact
for symmetric matrices, whose eigenvalues are all real), and the congruence
diagonalization is reproduced by plain Fraction elimination.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from skewchar import MultiPoly, Var, lam


def cofactor_det(rows):
    """Determinant by first-row cofactor expansion; generic over + - *.

    Each minor is expanded once, keyed by its first row and the columns it
    keeps: n 2^n products in place of n!, so n = 12 is within reach.
    """
    n = len(rows)

    @functools.cache
    def minor(i, columns):
        if i == n - 1:
            return rows[i][columns[0]]
        total = None
        for t, j in enumerate(columns):
            term = rows[i][j] * minor(i + 1, columns[:t] + columns[t + 1:])
            if t % 2:
                term = -term
            total = term if total is None else total + term
        return total

    return minor(0, tuple(range(n)))


def golden_identity_poly(n: int) -> MultiPoly:
    """The expanded determinant for the identity form (n <= 4), built term by term."""
    total = MultiPoly.constant(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            total = total + lam(i, j) ** 2
    if n == 4:
        total = total + (lam(1, 2) * lam(3, 4) + lam(2, 3) * lam(1, 4)
                         - lam(1, 3) * lam(2, 4)) ** 2
    return total


def pfaffian_first_row(rows, indices=None):
    """Pfaffian of rows[indices] by first-row expansion, (n-1)!! terms; generic
    over + - *.  Odd index sets give 0, the empty set 1."""
    if indices is None:
        indices = tuple(range(len(rows)))
    if not indices:
        return 1
    first, rest = indices[0], indices[1:]
    total = 0
    for t, other in enumerate(rest):
        term = rows[first][other] * pfaffian_first_row(rows, rest[:t] + rest[t + 1:])
        total = total - term if t % 2 else total + term
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


def lagrange_reference(a) -> tuple[tuple, tuple]:
    """Rows of (S, D) with S^T A S = D by Lagrange reduction over Fraction.

    Same pivot rules as lagrange_diagonalize: swap in the first nonzero
    trailing diagonal entry, else fold the first nonzero off-diagonal pair
    (p, q) by e_p += e_q and swap p into place, stop at a zero trailing block.
    Every basis change is applied to the whole matrix in rational arithmetic.
    """
    n = a.n
    m = [list(row) for row in a.rows]
    s = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def swap_basis(p: int, q: int) -> None:
        for row in m:
            row[p], row[q] = row[q], row[p]
        m[p], m[q] = m[q], m[p]
        for row in s:
            row[p], row[q] = row[q], row[p]

    def add_basis(dst: int, src: int, f: Fraction) -> None:
        # Basis change e_dst <- e_dst + f * e_src, applied congruently.
        for row in m:
            row[dst] += f * row[src]
        for j in range(n):
            m[dst][j] += f * m[src][j]
        for row in s:
            row[dst] += f * row[src]

    for k in range(n):
        if m[k][k] == 0:
            pivot = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if pivot is not None:
                swap_basis(k, pivot)
            else:
                pair = next(
                    ((p, q) for p in range(k, n) for q in range(p + 1, n) if m[p][q] != 0),
                    None,
                )
                if pair is None:
                    break
                p, q = pair
                add_basis(p, q, Fraction(1))
                if p != k:
                    swap_basis(k, p)
        pivot_val = m[k][k]
        for i in range(k + 1, n):
            if m[i][k]:
                add_basis(i, k, -m[i][k] / pivot_val)

    d = tuple(tuple(m[i][i] if i == j else Fraction(0) for j in range(n))
              for i in range(n))
    return tuple(tuple(row) for row in s), d
