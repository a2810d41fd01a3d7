"""Exact symmetric, skew-symmetric and transition matrices over the rationals.

Everything here is immutable after construction and all arithmetic is exact:
determinants run through fraction-free integer elimination after clearing
denominators row by row.  Congruence diagonalization never introduces square
roots: one routine, _congruence_pivots, runs symmetric fraction-free
elimination on c*A (c the lcm of all denominators) and yields the exact
diagonal and the basis changes.  signature() reads only the signs of that
diagonal; lagrange_diagonalize() alone builds the transition matrix S.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .polynomials import Scalar, Var, _as_fraction


class DimensionMismatch(ValueError):
    """Operands do not have compatible dimensions."""


class MatrixParseError(ValueError):
    """Matrix text does not conform to the documented file format."""


def _fraction_rows(rows: Iterable[Iterable[Scalar]]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(_as_fraction(x) for x in row) for row in rows)


def _check_square(rows: tuple[tuple[Fraction, ...], ...]) -> int:
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("matrix must be square and nonempty")
    return n


def _matmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(m)), Fraction(0)) for j in range(p))
        for i in range(n)
    )


def _transpose(a):
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def _int_bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix (destructive)."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_rational(rows: Sequence[Sequence[Scalar]]) -> Fraction:
    """Exact determinant of a square matrix of rationals.

    Each row is scaled by the lcm of its denominators, the integer matrix is
    run through Bareiss elimination, and the scale is divided back out.
    """
    frows = _fraction_rows(rows)
    n = _check_square(frows)
    scale = 1
    int_rows: list[list[int]] = []
    for row in frows:
        m = math.lcm(*(x.denominator for x in row))
        scale *= m
        int_rows.append([int(x * m) for x in row])
    return Fraction(_int_bareiss_det(int_rows), scale)


class Signature(NamedTuple):
    """Counts of positive, negative and zero entries of a congruence-diagonal form."""

    positive: int
    negative: int
    zero: int


class SymmetricMatrix:
    """An exact symmetric matrix; symmetry is enforced at construction."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Iterable[Iterable[Scalar]]) -> None:
        frows = _fraction_rows(rows)
        n = _check_square(frows)
        for i in range(n):
            for j in range(i + 1, n):
                if frows[i][j] != frows[j][i]:
                    raise ValueError(f"not symmetric at ({i + 1}, {j + 1})")
        self.rows = frows
        self.n = n

    @classmethod
    def identity(cls, n: int) -> "SymmetricMatrix":
        return cls.diagonal([1] * n)

    @classmethod
    def zero(cls, n: int) -> "SymmetricMatrix":
        return cls.diagonal([0] * n)

    @classmethod
    def diagonal(cls, values: Sequence[Scalar]) -> "SymmetricMatrix":
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def diagonal_entries(self) -> tuple[Fraction, ...]:
        return tuple(self.rows[i][i] for i in range(self.n))

    def is_diagonal(self) -> bool:
        return all(
            self.rows[i][j] == 0 for i in range(self.n) for j in range(self.n) if i != j
        )

    def det(self) -> Fraction:
        return det_rational(self.rows)

    def __neg__(self) -> "SymmetricMatrix":
        return SymmetricMatrix([[-x for x in row] for row in self.rows])

    def __eq__(self, other) -> bool:
        return isinstance(other, SymmetricMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"SymmetricMatrix({[list(map(str, r)) for r in self.rows]})"

    def to_text(self) -> str:
        lines = [str(self.n)]
        lines.extend(" ".join(str(x) for x in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SymmetricMatrix":
        lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
        if not lines:
            raise MatrixParseError("empty matrix text")
        n = _parse_dimension(lines[0])
        if len(lines) != n + 1:
            raise MatrixParseError(f"expected {n} rows, found {len(lines) - 1}")
        rows = []
        for ln in lines[1:]:
            toks = ln.split()
            if len(toks) != n:
                raise MatrixParseError(f"expected {n} entries per row, got {len(toks)}")
            rows.append([_parse_fraction(t) for t in toks])
        try:
            return cls(rows)
        except ValueError as exc:
            raise MatrixParseError(str(exc)) from exc


class SkewMatrix:
    """An exact skew-symmetric matrix stored by its strict upper triangle."""

    __slots__ = ("n", "upper")

    def __init__(self, n: int, upper: dict | Iterable = ()) -> None:
        if n < 1:
            raise ValueError("dimension must be at least 1")
        items = upper.items() if isinstance(upper, dict) else upper
        store: dict[Var, Fraction] = {}
        for var, value in items:
            if not isinstance(var, Var):
                raise TypeError("upper-triangle keys must be Var instances")
            if var.j > n:
                raise ValueError(f"{var} out of range for dimension {n}")
            value = _as_fraction(value)
            if value:
                store[var] = value
        self.n = n
        self.upper = store

    @classmethod
    def zero(cls, n: int) -> "SkewMatrix":
        return cls(n)

    @classmethod
    def from_full(cls, rows: Iterable[Iterable[Scalar]]) -> "SkewMatrix":
        frows = _fraction_rows(rows)
        n = _check_square(frows)
        for i in range(n):
            if frows[i][i] != 0:
                raise ValueError(f"nonzero diagonal entry at ({i + 1}, {i + 1})")
            for j in range(i + 1, n):
                if frows[i][j] != -frows[j][i]:
                    raise ValueError(f"not skew-symmetric at ({i + 1}, {j + 1})")
        return cls(n, {Var(i + 1, j + 1): frows[i][j]
                       for i in range(n) for j in range(i + 1, n)})

    def entry(self, i: int, j: int) -> Fraction:
        """0-based signed entry: upper values positive, mirrored ones negated."""
        if i == j:
            return Fraction(0)
        if i < j:
            return self.upper.get(Var(i + 1, j + 1), Fraction(0))
        return -self.upper.get(Var(j + 1, i + 1), Fraction(0))

    def full_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(
            tuple(self.entry(i, j) for j in range(self.n)) for i in range(self.n)
        )

    def __neg__(self) -> "SkewMatrix":
        return SkewMatrix(self.n, {v: -c for v, c in self.upper.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewMatrix)
            and self.n == other.n
            and self.upper == other.upper
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.upper.items())))

    def __repr__(self) -> str:
        entries = ", ".join(f"{v}={c}" for v, c in sorted(self.upper.items()))
        return f"SkewMatrix(n={self.n}, {entries or 'zero'})"

    def to_text(self) -> str:
        lines = [str(self.n)]
        lines.extend(
            f"{v.i} {v.j} {c}" for v, c in sorted(self.upper.items())
        )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SkewMatrix":
        lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
        if not lines:
            raise MatrixParseError("empty matrix text")
        n = _parse_dimension(lines[0])
        upper: dict[Var, Fraction] = {}
        for ln in lines[1:]:
            toks = ln.split()
            if len(toks) != 3:
                raise MatrixParseError(f"expected 'i j value', got {ln!r}")
            try:
                i, j = int(toks[0]), int(toks[1])
            except ValueError as exc:
                raise MatrixParseError(f"bad indices in {ln!r}") from exc
            if not (1 <= i < j <= n):
                raise MatrixParseError(f"indices must satisfy 1 <= i < j <= {n}: {ln!r}")
            var = Var(i, j)
            if var in upper:
                raise MatrixParseError(f"duplicate entry for {var}")
            upper[var] = _parse_fraction(toks[2])
        return cls(n, upper)


class TransitionMatrix:
    """An invertible exact matrix used for changes of basis."""

    __slots__ = ("rows", "n", "det")

    def __init__(self, rows: Iterable[Iterable[Scalar]]) -> None:
        frows = _fraction_rows(rows)
        n = _check_square(frows)
        d = det_rational(frows)
        if d == 0:
            raise ValueError("transition matrix must be invertible")
        self.rows = frows
        self.n = n
        self.det = d

    @classmethod
    def identity(cls, n: int) -> "TransitionMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence[Scalar]) -> "TransitionMatrix":
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def permutation(cls, perm: Sequence[int]) -> "TransitionMatrix":
        """Matrix P with column k carrying basis vector perm[k] (0-based)."""
        n = len(perm)
        rows = [[0] * n for _ in range(n)]
        for k, p in enumerate(perm):
            rows[p][k] = 1
        return cls(rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def transpose(self) -> "TransitionMatrix":
        return TransitionMatrix(_transpose(self.rows))

    def inverse(self) -> "TransitionMatrix":
        n = self.n
        aug = [list(self.rows[i]) + [Fraction(int(i == j)) for j in range(n)]
               for i in range(n)]
        for col in range(n):
            pivot_row = next(r for r in range(col, n) if aug[r][col] != 0)
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            pivot = aug[col][col]
            aug[col] = [x / pivot for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return TransitionMatrix([row[n:] for row in aug])

    def __matmul__(self, other: "TransitionMatrix") -> "TransitionMatrix":
        if self.n != other.n:
            raise DimensionMismatch("matrix sizes differ")
        return TransitionMatrix(_matmul(self.rows, other.rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, TransitionMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"TransitionMatrix({[list(map(str, r)) for r in self.rows]})"


# -- congruence transforms --------------------------------------------------


def congruence_sym(a: SymmetricMatrix, s: TransitionMatrix) -> SymmetricMatrix:
    """The transformed matrix S^T A S of a quadratic form under basis change."""
    if a.n != s.n:
        raise DimensionMismatch(f"form has n={a.n}, transition has n={s.n}")
    st = _transpose(s.rows)
    return SymmetricMatrix(_matmul(_matmul(st, a.rows), s.rows))


def congruence_skew(l: SkewMatrix, s: TransitionMatrix) -> SkewMatrix:
    """The transformed matrix S^T L S; skew-symmetry is preserved exactly."""
    if l.n != s.n:
        raise DimensionMismatch(f"skew matrix has n={l.n}, transition has n={s.n}")
    st = _transpose(s.rows)
    return SkewMatrix.from_full(_matmul(_matmul(st, l.full_rows()), s.rows))


def _congruence_pivots(a: SymmetricMatrix) -> tuple[list[Fraction], list[tuple]]:
    """Diagonal and basis changes of the congruence reduction S^T A S = D.

    Pivot rules: swap the first nonzero trailing diagonal entry into place;
    if the trailing diagonal is all zero, fold the first nonzero off-diagonal
    pair (p, q) by e_p += e_q and swap p into place; stop at an all-zero
    trailing block, whose diagonal entries are zero.

    The reduction is symmetric fraction-free (Bareiss) elimination of the
    integer matrix c*A, c the lcm of all denominators, with swaps and folds
    applied congruently.  After pivot k the trailing block is c * pivot_k
    times the rational Schur complement, so every division is exact,
    d_k = pivot_k / (c * pivot_{k-1}), and each factor -M_ik / M_kk equals
    the rational one.  Basis changes are recorded in order as
    ("swap", p, q) and ("add", dst, src, num, den), the latter meaning
    e_dst += (num / den) * e_src.
    """
    n = a.n
    c = math.lcm(*(x.denominator for row in a.rows for x in row))
    m = [[x.numerator * (c // x.denominator) for x in row] for row in a.rows]
    diag = [Fraction(0)] * n
    ops: list[tuple] = []

    # Rows and columns before the current pivot are stale: they are never
    # read again, so swaps and folds may touch them freely.
    def swap(p: int, q: int) -> None:
        for row in m:
            row[p], row[q] = row[q], row[p]
        m[p], m[q] = m[q], m[p]
        ops.append(("swap", p, q))

    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            pivot = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if pivot is not None:
                swap(k, pivot)
            else:
                pair = next(
                    ((p, q) for p in range(k, n) for q in range(p + 1, n) if m[p][q] != 0),
                    None,
                )
                if pair is None:
                    break  # trailing block is zero: remaining diagonal stays zero
                p, q = pair
                for row in m:
                    row[p] += row[q]
                m[p] = [x + y for x, y in zip(m[p], m[q])]
                ops.append(("add", p, q, 1, 1))
                if p != k:
                    swap(k, p)
        row_k = m[k]
        pivot_val = row_k[k]
        diag[k] = Fraction(pivot_val, c * prev)
        for i in range(k + 1, n):
            row_i = m[i]
            f = row_i[k]
            if f:
                ops.append(("add", i, k, -f, pivot_val))
            for j in range(i, n):
                m[j][i] = row_i[j] = (pivot_val * row_i[j] - f * row_k[j]) // prev
        prev = pivot_val
    return diag, ops


def lagrange_diagonalize(a: SymmetricMatrix) -> tuple[TransitionMatrix, SymmetricMatrix]:
    """Rational congruence diagonalization: returns (S, D) with S^T A S = D.

    Pivots use a nonzero diagonal entry when one exists in the trailing block
    (swapping it into place); when the trailing diagonal is all zero but some
    off-diagonal entry survives, that row/column pair is first folded together
    to manufacture a nonzero diagonal pivot.  A fully zero trailing block
    contributes zero diagonal entries.  No square roots are ever taken, so D
    is not normalized to entries of modulus one.

    D comes from fraction-free integer elimination (_congruence_pivots); S is
    built by replaying its recorded basis changes on the identity.
    """
    n = a.n
    diag, ops = _congruence_pivots(a)
    s = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for op in ops:
        if op[0] == "swap":
            _, p, q = op
            for row in s:
                row[p], row[q] = row[q], row[p]
        else:
            _, dst, src, num, den = op
            f = Fraction(num, den)
            for row in s:
                if row[src]:
                    row[dst] += f * row[src]
    return TransitionMatrix(s), SymmetricMatrix.diagonal(diag)


def signature(a: SymmetricMatrix) -> Signature:
    """Counts of positive, negative and zero entries of a diagonalized form.

    Basis independent by Sylvester's law of inertia.  Reads the signs of the
    diagonal from _congruence_pivots; no transition matrix is built.
    """
    diag, _ = _congruence_pivots(a)
    pos = sum(1 for x in diag if x > 0)
    neg = sum(1 for x in diag if x < 0)
    return Signature(pos, neg, a.n - pos - neg)


def random_skew(n: int, seed: int, bound: int = 10) -> SkewMatrix:
    """Deterministic random skew matrix: each entry p/q with |p| <= bound, 1 <= q <= bound."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    rng = random.Random(seed)
    upper: dict[Var, Fraction] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            value = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            if value:
                upper[Var(i, j)] = value
    return SkewMatrix(n, upper)


# -- text format helpers ------------------------------------------------------

_FRACTION_RE = r"[+-]?\d+(?:/[1-9]\d*)?"


def _parse_fraction(token: str) -> Fraction:
    if not re.fullmatch(_FRACTION_RE, token):
        raise MatrixParseError(f"bad rational literal {token!r}")
    return Fraction(token)


def _parse_dimension(token: str) -> int:
    try:
        n = int(token)
    except ValueError as exc:
        raise MatrixParseError(f"bad dimension line {token!r}") from exc
    if n < 1:
        raise MatrixParseError("dimension must be at least 1")
    return n
