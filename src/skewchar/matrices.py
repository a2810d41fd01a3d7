"""Exact symmetric, skew-symmetric and transition matrices over the rationals.

Everything here is immutable after construction and all arithmetic is exact.
Every rational determinant, det_rational and det(A - L) in engine and
analyzer alike, goes through one integer kernel, _scaled_det, and the two
matrix classes store its input.  SymmetricMatrix.int_rows holds row a_i as
(c_i, c_i * a_i), c_i the lcm of its denominators, the second an int tuple.
SkewMatrix.entries holds each nonzero l_ij = p/q, i < j, as (i, j, p, q),
0-based, p/q reduced, sorted.  Both are canonical, so == and hash read them;
the Fraction views rows and upper are built on first use.  A constructor
converts each value once; -L, random_skew and the skew reader build entries
directly and skip the validating constructor.  The kernel has two stages.
_kernel_matrix folds L into the stored rows: one pass over L collects each
row's denominators, row i is scaled to c = lcm(c_i, q of each entry in
row i), and each entry of L is subtracted or added into its two slots.
_int_bareiss_det then runs three-step fraction-free (Bareiss) elimination:
each pass eliminates three columns through 4 x 4 minors, which Sylvester's
identity makes exact multiples of the cube of the previous pivot, so
every entry costs one exact division per three columns.  _scaled_det divides
by the product of the scales; sign_probe reads the sign of the integer, as
every scale is positive.

Congruence diagonalization never introduces square roots: one routine,
_congruence_pivots, runs symmetric fraction-free elimination on c*A (c the
lcm of the c_i) once per matrix and keeps the exact diagonal and the basis
changes on it.  signature() reads only the signs of that diagonal;
lagrange_diagonalize() returns it as the tuple d beside the transition
matrix S, which it alone builds, in integers: it replays the basis changes
on the columns of S, each kept as (q, ints).

The text readers refuse non-ASCII text, then share one prologue: strip the
lines, drop blank ones, read the dimension.  Dimensions, indices and values
follow the ASCII number grammar kept in polynomials; an error message
echoes at most the first 60 characters of a bad token or line, or of the
dimension.  Each distinct token is parsed once per file, a value into its
reduced int pair (p, q), and the stored state is built from the pairs: no
Fraction or Var per entry.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .polynomials import (Scalar, Var, _as_fraction, _check_ascii, _int_at_least,
                          _parse_digits, _parse_rational, _shown)

_ZERO = Fraction(0)


class DimensionMismatch(ValueError):
    """Operands do not have compatible dimensions."""


class MatrixParseError(ValueError):
    """Matrix text does not conform to the documented file format."""


def _square_rows(rows: Iterable[Iterable[Scalar]]) -> tuple[tuple[Fraction, ...], ...]:
    """The rows as Fractions, refused unless square and nonempty."""
    frows = tuple([tuple([_as_fraction(x) for x in row]) for row in rows])
    n = len(frows)
    if n == 0 or any(len(row) != n for row in frows):
        raise ValueError("matrix must be square and nonempty")
    return frows


def _check_index(n: int, i: int, j: int) -> None:
    if type(i) is not int or type(j) is not int:
        raise TypeError(f"entry indices must be ints, got ({i!r}, {j!r})")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"entry ({i}, {j}) is outside a matrix of dimension {n}")


def _matmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return tuple([
        tuple([sum((a[i][k] * b[k][j] for k in range(m)), Fraction(0)) for j in range(p)])
        for i in range(n)
    ])


def _int_bareiss_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by three-step Bareiss elimination.

    Destructive: m is eliminated in place, its rows swapped and overwritten.
    After p passes, rows and columns 3p on of m form the trailing block b.
    It holds the minors of the row-permuted input that border its leading
    3p x 3p minor d (d = 1 before the first pass) with one more row and
    column; entries left of b are stale.  By Sylvester's identity (Bareiss,
    "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 22, 1968) an s x s minor of b is d^(s-1)
    times a minor of the input.  A pass takes rows and columns k, l = k + 1
    and h = k + 2 of b as its pivot block P.  det P is d^2 times the next
    pass's d, D = det P / d^2.  For a later column j, the entries of
    adj(P) b[k:k+3, j] are, by Cramer's rule, the 3 x 3 minors of P with
    one column replaced by column j, so

        w_j = adj(P) b[k:k+3, j] // d^2

    is exact, one division per entry of w_j.  The 4 x 4 minor over rows k,
    l, h, i and columns k, l, h, j is b_ij det P - b[i, k:k+3] adj(P)
    b[k:k+3, j], and it is d^3 times the next entry, so d divides each such
    numerator:

        b'_ij = (b_ij * D - b_ik w_0j - b_il w_1j - b_ih w_2j) // d,

    four multiplications and one exact division per entry per three
    columns, where two-step passes make 4.5 and 1.5.

    A zero b_kk swaps in the first later row with a nonzero entry in column
    k; without one the determinant is 0.  A zero leading 2 x 2 minor of P
    swaps in the first row r after l with a nonzero b_kk b_rl - b_kl b_rk
    (d times its one-step entry in column l); without one, column l is zero
    after one step, and so is the determinant.  A zero det P swaps in the
    first row r after h that makes it nonzero (d^2 times the two-step entry
    of row r in column h); without one, column h is zero after two steps,
    and so is the determinant.  A pass with no row after P returns D; else
    the passes leave one row, whose entry is the determinant, or two, whose
    2 x 2 minor over d is.
    """
    n = len(m)
    sign = 1
    d = 1
    w0 = [0] * n
    w1 = [0] * n
    w2 = [0] * n
    for k in range(0, n - 2, 3):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        l, h = k + 1, k + 2
        row_k, row_l = m[k], m[l]
        p_kk, p_kl = row_k[k], row_k[l]
        if p_kk * row_l[l] - p_kl * row_l[k] == 0:
            for r in range(h, n):
                if p_kk * m[r][l] - p_kl * m[r][k]:
                    m[l], m[r] = m[r], m[l]
                    sign = -sign
                    row_l = m[l]
                    break
            else:
                return 0
        p_kh, p_lk, p_ll, p_lh = row_k[h], row_l[k], row_l[l], row_l[h]
        # The cofactors of row h of P, which rows k and l alone fix.
        c_k = p_kl * p_lh - p_kh * p_ll
        c_l = p_kh * p_lk - p_kk * p_lh
        c_h = p_kk * p_ll - p_kl * p_lk
        row_h = m[h]
        det = row_h[k] * c_k + row_h[l] * c_l + row_h[h] * c_h
        if det == 0:
            for r in range(h + 1, n):
                row = m[r]
                det = row[k] * c_k + row[l] * c_l + row[h] * c_h
                if det:
                    m[h], m[r] = row, row_h
                    sign = -sign
                    row_h = row
                    break
            else:
                return 0
        dd = d * d
        if h == n - 1:
            return sign * (det // dd)
        p_hk, p_hl, p_hh = row_h[k], row_h[l], row_h[h]
        # adj(P), row by row; its last column is (c_k, c_l, c_h).
        a00, a01 = p_ll * p_hh - p_lh * p_hl, p_kh * p_hl - p_kl * p_hh
        a10, a11 = p_lh * p_hk - p_lk * p_hh, p_kk * p_hh - p_kh * p_hk
        a20, a21 = p_lk * p_hl - p_ll * p_hk, p_kl * p_hk - p_kk * p_hl
        rest = range(h + 1, n)
        for j in rest:
            x, y, z = row_k[j], row_l[j], row_h[j]
            w0[j] = (a00 * x + a01 * y + c_k * z) // dd
            w1[j] = (a10 * x + a11 * y + c_l * z) // dd
            w2[j] = (a20 * x + a21 * y + c_h * z) // dd
        det //= dd
        for i in rest:
            row = m[i]
            s, t, u = row[k], row[l], row[h]
            for j in rest:
                row[j] = (row[j] * det - s * w0[j] - t * w1[j] - u * w2[j]) // d
        d = det
    if n % 3 == 1:
        return sign * m[n - 1][n - 1]
    row_k, row_l = m[n - 2], m[n - 1]
    return sign * ((row_k[n - 2] * row_l[n - 1] - row_k[n - 1] * row_l[n - 2]) // d)


def _kernel_row(pairs: Sequence[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """A row of rationals p/q, given as int pairs, as (c, ints): c the lcm of the q."""
    c = math.lcm(*[q for _, q in pairs])
    return c, tuple([p * (c // q) for p, q in pairs])


def _kernel_matrix(int_rows: Sequence[tuple[int, tuple[int, ...]]],
                   upper: Sequence[tuple[int, int, int, int]],
                   ) -> tuple[list[list[int]], list[int]]:
    """(m, scales): R - L as integer rows, row i scaled by scales[i] > 0.

    Row i of R is (c_i, c_i * r_i), as in SymmetricMatrix.int_rows.  L is a
    sequence of (i, j, p, q) tuples, 0-based with i < j and q > 0:
    l_ij = p/q and l_ji = -p/q, as in SkewMatrix.entries.  One pass over L
    takes each row's denominators into its scale: scales[i] is the lcm of
    c_i and the q of every entry in row i.  Row i of m is the stored
    c_i * r_i times scales[i] // c_i; a second pass subtracts
    p * (scales[i] // q) at (i, j) and adds p * (scales[j] // q) at (j, i).
    So m = diag(scales) (R - L).
    """
    scales = [c for c, _ in int_rows]
    for i, j, _, q in upper:
        if scales[i] % q:
            scales[i] = math.lcm(scales[i], q)
        if scales[j] % q:
            scales[j] = math.lcm(scales[j], q)
    m = [[x * f for x in ints] for (c_i, ints), c in zip(int_rows, scales) for f in [c // c_i]]
    for i, j, p, q in upper:
        m[i][j] -= p * (scales[i] // q)
        m[j][i] += p * (scales[j] // q)
    return m, scales


def _scaled_det(int_rows: Sequence[tuple[int, tuple[int, ...]]],
                upper: Sequence[tuple[int, int, int, int]]) -> Fraction:
    """Exact det(R - L): _int_bareiss_det of the _kernel_matrix, over prod(scales)."""
    m, scales = _kernel_matrix(int_rows, upper)
    return Fraction(_int_bareiss_det(m), math.prod(scales))


def det_rational(rows: Sequence[Sequence[Scalar]]) -> Fraction:
    """Exact determinant of a square matrix of rationals: _scaled_det with L = 0."""
    return _scaled_det([_kernel_row([x.as_integer_ratio() for x in row])
                        for row in _square_rows(rows)], ())


class Signature(NamedTuple):
    """Counts of positive, negative and zero entries of a congruence-diagonal form."""

    positive: int
    negative: int
    zero: int


class SymmetricMatrix:
    """An exact symmetric matrix; symmetry is enforced at construction.

    It stores int_rows (module docstring); rows is a view built on first use.
    """

    __slots__ = ("n", "int_rows", "_rows", "_pivots")

    def __init__(self, rows: Iterable[Iterable[Scalar]]) -> None:
        frows = _square_rows(rows)
        self._store(tuple([tuple([x.as_integer_ratio() for x in row]) for row in frows]),
                    ValueError)
        self._rows = frows

    def _store(self, pairs: tuple[tuple[tuple[int, int], ...], ...],
               error: type[ValueError]) -> None:
        # Square rows of reduced pairs, equal exactly when their values are.
        n = len(pairs)
        if list(pairs) != list(zip(*pairs)):
            i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                        if pairs[i][j] != pairs[j][i])
            raise error(f"not symmetric at ({i + 1}, {j + 1})")
        self.n, self.int_rows = n, tuple([_kernel_row(row) for row in pairs])
        self._rows = self._pivots = None

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions: a view of int_rows, built once."""
        if self._rows is None:
            self._rows = tuple([tuple([Fraction(x, c) for x in ints])
                                for c, ints in self.int_rows])
        return self._rows

    @classmethod
    def identity(cls, n: int) -> "SymmetricMatrix":
        return cls.diagonal([1] * _int_at_least("dimension", n, 1))

    @classmethod
    def zero(cls, n: int) -> "SymmetricMatrix":
        return cls.diagonal([0] * _int_at_least("dimension", n, 1))

    @classmethod
    def diagonal(cls, values: Sequence[Scalar]) -> "SymmetricMatrix":
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> Fraction:
        """0-based entry; an index that is not an int in range(n) is refused."""
        _check_index(self.n, i, j)
        return self.rows[i][j]

    def det(self) -> Fraction:
        return _scaled_det(self.int_rows, ())

    def __neg__(self) -> "SymmetricMatrix":
        # Each c_i stays the lcm of its row's denominators: canonical as it is.
        neg = object.__new__(SymmetricMatrix)
        neg.n, neg._rows, neg._pivots = self.n, None, None
        neg.int_rows = tuple([(c, tuple([-x for x in ints])) for c, ints in self.int_rows])
        return neg

    def __eq__(self, other) -> bool:
        return isinstance(other, SymmetricMatrix) and self.int_rows == other.int_rows

    def __hash__(self) -> int:
        return hash(self.int_rows)

    def __repr__(self) -> str:
        return f"SymmetricMatrix({[list(map(str, r)) for r in self.rows]})"

    def to_text(self) -> str:
        lines = [str(self.n)]
        lines.extend(" ".join(str(x) for x in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SymmetricMatrix":
        """Read the symmetric file format; each distinct token is parsed once."""
        n, lines = _read_lines(text)
        if len(lines) != n:
            raise MatrixParseError(
                f"expected {_shown(str(n), quote=False)} rows, found {len(lines)}")
        rows = []
        memo: dict[str, tuple[int, int] | None] = {}  # token -> its pair, parsed once
        for ln in lines:
            toks = ln.split()
            if len(toks) != n:
                raise MatrixParseError(f"expected {_shown(str(n), quote=False)} "
                                       f"entries per row, got {len(toks)}")
            row = tuple([memo.get(t) or memo.setdefault(t, _parse_rational(t)) for t in toks])
            if None in row:
                raise MatrixParseError(f"bad rational literal {_shown(toks[row.index(None)])}")
            rows.append(row)
        a = object.__new__(cls)
        a._store(tuple(rows), MatrixParseError)
        return a


class SkewMatrix:
    """An exact skew-symmetric matrix stored by its strict upper triangle.

    It stores entries (module docstring); upper is a view built on first use.
    """

    __slots__ = ("n", "entries", "_upper")

    def __init__(self, n: int, upper: dict | Iterable = ()) -> None:
        _int_at_least("dimension", n, 1)
        items = upper.items() if isinstance(upper, dict) else upper
        pairs: dict[Var, tuple[int, int]] = {}
        for var, value in items:
            if not isinstance(var, Var):
                raise TypeError("upper-triangle keys must be Var instances")
            if var.j > n:
                raise ValueError(f"{var} out of range for dimension {n}")
            if var in pairs:
                raise ValueError(f"duplicate entry for {var}")
            pairs[var] = _as_fraction(value).as_integer_ratio()
        self.n = n
        self.entries = tuple(sorted([(i - 1, j - 1, p, q) for (i, j), (p, q) in pairs.items()
                                     if p]))
        self._upper = None

    @classmethod
    def _trusted(cls, n: int, entries: tuple) -> "SkewMatrix":
        # Trusted path: entries are canonical (reduced, nonzero, sorted, in range).
        l = object.__new__(cls)
        l.n, l.entries, l._upper = n, entries, None
        return l

    @property
    def upper(self) -> dict[Var, Fraction]:
        """The nonzero upper entries by variable: a view of entries, built once."""
        if self._upper is None:
            self._upper = {Var(i + 1, j + 1): Fraction(p, q) for i, j, p, q in self.entries}
        return self._upper

    @classmethod
    def zero(cls, n: int) -> "SkewMatrix":
        return cls(n)

    def entry(self, i: int, j: int) -> Fraction:
        """0-based signed entry: upper values positive, mirrored ones negated.

        An index that is not an int in range(n) is refused.
        """
        _check_index(self.n, i, j)
        # upper is keyed by Var, which equals and hashes as its (i, j) tuple.
        if i <= j:
            return self.upper.get((i + 1, j + 1), _ZERO)
        return -self.upper.get((j + 1, i + 1), _ZERO)

    def __neg__(self) -> "SkewMatrix":
        return SkewMatrix._trusted(self.n, tuple([(i, j, -p, q) for i, j, p, q in self.entries]))

    def __eq__(self, other) -> bool:
        return isinstance(other, SkewMatrix) and (self.n, self.entries) == (other.n, other.entries)

    def __hash__(self) -> int:
        return hash((self.n, self.entries))

    def __repr__(self) -> str:
        entries = ", ".join(f"{v}={c}" for v, c in self.upper.items())
        return f"SkewMatrix(n={self.n}, {entries or 'zero'})"

    def to_text(self) -> str:
        lines = [str(self.n)]
        lines.extend(f"{i + 1} {j + 1} {Fraction(p, q)}" for i, j, p, q in self.entries)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SkewMatrix":
        """Read the skew file format; each distinct value token is parsed once."""
        n, lines = _read_lines(text)
        upper: dict[tuple[int, int], tuple[int, int]] = {}
        # token -> its value, parsed once: an index token recurs on about n lines
        memo: dict[str, tuple[int, int] | None] = {}
        index: dict[str, int | None] = {}
        for ln in lines:
            toks = ln.split()
            if len(toks) != 3:
                raise MatrixParseError(f"expected 'i j value', got {_shown(ln)}")
            a, b, value = toks
            i = index.get(a) or index.setdefault(a, _parse_digits(a))
            j = index.get(b) or index.setdefault(b, _parse_digits(b))
            if i is None or j is None:
                raise MatrixParseError(f"bad indices in {_shown(ln)}")
            if not (1 <= i < j <= n):
                raise MatrixParseError("indices must satisfy 1 <= i < j <= "
                                       f"{_shown(str(n), quote=False)}: {_shown(ln)}")
            if (i, j) in upper:
                raise MatrixParseError(f"duplicate entry for l{i}_{j}")
            pair = memo.get(value) or memo.setdefault(value, _parse_rational(value))
            if pair is None:
                raise MatrixParseError(f"bad rational literal {_shown(value)}")
            upper[i, j] = pair
        return cls._trusted(n, tuple(sorted(
            (i - 1, j - 1, p, q) for (i, j), (p, q) in upper.items() if p)))


class TransitionMatrix:
    """An invertible exact matrix used for changes of basis.

    It stores columns, column k as (q, ints): ints / q in lowest terms, q > 0,
    row k of S^T in the kernel's form.  Both constructors keep them canonical,
    so == and hash read them; rows is a view built on first use.
    """

    __slots__ = ("n", "det", "columns", "_rows")

    def __init__(self, rows: Iterable[Iterable[Scalar]]) -> None:
        frows = _square_rows(rows)
        n = len(frows)
        columns = tuple([_kernel_row([x.as_integer_ratio() for x in c]) for c in zip(*frows)])
        d = _scaled_det(columns, ())  # det S^T = det S
        if d == 0:
            raise ValueError("transition matrix must be invertible")
        self.n, self.det, self.columns, self._rows = n, d, columns, frows

    @classmethod
    def _unimodular(cls, columns: tuple, det: int) -> "TransitionMatrix":
        # Trusted path for lagrange_diagonalize: reduced columns, det = +-1 known.
        s = object.__new__(cls)
        s.n, s.det, s.columns, s._rows = len(columns), Fraction(det), columns, None
        return s

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions: a view of columns, built once."""
        if self._rows is None:
            self._rows = tuple(zip(*[[Fraction(x, q) for x in ints]
                                     for q, ints in self.columns]))
        return self._rows

    @classmethod
    def identity(cls, n: int) -> "TransitionMatrix":
        return cls.diagonal([1] * _int_at_least("dimension", n, 1))

    @classmethod
    def diagonal(cls, values: Sequence[Scalar]) -> "TransitionMatrix":
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def permutation(cls, perm: Sequence[int]) -> "TransitionMatrix":
        """Matrix P with column k carrying basis vector perm[k] (0-based).

        perm must be a rearrangement of range(len(perm)), its entries ints.
        """
        n = len(perm)
        if sorted([_int_at_least("permutation entry", p, 0) for p in perm]) != list(range(n)):
            raise ValueError(f"{list(perm)} is not a permutation of range({n})")
        rows = [[0] * n for _ in range(n)]
        for k, p in enumerate(perm):
            rows[p][k] = 1
        return cls(rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, TransitionMatrix) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __repr__(self) -> str:
        return f"TransitionMatrix({[list(map(str, r)) for r in self.rows]})"


# -- congruence transforms --------------------------------------------------


def congruence_sym(a: SymmetricMatrix, s: TransitionMatrix) -> SymmetricMatrix:
    """The transformed matrix S^T A S of a quadratic form under basis change."""
    if a.n != s.n:
        raise DimensionMismatch(f"form has n={a.n}, transition has n={s.n}")
    st = list(zip(*s.rows))
    return SymmetricMatrix(_matmul(_matmul(st, a.rows), s.rows))


def _scaled_matrix(rows: Sequence[tuple[int, Sequence[int]]]) -> tuple[int, list[list[int]]]:
    """(c, c*R) as int row lists for rows (c_i, c_i * r_i), c the lcm of the c_i."""
    c = math.lcm(*[c_i for c_i, _ in rows])
    return c, [[x * (c // c_i) for x in ints] for c_i, ints in rows]


def _congruence_pivots(a: SymmetricMatrix) -> tuple[tuple[Fraction, ...], tuple[tuple, ...]]:
    """Diagonal and basis changes of the congruence reduction S^T A S = D.

    Kept on a, so classify of an indefinite form eliminates once for both
    the signature and S.

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
    e_dst += (num / den) * e_src with den > 0.
    """
    if a._pivots is not None:
        return a._pivots
    n = a.n
    c, m = _scaled_matrix(a.int_rows)
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
                ops.append(("add", i, k, -f if pivot_val > 0 else f, abs(pivot_val)))
            for j in range(i, n):
                m[j][i] = row_i[j] = (pivot_val * row_i[j] - f * row_k[j]) // prev
        prev = pivot_val
    a._pivots = tuple(diag), tuple(ops)
    return a._pivots


def lagrange_diagonalize(a: SymmetricMatrix) -> tuple[TransitionMatrix, tuple[Fraction, ...]]:
    """Rational congruence diagonalization: returns (S, d) with S^T A S = diag(d).

    Pivots use a nonzero diagonal entry when one exists in the trailing block
    (swapping it into place); when the trailing diagonal is all zero but some
    off-diagonal entry survives, that row/column pair is first folded together
    to manufacture a nonzero diagonal pivot.  A fully zero trailing block
    contributes zero entries of d.  No square roots are ever taken, so d is
    not normalized to entries of modulus one.

    d is the tuple of Fractions that fraction-free integer elimination
    (_congruence_pivots) keeps on a, returned as it is.  S replays its basis
    changes, swaps and e_dst += f e_src with dst != src, on the identity's
    integer columns.  So det S = (-1)^swaps by construction and is not
    checked.
    """
    n = a.n
    diag, ops = _congruence_pivots(a)
    cols = [(1, tuple([int(i == k) for i in range(n)])) for k in range(n)]
    for op in ops:
        if op[0] == "swap":
            _, p, q = op
            cols[p], cols[q] = cols[q], cols[p]
        else:
            # x_d / q_d + (num / den) x_s / q_s, over the denominator q_d q_s den
            _, dst, src, num, den = op
            (q_d, x_d), (q_s, x_s) = cols[dst], cols[src]
            f_d, f_s = q_s * den, q_d * num
            x = [f_d * u + f_s * v for u, v in zip(x_d, x_s)]
            g = math.gcd(q_d * f_d, *x)
            cols[dst] = (q_d * f_d // g, tuple([v // g for v in x]))
    det = (-1) ** sum(op[0] == "swap" for op in ops)
    return TransitionMatrix._unimodular(tuple(cols), det), diag


def signature(a: SymmetricMatrix) -> Signature:
    """Counts of positive, negative and zero entries of a diagonalized form.

    Basis independent by Sylvester's law of inertia.  Reads the signs of the
    diagonal from _congruence_pivots; no transition matrix is built.
    """
    diag, _ = _congruence_pivots(a)
    pos = sum(1 for x in diag if x > 0)
    neg = sum(1 for x in diag if x < 0)
    return Signature(pos, neg, a.n - pos - neg)


def _seeded_bits(seed: int) -> Callable[[int], int]:
    """The getrandbits of Random(seed), seed an int at least 0 (Random(-s) repeats Random(s))."""
    return random.Random(_int_at_least("seed", seed, 0)).getrandbits


def _random_entries(n: int, bits: Callable[[int], int],
                    bound: int) -> list[tuple[int, int, int, int]]:
    """The next skew matrix drawn from a stream, as (i, j, p, q), 0-based, zero p dropped.

    p = randint(-bound, bound) is drawn before q = randint(1, bound), entry by
    entry in row-major order of the strict upper triangle.  Each draw is made
    as Random.randint makes it, straight from the stream's getrandbits, bits:
    for a span of s values, r = bits(s.bit_length()), drawn again while
    r >= s.  So the values are those of randint, without its per-call checks.
    """
    _int_at_least("bound", bound, 1)
    span_p, span_q = 2 * bound + 1, bound
    k_p, k_q = span_p.bit_length(), span_q.bit_length()
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            p = bits(k_p)
            while p >= span_p:
                p = bits(k_p)
            q = bits(k_q)
            while q >= span_q:
                q = bits(k_q)
            if p != bound:
                entries.append((i, j, p - bound, q + 1))
    return entries


def random_skew(n: int, seed: int, bound: int = 10) -> SkewMatrix:
    """Deterministic random skew matrix: each entry p/q with |p| <= bound, 1 <= q <= bound.

    The draws come from _random_entries on a fresh Random(seed) stream, the
    values Random(seed).randint gives, reduced to the canonical entries: the
    L of trial 1 of sign_probe with the same seed and bound.
    """
    _int_at_least("dimension", n, 1)
    # tuple() of a list, not of a generator: a generator's tuple starts at 10
    # slots and is resized, which leaves one more block in the interpreter's
    # tuple free list of the final size per call (certify_positive makes 100).
    entries = _random_entries(n, _seeded_bits(seed), bound)
    return SkewMatrix._trusted(n, tuple([(i, j, p // g, q // g) for i, j, p, q in entries
                                         for g in [math.gcd(p, q)]]))


# -- text format helpers ------------------------------------------------------


def _read_lines(text: str) -> tuple[int, list[str]]:
    """n and the other lines of ASCII matrix text, each stripped, blank ones dropped."""
    _check_ascii(text, MatrixParseError)
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise MatrixParseError("empty matrix text")
    n = _parse_digits(lines[0])
    if n is None:
        raise MatrixParseError(f"bad dimension line {_shown(lines[0])}")
    if n < 1:
        raise MatrixParseError("dimension must be at least 1")
    return n, lines[1:]
