"""Independent oracles the test suite checks the library against.

Nothing here shares code with the implementation under test: Poly is a
term-by-term polynomial algebra, independent of the packed kernel, and the
symbolic matrix A - L is assembled entry by entry from it; determinants go
through cofactor expansion instead of the Pfaffian expansion, Pfaffians
through first-row expansion instead of the packed subset kernel, signatures
come from characteristic polynomial coefficients via the Faddeev-LeVerrier
recurrence and Descartes' rule (exact for symmetric matrices, whose
eigenvalues are all real), and the congruence diagonalization is reproduced
by plain Fraction elimination.  The checks at the end compose library calls
with these: a certificate replayed in Poly, both sides of the basis-change
law with S^T L S formed here, and a verdict against its own witnesses or
sign probe.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping

from skewchar import (
    MultiPoly,
    PredictedSign,
    SkewMatrix,
    SymmetricMatrix,
    Var,
    Verdict,
    classify,
    eval_skewchar,
    sign_probe,
)


class Poly:
    """A sparse polynomial in the Var l<i>_<j> with Fraction coefficients.

    _terms maps each monomial, a tuple of (Var, exponent) pairs sorted by
    variable with every exponent positive, to its nonzero coefficient.  An
    int, a Fraction or a library MultiPoly is coerced to a Poly wherever a
    Poly is expected, so a Poly compares equal to a library result with the
    same terms, and a constant hashes like its coefficient.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for mono, coeff in items:
            for _, e in mono:
                if type(e) is not int:
                    raise TypeError(f"exponent must be an int, got {type(e).__name__}")
                if e < 0:
                    raise ValueError("exponent must be at least 0")
            mono = tuple(sorted((v, e) for v, e in mono if e))
            acc[mono] = acc.get(mono, 0) + Fraction(coeff)
        self._terms = {m: c for m, c in acc.items() if c}

    @classmethod
    def _of(cls, terms: dict) -> Poly:
        # terms is already canonical: no constructor pass.
        p = object.__new__(cls)
        p._terms = terms
        return p

    @staticmethod
    def _coerce(other) -> Poly | None:
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly({(): other})
        if isinstance(other, MultiPoly):
            return Poly(other.terms())
        return None

    def terms(self):
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other) -> Poly:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out = dict(self._terms)
        for m, c in q._terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                del out[m]
        return Poly._of(out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._of({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> Poly:
        q = self._coerce(other)
        return NotImplemented if q is None else self + -q

    def __rsub__(self, other) -> Poly:
        q = self._coerce(other)
        return NotImplemented if q is None else q + -self

    def __mul__(self, other) -> Poly:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out: dict = {}
        for ma, ca in self._terms.items():
            for mb, cb in q._terms.items():
                exps = dict(ma)
                for v, e in mb:
                    exps[v] = exps.get(v, 0) + e
                m = tuple(sorted(exps.items()))
                out[m] = out.get(m, 0) + ca * cb
        return Poly._of({m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        result = Poly({(): 1})
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        q = self._coerce(other)
        return NotImplemented if q is None else self._terms == q._terms

    def __hash__(self) -> int:
        if self._terms.keys() <= {()}:
            return hash(self._terms.get((), 0))
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        """Canonical text (polynomials module docstring), sorted by a key of its own."""
        def order(item):
            mono = item[0]
            return sum(e for _, e in mono), [(v.i, v.j, -e) for v, e in mono]

        text = ""
        for mono, c in sorted(self._terms.items(), key=order):
            factors = "*".join(str(v) if e == 1 else f"{v}^{e}" for v, e in mono)
            coeff = str(abs(c))
            term = coeff if not factors else factors if coeff == "1" else f"{coeff}*{factors}"
            text += (" - " if c < 0 else " + ") + term
        if not text:
            return "0"
        return ("-" if text[1] == "-" else "") + text[3:]

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


def lam(i: int, j: int) -> Poly:
    """The polynomial consisting of the single variable l<i>_<j>."""
    return Poly({((Var(i, j), 1),): 1})


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


def golden_identity_poly(n: int) -> Poly:
    """The expanded determinant for the identity form (n <= 4), built term by term."""
    total = Poly({(): 1})
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
    """Rows of A - L as Poly entries: a_ij - l_ij above the diagonal,
    a_ij + l_ji below it, a_ii on it."""
    rows = []
    for i in range(a.n):
        row = []
        for j in range(a.n):
            entry = Poly({(): a.entry(i, j)})
            if i < j:
                entry = entry - lam(i + 1, j + 1)
            elif i > j:
                entry = entry + lam(j + 1, i + 1)
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


def skew_rows(l: SkewMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """The full rows of a skew matrix, read entry by entry."""
    return tuple(tuple(l.entry(i, j) for j in range(l.n)) for i in range(l.n))


def _product(x, y):
    return [[sum(map(mul, row, col)) for col in zip(*y)] for row in x]


def replay_poly(cert) -> Poly:
    """The polynomial a certificate certifies: the sum of weight * root^2, in Poly."""
    return sum((w * Poly(r.terms()) ** 2 for w, r in cert.terms), Poly())


def covariance_check(a, l, s) -> tuple[Fraction, Fraction]:
    """Both sides of the basis-change law: (P(S^T A S, S^T L S), det(S)^2 P(A, L)).

    S^T A S and S^T L S are formed here over Fraction.  The two components
    agree for every valid input; callers assert equality.
    """
    n = s.n
    st = list(zip(*s.rows))
    sas = _product(_product(st, a.rows), s.rows)
    sls = _product(_product(st, skew_rows(l)), s.rows)
    skew = SkewMatrix(n, {Var(i + 1, j + 1): sls[i][j]
                          for i in range(n) for j in range(i + 1, n)})
    return eval_skewchar(SymmetricMatrix(sas), skew), s.det ** 2 * eval_skewchar(a, l)


def crosscheck_classification(a, trials: int = 200, seed: int = 0, bound: int = 10) -> bool:
    """Consistency check between the verdict and the polynomial's behaviour.

    Definite verdicts must see their predicted strict sign on every probe;
    non-definite verdicts must carry witnesses that validate exactly.
    """
    report = classify(a)
    if report.verdict in (Verdict.POSITIVE_DEFINITE, Verdict.NEGATIVE_DEFINITE):
        probe = sign_probe(a, trials, seed, bound)
        if probe.zeros:
            return False
        if report.predicted_sign is PredictedSign.ALWAYS_POSITIVE:
            return probe.positives == trials
        return probe.negatives == trials
    w = report.witness
    if w is None:
        return False
    if w.lambda_zero is not None and eval_skewchar(a, w.lambda_zero) != 0:
        return False
    if report.verdict is Verdict.INDEFINITE:
        if w.lambda_plus is None or w.lambda_minus is None:
            return False
        return (eval_skewchar(a, w.lambda_plus) > 0
                and eval_skewchar(a, w.lambda_minus) < 0)
    return True
