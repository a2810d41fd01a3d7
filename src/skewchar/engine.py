"""Symbolic and numeric treatment of the determinant polynomial det(A - L).

For a symmetric matrix A and a skew-symmetric matrix L whose strict upper
entries l_ij act as independent variables, det(A - L) is a polynomial of
degree at most two in each l_ij.  This module expands it exactly, evaluates
it at concrete skew matrices and builds weighted sum-of-squares certificates
for positive definite A.

Expansion and certificates share one algorithm.  Congruence-diagonalize
S^T A S = diag(d) with det S = +-1 (lagrange_diagonalize returns S and the
tuple d) and put M = S^T L S; then det(A - L) = det(diag(d) - M), the sum
over even index subsets U of (prod of d_i outside U) times Pf(M[U])^2,
whatever the signs of the d_i.

The sum runs on packed integer polynomials: a dict from packed monomial
(polynomials module docstring) to int coefficient.  S and diag(d) are each
scaled to integers once, and every even subset's Pfaffian is built once from
those of its minors (Rote, LNCS 2122, 2001).  Two bits are exact:
Pf(B^T L B) = sum_J det B[J, U] Pf(L[J]) and each Pf(L[J]) is a signed sum of
perfect matchings, so every root is multilinear and no product has an
exponent above 2.  Each weight is an int over a power of the diagonal's
scale, so expansion builds no Fraction from d to the printed text: the result
and each certificate root stay packed (MultiPoly._from_packed), and printing
builds no Var term or Fraction either.  certify_positive makes one Fraction
per weight, the weight it prints; its sampled check evaluates in Fractions.
On the dense rational forms random_symmetric(random.Random(817), 7) and
random_symmetric(random.Random(808), 8) of tests/generators.py, expansion
takes about 0.025 s (9,467 terms) and 0.42 s (94,088 terms), and printing
the result another 0.022 s and 0.27 s (best of 5 runs, one core of a shared
2-core x86-64 machine, Python 3.11).  DEFAULT_MAX_DIM stays 7 all the same:
certify_positive at n=8 takes about 12 s (random_positive_definite, seed
808), nearly all of it in the Fraction evaluations of its sampled check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm, prod
from typing import NamedTuple, Sequence

from .matrices import (
    DimensionMismatch,
    SkewMatrix,
    SymmetricMatrix,
    _scaled_det,
    _scaled_matrix,
    lagrange_diagonalize,
    random_skew,
)
from .polynomials import MultiPoly, Var, _int_at_least, packed_fields

DEFAULT_MAX_DIM = 7

# Seed base and point count of the sampled certificate verification.
_CERT_CHECK_SEED = 90001
_CERT_CHECK_SAMPLES = 100


class ExpansionTooLarge(ValueError):
    """The requested dimension exceeds the configured expansion cap."""


class NotPositiveDefinite(ValueError):
    """Certificates exist only for positive definite forms."""


def eval_skewchar(a: SymmetricMatrix, l: SkewMatrix) -> Fraction:
    """Exact value det(A - L) at a concrete skew matrix.

    A's int_rows and L's entries are the determinant kernel's own input, so
    they go to it as stored; no Fraction is built per entry.
    """
    if a.n != l.n:
        raise DimensionMismatch(f"dimension mismatch: form has n={a.n}, skew has n={l.n}")
    return _scaled_det(a.int_rows, l.entries)


class Certificate(NamedTuple):
    """A positivity certificate: det(A - L) = sum of weight * square_root^2.

    All weights are strictly positive rationals and the empty-subset root is
    1, so the sum is positive.  det S = +-1, so no scale applies; "scale: 1"
    is a fixed line of the text format.  The roots keep the packed form of
    the kernel, so to_text prints them the way expand prints P.
    """

    n: int
    terms: tuple  # tuple[tuple[Fraction, MultiPoly], ...]

    def evaluate(self, l: SkewMatrix) -> Fraction:
        """Exact numeric replay at a concrete skew matrix of the same dimension."""
        if l.n != self.n:
            raise DimensionMismatch(
                f"certificate has n={self.n}, skew matrix has n={l.n}")
        # Each variable of l.upper at its value, every other one at 0.
        assignment = dict.fromkeys([Var(i, j) for i in range(1, self.n + 1)
                                    for j in range(i + 1, self.n + 1)], Fraction(0))
        assignment.update(l.upper)
        return sum((w * r.evaluate(assignment) ** 2 for w, r in self.terms), Fraction(0))

    def to_text(self) -> str:
        lines = [f"n: {self.n}", "scale: 1"]
        lines.extend(
            f"weight: {weight} ; sqroot: {root}" for weight, root in self.terms
        )
        return "\n".join(lines) + "\n"


def _packed_pfaffians(columns: Sequence[tuple[int, Sequence[int]]], diag: Sequence[Fraction]):
    """The terms (weight, |U|, Pf(M_int[U])) of det(diag(d) - M), the scale s
    and the diagonal scale big.

    S = S_int / s, s the lcm of the q of its columns (q, ints), so M = S^T L S
    = M_int / s^2 and Pf(M[U]) = Pf(M_int[U]) / s^|U|.  Every even subset's
    Pfaffian is built once, bottom-up by size, from the stored ones two smaller:
    Pf(U) = sum_k (-1)^k m_{u1,uk} Pf(U minus {u1, uk}).  One term per even
    subset U, in order of size and then lexicographically.  big is the lcm of
    the denominators of the d_i and e_i = big d_i an int; the weight is the
    int product of the e_i outside U, so the product of the d_i outside U is
    weight / big^(n - |U|).  A subset of zero weight gets no term.
    """
    n = len(columns)
    scale, col = _scaled_matrix(columns)
    big = lcm(*(x.denominator for x in diag))
    e = [x.numerator * (big // x.denominator) for x in diag]
    fields = packed_fields(n)
    # m_int(u, v) is linear: (field bit of l_km, coefficient) per variable.
    linear = {
        (u, v): [(bit, c) for bit, k, m in fields
                 if (c := col[u][k] * col[v][m] - col[u][m] * col[v][k])]
        for _, u, v in fields
    }
    pf = {0: {0: 1}}
    terms = []
    for size in range(0, n + 1, 2):
        for subset in itertools.combinations(range(n), size):
            mask = sum(1 << i for i in subset)
            if size:
                first, acc = subset[0], {}
                for t, other in enumerate(subset[1:]):
                    minor = pf[mask ^ (1 << first) ^ (1 << other)]
                    for bit, c in linear[first, other]:
                        if t % 2:
                            c = -c
                        for mono, cm in minor.items():
                            key = mono + bit
                            acc[key] = acc.get(key, 0) + c * cm
                pf[mask] = {m: c for m, c in acc.items() if c}
            weight = prod(e[i] for i in range(n) if not mask >> i & 1)
            if weight:
                terms.append((weight, size, pf[mask]))
    return terms, scale, big


def _square_sum(n: int, terms, scale: int, big: int) -> MultiPoly:
    """Sum of weight / big^(n-|U|) * (root / scale^|U|)^2 over one common
    denominator K.

    Each root is first divided by the gcd g of its coefficients (g^2 goes
    into its factor): scaling S to integers can leave roots with a content
    of hundreds of bits that P's coefficients do not have.  For the same
    reason each factor num / den is reduced by one gcd before K, the lcm of
    the reduced dens, is taken, rather than summing over the unreduced
    big^n * scale^(2n).  Each square runs over the pairs a <= b of the
    root's terms, cross terms doubled.
    """
    factors = []
    for w, size, root in terms:
        g = gcd(*root.values()) or 1
        num = w * g * g
        den = big ** (n - size) * scale ** (2 * size)
        h = gcd(num, den)
        factors.append((num // h, den // h, [(m, c // g) for m, c in root.items()]))
    k = lcm(*(den for _, den, _ in factors))
    acc: dict[int, int] = {}
    get = acc.get
    for num, den, items in factors:
        c = num * (k // den)
        for a, (ma, ca) in enumerate(items):
            acc[ma + ma] = get(ma + ma, 0) + c * ca * ca
            cc = 2 * c * ca
            for mb, cb in items[a + 1:]:
                acc[ma + mb] = get(ma + mb, 0) + cc * cb
    return MultiPoly._from_packed(n, acc, k)


def expand_skewchar(a: SymmetricMatrix, max_dim: int = DEFAULT_MAX_DIM) -> MultiPoly:
    """Fully expanded det(A - L) as a canonical polynomial in the l_ij.

    Computed by the Pfaffian sum of the module docstring.
    """
    if a.n > _int_at_least("max_dim", max_dim, 1):
        raise ExpansionTooLarge(
            f"dimension {a.n} exceeds the expansion cap {max_dim}")
    s, d = lagrange_diagonalize(a)
    return _square_sum(a.n, *_packed_pfaffians(s.columns, d))


def certify_positive(a: SymmetricMatrix, max_dim: int = DEFAULT_MAX_DIM) -> Certificate:
    """Weighted sum-of-squares certificate for det(A - L) with A positive definite.

    When every d_i > 0, every weight of the Pfaffian sum (module docstring) is
    positive.  The certificate is checked against the independent integer
    eval_skewchar at _CERT_CHECK_SAMPLES seeded skew matrices: evidence
    (sampled), not proof.
    """
    n = a.n
    if n > _int_at_least("max_dim", max_dim, 1):
        raise ExpansionTooLarge(f"dimension {n} exceeds the certificate cap {max_dim}")
    s, d = lagrange_diagonalize(a)
    if any(x <= 0 for x in d):
        raise NotPositiveDefinite(
            "not positive definite: diagonalized form has non-positive entries "
            f"{tuple(map(str, d))}")

    terms, scale, big = _packed_pfaffians(s.columns, d)
    cert = Certificate(n=n, terms=tuple(
        (Fraction(w, big ** (n - size)), MultiPoly._from_packed(n, root, scale ** size))
        for w, size, root in terms))
    for k in range(1, _CERT_CHECK_SAMPLES + 1):
        probe = random_skew(n, _CERT_CHECK_SEED + k, 10)
        if cert.evaluate(probe) != eval_skewchar(a, probe):
            raise RuntimeError("certificate replay mismatch at a sampled point")
    return cert
