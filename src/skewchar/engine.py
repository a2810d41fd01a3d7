"""Symbolic and numeric treatment of the determinant polynomial det(A - L).

For a symmetric matrix A and a skew-symmetric matrix L whose strict upper
entries l_ij act as independent variables, det(A - L) is a polynomial of
degree at most two in each l_ij.  This module expands it exactly, evaluates
it at concrete skew matrices, computes Pfaffians, and builds weighted
sum-of-squares certificates for positive definite A.

Expansion and certificates share one algorithm.  Congruence-diagonalize
S^T A S = D with det S = +-1 and put M = S^T L S; then det(A - L) =
det(D - M), the sum over even index subsets U of (prod of d_i outside U)
times Pf(M[U])^2, whatever the signs of the d_i.

The sum runs on packed integer polynomials: a dict from monomial to int
coefficient, each monomial one int with a 2-bit exponent field per variable
l_ij (Monagan and Pearce, ISSAC 2009).  S is scaled to integers once, and
every even subset's Pfaffian is built once from those of its minors (Rote,
LNCS 2122, 2001).  Two bits are exact: Pf(B^T L B) = sum_J det B[J, U] Pf(L[J])
and each Pf(L[J]) is a signed sum of perfect matchings, so every root is
multilinear and no product has an exponent above 2.  Var and Fraction are
built only at the boundary: one MultiPoly per expansion, one per certificate
root.  On a dense rational form, expansion takes about 0.11 s at n=7 (9,982
terms) and 1.4 s at n=8 (93,362 terms); printing the result takes another
0.17 s and 2.0 s (one core of a shared 2-core x86-64 machine, Python 3.11).
DEFAULT_MAX_DIM stays 7 all the same: certify_positive at n=8 takes about
19 s, nearly all of it in the Fraction evaluations of its sampled check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Sequence

from .matrices import (
    DimensionMismatch,
    SkewMatrix,
    SymmetricMatrix,
    TransitionMatrix,
    _scaled_det,
    lagrange_diagonalize,
    random_skew,
)
from .polynomials import MultiPoly, Var

DEFAULT_MAX_DIM = 7

# Seed base and point count of the sampled certificate verification.
_CERT_CHECK_SEED = 90001
_CERT_CHECK_SAMPLES = 100


class ExpansionTooLarge(ValueError):
    """The requested dimension exceeds the configured expansion cap."""


class OddSubset(ValueError):
    """Pfaffians of odd-dimensional principal submatrices do not exist."""


class NotPositiveDefinite(ValueError):
    """Certificates exist only for positive definite forms."""


def eval_skewchar(a: SymmetricMatrix, l: SkewMatrix) -> Fraction:
    """Exact value det(A - L) at a concrete skew matrix.

    A's rows and L's upper-triangle numerators and denominators go straight
    to the integer determinant kernel; no Fraction is built per entry.
    """
    if a.n != l.n:
        raise DimensionMismatch(f"form has n={a.n}, skew matrix has n={l.n}")
    return _scaled_det(a.rows, [(v.i - 1, v.j - 1, c.numerator, c.denominator)
                                for v, c in l.upper.items()])


def _pfaffian_rec(entry, indices: tuple, zero, one):
    """First-row expansion with alternating signs; generic over the scalar ring."""
    if not indices:
        return one
    first, rest = indices[0], indices[1:]
    total = zero
    for t, other in enumerate(rest):
        minor = _pfaffian_rec(entry, rest[:t] + rest[t + 1:], zero, one)
        term = entry(first, other) * minor
        total = total - term if t % 2 else total + term
    return total


def pfaffian(l: SkewMatrix) -> Fraction:
    """Pfaffian of a skew matrix: squares to its determinant; 0 for odd n."""
    if l.n % 2:
        return Fraction(0)
    return _pfaffian_rec(l.entry, tuple(range(l.n)), Fraction(0), Fraction(1))


def sub_pfaffian_poly(n: int, subset: Sequence[int]) -> MultiPoly:
    """Symbolic Pfaffian of the principal submatrix L[subset] (1-based indices).

    The empty subset yields the constant 1; odd subsets are rejected.
    """
    subset = tuple(subset)
    if len(subset) % 2:
        raise OddSubset(f"subset {subset} has odd cardinality")
    if any(not (1 <= s <= n) for s in subset):
        raise ValueError(f"subset {subset} out of range for dimension {n}")
    if any(subset[k] >= subset[k + 1] for k in range(len(subset) - 1)):
        raise ValueError(f"subset {subset} must be strictly increasing")
    return _pfaffian_rec(lambda u, v: MultiPoly.variable(Var(u, v)), subset,
                         MultiPoly.zero(), MultiPoly.constant(1))


@dataclass(frozen=True)
class Certificate:
    """A positivity certificate: det(A - L) = sum of weight * square_root^2.

    All weights are strictly positive rationals and the empty-subset root is
    1, so the sum is positive.  det S = +-1, so no scale applies; "scale: 1"
    is a fixed line of the text format.
    """

    n: int
    terms: tuple  # tuple[tuple[Fraction, MultiPoly], ...]

    def replay_poly(self) -> MultiPoly:
        """Symbolic replay of the certified polynomial.

        Plain MultiPoly arithmetic, independent of the packed kernel that
        built the certificate, so a replay checks that kernel.
        """
        return sum((w * r * r for w, r in self.terms), MultiPoly.zero())

    def evaluate(self, l: SkewMatrix) -> Fraction:
        """Exact numeric replay at a concrete skew matrix of the same dimension."""
        if l.n != self.n:
            raise DimensionMismatch(
                f"certificate has n={self.n}, skew matrix has n={l.n}")
        assignment = {
            Var(i, j): l.entry(i - 1, j - 1)
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
        }
        return sum((w * r.evaluate(assignment) ** 2 for w, r in self.terms), Fraction(0))

    def to_text(self) -> str:
        lines = [f"n: {self.n}", "scale: 1"]
        lines.extend(
            f"weight: {weight} ; sqroot: {root}" for weight, root in self.terms
        )
        return "\n".join(lines) + "\n"


def _packed_pfaffians(s: TransitionMatrix, diag: Sequence[Fraction]):
    """The terms (weight, |U|, Pf(M_int[U])) of det(D - M), and the scale s.

    S = S_int / s with S_int integer, so M = S^T L S = M_int / s^2 and
    Pf(M[U]) = Pf(M_int[U]) / s^|U|.  Every even subset's Pfaffian is built
    once, bottom-up by size, from the stored ones two smaller:
    Pf(U) = sum_k (-1)^k m_{u1,uk} Pf(U minus {u1, uk}).  One term per even
    subset U, in order of size and then lexicographically; the weight is the
    product of the d_i outside U, and a subset of zero weight gets no term.
    """
    n = s.n
    scale = lcm(*(x.denominator for row in s.rows for x in row))
    r = [[x.numerator * (scale // x.denominator) for x in row] for row in s.rows]
    pairs = list(itertools.combinations(range(n), 2))
    # m_int(u, v) is linear: (field bit of l_km, coefficient) per variable.
    linear = {
        (u, v): [(1 << 2 * f, c) for f, (k, m) in enumerate(pairs)
                 if (c := r[k][u] * r[m][v] - r[m][u] * r[k][v])]
        for u, v in pairs
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
            weight = prod((diag[i] for i in range(n) if not mask >> i & 1),
                          start=Fraction(1))
            if weight:
                terms.append((weight, size, pf[mask]))
    return terms, scale


def _square_sum(n: int, terms, scale: int) -> MultiPoly:
    """Sum of weight * (root / scale^|U|)^2 over one common denominator K.

    Each root is first divided by the gcd g of its coefficients (g^2 goes
    into its factor): scaling S to integers can leave roots with a content
    of hundreds of bits that P's coefficients do not have.  Each square runs
    over the pairs a <= b of the root's terms, cross terms doubled.
    """
    factors = []
    for w, size, root in terms:
        g = gcd(*root.values()) or 1
        factors.append((w * g * g / scale ** (2 * size),
                        [(m, c // g) for m, c in root.items()]))
    k = lcm(*(f.denominator for f, _ in factors))
    acc: dict[int, int] = {}
    get = acc.get
    for f, items in factors:
        c = f.numerator * (k // f.denominator)
        for a, (ma, ca) in enumerate(items):
            acc[ma + ma] = get(ma + ma, 0) + c * ca * ca
            cc = 2 * c * ca
            for mb, cb in items[a + 1:]:
                acc[ma + mb] = get(ma + mb, 0) + cc * cb
    return _unpack(n, acc, k)


@lru_cache(maxsize=16)
def _field_table(n: int) -> tuple:
    """For each byte of a packed monomial, the (Var, exponent) pairs of its 256 values."""
    names = [Var(k + 1, m + 1) for k, m in itertools.combinations(range(n), 2)]
    return tuple(
        tuple(tuple((names[f], e) for f in range(q, min(q + 4, len(names)))
                    if (e := b >> 2 * (f - q) & 3)) for b in range(256))
        for q in range(0, len(names), 4)
    )


def _unpack(n: int, packed: dict, den: int) -> MultiPoly:
    """The MultiPoly sum of c / den times each packed monomial."""
    table = _field_table(n)
    out = {}
    for mono, c in packed.items():
        if c:
            key = ()
            for pieces, b in zip(table, mono.to_bytes(len(table), "little")):
                key += pieces[b]
            out[key] = Fraction(c, den)
    return MultiPoly._raw(out)


def expand_skewchar(a: SymmetricMatrix, max_dim: int = DEFAULT_MAX_DIM) -> MultiPoly:
    """Fully expanded det(A - L) as a canonical polynomial in the l_ij.

    Computed by the Pfaffian sum of the module docstring.
    """
    if a.n > max_dim:
        raise ExpansionTooLarge(
            f"dimension {a.n} exceeds the expansion cap {max_dim}")
    s, d = lagrange_diagonalize(a)
    return _square_sum(a.n, *_packed_pfaffians(s, d.diagonal_entries()))


def certify_positive(a: SymmetricMatrix, max_dim: int = DEFAULT_MAX_DIM) -> Certificate:
    """Weighted sum-of-squares certificate for det(A - L) with A positive definite.

    When every d_i > 0, every weight of the Pfaffian sum (module docstring) is
    positive.  The certificate is checked against the independent integer
    eval_skewchar at _CERT_CHECK_SAMPLES seeded skew matrices: evidence
    (sampled), not proof.
    """
    n = a.n
    if n > max_dim:
        raise ExpansionTooLarge(f"dimension {n} exceeds the certificate cap {max_dim}")
    s, d = lagrange_diagonalize(a)
    diag = d.diagonal_entries()
    if any(x <= 0 for x in diag):
        raise NotPositiveDefinite(
            f"diagonalized form has non-positive entries {tuple(map(str, diag))}")

    terms, scale = _packed_pfaffians(s, diag)
    cert = Certificate(n=n, terms=tuple(
        (w, _unpack(n, root, scale ** size)) for w, size, root in terms))
    for k in range(1, _CERT_CHECK_SAMPLES + 1):
        probe = random_skew(n, _CERT_CHECK_SEED + k, 10)
        if cert.evaluate(probe) != eval_skewchar(a, probe):
            raise RuntimeError("certificate replay mismatch at a sampled point")
    return cert
