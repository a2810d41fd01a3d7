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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
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
        """Symbolic replay of the certified polynomial."""
        return _sum_of_squares(self.terms)

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


def _symbolic_congruence_skew(s: TransitionMatrix):
    """Entries of S^T L S with L fully symbolic: each (u, v) is linear in the l_kl."""
    n, rows = s.n, s.rows
    pairs = [(k, m) for k in range(n) for m in range(k + 1, n)]
    return {
        (u, v): MultiPoly._raw({
            ((Var(k + 1, m + 1), 1),): c for k, m in pairs
            if (c := rows[k][u] * rows[m][v] - rows[m][u] * rows[k][v])
        })
        for u, v in pairs
    }


def _pfaffian_terms(s: TransitionMatrix, diag: Sequence[Fraction]) -> list:
    """The terms (weight, Pf(M[U])) of det(D - M), with M = S^T L S symbolic.

    One term per even index subset U, in order of size and then
    lexicographically; the weight is the product of the d_i outside U.  A
    subset whose weight is zero is skipped before its Pfaffian is built.
    """
    n = s.n
    tilde = _symbolic_congruence_skew(s)
    entry = lambda u, v: tilde[(u, v)]  # noqa: E731
    zero, one = MultiPoly.zero(), MultiPoly.constant(1)
    terms = []
    for size in range(0, n + 1, 2):
        for subset in itertools.combinations(range(n), size):
            weight = prod((diag[i] for i in range(n) if i not in subset),
                          start=Fraction(1))
            if not weight:
                continue
            terms.append((weight, _pfaffian_rec(entry, subset, zero, one)))
    return terms


def _sum_of_squares(terms) -> MultiPoly:
    return sum((root * root * weight for weight, root in terms), MultiPoly.zero())


def expand_skewchar(a: SymmetricMatrix, max_dim: int = DEFAULT_MAX_DIM) -> MultiPoly:
    """Fully expanded det(A - L) as a canonical polynomial in the l_ij.

    Computed by the Pfaffian sum of the module docstring.
    """
    if a.n > max_dim:
        raise ExpansionTooLarge(
            f"dimension {a.n} exceeds the expansion cap {max_dim}")
    s, d = lagrange_diagonalize(a)
    return _sum_of_squares(_pfaffian_terms(s, d.diagonal_entries()))


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

    cert = Certificate(n=n, terms=tuple(_pfaffian_terms(s, diag)))
    for k in range(1, _CERT_CHECK_SAMPLES + 1):
        probe = random_skew(n, _CERT_CHECK_SEED + k, 10)
        if cert.evaluate(probe) != eval_skewchar(a, probe):
            raise RuntimeError("certificate replay mismatch at a sampled point")
    return cert
