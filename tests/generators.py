"""Deterministic random matrix builders shared across the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from oracles import columns_of
from skewchar import (
    SkewMatrix,
    SymmetricMatrix,
    Var,
    congruence_sym,
    det_rational,
)


def rational(rng: random.Random, bound: int = 5, qmax: int | None = None) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, qmax or bound))


def random_symmetric(rng: random.Random, n: int, bound: int = 5) -> SymmetricMatrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rational(rng, bound)
    return SymmetricMatrix(rows)


def random_zero_diagonal(rng: random.Random, n: int, bound: int = 3) -> SymmetricMatrix:
    """Zero diagonal, random off-diagonal entries: diagonalizing it needs fold pivots."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rational(rng, bound)
    return SymmetricMatrix(rows)


def random_invertible(rng: random.Random, n: int, bound: int = 3) -> tuple:
    """The columns (columns_of) of an invertible matrix of ints in -bound..bound."""
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if det_rational(rows) != 0:
            return columns_of(rows)


def random_unimodular(rng: random.Random, n: int, shears: int = 2) -> tuple:
    """The columns (columns_of) of a product of unit shears and a permutation:
    det +-1, small inverse."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1])
        for k in range(n):
            rows[k][j] += c * rows[k][i]
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[rows[i][perm[k]] for k in range(n)] for i in range(n)]
    return columns_of(rows)


def random_positive_definite(rng: random.Random, n: int) -> SymmetricMatrix:
    """S^T S plus a small positive diagonal shift."""
    s = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    shift = Fraction(1, rng.randint(1, 4))
    rows = [
        [
            sum(s[k][i] * s[k][j] for k in range(n)) + (shift if i == j else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return SymmetricMatrix(rows)


def scrambled_positive_definite(rng: random.Random, n: int) -> SymmetricMatrix:
    """S^T D S with D entries p/q (1 <= p <= 5, q <= 3) and a small-integer S."""
    d = SymmetricMatrix.diagonal(
        [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)])
    return congruence_sym(d, random_invertible(rng, n))


def random_indefinite(rng: random.Random, n: int) -> SymmetricMatrix:
    """Scrambled mixed-signature diagonal with bounded-height isotropic structure.

    One positive/negative pair is planted with -d_i * d_j a perfect square, so
    an exact rational zero of det(A - L) is guaranteed to exist and to stay
    within the witness search budget after the unimodular scramble.
    """
    m = rng.randint(1, n - 1)
    diag = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(m)]
    diag += [-Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n - m)]
    i = rng.randrange(0, m)
    j = rng.randrange(m, n)
    w = rng.randint(1, 3)
    diag[j] = -diag[i] * w * w
    return congruence_sym(SymmetricMatrix.diagonal(diag), random_unimodular(rng, n))


def random_singular(rng: random.Random, n: int) -> SymmetricMatrix:
    """Rank-deficient by construction: a zero diagonal entry before scrambling."""
    diag = [Fraction(0)]
    diag += [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n - 1)]
    rng.shuffle(diag)
    return congruence_sym(SymmetricMatrix.diagonal(diag), random_unimodular(rng, n))


def random_skew_assignment(rng: random.Random, n: int, bound: int = 5):
    upper = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            value = rational(rng, bound)
            if value:
                upper[Var(i, j)] = value
    return SkewMatrix(n, upper)


def sparse_skew(rng: random.Random, n: int) -> SkewMatrix:
    """About 70% zero entries: Pfaffians need pivot swaps and often vanish."""
    return SkewMatrix(n, {Var(i + 1, j + 1): rational(rng, 5, 4)
                          for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3})
