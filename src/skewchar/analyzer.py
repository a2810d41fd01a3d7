"""Definiteness classification of quadratic forms with explicit evidence.

A form is definite exactly when its determinant polynomial det(A - L) keeps
one strict sign as the skew entries range over all rationals.  The verdict
itself always comes from the exact signature; sampled sign probes are
corroborating evidence only.  For non-definite forms this module constructs
explicit rational skew matrices at which the polynomial vanishes and takes
both strict signs.

A genuine arithmetic caveat: a rational skew matrix with det(A - L) = 0
exists if and only if the form has a nonzero rational isotropic vector.
Indefinite forms of dimension up to four can fail to have one (for example
diag(1, 1, -3, -3)), and then no exact zero witness exists at all.  By
Hasse-Minkowski such a form is anisotropic over some Q_p, and for n <= 4 a
few Hilbert symbols at 2 and at the primes dividing the diagonal entries
decide that exactly (Serre, A Course in Arithmetic, ch. III-IV): the search
then stops with a proof naming the least such prime.  Otherwise it combines
perfect-square tests over congruence diagonalizations (of every coordinate
order, for n <= 6 only) with a bounded integer enumeration and reports
exhaustion honestly instead of returning an approximate witness.  Either
way the witness is returned with no zero matrix, the reason in
anisotropic_at, and both strict-sign witnesses.

The strict-sign witnesses are read off one diagonalization S^T A S = D.
For a nondegenerate form it also gives the inverse, S^-T = A S D^-1, so the
witness S^-T T S^-1 of a single coupling T is a rank-two skew matrix built
from two columns of A S: the sign witnesses need no inverse and no matrix
product.  Every witness is built in integers, from c A and the columns of S.
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .engine import eval_skewchar
from .matrices import (
    Signature,
    SkewMatrix,
    SymmetricMatrix,
    _int_bareiss_det,
    _kernel_matrix,
    _random_entries,
    _scaled_matrix,
    _seeded_bits,
    congruence_sym,
    lagrange_diagonalize,
    signature,
)
from .polynomials import _int_at_least


class NotIndefinite(ValueError):
    """Witness construction applies only to nondegenerate mixed-signature forms."""


class Verdict(str, Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    NEGATIVE_DEFINITE = "NegativeDefinite"
    DEGENERATE = "Degenerate"
    INDEFINITE = "Indefinite"


class PredictedSign(str, Enum):
    ALWAYS_POSITIVE = "AlwaysPositive"
    ALWAYS_NEGATIVE = "AlwaysNegative"
    NOT_SIGN_DEFINITE = "NotSignDefinite"


class Witness(NamedTuple):
    """Skew matrices pinning down the sign behaviour of det(A - L).

    lambda_zero satisfies det(A - lambda_zero) = 0 exactly; it is None only
    when witness_indefinite found no rational zero.  anisotropic_at is then
    the least prime p at which the form was proved anisotropic, so that no
    zero exists, or None when the search budget ran out.  For indefinite forms
    lambda_plus and lambda_minus carry the two strict signs; for degenerate
    forms only the zero witness is populated (the zero matrix itself, since
    det(A) = 0).
    """

    lambda_zero: Optional[SkewMatrix]
    value_zero: Optional[Fraction]
    lambda_plus: Optional[SkewMatrix] = None
    value_plus: Optional[Fraction] = None
    lambda_minus: Optional[SkewMatrix] = None
    value_minus: Optional[Fraction] = None
    anisotropic_at: Optional[int] = None


class ClassificationReport(NamedTuple):
    verdict: Verdict
    signature: Signature
    predicted_sign: PredictedSign
    witness: Optional[Witness] = None

    def to_text(self) -> str:
        lines = [
            f"verdict: {self.verdict.value}",
            f"signature: {self.signature.positive} {self.signature.negative} "
            f"{self.signature.zero}",
            f"predicted_sign: {self.predicted_sign.value}",
        ]
        if self.witness is not None:
            w = self.witness
            if w.lambda_zero is None:
                reason = ("search budget exhausted" if w.anisotropic_at is None
                          else f"anisotropic at p = {w.anisotropic_at}")
                lines.append(f"witness lambda_zero: none ({reason})")
            for name, skew, value in (("lambda_zero", w.lambda_zero, w.value_zero),
                                      ("lambda_plus", w.lambda_plus, w.value_plus),
                                      ("lambda_minus", w.lambda_minus, w.value_minus)):
                if skew is not None:
                    lines.append(f"witness {name}: P = {value}")
                    lines.append(skew.to_text().rstrip("\n"))
        return "\n".join(lines) + "\n"


class ProbeReport(NamedTuple):
    positives: int
    negatives: int
    zeros: int


# -- exact helpers -------------------------------------------------------------


def _rational_sqrt(value: Fraction) -> Optional[Fraction]:
    """Exact square root of a positive rational, or None if irrational."""
    rn = math.isqrt(value.numerator)
    rd = math.isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


def _pair_isotropic(diag: Sequence[Fraction], first_pair=None):
    """(i, j, w) with w*e_i + e_j isotropic for the diagonal form, or None.

    The d_i must be nonzero.  For an opposite-sign pair (i, j) the vector
    w*e_i + e_j is isotropic exactly when w^2 = -d_j/d_i, a perfect square.
    """
    pairs = itertools.combinations(range(len(diag)), 2)
    if first_pair is not None:
        pairs = itertools.chain([first_pair], (p for p in pairs if p != first_pair))
    for i, j in pairs:
        if (diag[i] > 0) == (diag[j] > 0):
            continue
        w = _rational_sqrt(-diag[j] / diag[i])
        if w is not None:
            return i, j, w
    return None


def _pair_vector(columns, i: int, j: int, w: Fraction) -> list[int]:
    """An int multiple of w s_i + s_j, for columns s_k = ints_k / q_k, q_k > 0."""
    (q_i, x_i), (q_j, x_j) = columns[i], columns[j]
    f_i, f_j = w.numerator * q_j, w.denominator * q_i
    return [f_i * u + f_j * v for u, v in zip(x_i, x_j)]


def _enumeration_bounds(n: int) -> tuple[int, ...]:
    if n <= 3:
        return (2, 4, 8, 16, 32)
    if n == 4:
        return (2, 4, 8, 16)
    return (2, 4, 8, 12)


def _enumerate_isotropic(m: list[list[int]], bound: int):
    """Search integer vectors x with x^T M x = 0, |x_i| <= bound for i < n.

    The last coordinate is solved exactly from the quadratic it satisfies, so
    the cost is (2*bound + 1)^(n-1) leaf solves.  Only the first nonzero
    coordinate is restricted to be positive (sign symmetry).  m[-1][-1] must
    be nonzero: the caller enumerates on c*A only once no a_ii is zero.
    """
    n = len(m)
    last = n - 1
    a_nn = m[last][last]
    xs = [0] * last

    def solve_leaf(lin: int, quad: int):
        disc = lin * lin - a_nn * quad
        if disc < 0:
            return None
        r = math.isqrt(disc)
        if r * r != disc:
            return None
        for root in ((r, -r) if r else (0,)):
            num, den = -lin + root, a_nn
            g = math.gcd(num, den)
            num, den = num // g, den // g
            sol = [v * den for v in xs] + [num]
            if any(sol):
                return sol
        return None

    def rec(idx: int, lin: int, quad: int, any_nonzero: bool):
        if idx == last:
            return solve_leaf(lin, quad)
        lo = 0 if not any_nonzero else -bound
        row = m[idx]
        cross = sum(m[i][idx] * xs[i] for i in range(idx))
        for v in range(lo, bound + 1):
            xs[idx] = v
            out = rec(
                idx + 1,
                lin + row[last] * v,
                quad + 2 * v * cross + row[idx] * v * v,
                any_nonzero or v != 0,
            )
            if out is not None:
                return out
        xs[idx] = 0
        return None

    return rec(0, 0, 0, False)


# Trial division bound of the local anisotropy test.  A cofactor left over
# is prime when it is at most _FACTOR_BOUND**2; a larger one is not factored.
_FACTOR_BOUND = 10 ** 4


@functools.cache
def _small_primes() -> tuple[int, ...]:
    """The primes up to _FACTOR_BOUND, in increasing order."""
    sieve = bytearray([1]) * (_FACTOR_BOUND + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(_FACTOR_BOUND) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, _FACTOR_BOUND + 1, p)))
    return tuple(p for p, is_prime in enumerate(sieve) if is_prime)


def _prime_factors(k: int) -> tuple[set[int], bool]:
    """The primes dividing the int k > 0 that trial division finds, and whether that is all.

    When it is not, the cofactor left over is above _FACTOR_BOUND**2 and has
    no prime factor up to _FACTOR_BOUND.
    """
    primes = set()
    for p in _small_primes():
        if p * p > k:
            break
        if k % p == 0:
            primes.add(p)
            while k % p == 0:
                k //= p
    if k > _FACTOR_BOUND ** 2:
        return primes, False
    if k > 1:
        primes.add(k)
    return primes, True


def _split(a: int, p: int) -> tuple[int, int]:
    """(v, u) with a = p^v u and u not divisible by p."""
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v, a


def _legendre(u: int, p: int) -> int:
    return 1 if pow(u, (p - 1) // 2, p) == 1 else -1


def _hilbert(a: int, b: int, p: int) -> int:
    """The Hilbert symbol (a, b)_p of nonzero ints, 1 or -1 (Serre III.1.2)."""
    alpha, u = _split(a, p)
    beta, v = _split(b, p)
    if p == 2:
        e = (((u - 1) // 2) * ((v - 1) // 2) + alpha * ((v * v - 1) // 8)
             + beta * ((u * u - 1) // 8))
        return -1 if e % 2 else 1
    sign = -1 if alpha * beta * ((p - 1) // 2) % 2 else 1
    return sign * _legendre(u, p) ** beta * _legendre(v, p) ** alpha


def _is_square(a: int, p: int) -> bool:
    """Whether the nonzero int a is a square in Q_p."""
    v, u = _split(a, p)
    return v % 2 == 0 and (u % 8 == 1 if p == 2 else _legendre(u, p) == 1)


def _locally_isotropic(ints: Sequence[int], p: int) -> bool:
    """Whether sum d_i x_i^2 has a nonzero zero over Q_p (Serre IV.2.2, Thm 6).

    d is the discriminant and e the Hasse invariant prod_{i<j} (d_i, d_j)_p.
    """
    d = math.prod(ints)
    if len(ints) == 2:
        return _is_square(-d, p)
    e = math.prod(_hilbert(x, y, p) for x, y in itertools.combinations(ints, 2))
    if len(ints) == 3:
        return _hilbert(-1, -d, p) == e
    return not _is_square(d, p) or e == _hilbert(-1, -1, p)


def _anisotropic_prime(diag: Sequence[Fraction]) -> Optional[int]:
    """The least prime p with the diagonal form anisotropic over Q_p, or None.

    The form has rank 2, 3 or 4, and None means isotropic at every p, or
    undecided.  Each d_i is scaled to the int numerator * denominator, which
    keeps its square class.  At rank 3 and 4 the form is isotropic at every
    odd p that divides no d_i, so only 2 and the prime factors need a test.
    When a d_i keeps a cofactor above _FACTOR_BOUND**2 after trial division,
    the primes it hides are all above _FACTOR_BOUND: 2 and the primes found
    are still tested, and a prime up to _FACTOR_BOUND that decides is the
    least; otherwise the test is undecided.  At rank 2 -d_1 d_2 is not a
    rational square (the pair test), so some prime shows it: the small
    primes are scanned first, the factors only if none does.
    """
    ints = [x.numerator * x.denominator for x in diag]
    if len(ints) == 2:
        for p in _small_primes():
            if not _locally_isotropic(ints, p):
                return p
    primes, complete = {2}, True
    for k in ints:
        factors, whole = _prime_factors(abs(k))
        primes |= factors
        complete &= whole
    p = next((p for p in sorted(primes) if not _locally_isotropic(ints, p)), None)
    return p if complete or p is None or p <= _FACTOR_BOUND else None


def _direct_isotropic(a: SymmetricMatrix, columns, diag2: Sequence[Fraction], m: int):
    """An isotropic vector from a zero a_ii or a pair of the diagonalization.

    Returns a nonzero int vector x with x^T A x = 0, or None.  Zero diagonal
    entries of A give one outright; then perfect square tests on opposite-sign
    pairs of the (permuted) diagonalization and its columns of S.
    """
    n = a.n
    for i, (_, ints) in enumerate(a.int_rows):
        if ints[i] == 0:
            return [int(k == i) for k in range(n)]

    hit = _pair_isotropic(diag2, first_pair=(m - 1, m))
    return None if hit is None else _pair_vector(columns, *hit)


def _searched_isotropic(a: SymmetricMatrix, int_a: list[list[int]]):
    """A nonzero int vector x with x^T A x = 0, or None if not found.

    For n <= 6 the perfect square test across diagonalizations of every
    coordinate permutation of A (above that, their n! - 1 would take from
    seconds to hours), then bounded integer enumeration of int_a = c A in the
    original coordinates.  Runs only after _direct_isotropic failed, so no a_ii is 0.
    """
    n = a.n
    identity = tuple(range(n))
    for perm in itertools.permutations(identity) if n <= 6 else ():
        if perm == identity:
            continue
        # The unit columns of P: column k is e_perm[k], so P^T A P permutes A.
        p = tuple([(1, tuple([int(i == j) for i in range(n)])) for j in perm])
        columns, d3 = lagrange_diagonalize(congruence_sym(a, p))
        hit = _pair_isotropic(d3)
        if hit is not None:
            y = _pair_vector(columns, *hit)
            return [y[perm.index(k)] for k in range(n)]

    for bound in _enumeration_bounds(n):
        sol = _enumerate_isotropic(int_a, bound)
        if sol is not None:
            return sol
    return None


def _wedge(p: Sequence[int], q: Sequence[int], num: int, den: int) -> SkewMatrix:
    """The rank-two skew matrix (num / den)(p q^T - q p^T) of int vectors, den > 0."""
    n = len(p)
    entries = []
    for u in range(n):
        for v in range(u + 1, n):
            x = num * (p[u] * q[v] - q[u] * p[v])
            if x:
                g = math.gcd(x, den)
                entries.append((u, v, x // g, den // g))
    return SkewMatrix._trusted(n, tuple(entries))


# -- public operations ---------------------------------------------------------


def witness_indefinite(a: SymmetricMatrix) -> Witness:
    """Exact zero / positive / negative witnesses for an indefinite form.

    The strict-sign witnesses come from a single coupling entry t between
    the last positive and the first negative direction of S^T A S = D, with
    columns reordered so positive entries come first.  Mapped back to the
    original basis it is S^-T T S^-1, and S^-T = A S D^-1 (D is invertible
    here), so it equals t / (d_u d_v) ((Au)(Av)^T - (Av)(Au)^T) for the
    columns u, v of S that carry those directions: no inverse is needed.
    The zero witness (Ax x^T - x (Ax)^T) / (x^T x) comes from a rational
    isotropic vector x.  Both take integer dot products with c A.  When neither
    a zero a_ii nor a pair of D gives one and n <= 4, Hilbert symbols decide
    whether one exists; when none does, the witness has lambda_zero None
    and anisotropic_at the least prime at which none exists.  Otherwise the
    search goes on, and when it finds none within its budget the witness
    has lambda_zero and anisotropic_at None.  The strict-sign witnesses are
    there in all three outcomes.
    """
    columns, d = lagrange_diagonalize(a)
    n = a.n
    order = [i for i in range(n) if d[i] > 0] + [i for i in range(n) if d[i] < 0]
    m = sum(x > 0 for x in d)
    if not 0 < m < len(order) == n:
        sig = (m, len(order) - m, n - len(order))
        raise NotIndefinite(f"signature {sig} is not mixed nondegenerate")
    cols = [columns[k] for k in order]
    diag2 = [d[i] for i in order]

    # Bracket the coupling strength between the last positive and first
    # negative direction: t = 0 gives sign(det A), any t with
    # t^2 > -d_{m-1} d_m gives the opposite sign.
    lam_a = SkewMatrix.zero(n)
    value_a = eval_skewchar(a, lam_a)
    gap = -diag2[m - 1] * diag2[m]
    t_big = math.isqrt(gap.numerator // gap.denominator) + 1
    # A s_k = (c A) x_k / (c q_k) for the column x_k / q_k of S.
    c, int_a = _scaled_matrix(a.int_rows)
    (q_u, x_u), (q_v, x_v) = cols[m - 1], cols[m]
    scale = t_big / (diag2[m - 1] * diag2[m])
    lam_b = _wedge([sum(map(mul, row, x_u)) for row in int_a],
                   [sum(map(mul, row, x_v)) for row in int_a],
                   scale.numerator, scale.denominator * c * c * q_u * q_v)
    value_b = eval_skewchar(a, lam_b)
    if value_a == 0 or value_b == 0 or (value_a > 0) == (value_b > 0):
        raise RuntimeError("bracketing witnesses did not produce both strict signs")

    if value_a > 0:
        signs = (lam_a, value_a, lam_b, value_b)
    else:
        signs = (lam_b, value_b, lam_a, value_a)

    x = _direct_isotropic(a, cols, diag2, m)
    if x is None:
        p = _anisotropic_prime(diag2) if n <= 4 else None
        if p is not None:
            return Witness(None, None, *signs, anisotropic_at=p)
        x = _searched_isotropic(a, int_a)
        if x is None:
            return Witness(None, None, *signs)
    # x is in the kernel of A - L, so det(A - L) = 0; scaling x changes nothing.
    lam_zero = _wedge([sum(map(mul, row, x)) for row in int_a], x, 1,
                      c * sum(v * v for v in x))
    value_zero = eval_skewchar(a, lam_zero)
    if value_zero != 0:
        raise RuntimeError("zero witness failed to annihilate the determinant")
    return Witness(lam_zero, value_zero, *signs)


def classify(a: SymmetricMatrix) -> ClassificationReport:
    """Exact classification of a quadratic form from its signature.

    Definite verdicts predict the strict sign of det(A - L): always positive
    for positive forms, and for negative forms positive or negative according
    to the parity of the dimension.  Degenerate and indefinite forms carry an
    explicit witness; when an indefinite form has no rational zero, or its
    zero search is exhausted, the witness has only its two strict-sign
    matrices.
    """
    sig = signature(a)
    n = a.n
    if sig.zero:
        witness = Witness(lambda_zero=SkewMatrix.zero(n), value_zero=Fraction(0))
        if eval_skewchar(a, witness.lambda_zero) != 0:
            raise RuntimeError("degenerate form has nonzero determinant")
        return ClassificationReport(
            Verdict.DEGENERATE, sig, PredictedSign.NOT_SIGN_DEFINITE, witness)
    if sig.negative == 0:
        return ClassificationReport(
            Verdict.POSITIVE_DEFINITE, sig, PredictedSign.ALWAYS_POSITIVE)
    if sig.positive == 0:
        predicted = (PredictedSign.ALWAYS_POSITIVE if n % 2 == 0
                     else PredictedSign.ALWAYS_NEGATIVE)
        return ClassificationReport(Verdict.NEGATIVE_DEFINITE, sig, predicted)
    return ClassificationReport(
        Verdict.INDEFINITE, sig, PredictedSign.NOT_SIGN_DEFINITE, witness_indefinite(a))


def sign_probe(a: SymmetricMatrix, trials: int, seed: int = 0,
               bound: int = 10) -> ProbeReport:
    """Tally the exact signs of det(A - L) over seeded random skew matrices.

    The trials draw L in turn from one Random(seed) stream, so trial 1
    draws random_skew(a.n, seed, bound) and adjacent seeds draw unrelated
    samples.  The integer draws go straight to the determinant kernel: a
    trial builds no Fraction, Var or SkewMatrix.  _kernel_matrix folds the
    draws into A's stored integer rows, scaling row i by a positive
    integer, so the sign of det(A - L) is the sign of the integer
    determinant: a trial folds and eliminates, and does no division by the
    scales.  trials, seed and bound follow the integer-argument rule
    (_int_at_least): trials and bound at least 1, seed at least 0
    (_seeded_bits says why).
    """
    _int_at_least("trials", trials, 1)
    bits = _seeded_bits(seed)
    positives = negatives = zeros = 0
    for _ in range(trials):
        m, _ = _kernel_matrix(a.int_rows, _random_entries(a.n, bits, bound))
        value = _int_bareiss_det(m)
        if value > 0:
            positives += 1
        elif value < 0:
            negatives += 1
        else:
            zeros += 1
    return ProbeReport(positives, negatives, zeros)
