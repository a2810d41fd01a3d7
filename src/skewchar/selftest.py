"""Embedded self-checks: fixed golden identities plus small seeded sweeps.

Everything here is deterministic, so two runs of the selftest produce
byte-identical output.  The checks are a condensed version of the full test
suite, suitable for verifying an installation from the command line.
covariance_check and crosscheck_classification are shared with that suite.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterable

from .analyzer import (
    PredictedSign,
    Verdict,
    classify,
    sign_probe,
    witness_indefinite,
)
from .engine import certify_positive, eval_skewchar, expand_skewchar, pfaffian
from .matrices import (
    DimensionMismatch,
    SkewMatrix,
    SymmetricMatrix,
    TransitionMatrix,
    congruence_skew,
    congruence_sym,
    det_rational,
    random_skew,
)
from .polynomials import MultiPoly, lam


def _require(ok: bool) -> None:
    """Fail the running check; unlike assert, this is not stripped by python -O."""
    if not ok:
        raise AssertionError("check failed")


def covariance_check(
    a: SymmetricMatrix, l: SkewMatrix, s: TransitionMatrix
) -> tuple[Fraction, Fraction]:
    """Both sides of the basis-change law: returns (P(S^T A S, S^T L S), det(S)^2 P(A, L)).

    The two components agree for every valid input; callers assert equality.
    """
    if a.n != s.n or l.n != s.n:
        raise DimensionMismatch("dimensions of A, L and S must agree")
    lhs = eval_skewchar(congruence_sym(a, s), congruence_skew(l, s))
    rhs = s.det ** 2 * eval_skewchar(a, l)
    return lhs, rhs


def crosscheck_classification(a: SymmetricMatrix, trials: int = 200,
                              seed: int = 0, bound: int = 10) -> bool:
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


def _golden_identity_poly(n: int) -> MultiPoly:
    total = MultiPoly.constant(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            total = total + lam(i, j) ** 2
    if n == 4:
        total = total + (lam(1, 2) * lam(3, 4) + lam(2, 3) * lam(1, 4)
                         - lam(1, 3) * lam(2, 4)) ** 2
    return total


def _random_symmetric(rng: random.Random, n: int, bound: int = 4) -> SymmetricMatrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            value = Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
            rows[i][j] = rows[j][i] = value
    return SymmetricMatrix(rows)


def _random_invertible(rng: random.Random, n: int) -> TransitionMatrix:
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if det_rational(rows) != 0:
            return TransitionMatrix(rows)


def check_golden_expansions() -> None:
    for n in (2, 3, 4):
        _require(expand_skewchar(SymmetricMatrix.identity(n)) == _golden_identity_poly(n))
    _require(str(expand_skewchar(SymmetricMatrix.identity(2))) == "1 + l1_2^2")


def check_general_2x2() -> None:
    rng = random.Random(101)
    for _ in range(10):
        a = _random_symmetric(rng, 2)
        _require(expand_skewchar(a) == MultiPoly.constant(a.det()) + lam(1, 2) ** 2)


def check_covariance_law() -> None:
    rng = random.Random(202)
    for n in (2, 3, 4):
        for _ in range(8):
            a = _random_symmetric(rng, n)
            l = random_skew(n, rng.randint(0, 10**6))
            s = _random_invertible(rng, n)
            lhs, rhs = covariance_check(a, l, s)
            _require(lhs == rhs)


def check_parity_law() -> None:
    rng = random.Random(303)
    for n in (2, 3, 4):
        for _ in range(8):
            a = _random_symmetric(rng, n)
            l = random_skew(n, rng.randint(0, 10**6))
            _require(eval_skewchar(-a, -l) == (-1) ** n * eval_skewchar(a, l))


def check_eval_expand_consistency() -> None:
    rng = random.Random(404)
    for _ in range(6):
        a = _random_symmetric(rng, 3)
        p = expand_skewchar(a)
        l = random_skew(3, rng.randint(0, 10**6))
        assignment = {v: l.entry(v.i - 1, v.j - 1) for v in p.variables()}
        _require(p.evaluate(assignment) == eval_skewchar(a, l))


def check_pfaffian_identity() -> None:
    for n, seed in ((2, 11), (4, 22), (6, 33)):
        for k in range(5):
            l = random_skew(n, seed + k)
            _require(pfaffian(l) ** 2 == det_rational(l.full_rows()))
    _require(pfaffian(random_skew(3, 7)) == 0)
    _require(pfaffian(random_skew(5, 7)) == 0)


def check_witness_contracts() -> None:
    rng = random.Random(505)
    samples = [
        SymmetricMatrix.diagonal([1, -1]),
        SymmetricMatrix.diagonal([1, 1, -1]),
        SymmetricMatrix([[0, 1], [1, 0]]),
        congruence_sym(SymmetricMatrix.diagonal([2, -2, 3]),
                       _random_invertible(rng, 3)),
    ]
    for a in samples:
        w = witness_indefinite(a)
        _require(eval_skewchar(a, w.lambda_zero) == 0)
        _require(eval_skewchar(a, w.lambda_plus) > 0)
        _require(eval_skewchar(a, w.lambda_minus) < 0)


def check_degenerate_branch() -> None:
    for a in (SymmetricMatrix([[1, 2], [2, 4]]), SymmetricMatrix.zero(2)):
        report = classify(a)
        _require(report.verdict is Verdict.DEGENERATE)
        _require(report.witness is not None)
        _require(eval_skewchar(a, report.witness.lambda_zero) == 0)


def check_certificate_replay() -> None:
    for n in (2, 3, 4):
        cert = certify_positive(SymmetricMatrix.identity(n))
        _require(cert.replay_poly() == _golden_identity_poly(n))
    rng = random.Random(606)
    samples = [
        SymmetricMatrix.identity(2),
        SymmetricMatrix.diagonal([2, 3]),
        SymmetricMatrix.identity(4),
    ]
    s = _random_invertible(rng, 3)
    samples.append(congruence_sym(SymmetricMatrix.identity(3), s))
    for a in samples:
        cert = certify_positive(a)
        _require(all(weight > 0 for weight, _ in cert.terms))
        for _ in range(5):
            l = random_skew(a.n, rng.randint(0, 10**6))
            _require(cert.evaluate(l) == eval_skewchar(a, l))


def check_classification() -> None:
    _require(classify(SymmetricMatrix.identity(4)).verdict is Verdict.POSITIVE_DEFINITE)
    _require(classify(SymmetricMatrix.diagonal([1, -1])).verdict is Verdict.INDEFINITE)
    _require(classify(SymmetricMatrix([[1, 2], [2, 4]])).verdict is Verdict.DEGENERATE)
    report = classify(SymmetricMatrix.diagonal([-1, -1, -1]))
    _require(report.verdict is Verdict.NEGATIVE_DEFINITE)
    _require(report.predicted_sign.value == "AlwaysNegative")
    for n in (2, 3):
        _require(crosscheck_classification(
            SymmetricMatrix.identity(n), trials=50, seed=1))
        _require(crosscheck_classification(
            -SymmetricMatrix.identity(n), trials=50, seed=1))


CHECKS: tuple[tuple[str, Callable[[], None]], ...] = (
    ("golden_expansions", check_golden_expansions),
    ("general_2x2_expansion", check_general_2x2),
    ("covariance_law", check_covariance_law),
    ("parity_law", check_parity_law),
    ("eval_expand_consistency", check_eval_expand_consistency),
    ("pfaffian_square_identity", check_pfaffian_identity),
    ("witness_contracts", check_witness_contracts),
    ("degenerate_branch", check_degenerate_branch),
    ("certificate_replay", check_certificate_replay),
    ("classification_verdicts", check_classification),
)


def run_selftest(checks: Iterable[tuple[str, Callable[[], None]]] = CHECKS,
                 out: Callable[[str], None] = print) -> int:
    """Run every named check, print one PASS/FAIL line each, return failure count."""
    checks = tuple(checks)
    failures = 0
    for name, fn in checks:
        try:
            fn()
        except Exception:
            failures += 1
            out(f"check {name}: FAIL")
        else:
            out(f"check {name}: PASS")
    out(f"selftest: {len(checks) - failures} passed, {failures} failed")
    return failures
