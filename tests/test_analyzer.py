"""Tests for classification, witnesses and sign probing."""

import random
import time
from fractions import Fraction

import pytest

from generators import (
    random_indefinite,
    random_invertible,
    random_positive_definite,
    random_singular,
)
from skewchar import (
    NotIndefinite,
    PredictedSign,
    Signature,
    SkewMatrix,
    SymmetricMatrix,
    Var,
    Verdict,
    WitnessSearchExhausted,
    classify,
    congruence_sym,
    crosscheck_classification,
    eval_skewchar,
    sign_probe,
    witness_indefinite,
)


def assert_witness_contracts(a, w):
    assert eval_skewchar(a, w.lambda_zero) == 0 == w.value_zero
    assert eval_skewchar(a, w.lambda_plus) == w.value_plus > 0
    assert eval_skewchar(a, w.lambda_minus) == w.value_minus < 0


# -- classify ---------------------------------------------------------------------


def test_classify_positive_definite():
    report = classify(SymmetricMatrix.identity(3))
    assert report.verdict is Verdict.POSITIVE_DEFINITE
    assert report.predicted_sign is PredictedSign.ALWAYS_POSITIVE
    assert report.signature == Signature(3, 0, 0)
    assert report.witness is None


def test_classify_positive_definite_n30_is_fast():
    rng = random.Random(3030)
    n = 30
    d = SymmetricMatrix.diagonal(
        [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)])
    a = congruence_sym(d, random_invertible(rng, n))
    start = time.perf_counter()
    report = classify(a)
    elapsed = time.perf_counter() - start
    assert report.signature == Signature(n, 0, 0)
    assert elapsed < 1.0, f"classify at n={n} took {elapsed:.2f}s"


def test_classify_negative_definite_even_dimension():
    report = classify(-SymmetricMatrix.identity(2))
    assert report.verdict is Verdict.NEGATIVE_DEFINITE
    assert report.predicted_sign is PredictedSign.ALWAYS_POSITIVE


def test_classify_negative_definite_odd_dimension():
    report = classify(-SymmetricMatrix.identity(3))
    assert report.verdict is Verdict.NEGATIVE_DEFINITE
    assert report.predicted_sign is PredictedSign.ALWAYS_NEGATIVE


def test_classify_indefinite_with_witness():
    a = SymmetricMatrix.diagonal([1, -1])
    report = classify(a)
    assert report.verdict is Verdict.INDEFINITE
    assert report.predicted_sign is PredictedSign.NOT_SIGN_DEFINITE
    w = report.witness
    assert w.lambda_zero == SkewMatrix(2, {Var(1, 2): 1})
    assert (w.value_minus, w.value_zero, w.value_plus) == (-1, 0, 3)


def test_classify_degenerate():
    a = SymmetricMatrix([[1, 2], [2, 4]])
    report = classify(a)
    assert report.verdict is Verdict.DEGENERATE
    assert report.predicted_sign is PredictedSign.NOT_SIGN_DEFINITE
    assert report.witness.lambda_zero == SkewMatrix.zero(2)
    assert report.witness.value_zero == 0
    assert report.witness.lambda_plus is None


def test_classify_degenerate_takes_precedence_over_mixed_signs():
    report = classify(SymmetricMatrix.diagonal([1, -1, 0]))
    assert report.verdict is Verdict.DEGENERATE
    assert report.signature == Signature(1, 1, 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classify_invariant_under_congruence(n):
    rng = random.Random(1200 + n)
    pools = [
        random_positive_definite(rng, n),
        random_indefinite(rng, n),
        random_singular(rng, n),
        -random_positive_definite(rng, n),
    ]
    for a in pools:
        verdict = classify(a).verdict
        for _ in range(3):
            s = random_invertible(rng, n)
            assert classify(congruence_sym(a, s)).verdict is verdict


def test_report_serialization_golden():
    text = classify(SymmetricMatrix.diagonal([1, -1])).to_text()
    assert text == (
        "verdict: Indefinite\n"
        "signature: 1 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "2\n"
        "1 2 1\n"
        "witness lambda_plus: P = 3\n"
        "2\n"
        "1 2 2\n"
        "witness lambda_minus: P = -1\n"
        "2\n"
    )


def test_report_serialization_definite():
    text = classify(SymmetricMatrix.identity(4)).to_text()
    assert text == (
        "verdict: PositiveDefinite\n"
        "signature: 4 0 0\n"
        "predicted_sign: AlwaysPositive\n"
    )


# -- witnesses --------------------------------------------------------------------


def test_witness_diag_1_minus1():
    a = SymmetricMatrix.diagonal([1, -1])
    w = witness_indefinite(a)
    assert w.lambda_zero.upper == {Var(1, 2): Fraction(1)}
    assert (w.value_zero, w.value_minus, w.value_plus) == (0, -1, 3)
    assert_witness_contracts(a, w)


def test_witness_diag_1_1_minus1():
    a = SymmetricMatrix.diagonal([1, 1, -1])
    w = witness_indefinite(a)
    # coupling between the last positive and first negative direction
    assert w.lambda_zero.upper == {Var(2, 3): Fraction(1)}
    assert (w.value_zero, w.value_minus, w.value_plus) == (0, -1, 3)
    assert_witness_contracts(a, w)


def test_witness_hyperbolic_plane():
    a = SymmetricMatrix([[0, 1], [1, 0]])
    assert_witness_contracts(a, witness_indefinite(a))


def test_witness_unscaled_rational_diagonal():
    a = SymmetricMatrix.diagonal([Fraction(2, 3), Fraction(5), Fraction(-8, 27)])
    # -d1*d3 = 16/81 is a perfect square even though neither entry is +-1
    assert_witness_contracts(a, witness_indefinite(a))


def test_witness_via_enumeration():
    # no opposite-sign pair has a square product, but 1 + 2 - 3 = 0 at (1,1,1)
    a = SymmetricMatrix.diagonal([1, 2, -3])
    assert_witness_contracts(a, witness_indefinite(a))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_witness_random_planted(n):
    rng = random.Random(1300 + n)
    for _ in range(6):
        a = random_indefinite(rng, n)
        assert_witness_contracts(a, witness_indefinite(a))


def test_witness_rejects_definite_and_degenerate():
    with pytest.raises(NotIndefinite):
        witness_indefinite(SymmetricMatrix.identity(3))
    with pytest.raises(NotIndefinite):
        witness_indefinite(-SymmetricMatrix.identity(2))
    with pytest.raises(NotIndefinite):
        witness_indefinite(SymmetricMatrix([[1, 2], [2, 4]]))


def test_witness_search_exhaustion_is_honest():
    # t^2 = 2 has no rational solution, so det(diag(1,-2) - L) = t^2 - 2
    # never vanishes rationally; the search must report that, not fake it.
    with pytest.raises(WitnessSearchExhausted):
        witness_indefinite(SymmetricMatrix.diagonal([1, -2]))


# -- probing ----------------------------------------------------------------------


def test_sign_probe_positive_definite():
    report = sign_probe(SymmetricMatrix.identity(4), trials=200, seed=5)
    assert (report.positives, report.negatives, report.zeros) == (200, 0, 0)


def test_sign_probe_negative_definite_odd():
    report = sign_probe(-SymmetricMatrix.identity(3), trials=200, seed=5)
    assert (report.positives, report.negatives, report.zeros) == (0, 200, 0)


def test_sign_probe_indefinite_sees_both_signs():
    report = sign_probe(SymmetricMatrix.diagonal([1, -1]), trials=400, seed=5)
    assert report.positives > 0
    assert report.negatives > 0


def test_sign_probe_determinism_and_validation():
    a = SymmetricMatrix.identity(2)
    assert sign_probe(a, trials=50, seed=9) == sign_probe(a, trials=50, seed=9)
    with pytest.raises(ValueError):
        sign_probe(a, trials=0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_negative_definite_parity_confirmed_by_probe(n):
    report = classify(-SymmetricMatrix.identity(n))
    probe = sign_probe(-SymmetricMatrix.identity(n), trials=60, seed=3)
    if report.predicted_sign is PredictedSign.ALWAYS_POSITIVE:
        assert (probe.positives, probe.zeros) == (60, 0)
    else:
        assert (probe.negatives, probe.zeros) == (60, 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_positive_definite_probe_never_vanishes(n):
    rng = random.Random(1400 + n)
    for _ in range(3):
        a = random_positive_definite(rng, n)
        probe = sign_probe(a, trials=60, seed=rng.randint(0, 10**6))
        assert (probe.negatives, probe.zeros) == (0, 0)


# -- crosscheck -------------------------------------------------------------------


def test_crosscheck_positive_definite():
    assert crosscheck_classification(SymmetricMatrix.identity(5), trials=100, seed=2)


def test_crosscheck_indefinite_via_witness():
    assert crosscheck_classification(
        SymmetricMatrix.diagonal([1, 1, -1, -1]), trials=50, seed=2)


def test_crosscheck_degenerate_zero_matrix():
    assert crosscheck_classification(SymmetricMatrix.zero(2), trials=10, seed=2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_crosscheck_random_suite(n):
    rng = random.Random(1500 + n)
    for builder in (random_positive_definite, random_indefinite, random_singular):
        assert crosscheck_classification(
            builder(rng, n), trials=40, seed=rng.randint(0, 10**6))
