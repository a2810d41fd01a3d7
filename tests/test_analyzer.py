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
    random_symmetric,
    random_unimodular,
    scrambled_positive_definite,
)
from oracles import cofactor_det, crosscheck_classification, skew_rows
from skewchar import (
    ClassificationReport,
    NotIndefinite,
    PredictedSign,
    ProbeReport,
    Signature,
    SkewMatrix,
    SymmetricMatrix,
    TransitionMatrix,
    Var,
    Verdict,
    Witness,
    classify,
    congruence_sym,
    eval_skewchar,
    lagrange_diagonalize,
    random_skew,
    sign_probe,
    signature,
    witness_indefinite,
)
from skewchar import matrices
from skewchar.analyzer import _anisotropic_prime, _locally_isotropic, _pair_isotropic


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
    n = 30
    a = scrambled_positive_definite(random.Random(3030), n)
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


@pytest.mark.parametrize("seed", range(6))
def test_classify_eliminates_an_indefinite_form_once(monkeypatch, seed):
    # signature and the witness's diagonalization share one congruence
    # elimination of A; the output is that of witness_indefinite alone.
    a = random_indefinite(random.Random(seed), 2 + seed % 4)
    calls = []
    scale = matrices._scaled_matrix
    monkeypatch.setattr(matrices, "_scaled_matrix", lambda m: calls.append(m) or scale(m))
    report = classify(a)
    assert report.verdict is Verdict.INDEFINITE
    assert sum(m is a.int_rows for m in calls) == 1
    assert report.witness == witness_indefinite(SymmetricMatrix(a.rows))
    assert report.signature == signature(SymmetricMatrix(a.rows))


@pytest.mark.parametrize("text, prime", [
    ("4\n2 2 2 0\n2 1/2 1/2 0\n2 1/2 -7/2 0\n0 0 0 4\n", None),
    ("3\n2 1 -1\n1 0 3\n-1 3 -1/2\n", None),
    ("4\n1 0 1 0\n0 1 0 1\n1 0 -2 0\n0 1 0 -2\n", 2),
], ids=["planted_pair", "zero_diagonal_entry", "anisotropic"])
def test_classify_builds_no_fraction_view_of_a(text, prime):
    # Settled by a pair of the diagonalization, a zero a_22 or the local
    # test, so no search runs: the witnesses come from int_rows and the
    # integer columns of S, and A's Fraction rows are never built.
    a = SymmetricMatrix.from_text(text)
    w = classify(a).witness
    assert a._rows is None
    assert w.anisotropic_at == prime
    assert (w.lambda_zero is None) == (prime is not None)
    assert eval_skewchar(a, w.lambda_plus) == w.value_plus > 0
    assert eval_skewchar(a, w.lambda_minus) == w.value_minus < 0
    assert a._rows is None


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


def test_report_records_are_frozen():
    report = classify(SymmetricMatrix.diagonal([1, -1]))
    probe = sign_probe(SymmetricMatrix.identity(2), trials=3, seed=1)
    assert isinstance(report, ClassificationReport)
    assert isinstance(report.witness, Witness) and isinstance(probe, ProbeReport)
    for record, field in ((report, "verdict"), (report, "witness"),
                          (report.witness, "lambda_zero"),
                          (report.witness, "anisotropic_at"), (probe, "zeros")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert report.witness.value_zero == 0 and probe.zeros == 0


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


@pytest.mark.parametrize("a, sig", [
    (SymmetricMatrix.identity(3), "(3, 0, 0)"),
    (-SymmetricMatrix.identity(2), "(0, 2, 0)"),
    (SymmetricMatrix.diagonal([1, 0, -1]), "(1, 1, 1)"),
])
def test_witness_rejection_message(a, sig):
    with pytest.raises(NotIndefinite) as info:
        witness_indefinite(a)
    assert str(info.value) == f"signature {sig} is not mixed nondegenerate"


def test_witness_search_exhaustion_is_honest():
    # t^2 = 2 has no rational solution, so det(diag(1,-2) - L) = t^2 - 2
    # never vanishes rationally; the search must report that, not fake it.
    # Both forms are anisotropic at 2 (and the second also at 3), so no
    # rational zero exists, whatever the budget: that is proved, and the
    # least prime is named.
    for diag in ([1, -2], [1, 1, -3, -3]):
        w = witness_indefinite(SymmetricMatrix.diagonal(diag))
        assert w.lambda_zero is None and w.value_zero is None
        assert w.anisotropic_at == 2
    # 10007 * 10039 has no prime factor below the trial division bound, and
    # the form is isotropic at 2 and at every prime below it: the local test
    # does not decide, and only the budget runs out.
    w = witness_indefinite(SymmetricMatrix.diagonal([1, 1, -10007 * 10039]))
    assert w.lambda_zero is None and w.value_zero is None
    assert w.anisotropic_at is None


# 100000007 and 200000033 are primes past the trial division bound; a
# binary form needs no factoring, as the small primes 2 and 3 decide it.
# Neither 10007 * 10039 nor 10007 * 10009 is factored, but 2 decides the
# second form.
@pytest.mark.parametrize("diag, prime", [([1, -2], 2), ([1, 1, -3, -3], 2),
                                         ([1, 1, -10007 * 10039], None),
                                         ([1, -100000007], 2), ([1, -200000033], 3),
                                         ([1, 1, -10007 * 10009], 2)],
                         ids=["diag0", "diag1", "diag2", "diag3", "diag4", "diag5"])
def test_classify_gives_verdict_when_zero_search_is_exhausted(diag, prime):
    a = SymmetricMatrix.diagonal(diag)
    report = classify(a)
    assert report.verdict is Verdict.INDEFINITE
    w = report.witness
    assert w.lambda_zero is None and w.value_zero is None
    assert w.anisotropic_at == prime
    assert eval_skewchar(a, w.lambda_plus) == w.value_plus > 0
    assert eval_skewchar(a, w.lambda_minus) == w.value_minus < 0
    assert crosscheck_classification(a)


_WITNESS_GOLDENS = [
    pytest.param(
        [[-1, -3, -3], [-3, -3, -3], [-3, -3, -2]],
        "verdict: Indefinite\n"
        "signature: 2 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "3\n1 2 4/3\n1 3 1/3\n2 3 -5/3\n"
        "witness lambda_plus: P = 18\n"
        "3\n1 3 -2\n2 3 -6\n"
        "witness lambda_minus: P = -6\n"
        "3\n",
        id="first_pair"),
    pytest.param(
        [[2, 2, 0], [2, 3, 1], [0, 1, -2]],
        "verdict: Indefinite\n"
        "signature: 2 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "3\n1 2 -3/2\n1 3 2\n2 3 3/2\n"
        "witness lambda_plus: P = 2\n"
        "3\n2 3 2\n"
        "witness lambda_minus: P = -6\n"
        "3\n",
        id="permutation_1"),
    pytest.param(
        [[9, 0, -5], [0, -3, 0], [-5, 0, 3]],
        "verdict: Indefinite\n"
        "signature: 2 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "3\n1 2 -5/2\n1 3 -5/2\n2 3 -3\n"
        "witness lambda_plus: P = 3\n"
        "3\n2 3 -1\n"
        "witness lambda_minus: P = -6\n"
        "3\n",
        id="permutation_3"),
    pytest.param(
        [[1, 0, 0], [0, 2, 0], [0, 0, -3]],
        "verdict: Indefinite\n"
        "signature: 2 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "3\n1 2 1/3\n1 3 -4/3\n2 3 5/3\n"
        "witness lambda_plus: P = 3\n"
        "3\n2 3 3\n"
        "witness lambda_minus: P = -6\n"
        "3\n",
        id="enumeration_3"),
    pytest.param(
        [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, -6]],
        "verdict: Indefinite\n"
        "signature: 3 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "4\n1 2 1/4\n1 3 1/2\n1 4 -7/4\n2 3 -1/4\n2 4 2\n3 4 9/4\n"
        "witness lambda_plus: P = 14\n"
        "4\n3 4 5\n"
        "witness lambda_minus: P = -36\n"
        "4\n",
        id="enumeration_4"),
    pytest.param(
        [[-3, 0, -1], [0, 0, 3], [-1, 3, -3]],
        "verdict: Indefinite\n"
        "signature: 1 2 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "3\n2 3 -3\n"
        "witness lambda_plus: P = 27\n"
        "3\n"
        "witness lambda_minus: P = -47/3\n"
        "3\n1 2 -4\n2 3 4/3\n",
        id="zero_diagonal_entry"),
    pytest.param(
        [[Fraction(3, 2), Fraction(-1, 3), Fraction(-1, 3)], [Fraction(-1, 3), 2, 0],
         [Fraction(-1, 3), 0, -1]],
        "verdict: Indefinite\n"
        "signature: 2 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "3\n1 2 2/29\n1 3 -484/435\n2 3 -64/145\n"
        "witness lambda_plus: P = 26/9\n"
        "3\n2 3 2\n"
        "witness lambda_minus: P = -28/9\n"
        "3\n",
        id="enumeration_3_rescaled"),
    pytest.param(
        [[26, 0, 0, 14], [0, 5, 0, 0], [0, 0, -2, 0], [14, 0, 0, 7]],
        "verdict: Indefinite\n"
        "signature: 2 2 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "4\n1 2 7/9\n1 4 2/9\n2 3 7/3\n2 4 10/9\n3 4 -2/3\n"
        "witness lambda_plus: P = 140\n"
        "4\n"
        "witness lambda_minus: P = -84\n"
        "4\n2 3 4\n",
        id="enumeration_4_double_root"),
    pytest.param(
        [[-8, 0, -6, 0, 2], [0, -7, 0, 0, 0], [-6, 0, -6, 0, 0], [0, 0, 0, 1, 0],
         [2, 0, 0, 0, 9]],
        "verdict: Indefinite\n"
        "signature: 2 3 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "5\n1 2 8/7\n1 3 -8/7\n1 4 -16/7\n1 5 8/7\n2 3 1/7\n2 4 16/7\n2 5 -16/7\n"
        "3 4 -2\n3 5 15/7\n4 5 16/7\n"
        "witness lambda_plus: P = 126\n"
        "5\n1 5 -10\n3 5 -15/2\n"
        "witness lambda_minus: P = -924\n"
        "5\n",
        id="enumeration_5"),

]


@pytest.mark.parametrize("rows, text", _WITNESS_GOLDENS)
def test_witness_goldens_per_search_path(rows, text):
    # One form per path of the isotropic search: the first opposite-sign
    # pair of the diagonalization, a hit on the 1st and on the 3rd
    # coordinate permutation, and integer enumeration at n = 3 and n = 4.
    # Then a zero a_22 (returned as e_2 before any diagonalization), and
    # scrambled forms found by enumeration: a last coordinate rescaled by
    # a_nn / gcd (-3 after scaling c = 6), a leaf with discriminant 0, and n = 5.
    report = classify(SymmetricMatrix(rows))
    assert report.to_text() == text



# -- hard inputs, as they are -----------------------------------------------------
# The two diagonals have no planted pair: the |d_i| are distinct and
# squarefree, and no opposite-sign pair has a square ratio.  Each is isotropic,
# by x = (1, ..., 1).  For them and for the scrambled n = 5 form, the direct
# pair test and the whole n! permutation stage find nothing, and the integer
# enumeration solves each at bound 2.

_HARD_GOLDENS = [
    pytest.param(
        [1, 2, 3, 5, -11], 0.7,
        "verdict: Indefinite\n"
        "signature: 4 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "5\n2 3 1/3\n2 5 -13/3\n3 5 7/3\n"
        "witness lambda_plus: P = 54\n"
        "5\n4 5 8\n"
        "witness lambda_minus: P = -330\n"
        "5\n",
        id="diag(1,2,3,5,-11)"),
    pytest.param(
        [1, 2, 3, 5, 6, -17], 7.5,
        "verdict: Indefinite\n"
        "signature: 5 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "6\n3 4 2/3\n3 6 -20/3\n4 6 11/3\n"
        "witness lambda_plus: P = 570\n"
        "6\n5 6 11\n"
        "witness lambda_minus: P = -3060\n"
        "6\n",
        id="diag(1,2,3,5,6,-17)"),
]


@pytest.mark.parametrize("diag, bound, text", _HARD_GOLDENS)
def test_hard_diagonal_forms(diag, bound, text):
    # Bounds are about 5x the best of 3 at the commit that pinned the texts
    # (0.14 s and 1.45 s on a shared 2-core x86-64 machine): the best of up
    # to 3 runs must stay under them.
    a = SymmetricMatrix.diagonal(diag)
    assert sum(diag) == 0 and _pair_isotropic([Fraction(x) for x in diag]) is None
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        assert classify(a).to_text() == text
        best = min(best, time.perf_counter() - start)
        if best < bound:
            break
    assert best < bound


def test_hard_form_scrambled():
    # diag(1, 2, 3, 5, -11) scrambled by a seeded unimodular S, pinned as it is.
    rows = [[2, 0, 2, 0, 2], [0, 3, 0, 0, 0], [2, 0, 3, 0, 3], [0, 0, 0, -11, 0],
            [2, 0, 3, 0, 8]]
    s = random_unimodular(random.Random(1), 5)
    assert congruence_sym(SymmetricMatrix.diagonal([1, 2, 3, 5, -11]), s).rows == \
        SymmetricMatrix(rows).rows
    assert classify(SymmetricMatrix(rows)).to_text() == (
        "verdict: Indefinite\n"
        "signature: 4 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "5\n1 2 -2/7\n1 3 4/7\n1 4 2/7\n1 5 -2/7\n2 3 -3/7\n2 4 -2\n2 5 1/7\n"
        "3 4 25/7\n3 5 1/7\n4 5 13/7\n"
        "witness lambda_plus: P = 54\n"
        "5\n4 5 -8\n"
        "witness lambda_minus: P = -330\n"
        "5\n")


def _primes_up_to(k):
    return [p for p in range(2, k + 1) if all(p % q for q in range(2, p))]


def test_binary_anisotropic_prime_matches_a_test_of_every_smaller_prime():
    # The reference tests 2 and every prime up to the largest prime factor
    # of a * b, in increasing order; a binary form can be anisotropic at a
    # prime that divides neither coefficient, as <1, -17> is at 3.
    odd = 0
    for a in range(1, 61):
        for b in range(1, 61):
            top = max([2] + [p for p in _primes_up_to(max(a, b)) if (a * b) % p == 0])
            expected = next((p for p in _primes_up_to(top)
                             if not _locally_isotropic([a, -b], p)), None)
            assert _anisotropic_prime([Fraction(a), Fraction(-b)]) == expected, (a, b)
            odd += expected is not None and expected % 2 == 1
    assert _anisotropic_prime([Fraction(1), Fraction(-17)]) == 3
    assert odd > 0


def test_locally_isotropic_n4_form_still_exhausts_the_search():
    # A known gap, recorded as it is: this form is isotropic at every prime,
    # so by Hasse-Minkowski it has a rational zero, yet the search finds none
    # within its budget and says so.
    F = Fraction
    a = SymmetricMatrix([[F(35, 3), F(43, 6), F(-9, 2), F(-11, 3)],
                         [F(43, 6), F(43, 6), 0, F(-11, 3)],
                         [F(-9, 2), 0, 2, 0],
                         [F(-11, 3), F(-11, 3), 0, F(11, 3)]])
    diag = lagrange_diagonalize(a)[1]
    assert diag == (F(35, 3), F(387, 140), F(-5, 2), F(77, 43))
    assert _anisotropic_prime(diag) is None
    assert classify(a).to_text() == (
        "verdict: Indefinite\n"
        "signature: 3 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: none (search budget exhausted)\n"
        "witness lambda_plus: P = 1167/8\n"
        "4\n3 4 -3\n"
        "witness lambda_minus: P = -1155/8\n"
        "4\n")


@pytest.mark.parametrize("seed", range(40))
def test_permuted_diagonal_form_needs_no_new_diagonalization(seed):
    # P^T D P of a diagonal D with nonzero entries is diagonal, so its
    # diagonalization is S = I and the permuted d_i: the permutation stage
    # can never find a pair on a diagonal form that the direct test missed.
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    diag = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
            for _ in range(n)]
    perm = rng.sample(range(n), n)
    s, d = lagrange_diagonalize(
        congruence_sym(SymmetricMatrix.diagonal(diag), TransitionMatrix.permutation(perm)))
    assert s == TransitionMatrix.identity(n)
    assert d == tuple([diag[p] for p in perm])

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
    with pytest.raises(ValueError, match="bound must be at least 1"):
        sign_probe(a, trials=5, bound=0)
    # trials is checked before any draw, so bound=0 is never reached.
    with pytest.raises(ValueError, match="trials must be at least 1"):
        sign_probe(a, trials=0, bound=0)


def test_sign_probe_refuses_a_negative_seed():
    # Random(-s) draws the stream of Random(s), so seed -5 would repeat
    # seed 5, every trial of it.
    assert random.Random(-3).getrandbits(64) == random.Random(3).getrandbits(64)
    a = SymmetricMatrix.identity(2)
    with pytest.raises(ValueError, match="seed must be at least 0"):
        sign_probe(a, trials=40, seed=-20)
    with pytest.raises(ValueError, match="seed must be at least 0"):
        sign_probe(a, trials=1, seed=-1)
    assert sign_probe(a, trials=1, seed=0) == ProbeReport(1, 0, 0)


@pytest.mark.parametrize("seed", [1.5, True])
def test_sign_probe_refuses_a_seed_that_is_not_an_int(seed):
    with pytest.raises(TypeError, match="seed must be an int"):
        sign_probe(SymmetricMatrix.identity(2), trials=3, seed=seed)


@pytest.mark.parametrize("bound", [2.5, 10.0, True])
def test_sign_probe_refuses_a_bound_that_is_not_an_int(bound):
    with pytest.raises(TypeError, match="bound must be an int"):
        sign_probe(SymmetricMatrix.identity(2), trials=3, bound=bound)


@pytest.mark.parametrize("trials", [True, 2.5, 3.0, "3"])
def test_sign_probe_refuses_a_trial_count_that_is_not_an_int(trials):
    # trials=True ran one trial, and 2.5 failed inside range().
    with pytest.raises(TypeError, match="trials must be an int"):
        sign_probe(SymmetricMatrix.identity(2), trials=trials)


def oracle_skews(n: int, trials: int, seed: int, bound: int) -> list[tuple[tuple, ...]]:
    """The L of each probe trial as full rows: randint calls in turn on one Random(seed)."""
    rng = random.Random(seed)
    skews = []
    for _ in range(trials):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                rows[i][j], rows[j][i] = x, -x
        skews.append(tuple(map(tuple, rows)))
    return skews


def oracle_probe(a: SymmetricMatrix, trials: int, seed: int, bound: int) -> ProbeReport:
    """Tallies of det(A - L) by cofactor expansion over the oracle_skews draws."""
    signs = [cofactor_det([[x - y for x, y in zip(row, l_row)] for row, l_row in zip(a.rows, l)])
             for l in oracle_skews(a.n, trials, seed, bound)]
    return ProbeReport(sum(v > 0 for v in signs), sum(v < 0 for v in signs),
                       sum(v == 0 for v in signs))


def test_sign_probe_tallies_zeros_golden():
    # P(L) = l1_2^2 - 1 with l1_2 in {-1, 0, 1}: zero at +-1, negative at 0.
    a = SymmetricMatrix([[0, 1], [1, 0]])
    assert sign_probe(a, trials=40, seed=0, bound=1) == ProbeReport(0, 14, 26)
    assert sign_probe(a, trials=40, seed=7, bound=1) == ProbeReport(0, 13, 27)
    assert oracle_probe(a, 40, 7, 1) == ProbeReport(0, 13, 27)


def test_sign_probe_degenerate_golden():
    a = SymmetricMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    assert sign_probe(a, trials=40, seed=3) == ProbeReport(40, 0, 0)
    assert sign_probe(a, trials=40, seed=3, bound=2) == ProbeReport(33, 0, 7)
    b = SymmetricMatrix.diagonal([1, -1, 0])
    assert sign_probe(b, trials=40, seed=11, bound=2) == ProbeReport(14, 18, 8)


def test_adjacent_probe_seeds_share_no_trial():
    # The trials of one call draw in turn from one stream.  When trial k drew
    # from seed K + k, seeds 0 and 1 shared 39 of their 40 trials.
    first, second = (set(oracle_skews(4, 40, seed, 10)) for seed in (0, 1))
    assert len(first) == len(second) == 40
    assert not first & second
    a = SymmetricMatrix.diagonal([1, -1, 2, -3])
    for seed in (0, 1):
        assert sign_probe(a, trials=40, seed=seed) == oracle_probe(a, 40, seed, 10)


def test_probe_trial_one_draws_random_skew():
    rng = random.Random(5150)
    for n in range(1, 7):
        a = random_symmetric(rng, n, 2)
        for bound in (1, 10, 2**40):
            seed = rng.randint(0, 10**6)
            l = random_skew(n, seed, bound)
            assert oracle_skews(n, 1, seed, bound) == [skew_rows(l)]
            value = eval_skewchar(a, l)
            assert sign_probe(a, trials=1, seed=seed, bound=bound) == ProbeReport(
                int(value > 0), int(value < 0), int(value == 0))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_sign_probe_matches_cofactor_oracle(n):
    rng = random.Random(7400 + n)
    forms = [random_symmetric(rng, n, 2), SymmetricMatrix.diagonal([1, -1, 0, 2, -2, 0][:n])]
    for a in forms:
        # 2**40 draws numerators wider than 32 bits and row scales past 64.
        for bound in (1, 3, 10, 1000, 2**40):
            seed = rng.randint(0, 10**6)
            assert sign_probe(a, trials=12, seed=seed, bound=bound) == \
                oracle_probe(a, 12, seed, bound)


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
