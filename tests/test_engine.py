"""Tests for symbolic expansion, evaluation, Pfaffians and certificates."""

import random
from fractions import Fraction

import pytest

from generators import (
    random_indefinite,
    random_invertible,
    random_positive_definite,
    random_singular,
    random_skew_assignment,
    random_symmetric,
)
from oracles import cofactor_det, symbolic_difference
from skewchar import (
    Certificate,
    DimensionMismatch,
    ExpansionTooLarge,
    MultiPoly,
    NotPositiveDefinite,
    OddSubset,
    SkewMatrix,
    SymmetricMatrix,
    TransitionMatrix,
    Var,
    certify_positive,
    covariance_check,
    det_rational,
    eval_skewchar,
    expand_skewchar,
    lam,
    pfaffian,
    random_skew,
    sub_pfaffian_poly,
)

ONE = MultiPoly.constant(1)


def golden_identity_poly(n: int) -> MultiPoly:
    """The expanded determinant for the identity form, built term by term."""
    total = ONE
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            total = total + lam(i, j) ** 2
    if n == 4:
        total = total + (lam(1, 2) * lam(3, 4) + lam(2, 3) * lam(1, 4)
                         - lam(1, 3) * lam(2, 4)) ** 2
    return total


def poly_at_skew(p: MultiPoly, l: SkewMatrix) -> Fraction:
    return p.evaluate(
        {Var(i, j): l.entry(i - 1, j - 1)
         for i in range(1, l.n + 1) for j in range(i + 1, l.n + 1)}
    )


# -- expansion -------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expand_identity_goldens(n):
    assert expand_skewchar(SymmetricMatrix.identity(n)) == golden_identity_poly(n)


def test_expand_general_2x2():
    rng = random.Random(31)
    for _ in range(10):
        a = random_symmetric(rng, 2)
        assert expand_skewchar(a) == MultiPoly.constant(a.det()) + lam(1, 2) ** 2


def test_expand_dimension_cap():
    with pytest.raises(ExpansionTooLarge):
        expand_skewchar(SymmetricMatrix.identity(4), max_dim=3)


def zero_diagonal(a: SymmetricMatrix) -> SymmetricMatrix:
    return SymmetricMatrix([[0 if i == j else a.entry(i, j) for j in range(a.n)]
                            for i in range(a.n)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_expand_matches_cofactor_oracle(n):
    # Besides random forms: zero and negative d_i (singular, indefinite, zero)
    # and the pairing pivots of a zero diagonal.
    rng = random.Random(600 + n)
    forms = [random_symmetric(rng, n) for _ in range(8)]
    forms += [SymmetricMatrix.zero(n), zero_diagonal(random_symmetric(rng, n))]
    if n >= 2:  # both generators scramble with a shear between two indices
        forms += [random_singular(rng, n), random_indefinite(rng, n)]
    for a in forms:
        assert expand_skewchar(a) == cofactor_det(symbolic_difference(a))


def test_expand_per_variable_degree_bound():
    rng = random.Random(61)
    mats = [SymmetricMatrix.identity(n) for n in (2, 3, 4)]
    mats += [random_symmetric(rng, n) for n in (2, 3, 4)]
    for a in mats:
        p = expand_skewchar(a)
        for mono, _ in p.terms():
            for _, exponent in mono:
                assert exponent <= 2


# -- evaluation ------------------------------------------------------------------


def test_eval_identity_at_zero():
    for n in (2, 3, 4, 5):
        assert eval_skewchar(SymmetricMatrix.identity(n), SkewMatrix.zero(n)) == 1


def test_eval_identity_3_example():
    l = SkewMatrix(3, {Var(1, 2): 1, Var(1, 3): 2, Var(2, 3): 3})
    assert eval_skewchar(SymmetricMatrix.identity(3), l) == 15


def test_eval_indefinite_zero_crossing():
    a = SymmetricMatrix.diagonal([1, -1])
    assert eval_skewchar(a, SkewMatrix(2, {Var(1, 2): 1})) == 0


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        eval_skewchar(SymmetricMatrix.identity(2), SkewMatrix.zero(3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_eval_agrees_with_expansion(n):
    rng = random.Random(700 + n)
    for _ in range(6):
        a = random_symmetric(rng, n)
        p = expand_skewchar(a)
        l = random_skew_assignment(rng, n)
        assert poly_at_skew(p, l) == eval_skewchar(a, l)


# -- covariance and parity --------------------------------------------------------


def test_covariance_identity_transition():
    rng = random.Random(71)
    a = random_symmetric(rng, 3)
    l = random_skew(3, 4)
    lhs, rhs = covariance_check(a, l, TransitionMatrix.identity(3))
    assert lhs == rhs == eval_skewchar(a, l)


def test_covariance_determinant_scaling():
    rng = random.Random(72)
    a = random_symmetric(rng, 3)
    s = TransitionMatrix.diagonal([2, 1, 1])
    lhs, rhs = covariance_check(a, SkewMatrix.zero(3), s)
    assert lhs == rhs == 4 * a.det()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_covariance_random(n):
    rng = random.Random(800 + n)
    for _ in range(8):
        a = random_symmetric(rng, n)
        l = random_skew_assignment(rng, n)
        s = random_invertible(rng, n)
        lhs, rhs = covariance_check(a, l, s)
        assert lhs == rhs


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_parity_law(n):
    rng = random.Random(900 + n)
    for _ in range(8):
        a = random_symmetric(rng, n)
        l = random_skew_assignment(rng, n)
        assert eval_skewchar(-a, -l) == (-1) ** n * eval_skewchar(a, l)


# -- Pfaffians --------------------------------------------------------------------


def test_pfaffian_2x2():
    assert pfaffian(SkewMatrix(2, {Var(1, 2): Fraction(5, 3)})) == Fraction(5, 3)


def test_pfaffian_odd_dimension():
    assert pfaffian(random_skew(3, 1)) == 0
    assert pfaffian(random_skew(5, 1)) == 0
    assert pfaffian(random_skew(7, 1)) == 0


def test_pfaffian_4x4_formula():
    l = SkewMatrix(4, {Var(1, 2): 1, Var(1, 3): 2, Var(1, 4): 3,
                       Var(2, 3): 4, Var(2, 4): 5, Var(3, 4): 6})
    # l12*l34 - l13*l24 + l14*l23 = 6 - 10 + 12
    assert pfaffian(l) == 8


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_pfaffian_squares_to_determinant(n):
    for seed in range(10):
        l = random_skew(n, 1000 + seed, 6)
        assert pfaffian(l) ** 2 == det_rational(l.full_rows())


def test_sub_pfaffian_empty_subset():
    assert sub_pfaffian_poly(4, ()) == ONE


def test_sub_pfaffian_pair():
    assert sub_pfaffian_poly(4, (1, 2)) == lam(1, 2)
    assert sub_pfaffian_poly(5, (2, 4)) == lam(2, 4)


def test_sub_pfaffian_full_4():
    expected = lam(1, 2) * lam(3, 4) - lam(1, 3) * lam(2, 4) + lam(1, 4) * lam(2, 3)
    assert sub_pfaffian_poly(4, (1, 2, 3, 4)) == expected


def test_sub_pfaffian_rejects_odd_subset():
    with pytest.raises(OddSubset):
        sub_pfaffian_poly(4, (1, 2, 3))


def test_sub_pfaffian_rejects_bad_subsets():
    with pytest.raises(ValueError):
        sub_pfaffian_poly(4, (2, 1))
    with pytest.raises(ValueError):
        sub_pfaffian_poly(4, (1, 5))


def test_sub_pfaffian_squares_to_symbolic_determinant():
    # Pf(L[U])^2 equals det of the symbolic principal submatrix, n = 4 full set
    p = sub_pfaffian_poly(4, (1, 2, 3, 4))
    rows = [[(
        lam(i + 1, j + 1) if i < j else (-lam(j + 1, i + 1) if i > j
                                         else MultiPoly.zero())
    ) for j in range(4)] for i in range(4)]
    assert p * p == cofactor_det(rows)


# -- certificates ----------------------------------------------------------------


def test_certificate_identity_2():
    cert = certify_positive(SymmetricMatrix.identity(2))
    assert cert.detS2inv == 1
    assert [(w, r) for w, r in cert.terms] == [
        (Fraction(1), ONE),
        (Fraction(1), lam(1, 2)),
    ]
    assert cert.replay_poly() == golden_identity_poly(2)


def test_certificate_identity_4_reproduces_golden():
    cert = certify_positive(SymmetricMatrix.identity(4))
    assert len(cert.terms) == 8
    roots = [root for _, root in cert.terms]
    assert roots[0] == ONE
    assert set(roots[1:7]) == {lam(i, j) for i in range(1, 5)
                               for j in range(i + 1, 5)}
    assert roots[7] == sub_pfaffian_poly(4, (1, 2, 3, 4))
    assert all(w == 1 for w, _ in cert.terms)
    assert cert.replay_poly() == golden_identity_poly(4)


def test_certificate_diag_2_3():
    cert = certify_positive(SymmetricMatrix.diagonal([2, 3]))
    assert [(w, r) for w, r in cert.terms] == [
        (Fraction(6), ONE),
        (Fraction(1), lam(1, 2)),
    ]
    assert cert.replay_poly() == MultiPoly.constant(6) + lam(1, 2) ** 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_certificate_random_positive_definite(n):
    rng = random.Random(1100 + n)
    for _ in range(4):
        a = random_positive_definite(rng, n)
        cert = certify_positive(a)
        assert cert.detS2inv > 0
        assert all(w > 0 for w, _ in cert.terms)
        assert cert.replay_poly() == cofactor_det(symbolic_difference(a))


def test_certificate_rejects_non_positive():
    with pytest.raises(NotPositiveDefinite):
        certify_positive(SymmetricMatrix.diagonal([1, -1]))
    with pytest.raises(NotPositiveDefinite):
        certify_positive(SymmetricMatrix([[1, 2], [2, 4]]))


def test_certificate_dimension_cap():
    with pytest.raises(ExpansionTooLarge):
        certify_positive(SymmetricMatrix.identity(8))


def test_certificate_numeric_evaluate():
    a = SymmetricMatrix.diagonal([1, 2, 3])
    cert = certify_positive(a)
    for seed in range(5):
        l = random_skew(3, seed, 5)
        assert cert.evaluate(l) == eval_skewchar(a, l)


def test_certificate_evaluate_dimension_mismatch():
    cert = certify_positive(SymmetricMatrix.diagonal([1, 2, 3]))
    with pytest.raises(DimensionMismatch):
        cert.evaluate(SkewMatrix(4, {Var(3, 4): 1}))
    with pytest.raises(DimensionMismatch):
        cert.evaluate(SkewMatrix.zero(2))


def test_certificate_serialization_golden():
    cert = certify_positive(SymmetricMatrix.diagonal([2, 3]))
    assert cert.to_text() == (
        "n: 2\n"
        "scale: 1\n"
        "weight: 6 ; sqroot: 1\n"
        "weight: 1 ; sqroot: l1_2\n"
    )


def test_certificate_is_frozen_record():
    cert = certify_positive(SymmetricMatrix.identity(2))
    assert isinstance(cert, Certificate)
    with pytest.raises(AttributeError):
        cert.detS2inv = Fraction(2)
