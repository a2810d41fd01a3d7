"""Tests for exact matrices, congruence transforms and diagonalization."""

import random
from fractions import Fraction

import pytest

from generators import (
    random_indefinite,
    random_invertible,
    random_singular,
    random_symmetric,
    random_zero_diagonal,
)
from oracles import lagrange_reference, signature_by_charpoly
from skewchar import (
    DimensionMismatch,
    MatrixParseError,
    Signature,
    SkewMatrix,
    SymmetricMatrix,
    TransitionMatrix,
    Var,
    congruence_skew,
    congruence_sym,
    det_rational,
    lagrange_diagonalize,
    random_skew,
    signature,
)


def test_symmetric_constructor_rejects_asymmetry():
    with pytest.raises(ValueError):
        SymmetricMatrix([[1, 2], [3, 4]])


def test_skew_from_full_validation():
    with pytest.raises(ValueError):
        SkewMatrix.from_full([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        SkewMatrix.from_full([[0, 1], [1, 0]])
    l = SkewMatrix.from_full([[0, 2], [-2, 0]])
    assert l.upper == {Var(1, 2): Fraction(2)}


def test_transition_rejects_singular():
    with pytest.raises(ValueError):
        TransitionMatrix([[1, 2], [2, 4]])


def test_congruence_sym_examples():
    a = SymmetricMatrix.identity(2)
    s = TransitionMatrix([[1, 1], [0, 1]])
    assert congruence_sym(a, s) == SymmetricMatrix([[1, 1], [1, 2]])

    b = SymmetricMatrix([[2, -1], [-1, 5]])
    assert congruence_sym(b, TransitionMatrix.identity(2)) == b

    swap = TransitionMatrix([[0, 1], [1, 0]])
    assert congruence_sym(SymmetricMatrix.diagonal([1, -1]), swap) == (
        SymmetricMatrix.diagonal([-1, 1])
    )


def test_congruence_skew_examples():
    zero = SkewMatrix.zero(3)
    s = random_invertible(random.Random(5), 3)
    assert congruence_skew(zero, s) == zero

    l = SkewMatrix(2, {Var(1, 2): 1})
    assert congruence_skew(l, TransitionMatrix.diagonal([2, 3])).upper == {
        Var(1, 2): Fraction(6)
    }
    swap = TransitionMatrix([[0, 1], [1, 0]])
    assert congruence_skew(l, swap).upper == {Var(1, 2): Fraction(-1)}


def test_congruence_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        congruence_sym(SymmetricMatrix.identity(2), TransitionMatrix.identity(3))
    with pytest.raises(DimensionMismatch):
        congruence_skew(SkewMatrix.zero(3), TransitionMatrix.identity(2))


def test_lagrange_already_diagonal():
    s, d = lagrange_diagonalize(SymmetricMatrix.diagonal([2, -3]))
    assert s == TransitionMatrix.identity(2)
    assert d == SymmetricMatrix.diagonal([2, -3])


def test_lagrange_hyperbolic_plane():
    a = SymmetricMatrix([[0, 1], [1, 0]])
    s, d = lagrange_diagonalize(a)
    assert congruence_sym(a, s) == d
    assert d.is_diagonal()
    diag = d.diagonal_entries()
    assert sorted(x > 0 for x in diag) == [False, True]
    # independent oracle: eigenvalue signs from the characteristic polynomial
    assert signature_by_charpoly(a.rows) == (1, 1, 0)


def test_lagrange_rank_one():
    a = SymmetricMatrix([[1, 2], [2, 4]])
    s, d = lagrange_diagonalize(a)
    assert congruence_sym(a, s) == d
    assert list(d.diagonal_entries()).count(Fraction(0)) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lagrange_postcondition_random(n):
    rng = random.Random(100 + n)
    for _ in range(10):
        a = random_symmetric(rng, n)
        s, d = lagrange_diagonalize(a)
        assert d.is_diagonal()
        assert congruence_sym(a, s) == d


@pytest.mark.parametrize("n", range(1, 9))
def test_lagrange_matches_reference(n):
    rng = random.Random(500 + n)
    forms = [SymmetricMatrix.zero(n)]
    for _ in range(12):
        forms.append(random_symmetric(rng, n))
        forms.append(random_zero_diagonal(rng, n))
        if n > 1:
            forms.append(random_singular(rng, n))
            forms.append(random_indefinite(rng, n))
    for a in forms:
        s, d = lagrange_diagonalize(a)
        assert (s.rows, d.rows) == lagrange_reference(a)


def test_signature_examples():
    assert signature(SymmetricMatrix.diagonal([1, 1, -1])) == Signature(2, 1, 0)
    assert signature(SymmetricMatrix.identity(5)) == Signature(5, 0, 0)
    assert signature(SymmetricMatrix([[0, 1], [1, 0]])) == Signature(1, 1, 0)
    assert signature(SymmetricMatrix.zero(3)) == Signature(0, 0, 3)


@pytest.mark.parametrize("make, n", [
    *(pytest.param(random_symmetric, n, id=str(n)) for n in (2, 3, 4, 5, 6)),
    *(pytest.param(random_singular, n, id=f"singular-{n}") for n in (2, 4, 6)),
    *(pytest.param(random_zero_diagonal, n, id=f"zero_diagonal-{n}") for n in (2, 4, 6)),
])
def test_signature_matches_charpoly_oracle(make, n):
    rng = random.Random(200 + n)
    for _ in range(10):
        a = make(rng, n)
        assert tuple(signature(a)) == signature_by_charpoly(a.rows)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sylvester_invariance(n):
    rng = random.Random(300 + n)
    for _ in range(8):
        a = random_symmetric(rng, n)
        s = random_invertible(rng, n)
        assert signature(congruence_sym(a, s)) == signature(a)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_det_congruence_scaling(n):
    rng = random.Random(400 + n)
    for _ in range(8):
        a = random_symmetric(rng, n)
        s = random_invertible(rng, n)
        assert congruence_sym(a, s).det() == s.det ** 2 * a.det()


def test_congruence_skew_stays_skew():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        for _ in range(5):
            l = random_skew(n, rng.randint(0, 10**6), 5)
            s = random_invertible(rng, n)
            out = congruence_skew(l, s)
            rows = out.full_rows()
            for i in range(n):
                assert rows[i][i] == 0
                for j in range(n):
                    assert rows[i][j] == -rows[j][i]


def test_random_skew_determinism():
    assert random_skew(4, 99, 7) == random_skew(4, 99, 7)
    assert random_skew(4, 99, 7) != random_skew(4, 98, 7)


def test_random_skew_degenerate_dimension():
    l = random_skew(1, 5)
    assert l.n == 1 and l.upper == {}


def test_random_skew_range_contract():
    bound = 5
    drawn = 0
    for seed in range(1000):
        l = random_skew(5, seed, bound)
        drawn += 10
        for value in l.upper.values():
            assert abs(value) <= bound
            assert value.denominator <= bound
    assert drawn == 10**4


def test_random_skew_bound_validation():
    with pytest.raises(ValueError):
        random_skew(3, 0, 0)


def test_det_rational_known_values():
    assert det_rational([[Fraction(1, 2), 1], [1, 4]]) == 1
    assert det_rational([[0, 1], [1, 0]]) == -1
    assert det_rational([[1]]) == 1


def test_transition_inverse():
    rng = random.Random(17)
    for n in (2, 3, 4):
        s = random_invertible(rng, n)
        assert s @ s.inverse() == TransitionMatrix.identity(n)


def test_symmetric_text_round_trip():
    a = SymmetricMatrix([[Fraction(1, 2), -2], [-2, 3]])
    assert SymmetricMatrix.from_text(a.to_text()) == a
    assert a.to_text() == "2\n1/2 -2\n-2 3\n"


def test_skew_text_round_trip():
    l = SkewMatrix(3, {Var(1, 3): Fraction(-2, 7), Var(1, 2): 4})
    assert SkewMatrix.from_text(l.to_text()) == l
    assert l.to_text() == "3\n1 2 4\n1 3 -2/7\n"
    # missing pairs read back as zero
    assert SkewMatrix.from_text("2\n") == SkewMatrix.zero(2)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "0",
        "2\n1 2\n3 1",
        "2\n1 2 3\n",  # wrong row count for symmetric
        "2\n1 0.5\n0.5 1\n",  # floats are not rationals
    ],
)
def test_symmetric_parse_errors(text):
    with pytest.raises(MatrixParseError):
        SymmetricMatrix.from_text(text)


@pytest.mark.parametrize(
    "text",
    [
        "2\n2 1 5\n",  # i >= j
        "2\n1 3 5\n",  # out of range
        "3\n1 2 1\n1 2 2\n",  # duplicate
        "3\n1 2\n",  # missing value
    ],
)
def test_skew_parse_errors(text):
    with pytest.raises(MatrixParseError):
        SkewMatrix.from_text(text)
