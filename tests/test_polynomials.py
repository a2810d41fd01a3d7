"""Unit and property tests for the exact polynomial layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewchar import (
    MissingVariable,
    MultiPoly,
    PolyParseError,
    Var,
    lam,
)

ONE = MultiPoly.constant(1)
ZERO = MultiPoly.zero()


def test_var_validation():
    assert str(Var(1, 2)) == "l1_2"
    assert str(Var(3, 10)) == "l3_10"
    with pytest.raises(ValueError):
        Var(2, 2)
    with pytest.raises(ValueError):
        Var(3, 1)
    with pytest.raises(ValueError):
        Var(0, 1)
    # Indices are ints, not floats, bools or strings.
    for i, j in ((1.5, 2), (1, 2.0), (True, 2), (1, True), ("1", 2)):
        with pytest.raises(TypeError):
            Var(i, j)


def test_monomial_exponents_must_be_nonnegative_ints():
    # Refused, not truncated: 0.5 must not become a stored zero exponent.
    for e in (1.5, 0.5, 2.0, True):
        with pytest.raises(TypeError):
            MultiPoly({((Var(1, 2), e),): 1})
    with pytest.raises(ValueError):
        MultiPoly({((Var(1, 2), -1),): 1})
    assert MultiPoly({((Var(1, 2), 0),): 1}) == ONE
    assert MultiPoly({((Var(1, 2), 2),): 1}) == lam(1, 2) ** 2


@pytest.mark.parametrize("value", [3, Fraction(-5, 7), 0])
def test_constant_hashes_like_its_coefficient(value):
    # constant(0) is the zero polynomial.
    p = MultiPoly.constant(value)
    assert p == value and hash(p) == hash(value)
    assert {value: "x"}.get(p) == "x"
    assert {p: "x"}.get(value) == "x"


def test_add_cancellation():
    assert (ONE + lam(1, 2)) + (-lam(1, 2)) == ONE


def test_add_identity():
    p = lam(1, 3) ** 2 + 5
    assert ZERO + p == p
    assert p + 0 == p


def test_add_disjoint_terms():
    p = lam(1, 2) ** 2 + lam(1, 3) ** 2
    assert lam(1, 2) ** 2 + lam(1, 3) ** 2 == p
    assert len(p) == 2


def test_mul_square():
    assert lam(1, 2) * lam(1, 2) == lam(1, 2) ** 2


def test_mul_difference_of_squares():
    assert (ONE + lam(1, 2)) * (ONE - lam(1, 2)) == ONE - lam(1, 2) ** 2


def test_mul_annihilator():
    p = lam(1, 2) * lam(2, 3) + 7
    assert p * ZERO == ZERO
    assert p * 0 == ZERO


def test_eval_simple():
    p = ONE + lam(1, 2) ** 2
    assert p.evaluate({Var(1, 2): 3}) == 10


def test_eval_all_zero_gives_constant_term():
    p = lam(1, 2) * lam(2, 3) + lam(1, 3) - Fraction(7, 3)
    zeros = {v: 0 for v in p.variables()}
    assert p.evaluate(zeros) == p.constant_term() == Fraction(-7, 3)


def test_eval_three_squares():
    # substituting 1, 2, 3 into 1 + l1_2^2 + l1_3^2 + l2_3^2 by hand: 1+1+4+9
    p = ONE + lam(1, 2) ** 2 + lam(1, 3) ** 2 + lam(2, 3) ** 2
    assert p.evaluate({Var(1, 2): 1, Var(1, 3): 2, Var(2, 3): 3}) == 15


def test_eval_missing_variable():
    p = lam(1, 2) + lam(1, 3)
    with pytest.raises(MissingVariable):
        p.evaluate({Var(1, 2): 1})


def test_str_goldens():
    assert str(ZERO) == "0"
    assert str(ONE + lam(1, 2) ** 2) == "1 + l1_2^2"
    assert str(lam(1, 2) ** 2 - 1) == "-1 + l1_2^2"
    assert str(ONE + Fraction(1, 2) * lam(1, 3) + lam(1, 2) ** 2) == (
        "1 + 1/2*l1_3 + l1_2^2"
    )


def test_str_expanded_square_cross_term():
    # (l1_2*l3_4 + l2_3*l1_4 - l1_3*l2_4)^2 expanded by hand has the cross
    # term +2*l1_2*l3_4*l2_3*l1_4, printed with factors in variable order.
    square = (lam(1, 2) * lam(3, 4) + lam(2, 3) * lam(1, 4)
              - lam(1, 3) * lam(2, 4)) ** 2
    text = str(square)
    assert "2*l1_2*l1_4*l2_3*l3_4" in text
    assert " - 2*l1_2*l1_3*l2_4*l3_4" in text
    assert " - 2*l1_3*l1_4*l2_3*l2_4" in text
    assert square.coefficient(((Var(1, 2), 2), (Var(3, 4), 2))) == 1


def test_parse_round_trip_examples():
    for text in (
        "0",
        "1 + l1_2^2",
        "-1 + l1_2^2",
        "1 + 1/2*l1_3 + l1_2^2",
        "3/4 - 2*l1_2*l2_3 + l1_4^2",
    ):
        assert str(MultiPoly.parse(text)) == text


def test_parse_rejects_garbage():
    for text in ("", "l2_1", "1 +", "x + 1", "l1_2^0", "1,5*l1_2", "1/0",
                 "l1_2 + 3/0", "1/00"):
        with pytest.raises(PolyParseError):
            MultiPoly.parse(text)


def test_degree_queries():
    p = lam(1, 2) ** 2 * lam(1, 3) + lam(2, 3)
    assert p.total_degree() == 3
    assert p.degree_in(Var(1, 2)) == 2
    assert p.degree_in(Var(1, 3)) == 1
    assert p.degree_in(Var(3, 4)) == 0
    assert ZERO.total_degree() == 0


# -- property tests ------------------------------------------------------------

VARS = (Var(1, 2), Var(1, 3), Var(2, 3))

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)
monomials = st.dictionaries(
    st.sampled_from(VARS), st.integers(min_value=1, max_value=2), max_size=3
).map(lambda d: tuple(sorted(d.items())))
polys = st.dictionaries(monomials, coefficients, max_size=4).map(MultiPoly)
points = st.fixed_dictionaries({v: coefficients for v in VARS})


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys, points)
def test_eval_is_ring_homomorphism(p, q, x):
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


@given(polys)
def test_parse_round_trip(p):
    assert MultiPoly.parse(str(p)) == p


@given(polys, polys)
def test_degree_additivity(p, q):
    if not p.is_zero and not q.is_zero:
        assert (p * q).total_degree() == p.total_degree() + q.total_degree()


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=2**31))
def test_coefficients_stay_canonical_after_long_chains(seed):
    # 1000 mixed operations; every stored coefficient must stay reduced with
    # a positive denominator (the Fraction contract the whole library leans on).
    import random

    rng = random.Random(seed)
    acc = MultiPoly.constant(1)
    basis = [MultiPoly.variable(v) for v in VARS]
    for _ in range(1000):
        op = rng.randrange(3)
        other = basis[rng.randrange(3)] * Fraction(
            rng.randint(-6, 6), rng.randint(1, 6)
        ) + Fraction(rng.randint(-3, 3), rng.randint(1, 6))
        if op == 0:
            acc = acc + other
        elif op == 1:
            acc = acc - other
        else:
            if acc.total_degree() <= 6:
                acc = acc * other
            else:
                acc = acc + other
    import math

    for _, coeff in acc.terms():
        assert coeff.denominator > 0
        assert math.gcd(abs(coeff.numerator), coeff.denominator) == 1
