"""Unit and property tests for the exact polynomial layer."""

import itertools
import random
import sys
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
from skewchar.polynomials import packed_fields

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


@pytest.mark.parametrize("i, j, error, message", [
    (True, 2, TypeError, "variable indices must be ints, got (True, 2)"),
    (1.0, 2, TypeError, "variable indices must be ints, got (1.0, 2)"),
    (2, 1, ValueError, "variable indices need 1 <= i < j, got (2, 1)"),
])
def test_var_refusal_messages(i, j, error, message):
    with pytest.raises(error) as info:
        Var(i, j)
    assert type(info.value) is error and str(info.value) == message


def test_var_text_order_hash_and_immutability():
    v = Var(1, 2)
    assert (str(v), repr(v)) == ("l1_2", "Var(i=1, j=2)")
    assert repr(Var(3, 10)) == "Var(i=3, j=10)"
    assert hash(v) == hash((1, 2)) and hash(Var(3, 10)) == hash((3, 10))
    shuffled = [Var(2, 3), Var(1, 10), Var(1, 2), Var(3, 4), Var(1, 3)]
    assert sorted(shuffled) == [Var(1, 2), Var(1, 3), Var(1, 10), Var(2, 3), Var(3, 4)]
    assert Var(1, 3) < Var(2, 3) and not Var(1, 2) < Var(1, 2)
    with pytest.raises(AttributeError):
        v.i = 5
    with pytest.raises(AttributeError):
        v.k = 5
    assert (v.i, v.j) == (1, 2)


def test_var_is_its_index_tuple():
    # Var is a NamedTuple: equal to, and interchangeable as a key with, (i, j).
    assert Var(1, 2) == (1, 2) and Var(1, 2) != (2, 1)
    assert {(1, 2): "x"}[Var(1, 2)] == "x"
    assert tuple(Var(3, 10)) == (3, 10)
    # The tuple constructors keep the index checks.
    assert Var._make((1, 3)) == Var(1, 3) and Var(1, 2)._replace(j=5) == Var(1, 5)
    with pytest.raises(ValueError):
        Var(1, 2)._replace(i=5)
    with pytest.raises(TypeError):
        Var._make((True, 2))


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



@pytest.mark.parametrize("text, message", [
    ("l\u0661_\u0662", "non-ASCII character U+0661 on line 1"),
    ("\u0663*l1_2", "non-ASCII character U+0663 on line 1"),
    ("1 + \uff15*l1_2", "non-ASCII character U+FF15 on line 1"),
    ("1\u00a0+ l1_2", "non-ASCII character U+00A0 on line 1"),
    ("1/01", "bad factor '1/01'"),
    ("2/001*l1_2", "bad factor '2/001'"),
    ("1 + +3*l1_2", "bad factor '+3'"),
], ids=["digit_in_index", "digit_in_coefficient", "fullwidth_digit", "nbsp", "1/01",
        "2/001", "signed_coefficient"])
def test_parse_uses_the_ascii_file_grammar_without_sign(text, message):
    # Coefficients follow the matrix file rule for rationals, minus the sign:
    # 1/01 is refused here as it is in a matrix file.
    with pytest.raises(PolyParseError) as exc:
        MultiPoly.parse(text)
    assert str(exc.value) == message


def test_parse_accepts_what_the_file_grammar_accepts():
    assert MultiPoly.parse("02/4*l01_002^02") == MultiPoly.parse("1/2*l1_2^2")
    assert MultiPoly.parse("-0") == MultiPoly.parse("0") == MultiPoly.zero()
    assert MultiPoly.parse("- 1") == MultiPoly.constant(-1)

_HUGE = "7" * 5000  # past the default int string-length limit of 4300 digits


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="interpreter has no int string-length limit")
@pytest.mark.parametrize("text, shown", [
    (_HUGE, f"'{'7' * 60}'... (5000 characters)"),
    (f"1 + 1/{_HUGE}*l1_2", f"'1/{'7' * 58}'... (5002 characters)"),
    (f"l1_{_HUGE}", f"'l1_{'7' * 57}'... (5003 characters)"),
    (f"l1_2^{_HUGE}", f"'l1_2^{'7' * 55}'... (5005 characters)"),
], ids=["coefficient", "denominator", "index", "exponent"])
def test_parse_past_the_int_limit_is_a_parse_error(text, shown):
    with pytest.raises(PolyParseError) as exc:
        MultiPoly.parse(text)
    assert str(exc.value) == f"bad factor {shown}"


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


# -- packed polynomials ----------------------------------------------------------


def packed_mono(n: int, *factors: tuple[int, int, int]) -> int:
    """The packed monomial of the factors l<i>_<j>^e, each given as (i, j, e)."""
    bits = {(k + 1, m + 1): bit for bit, k, m in packed_fields(n)}
    return sum(e * bits[i, j] for i, j, e in factors)


def var_built(n: int, packed: dict, den: int) -> MultiPoly:
    """The same polynomial as MultiPoly._from_packed, decoded field by field."""
    return MultiPoly({
        tuple((Var(k + 1, m + 1), e) for bit, k, m in packed_fields(n)
              if (e := mono // bit & 3)): Fraction(c, den)
        for mono, c in packed.items()
    })


def random_packed(rng: random.Random, n: int) -> dict:
    """Up to 40 monomials with exponents 0..3, mixed signs and some zero coefficients."""
    fields = packed_fields(n)
    packed = {}
    for _ in range(rng.randint(0, 40)):
        mono = 0
        for f in rng.sample(range(len(fields)), min(len(fields), rng.randint(0, 4))):
            mono |= rng.choice((1, 1, 2, 3)) * fields[f][0]
        packed[mono] = rng.choice((0, 1, -1, rng.randint(-10**20, 10**20)))
    return packed


PACKED_CASES = [
    (1, {}, 1),  # zero polynomial
    # only zero coefficients
    (3, {packed_mono(3, (1, 2, 1)): 0, packed_mono(3, (1, 3, 1)): 0}, 5),
    (1, {0: 5}, 3),  # lone constant
    (4, {0: -6}, 4),
    # negative first term, exponent 2
    (3, {0: -3, packed_mono(3, (1, 2, 1)): 2, packed_mono(3, (2, 3, 2)): -4}, 6),
    (4, {packed_mono(4, (1, 2, 1), (2, 4, 1)): 1, packed_mono(4, (1, 2, 2)): -1, 0: 0}, 1),
    # last and first field
    (8, {packed_mono(8, (7, 8, 1)): 1, packed_mono(8, (1, 2, 1)): -1,
         packed_mono(8, (1, 2, 1), (7, 8, 2)): 10**30}, 7),
]


def test_packed_fields_decrease_from_the_top_field():
    # l1_2 fills the top two bits of the top byte, each later variable the
    # next two bits down, so the canonical order within a degree is int order.
    for n in range(2, 13):
        fields = packed_fields(n)
        bits = [bit for bit, _, _ in fields]
        assert [(k, m) for _, k, m in fields] == list(itertools.combinations(range(n), 2))
        assert bits[0].bit_length() == 8 * -(-len(bits) // 4) - 1
        assert all(a == 4 * b for a, b in zip(bits, bits[1:]))


def all_packed_cases():
    rng = random.Random(1313)
    cases = list(PACKED_CASES)
    for n in range(1, 9):
        for _ in range(12):
            cases.append((n, random_packed(rng, n), rng.choice((1, 2, 6, 35, 10**12))))
    return cases


def test_packed_text_goldens():
    texts = [str(MultiPoly._from_packed(n, packed, den)) for n, packed, den in PACKED_CASES]
    assert texts == [
        "0",
        "0",
        "5/3",
        "-3/2",
        "-1/2 + 1/3*l1_2 - 2/3*l2_3^2",
        "-l1_2^2 + l1_2*l2_4",
        f"-1/7*l1_2 + 1/7*l7_8 + {10**30}/7*l1_2*l7_8^2",
    ]


def test_packed_polynomials_print_and_behave_like_var_built_ones():
    # The packed sort key and the Var sort key must give the same text.
    for n, packed, den in all_packed_cases():
        p, q = MultiPoly._from_packed(n, packed, den), var_built(n, packed, den)
        assert str(p) == str(q), (n, packed, den)
        assert len(p) == len(q) == sum(1 for c in packed.values() if c)
        assert p.is_zero == q.is_zero
        assert hash(p) == hash(q)
        assert p == q and q == p
        assert MultiPoly.parse(str(p)) == p
        assert str(p + q) == str(2 * q)


def test_packed_length_and_text_leave_var_terms_unbuilt():
    p = MultiPoly._from_packed(
        3, {0: 1, packed_mono(3, (1, 2, 1)): 0, packed_mono(3, (1, 3, 1)): 2}, 3)
    assert (len(p), str(p), p.is_zero) == (2, "1/3 + 2/3*l1_3", False)
    with pytest.raises(AttributeError):
        object.__getattribute__(p, "_terms")
    assert p.coefficient(((Var(1, 3), 1),)) == Fraction(2, 3)
    assert object.__getattribute__(p, "_terms")
