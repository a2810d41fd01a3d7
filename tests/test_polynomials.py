"""Tests of Var, of the library's packed polynomials, and of the oracle algebra.

MultiPoly is built only by the kernel, through _from_packed.  The tests
build Poly values of the oracle algebra, check that algebra, and pack them
into library polynomials (packed below) to test evaluation and printing.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Poly, lam
from skewchar import MissingVariable, MultiPoly, SymmetricMatrix, Var, expand_skewchar
from skewchar.polynomials import packed_fields

ONE = Poly({(): 1})
ZERO = Poly()


def packed(n: int, p: Poly) -> MultiPoly:
    """The library polynomial with the terms of p (exponents at most 3) in dimension n."""
    bits = {Var(k + 1, m + 1): bit for bit, k, m in packed_fields(n)}
    den = math.lcm(*[c.denominator for _, c in p.terms()])
    return MultiPoly._from_packed(
        n, {sum(e * bits[v] for v, e in mono): int(c * den) for mono, c in p.terms()}, den)


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
            Poly({((Var(1, 2), e),): 1})
    with pytest.raises(ValueError):
        Poly({((Var(1, 2), -1),): 1})
    assert Poly({((Var(1, 2), 0),): 1}) == ONE
    assert Poly({((Var(1, 2), 2),): 1}) == lam(1, 2) ** 2


@pytest.mark.parametrize("value", [3, Fraction(-5, 7), 0])
def test_constant_hashes_like_its_coefficient(value):
    # The constant 0 is the zero polynomial.
    p = Poly({(): value})
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
    p = packed(2, ONE + lam(1, 2) ** 2)
    assert p.evaluate({Var(1, 2): 3}) == 10


def test_eval_all_zero_gives_constant_term():
    p = packed(3, lam(1, 2) * lam(2, 3) + lam(1, 3) - Fraction(7, 3))
    assert p.evaluate(dict.fromkeys(VARS, 0)) == Fraction(-7, 3)


def test_eval_three_squares():
    # substituting 1, 2, 3 into 1 + l1_2^2 + l1_3^2 + l2_3^2 by hand: 1+1+4+9
    p = packed(3, ONE + lam(1, 2) ** 2 + lam(1, 3) ** 2 + lam(2, 3) ** 2)
    assert p.evaluate({Var(1, 2): 1, Var(1, 3): 2, Var(2, 3): 3}) == 15


def test_eval_missing_variable():
    p = packed(3, lam(1, 2) + lam(1, 3))
    with pytest.raises(MissingVariable):
        p.evaluate({Var(1, 2): 1})


def test_str_goldens():
    # The oracle and the packed library polynomial print the same text.
    for p, text in ((ZERO, "0"), (ONE + lam(1, 2) ** 2, "1 + l1_2^2"),
                    (lam(1, 2) ** 2 - 1, "-1 + l1_2^2"),
                    (ONE + Fraction(1, 2) * lam(1, 3) + lam(1, 2) ** 2,
                     "1 + 1/2*l1_3 + l1_2^2")):
        assert str(p) == str(packed(3, p)) == text


def test_str_expanded_square_cross_term():
    # (l1_2*l3_4 + l2_3*l1_4 - l1_3*l2_4)^2 expanded by hand has the cross
    # term +2*l1_2*l3_4*l2_3*l1_4, printed with factors in variable order.
    square = (lam(1, 2) * lam(3, 4) + lam(2, 3) * lam(1, 4)
              - lam(1, 3) * lam(2, 4)) ** 2
    text = str(square)
    assert text == str(packed(4, square))
    assert "2*l1_2*l1_4*l2_3*l3_4" in text
    assert " - 2*l1_2*l1_3*l2_4*l3_4" in text
    assert " - 2*l1_3*l1_4*l2_3*l2_4" in text
    assert dict(square.terms())[((Var(1, 2), 2), (Var(3, 4), 2))] == 1


# -- property tests ------------------------------------------------------------

VARS = (Var(1, 2), Var(1, 3), Var(2, 3))

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)
monomials = st.dictionaries(
    st.sampled_from(VARS), st.integers(min_value=1, max_value=2), max_size=3
).map(lambda d: tuple(sorted(d.items())))
polys = st.dictionaries(monomials, coefficients, max_size=4).map(Poly)
# Multilinear: a product of two keeps every exponent within a packed field.
linear_polys = st.dictionaries(monomials.map(lambda m: tuple((v, 1) for v, _ in m)),
                               coefficients, max_size=4).map(Poly)
points = st.fixed_dictionaries({v: coefficients for v in VARS})


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(linear_polys, linear_polys, points)
def test_eval_is_ring_homomorphism(p, q, x):
    # The library's evaluate, of the oracle's sums and products.
    def value(r):
        return packed(3, r).evaluate(x)

    assert value(p + q) == value(p) + value(q)
    assert value(p * q) == value(p) * value(q)


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=2**31))
def test_coefficients_stay_canonical_after_long_chains(seed):
    # 1000 mixed operations; every stored coefficient must stay reduced with
    # a positive denominator (the Fraction contract the whole library leans on).
    rng = random.Random(seed)
    acc = ONE
    basis = [Poly({((v, 1),): 1}) for v in VARS]
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
            if max((sum(e for _, e in m) for m, _ in acc.terms()), default=0) <= 6:
                acc = acc * other
            else:
                acc = acc + other

    for _, coeff in acc.terms():
        assert coeff.denominator > 0
        assert math.gcd(abs(coeff.numerator), coeff.denominator) == 1


# -- packed polynomials ----------------------------------------------------------


def packed_mono(n: int, *factors: tuple[int, int, int]) -> int:
    """The packed monomial of the factors l<i>_<j>^e, each given as (i, j, e)."""
    bits = {(k + 1, m + 1): bit for bit, k, m in packed_fields(n)}
    return sum(e * bits[i, j] for i, j, e in factors)


def var_built(n: int, packed: dict, den: int) -> Poly:
    """The same polynomial as MultiPoly._from_packed, decoded field by field."""
    return Poly({
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
        assert p == q and q == p


def test_multipoly_equality_and_hash_between_library_polynomials():
    # Two expansions of one form, built apart, are equal and hash alike;
    # another form's expansion differs.
    p = expand_skewchar(SymmetricMatrix.identity(3))
    q = expand_skewchar(SymmetricMatrix.from_text("3\n1 0 0\n0 1 0\n0 0 1\n"))
    r = expand_skewchar(SymmetricMatrix.diagonal([1, 2, 3]))
    assert p is not q and p == q and hash(p) == hash(q)
    assert p != r and r != q
    assert len({p, q, r}) == 2

def test_packed_length_and_text_leave_var_terms_unbuilt():
    p = MultiPoly._from_packed(
        3, {0: 1, packed_mono(3, (1, 2, 1)): 0, packed_mono(3, (1, 3, 1)): 2}, 3)
    assert (len(p), str(p)) == (2, "1/3 + 2/3*l1_3")
    with pytest.raises(AttributeError):
        object.__getattribute__(p, "_terms")
    assert dict(p.terms())[((Var(1, 3), 1),)] == Fraction(2, 3)
    assert object.__getattribute__(p, "_terms")
