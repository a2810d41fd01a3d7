"""Tests for symbolic expansion, evaluation, the Pfaffian kernel and certificates."""

import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from generators import (
    random_indefinite,
    random_invertible,
    random_positive_definite,
    random_singular,
    random_skew_assignment,
    random_symmetric,
    random_zero_diagonal,
    sparse_skew,
)
from oracles import (
    Poly,
    cofactor_det,
    columns_of,
    covariance_check,
    golden_identity_poly,
    lam,
    negated_form,
    negated_skew,
    pfaffian_first_row,
    replay_poly,
    skew_rows,
    symbolic_difference,
)
from skewchar import (
    Certificate,
    DimensionMismatch,
    ExpansionTooLarge,
    MultiPoly,
    NotPositiveDefinite,
    SkewMatrix,
    SymmetricMatrix,
    Var,
    certify_positive,
    det_rational,
    eval_skewchar,
    expand_skewchar,
    lagrange_diagonalize,
    random_skew,
)
from skewchar.engine import _packed_pfaffians
from skewchar.polynomials import _unpack

ONE = Poly({(): 1})


def poly_at_skew(p: MultiPoly, l: SkewMatrix) -> Fraction:
    rows = skew_rows(l)
    return p.evaluate(
        {Var(i, j): rows[i - 1][j - 1]
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
        assert expand_skewchar(a) == det_rational(a.rows) + lam(1, 2) ** 2


def test_expand_dimension_cap():
    with pytest.raises(ExpansionTooLarge):
        expand_skewchar(SymmetricMatrix.identity(4), max_dim=3)


def zero_diagonal(a: SymmetricMatrix) -> SymmetricMatrix:
    return SymmetricMatrix([[0 if i == j else x for j, x in enumerate(row)]
                            for i, row in enumerate(a.rows)])


def large_denominators(rng: random.Random, n: int) -> SymmetricMatrix:
    """Entries +-p/9973 and +-p/9967 (1 <= p <= 9): d and S both carry large
    coprime denominators, so the kernel's diagonal scale and scale are large."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                               (9973, 9967)[(i + j) % 2])
    return SymmetricMatrix(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_expand_matches_cofactor_oracle(n):
    # Besides random forms: zero and negative d_i (singular, indefinite, zero),
    # the pairing pivots of a zero diagonal and large coprime denominators.
    rng = random.Random(600 + n)
    forms = [random_symmetric(rng, n) for _ in range(8)]
    forms += [SymmetricMatrix.diagonal([0] * n), zero_diagonal(random_symmetric(rng, n)),
              large_denominators(rng, n)]
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


@pytest.mark.parametrize("n", [7, 8])
def test_packed_roots_are_multilinear(n):
    # Every root is a signed sum of perfect matchings, so each 2-bit exponent
    # field of the kernel holds at most 1 and a square at most 2: no carry.
    a = random_symmetric(random.Random(800 + n), n)
    terms, _, _ = _packed_pfaffians(*lagrange_diagonalize(a))
    assert len(terms) == 2 ** (n - 1)
    for _, size, root in terms:
        assert root
        for mono in _unpack(n, root, 1):
            assert all(e == 1 for _, e in mono)
            assert len(mono) == size // 2


@pytest.mark.parametrize("n", range(1, 8))
def test_packed_weights_are_ints_over_a_power_of_the_diagonal_scale(n):
    # weight / big^(n - |U|) is the product of the d_i outside U; the terms
    # come in the order of the even subsets, those of zero product left out.
    rng = random.Random(700 + n)
    large = large_denominators(rng, n)
    forms = [random_symmetric(rng, n), SymmetricMatrix.diagonal([0] * n), large]
    if n >= 2:
        forms += [random_singular(rng, n), random_indefinite(rng, n)]
    for a in forms:
        s, d = lagrange_diagonalize(a)
        terms, scale, big = _packed_pfaffians(s, d)
        if a is large:
            assert big > 9966 and (n == 1 or scale > 9966)
        expected = []
        for size in range(0, n + 1, 2):
            for subset in itertools.combinations(range(n), size):
                product = math.prod((d[i] for i in range(n) if i not in subset),
                                    start=Fraction(1))
                if product:
                    expected.append((product, size))
        assert [(Fraction(w, big ** (n - size)), size) for w, size, _ in terms] == expected
        assert all(type(w) is int for w, _, _ in terms)


def test_expand_n7_agrees_with_eval():
    rng = random.Random(807)
    a = random_symmetric(rng, 7)
    p = expand_skewchar(a)
    for _ in range(4):
        l = random_skew_assignment(rng, 7)
        assert poly_at_skew(p, l) == eval_skewchar(a, l)


def test_expand_n7_is_fast():
    a = random_symmetric(random.Random(817), 7)
    start = time.perf_counter()
    p = expand_skewchar(a)
    elapsed = time.perf_counter() - start
    assert len(p) > 1000
    assert elapsed < 1.0, f"expand_skewchar at n=7 took {elapsed:.2f}s"


def test_expand_prints_without_building_var_terms():
    # The result keeps the kernel's packed monomials; text and length read
    # them directly, and the Var terms are built only for term access.  The
    # oracle prints the same terms to the same text.
    p = expand_skewchar(random_symmetric(random.Random(815), 5))
    text, size = str(p), len(p)
    with pytest.raises(AttributeError):
        object.__getattribute__(p, "_terms")
    assert size == len(list(p.terms())) and str(Poly(p.terms())) == text


def test_expand_n8_text_golden_and_print_time():
    # The sha256 of the text printed when the result still went through Var
    # terms.  Printing from the packed monomials takes about 0.4 s here; the
    # Var round trip took 0.4 s to unpack and 1.3 s to print.
    a = random_symmetric(random.Random(808), 8)
    p = expand_skewchar(a, max_dim=8)
    assert len(p) == 94088
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        text = str(p)
        best = min(best, time.perf_counter() - start)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "60bf594c216e6e3698a2238a63778767d27fbff25610e6e53dec3a5386d432c5")
    assert best < 0.9, f"printing the n=8 expansion took {best:.2f}s"


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


def cofactor_eval(a: SymmetricMatrix, l: SkewMatrix) -> Fraction:
    """det(A - L) by cofactor expansion of Fraction rows assembled here."""
    rows = [list(row) for row in a.rows]
    for v, c in l.upper.items():
        rows[v.i - 1][v.j - 1] -= c
        rows[v.j - 1][v.i - 1] += c
    return cofactor_det(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_eval_matches_cofactor_oracle(n):
    # n = 1 included: a 1x1 form has no skew entries and det(A - L) = a_11.
    rng = random.Random(7100 + n)
    forms = [random_symmetric(rng, n), random_zero_diagonal(rng, n)]
    if n >= 2:
        forms.append(random_singular(rng, n))
    for a in forms:
        skews = [SkewMatrix.zero(n), random_skew_assignment(rng, n),
                 random_skew(n, rng.randint(0, 10**6), 10)]
        for l in skews:
            assert eval_skewchar(a, l) == cofactor_eval(a, l)


def test_eval_when_l_cancels_the_row_denominators():
    third, half = Fraction(1, 3), Fraction(1, 2)
    a = SymmetricMatrix([[1, third, half], [third, 1, 0], [half, 0, 1]])
    l = SkewMatrix(3, {Var(1, 2): third, Var(1, 3): half})
    # Row 1 of A - L is (1, 0, 0); rows 2 and 3 are (2/3, 1, 0) and (1, 0, 1).
    assert eval_skewchar(a, l) == cofactor_eval(a, l) == 1
    a2 = SymmetricMatrix([[2, third], [third, 5]])
    l2 = SkewMatrix(2, {Var(1, 2): third})
    assert eval_skewchar(a2, l2) == cofactor_eval(a2, l2) == 10


def test_eval_with_coprime_large_denominators():
    a = SymmetricMatrix([[Fraction(1, 97), Fraction(3, 101), 2],
                         [Fraction(3, 101), Fraction(-5, 97), Fraction(1, 97)],
                         [2, Fraction(1, 97), Fraction(7, 101)]])
    l = SkewMatrix(3, {Var(1, 2): Fraction(2, 97), Var(1, 3): Fraction(-4, 101),
                       Var(2, 3): Fraction(50, 9797)})
    assert eval_skewchar(a, l) == cofactor_eval(a, l)


def test_eval_with_dense_l_of_every_denominator():
    # n = 5 has ten upper entries: l_ij = +-(k + 1)/k for k = 1 .. 10.
    pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    l = SkewMatrix(5, {Var(i, j): Fraction((-1) ** k * (k + 1), k)
                       for k, (i, j) in enumerate(pairs, start=1)})
    assert sorted(c.denominator for c in l.upper.values()) == list(range(1, 11))
    rng = random.Random(7200)
    for a in (SymmetricMatrix.identity(5), random_symmetric(rng, 5),
              random_zero_diagonal(rng, 5)):
        assert eval_skewchar(a, l) == cofactor_eval(a, l)


def test_eval_at_n30_is_invariant_under_negating_l():
    # det(A - L) = det((A - L)^T) = det(A + L).
    rng = random.Random(7300)
    a = random_symmetric(rng, 30)
    l = random_skew(30, 7301, 10)
    assert eval_skewchar(a, l) == eval_skewchar(a, negated_skew(l))


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
    lhs, rhs = covariance_check(a, l, columns_of(SymmetricMatrix.identity(3).rows))
    assert lhs == rhs == eval_skewchar(a, l)


def test_covariance_determinant_scaling():
    rng = random.Random(72)
    a = random_symmetric(rng, 3)
    s = columns_of(SymmetricMatrix.diagonal([2, 1, 1]).rows)
    lhs, rhs = covariance_check(a, SkewMatrix.zero(3), s)
    assert lhs == rhs == 4 * det_rational(a.rows)


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
        assert (eval_skewchar(negated_form(a), negated_skew(l))
                == (-1) ** n * eval_skewchar(a, l))


# -- the Pfaffian kernel ----------------------------------------------------------


def kernel_root(k: int) -> dict:
    """Pf(L) in dimension k, packed: the kernel's root at S = I.

    With every weight 0 only the full index set keeps a term, and an odd one
    none, as its Pfaffian is 0.
    """
    terms, _, _ = _packed_pfaffians(
        [(1, [int(p == u) for p in range(k)]) for u in range(k)], [0] * k)
    return next((root for _, _, root in terms), {})


def kernel_pfaffian(subset) -> Poly:
    """Pf(L[subset]), 1-based indices, from kernel_root(|subset|).

    Its l_ab is renamed l_{subset[a], subset[b]}, so the cost depends on
    |subset| alone.
    """
    k = len(subset)
    name = {Var(a + 1, b + 1): Var(subset[a], subset[b])
            for a, b in itertools.combinations(range(k), 2)}
    return Poly({tuple((name[v], e) for v, e in mono): c
                 for mono, c in _unpack(k, kernel_root(k), 1).items()})


@pytest.mark.parametrize("n", range(2, 11))
def test_pfaffian_matches_first_row_oracle(n):
    # The kernel's Pfaffian at numeric skew matrices: sign-exact, unlike
    # Pf^2 = det, and the sparse draws often give 0.
    rng = random.Random(1200 + n)
    mats = [random_skew(n, 1300 + 20 * n + k, 7) for k in range(10)]
    mats += [sparse_skew(rng, n) for _ in range(30)]
    pf = MultiPoly._from_packed(n, kernel_root(n), 1)
    values = [pf.evaluate({Var(i + 1, j + 1): rows[i][j]
                           for i in range(n) for j in range(i + 1, n)})
              for rows in map(skew_rows, mats)]
    assert values == [pfaffian_first_row(skew_rows(l)) for l in mats]
    if n % 2 == 0:
        assert any(v == 0 for v in values) and any(v < 0 for v in values)


def test_sub_pfaffian_empty_subset():
    assert kernel_pfaffian(()) == ONE


def test_sub_pfaffian_pair():
    assert kernel_pfaffian((1, 2)) == lam(1, 2)
    assert kernel_pfaffian((2, 4)) == lam(2, 4)


def test_sub_pfaffian_full_4():
    expected = lam(1, 2) * lam(3, 4) - lam(1, 3) * lam(2, 4) + lam(1, 4) * lam(2, 3)
    assert kernel_pfaffian((1, 2, 3, 4)) == expected


@pytest.mark.parametrize("n", range(0, 7))
def test_sub_pfaffian_matches_first_row_oracle(n):
    rows = [[lam(i + 1, j + 1) if i < j else -lam(j + 1, i + 1) if i > j else 0
             for j in range(n)] for i in range(n)]
    for size in range(0, n + 1, 2):
        for subset in itertools.combinations(range(1, n + 1), size):
            expected = pfaffian_first_row(rows, tuple(u - 1 for u in subset))
            assert kernel_pfaffian(subset) == expected


def test_sub_pfaffian_cost_does_not_depend_on_n():
    # Packing all n(n-1)/2 variables of L would take seconds at n=100.
    p = kernel_pfaffian((3, 5, 7, 100))
    assert p == lam(3, 5) * lam(7, 100) - lam(3, 7) * lam(5, 100) + lam(3, 100) * lam(5, 7)


def test_sub_pfaffian_of_12_indices_has_10395_terms():
    # (12 - 1)!! perfect matchings, each a term of its own.
    assert len(kernel_pfaffian(range(1, 13))) == 10395


def test_sub_pfaffian_squares_to_symbolic_determinant():
    # Pf(L[U])^2 equals det of the symbolic principal submatrix, n = 4 full set
    p = kernel_pfaffian((1, 2, 3, 4))
    rows = [[(
        lam(i + 1, j + 1) if i < j else (-lam(j + 1, i + 1) if i > j else Poly())
    ) for j in range(4)] for i in range(4)]
    assert p * p == cofactor_det(rows)


# -- certificates ----------------------------------------------------------------


def test_certificate_identity_2():
    cert = certify_positive(SymmetricMatrix.identity(2))
    assert [(w, r) for w, r in cert.terms] == [
        (Fraction(1), ONE),
        (Fraction(1), lam(1, 2)),
    ]
    assert replay_poly(cert) == golden_identity_poly(2)


def test_certificate_identity_4_reproduces_golden():
    cert = certify_positive(SymmetricMatrix.identity(4))
    assert len(cert.terms) == 8
    roots = [root for _, root in cert.terms]
    assert roots[0] == ONE
    assert {Poly(r.terms()) for r in roots[1:7]} == {lam(i, j) for i in range(1, 5)
                                                   for j in range(i + 1, 5)}
    assert roots[7] == lam(1, 2) * lam(3, 4) - lam(1, 3) * lam(2, 4) + lam(1, 4) * lam(2, 3)
    assert all(w == 1 for w, _ in cert.terms)
    assert replay_poly(cert) == golden_identity_poly(4)


def test_certificate_diag_2_3():
    cert = certify_positive(SymmetricMatrix.diagonal([2, 3]))
    assert [(w, r) for w, r in cert.terms] == [
        (Fraction(6), ONE),
        (Fraction(1), lam(1, 2)),
    ]
    assert replay_poly(cert) == 6 + lam(1, 2) ** 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_certificate_random_positive_definite(n):
    rng = random.Random(1100 + n)
    for _ in range(4):
        a = random_positive_definite(rng, n)
        cert = certify_positive(a)
        assert all(w > 0 for w, _ in cert.terms)
        assert replay_poly(cert) == cofactor_det(symbolic_difference(a))


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
    # A non-diagonal form with rational entries.
    a = SymmetricMatrix([[Fraction(151, 6), -18, Fraction(41, 2), Fraction(-43, 6)],
                         [-18, 18, -12, 0], [Fraction(41, 2), -12, 19, -7],
                         [Fraction(-43, 6), 0, -7, Fraction(35, 3)]])
    assert certify_positive(a).to_text() == (
        "n: 4\n"
        "scale: 1\n"
        "weight: 243 ; sqroot: 1\n"
        "weight: 81/43 ; sqroot: l1_2\n"
        "weight: 125388/11929 ; sqroot: -67/129*l1_2 + l1_3\n"
        "weight: 711/151 ; sqroot: 146/79*l1_2 - 129/79*l1_3 + l1_4\n"
        "weight: 4077/79 ; sqroot: 123/151*l1_2 + 108/151*l1_3 + l2_3\n"
        "weight: 11929/516 ; sqroot: -19264/11929*l1_2 - 13932/11929*l1_3"
        " + 108/151*l1_4 - 129/79*l2_3 + l2_4\n"
        "weight: 129 ; sqroot: -2/3*l1_2 - l1_3 - 51/43*l1_4 - l2_3 - 67/129*l2_4"
        " + l3_4\n"
        "weight: 1 ; sqroot: l1_2*l3_4 - l1_3*l2_4 + l1_4*l2_3\n"
    )
    # The expansion of a zero-diagonal form, whose diagonalization folds.
    half = Fraction(1, 2)
    a = SymmetricMatrix([[0, -1, 0, half], [-1, 0, half, -1], [0, half, 0, 1],
                         [half, -1, 1, 0]])
    assert str(expand_skewchar(a)) == (
        "25/16 - l1_2^2 - 2*l1_2*l1_3 + l1_2*l1_4 - l1_2*l2_3 - 1/2*l1_2*l3_4"
        " - l1_3^2 - l1_3*l1_4 - l1_3*l2_3 - 5/2*l1_3*l2_4 - 2*l1_3*l3_4"
        " - 1/4*l1_4^2 - 2*l1_4*l2_3 - l1_4*l3_4 - 1/4*l2_3^2 + l2_3*l3_4"
        " - l3_4^2 + l1_2^2*l3_4^2 - 2*l1_2*l1_3*l2_4*l3_4 + 2*l1_2*l1_4*l2_3*l3_4"
        " + l1_3^2*l2_4^2 - 2*l1_3*l1_4*l2_3*l2_4 + l1_4^2*l2_3^2"
    )


def test_certificate_is_frozen_record():
    cert = certify_positive(SymmetricMatrix.identity(2))
    assert isinstance(cert, Certificate)
    with pytest.raises(AttributeError):
        cert.n = 3
    with pytest.raises(AttributeError):
        cert.terms = ()
