"""Tests for exact matrices, congruence transforms and diagonalization."""

import collections
import itertools
import math
import random
import sys
import time
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import (
    random_indefinite,
    random_invertible,
    random_singular,
    random_symmetric,
    random_zero_diagonal,
    scrambled_positive_definite,
)
from oracles import (_product, cofactor_det, columns_of, lagrange_reference, negated_form,
                     rows_of, signature_by_charpoly, skew_rows)
from skewchar import (
    DimensionMismatch,
    MatrixParseError,
    Signature,
    SkewMatrix,
    SymmetricMatrix,
    Var,
    Verdict,
    classify,
    congruence_sym,
    det_rational,
    expand_skewchar,
    lagrange_diagonalize,
    random_skew,
    signature,
)
from skewchar.matrices import (_congruence_pivots, _kernel_matrix, _random_entries,
                               _scaled_det)


def _rows_unread(monkeypatch, cls):
    """Until the context of monkeypatch ends, reading cls.rows fails the test."""
    def read(self):
        pytest.fail(f"{cls.__name__}.rows was read")
    monkeypatch.setattr(cls, "rows", property(read))


def test_symmetric_constructor_rejects_asymmetry():
    with pytest.raises(ValueError):
        SymmetricMatrix([[1, 2], [3, 4]])


def test_transition_stores_reduced_columns():
    # Each column of S is kept as (q, ints) in lowest terms.  The column of
    # e_2 += (1/2) e_1 is (1/2, 1, 0), kept as (2, (1, 2, 0)); the shear
    # e_3 += (-2/3) e_2 replays in ints as (-2, -4, 6) / 6, and the gcd
    # step takes out the 2.
    a = SymmetricMatrix([[2, -1, 0], [-1, 2, 1], [0, 1, 2]])
    columns, d = lagrange_diagonalize(a)
    assert d == (2, Fraction(3, 2), Fraction(4, 3))
    assert columns == ((1, (1, 0, 0)), (2, (1, 2, 0)), (3, (-1, -2, 3)))
    assert columns == columns_of(rows_of(columns))


@pytest.mark.parametrize("perm", list(itertools.permutations(range(4))),
                         ids=lambda perm: "".join(map(str, perm)))
def test_permutation_is_the_matrix_its_rows_build(perm):
    # The n! stage of the zero search builds the unit columns of each
    # permutation P as stored, column k being e_perm[k]: the canonical
    # columns of the 0/1 rows, with det P = +-1, and P^T A P permutes A.
    n = len(perm)
    rows = [[int(perm[k] == i) for k in range(n)] for i in range(n)]
    p = tuple([(1, tuple([int(i == j) for i in range(n)])) for j in perm])
    assert p == columns_of(rows) and rows_of(p) == tuple(map(tuple, rows))
    inversions = sum(perm[k] > x for j, x in enumerate(perm) for k in range(j))
    assert det_rational(rows) == (-1) ** inversions
    a = random_symmetric(random.Random(4040), n)
    assert congruence_sym(a, p).rows == tuple(
        tuple(a.rows[perm[i]][perm[j]] for j in range(n)) for i in range(n))


def test_skew_constructor_refuses_a_repeated_variable():
    v = Var(1, 2)
    for items in ([(v, 5), (v, 0)], [(v, 5), (v, 3)], [(v, 0), (v, 0)]):
        with pytest.raises(ValueError, match="^duplicate entry for l1_2$"):
            SkewMatrix(2, items)


@pytest.mark.parametrize("wrap", [types.MappingProxyType, collections.ChainMap,
                                  collections.UserDict], ids=lambda wrap: wrap.__name__)
def test_skew_constructor_reads_any_mapping(wrap):
    # A mapping that is not a dict is read by its items, as a dict is, not
    # iterated as its keys.
    upper = {Var(1, 2): Fraction(1, 2), Var(1, 3): 0, Var(2, 3): -3}
    assert SkewMatrix(3, wrap(upper)).entries == SkewMatrix(3, upper).entries


def test_skew_constructor_refuses_a_non_int_dimension():
    for n in (2.5, 2.0, Fraction(2), "2"):
        with pytest.raises(TypeError):
            SkewMatrix(n, {Var(1, 2): 1})


_ROW_ENTRY_POINTS = [SymmetricMatrix, det_rational]


@pytest.mark.parametrize("make", _ROW_ENTRY_POINTS)
def test_entry_points_refuse_a_float(make):
    with pytest.raises(TypeError, match="expected an int or Fraction, got float"):
        make([[0, 0.5], [-0.5, 0]])


def test_skew_constructor_refuses_a_float():
    with pytest.raises(TypeError, match="expected an int or Fraction, got float"):
        SkewMatrix(2, {Var(1, 2): 0.5})


# bool is an int subclass, but an entry that is a bool is refused, as entry
# and Var refuse a bool index; True and False used to read as 1 and 0.
@pytest.mark.parametrize("make", _ROW_ENTRY_POINTS)
def test_entry_points_refuse_a_bool(make):
    with pytest.raises(TypeError, match="^expected an int or Fraction, got bool$"):
        make([[True, 0], [0, True]])


def test_skew_constructor_refuses_a_bool():
    for value in (True, False):
        with pytest.raises(TypeError, match="^expected an int or Fraction, got bool$"):
            SkewMatrix(2, {Var(1, 2): value})


def test_skew_constructor_refuses_a_key_that_is_not_a_var_of_dimension_n():
    # A Var equals its index tuple, but a bare tuple is not taken as one.
    with pytest.raises(TypeError, match="^upper-triangle keys must be Var instances$"):
        SkewMatrix(2, {(1, 2): 1})
    with pytest.raises(ValueError, match="^l1_3 out of range for dimension 2$"):
        SkewMatrix(2, {Var(1, 3): 1})


# det_rational has its own test of these shapes.
@pytest.mark.parametrize("make", _ROW_ENTRY_POINTS[:-1])
@pytest.mark.parametrize("rows", [[], [[1, 2]], [[1, 2], [3]], [[1], [2]], [[0, 1], [-1]]])
def test_entry_points_refuse_ragged_or_empty_rows(make, rows):
    with pytest.raises(ValueError, match="^matrix must be square and nonempty$"):
        make(rows)


_I2_COLUMNS = ((1, (1, 0)), (1, (0, 1)))


def test_congruence_sym_examples():
    a = SymmetricMatrix.identity(2)
    s = columns_of([[1, 1], [0, 1]])
    assert congruence_sym(a, s) == SymmetricMatrix([[1, 1], [1, 2]])

    b = SymmetricMatrix([[2, -1], [-1, 5]])
    assert congruence_sym(b, _I2_COLUMNS) == b

    swap = columns_of([[0, 1], [1, 0]])
    assert congruence_sym(SymmetricMatrix.diagonal([1, -1]), swap) == (
        SymmetricMatrix.diagonal([-1, 1])
    )
    # A column need not be reduced: 2/2 reads as 1.
    assert congruence_sym(b, ((2, (2, 0)), (1, (0, 1)))) == b


def test_congruence_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        congruence_sym(SymmetricMatrix.identity(2), columns_of(SymmetricMatrix.identity(3).rows))


@pytest.mark.parametrize("columns", [
    ((1, (1, 0)),),
    ((1, (1, 0)), (1, (0, 1)), (1, (0, 0))),
    ((1, (1,)), (1, (0, 1))),
    ((1, (1, 0)), (1, (0, 1, 0))),
], ids=["one_column", "three_columns", "short_column", "long_column"])
def test_congruence_refuses_a_transition_that_is_not_n_by_n(columns):
    # Unchecked, a wrong column count gives a matrix of the wrong size, a
    # long column is cut short by the products and a short one indexes past
    # its end.
    with pytest.raises(DimensionMismatch, match="^form has n=2, transition is not 2 x 2$"):
        congruence_sym(SymmetricMatrix([[1, 2], [2, 3]]), columns)


def test_lagrange_already_diagonal():
    s, d = lagrange_diagonalize(SymmetricMatrix.diagonal([2, -3]))
    assert s == _I2_COLUMNS
    assert d == (2, -3)


def test_lagrange_hyperbolic_plane():
    a = SymmetricMatrix([[0, 1], [1, 0]])
    s, d = lagrange_diagonalize(a)
    assert congruence_sym(a, s) == SymmetricMatrix.diagonal(d)
    assert sorted(x > 0 for x in d) == [False, True]
    # independent oracle: eigenvalue signs from the characteristic polynomial
    assert signature_by_charpoly(a.rows) == (1, 1, 0)


def test_lagrange_rank_one():
    a = SymmetricMatrix([[1, 2], [2, 4]])
    s, d = lagrange_diagonalize(a)
    assert congruence_sym(a, s) == SymmetricMatrix.diagonal(d)
    assert d.count(0) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lagrange_postcondition_random(n):
    # Zero diagonals take fold pivots; singular forms and the zero form end
    # in a zero trailing block.  congruence_sym reads the columns as returned.
    rng = random.Random(100 + n)
    forms = [random_symmetric(rng, n) for _ in range(10)] + [SymmetricMatrix.diagonal([0] * n)]
    for _ in range(5):
        forms += [random_zero_diagonal(rng, n), random_singular(rng, n)]
    for a in forms:
        s, d = lagrange_diagonalize(a)
        assert congruence_sym(a, s) == SymmetricMatrix.diagonal(d)
    assert any(("add", 0, 1, 1, 1) in _congruence_pivots(a)[1] for a in forms)


def _assert_matches_reference(a):
    """S and d match the Fraction reference; each integer column of S is reduced, q > 0."""
    s, d = lagrange_diagonalize(a)
    ref_s, ref_d = lagrange_reference(a)
    assert type(d) is tuple and all(type(x) is Fraction for x in d)
    assert (rows_of(s), SymmetricMatrix.diagonal(d).rows) == (ref_s, ref_d)
    assert det_rational(rows_of(s)) in (1, -1)
    for k, (q, ints) in enumerate(s):
        assert q > 0 and math.gcd(q, *ints) == 1
        assert tuple(Fraction(x, q) for x in ints) == tuple(row[k] for row in ref_s)


def _reference_forms(n):
    rng = random.Random(500 + n)
    forms = [SymmetricMatrix.diagonal([0] * n)]
    for _ in range(12):
        forms.append(random_symmetric(rng, n))
        forms.append(negated_form(random_symmetric(rng, n)))
        forms.append(random_zero_diagonal(rng, n))
        if n > 1:
            forms.append(random_singular(rng, n))
            forms.append(random_indefinite(rng, n))
    return forms


@pytest.mark.parametrize("n", range(1, 9))
def test_lagrange_matches_reference(n):
    forms = _reference_forms(n)
    for a in forms:
        _assert_matches_reference(a)
    if n > 1:
        # the basis changes replayed above include folds, swaps and negative pivots
        ops = [op for a in forms for op in _congruence_pivots(a)[1]]
        assert any(op[0] == "swap" for op in ops)
        assert ("add", 0, 1, 1, 1) in ops
        assert any(x < 0 for a in forms for x in _congruence_pivots(a)[0])


@pytest.mark.parametrize("rows, feature", [
    ([[0, 1, 2], [1, 0, 3], [2, 3, 0]], ("add", 0, 1, 1, 1)),
    ([[0, 1, 0], [1, 2, 0], [0, 0, 1]], ("swap", 0, 1)),
    ([[1, 2, 0], [2, 4, 0], [0, 0, 0]], None),
    ([[-2, 1, 3], [1, 1, 0], [3, 0, 1]], ("add", 1, 0, 1, 2)),
], ids=["fold", "swap", "zero_trailing_block", "negative_pivot"])
def test_lagrange_integer_basis_per_elimination_feature(rows, feature):
    # The fold is e_1 += e_2 on a zero diagonal with a nonzero a_12; the zero
    # trailing block stops the elimination after one pivot; the pivot -2 gives
    # e_2 += (1/2) e_1, a column (1/2, 1, 0) kept as (2, (1, 2, 0)), not (-2, ...).
    a = SymmetricMatrix(rows)
    diag, ops = _congruence_pivots(a)
    if feature is None:
        assert diag == (1, 0, 0)
    else:
        assert ops[0] == feature
    _assert_matches_reference(a)
    if feature == ("add", 1, 0, 1, 2):
        s, _ = lagrange_diagonalize(a)
        assert s[1] == (2, (1, 2, 0))


def test_lagrange_fold_then_swap():
    # The diagonal is zero and the first nonzero pair is (1, 2), 0-based, so
    # the fold e_1 += e_2 makes the pivot in place 1, which a swap moves to 0.
    a = SymmetricMatrix([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    _, ops = _congruence_pivots(a)
    assert ops[:2] == (("add", 1, 2, 1, 1), ("swap", 0, 1))
    _assert_matches_reference(a)
    s, d = lagrange_diagonalize(a)
    assert d == (2, Fraction(-1, 2), 0)
    st = [list(col) for col in zip(*rows_of(s))]
    assert _product(_product(st, a.rows), rows_of(s)) == [
        [2, 0, 0], [0, Fraction(-1, 2), 0], [0, 0, 0]]
    assert signature(a) == (1, 1, 1)
    assert classify(a).verdict is Verdict.DEGENERATE
    assert str(expand_skewchar(a)) == "-2*l1_2*l1_3"

@pytest.mark.parametrize("n", range(1, 9))
def test_transition_equality_reads_columns(monkeypatch, n):
    # The columns are canonical, so equal forms give equal columns, built
    # with no Fraction view of A, and two tuples of columns are equal
    # exactly when their matrices are.
    built = []
    for a in _reference_forms(n):
        b = SymmetricMatrix(a.rows)  # no shared _pivots
        with monkeypatch.context() as m:
            _rows_unread(m, SymmetricMatrix)
            s, _ = lagrange_diagonalize(a)
            t, _ = lagrange_diagonalize(b)
        assert s == t
        assert columns_of(rows_of(s)) == s
        built.append(s)
    for s in built:
        for t in built:
            assert (s == t) == (rows_of(s) == rows_of(t))


def test_lagrange_diagonalize_n30_is_fast():
    # S is unimodular by construction: no determinant of S is computed.
    a = scrambled_positive_definite(random.Random(3030), 30)
    start = time.perf_counter()
    s, d = lagrange_diagonalize(a)
    elapsed = time.perf_counter() - start
    assert det_rational(rows_of(s)) in (1, -1)
    assert all(x > 0 for x in d)
    assert elapsed < 0.5, f"lagrange_diagonalize at n=30 took {elapsed:.2f}s"


def test_signature_examples():
    assert signature(SymmetricMatrix.diagonal([1, 1, -1])) == Signature(2, 1, 0)
    assert signature(SymmetricMatrix.identity(5)) == Signature(5, 0, 0)
    assert signature(SymmetricMatrix([[0, 1], [1, 0]])) == Signature(1, 1, 0)
    assert signature(SymmetricMatrix.diagonal([0, 0, 0])) == Signature(0, 0, 3)


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
        assert (det_rational(congruence_sym(a, s).rows)
                == det_rational(rows_of(s)) ** 2 * det_rational(a.rows))


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
    with pytest.raises(ValueError, match="bound must be at least 1"):
        random_skew(3, 0, 0)
    with pytest.raises(ValueError, match="bound must be at least 1"):
        random_skew(3, 1, 0)


@pytest.mark.parametrize("n", [True, 3.0, "3"])
def test_random_skew_refuses_a_dimension_that_is_not_an_int(n):
    # random_skew(True, 3) printed the dimension line "True".
    with pytest.raises(TypeError, match="dimension must be an int"):
        random_skew(n, 3)


def test_random_skew_refuses_a_negative_seed():
    # Random(-5) draws the stream of Random(5).
    with pytest.raises(ValueError, match="seed must be at least 0"):
        random_skew(3, -5)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "5"])
def test_random_skew_refuses_a_seed_that_is_not_an_int(seed):
    with pytest.raises(TypeError, match="seed must be an int"):
        random_skew(2, seed)


def test_random_skew_draws_golden():
    # Pins the draw order: p before q, row-major over the strict upper triangle.
    assert random_skew(5, 12345, 10).to_text() == (
        "5\n1 2 3\n1 3 -1/6\n1 4 -4/5\n1 5 8/7\n2 3 -5/6\n"
        "2 4 -1\n2 5 -2/9\n3 4 10/3\n3 5 1\n4 5 -5/6\n")
    assert random_skew(4, 0, 1).to_text() == "4\n1 3 -1\n1 4 1\n3 4 1\n"


def randint_entries(n, rng, bound):
    """The reference draws: rng.randint, p before q, row-major, zero p dropped."""
    draws = [(i, j, rng.randint(-bound, bound), rng.randint(1, bound))
             for i in range(n) for j in range(i + 1, n)]
    return [d for d in draws if d[2]]


@pytest.mark.parametrize("bound", [1, 2, 3, 10, 1000, 2**40])
def test_random_entries_match_randint(bound):
    # _random_entries draws from getrandbits by randint's own rejection rule;
    # this keeps the two equal on every interpreter the tests run on.  Three
    # matrices in turn from one stream match randint calls in turn on one rng.
    for n in (1, 2, 5, 9):
        for seed in range(300):
            bits, rng = random.Random(seed).getrandbits, random.Random(seed)
            for _ in range(3):
                assert _random_entries(n, bits, bound) == randint_entries(n, rng, bound)


def oracle_det_minus_skew(rows, upper):
    """det(R - L) by cofactor expansion, L given as (i, j, p, q) entries."""
    m = [[Fraction(x) for x in row] for row in rows]
    for i, j, p, q in upper:
        m[i][j] -= Fraction(p, q)
        m[j][i] += Fraction(p, q)
    return cofactor_det(m)


_H = Fraction(1, 2)
_SPLIT_KERNEL_CASES = {
    # Every row has its own denominator lcm: 6, 21, 63 and 7.
    "row_denominators": ([[_H, Fraction(1, 3), 0, 1], [Fraction(1, 3), Fraction(5, 7), 1, 0],
                          [0, 1, Fraction(4, 9), Fraction(2, 7)], [1, 0, Fraction(2, 7), 3]],
                         [(0, 1, 3, 4), (1, 3, -5, 6), (2, 3, 1, 9)]),
    # Row 2 (0-based) has no entry of L: its cached row is used as it is.
    "row_without_l": ([[1, _H, 2], [_H, 3, Fraction(1, 5)], [2, Fraction(1, 5), Fraction(3, 4)]],
                      [(0, 1, 7, 3)]),
    # A zero leading entry of R - L: elimination must swap rows.
    "zero_leading_entry": ([[0, 1, 2], [1, 0, 3], [2, 3, 1]], [(1, 2, 1, 2)]),
    # Denominators of L up to 1000, none dividing the rows' own.
    "large_q": ([[Fraction(1, 3), 1, 0], [1, 2, Fraction(1, 6)], [0, Fraction(1, 6), 5]],
                [(0, 1, -999, 1000), (0, 2, 13, 997), (1, 2, 500, 999)]),
    "no_l": ([[_H, 1], [1, Fraction(1, 3)]], []),
    # L = () beside rows with their own denominators 2, 15 and 7.
    "empty_l": ([[_H, 1, 0], [1, Fraction(2, 3), Fraction(1, 5)],
                 [0, Fraction(1, 5), Fraction(3, 7)]], ()),
    # Row 2 of L is all zero; rows 0, 1 and 3 carry denominators 2, 3 and 5.
    "l_row_zero": ([[1, 0, 2, 0], [0, _H, 1, 1], [2, 1, 3, 0], [0, 1, 0, Fraction(1, 3)]],
                   [(0, 1, 1, 2), (0, 3, -2, 3), (1, 3, 4, 5)]),
    # A denominator past 64 bits: its row scale is wider than a machine word.
    "q_past_64_bits": ([[2, _H, 0], [_H, 1, 1], [0, 1, Fraction(1, 3)]],
                       [(0, 1, 3, 2**64 + 1), (1, 2, -1, 2)]),
    "singular": ([[1, 2], [2, 4]], []),
    # The kernel's pivoting branches.  R - L has the singular leading block
    # [[1/2, 0], [1, 0]]; row 2 has a nonzero one-step entry in column 1 and
    # is swapped in.
    "singular_block_repaired": ([[_H, _H, 0], [_H, 0, 1], [0, 1, 2]], [(0, 1, 1, 2)]),
    # Column 1 of R - L is twice column 0, so no row repairs the singular
    # leading block [[1, 2], [1, 2]]: the determinant is 0.
    "singular_block_unrepaired": ([[1, Fraction(3, 2), 1], [Fraction(3, 2), 2, 1], [1, 1, 3]],
                                  [(0, 1, -1, 2), (1, 2, 1, 1)]),
    # R - L is I_2 beside [[0, 2/3], [4/3, 0]]: the pivot block of rows and
    # columns 0 to 2 is singular, and row 3 is swapped in.
    "zero_pivot_second_pass": ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                               [(2, 3, 1, 3)]),
}


def _split(m):
    """(R, L) with R - L = m for a square int matrix m, L as (i, j, p, q) entries.

    R is the symmetric part of m and l_ij = (m_ji - m_ij) / 2.  The kernel
    reads m with some rows doubled, which leaves every minor's sign, so m's
    own zero minors fix the pivoting branches it takes.
    """
    n = len(m)
    rows = [[Fraction(m[i][j] + m[j][i], 2) for j in range(n)] for i in range(n)]
    return rows, [(i, j, m[j][i] - m[i][j], 2)
                  for i in range(n) for j in range(i + 1, n) if m[j][i] != m[i][j]]


# Pivoting in the second pass, whose pivot block is rows and columns 3 to 5.
# Each leading minor of m up to 3 x 3 is nonzero, so the first pass swaps
# nothing, and the comment names the first leading minor that vanishes.
_SPLIT_KERNEL_CASES.update({
    # 4 x 4: row 3 is row 0 plus row 1 in columns 0 to 3, so b_33 = 0, and
    # row 4 is swapped in.
    "zero_pivot_later_pass": _split([
        [2, 1, 0, 1, 0, 1, 0], [1, 3, 1, 0, 1, 0, 0], [0, 1, 2, 1, 0, 0, 1],
        [3, 4, 1, 1, 2, 0, 1], [1, 0, 1, 2, 3, 1, 0], [0, 1, 0, 1, 1, 2, 1],
        [1, 0, 0, 0, 1, 1, 3]]),
    # 5 x 5: row 4 is row 0 plus row 2 in columns 0 to 4, so the leading
    # 2 x 2 minor of the pivot block is 0, and row 5 repairs it; the pivot
    # block then needs a swap of its own.
    "singular_block_later_pass": _split([
        [2, 1, 0, 1, 0, 1, 0, 1], [1, 3, 1, 0, 1, 0, 0, 0], [0, 1, 2, 1, 0, 0, 1, 0],
        [1, 0, 1, 3, 1, 0, 0, 1], [2, 2, 2, 2, 0, 1, 1, 0], [1, 0, 1, 2, 3, 1, 0, 2],
        [0, 1, 0, 1, 1, 2, 1, 0], [1, 0, 0, 0, 1, 1, 3, 1]]),
    # 6 x 6: row 5 is row 1 plus row 3 in columns 0 to 5, so the pivot block
    # is singular, and row 6, the last, repairs it.
    "singular_pivot_block_repaired": _split([
        [2, 1, 0, 1, 0, 1, 0], [1, 3, 1, 0, 1, 0, 0], [0, 1, 2, 1, 0, 0, 1],
        [1, 0, 1, 3, 1, 0, 0], [1, 0, 1, 2, 3, 1, 0], [2, 3, 2, 3, 2, 0, 1],
        [1, 0, 0, 0, 1, 1, 3]]),
    # 6 x 6: column 5 is column 0 plus column 3, so no row repairs the
    # singular pivot block and the determinant is 0.
    "singular_pivot_block_unrepaired": _split([
        [2, 1, 0, 1, 0, 3, 0, 1], [1, 3, 1, 0, 1, 1, 0, 0], [0, 1, 2, 1, 0, 1, 1, 0],
        [1, 0, 1, 3, 1, 4, 0, 1], [1, 0, 1, 2, 3, 3, 1, 0], [0, 1, 0, 1, 1, 1, 2, 1],
        [1, 0, 0, 0, 1, 1, 1, 3], [2, 1, 1, 0, 0, 2, 1, 1]]),
})


def _sized_case(n):
    """A seeded rational R and L of dimension n; no zero pivot for these seeds."""
    rng = random.Random(n)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    upper = [(i, j, rng.randint(-9, 9) or 1, rng.randint(1, 6))
             for i in range(n) for j in range(i + 1, n)]
    return rows, upper


# After n // 3 passes, n = 3p ends on the det P / d^2 of its last pass,
# n = 3p + 1 on the one entry left and n = 3p + 2 on the 2 x 2 minor left
# over d; n = 1 and 2 take no pass at all, n = 10, 11 and 12 take three
# passes before their ending.
_SPLIT_KERNEL_CASES.update({f"n{n}": _sized_case(n) for n in range(1, 13)})


@pytest.mark.parametrize("case", sorted(_SPLIT_KERNEL_CASES))
def test_split_kernel_matches_cofactor_oracle(case):
    rows, upper = _SPLIT_KERNEL_CASES[case]
    int_rows = SymmetricMatrix(rows).int_rows
    expected = oracle_det_minus_skew(rows, upper)
    assert _scaled_det(int_rows, upper) == expected
    # The stored rows are left as they were, so a second call agrees.
    assert int_rows == SymmetricMatrix(rows).int_rows
    assert _scaled_det(int_rows, upper) == expected


def _fold_reference(rows, upper):
    """diag(c) (R - L) as int rows and c, c_i the lcm of R's row i and L's row i denominators."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    dens = [[x.denominator for x in row] for row in m]
    for i, j, p, q in upper:
        m[i][j] -= Fraction(p, q)
        m[j][i] += Fraction(p, q)
        dens[i].append(q)
        dens[j].append(q)
    scales = [math.lcm(*row) for row in dens]
    folded = [[m[i][j] * scales[i] for j in range(n)] for i in range(n)]
    assert all(x.denominator == 1 for row in folded for x in row)
    return [[int(x) for x in row] for row in folded], scales


def test_kernel_matrix_matches_per_row_lcm_reference():
    # Seeded (R, L) pairs: the small forms, the kernel cases, and probe draws,
    # whose p/q are not reduced, so a q may share a factor with its p.
    rng = random.Random(2121)
    pairs = [_small_form(rng) for _ in range(300)] + list(_SPLIT_KERNEL_CASES.values())
    for n in range(1, 9):
        rows = random_symmetric(rng, n, 3).rows
        for bound in (1, 10, 2**40):
            bits = random.Random(rng.randint(0, 10**6)).getrandbits
            pairs.append((rows, _random_entries(n, bits, bound)))
    for rows, upper in pairs:
        int_rows = SymmetricMatrix(rows).int_rows
        m, scales = _kernel_matrix(int_rows, upper)
        assert (m, scales) == _fold_reference(rows, upper), (rows, upper)
        assert all(c > 0 for c in scales)


def _small_form(rng):
    """A rational R and L of dimension 1 to 5, often with zero blocks or repeats.

    Entries are drawn from few values, so leading blocks are often singular
    and rows of R - L often repeat: the kernel's swap and zero branches run.
    """
    n = rng.randint(1, 5)
    values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2, 3)]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.choice(values)
    upper = [(i, j, rng.choice((-1, 1, 2)), rng.choice((1, 2, 3)))
             for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    shape = rng.randrange(4)
    if shape == 1 and n > 1:
        # A zero leading block of R and L.
        k = rng.randint(1, n - 1)
        for i in range(k):
            for j in range(k):
                rows[i][j] = Fraction(0)
        upper = [e for e in upper if e[1] >= k]
    elif shape == 2 and n > 1:
        # Row and column j of R repeat row and column i; L keeps none of
        # either, so R - L has two equal rows.
        i, j = rng.sample(range(n), 2)
        for k in range(n):
            rows[j][k] = rows[k][j] = rows[i][k]
        rows[j][j] = rows[i][j] = rows[j][i] = rows[i][i]
        upper = [e for e in upper if not {e[0], e[1]} & {i, j}]
    elif shape == 3:
        upper = []
    return rows, upper


def test_split_kernel_matches_cofactor_oracle_on_small_forms():
    rng = random.Random(2018)
    zeros = 0
    for _ in range(2500):
        rows, upper = _small_form(rng)
        expected = oracle_det_minus_skew(rows, upper)
        assert _scaled_det(SymmetricMatrix(rows).int_rows, upper) == expected, (rows, upper)
        zeros += expected == 0
    # Singular cases are common, so the kernel's zero exits were exercised.
    assert zeros > 250


@pytest.mark.parametrize("rows", [[], [[1, 2]], [[1, 2], [3]], [[1], [2]]])
def test_det_rational_rejects_empty_and_non_square(rows):
    with pytest.raises(ValueError, match="square and nonempty"):
        det_rational(rows)


def test_det_rational_known_values():
    assert det_rational([[Fraction(1, 2), 1], [1, 4]]) == 1
    assert det_rational([[0, 1], [1, 0]]) == -1
    assert det_rational([[1]]) == 1
    assert det_rational([[-7]]) == -7
    assert det_rational([[2, 3], [4, 5]]) == -2
    assert det_rational([[2, Fraction(1, 3)], [Fraction(1, 3), 5]]) == Fraction(89, 9)


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
        pytest.param("1_0\n" + ("0 " * 10 + "\n") * 10, id="n=1_0"),  # digits only
        "+2\n1 0\n0 1\n",
        "-2\n1 0\n0 1\n",
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
        "3\n1 +2 5\n",  # i and j must be digits only
        "12\n1_0 11 5\n",
        "1_0\n1 2 3\n",
    ],
)
def test_skew_parse_errors(text):
    with pytest.raises(MatrixParseError):
        SkewMatrix.from_text(text)


@pytest.mark.parametrize("reader, text, message", [
    (SymmetricMatrix, "2\n1 2 3\n", "expected 2 rows, found 1"),
    (SymmetricMatrix, "2\n1 2 3\n3 4\n", "expected 2 entries per row, got 3"),
    (SkewMatrix, "12\n1 13 5\n", "indices must satisfy 1 <= i < j <= 12: '1 13 5'"),
])
def test_short_dimension_is_echoed_whole(reader, text, message):
    with pytest.raises(MatrixParseError) as exc:
        reader.from_text(text)
    assert str(exc.value) == message


# -- grammar goldens: each pinned to the behaviour of the reader before the
# memoized token parser replaced Fraction(str) ------------------------------


@pytest.mark.parametrize("token, value", [
    ("+3", Fraction(3)),
    ("-0", Fraction(0)),
    ("02/4", Fraction(1, 2)),
    ("-6/4", Fraction(-3, 2)),
    ("007", Fraction(7)),
])
def test_accepted_rational_literals(token, value):
    assert SymmetricMatrix.from_text(f"1\n{token}\n").rows == ((value,),)
    assert skew_rows(SkewMatrix.from_text(f"2\n1 2 {token}\n"))[0][1] == value


@pytest.mark.parametrize("token", ["2/0", "1/01", "0.5", "1e3", "1_0", "--1", "1/-2",
                                   "1/", "/2", "+", "0x1"])
def test_rejected_rational_literals(token):
    with pytest.raises(MatrixParseError, match="bad rational literal"):
        SymmetricMatrix.from_text(f"1\n{token}\n")
    with pytest.raises(MatrixParseError, match="bad rational literal"):
        SkewMatrix.from_text(f"2\n1 2 {token}\n")



# Unicode digits and separators that \d, str.split() and splitlines() accept:
# the grammar is ASCII, so each is refused wherever it stands.
_NON_ASCII = {"arabic_indic_3": "\u0663", "devanagari_5": "\u096b",
              "fullwidth_5": "\uff15", "nbsp": "\u00a0", "line_sep": "\u2028"}


@pytest.mark.parametrize("name", _NON_ASCII)
@pytest.mark.parametrize("reader, text, line", [
    (SymmetricMatrix, "2{}\n1 0\n0 1\n", 1),
    (SymmetricMatrix, "2\n1{}0\n0 1\n", 2),
    (SymmetricMatrix, "2\n1 0\n0 1/1{}\n", 3),
    (SkewMatrix, "{}3\n1 2 1\n", 1),
    (SkewMatrix, "3\n1 2{} 1\n", 2),
    (SkewMatrix, "3\n1 2 1/1{}\n", 2),
], ids=["sym_dimension", "sym_separator", "sym_value", "skew_dimension", "skew_index",
        "skew_value"])
def test_non_ascii_text_is_refused(name, reader, text, line):
    ch = _NON_ASCII[name]
    message = f"^non-ASCII character U\\+{ord(ch):04X} on line {line}$"
    with pytest.raises(MatrixParseError, match=message):
        reader.from_text(text.format(ch))


def test_ascii_whitespace_and_leading_zeros_still_parse():
    assert SymmetricMatrix.from_text("\t2\r\n1  0\n\n0\t01/12 \n") == \
        SymmetricMatrix.diagonal([1, Fraction(1, 12)])
    assert SkewMatrix.from_text("03\n 01 003 -2/4 \n").upper == {Var(1, 3): Fraction(-1, 2)}


_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_LIMIT, reason="interpreter has no int string-length limit")
def test_digit_string_past_the_int_limit_is_a_parse_error():
    huge = "7" * (_INT_LIMIT + 1)
    with pytest.raises(MatrixParseError, match="^bad dimension line "):
        SymmetricMatrix.from_text(f"{huge}\n1\n")
    with pytest.raises(MatrixParseError, match="^bad indices in "):
        SkewMatrix.from_text(f"3\n1 {huge} 5\n")


@pytest.mark.skipif(not _INT_LIMIT, reason="interpreter has no int string-length limit")
def test_rational_past_the_int_limit_is_a_parse_error():
    huge = "7" * (_INT_LIMIT + 1)
    shown = f"'{'7' * 60}'... ({_INT_LIMIT + 1} characters)"
    for text in (f"1\n{huge}\n", f"1\n-{huge}/3\n", f"1\n1/{huge}\n"):
        with pytest.raises(MatrixParseError, match="^bad rational literal '"):
            SymmetricMatrix.from_text(text)
    with pytest.raises(MatrixParseError) as exc:
        SymmetricMatrix.from_text(f"1\n{huge}\n")
    assert str(exc.value) == f"bad rational literal {shown}"
    with pytest.raises(MatrixParseError) as exc:
        SkewMatrix.from_text(f"2\n1 2 {huge}\n")
    assert str(exc.value) == f"bad rational literal {shown}"


def test_mirror_spelled_differently_is_symmetric():
    a = SymmetricMatrix.from_text("2\n1 1/2\n2/4 1\n")
    assert a == SymmetricMatrix([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
    assert a.to_text() == "2\n1 1/2\n1/2 1\n"


@pytest.mark.parametrize("rows, where", [
    ([[1, 2, 3], [9, 1, 4], [3, 5, 1]], "(1, 2)"),
    ([[1, 2, 3], [2, 1, 4], [3, 5, 1]], "(2, 3)"),
    ([[1, 2, 3], [2, 1, 4], [7, 5, 1]], "(1, 3)"),
    ([[1, 2, 0], [2, 1, 4], [7, 5, 1]], "(1, 3)"),
])
def test_asymmetry_names_first_pair_in_row_major_order(rows, where):
    message = f"not symmetric at {where}"
    with pytest.raises(ValueError) as exc:
        SymmetricMatrix(rows)
    assert str(exc.value) == message
    text = f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
    with pytest.raises(MatrixParseError) as exc:
        SymmetricMatrix.from_text(text)
    assert str(exc.value) == message


def test_skew_zero_value_is_dropped():
    assert SkewMatrix.from_text("2\n1 2 0\n") == SkewMatrix.zero(2)
    assert SkewMatrix.from_text("3\n1 2 -0\n2 3 0/5\n").upper == {}


def test_skew_duplicate_of_zero_entry_is_refused():
    # A zero value is dropped from the store, but still counts as given.
    for text in ("2\n1 2 0\n1 2 0\n", "2\n1 2 0\n1 2 5\n", "2\n1 2 5\n1 2 0\n"):
        with pytest.raises(MatrixParseError, match="^duplicate entry for l1_2$"):
            SkewMatrix.from_text(text)


_REPEATED = [Fraction(0), Fraction(1, 2), Fraction(-3), Fraction(-5, 3)]


def _spell(x: Fraction, scale: int, plus: bool, zeros: int) -> str:
    """One of the many spellings of x the grammar accepts."""
    p, q = x.numerator * scale, x.denominator * scale
    sign = "-" if p < 0 else ("+" if plus else "")
    body = "0" * zeros + str(abs(p))
    return f"{sign}{body}/{q}" if q != 1 else sign + body


_spellings = st.tuples(st.integers(1, 3), st.booleans(), st.integers(0, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from(_REPEATED), min_size=n * n, max_size=n * n),
    st.lists(_spellings, min_size=n * n, max_size=n * n))))
def test_text_round_trip_with_repeated_entries(case):
    n, values, spelled = case
    rows = [[values[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    a = SymmetricMatrix(rows)
    assert SymmetricMatrix.from_text(a.to_text()) == a
    # each cell spelled its own way: mirrored entries still agree by value
    cells = iter(spelled)
    text = f"{n}\n" + "".join(
        " ".join(_spell(x, *next(cells)) for x in row) + "\n" for row in rows)
    assert SymmetricMatrix.from_text(text) == a
    l = SkewMatrix(n, {Var(i + 1, j + 1): values[i * n + j]
                       for i in range(n) for j in range(i + 1, n)})
    assert SkewMatrix.from_text(l.to_text()) == l


_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(_rationals, min_size=n * n, max_size=n * n),
    st.lists(_spellings, min_size=2 * n * n, max_size=2 * n * n),
    st.permutations(range(n * (n - 1) // 2)),
    st.integers(0, 10 ** 6), st.integers(1, 12))))
def test_kernel_form_is_canonical(case):
    # Text with non-reduced spellings reads back to the very state the
    # constructor stores, so ==, hash and every view agree.
    n, values, spelled, order, seed, bound = case
    rows = [[values[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    cells = iter(spelled)
    text = f"{n}\n" + "".join(
        " ".join(_spell(x, *next(cells)) for x in row) + "\n" for row in rows)
    a, read = SymmetricMatrix(rows), SymmetricMatrix.from_text(text)
    assert read == a and hash(read) == hash(a)
    assert read.int_rows == a.int_rows
    assert read.rows == a.rows == tuple(map(tuple, rows))
    assert _scaled_det(read.int_rows, ()) == det_rational(rows)
    assert signature(read) == signature(a)

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    upper = {Var(i + 1, j + 1): values[i * n + j] for i, j in pairs}
    lines = [f"{i + 1} {j + 1} {_spell(values[i * n + j], *next(cells))}\n"
             for i, j in (pairs[k] for k in order)]
    l, read = SkewMatrix(n, upper), SkewMatrix.from_text(f"{n}\n" + "".join(lines))
    assert read == l and hash(read) == hash(l)
    assert read.entries == l.entries
    assert read.upper == l.upper == {v: x for v, x in upper.items() if x}

    drawn = random_skew(n, seed, bound)
    built = SkewMatrix(n, {Var(i + 1, j + 1): Fraction(p, q)
                           for i, j, p, q
                           in _random_entries(n, random.Random(seed).getrandbits, bound)})
    assert drawn == built and hash(drawn) == hash(built)
    assert drawn.entries == built.entries and drawn.upper == built.upper
    assert SkewMatrix.from_text(drawn.to_text()) == drawn
