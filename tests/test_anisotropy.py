"""Tests of the exact local anisotropy test of the zero search (n <= 4).

No planted pairs: the forms are drawn diagonal with small entries, or are
hard forms given as they are, and each answer is checked against a
brute-force search for an integer zero in a box.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from generators import random_unimodular
from skewchar import (
    SymmetricMatrix,
    classify,
    congruence_sym,
    eval_skewchar,
    witness_indefinite,
)
from skewchar.analyzer import _anisotropic_prime, _hilbert, _locally_isotropic, _small_primes
from skewchar.cli import main


def _primes_of(k: int) -> set[int]:
    k, out, p = abs(k), set(), 2
    while p * p <= k:
        while k % p == 0:
            out.add(p)
            k //= p
        p += 1
    return out | ({k} if k > 1 else set())


def _random_nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([-1, 1]) * rng.randint(1, bound)


def _box_zero(diag, box: int) -> bool:
    """Whether sum d_i x_i^2 = 0 has a nonzero integer solution, |x_i| <= box.

    Meet in the middle: the coordinates split into two halves, each half's
    values over its nonzero vectors go in a set, and a zero is a zero of
    one half or a value of one half that the other half negates.
    """
    half = len(diag) // 2

    def values(ds):
        return {sum(d * x * x for d, x in zip(ds, xs))
                for xs in itertools.product(range(box + 1), repeat=len(ds)) if any(xs)}

    left, right = values(diag[:half]), values(diag[half:])
    return 0 in left or 0 in right or any(-v in right for v in left)


def test_hilbert_symbol_properties():
    rng = random.Random(1201)
    for _ in range(400):
        a, b, c = (_random_nonzero(rng, 2000) for _ in range(3))
        places = sorted(_primes_of(2 * a * b))
        for p in places + [3, 5, 7]:
            assert _hilbert(a, b, p) == _hilbert(b, a, p) in (1, -1)
            assert _hilbert(a, -a, p) == 1
            assert _hilbert(a, b * c, p) == _hilbert(a, b, p) * _hilbert(a, c, p)
            assert _hilbert(a, b * c * c, p) == _hilbert(a, b, p)
            # (a, b)_p = 1 at every odd p dividing neither a nor b ...
            assert p in places or _hilbert(a, b, p) == 1
        # ... so the product formula runs over infinity and the places.
        at_infinity = -1 if a < 0 and b < 0 else 1
        assert at_infinity * math.prod(_hilbert(a, b, p) for p in places) == 1


def test_hilbert_symbol_known_values():
    assert _hilbert(-1, -1, 2) == -1
    assert _hilbert(2, 3, 2) == -1
    assert _hilbert(3, 3, 3) == -1
    assert _hilbert(2, 5, 5) == -1
    assert _hilbert(2, 7, 7) == 1
    assert _hilbert(-1, -1, 3) == 1


# A box large enough for every isotropic form with |d_i| <= 12 (checked on
# the seeded forms below): the local test and the box never disagree.
_BOXES = {2: 60, 3: 30, 4: 16}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_local_test_agrees_with_box_search(n):
    rng = random.Random(1300 + n)
    forms = 0
    anisotropic = 0
    while forms < 700:
        diag = [_random_nonzero(rng, 12) for _ in range(n)]
        if all(d > 0 for d in diag) or all(d < 0 for d in diag):
            continue
        forms += 1
        p = _anisotropic_prime([Fraction(d) for d in diag])
        assert (p is None) == _box_zero(diag, _BOXES[n]), (diag, p)
        if p is not None:
            anisotropic += 1
            assert not _locally_isotropic(diag, p)
    # Both answers occur often enough for the agreement to mean something
    # (600, 359 and 96 of the 700 forms are anisotropic at n = 2, 3, 4).
    assert 50 < anisotropic < forms - 50


def test_anisotropic_only_at_2():
    # x^2 + y^2 + z^2 = 7 w^2 fails mod 8 and nowhere else.
    diag = [1, 1, 1, -7]
    assert _anisotropic_prime([Fraction(d) for d in diag]) == 2
    assert all(_locally_isotropic(diag, p) for p in (3, 5, 7, 11, 13))
    w = witness_indefinite(SymmetricMatrix.diagonal(diag))
    assert w.lambda_zero is None and w.anisotropic_at == 2


def test_binary_form_least_prime_need_not_divide_the_entries():
    # 17 is a 2-adic square, and 17 = 2 mod 3 is not a square mod 3.
    assert _anisotropic_prime([Fraction(1), Fraction(-17)]) == 3


@pytest.mark.parametrize("p", [3, 7, 11])
def test_scrambled_sum_of_two_squares_forms_are_proved_anisotropic(p):
    # x^2 + y^2 - p (z^2 + w^2) with p = 3 mod 4 is anisotropic at 2 and at
    # p.  A unimodular S hides the diagonal from the first pair test.
    assert not _locally_isotropic([1, 1, -p, -p], p)
    rng = random.Random(1400 + p)
    for _ in range(5):
        a = congruence_sym(SymmetricMatrix.diagonal([1, 1, -p, -p]),
                           random_unimodular(rng, 4, shears=4))
        w = witness_indefinite(a)
        assert w.lambda_zero is None and w.anisotropic_at == 2
        assert classify(a).witness == w
        assert eval_skewchar(a, w.lambda_plus) == w.value_plus > 0
        assert eval_skewchar(a, w.lambda_minus) == w.value_minus < 0


def test_rational_denominators_keep_the_square_class():
    # 1/2 x^2 + 1/2 y^2 - 3/2 z^2 is 2 (x^2 + y^2 - 3 z^2) up to squares,
    # which fails mod 4.
    half = [Fraction(1, 2), Fraction(1, 2), Fraction(-3, 2)]
    assert _anisotropic_prime(half) == 2
    w = witness_indefinite(SymmetricMatrix.diagonal(half))
    assert w.lambda_zero is None and w.anisotropic_at == 2
    # 1/2 + 1/3 = 5/6: isotropic, with no pair of the diagonal giving a zero,
    # so the local test passes the form on and the search finds the zero.
    sixths = [Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6)]
    assert _anisotropic_prime(sixths) is None
    a = SymmetricMatrix.diagonal(sixths)
    assert eval_skewchar(a, witness_indefinite(a).lambda_zero) == 0


def test_unfactored_entry_skips_the_local_test():
    # 10007 and 10039 lie above the trial division bound and their product
    # above its square.  The form is isotropic at 2 and at every prime below
    # the bound, so the test does not decide, even though the form is
    # anisotropic at 10007 (= 3 mod 4).
    diag = [1, 1, -10007 * 10039]
    assert _anisotropic_prime([Fraction(d) for d in diag]) is None
    assert [p for p in (*_small_primes(), 10007, 10039)
            if not _locally_isotropic(diag, p)] == [10007, 10039]
    w = witness_indefinite(SymmetricMatrix.diagonal(diag))
    assert w.lambda_zero is None and w.anisotropic_at is None
    # 2 and the small primes are still tested: 10007 * 10009 = 7 mod 8 is
    # not a sum of two squares in Q_2.
    assert _anisotropic_prime([Fraction(d) for d in (1, 1, -10007 * 10009)]) == 2


def test_witness_of_anisotropic_n4_form_is_fast(tmp_path, capsys):
    # The enumeration before the local test took about 70 ms on such a form.
    a = congruence_sym(SymmetricMatrix.diagonal([2, 2, -14, -14]),
                       random_unimodular(random.Random(1500), 4, shears=4))
    path = tmp_path / "aniso.txt"
    path.write_text(a.to_text(), encoding="utf-8")
    times = []
    for _ in range(5):
        start = time.perf_counter()
        assert main(["witness", str(path)]) == 4
        times.append(time.perf_counter() - start)
    assert "anisotropic at p = 2" in capsys.readouterr().err
    assert min(times) < 0.02
