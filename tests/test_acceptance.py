"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (rational equality or strict sign); the only tolerances
are the runtime ceilings, which are asserted with perf_counter.  Run with
`pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import contextlib
import random
import time

from generators import (
    random_indefinite,
    random_invertible,
    random_positive_definite,
    random_singular,
    random_skew_assignment,
    random_symmetric,
)
from oracles import (
    cofactor_det,
    covariance_check,
    golden_identity_poly,
    negated_form,
    negated_skew,
    replay_poly,
    skew_rows,
    symbolic_difference,
)
from skewchar import (
    MultiPoly,
    SkewMatrix,
    SymmetricMatrix,
    Var,
    Verdict,
    certify_positive,
    classify,
    det_rational,
    eval_skewchar,
    expand_skewchar,
    random_skew,
    witness_indefinite,
)
from skewchar.engine import _packed_pfaffians

# Expanded polynomials produced by criteria 1 and 2, reused by criterion 10.
_EXPANSIONS: list[MultiPoly] = []


@contextlib.contextmanager
def criterion(number: int, name: str, limit: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s >= {limit}s"
    print(f"criterion {number} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_golden_expansions():
    with criterion(1, "golden expansions", limit=1.0):
        for n in (2, 3, 4):
            p = expand_skewchar(SymmetricMatrix.identity(n))
            assert p == golden_identity_poly(n)
            _EXPANSIONS.append(p)


def test_criterion_2_oracle_equivalence():
    with criterion(2, "expansion vs cofactor oracle", limit=30.0):
        rng = random.Random(20_001)
        for k in range(50):
            n = 2 + k % 3
            a = random_symmetric(rng, n, bound=5)
            p = expand_skewchar(a)
            assert p == cofactor_det(symbolic_difference(a))
            _EXPANSIONS.append(p)


def test_criterion_3_positive_forms_stay_positive():
    with criterion(3, "positive forms give strictly positive values", limit=120.0):
        rng = random.Random(30_001)
        for n in range(2, 7):
            for _ in range(25):
                a = random_positive_definite(rng, n)
                base = rng.randint(0, 10**6)
                for k in range(200):
                    value = eval_skewchar(a, random_skew(n, base + k, 10))
                    assert value > 0


def test_criterion_4_covariance_law():
    with criterion(4, "basis-change covariance law"):
        rng = random.Random(40_001)
        for k in range(200):
            n = 2 + k % 4
            a = random_symmetric(rng, n)
            l = random_skew_assignment(rng, n)
            s = random_invertible(rng, n)
            lhs, rhs = covariance_check(a, l, s)
            assert lhs == rhs


def test_criterion_5_parity_law():
    with criterion(5, "parity law under global negation"):
        rng = random.Random(50_001)
        for k in range(200):
            n = 2 + k % 4
            a = random_symmetric(rng, n)
            l = random_skew_assignment(rng, n)
            assert (eval_skewchar(negated_form(a), negated_skew(l))
                    == (-1) ** n * eval_skewchar(a, l))


def test_criterion_6_witness_validity():
    with criterion(6, "indefinite witnesses validate exactly"):
        rng = random.Random(60_001)
        for k in range(50):
            n = 2 + k % 4
            a = random_indefinite(rng, n)
            w = witness_indefinite(a)
            assert eval_skewchar(a, w.lambda_zero) == 0
            assert eval_skewchar(a, w.lambda_plus) > 0
            assert eval_skewchar(a, w.lambda_minus) < 0


def test_criterion_7_degenerate_branch():
    with criterion(7, "singular forms classify as degenerate"):
        rng = random.Random(70_001)
        for k in range(20):
            n = 2 + k % 4
            a = random_singular(rng, n)
            report = classify(a)
            assert report.verdict is Verdict.DEGENERATE
            assert report.witness.lambda_zero == SkewMatrix.zero(n)
            assert eval_skewchar(a, SkewMatrix.zero(n)) == 0


def test_criterion_8_certificate_soundness():
    with criterion(8, "certificate soundness", limit=180.0):
        rng = random.Random(80_001)
        for k in range(25):
            n = 2 + k % 4
            a = random_positive_definite(rng, n)
            cert = certify_positive(a)
            assert all(weight > 0 for weight, _ in cert.terms)
            assert replay_poly(cert) == cofactor_det(symbolic_difference(a))
        # dimension 6: exact numeric agreement at 100 sampled points
        a6 = random_positive_definite(rng, 6)
        cert6 = certify_positive(a6)
        assert all(weight > 0 for weight, _ in cert6.terms)
        base = rng.randint(0, 10**6)
        for k in range(100):
            l = random_skew(6, base + k, 10)
            assert cert6.evaluate(l) == eval_skewchar(a6, l)


def test_criterion_9_pfaffian_identity():
    with criterion(9, "Pfaffian squares to the determinant"):
        # The kernel's root of the full index set at S = I is Pf(L) as a
        # polynomial; evaluated at L and squared, it is det L.
        pf = {}
        for n in (2, 4, 6, 8):
            [(_, _, root)], _, _ = _packed_pfaffians(
                [(1, [int(p == u) for p in range(n)]) for u in range(n)], [0] * n)
            pf[n] = MultiPoly._from_packed(n, root, 1)
        rng = random.Random(90_001)
        for k in range(100):
            n = (2, 4, 6, 8)[k % 4]
            l = random_skew(n, rng.randint(0, 10**6), 8)
            rows = skew_rows(l)
            at_l = {Var(i + 1, j + 1): rows[i][j] for i in range(n) for j in range(i + 1, n)}
            assert pf[n].evaluate(at_l) ** 2 == det_rational(rows)


def test_criterion_10_per_variable_degree_bound():
    with criterion(10, "degree at most two in each variable"):
        polys = list(_EXPANSIONS)
        if not polys:  # regenerate when criteria 1-2 were deselected
            polys = [expand_skewchar(SymmetricMatrix.identity(n)) for n in (2, 3, 4)]
            rng = random.Random(20_001)
            for k in range(50):
                polys.append(expand_skewchar(random_symmetric(rng, 2 + k % 3, bound=5)))
        assert len(polys) >= 53
        for p in polys:
            for mono, _ in p.terms():
                for _, exponent in mono:
                    assert exponent <= 2
