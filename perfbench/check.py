"""Independent correctness check of captured CLI output.

Reference values come from the benchmark's own Fraction determinant
(rational.det) and from the outcome each input was built to have; nothing
here calls skewchar.  Polynomial output is parsed by a parser of its own and
compared with det(A - L) at seeded rational points.

check() returns None when the output is correct, otherwise a one-line
reason.  A refusal is correct only for an input known to be anisotropic.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from gen import Case
from rational import det_a_minus_l

POINTS = 3  # seeded evaluation points per polynomial check

_VAR = re.compile(r"l(\d+)_(\d+)(?:\^(\d+))?")
_NUM = re.compile(r"\d+(?:/\d+)?")

# Exit codes that mean "the operation does not apply" or "too large"; a
# refusal to produce a zero witness must not use them.
_NOT_A_REFUSAL = (0, 2, 3)


class Mismatch(Exception):
    """The output disagrees with the expected outcome."""


def parse_poly(text: str) -> dict[tuple, Fraction]:
    """Canonical polynomial text to {((i, j, e), ...): coefficient}."""
    s = text.strip()
    if s == "0":
        return {}
    tokens = re.split(r"\s+([+-])\s+", s)
    signed = [(-1, tokens[0][1:]) if tokens[0].startswith("-") else (1, tokens[0])]
    signed += [(1 if tokens[k] == "+" else -1, tokens[k + 1])
               for k in range(1, len(tokens), 2)]
    poly: dict[tuple, Fraction] = {}
    for sign, chunk in signed:
        coeff = Fraction(sign)
        mono = []
        for factor in chunk.split("*"):
            if m := _VAR.fullmatch(factor):
                mono.append((int(m[1]), int(m[2]), int(m[3] or 1)))
            elif _NUM.fullmatch(factor):
                coeff *= Fraction(factor)
            else:
                raise Mismatch(f"bad factor {factor!r}")
        key = tuple(sorted(mono))
        poly[key] = poly.get(key, Fraction(0)) + coeff
    return poly


def eval_poly(poly: dict[tuple, Fraction], upper: dict) -> Fraction:
    total = Fraction(0)
    for mono, coeff in poly.items():
        term = coeff
        for i, j, e in mono:
            term *= upper.get((i, j), Fraction(0)) ** e
        total += term
    return total


def points(case: Case) -> list[dict]:
    """Seeded skew points for polynomial checks, drawn from the case name."""
    rng = random.Random(f"points:{case.name}")
    n = case.n
    return [
        {(i, j): Fraction(rng.randint(-7, 7), rng.randint(1, 5))
         for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        for _ in range(POINTS)
    ]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _field(line: str, key: str) -> str:
    prefix = key + ":"
    _expect(line.startswith(prefix), f"expected {prefix!r}, got {line[:60]!r}")
    return line[len(prefix):].strip()


def _check_expand(case: Case, out: str) -> None:
    poly = parse_poly(out)
    for pt in points(case):
        _expect(eval_poly(poly, pt) == det_a_minus_l(case.a, pt),
                "expansion differs from det(A - L) at a seeded point")


def _check_certify(case: Case, out: str) -> None:
    lines = out.splitlines()
    _expect(len(lines) >= 3, "certificate has no terms")
    _expect(int(_field(lines[0], "n")) == case.n, "certificate dimension")
    scale = Fraction(_field(lines[1], "scale"))
    _expect(scale > 0, "certificate scale is not positive")
    terms = []
    for line in lines[2:]:
        weight_part, _, root_part = line.partition(" ; ")
        weight = Fraction(_field(weight_part, "weight"))
        _expect(weight > 0, f"certificate weight {weight} is not positive")
        terms.append((weight, parse_poly(_field(root_part, "sqroot"))))
    for pt in points(case):
        value = scale * sum(w * eval_poly(r, pt) ** 2 for w, r in terms)
        _expect(value == det_a_minus_l(case.a, pt),
                "certificate value differs from det(A - L) at a seeded point")


def _witness_sections(case: Case, lines: list[str]) -> dict[str, Fraction]:
    """Check each printed witness against det(A - L); return name -> value."""
    found = {}
    k = 0
    while k < len(lines):
        m = re.fullmatch(r"witness (\w+): P = (\S+)", lines[k])
        _expect(m is not None, f"unexpected line {lines[k][:60]!r}")
        name, printed = m[1], Fraction(m[2])
        _expect(int(lines[k + 1]) == case.n, "witness dimension")
        upper = {}
        k += 2
        while k < len(lines) and not lines[k].startswith("witness "):
            i, j, v = lines[k].split()
            upper[(int(i), int(j))] = Fraction(v)
            k += 1
        value = det_a_minus_l(case.a, upper)
        _expect(value == printed, f"{name}: printed P = {printed}, actual {value}")
        found[name] = value
    return found


def _predicted_sign(case: Case) -> str:
    if case.verdict == "PositiveDefinite":
        return "AlwaysPositive"
    if case.verdict == "NegativeDefinite":
        return "AlwaysPositive" if case.n % 2 == 0 else "AlwaysNegative"
    return "NotSignDefinite"


def _check_report(case: Case, out: str) -> None:
    """classify / witness report: verdict, signature, sign and witnesses."""
    lines = out.splitlines()
    _expect(len(lines) >= 3, "short report")
    _expect(_field(lines[0], "verdict") == case.verdict,
            f"verdict {lines[0]!r}, expected {case.verdict}")
    _expect(tuple(map(int, _field(lines[1], "signature").split())) == case.signature,
            f"signature {lines[1]!r}, expected {case.signature}")
    _expect(_field(lines[2], "predicted_sign") == _predicted_sign(case),
            f"predicted sign {lines[2]!r}")
    found = _witness_sections(case, lines[3:])
    if case.verdict == "Indefinite":
        _expect(set(found) == {"lambda_zero", "lambda_plus", "lambda_minus"},
                f"witness sections {sorted(found)}")
        _expect(found["lambda_plus"] > 0, "lambda_plus does not give P > 0")
        _expect(found["lambda_minus"] < 0, "lambda_minus does not give P < 0")
    elif case.verdict == "Degenerate":
        _expect(set(found) == {"lambda_zero"}, f"witness sections {sorted(found)}")
    else:
        _expect(not found, "definite form printed a witness")
    if "lambda_zero" in found:
        _expect(found["lambda_zero"] == 0, "lambda_zero does not give P = 0")


def _check_eval(case: Case, out: str) -> None:
    _expect(Fraction(out.strip()) == det_a_minus_l(case.a, case.upper),
            "eval value differs from det(A - L)")


def _check_probe(case: Case, out: str) -> None:
    lines = out.splitlines()
    _expect(len(lines) == 7, "probe report has 7 lines")
    opts = dict(zip(case.args[::2], case.args[1::2]))
    _expect(_field(lines[0], "command") == "probe", "probe header")
    for line, key in zip(lines[1:4], ("seed", "trials", "bound")):
        _expect(_field(line, key) == opts[f"--{key}"], f"probe {key}")
    trials = int(opts["--trials"])
    tally = {key: int(_field(line, key))
             for line, key in zip(lines[4:], ("positives", "negatives", "zeros"))}
    # A definite form fixes the sign of det(A - L) at every skew matrix.
    sign = "negatives" if _predicted_sign(case) == "AlwaysNegative" else "positives"
    expected = {"positives": 0, "negatives": 0, "zeros": 0, sign: trials}
    _expect(tally == expected, f"probe tally {tally}, expected {expected}")


_CHECKS = {
    "expand": _check_expand,
    "certify": _check_certify,
    "classify": _check_report,
    "witness": _check_report,
    "eval": _check_eval,
    "probe": _check_probe,
}


def is_refusal(case: Case, rc, out: str, err: str) -> bool:
    """A clean refusal to produce a zero witness (exhausted search or proof)."""
    return (case.command == "witness" and isinstance(rc, int)
            and rc not in _NOT_A_REFUSAL and not out and err.startswith("error:"))


def check(case: Case, rc, out: str, err: str) -> str | None:
    """None when (rc, out, err) is a correct result for case, else the reason."""
    if is_refusal(case, rc, out, err):
        return None if not case.isotropic else f"refused an isotropic form: {err.strip()}"
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:200]}"
    try:
        _CHECKS[case.command](case, out)
    except (Mismatch, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
