"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
import rational  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

CLI = run.load_program(ROOT)


def _case(name, command, rows, signature, isotropic=True, upper=None, args=()):
    a = tuple(tuple(Fraction(x) for x in row) for row in rows)
    return gen.Case(name, "a", command, a, signature, isotropic, "test",
                    upper or {}, args)


DIAG3 = [[1, 0, 0], [0, 2, 0], [0, 0, -3]]       # x = (1, 1, 1) is isotropic
PLANTED = [[2, 1, 0], [1, 3, 1], [0, 1, -4]]
PD3 = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
CASES = {
    "expand": _case("expand", "expand", PLANTED, (2, 1, 0)),
    "certify": _case("certify", "certify", PD3, (3, 0, 0), False),
    "classify": _case("classify", "classify", PD3, (3, 0, 0), False),
    "degenerate": _case("degenerate", "classify", [[1, 1, 0], [1, 1, 0], [0, 0, -2]],
                        (1, 1, 1)),
    "witness": _case("witness", "witness", DIAG3, (2, 1, 0)),
    "aniso": _case("aniso", "witness", [[1, 0], [0, -2]], (1, 1, 0), False),
    "eval": _case("eval", "eval", PLANTED, (), False,
                  upper={(1, 2): Fraction(1, 2), (2, 3): Fraction(-3)}),
    "probe": _case("probe", "probe", [[-2, 1, 0], [1, -2, 1], [0, 1, -2]], (0, 3, 0),
                   False, args=("--trials", "5", "--seed", "7", "--bound", "10")),
}


def _run(case, tmp_path):
    (op,) = run.write_inputs([case], tmp_path)
    _, rc, out, err = run.call(CLI, op.argv)
    return rc, out, err


@pytest.mark.parametrize("name", sorted(CASES))
def test_checker_accepts_the_program_output(name, tmp_path):
    case = CASES[name]
    rc, out, err = _run(case, tmp_path)
    assert check.check(case, rc, out, err) is None


def _corrupt_expand(out):
    # Change the coefficient of the last term.
    head, sep, last = out.rstrip("\n").rpartition(" + ")
    return f"{head}{sep}7*{last}\n"


def _flip_plus_value(out):
    lines = out.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("witness lambda_plus"))
    lines[k] = lines[k].replace("P = ", "P = -")
    return "\n".join(lines) + "\n"


def _double_zero_entry(out):
    # Doubling, not negating: for a diagonal form det(A - L) is even in each l_ij.
    lines = out.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("witness lambda_zero")) + 2
    i, j, v = lines[k].split()
    lines[k] = f"{i} {j} {2 * Fraction(v)}"
    return "\n".join(lines) + "\n"


def _negate_weight(out):
    return out.replace("weight: ", "weight: -", 1)


@pytest.mark.parametrize("name, corrupt", [
    ("expand", _corrupt_expand),
    ("witness", _flip_plus_value),
    ("witness", _double_zero_entry),
    ("certify", _negate_weight),
    ("classify", lambda out: out.replace("PositiveDefinite", "NegativeDefinite")),
    ("classify", lambda out: out.replace("signature: 3 0 0", "signature: 2 1 0")),
    ("eval", lambda out: str(Fraction(out.strip()) + 1) + "\n"),
    ("probe", lambda out: out.replace("negatives: 5", "negatives: 4")),
])
def test_checker_flags_a_corrupted_output(name, corrupt, tmp_path):
    case = CASES[name]
    rc, out, err = _run(case, tmp_path)
    bad = corrupt(out)
    assert bad != out
    assert check.check(case, rc, bad, err) is not None


def test_refusal_is_correct_only_for_an_anisotropic_form(tmp_path):
    aniso = CASES["aniso"]
    rc, out, err = _run(aniso, tmp_path)
    assert rc == 1 and check.is_refusal(aniso, rc, out, err)
    assert check.check(aniso, rc, out, err) is None
    isotropic = _case("iso", "witness", [[1, 0], [0, -4]], (1, 1, 0))
    assert check.check(isotropic, rc, out, err) is not None
    assert check.check(aniso, 2, out, err) is not None


TINY_OPS = ["expand", "certify", "classify", "degenerate", "witness", "aniso", "eval"]


def _traced_counts(directory):
    directory.mkdir()
    ops = run.write_inputs([CASES[name] for name in TINY_OPS], directory)
    _, tracer = run.traced_pass(CLI, ops, run.Results())
    values = run.layer_metrics(tracer, ops)
    return {k: v for k, v in values.items() if not k.endswith("_s")}


def test_traced_counts_repeat_exactly(tmp_path):
    first = _traced_counts(tmp_path / "first")
    second = _traced_counts(tmp_path / "second")
    assert first == second
    assert first["polynomials.mul_calls"] > 0
    assert first["polynomials.divexact_calls"] > 0
    assert first["matrices.diagonalize_calls"] > 0
    assert first["analyzer.refusals"] == 1


def test_closed_loop_scales_latencies_to_the_nominal_speed(tmp_path, monkeypatch):
    # A machine at half the nominal speed: every reference takes twice NOMINAL_S.
    monkeypatch.setattr(run.pace, "reference_s", lambda: 2 * run.pace.NOMINAL_S)
    ops = run.write_inputs([CASES["classify"], CASES["witness"]], tmp_path)
    results = run.Results()
    run.closed_loop(CLI, ops, 0.05, results)
    assert results.samples and results.attempted == len(results.samples)
    for sample in results.samples:
        assert sample.scaled_s == pytest.approx(sample.raw_s / 2)


def test_wrappers_reach_every_namespace_and_are_removed():
    import skewchar.analyzer
    import skewchar.engine
    import skewchar.matrices
    from skewchar.polynomials import MultiPoly

    original = skewchar.matrices.lagrange_diagonalize
    original_mul = MultiPoly.__mul__
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = skewchar.matrices.lagrange_diagonalize
        assert wrapped is not original
        assert skewchar.analyzer.lagrange_diagonalize is wrapped
        assert skewchar.engine.lagrange_diagonalize is wrapped
        assert MultiPoly.__rmul__ is MultiPoly.__mul__ is not original_mul
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert skewchar.analyzer.lagrange_diagonalize is original
    assert MultiPoly.__mul__ is original_mul is MultiPoly.__rmul__


def test_generate_is_seeded_and_signatures_match_determinants():
    for workload in ("symbolic", "witness"):
        (cases,) = gen.generate(workload, 5, rounds=1)
        assert cases == gen.generate(workload, 5, rounds=1)[0]
        assert cases != gen.generate(workload, 6, rounds=1)[0]
        for case in cases:
            pos, neg, zero = case.signature
            d = rational.det(case.a)
            assert (d == 0) if zero else (d > 0) == (neg % 2 == 0)


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = [m for m, *_ in run.LAYER_METRICS]
    layer_names += ["analyzer.diagonalize_per_witness", "trace.ops_per_s",
                    "trace.overhead_x"]
    assert sorted(layer_names) == sorted(m["name"] for m in spec["per_layer"])
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "witness", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    report = json.loads(out.splitlines()[-1])
    assert sorted(report) == ["attempted", "correct", "failed", "metrics"]
    assert report["correct"] and report["failed"] == 0
    assert sorted(report["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "witness", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
