"""Contract tests for the embedded selftest runner."""

import os
import subprocess
import sys

import pytest

import skewchar
from skewchar.selftest import CHECKS, run_selftest


def test_reports_failure_count_and_lines():
    def ok():
        pass

    def broken():
        raise AssertionError("injected")

    lines = []
    failures = run_selftest(
        checks=(("alpha", ok), ("beta", broken), ("gamma", ok)),
        out=lines.append,
    )
    assert failures == 1
    assert lines == [
        "check alpha: PASS",
        "check beta: FAIL",
        "check gamma: PASS",
        "selftest: 2 passed, 1 failed",
    ]


def test_check_names_are_unique():
    names = [name for name, _ in CHECKS]
    assert len(names) == len(set(names))


_BROKEN_EVAL = """
import sys
import skewchar
from skewchar import analyzer, engine, selftest
real = engine.eval_skewchar
for mod in (skewchar, analyzer, engine, selftest):
    mod.eval_skewchar = lambda a, l: real(a, l) + 1
print("optimize", sys.flags.optimize)
selftest.run_selftest()
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_broken_evaluator_fails_with_and_without_optimize(flags):
    # Checks that only asserted would vanish under python -O and pass.
    src = os.path.dirname(os.path.dirname(skewchar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, *flags, "-c", _BROKEN_EVAL], env=env,
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert lines[0] == f"optimize {len(flags)}"
    assert lines[-1] == "selftest: 3 passed, 7 failed"


# What `import skewchar.cli` adds to a fresh interpreter, among the modules a
# CLI start must not pay for: dataclasses (with inspect, ast, dis, ...) and the
# selftest, which only the selftest subcommand imports.
_CLI_IMPORTS = """
import sys
before = set(sys.modules)
import skewchar.cli
print(sorted({"dataclasses", "skewchar.selftest"} & (set(sys.modules) - before)))
"""


def test_cli_start_imports_neither_dataclasses_nor_selftest():
    src = os.path.dirname(os.path.dirname(skewchar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _CLI_IMPORTS], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
    out = subprocess.run([sys.executable, "-m", "skewchar", "selftest"], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "selftest: 10 passed, 0 failed"
