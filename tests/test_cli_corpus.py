r"""Byte identity of the command line over a fixed corpus of calls.

Each call runs cli.main in a temporary directory (file names in messages are
relative) and is reduced to the sha256 of its exit code, stdout and stderr.
The corpus: expand and certify at n = 1...5 with non-positive and --max-dim
refusals; eval at n = 1...8 and 24; classify and witness on planted,
zero-diagonal, anisotropic (n = 2, 3, 4), degenerate and definite forms and a
scrambled hard n = 5 form; probe at bounds 1, 10 and 1000; malformed files;
then, from a stream of their own, eval at n = 9...16 and 25...30 and probe
at n = 8...16, so every ending of the determinant kernel is pinned; and
from a third stream expand and certify at --max-dim 0, with classify and
witness on two binary forms that need no factoring.
The digests in cli_corpus.json pin every output byte, so a change meant to
keep the output keeps this test passing unchanged.  After a change meant to
alter the output, regenerate them from the tests directory:

    PYTHONPATH=../src python -c "import json, pathlib, tempfile, test_cli_corpus as t
    with tempfile.TemporaryDirectory() as d:
        digests = t.corpus_digests(pathlib.Path(d))
    t.DIGESTS.write_text(json.dumps(digests, indent=1) + '\n')"
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from pathlib import Path

from generators import (
    random_indefinite,
    random_positive_definite,
    random_singular,
    random_skew_assignment,
    random_symmetric,
    random_zero_diagonal,
    scrambled_positive_definite,
    sparse_skew,
)
from oracles import negated_form
from skewchar.cli import main

DIGESTS = Path(__file__).with_name("cli_corpus.json")

_ANISOTROPIC = [
    "2\n1 1\n1 -1\n",
    "2\n1 0\n0 -2\n",
    "3\n1 1 0\n1 2 1\n0 1 -2\n",
    "3\n-2 1 3\n1 1 0\n3 0 1\n",
    "4\n1 0 1 0\n0 1 0 1\n1 0 -2 0\n0 1 0 -2\n",
    "4\n1 0 0 0\n0 1 0 0\n0 0 -3 0\n0 0 0 -3\n",
]
_BINARY_UNFACTORED = ["2\n1 0\n0 -100000007\n", "2\n1 0\n0 -200000033\n"]
_HARD_SCRAMBLED_N5 = "5\n2 0 2 0 2\n0 3 0 0 0\n2 0 3 0 3\n0 0 0 -11 0\n2 0 3 0 8\n"
# Spellings the reader accepts: signs, unreduced fractions, padding, blank lines.
_SPELLED = "\n 3 \n+2 4/2 -0\n\n2 1/1 0/7\n0 0 -6/4\n"

_MALFORMED = [
    "",
    "x\n1\n",
    "0\n",
    "2\n1 0\n",
    "2\n1 0 0\n0 1\n",
    "2\n1 a\na 1\n",
    "2\n1 2\n3 4\n",
    "2\n1 0\n0 ١\n",
    "2\n1/0 0\n0 1\n",
    "2\n1/01 0\n0 1\n",
]
_MALFORMED_SKEW = ["3\n1 2 1\n1 2 2\n", "3\n2 1 1\n", "3\n1 4 1\n", "3\n1 2 1/0\n"]


def _calls():
    """(name, argv, {file name: text}) per call, in a fixed order."""
    rng = random.Random(2323)
    for n in range(1, 6):
        for k in range(8 if n < 5 else 4):
            text = (random_zero_diagonal if k % 2 else random_symmetric)(rng, n).to_text()
            yield f"expand n={n} #{k}", ["expand", "a.txt"], {"a.txt": text}
    for n in range(1, 6):
        for k in range(4 if n < 5 else 2):
            make = random_positive_definite if k % 2 else scrambled_positive_definite
            text = make(rng, n).to_text()
            yield f"certify n={n} #{k}", ["certify", "a.txt"], {"a.txt": text}
    indefinite = {"a.txt": random_indefinite(rng, 3).to_text()}
    yield "certify indefinite", ["certify", "a.txt"], indefinite
    yield "expand indefinite", ["expand", "a.txt"], indefinite
    yield "expand spelled", ["expand", "a.txt"], {"a.txt": _SPELLED}
    yield "certify --max-dim", ["certify", "a.txt", "--max-dim", "2"], indefinite
    yield "expand --max-dim", ["expand", "a.txt", "--max-dim", "2"], indefinite

    for n in [*range(1, 9), 24]:
        for k in range(8 if n < 9 else 4):
            skew = (sparse_skew if k % 2 else random_skew_assignment)(rng, n)
            files = {"a.txt": random_symmetric(rng, n).to_text(), "l.txt": skew.to_text()}
            yield f"eval n={n} #{k}", ["eval", "a.txt", "l.txt"], files
    files = {"a.txt": _SPELLED, "l.txt": "3\n\n 1 3 -4/6 \n2 3 +5\n"}
    yield "eval spelled", ["eval", "a.txt", "l.txt"], files
    files = {"a.txt": random_symmetric(rng, 3).to_text(), "l.txt": "2\n1 2 1\n"}
    yield "eval mismatch", ["eval", "a.txt", "l.txt"], files

    forms = []
    for n in range(2, 5):
        for k in range(5):
            forms.append((f"planted n={n} #{k}", random_indefinite(rng, n).to_text()))
            forms.append((f"zero diagonal n={n} #{k}", random_zero_diagonal(rng, n).to_text()))
        for k in range(2):
            forms.append((f"degenerate n={n} #{k}", random_singular(rng, n).to_text()))
            forms.append((f"definite n={n} #{k}",
                          random_positive_definite(rng, n).to_text()))
            forms.append((f"negative definite n={n} #{k}",
                          negated_form(random_positive_definite(rng, n)).to_text()))
    forms += [(f"anisotropic #{k}", text) for k, text in enumerate(_ANISOTROPIC)]
    forms.append(("hard scrambled n=5", _HARD_SCRAMBLED_N5))
    forms.append(("spelled", _SPELLED))
    for name, text in forms:
        for command in ("classify", "witness"):
            yield f"{command} {name}", [command, "a.txt"], {"a.txt": text}

    for n in (1, 2, 3, 5, 8, 12):
        text = random_symmetric(rng, n).to_text()
        for bound in (1, 10, 1000):
            argv = ["probe", "a.txt", "--trials", "12", "--seed", str(n), "--bound", str(bound)]
            yield f"probe n={n} bound={bound}", argv, {"a.txt": text}
    yield "probe negative seed", ["probe", "a.txt", "--seed", "-1"], {"a.txt": text}
    yield "probe zero trials", ["probe", "a.txt", "--trials", "0"], {"a.txt": text}
    yield "probe zero bound", ["probe", "a.txt", "--bound", "0"], {"a.txt": text}

    for k, text in enumerate(_MALFORMED):
        for command in ("expand", "classify"):
            yield f"{command} malformed #{k}", [command, "bad.txt"], {"bad.txt": text}
    for k, text in enumerate(_MALFORMED_SKEW):
        files = {"a.txt": "3\n1 0 0\n0 1 0\n0 0 1\n", "bad.txt": text}
        yield f"eval malformed skew #{k}", ["eval", "a.txt", "bad.txt"], files
    yield "expand missing file", ["expand", "missing.txt"], {}

    # The determinant kernel ends on n mod 3 after n // 3 passes: these sizes
    # reach every ending after several passes.  A stream of their own keeps
    # the inputs of the calls above as they were.
    rng = random.Random(2424)
    for n in [*range(9, 17), *range(25, 31)]:
        for k in range(2):
            skew = (sparse_skew if k % 2 else random_skew_assignment)(rng, n)
            files = {"a.txt": random_symmetric(rng, n).to_text(), "l.txt": skew.to_text()}
            yield f"eval n={n} #{k}", ["eval", "a.txt", "l.txt"], files
    for n in range(8, 17):
        text = random_symmetric(rng, n).to_text()
        for bound in (1, 10, 1000):
            argv = ["probe", "a.txt", "--trials", "12", "--seed", str(n), "--bound", str(bound)]
            yield f"probe n={n} bound={bound} #1", argv, {"a.txt": text}

    # A cap below 1 is an input error; binary forms anisotropic at a prime
    # below the trial division bound, with a cofactor above it.
    rng = random.Random(2525)
    text = random_positive_definite(rng, 3).to_text()
    for command in ("expand", "certify"):
        yield f"{command} --max-dim 0", [command, "a.txt", "--max-dim", "0"], {"a.txt": text}
    for k, text in enumerate(_BINARY_UNFACTORED):
        for command in ("classify", "witness"):
            yield f"{command} binary #{k}", [command, "a.txt"], {"a.txt": text}


def _digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def corpus_digests(workdir: Path) -> dict[str, str]:
    """{call name: digest} over the corpus, each call run with workdir as cwd."""
    digests = {}
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv, files in _calls():
            for file_name, text in files.items():
                Path(file_name).write_text(text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert name not in digests, name
            digests[name] = _digest(code, out.getvalue(), err.getvalue())
    finally:
        os.chdir(here)
    return digests


def test_cli_corpus_is_byte_identical(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    digests = corpus_digests(tmp_path)
    assert list(digests) == list(expected)
    changed = [name for name in digests if digests[name] != expected[name]]
    assert not changed, f"output changed for {len(changed)} calls: {changed}"
