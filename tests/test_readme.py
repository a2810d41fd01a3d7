"""The README's library tour runs as written and prints the values it shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_prints_its_commented_values():
    code = _tour()
    # Each print(...) line with a trailing comment prints that comment's text
    # as one line; the certificate printed last follows them.
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert len(expected) == 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[:len(expected)] == expected
    assert lines[len(expected):len(expected) + 2] == ["n: 3", "scale: 1"]
