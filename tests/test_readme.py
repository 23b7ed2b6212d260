"""The README's library quick start runs as written, and prints what its
comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_and_prints_its_comments():
    code = quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md quick start", "exec"), {})
    # each print(...) line's comment starts with the value it prints, or a
    # prefix of it followed by "...", after an optional "name = "
    comments = [line.split("#", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    expected = [c.split(" = ")[-1].split()[0].rstrip(".") for c in comments]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 4
    for got, want in zip(printed, expected):
        assert got.startswith(want), (got, want)
