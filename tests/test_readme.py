"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_the_comment_under_each_print():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines = code.splitlines()
    under = [after for line, after in zip(lines, lines[1:]) if line.startswith("print(")]
    assert under and all(after.startswith("# ") for after in under)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [after[2:] for after in under]
