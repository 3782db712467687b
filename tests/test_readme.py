"""Runs the Python examples of README.md, so they keep to the API.

Each ```python block runs as one program. A `print(...)  # <value>` line
must print `<value>`; a comment that starts with `~` gives an approximate
value and is not compared."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=lambda code: code.splitlines()[0])
def test_readme_example_prints_its_comments(code):
    expected = [line.partition("  # ")[2] for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for line, comment in zip(printed, expected):
        if not comment.startswith("~"):
            assert line == comment
