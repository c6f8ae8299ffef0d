"""The README's Example block runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs():
    text = README.read_text()
    example = text[text.index("## Example"):]
    code = re.search(r"```python\n(.*?)```", example, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 2 and all(line.strip() for line in lines)
