"""The README's Example block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs():
    text = README.read_text()
    example = text[text.index("## Example"):]
    code = re.search(r"```python\n(.*?)```", example, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
