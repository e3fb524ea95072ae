"""README's Python example runs as written, so it cannot drift from the API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert blocks
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for code in blocks:
            exec(compile(code, str(README), "exec"), {})
    # each printed line ends in a passing model verdict
    lines = out.getvalue().splitlines()
    assert lines and all(line.endswith("True") for line in lines), lines
