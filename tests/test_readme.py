"""README's Python example runs as written, and every Python identifier it
names exists in the package, so neither can drift from the API."""

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = ROOT / "src" / "qxform"

# backticked names README may use though the package's code never spells them
NOT_IN_SOURCE = {
    "Infinity": "a JSON token the config parser refuses; Python's json module reads it, the package never names it",
    "hypothesis": "a test dependency, named in the install notes",
    "pytest": "the test runner, named in the install notes",
}


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


def readme_identifiers():
    """The Python identifiers in README's backticked spans, fenced blocks left
    out: a dotted name such as ``qxform.operators``, or the callee of a call
    such as ``propagate(h, grid, stride)``."""
    prose = re.sub(r"^```.*?^```$", "", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    spans = (" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose))
    matches = (re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?", span) for span in spans)
    return sorted({m.group(1) for m in matches if m})


def source_names():
    """Every word the package's code spells: its module names, and in each
    module the names it defines, binds, loads, imports or reads as attributes
    and the words of its string literals.  Docstrings and comments do not
    count, so a name that survives only there does not resolve."""
    names = {path.stem for path in SRC.glob("*.py")} | {"qxform"}
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.update([*node.name.split("."), node.asname or node.name])
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                names.update(re.findall(r"\w+", node.value))
    return names


def resolves(identifier, names):
    """A ``qxform.``-rooted name must import or be an attribute of what does;
    any other name must have each dotted part spelled in the code."""
    parts = identifier.split(".")
    if parts[0] != "qxform":
        return all(part in names for part in parts)
    try:
        obj = importlib.import_module("qxform")
        for i, part in enumerate(parts[1:], start=2):
            try:
                obj = getattr(obj, part)
            except AttributeError:
                obj = importlib.import_module(".".join(parts[:i]))
    except ImportError:
        return False
    return True


def test_readme_identifiers_exist_in_the_source():
    identifiers = readme_identifiers()
    assert len(identifiers) > 50  # the extraction found README's names
    names = source_names()
    missing = [name for name in identifiers if name not in NOT_IN_SOURCE and not resolves(name, names)]
    assert not missing, f"README names identifiers the package does not define: {missing}"
    # an allowance that README no longer needs goes too
    assert set(NOT_IN_SOURCE) <= set(identifiers)
