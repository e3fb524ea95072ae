"""The package's modules form strict layers: each imports only modules below
it in ``ORDER``, also from inside functions, so no import cycle can form."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qxform"
ORDER = ("operators", "schedules", "hamiltonians", "propagation", "transform", "experiments", "cli")


def imported_modules(path):
    """(line, module) for every import of a qxform module anywhere in ``path``;
    a name taken from the package itself is reported as ``qxform.<name>``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            targets = [a.name.split(".") for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = (["qxform"] if node.level else []) + (node.module or "").split(".")
            base = [part for part in base if part]
            targets = [base] if len(base) > 1 else [base + [a.name] for a in node.names]
        else:
            continue
        found += [(node.lineno, parts[1]) for parts in targets if parts[0] == "qxform" and len(parts) > 1]
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_imports_only_lower_layers(module):
    below = set(ORDER[: ORDER.index(module)])
    path = SRC / f"{module}.py"
    bad = [
        f"{path.name}:{line} imports {name}"
        for line, name in imported_modules(path)
        if name not in below and name != "__version__"
    ]
    assert not bad, bad
