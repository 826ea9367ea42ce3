"""Static checks on the package source: every name a module imports is
used in that module, so no import outlives the code that needed it."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dwell").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names the source imports (top level or inside a function) but never
    reads; `from __future__` imports are compiler directives, not names."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_caught():
    source = ("from __future__ import annotations\n\nimport numpy as np\n"
              "from .errors import DegenerateGap, DwellError\n\n\n"
              "def f(x: np.ndarray):\n    from .dynamics import Basis\n"
              "    raise DwellError(x)\n")
    assert unused_imports(source) == ["Basis", "DegenerateGap"]
