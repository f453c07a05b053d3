"""A lint gate that needs nothing beyond the standard library.

CI runs ruff; where ruff is not installed this catches its most common
finding on ``src/repro``: an import that nothing in the module uses.
Package ``__init__`` modules are skipped (their imports are re-exports),
as is any import line marked ``# noqa``.  ``make lint-local`` runs this
plus ``python -m compileall -q src``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _bound_names(node):
    """(name, line) for every name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        if alias.name != "*":
            yield (alias.asname or alias.name.split(".")[0]), node.lineno


def _names_in_strings(tree):
    """Names in strings that are whole expressions: ``__all__`` entries
    and quoted annotations (``-> "np.ndarray"``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(expr) if isinstance(n, ast.Name))


def unused_imports(path: Path):
    """``[(line, name)]`` for every import in ``path`` that is never used."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    imported = [
        bound
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "noqa" not in lines[node.lineno - 1]
        for bound in _bound_names(node)
    ]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_names_in_strings(tree))
    return [(line, name) for name, line in imported if name not in used]


def test_modules_found():
    assert len(MODULES) > 50


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_gate_catches_an_unused_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from dataclasses import dataclass, field\n"
        "import numpy as np  # only in a string annotation\n"
        "from typing import List  # noqa: F401\n\n"
        "def f() -> 'np.ndarray':\n"
        "    return field()\n"
    )
    assert unused_imports(sample) == [(1, "dataclass")]
