"""A lint gate that needs nothing beyond the standard library.

CI runs ruff; where ruff is not installed this catches some of its
findings on ``src/repro``:

- an import that nothing in the module uses (package ``__init__``
  modules are skipped, their imports are re-exports, as is any import
  line marked ``# noqa``);
- a bare ``except:``;
- a mutable default argument (a list/dict/set literal or a ``list()`` /
  ``dict()`` / ``set()`` call);
- a function or class defined twice in one scope (``@overload`` and
  property setters/deleters excepted).

``make lint-local`` runs this plus ``python -m compileall -q src``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
ALL_MODULES = sorted(SRC.rglob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
MUTABLE_CALLS = {"list", "dict", "set"}


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


def bare_excepts(tree):
    """Lines of every ``except:`` without an exception type."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is None
    ]


def _is_mutable(node):
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in MUTABLE_CALLS
    )


def mutable_defaults(tree):
    """``(line, function)`` for every list/dict/set default argument."""
    return [
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for default in node.args.defaults + node.args.kw_defaults
        if default is not None and _is_mutable(default)
    ]


def _redefinable(node):
    """``@overload`` stubs and ``@x.setter`` / ``@x.deleter`` reuse a name."""
    names = (
        deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", "")
        for deco in node.decorator_list
    )
    return any(name in ("overload", "setter", "deleter") for name in names)


def duplicate_definitions(tree):
    """``(line, name)`` for every def/class that repeats a name defined
    earlier in the same body (conditional branches are separate bodies)."""
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for scope in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            body = getattr(scope, field, None)
            if not isinstance(body, list):  # a lambda's body is one expression
                continue
            seen = set()
            for node in body:
                if not isinstance(node, definitions) or _redefinable(node):
                    continue
                if node.name in seen:
                    found.append((node.lineno, node.name))
                seen.add(node.name)
    return found


def test_modules_found():
    assert len(MODULES) > 50


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_no_bare_except_mutable_default_or_duplicate_definition():
    findings = {}
    for path in ALL_MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found = (
            bare_excepts(tree) + mutable_defaults(tree) + duplicate_definitions(tree)
        )
        if found:
            findings[str(path.relative_to(SRC))] = found
    assert findings == {}


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


def test_gate_catches_a_bare_except():
    tree = ast.parse(
        "try:\n    pass\nexcept ValueError:\n    pass\n"
        "try:\n    pass\nexcept:\n    pass\n"
    )
    assert bare_excepts(tree) == [7]


def test_gate_catches_a_mutable_default():
    tree = ast.parse(
        "def ok(a=(), b=None, *, c=frozenset()):\n    pass\n"
        "def bad(a=[], *, b=dict()):\n    pass\n"
    )
    assert mutable_defaults(tree) == [(3, "bad"), (3, "bad")]


def test_gate_catches_a_duplicate_definition():
    tree = ast.parse(
        "from typing import overload\n"
        "class C:\n"
        "    @property\n    def x(self): pass\n"
        "    @x.setter\n    def x(self, v): pass\n"
        "    @overload\n    def f(self, a: int) -> int: ...\n"
        "    def f(self, a): pass\n"
        "    def g(self): pass\n"
        "    def g(self): pass\n"
        "if True:\n    def h(): pass\nelse:\n    def h(): pass\n"
    )
    assert duplicate_definitions(tree) == [(11, "g")]
