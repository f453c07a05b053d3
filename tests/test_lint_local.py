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
  property setters/deleters excepted);
- a name some scope reads as a global that the module never binds and
  that is not a builtin (a typo, a name only a comprehension or a class
  body binds), found with :mod:`symtable`;
- a module that no entry point imports (see :data:`ENTRY_POINTS`);
- a ``threading.Thread(...)`` or ``queue.Queue(...)`` built outside the
  one background worker class (see :data:`WORKER_ALLOWLIST`);
- an import of ``hashlib``: CRC-32 (``zlib``) is the one checksum family;
- an import that reaches a higher layer than its own (see :data:`LAYERS`),
  a package ``__init__`` importing from outside its own package, and a
  ``repro`` import inside a function outside ``cli.py`` (see
  :data:`NESTED_IMPORT_ALLOWLIST`).

``make lint-local`` runs this plus ``python -m compileall -q src``.
"""

import ast
import builtins
import symtable
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
ALL_MODULES = sorted(SRC.rglob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
MUTABLE_CALLS = {"list", "dict", "set"}
#: Names every module can read without binding them.
BUILTIN_NAMES = set(dir(builtins)) | {"__file__", "__path__", "__builtins__"}

#: What a deployment or a user runs, declared once: ``(module, name)``.
#: ``python -m repro`` is ``repro.__main__``, which runs ``repro.cli``.
ENTRY_POINTS = (
    ("repro.core.api", "Viper"),
    ("repro.core.api", "ViperConsumer"),
    ("repro.serving.server", "InferenceServer"),
    ("repro.core.callback", "CheckpointCallback"),
    ("repro.cli", "main"),
    ("repro.__main__", "main"),
)

#: Modules no entry point imports, with what would take each off.  This
#: list may only shrink: wire a module in or delete it, and remove its
#: line; never add one.
UNREACHABLE_ALLOWLIST = {
    # Training-state capture: wire into continuous checkpointing, or
    # delete it with its example.
    "repro.dnn.checkpointing",
    # The per-tensor repository ablation: re-express on a tensor-keyed
    # piece cache in the transfer path.
    "repro.repository.tensor_store",
    # Request generator of workflow.live and the polling ablation.
    "repro.serving.client",
    # The polling baseline of the push-vs-poll ablation.
    "repro.serving.polling",
    # The threaded live runner: goes with the simulated twins once one
    # experiment runner drives the real path.
    "repro.workflow.live",
}

#: Where ``src/repro`` may build a ``threading.Thread`` or a
#: ``queue.Queue``: the one background worker class, ...
WORKER_MODULES = {"core/transfer/engine.py"}
#: ... plus these, each with what would take it off.  This list may only
#: shrink: never add a line.
WORKER_ALLOWLIST = {
    # The polling baseline's poller thread: goes with the ablation.
    "serving/polling.py",
    # The threaded live runner's producer thread: goes with the runner.
    "workflow/live.py",
}
WORKER_PRIMITIVES = {("threading", "Thread"), ("queue", "Queue")}
#: A second checksum family would need one of these: none may be imported.
FORBIDDEN_MODULES = {"hashlib"}

#: The packages (and top-level modules) of ``src/repro``, lowest layer
#: first.  A module imports from its own package and from lower layers
#: only; two packages on one line are peers and import neither the
#: other.  Names imported from a package count as imported from the
#: module that defines them; imports under ``if TYPE_CHECKING:`` are
#: annotations and do not count.  The root ``repro`` sits above all.
LAYERS = (
    ("errors",),
    ("substrates",),
    ("dnn",),
    ("obs",),
    ("resilience",),
    ("apps", "repository"),
    ("core",),
    ("rollout",),
    ("serving",),
    ("workflow",),
    ("analysis",),
    ("cli",),
    ("__main__",),
)

#: Modules besides ``repro.cli`` that import from ``repro`` inside a
#: function, each with what would take it off.  This list may only
#: shrink: hoist the import, and remove its line; never add one.
NESTED_IMPORT_ALLOWLIST = {}
#: The command-line driver imports each command's stack when it runs.
LAZY_IMPORTERS = {"repro.cli"}


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


def undefined_names(source: str, filename: str = "<string>"):
    """``(line, scope, name)`` for every name a scope of the module reads
    as a global that the module never binds and that is not a builtin.

    A module binds a name at its top level, or in a nested scope that
    declares it ``global``; a name a class body or a comprehension binds
    is not a global, so a method or an outer scope reading it is flagged.
    """
    top = symtable.symtable(source, filename, "exec")
    tables, todo = [], [top]
    while todo:
        table = todo.pop()
        tables.append(table)
        todo.extend(table.get_children())
    bound = {
        sym.get_name()
        for table in tables
        for sym in table.get_symbols()
        if (table is top or sym.is_declared_global())
        and (sym.is_assigned() or sym.is_imported())
    }
    return sorted(
        (table.get_lineno(), table.get_name(), sym.get_name())
        for table in tables
        for sym in table.get_symbols()
        if sym.is_referenced()
        and sym.is_global()
        and sym.get_name() not in bound | BUILTIN_NAMES
    )


def worker_constructions(tree):
    """Lines that build a ``threading.Thread`` or a ``queue.Queue``, also
    through an ``import ... as`` or a ``from ... import`` alias."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            target = (modules.get(func.value.id), func.attr)
        elif isinstance(func, ast.Name):
            target = names.get(func.id)
        else:
            continue
        if target in WORKER_PRIMITIVES:
            found.append(node.lineno)
    return sorted(found)


def forbidden_imports(tree):
    """Lines that import a :data:`FORBIDDEN_MODULES` module: ``import``,
    ``from ... import``, or ``__import__`` / ``import_module`` of a
    literal name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("__import__", "import_module")
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            names = [str(node.args[0].value)]
        else:
            continue
        if any(name.split(".")[0] in FORBIDDEN_MODULES for name in names):
            found.append(node.lineno)
    return sorted(found)


def _module_paths(root: Path, package: str):
    """Dotted module name -> path, for every module under ``root/package``."""
    out = {}
    for path in sorted((root / package).rglob("*.py")):
        parts = list(path.relative_to(root).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out[".".join(parts)] = path
    return out


def _is_type_checking(test):
    """``TYPE_CHECKING`` or ``typing.TYPE_CHECKING``."""
    return getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING"


def _import_sites(node, context="module"):
    """``(import node, context)`` for every import statement in ``node``:
    ``context`` is ``"function"`` inside a function body,
    ``"type_checking"`` under ``if TYPE_CHECKING:``, else ``"module"``."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        yield node, context
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        context = "function"
    if isinstance(node, ast.If) and _is_type_checking(node.test):
        children = [(child, "type_checking") for child in node.body]
        children += [(child, context) for child in node.orelse]
    else:
        children = [(child, context) for child in ast.iter_child_nodes(node)]
    for child, inner in children:
        yield from _import_sites(child, inner)


def _imports(name: str, path: Path):
    """``(module, bound names, line, context)`` for every import in a
    module, at any depth (see :func:`_import_sites`); relative imports
    resolved.  ``import a.b`` binds nothing by name: its names are ``()``."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    tree = ast.parse(path.read_text(), filename=str(path))
    for node, context in _import_sites(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, (), node.lineno, context
            continue
        module = node.module or ""
        if node.level:
            anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
            module = ".".join(anchor + ([module] if module else []))
        yield module, tuple(alias.name for alias in node.names), node.lineno, context


def _import_graph(root: Path, package: str):
    """``(paths, imports, targets)`` of the modules under ``root/package``:
    dotted name -> path, dotted name -> :func:`_imports`, and
    ``targets(module, names)``, the modules under ``package`` that an
    import of ``names`` from ``module`` reaches: a submodule, or the
    module a package ``__init__`` re-exports the name from."""
    paths = _module_paths(root, package)
    imports = {name: list(_imports(name, path)) for name, path in paths.items()}

    def targets(module, names):
        if module not in paths:
            return  # outside the package
        if not names:
            yield module
        for name in names:
            if f"{module}.{name}" in paths:
                yield f"{module}.{name}"
            elif paths[module].name == "__init__.py":
                # Follow the re-export of ``name``, if the package has one.
                source = next(
                    (m for m, bound, *_ in imports[module] if name in bound), None
                )
                yield from targets(source, (name,)) if source else (module,)
            else:
                yield module

    return paths, imports, targets


def unreachable_modules(root: Path, package: str, entries):
    """Modules under ``root/package`` that no module in ``entries``
    imports, directly or transitively.

    A package ``__init__`` is not an edge: importing a name from a
    package reaches the module the ``__init__`` re-exports it from, not
    every module the ``__init__`` imports.
    """
    paths, imports, targets = _import_graph(root, package)
    is_package = {name: path.name == "__init__.py" for name, path in paths.items()}
    seen = set()
    todo = list(entries)
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        if not is_package[module]:
            for source, names, *_ in imports[module]:
                todo.extend(targets(source, names))
    return {name for name in paths if not is_package[name]} - seen


def _layer(module: str) -> str:
    """The package (or top-level module) ``repro.x.y`` belongs to: ``x``;
    the root package is its own layer."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def layer_violations(root: Path, package: str, layers):
    """``(module, line, target)`` for every import, module- or
    function-level, that reaches a module of a higher layer than its
    own, or of a peer package in its own layer (see :data:`LAYERS`);
    an undeclared layer ranks above every declared one."""
    rank = {name: i for i, layer in enumerate(layers) for name in layer}
    paths, imports, targets = _import_graph(root, package)
    found = []
    for name in paths:
        own = _layer(name)
        for module, names, line, context in imports[name]:
            if context == "type_checking":
                continue
            for target in targets(module, names):
                other = _layer(target)
                if other != own and rank.get(other, len(layers)) >= rank.get(
                    own, len(layers)
                ):
                    found.append((name, line, target))
    return sorted(found)


def _inside(module: str, package: str) -> bool:
    return module == package or module.startswith(f"{package}.")


def foreign_package_imports(root: Path, package: str):
    """``(package, line, module)`` for every module-level import in a
    package ``__init__`` of a module outside that package.  The root
    package imports none: its public names load on first use."""
    found = []
    for name, path in _module_paths(root, package).items():
        if path.name != "__init__.py":
            continue
        for module, _names, line, context in _imports(name, path):
            foreign = name == package or not _inside(module, name)
            if context == "module" and _inside(module, package) and foreign:
                found.append((name, line, module))
    return sorted(found)


def nested_imports(root: Path, package: str):
    """``{module: [line]}`` of every import of a ``package`` module inside
    a function body."""
    found = {}
    for name, path in _module_paths(root, package).items():
        for module, _names, line, context in _imports(name, path):
            if context == "function" and _inside(module, package):
                found.setdefault(name, []).append(line)
    return found


def test_entry_points_are_declared_where_they_live():
    paths = _module_paths(SRC.parent, "repro")
    for module, name in ENTRY_POINTS:
        tree = ast.parse(paths[module].read_text())
        bound = {
            getattr(node, "name", None) for node in tree.body
        } | {alias.asname or alias.name for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
        assert name in bound, (module, name)


def test_every_module_is_reachable_from_an_entry_point():
    unreachable = unreachable_modules(
        SRC.parent, "repro", [module for module, _ in ENTRY_POINTS]
    )
    # Equality: a newly orphaned module fails, and so does an allowlist
    # line whose module was wired in or deleted.
    assert unreachable == set(UNREACHABLE_ALLOWLIST)


def test_gate_catches_an_orphan_module(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    files = {
        # The package imports the orphan, but only to re-export it.
        "__init__.py": "from pkg.orphan import Orphan\nfrom pkg.used import helper\n",
        "entry.py": "def run():\n    from pkg import helper\n    return helper()\n",
        "used.py": "from . import leaf\n\ndef helper():\n    return leaf.X\n",
        "leaf.py": "X = 1\n",
        "orphan.py": "class Orphan:\n    pass\n",
    }
    for name, text in files.items():
        (pkg / name).write_text(text)
    assert unreachable_modules(tmp_path, "pkg", ["pkg.entry"]) == {"pkg.orphan"}


def test_every_package_is_in_one_declared_layer():
    declared = [name for layer in LAYERS for name in layer]
    found = {_layer(name) for name in _module_paths(SRC.parent, "repro")}
    assert len(declared) == len(set(declared))
    # Equality: a new package needs a layer, and a deleted one its line.
    assert found - {"repro"} == set(declared)


def test_no_import_reaches_a_higher_layer():
    assert layer_violations(SRC.parent, "repro", LAYERS) == []


def test_package_inits_import_only_their_own_package():
    assert foreign_package_imports(SRC.parent, "repro") == []


def test_no_function_level_imports_outside_the_cli():
    nested = set(nested_imports(SRC.parent, "repro")) - LAZY_IMPORTERS
    # Equality: a new nested import fails, and so does an allowlist line
    # whose import was hoisted.
    assert nested == set(NESTED_IMPORT_ALLOWLIST)


def _write_package(root: Path, files):
    for name, text in files.items():
        path = root / "pkg" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_gate_catches_an_upward_import(tmp_path):
    _write_package(tmp_path, {
        "__init__.py": "",
        "low/__init__.py": "from pkg.low.base import Base\n",
        "low/base.py": (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n    from pkg.high.app import App\n"
            "class Base:\n    pass\n"
        ),
        "low/leaky.py": "def f():\n    from pkg.high import App\n    return App\n",
        "low/direct.py": "import pkg.high.app\n",
        "mid/__init__.py": "",
        "mid/peer.py": "from pkg.side import x\n",
        "side.py": "x = 1\n",
        "high/__init__.py": "from pkg.high.app import App\n",
        "high/app.py": "from pkg.low import Base\nfrom pkg import side\nclass App(Base):\n    pass\n",
    })
    layers = (("low",), ("mid", "side"), ("high",))
    assert layer_violations(tmp_path, "pkg", layers) == [
        ("pkg.low.direct", 1, "pkg.high.app"),
        ("pkg.low.leaky", 2, "pkg.high.app"),  # through the re-export
        ("pkg.mid.peer", 1, "pkg.side"),  # a peer in the same layer
    ]


def test_gate_catches_a_foreign_import_in_a_package_init(tmp_path):
    _write_package(tmp_path, {
        "__init__.py": "import importlib\nfrom pkg.a.mod import X\n",
        "a/__init__.py": "from pkg.a.mod import X\nfrom . import mod\nfrom pkg.b import Y\n",
        "a/mod.py": "X = 1\n",
        "b/__init__.py": "def f():\n    from pkg.a import X\n    return X\n",
    })
    assert foreign_package_imports(tmp_path, "pkg") == [
        ("pkg", 2, "pkg.a.mod"),
        ("pkg.a", 3, "pkg.b"),
    ]


def test_gate_catches_a_function_level_import(tmp_path):
    _write_package(tmp_path, {
        "__init__.py": "",
        "mod.py": (
            "import json\n"
            "from pkg import other\n"
            "def f():\n    import os\n    from pkg.other import X\n    return X\n"
            "class C:\n    async def g(self):\n        import pkg.other\n"
        ),
        "other.py": "X = 1\n",
    })
    assert nested_imports(tmp_path, "pkg") == {"pkg.mod": [5, 9]}


def test_threads_and_queues_built_only_by_the_worker():
    builders = {
        str(path.relative_to(SRC))
        for path in ALL_MODULES
        if worker_constructions(ast.parse(path.read_text(), filename=str(path)))
    }
    # Equality: a new builder fails, and so does an allowlist line whose
    # module no longer builds one.
    assert builders == WORKER_MODULES | WORKER_ALLOWLIST


def test_gate_catches_a_thread_or_queue_construction():
    tree = ast.parse(
        "import queue\n"
        "import threading as th\n"
        "from threading import Event, Thread as T\n"
        "worker = th.Thread(target=print)\n"
        "jobs = queue.Queue()\n"
        "other = T()\n"
        "fine = Event(), th.Lock(), queue.Empty\n"
    )
    assert worker_constructions(tree) == [4, 5, 6]


def test_one_checksum_family():
    importers = {
        str(path.relative_to(SRC))
        for path in ALL_MODULES
        if forbidden_imports(ast.parse(path.read_text(), filename=str(path)))
    }
    assert importers == set()


def test_gate_catches_a_hashlib_import():
    tree = ast.parse(
        "import zlib\n"
        "import os, hashlib\n"
        "import hashlib as h\n"
        "from hashlib import blake2b\n"
        "mod = __import__('hashlib')\n"
        "import importlib\n"
        "other = importlib.import_module('hashlib')\n"
        "fine = zlib.crc32(b''), importlib.import_module('zlib')\n"
    )
    assert forbidden_imports(tree) == [2, 3, 4, 5, 7]


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


def test_no_undefined_names():
    findings = {}
    for path in ALL_MODULES:
        found = undefined_names(path.read_text(), str(path))
        if found:
            findings[str(path.relative_to(SRC))] = found
    assert findings == {}


def test_gate_catches_an_undefined_name():
    source = (
        "import os\n"
        "LIMIT = 3\n"
        "def install():\n"
        "    global HOOK\n"
        "    HOOK = os.sep\n"
        "def typo():\n"
        "    return LIMT + len(HOOK) + LIMIT\n"
        "def comprehension():\n"
        "    return [y for x in range(LIMIT)]\n"
        "class C:\n"
        "    SCALE = 2\n"
        "    def method(self):\n"
        "        return SCALE * __name__\n"
    )
    # Names only: whether a comprehension is its own scope varies by
    # Python version.
    assert [name for _line, _scope, name in undefined_names(source)] == [
        "LIMT", "y", "SCALE",
    ]


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
