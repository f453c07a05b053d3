"""The end-to-end benchmark's view of the package still exists.

``benchmarks/e2e/`` is outside ``testpaths``, so a change that renames
or drops something it uses (an imported name, a ``Viper(...)`` or
``InferenceServer(...)`` keyword, a method the traced run wraps) would
pass here and fail only when the benchmark runs.  These tests read the
benchmark's source with :mod:`ast` and run none of its workloads.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib

import pytest

from repro import Viper
from repro.serving.server import InferenceServer

E2E = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
SOURCES = sorted(E2E.glob("*.py"))


def _trees():
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in SOURCES]


def _calls(tree, name: str):
    """Every call of ``name(...)`` or ``<obj>.name(...)`` in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                yield node


def _params(cls) -> set:
    return set(inspect.signature(cls.__init__).parameters) - {"self"}


def test_the_benchmark_sources_are_found():
    assert {"harness.py", "serve_steady.py", "byte_path.py", "coupled.py"} <= {
        p.name for p in SOURCES
    }


def test_every_imported_repro_name_resolves():
    missing = []
    for fname, tree in _trees():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    continue
                try:
                    importlib.import_module(f"{node.module}.{alias.name}")
                except ImportError:
                    missing.append(f"{fname}: from {node.module} import {alias.name}")
    assert not missing


@pytest.mark.parametrize("call, cls", [
    ("Viper", Viper),
    ("InferenceServer", InferenceServer),
    ("deploy", InferenceServer),  # Run.deploy passes its keywords to the server
])
def test_every_constructor_keyword_is_a_parameter(call, cls):
    params = _params(cls)
    seen, unknown = 0, []
    for fname, tree in _trees():
        for node in _calls(tree, call):
            for kw in node.keywords:
                if kw.arg is None:  # a ``**mapping`` pass-through
                    continue
                seen += 1
                if kw.arg not in params:
                    unknown.append(f"{fname}:{node.lineno} {call}({kw.arg}=...)")
    assert not unknown
    if call != "InferenceServer":
        assert seen


def _serve_steady_keywords(call: str, namespace: dict) -> dict:
    """The keywords of serve_steady's one ``call(...)``, evaluated."""
    tree = ast.parse((E2E / "serve_steady.py").read_text())
    (node,) = _calls(tree, call)
    return {
        kw.arg: eval(compile(ast.Expression(kw.value), "serve_steady.py", "eval"),
                     namespace)
        for kw in node.keywords
    }


def test_the_traced_run_wraps_only_callables():
    from benchmarks.e2e import serve_steady
    from benchmarks.e2e.harness import Deployment
    from repro.apps import get_app
    from repro.apps.candle import build_tc1

    class AssertingTracer:
        def __init__(self):
            self.sites = []

        def wrap(self, obj, attr, name):
            assert callable(getattr(obj, attr, None)), f"{name}: {obj!r}.{attr}"
            self.sites.append(name)

        def unwrap(self):
            pass

    namespace = {**vars(serve_steady), "app": get_app("tc1")}
    viper = Viper(**_serve_steady_keywords("Viper", namespace))
    dep = Deployment(
        viper, lambda: build_tc1(seed=202),
        **_serve_steady_keywords("deploy", namespace),
    )
    tracer = AssertingTracer()
    try:
        dep.install_spans(tracer)
    finally:
        dep.close()
    # The armed branches ran: admission, rollout, freshness and lineage.
    assert {"serving.admission.admit", "rollout.route",
            "obs.freshness.record_serve", "obs.lineage.record"} <= set(tracer.sites)
