"""The benchmark reaches into planforge by name: its tracing hook patches the
functions listed in ``LAYERS``, and its scripts import from the package.  A
renamed or deleted function would only crash a benchmark run; these checks
catch it in the suite instead."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture()
def hook(monkeypatch):
    monkeypatch.delenv("PLANFORGE_BENCH_TRACE", raising=False)  # tracing off
    spec = importlib.util.spec_from_file_location(
        "bench_sitecustomize", BENCH / "hook" / "sitecustomize.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_exists(hook):
    traced = set()
    for module_name, names in hook.LAYERS.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
            traced.add(name)
    assert set(hook.INFO) | set(hook.KEYS) <= traced


@pytest.mark.parametrize("script", sorted(p.name for p in BENCH.glob("*.py")))
def test_bench_imports_resolve(script):
    tree = ast.parse((BENCH / script).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("planforge"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
