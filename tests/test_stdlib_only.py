"""planforge runs on the Python standard library alone."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys

import pytest

from planforge import assets_dir

SRC = assets_dir().parent.parent


def test_every_module_imports_only_the_standard_library():
    code = (
        "import json, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import planforge\n"
        "for info in pkgutil.walk_packages(planforge.__path__, 'planforge.'):\n"
        "    if info.name != 'planforge.__main__':  # runs the CLI\n"
        "        __import__(info.name)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "planforge.evaluate" in loaded and "planforge.dpgc" in loaded
    # __mp_main__ is multiprocessing's second name for the __main__ module
    outside = ({name.partition(".")[0] for name in loaded}
               - set(sys.stdlib_module_names) - {"__mp_main__"})
    assert outside == {"planforge"}


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_every_module_parses_as_python_3_10():
    # pyproject's requires-python floor; feature_version rejects later syntax
    for path in sorted((SRC / "planforge").rglob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


# Inputs are read through ``planforge.read_file``, which names the file it
# cannot read or parse.  These raw reads, as (module, function, method), are
# the exceptions: readers with their own naming, byte comparisons, and the
# external planner's output.
RAW_READS = {
    ("__init__.py", "read_file", "read_bytes"),
    ("shape.py", "load", "read_text"),
    ("dpgc.py", "read_config", "read_bytes"),
    ("session.py", "stage_generate", "read_bytes"),
    ("generate.py", "generate_batch", "read_bytes"),
    ("drivers.py", "_run_planner", "read_text"),
}


def _raw_reads(node: ast.AST, module: str, scope: tuple[str, ...] = ()):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _raw_reads(child, module, scope + (child.name,))
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("read_text", "read_bytes")):
            yield module, ".".join(scope), child.func.attr
        yield from _raw_reads(child, module, scope)


def test_inputs_are_read_only_through_the_named_readers():
    package = SRC / "planforge"
    found = {
        read
        for path in sorted(package.rglob("*.py"))
        for read in _raw_reads(ast.parse(path.read_text()),
                               path.relative_to(package).as_posix())
    }
    assert sorted(found - RAW_READS) == []
