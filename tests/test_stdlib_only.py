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
