"""The benchmark reaches into planforge by name: its tracing hook patches the
functions listed in ``LAYERS``, and its scripts import from the package.  A
renamed or deleted function would only crash a benchmark run; these checks
catch it in the suite instead."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import MICRO_PLAN
from planforge import assets_dir
from planforge import session as session_module
from planforge.drivers import load_adapters, solve
from planforge.evaluate import EndpointConfig, run_inference
from planforge.session import Session, stage_generate, stage_plan

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = BENCH.parent / "src"


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


def test_solve_key_names_the_problem(hook, tmp_path):
    assert list(inspect.signature(solve).parameters)[2] == "problem_path"
    problem_path = tmp_path / "artic3_000001.pddl"
    problem_path.write_text((assets_dir() / "artic3_micro.pddl").read_text())
    # the arguments plan_batch's workers pass
    call = inspect.signature(solve).bind(
        load_adapters()["internal"], assets_dir() / "artic3.pddl", problem_path,
        timeout=5.0,
    )
    assert solve(*call.args, **call.kwargs).status == "solved"
    assert hook.KEYS["solve"](call.args) == "artic3_000001"


def test_info_reads_real_results(hook, tmp_path, monkeypatch, stub_endpoint, pool):
    generated = []
    generate_batch = session_module.generate_batch

    def keep_result(*args, **kwargs):
        generated.append(generate_batch(*args, **kwargs))
        return generated[-1]

    monkeypatch.setattr(session_module, "generate_batch", keep_result)
    session = Session(tmp_path / "micro")
    stage_generate(session, assets_dir() / "artic3.dpgc.json",
                   assets_dir() / "artic3.pddl", 2, 7)
    planned = stage_plan(session, load_adapters()["internal"], pool=pool)
    info = hook.INFO["generate_batch"](generated[0])
    assert (info["new"], info["replayed"]) == (2, 0)
    assert info["draws"] >= 2
    assert hook.INFO["stage_plan"](planned) == {"attempted": 2, "solved": 2}

    server = stub_endpoint(lambda payload: {"text": MICRO_PLAN})
    entry = {"instruction": (assets_dir() / "artic3.pddl").read_text(),
             "input": (assets_dir() / "artic3_micro.pddl").read_text(),
             "output": MICRO_PLAN}
    records = run_inference([entry, entry], EndpointConfig(url=server.url),
                            tmp_path / "inferences.jsonl")
    latencies = hook.INFO["run_inference"](records)["latencies"]
    assert latencies == [r.latency for r in records]
    assert len(latencies) == 2 and all(t > 0 for t in latencies)


def test_worker_solves_are_traced(tmp_path):
    trace = tmp_path / "trace"
    trace.mkdir()
    problems = []
    for stem in ("a", "b", "c"):
        problems.append(tmp_path / f"{stem}.pddl")
        problems[-1].write_text((assets_dir() / "artic3_micro.pddl").read_text())
    script = (
        "import os\n"
        "from pathlib import Path\n"
        "from planforge import assets_dir\n"
        "from planforge.drivers import PlannerPool, load_adapters, plan_batch\n"
        "with PlannerPool(2) as pool:\n"
        "    plan_batch(load_adapters()['internal'], assets_dir() / 'artic3.pddl',\n"
        f"               [Path(p) for p in {[str(p) for p in problems]!r}],\n"
        f"               {str(tmp_path / 'plans')!r}, pool=pool, log_path=os.devnull)\n"
    )
    env = dict(os.environ, PLANFORGE_BENCH_TRACE=str(trace),
               PYTHONPATH=os.pathsep.join([str(BENCH / "hook"), str(SRC)]))
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)
    solves = [span for path in trace.glob("*.json")
              for span in json.loads(path.read_text())["spans"]
              if span["name"] == "solve"]
    # the workers write their spans only if they exit normally
    assert sorted(span["key"] for span in solves) == ["a", "b", "c"]
    assert all(span["t1"] is not None for span in solves)


@pytest.mark.parametrize("script", sorted(p.name for p in BENCH.glob("*.py")))
def test_bench_imports_resolve(script):
    tree = ast.parse((BENCH / script).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("planforge"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_the_in_process_eval_setup_is_byte_identical(tmp_path, monkeypatch):
    # eval-checkpoints' set-up generates, plans with reference_plan and
    # assembles in this process, so a search change that alters any plan
    # changes its hash
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    reference = json.loads((BENCH / "reference.json").read_text())
    _split, digest = workloads.build_eval_split(reference["default_seed"], tmp_path)
    assert digest == reference["hashes"]["eval-checkpoints"]
