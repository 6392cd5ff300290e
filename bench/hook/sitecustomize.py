"""Startup hook that traces planforge's layers in a benchmark run.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that holds one.  The benchmark puts this directory on
PYTHONPATH, and sets PLANFORGE_BENCH_TRACE to an output directory, only for
traced reps.  Every Python process of such a run is then traced the same
way: the ``planforge`` command, each planner child it spawns, and any worker
process a later version starts.

Nothing in the package is modified on disk.  When a planforge module
finishes loading, the public functions listed in LAYERS are replaced on the
module by timing wrappers, so every later ``from module import name`` binds
the wrapper.  Each wrapped call records a span: name, start, end, parent
span and a shared key (the problem id for planning, which planner children
take from their ``--problem`` argument).  Module loads are recorded as
``import:<module>`` spans.  Spans stay in memory and are written as one JSON
file per process at exit.
"""

from __future__ import annotations

import atexit
import functools
import importlib.machinery
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path

LAYERS = {
    "planforge.pddl.parser": ("parse_domain", "parse_problem"),
    "planforge.pddl.writer": ("serialize_problem",),
    "planforge.pddl.ground": ("iter_applicable_candidates",),
    "planforge.plans": ("validate",),
    "planforge.generate": ("generate_batch",),
    "planforge.drivers": ("solve", "reference_plan", "plan_batch"),
    "planforge.dataset": ("build_records", "assemble", "audit_leakage"),
    "planforge.session": ("stage_generate", "stage_plan", "stage_assemble", "run_pipeline"),
    "planforge.evaluate": ("run_inference", "score"),
}


def _generate_info(result):
    return {"draws": result.draws, "new": result.new_emissions, "replayed": result.replayed}


def _stage_plan_info(result):
    return {"attempted": result["attempted"], "solved": result["tally"].get("solved", 0)}


def _pipeline_info(result):
    return {"rounds": sum(d["rounds"] for d in result["domains"].values())}


def _inference_info(result):
    return {"latencies": [r.latency for r in result]}


def _solve_key(args):
    return Path(args[2]).stem if len(args) > 2 else None


# What a span keeps of a call's result, and how a call names its problem.
INFO = {
    "generate_batch": _generate_info,
    "stage_plan": _stage_plan_info,
    "run_pipeline": _pipeline_info,
    "run_inference": _inference_info,
}
KEYS = {"solve": _solve_key}


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list[dict] = []
        self.lock = threading.Lock()  # planner threads open spans concurrently
        self.local = threading.local()
        self.key = None
        if "--problem" in sys.argv[:-1]:
            self.key = Path(sys.argv[sys.argv.index("--problem") + 1]).stem

    def _stack(self) -> list[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def open(self, name: str, key=None, push: bool = True) -> int:
        stack = self._stack()
        span = {
            "name": name,
            "t0": time.perf_counter(),
            "t1": None,
            "parent": stack[-1] if stack else -1,
            "key": key if key is not None else self.key,
        }
        with self.lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        if push:
            stack.append(index)
        return index

    def close(self, index: int, info=None, pop: bool = True) -> None:
        span = self.spans[index]
        span["t1"] = time.perf_counter()
        if info:
            span["info"] = info
        if pop:
            self._stack().pop()

    def wrap(self, name: str, fn):
        info_of = INFO.get(name)
        key_of = KEYS.get(name)

        if inspect.isgeneratorfunction(fn):
            # Consumers drain the generator in one go; its span counts items.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                index = self.open(name, push=False)
                count = 0
                try:
                    for item in fn(*args, **kwargs):
                        count += 1
                        yield item
                finally:
                    self.close(index, {"count": count}, pop=False)

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, key_of(args) if key_of else None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                info = info_of(result) if info_of and result is not None else None
                self.close(index, info)

        return traced

    def patch(self, module) -> None:
        for name in LAYERS.get(module.__name__, ()):
            setattr(module, name, self.wrap(name, getattr(module, name)))

    def write(self) -> None:
        path = os.path.join(self.out_dir, f"{os.getpid()}-{time.monotonic_ns()}.json")
        with open(path, "w") as f:
            json.dump({"argv": sys.argv, "key": self.key, "spans": self.spans}, f)


class _Finder:
    """Meta-path finder that times and patches planforge modules as they load."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if name != "planforge" and not name.startswith("planforge."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        tracer = self.tracer
        exec_module = spec.loader.exec_module

        def traced_exec(module):
            index = tracer.open("import:" + name)
            try:
                exec_module(module)
            finally:
                tracer.close(index)
            tracer.patch(module)

        spec.loader.exec_module = traced_exec
        return spec


def install(out_dir: str) -> Tracer:
    tracer = Tracer(out_dir)
    sys.meta_path.insert(0, _Finder(tracer))
    atexit.register(tracer.write)
    return tracer


if os.environ.get("PLANFORGE_BENCH_TRACE"):
    install(os.environ["PLANFORGE_BENCH_TRACE"])
