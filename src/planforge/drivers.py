"""Planner orchestration: declarative adapters, a reference planner, batching.

Adapters describe external planners as command templates; every invocation is
a subprocess in its own process group with a hard timeout, and wall time is
measured here so that all planners are timed the same way.  Exit status
mapping: a recognized no-plan message maps to ``no_solution``, a nonzero
exit, spawn failure or output the dialect cannot normalize maps to
``crashed``, and anything that normalizes and parses maps to ``solved``.

The bundled ``internal`` adapter's command would run ``reference_plan`` in a
fresh interpreter per problem.  An adapter with exactly that command runs
``reference_plan`` in-process instead, with the same statuses, and
``plan_batch`` runs those solves on a pool of spawned worker processes.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter, deque
from collections.abc import Callable, Iterator
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path

from planforge import assets_dir
from planforge.pddl.ground import (
    apply_effects,
    first_failure,
    goal_satisfied,
    iter_applicable_candidates,
)
from planforge.pddl.model import Domain, Problem
from planforge.pddl.parser import parse_domain, parse_problem
from planforge.plans import PlanStep, parse_plan, render_plan, validate

DIALECTS = ("val_native", "probe")
OUTPUT_MODES = ("file", "stdout")

_NO_PLAN_MARKERS = ("no plan", "no solution", "unsolvable", "goal is unreachable")

_PROBE_STEP_RE = re.compile(
    r"^(?:\d+(?:\.\d+)?\s*:\s*)?(\([^()]+\))\s*(?:\[\d+(?:\.\d+)?\])?$"
)
_PROBE_NOISE_PREFIXES = (
    "plan found",
    "solution found",
    "plan cost",
    "total time",
    "search time",
    "planning time",
    "expanded",
    "evaluated",
    "generated",
    "dead ends",
    "nodes",
    "makespan",
    "steps",
    "time",
)


class AdapterError(ValueError):
    pass


class NormalizationError(ValueError):
    pass


class ExpansionBudgetExceeded(RuntimeError):
    pass


# The bundled adapter's command (assets/adapters.json).  An adapter with
# exactly this command and file output is solved in-process (see solve).
_REFPLAN_EXECUTABLE = "{python}"
_REFPLAN_ARGS = (
    "-m", "planforge.cli", "refplan",
    "--domain", "{domain}", "--problem", "{problem}", "--output", "{output}",
)

# How long a pool worker may stay silent past its problem's timeout before it
# is killed; covers starting a fresh worker interpreter and its imports.
_KILL_GRACE_S = 2.0


@dataclass(frozen=True)
class PlannerAdapter:
    name: str
    executable: str
    args: tuple[str, ...]
    output: str = "file"
    dialect: str = "val_native"
    timeout: float = 60.0


@dataclass(frozen=True)
class SolveResult:
    status: str  # solved | no_solution | timeout | crashed
    plan_text: str | None
    raw_output: str
    wall_time: float
    detail: str = ""


def load_adapters(path: str | Path | None = None) -> dict[str, PlannerAdapter]:
    """Read an adapter registry; defaults to the bundled one."""
    path = Path(path) if path else assets_dir() / "adapters.json"
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise AdapterError(f"cannot read adapter registry {path}: {err}") from err
    entries = data.get("adapters")
    if not isinstance(entries, list):
        raise AdapterError(f"{path}: expected a top-level 'adapters' array")
    out: dict[str, PlannerAdapter] = {}
    for i, raw in enumerate(entries):
        where = f"{path}: adapters[{i}]"
        for key in ("name", "executable", "args"):
            if key not in raw:
                raise AdapterError(f"{where}: missing '{key}'")
        adapter = PlannerAdapter(
            name=raw["name"],
            executable=raw["executable"],
            args=tuple(raw["args"]),
            output=raw.get("output", "file"),
            dialect=raw.get("dialect", "val_native"),
            timeout=float(raw.get("timeout", 60.0)),
        )
        if adapter.output not in OUTPUT_MODES:
            raise AdapterError(f"{where}: unknown output mode '{adapter.output}'")
        if adapter.dialect not in DIALECTS:
            raise AdapterError(f"{where}: unknown dialect '{adapter.dialect}'")
        if adapter.name in out:
            raise AdapterError(f"{where}: duplicate adapter '{adapter.name}'")
        if adapter.timeout <= 0:
            raise AdapterError(f"{where}: timeout must be positive")
        out[adapter.name] = adapter
    return out


def normalize_output(text: str, dialect: str) -> str:
    """Bring planner output into one-action-per-line form.

    val_native output is already in that form and passes through byte for
    byte.  The probe dialect strips numeric step prefixes and trailing cost
    annotations, drops known progress/noise lines, and fails loudly on
    anything else so silent plan corruption is impossible.
    """
    if dialect == "val_native":
        return text
    if dialect != "probe":
        raise NormalizationError(f"unknown dialect '{dialect}'")
    steps: list[str] = []
    for raw in text.splitlines():
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        m = _PROBE_STEP_RE.match(line)
        if m:
            steps.append(m.group(1).lower())
            continue
        lowered = line.lower()
        if any(lowered.startswith(prefix) for prefix in _PROBE_NOISE_PREFIXES):
            continue
        raise NormalizationError(f"unrecognized planner output line: '{raw.strip()}'")
    return "".join(s + "\n" for s in steps)


def _fill(template: str, mapping: dict[str, str]) -> str:
    out = template
    for key, value in mapping.items():
        out = out.replace("{" + key + "}", value)
    return out


def runs_in_process(adapter: PlannerAdapter) -> bool:
    """Whether ``solve`` runs this adapter's planner without a subprocess."""
    return (
        adapter.executable == _REFPLAN_EXECUTABLE
        and adapter.args == _REFPLAN_ARGS
        and adapter.output == "file"
    )


def solve(
    adapter: PlannerAdapter,
    domain_path: str | Path,
    problem_path: str | Path,
    *,
    timeout: float | None = None,
) -> SolveResult:
    """Run one planner invocation with a hard timeout."""
    timeout = timeout if timeout is not None else adapter.timeout
    if runs_in_process(adapter):
        return _solve_in_process(domain_path, problem_path, timeout)
    with tempfile.TemporaryDirectory(prefix="planforge-solve-") as tmp:
        output_path = Path(tmp) / "plan.out"
        mapping = {
            "domain": str(Path(domain_path).resolve()),
            "problem": str(Path(problem_path).resolve()),
            "output": str(output_path),
            "python": sys.executable,
        }
        cmd = [_fill(adapter.executable, mapping)] + [
            _fill(arg, mapping) for arg in adapter.args
        ]
        start = time.perf_counter()
        try:
            # A process group of its own, so that killing the group kills
            # whatever the planner started as well.
            proc = subprocess.Popen(
                cmd,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
            )
        except OSError as err:
            wall = time.perf_counter() - start
            return SolveResult("crashed", None, "", wall, f"spawn failure: {err}")
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            stdout = None
        finally:
            _kill_group(proc.pid)  # nothing the planner started outlives it
        wall = time.perf_counter() - start
        if stdout is None:
            proc.communicate()
            return SolveResult("timeout", None, "", wall, f"killed after {timeout}s")

        raw = stdout + stderr
        lowered = raw.lower()
        if any(marker in lowered for marker in _NO_PLAN_MARKERS):
            return SolveResult("no_solution", None, raw, wall)
        if proc.returncode != 0:
            return SolveResult(
                "crashed", None, raw, wall, f"exit code {proc.returncode}"
            )
        if adapter.output == "file":
            if not output_path.exists():
                return SolveResult(
                    "crashed", None, raw, wall, "exited 0 but wrote no plan file"
                )
            payload = output_path.read_text()
        else:
            payload = stdout
        try:
            plan_text = normalize_output(payload, adapter.dialect)
            parse_plan(plan_text)
        except ValueError as err:
            return SolveResult("crashed", None, raw, wall, str(err))
        return SolveResult("solved", plan_text, raw, wall)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _solve_in_process(
    domain_path: str | Path, problem_path: str | Path, timeout: float
) -> SolveResult:
    """``refplan``'s protocol without its interpreter: a plan is ``solved``,
    exhaustion ``no_solution`` (exit 3), the expansion budget or an unreadable
    input ``crashed`` (exit 4 or 2), and an answer after the deadline
    ``timeout``, as if the subprocess had been killed then."""
    start = time.perf_counter()
    deadline = time.monotonic() + timeout
    status, plan_text, detail = "solved", None, ""
    try:
        domain = parse_domain(Path(domain_path).read_text())
        problem = parse_problem(Path(problem_path).read_text(), domain)
        plan = reference_plan(domain, problem, deadline=deadline)
    except TimeoutError:
        status = "timeout"
    except (ValueError, RuntimeError, OSError) as err:
        status, detail = "crashed", str(err)
    else:
        if plan is None:
            status = "no_solution"
        else:
            plan_text = render_plan(plan)
    wall = time.perf_counter() - start
    if status == "timeout" or time.monotonic() > deadline:
        return SolveResult("timeout", None, "", wall, f"deadline of {timeout}s passed")
    return SolveResult(status, plan_text, "", wall, detail)


def reference_plan(
    domain: Domain,
    problem: Problem,
    *,
    max_expansions: int = 1_000_000,
    deadline: float | None = None,
) -> list[PlanStep] | None:
    """Breadth-first search for a shortest plan.

    Returns None only when the whole reachable space was exhausted, which
    proves unsolvability.  Ties between equal-length plans are broken by the
    deterministic candidate order of ``ground_actions``.  Raises
    ExpansionBudgetExceeded when the search grows past ``max_expansions``
    dequeued states, and TimeoutError when ``time.monotonic()`` has passed
    ``deadline``, checked after grounding and every 64 expansions.
    """
    candidates = list(iter_applicable_candidates(domain, problem))
    start = problem.init
    if goal_satisfied(start, problem.goal):
        return []
    visited: dict = {start: None}
    queue: deque = deque([start])
    expansions = 0
    while queue:
        state = queue.popleft()
        expansions += 1
        if expansions > max_expansions:
            raise ExpansionBudgetExceeded(
                f"expansion budget exceeded ({max_expansions} states)"
            )
        if deadline is not None and expansions % 64 == 1 and time.monotonic() > deadline:
            raise TimeoutError(f"deadline passed after {expansions} expansions")
        for action in candidates:
            if first_failure(state, action.precondition) is not None:
                continue
            successor = apply_effects(state, action)
            if successor in visited:
                continue
            visited[successor] = (state, action)
            if goal_satisfied(successor, problem.goal):
                steps: list[PlanStep] = []
                cursor = successor
                while visited[cursor] is not None:
                    prev, act = visited[cursor]
                    steps.append((act.name,) + act.args)
                    cursor = prev
                steps.reverse()
                return steps
            queue.append(successor)
    return None


@dataclass(frozen=True)
class BatchEntry:
    problem_id: str
    status: str  # solved | invalid | no_solution | timeout | crashed
    wall_time: float
    plan_length: int | None
    plan_path: Path | None


def plan_batch(
    adapter: PlannerAdapter,
    domain: Domain,
    domain_path: str | Path,
    problem_paths: list[Path],
    plans_dir: str | Path,
    *,
    timeout: float | None = None,
    workers: int = 1,
    log_path: str | Path | None = None,
) -> list[BatchEntry]:
    """Solve a set of problems and keep only plans that validate exactly;
    returns one entry per problem, in order.

    Up to ``workers`` problems are solved at a time: on spawned worker
    processes when the adapter runs in-process, else on threads that each
    wait for a planner subprocess.  Spawned workers import the caller's
    main module, so a script calling this needs the usual
    ``if __name__ == "__main__":`` guard.  Validation and plan files stay
    in the calling process.  A solved-but-invalid plan is counted as ``invalid``
    and contributes to the shortfall; its plan file is not written.  The log
    has one line per problem: id, status, wall time, plan length (``-`` when
    there is none).
    """
    plans_dir = Path(plans_dir)
    plans_dir.mkdir(parents=True, exist_ok=True)
    timeout = timeout if timeout is not None else adapter.timeout
    workers = max(1, min(workers, len(problem_paths)))

    def keep(problem_path: Path, result: SolveResult) -> BatchEntry:
        pid = problem_path.stem
        if result.status != "solved":
            return BatchEntry(pid, result.status, result.wall_time, None, None)
        problem = parse_problem(problem_path.read_text(), domain)
        steps = parse_plan(result.plan_text)
        if not validate(domain, problem, steps).valid:
            return BatchEntry(pid, "invalid", result.wall_time, None, None)
        plan_path = plans_dir / f"{pid}.plan"
        plan_path.write_text(render_plan(steps))
        return BatchEntry(pid, "solved", result.wall_time, len(steps), plan_path)

    # Each plan is kept as soon as its result arrives, so an interrupted
    # batch leaves every plan solved so far on disk.
    entries: list[BatchEntry | None] = [None] * len(problem_paths)
    if runs_in_process(adapter):
        for index, result in _solve_on_pool(
            adapter, domain_path, problem_paths, timeout, workers
        ):
            entries[index] = keep(problem_paths[index], result)
    else:
        def work(problem_path: Path) -> BatchEntry:
            result = solve(adapter, domain_path, problem_path, timeout=timeout)
            return keep(problem_path, result)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(work, problem_paths))

    if log_path is not None:
        with open(log_path, "a") as log:
            log.write(f"# plan adapter={adapter.name} problems={len(problem_paths)}\n")
            for entry in entries:
                length = entry.plan_length if entry.plan_length is not None else "-"
                log.write(
                    f"{entry.problem_id} {entry.status} {entry.wall_time:.3f} {length}\n"
                )
            tally = Counter(entry.status for entry in entries)
            counts = " ".join(f"{k}={v}" for k, v in sorted(tally.items()))
            log.write(f"# done {counts}\n")
    return entries


def _solve_on_pool(
    adapter: PlannerAdapter,
    domain_path: str | Path,
    problem_paths: list[Path],
    timeout: float,
    workers: int,
) -> Iterator[tuple[int, SolveResult]]:
    """``solve`` every problem on up to ``workers`` spawned processes,
    yielding (problem index, result) as each result arrives.

    Workers are children of this process and are joined before the last
    result is yielded, so their CPU time is this process's children's.  A
    worker that has not answered ``_KILL_GRACE_S`` past the timeout is
    killed with the rest of its pool and its problem is reported
    ``timeout``; a worker that dies takes its pool down and its problem is
    ``crashed``.  Either way the other problems in flight are submitted
    again to a fresh pool.
    """
    todo = deque(range(len(problem_paths)))
    job = functools.partial(solve, adapter, domain_path, timeout=timeout)
    context = multiprocessing.get_context("spawn")
    try:
        while todo:
            size = min(workers, len(todo))
            with ProcessPoolExecutor(size, mp_context=context) as pool:
                yield from _drain(
                    pool, size, job, problem_paths, todo, timeout + _KILL_GRACE_S
                )
    finally:
        # Starting a spawned process also started multiprocessing's resource
        # tracker, a helper that would outlive this call; stop and reap it
        # like the workers.  No public way to do so exists.
        resource_tracker._resource_tracker._stop()


def _drain(
    pool: ProcessPoolExecutor,
    size: int,
    job: Callable[[Path], SolveResult],
    problem_paths: list[Path],
    todo: deque,
    limit: float,
) -> Iterator[tuple[int, SolveResult]]:
    """Run ``job`` on the problems indexed by ``todo``, ``size`` at a time,
    yielding (index, result) as results arrive.

    At most one problem per worker is in flight, so a problem's clock starts
    when it is submitted.  When a problem has gone ``limit`` seconds without
    an answer, or a worker died, the pool's workers are killed, the problems
    still in flight go back to the front of ``todo`` and this returns.
    """
    running: dict = {}  # future -> (problem index, submitted at)
    while todo or running:
        try:
            while todo and len(running) < size:
                future = pool.submit(job, problem_paths[todo[0]])
                running[future] = (todo.popleft(), time.monotonic())
        except BrokenProcessPool:
            if not running:
                return  # a worker died idle; the rest go to a fresh pool
        oldest = min(t0 for _, t0 in running.values())
        done, _ = wait(
            running, max(0.0, oldest + limit - time.monotonic()), FIRST_COMPLETED
        )
        broken = False
        for future in done:
            index, t0 = running.pop(future)
            try:
                result = future.result()
            except BrokenProcessPool as err:
                broken = True
                result = SolveResult(
                    "crashed", None, "", time.monotonic() - t0, f"worker died: {err}"
                )
            yield index, result
        now = time.monotonic()
        overdue = [f for f, (_, t0) in running.items() if now - t0 >= limit]
        for future in overdue:
            index, t0 = running.pop(future)
            yield index, SolveResult(
                "timeout", None, "", now - t0, f"worker killed after {limit}s"
            )
        if broken or overdue:
            todo.extendleft(sorted((i for i, _ in running.values()), reverse=True))
            # ProcessPoolExecutor has no public way to kill its workers
            # before Python 3.14.
            for process in pool._processes.values():
                process.kill()
            return
