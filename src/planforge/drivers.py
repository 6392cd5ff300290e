"""Planner orchestration: declarative adapters, a reference planner, batching.

Adapters describe external planners as command templates; every invocation is
a subprocess in its own process group with a hard timeout, and wall time is
measured here so that all planners are timed the same way.  ``solve`` alone
decides each status: an unreadable input, a nonzero exit, spawn failure or
output that cannot be decoded, normalized or parsed is ``crashed``, a recognized
no-plan message ``no_solution``, and a plan ``solved`` or ``invalid``.

The bundled ``internal`` adapter's command would run ``reference_plan`` in a
fresh interpreter per problem.  An adapter with exactly that command runs
``reference_plan`` in-process instead, with the same statuses.  ``plan_batch``
runs every solve on a ``PlannerPool`` (``planforge.pool``, re-exported here
with ``SolveResult``): child processes that a command forks once and keeps
for all its batches, each replaced alone if it hangs or dies.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter, deque
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from planforge import assets_dir, atomic_write, parse_file
from planforge.pddl.ground import (
    holds,
    iter_applicable_candidates,
    static_predicates,
)
from planforge.pddl.model import EQ, Domain, Literal, Problem, State
from planforge.pddl.parser import parse_domain, parse_problem
from planforge.plans import PlanStep, parse_plan, render_plan, validate
from planforge.pool import PlannerPool, SolveResult, _kill_group
from planforge.shape import ABOVE_ZERO, Array, Diagnostic, Object, OneOf, load, refuse

DIALECTS = ("val_native", "probe")
OUTPUT_MODES = ("file", "stdout")

_NO_PLAN_MARKERS = ("no plan", "no solution", "unsolvable", "goal is unreachable")

# The placeholders an adapter's command may hold; other braces pass through.
_PLACEHOLDER_RE = re.compile(r"\{(domain|problem|output|python)\}")

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

# Called by ``solve`` with each external planner's process group id as soon as
# the planner starts.  Only a pool worker sets it (see ``pool._work``), to send
# the id to the parent, which kills that group if it kills or reaps the worker.
_report_planner_group = None


@dataclass(frozen=True)
class PlannerAdapter:
    name: str
    executable: str
    args: tuple[str, ...]
    output: str = "file"
    dialect: str = "val_native"
    timeout: float = 60.0


# The shape of an adapter registry.
_REGISTRY = Object({"adapters": Array(Object({
    "name": "string", "executable": "string", "args": Array("string"),
    "output": OneOf(OUTPUT_MODES), "dialect": OneOf(DIALECTS), "timeout": ABOVE_ZERO,
}, ("name", "executable", "args"), open=True))}, ("adapters",), open=True)


def load_adapters(path: str | Path | None = None) -> dict[str, PlannerAdapter]:
    """Read an adapter registry; defaults to the bundled one."""
    path = Path(path) if path else assets_dir() / "adapters.json"
    data = load(path, _REGISTRY, "registry", AdapterError)
    out: dict[str, PlannerAdapter] = {}
    duplicates = []
    for i, raw in enumerate(data["adapters"]):
        if raw["name"] in out:
            duplicates.append(Diagnostic(f"registry.adapters[{i}].name",
                                         f"duplicate adapter {raw['name']!r}"))
        out[raw["name"]] = PlannerAdapter(
            name=raw["name"], executable=raw["executable"], args=tuple(raw["args"]),
            output=raw.get("output", "file"), dialect=raw.get("dialect", "val_native"),
            timeout=float(raw.get("timeout", 60.0)))
    refuse(path, duplicates, AdapterError)
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
    """Run one planner invocation with a hard timeout, and check its plan.

    The domain and the problem are read once, here.  A ValueError while
    reading or parsing them, running the planner or parsing its plan, such
    as an input that cannot be read (named by its path) or planner output
    that is not UTF-8, is ``crashed``, timed from this call's start.  A plan
    is then ``solved`` if it validates against them, else ``invalid`` with
    the validator's ``step N: ...`` as detail."""
    timeout = timeout if timeout is not None else adapter.timeout
    start = time.perf_counter()
    try:
        domain = parse_file(domain_path, parse_domain)
        problem = parse_file(problem_path, lambda text: parse_problem(text, domain))
        if runs_in_process(adapter):
            result = _solve_in_process(domain, problem, timeout)
        else:
            result = _run_planner(adapter, domain_path, problem_path, timeout)
        if result.status != "solved":
            return result
        steps = parse_plan(result.plan_text)
    except ValueError as err:
        return SolveResult("crashed", None, time.perf_counter() - start, str(err))
    outcome = validate(domain, problem, steps)
    if not outcome.valid:
        return SolveResult("invalid", None, result.wall_time, outcome.message)
    return dataclasses.replace(result, plan_text=render_plan(steps))


def _run_planner(adapter: PlannerAdapter, domain_path: str | Path,
                 problem_path: str | Path, timeout: float) -> SolveResult:
    """An external planner's result; ``solved`` holds its normalized output.
    Output that is not UTF-8 or does not normalize is a ValueError, raised
    once the planner is killed and reaped."""
    with tempfile.TemporaryDirectory(prefix="planforge-solve-") as tmp:
        output_path = Path(tmp) / "plan.out"
        mapping = {
            "domain": str(Path(domain_path).resolve()),
            "problem": str(Path(problem_path).resolve()),
            "output": str(output_path),
            "python": sys.executable,
        }
        # One pass, so that a path holding a placeholder is passed as it is.
        cmd = [_PLACEHOLDER_RE.sub(lambda m: mapping[m[1]], arg)
               for arg in (adapter.executable, *adapter.args)]
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
            return SolveResult("crashed", None, wall, f"spawn failure: {err}")
        if _report_planner_group is not None:
            _report_planner_group(proc.pid)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            stdout = None
        finally:
            _kill_group(proc.pid)  # nothing the planner started outlives it
        wall = time.perf_counter() - start
        if stdout is None:
            # Not communicate(): a process that left the planner's group can
            # hold its pipes open for as long as it lives.
            proc.stdout.close()
            proc.stderr.close()
            proc.wait()
            return SolveResult("timeout", None, wall, f"killed after {timeout}s")

        lowered = (stdout + stderr).lower()
        if any(marker in lowered for marker in _NO_PLAN_MARKERS):
            return SolveResult("no_solution", None, wall)
        if proc.returncode != 0:
            return SolveResult("crashed", None, wall, f"exit code {proc.returncode}")
        if adapter.output == "file":
            if not output_path.exists():
                return SolveResult("crashed", None, wall, "exited 0 but wrote no plan file")
            payload = output_path.read_text()
        else:
            payload = stdout
        return SolveResult("solved", normalize_output(payload, adapter.dialect), wall)


def _solve_in_process(domain: Domain, problem: Problem, timeout: float) -> SolveResult:
    """``refplan``'s protocol without its interpreter: a plan is ``solved``,
    exhaustion ``no_solution`` (exit 3), the expansion budget ``crashed``
    (exit 4), and an answer after the deadline ``timeout``, as if the
    subprocess had been killed then."""
    start = time.perf_counter()
    deadline = time.monotonic() + timeout
    status, plan_text, detail = "no_solution", None, ""
    try:
        if (plan := reference_plan(domain, problem, deadline=deadline)) is not None:
            status, plan_text = "solved", render_plan(plan)
    except TimeoutError:
        status = "timeout"
    except (ValueError, RuntimeError) as err:
        status, detail = "crashed", str(err)
    wall = time.perf_counter() - start
    if status == "timeout" or time.monotonic() > deadline:
        return SolveResult("timeout", None, wall, f"deadline of {timeout}s passed")
    return SolveResult(status, plan_text, wall, detail)


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
    deterministic candidate order of ``iter_applicable_candidates``.  Raises
    ExpansionBudgetExceeded when the search grows past ``max_expansions``
    dequeued states, and TimeoutError when ``time.monotonic()`` has passed
    ``deadline``, checked after grounding and every 64 expansions.

    The candidates come compiled from ``_compiled_candidates``, shared by
    every problem with the same objects and static facts, so a corpus is
    grounded once per process.  A state is an ``int`` holding one bit per
    fluent atom the candidates mention, so testing a candidate is two mask
    operations and a successor is ``(state & ~deletes) | adds``.  A state
    tests only the candidates filed under its bits.  Only the initial state
    and the goal are mapped per problem; a goal literal on an atom without a
    bit never changes truth, so the initial state decides it.
    """
    statics = static_predicates(domain)
    init = problem.init
    bits, filed = _compiled_candidates(
        domain, problem.objects, frozenset(a for a in init if a[0] in statics)
    )
    goal_fixed, goal_pos, goal_neg = _fold(problem.goal, bits, init)

    def is_goal(state: int) -> bool:
        return goal_fixed and state & goal_pos == goal_pos and not state & goal_neg

    start = _mask(bits.keys() & init, bits)
    if is_goal(start):
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
        # Every other candidate needs an atom this state lacks.  Sorting on
        # the grounding position restores the candidate order.
        applicable = sorted(
            candidate
            for key in (0, *_split(state))
            for candidate in filed.get(key, ())
            if state & candidate[2] == candidate[2] and not state & candidate[3]
        )
        for _, step, _, _, deletes, adds, branches in applicable:
            for when_pos, when_neg, when_deletes, when_adds in branches:
                if state & when_pos == when_pos and not state & when_neg:
                    deletes |= when_deletes
                    adds |= when_adds
            successor = (state & ~deletes) | adds
            if successor in visited:
                continue
            visited[successor] = (state, step)
            if is_goal(successor):
                steps: list[PlanStep] = []
                cursor = successor
                while visited[cursor] is not None:
                    cursor, taken = visited[cursor]
                    steps.append(taken)
                steps.reverse()
                return steps
            queue.append(successor)
    return None


@functools.lru_cache(maxsize=8)
def _compiled_candidates(
    domain: Domain, objects: tuple[tuple[str, str], ...], static_init: State
) -> tuple[dict, dict]:
    """The bit of each fluent atom, and the compiled candidates of every
    problem of ``domain`` with these objects and these initial static atoms,
    filed by bit.  Grounding and compiling read nothing else of a problem,
    so they run against a problem whose init is just those atoms.

    A candidate is (position in grounding order, plan step, mask of the
    precondition atoms that must hold, mask of those that must not,
    unconditional deletes, unconditional adds, conditional branches), built
    from its schema's template and its arguments.  Every atom that a ground
    action's precondition or effects mention gets a bit, in order of first
    mention (precondition, then each branch's condition, deletes and adds),
    unless its predicate is static or ``=``.  Grounding has checked the
    static precondition already.  A branch whose static condition fails
    never fires and is dropped; one with nothing left to test is
    unconditional.  The rest stay as masks (atoms that must hold, ones that
    must not, deletes, adds), tested on the pre-state.

    Each candidate is filed under one bit that its precondition needs set,
    the one that the fewest candidates need, or under 0 if it needs none.  A
    state can then apply only candidates filed under 0 or under one of its
    own bits: the one-level form of Fast Downward's successor generator
    (Helmert, JAIR 2006)."""
    shape = Problem("", domain.name, objects, static_init, ())
    fixed = static_predicates(domain) | {EQ}
    # Drained before compiling, so that grounding is timed on its own.
    ground = list(iter_applicable_candidates(domain, shape))
    bits: dict = {}

    def bit_of(atom: tuple[str, ...]) -> int:
        """``atom``'s bit, given on its first mention."""
        return bits.get(atom) or bits.setdefault(atom, 1 << len(bits))

    def mask(atoms, values: tuple[str, ...]) -> int:
        """The bits of a template's atoms, (predicate, term slots) each."""
        out = 0
        for pred, at in atoms:
            out |= bit_of((pred, *[values[i] for i in at]))
        return out

    def fold(literals, values: tuple[str, ...]) -> tuple[bool, int, int]:
        """``_fold`` on a template's literals, (predicate, term slots,
        positive) each: statics and ``=`` are decided on ``static_init``."""
        fires, pos, neg = True, 0, 0
        for pred, at, positive in literals:
            atom = (pred, *[values[i] for i in at])
            if pred in fixed:
                fires &= (atom[1] == atom[2] if pred == EQ else atom in static_init) == positive
            elif positive:
                pos |= bit_of(atom)
            else:
                neg |= bit_of(atom)
        return fires, pos, neg

    candidates = []
    for schema, args in ground:
        precondition, effects = schema.template
        values = args + schema.terms[schema.arity :]
        _, pos, neg = fold(precondition, values)
        deletes = adds = 0
        branches = []
        for condition, branch_adds, branch_deletes in effects:
            fires, when_pos, when_neg = fold(condition, values)
            when_deletes = mask(branch_deletes, values)
            when_adds = mask(branch_adds, values)
            if not fires:
                continue
            if when_pos or when_neg:
                branches.append((when_pos, when_neg, when_deletes, when_adds))
            else:
                deletes |= when_deletes
                adds |= when_adds
        step = (schema.name,) + args
        candidates.append((step, pos, neg, deletes, adds, tuple(branches)))
    needed = Counter(bit for candidate in candidates for bit in _split(candidate[1]))
    filed: dict = {}
    for i, candidate in enumerate(candidates):
        key = min(_split(candidate[1]), key=needed.__getitem__, default=0)
        filed.setdefault(key, []).append((i, *candidate))
    return bits, filed


def _split(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def _mask(atoms, bits: dict) -> int:
    mask = 0
    for atom in atoms:
        mask |= bits[atom]
    return mask


def _fold(
    condition: tuple[Literal, ...], bits: dict, init: State
) -> tuple[bool, int, int]:
    """A conjunction as (whether its literals on atoms without a bit hold,
    the mask of its other positive atoms, the mask of its other negative
    atoms).  An atom without a bit is static, ``=`` or one that no ground
    action mentions, so no candidate changes it and whether it holds in the
    initial state decides every state."""
    fixed_hold, pos, neg = True, 0, 0
    for literal in condition:
        bit = bits.get(literal.atom)
        if bit is None:
            fixed_hold = fixed_hold and holds(init, literal)
        elif literal.positive:
            pos |= bit
        else:
            neg |= bit
    return fixed_hold, pos, neg


def plan_batch(
    adapter: PlannerAdapter,
    domain_path: str | Path,
    problem_paths: list[Path],
    plans_dir: str | Path,
    *,
    timeout: float | None = None,
    pool: PlannerPool,
    log_path: str | Path,
) -> list[SolveResult]:
    """Solve a set of problems and keep the plans that ``solve`` found
    valid; returns one result per problem, in order.

    Every problem is solved on ``pool``'s workers, whatever the adapter (see
    ``PlannerPool``).  A worker's ``solve`` decides each status; this
    process only writes a ``solved`` result's plan whole to
    ``<problem>.plan`` as it arrives, and logs to ``log_path`` one line per
    problem: id, status, wall time, plan length (``-`` when there is none).
    """
    plans_dir = Path(plans_dir)
    plans_dir.mkdir(parents=True, exist_ok=True)
    timeout = timeout if timeout is not None else adapter.timeout

    results: list[SolveResult | None] = [None] * len(problem_paths)
    with (
        open(log_path, "a") as log,
        # Closed on the way out, so that a batch that stops early stops the
        # workers still busy with it.
        contextlib.closing(
            pool.solve_batch(adapter, domain_path, problem_paths, timeout)
        ) as arrivals,
    ):
        log.write(f"# plan adapter={adapter.name} problems={len(problem_paths)}\n")
        for index, result in arrivals:
            results[index] = result
            stem = problem_paths[index].stem
            if result.status == "solved":
                # stage_plan counts any plan file as done, so it must be whole.
                atomic_write(plans_dir / f"{stem}.plan", result.plan_text)
            length = "-" if result.plan_text is None else result.plan_text.count("\n")
            log.write(f"{stem} {result.status} {result.wall_time:.3f} {length}\n")
            log.flush()
        tally = Counter(result.status for result in results)
        counts = " ".join(f"{k}={v}" for k, v in sorted(tally.items()))
        log.write(f"# done {counts}\n")
    return results
