from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from multiprocessing import resource_tracker
from pathlib import Path

import pytest

from conftest import CASCADE, EDGES, EDGES_PROBLEM, MICRO_PLAN, make_stub_adapter
from oracle import literal_bfs, sim_reachable_count, sim_shortest_plan, sim_validate
from planforge import assets_dir, drivers
from planforge.cli import main
from planforge.drivers import (
    AdapterError,
    ExpansionBudgetExceeded,
    NormalizationError,
    PlannerAdapter,
    PlannerPool,
    load_adapters,
    normalize_output,
    plan_batch,
    reference_plan,
    runs_in_process,
    solve,
)
from planforge.dpgc import parse_config
from planforge.generate import generate_batch
from planforge.pddl.ground import static_predicates
from planforge.pddl.parser import parse_domain, parse_problem
from planforge.pool import _KILL_GRACE_S
from planforge.session import (
    Session,
    StageError,
    load_pipeline_config,
    run_pipeline,
    stage_generate,
    stage_plan,
)


def test_bundled_registry_loads():
    adapters = load_adapters()
    assert "internal" in adapters
    internal = adapters["internal"]
    assert internal.output == "file"
    assert internal.dialect == "val_native"
    assert "{python}" in internal.executable or any(
        "{python}" in a for a in internal.args
    )


def test_load_adapters_rejections(tmp_path):
    path = tmp_path / "adapters.json"

    def refused(payload, message):
        path.write_text(json.dumps(payload))
        with pytest.raises(AdapterError, match=re.escape(f"{path}: registry{message}")):
            load_adapters(path)

    refused({"planners": []}, ": error: 'adapters' is a required property")
    refused([{"adapters": []}], ": error: [{'adapters': []}] is not of type 'object'")
    refused({"adapters": ["internal"]},
            ".adapters[0]: error: 'internal' is not of type 'object'")
    refused({"adapters": [{"name": "x", "args": []}]},
            ".adapters[0]: error: 'executable' is a required property")
    entry = {"name": "x", "executable": "x", "args": []}
    refused({"adapters": [dict(entry, output="pipe")]},
            ".adapters[0].output: error: 'pipe' is not one of ['file', 'stdout']")
    refused({"adapters": [dict(entry, dialect="sexp")]},
            ".adapters[0].dialect: error: 'sexp' is not one of ['val_native', 'probe']")
    refused({"adapters": [entry, entry]}, ".adapters[1].name: error: duplicate adapter 'x'")
    refused({"adapters": [dict(entry, timeout=0)]},
            ".adapters[0].timeout: error: 0 is less than or equal to the minimum of 0")
    # every bad place at once, and other keys pass
    path.write_text(json.dumps({"note": 1, "adapters": [
        dict(entry, note=2, name=1, timeout=True), dict(entry, output="pipe")]}))
    with pytest.raises(AdapterError) as info:
        load_adapters(path)
    assert str(info.value).splitlines() == [
        f"{path}: registry.adapters[0].name: error: 1 is not of type 'string'",
        f"{path}: registry.adapters[0].timeout: error: True is not of type 'number'",
        f"{path}: registry.adapters[1].output: error: 'pipe' is not one of ['file', 'stdout']",
    ]
    missing = tmp_path / "missing.json"
    with pytest.raises(AdapterError,
                       match=re.escape(f"{missing}: registry: error: cannot read: No such file")):
        load_adapters(missing)


# The ids keep these cases' established test names; they word each rule
# rather than quote the message.
@pytest.mark.parametrize("edit, message", [
    pytest.param({"args": "abc"}, ".args: error: 'abc' is not of type 'array'",
                 id="edit0-'args' must be an array of strings"),
    pytest.param({"args": ["-d", 3]}, ".args[1]: error: 3 is not of type 'string'",
                 id="edit1-'args' must be an array of strings"),
    pytest.param({"name": 7}, ".name: error: 7 is not of type 'string'",
                 id="edit2-'name' must be a string"),
    pytest.param({"executable": ["planner"]},
                 ".executable: error: ['planner'] is not of type 'string'",
                 id="edit3-'executable' must be a string"),
    pytest.param({"timeout": float("nan")}, ".timeout: error: nan is not a finite number",
                 id="edit4-timeout must be a finite number"),
    pytest.param({"timeout": float("inf")}, ".timeout: error: inf is not a finite number",
                 id="edit5-timeout must be a finite number"),
    pytest.param({"timeout": True}, ".timeout: error: True is not of type 'number'",
                 id="edit6-timeout must be a finite number"),
    pytest.param({"timeout": "60"}, ".timeout: error: '60' is not of type 'number'",
                 id="edit7-timeout must be a finite number"),
    pytest.param({"timeout": -1},
                 ".timeout: error: -1 is less than or equal to the minimum of 0",
                 id="edit8-timeout must be positive"),    pytest.param({"timeout": 10**400}, f".timeout: error: {10**400} is not a finite number",
                 id="timeout too large for a float"),
])
def test_load_adapters_refuses_ill_typed_fields(tmp_path, edit, message):
    path = tmp_path / "adapters.json"
    good = {"name": "x", "executable": "x", "args": []}
    path.write_text(json.dumps({"adapters": [good, {**good, "name": "y", **edit}]}))
    with pytest.raises(AdapterError, match=re.escape(f"registry.adapters[1]{message}")):
        load_adapters(path)


def test_normalize_val_native_is_byte_identical():
    text = "(grasp G1 g2)\nanything at all\n"
    assert normalize_output(text, "val_native") == text


def test_normalize_probe_strips_decoration():
    text = """
; comment
Plan found with cost 3
0: (GRASP gripper1 gripper2) [1]
1.5 : (rotate-cw link2 link3 a0 a90 a90 a180)
(release gripper1 gripper2) [1.0]
Total time: 0.02
expanded 14 states
"""
    assert normalize_output(text, "probe") == (
        "(grasp gripper1 gripper2)\n"
        "(rotate-cw link2 link3 a0 a90 a90 a180)\n"
        "(release gripper1 gripper2)\n"
    )


def test_normalize_probe_rejects_unknown_lines():
    with pytest.raises(NormalizationError) as err:
        normalize_output("0: (grasp a b)\nsegfault at 0x0\n", "probe")
    assert "segfault at 0x0" in str(err)


def micro_paths(tmp_path, artic3_domain_text, micro_text):
    domain_path = tmp_path / "domain.pddl"
    problem_path = tmp_path / "problem.pddl"
    domain_path.write_text(artic3_domain_text)
    problem_path.write_text(micro_text)
    return domain_path, problem_path


def plan_unlogged(adapter, domain_path, problem_paths, plans_dir, **kwargs):
    """``plan_batch`` with its log discarded."""
    return plan_batch(adapter, domain_path, problem_paths, plans_dir,
                      log_path=os.devnull, **kwargs)


def test_solve_reads_plan_file(tmp_path, artic3_domain_text, micro_text):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    adapter = make_stub_adapter(
        tmp_path,
        f"open(OUTPUT, 'w').write({MICRO_PLAN!r})\nprint('plan found')\n",
    )
    result = solve(adapter, domain_path, problem_path)
    assert result.status == "solved"
    assert result.plan_text == MICRO_PLAN
    assert result.wall_time > 0


def test_solve_reads_stdout(tmp_path, artic3_domain_text, micro_text):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    probe = "".join(f"{i}: {step} [1]\n" for i, step in enumerate(MICRO_PLAN.splitlines()))
    adapter = make_stub_adapter(
        tmp_path, f"print({probe!r})\nprint('plan cost: 4')\n",
        output="stdout", dialect="probe",
    )
    result = solve(adapter, domain_path, problem_path)
    assert result.status == "solved"
    assert result.plan_text == MICRO_PLAN


def test_solve_validates_an_external_plan(tmp_path, artic3_domain_text, micro_text):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    adapter = make_stub_adapter(
        tmp_path, "open(OUTPUT, 'w').write('(release gripper1 gripper2)\\n')\n",
    )
    result = solve(adapter, domain_path, problem_path)
    assert result.status == "invalid"
    assert result.plan_text is None
    assert result.detail.startswith("step 0: ")


def test_solve_timeout(tmp_path, artic3_domain_text, micro_text):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    adapter = make_stub_adapter(
        tmp_path, "import time\ntime.sleep(30)\n", timeout=0.5,
    )
    result = solve(adapter, domain_path, problem_path)
    assert result.status == "timeout"
    assert result.plan_text is None
    assert "killed after" in result.detail


def _stat(pid) -> list[str] | None:
    """State, parent pid, ... of a process; None once it is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None


def _alive(pid: int) -> bool:
    """Whether a process exists and is not a zombie waiting to be reaped."""
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


def _live_children() -> list[int]:
    """Live child processes of this process, helpers included."""
    pids = [int(p.name) for p in Path("/proc").iterdir() if p.name.isdigit()]
    return [pid for pid in pids
            if _alive(pid) and (_stat(pid) or [0, 0])[1] == str(os.getpid())]


@contextlib.contextmanager
def _helper_thread(target, *args):
    """Runs ``target(*args)`` on a helper thread while the block runs on
    this one, and joins it after.  A pool forks from this thread alone, so
    the block's batch must find the workers it needs already forked."""
    helper = threading.Thread(target=target, args=args)
    helper.start()
    try:
        yield
    finally:
        helper.join(timeout=60)
    assert not helper.is_alive()


def _kill_workers_once_kept(plan_file: Path, seen: list) -> None:
    """Waits until ``plan_file`` is kept, then kills every worker from
    outside, as the kernel's out-of-memory killer would; ``seen`` gets the
    plan's text and the workers' pids."""
    deadline = time.monotonic() + 30
    while not plan_file.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    seen.append(plan_file.read_text())
    seen.append(_live_children())
    for worker in seen[1]:
        os.kill(worker, signal.SIGKILL)


def _nothing_outlives_the_pool() -> None:
    """No worker, helper process or resource tracker of this process is left."""
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None
    if Path("/proc/self/stat").exists():
        assert _live_children() == []


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_solve_timeout_kills_the_planners_children(tmp_path, artic3_domain_text,
                                                   micro_text):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    pids = tmp_path / "pids"
    # the shell leaves a background child holding its stdout
    adapter = PlannerAdapter(
        name="forks", executable="sh",
        args=("-c", 'sleep 30 & echo $$ $! > "$0"; wait', str(pids),
              "{domain}", "{problem}", "{output}"),
        timeout=0.5,
    )
    start = time.monotonic()
    result = solve(adapter, domain_path, problem_path)
    assert result.status == "timeout"
    assert time.monotonic() - start < 5
    group = [int(pid) for pid in pids.read_text().split()]
    deadline = time.monotonic() + 5
    while any(_alive(pid) for pid in group) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in group if _alive(pid)]


def test_solve_no_solution_marker_wins_over_exit_code(tmp_path, artic3_domain_text,
                                                      micro_text):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    adapter = make_stub_adapter(
        tmp_path, "print('goal is UNREACHABLE')\nsys.exit(12)\n",
    )
    result = solve(adapter, domain_path, problem_path)
    assert result.status == "no_solution"


def test_solve_nonzero_exit_is_crashed(tmp_path, artic3_domain_text, micro_text):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    adapter = make_stub_adapter(tmp_path, "sys.exit(3)\n")
    result = solve(adapter, domain_path, problem_path)
    assert result.status == "crashed"
    assert "exit code 3" in result.detail


def test_solve_missing_output_file_is_crashed(tmp_path, artic3_domain_text, micro_text):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    adapter = make_stub_adapter(tmp_path, "print('ok')\n")
    result = solve(adapter, domain_path, problem_path)
    assert result.status == "crashed"
    assert "wrote no plan file" in result.detail


def test_solve_garbage_output_is_crashed(tmp_path, artic3_domain_text, micro_text):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    adapter = make_stub_adapter(
        tmp_path, "open(OUTPUT, 'w').write('!!corrupted!!\\n')\n",
    )
    result = solve(adapter, domain_path, problem_path)
    assert result.status == "crashed"


def test_solve_missing_executable_is_crashed(tmp_path, artic3_domain_text, micro_text):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    adapter = make_stub_adapter(tmp_path, "pass\n")
    adapter = type(adapter)(
        name=adapter.name, executable="/nonexistent/planner", args=adapter.args,
        output=adapter.output, dialect=adapter.dialect, timeout=adapter.timeout,
    )
    result = solve(adapter, domain_path, problem_path)
    assert result.status == "crashed"
    assert "spawn failure" in result.detail


# The bundled command run as a subprocess: ``executable`` is a literal path,
# so runs_in_process is false for it.
def subprocess_refplan(extra_args=()):
    internal = load_adapters()["internal"]
    return dataclasses.replace(
        internal, name="refplan-subprocess", executable=sys.executable,
        args=internal.args + tuple(extra_args),
    )


def test_only_the_bundled_command_runs_in_process():
    assert runs_in_process(load_adapters()["internal"])
    assert not runs_in_process(subprocess_refplan())
    assert not runs_in_process(load_adapters()["probe"])


@pytest.mark.usefixtures("src_on_pythonpath")
def test_in_process_statuses_match_the_subprocess_protocol(
    tmp_path, artic3_domain_text, micro_text, monkeypatch
):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    goal_at = micro_text.index("(:goal")
    unsolvable = tmp_path / "unsolvable.pddl"
    unsolvable.write_text(
        micro_text[:goal_at] + "(:goal (and (held) (free gripper1))))\n"
    )
    internal = load_adapters()["internal"]
    external = subprocess_refplan()

    def both(problem, **kwargs):
        inner = solve(internal, domain_path, problem, **kwargs)
        outer = solve(external, domain_path, problem, **kwargs)
        assert inner.status == outer.status
        assert inner.plan_text == outer.plan_text
        return inner

    solved = both(problem_path)
    assert solved.status == "solved"
    assert solved.plan_text == MICRO_PLAN
    assert both(unsolvable).status == "no_solution"
    assert both(problem_path, timeout=1e-6).status == "timeout"

    # budget: refplan exits 4, the in-process search raises
    budget = solve(subprocess_refplan(["--max-expansions", "2"]),
                   domain_path, problem_path)
    assert budget.status == "crashed" and "exit code 4" in budget.detail
    monkeypatch.setattr(drivers, "reference_plan",
                        functools.partial(reference_plan, max_expansions=2))
    inner = solve(internal, domain_path, problem_path)
    assert inner.status == "crashed" and "expansion budget" in inner.detail


@pytest.mark.usefixtures("src_on_pythonpath")
@pytest.mark.parametrize("placeholder", ["{output}", "{python}", "{problem}"])
def test_a_path_that_holds_a_placeholder_reaches_the_planner_as_it_is(
    tmp_path, artic3_domain_text, micro_text, placeholder
):
    inputs = tmp_path / placeholder
    inputs.mkdir()
    domain_path, problem_path = micro_paths(inputs, artic3_domain_text, micro_text)
    result = solve(subprocess_refplan(), domain_path, problem_path)
    assert (result.status, result.detail) == ("solved", "")
    assert result.plan_text == MICRO_PLAN


def test_reference_plan_finds_shortest(artic3, micro):
    plan = reference_plan(artic3, micro)
    expected = sim_shortest_plan(artic3, micro)
    assert len(plan) == len(expected) == 4
    valid, kind, step = sim_validate(artic3, micro, plan)
    assert valid, (kind, step)


def test_reference_plan_deterministic(artic3, micro):
    assert reference_plan(artic3, micro) == reference_plan(artic3, micro)


def test_reference_plan_empty_for_satisfied_goal(artic3, micro, micro_plan_text):
    from planforge.plans import validate

    outcome = validate(artic3, micro, micro_plan_text)
    import dataclasses

    solved = dataclasses.replace(micro, init=outcome.final_state)
    assert reference_plan(artic3, solved) == []


def test_reference_plan_proves_unsolvability(artic3, micro_text):
    # no reachable state holds the chain while a gripper is free
    goal_at = micro_text.index("(:goal")
    impossible = micro_text[:goal_at] + "(:goal (and (held) (free gripper1))))\n"
    problem = parse_problem(impossible, artic3)
    assert reference_plan(artic3, problem) is None


def test_reference_plan_budget(artic3, micro):
    with pytest.raises(ExpansionBudgetExceeded):
        reference_plan(artic3, micro, max_expansions=2)
    with pytest.raises(TimeoutError):
        reference_plan(artic3, micro, deadline=time.monotonic() - 1)


def test_search_matches_the_literal_search_on_generated_problems(
    tmp_path, artic3, artic3m, artic3_config, artic3m_config
):
    plans = []
    for domain, config in ((artic3, artic3_config), (artic3m, artic3m_config)):
        root = tmp_path / domain.name
        generate_batch(config, domain, 15, 8, root / "problems", root / "journal.fp")
        for path in sorted((root / "problems").iterdir()):
            problem = parse_problem(path.read_text(), domain)
            plan = reference_plan(domain, problem)
            assert plan == literal_bfs(domain, problem), path.name
            plans.append(plan)
    assert len(plans) == 30
    assert any(len(plan) > 1 for plan in plans)


def test_search_matches_the_literal_search_on_thirty_problems_per_domain(
    tmp_path, artic3, artic3m, artic3_config, artic3m_config
):
    # a domain's problems share one corpus shape, so all but the first are
    # searched on the compiled candidates of the first one's grounding
    for domain, config in ((artic3, artic3_config), (artic3m, artic3m_config)):
        root = tmp_path / domain.name
        generate_batch(config, domain, 30, 12, root / "problems", root / "journal.fp")
        paths = sorted((root / "problems").iterdir())
        assert len(paths) == 30
        lengths = []
        for path in paths:
            problem = parse_problem(path.read_text(), domain)
            plan = reference_plan(domain, problem)
            assert plan == literal_bfs(domain, problem), path.name
            lengths.append(len(plan))
        assert max(lengths) > 1


def test_search_matches_the_literal_search_on_conditional_effects():
    # (q) is static, so its branch is folded away or made unconditional;
    # the branches on (p) and (r) stay conditional
    domain = parse_domain(CASCADE)
    outcomes = []
    for init in ("", "(p)", "(p) (q)", "(p) (r)", "(p) (q) (r)", "(q) (r)"):
        for goal in ("(s)", "(and (r) (not (p)))", "(and (p) (s))", "(not (p))"):
            problem = parse_problem(
                f"(define (problem c) (:domain cascade) (:objects) (:init {init}) "
                f"(:goal {goal}))",
                domain,
            )
            plan = reference_plan(domain, problem)
            assert plan == literal_bfs(domain, problem), (init, goal)
            outcomes.append(None if plan is None else len(plan))
    assert {None, 0, 1} <= set(outcomes)


def test_search_matches_the_literal_search_on_negative_preconditions():
    domain = parse_domain(EDGES)
    lengths = []
    for goal in ("(and (marked b1) (marked b2))", "(on h2 p3)", "(on h1 p3)"):
        problem = parse_problem(EDGES_PROBLEM.format(goal=goal), domain)
        plan = reference_plan(domain, problem)
        assert plan == literal_bfs(domain, problem), goal
        lengths.append(None if plan is None else len(plan))
    assert lengths == [2, 1, None]


# No candidate mentions (on b1 p3) or (on b2 p1), and none adds or deletes
# (marked b3), which loop tests, or (marked h2), which move-heavy's branch
# tests.  Each keeps its initial truth in every reachable state.
UNCHANGED = EDGES.replace(":equality", ":equality :conditional-effects").replace(
    "(and (on ?h ?to) (not (on ?h ?from)))",
    "(and (on ?h ?to) (not (on ?h ?from)) (when (marked ?h) (and (on ?h ?from))))",
)


@pytest.mark.parametrize("init, goal, length", [
    ("", "(on b1 p3)", 0),
    ("", "(not (on b1 p3))", None),
    ("", "(on b2 p1)", None),
    ("", "(not (on b2 p1))", 0),
    ("", "(and (on h2 p3) (on b1 p3))", 1),
    ("", "(and (on h2 p3) (not (on b1 p3)))", None),
    ("", "(and (on h2 p3) (on b2 p1))", None),
    ("", "(and (on h2 p3) (not (on b2 p1)))", 1),
    ("(marked b3)", "(marked b3)", 0),
    ("(marked b3)", "(not (marked b3))", None),
    ("", "(marked b3)", None),
    ("", "(and (on h2 p3) (not (marked b3)))", 1),
    ("(marked b2)", "(marked h1)", 1),
    ("(marked b2) (marked b3)", "(marked h1)", None),
    ("", "(and (on h2 p3) (on h2 p2))", None),
    ("(marked h2)", "(and (on h2 p3) (on h2 p2))", 1),
])
def test_search_matches_the_literal_search_on_atoms_no_candidate_changes(
    init, goal, length
):
    domain = parse_domain(UNCHANGED)
    problem = parse_problem(
        EDGES_PROBLEM.replace("(on b1 p3)", f"(on b1 p3) {init}").format(goal=goal), domain
    )
    plan = reference_plan(domain, problem)
    assert plan == literal_bfs(domain, problem)
    assert (None if plan is None else len(plan)) == length


def test_search_breaks_ties_in_candidate_order_across_filed_groups():
    # second needs only (p), which both actions need, so first is filed
    # under the rarer (q), a later bit than second's (p); both reach the goal
    domain = parse_domain("""
    (define (domain ties) (:requirements :strips) (:predicates (p) (q) (done))
      (:action first :parameters () :precondition (and (p) (q))
        :effect (and (done) (not (q))))
      (:action second :parameters () :precondition (p) :effect (and (done) (not (p)))))
    """)
    problem = parse_problem(
        "(define (problem t) (:domain ties) (:init (p) (q)) (:goal (done)))", domain
    )
    assert reference_plan(domain, problem) == literal_bfs(domain, problem) == [("first",)]


def test_an_exhausting_search_expands_every_reachable_state_once(artic3, micro_text):
    goal_at = micro_text.index("(:goal")
    artic3_unsolvable = parse_problem(
        micro_text[:goal_at] + "(:goal (and (held) (free gripper1))))\n", artic3
    )
    edges = parse_domain(EDGES)
    edges_unsolvable = parse_problem(EDGES_PROBLEM.format(goal="(on h1 p3)"), edges)
    for domain, problem in ((artic3, artic3_unsolvable), (edges, edges_unsolvable)):
        reachable = sim_reachable_count(domain, problem)
        assert reference_plan(domain, problem, max_expansions=reachable) is None
        with pytest.raises(ExpansionBudgetExceeded, match=f"[(]{reachable - 1} states"):
            reference_plan(domain, problem, max_expansions=reachable - 1)


def static_shape(domain, problem):
    statics = static_predicates(domain)
    return problem.objects, frozenset(a for a in problem.init if a[0] in statics)


def test_problems_with_varying_static_facts_miss_the_candidate_cache(tmp_path, artic3):
    # is-rotatable is static; drawn per problem, it changes the candidates
    raw = json.loads((assets_dir() / "artic3.dpgc.json").read_text())
    raw["constant_init"] = [a for a in raw["constant_init"] if "is-rotatable" not in a]
    raw["variable_init"].append({"id": "rotatable", "atoms": [
        {"predicate": "is-rotatable", "args": ["link-pool"]}]})
    config = parse_config(json.dumps(raw))
    generate_batch(config, artic3, 12, 5, tmp_path / "problems", tmp_path / "journal.fp")
    problems = [parse_problem(path.read_text(), artic3)
                for path in sorted((tmp_path / "problems").iterdir())]
    shapes = {static_shape(artic3, problem) for problem in problems}
    assert len(shapes) == 2

    drivers._compiled_candidates.cache_clear()
    plans = [reference_plan(artic3, problem) for problem in problems]
    assert drivers._compiled_candidates.cache_info().misses == len(shapes)
    assert plans == [literal_bfs(artic3, problem) for problem in problems]
    assert any(plans)


def test_problems_with_different_objects_never_share_candidates():
    domain = parse_domain(EDGES)
    alone = parse_problem(EDGES_PROBLEM.format(goal="(on h2 p3)"), domain)
    extra = parse_problem(
        EDGES_PROBLEM.replace("h1 h2 - heavy", "h1 h2 h3 - heavy")
        .replace("(on b1 p3)", "(on b1 p3) (on h3 p2)")
        .format(goal="(on h3 p3)"),
        domain,
    )
    assert static_shape(domain, alone)[1] == static_shape(domain, extra)[1]

    drivers._compiled_candidates.cache_clear()
    assert reference_plan(domain, alone) == [("move-heavy", "h2", "p2", "p3")]
    assert reference_plan(domain, extra) == [("move-heavy", "h3", "p2", "p3")]
    assert drivers._compiled_candidates.cache_info().misses == 2


def test_budget_and_deadline_on_a_cache_hit(artic3, micro):
    drivers._compiled_candidates.cache_clear()
    for _ in range(2):  # a miss, then a hit
        with pytest.raises(ExpansionBudgetExceeded):
            reference_plan(artic3, micro, max_expansions=2)
        with pytest.raises(TimeoutError):
            reference_plan(artic3, micro, deadline=time.monotonic() - 1)
    info = drivers._compiled_candidates.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    # an interrupted search leaves the shared candidates as they were
    assert reference_plan(artic3, micro) == literal_bfs(artic3, micro)


@pytest.mark.parametrize("extra_goal, solvable", [
    ("(not (= gripper1 gripper2))", True),
    ("(= link1 link1)", True),
    ("(= gripper1 gripper2)", False),
    ("(not (current-angle link3 a90))", True),
    ("(not (adjacent link2 link3))", False),
])
def test_search_matches_the_literal_search_on_static_goals(
    artic3, micro_text, extra_goal, solvable
):
    goal_at = micro_text.index("(:goal (and") + len("(:goal (and")
    problem = parse_problem(
        micro_text[:goal_at] + f" {extra_goal}" + micro_text[goal_at:], artic3
    )
    plan = reference_plan(artic3, problem)
    assert plan == literal_bfs(artic3, problem)
    assert (plan is not None) == solvable


def test_plan_batch_writes_validated_plans(tmp_path, artic3, artic3_domain_text,
                                           artic3_config, pool):
    root = tmp_path / "s"
    generate_batch(artic3_config, artic3, 6, 21,
                   root / "problems", root / "journal.fp")
    domain_path = root / "domain.pddl"
    domain_path.write_text(artic3_domain_text)
    adapters = load_adapters()
    problems = sorted((root / "problems").iterdir())
    result = plan_batch(
        adapters["internal"], domain_path, problems,
        root / "plans", pool=pool, log_path=root / "planning.log",
    )
    assert len(result) == 6
    assert [entry.status for entry in result] == ["solved"] * 6
    for problem, entry in zip(problems, result):
        assert (root / "plans" / f"{problem.stem}.plan").read_text() == entry.plan_text
        assert entry.plan_text.count("\n") >= 1
    log_lines = (root / "planning.log").read_text().splitlines()
    assert log_lines[0] == "# plan adapter=internal problems=6"
    assert log_lines[-1] == "# done solved=6"
    for line in log_lines[1:-1]:
        pid, status, wall, length = line.split()
        assert status == "solved"
        float(wall)
        int(length)


def test_plan_batch_rejects_invalid_plans(tmp_path, artic3_domain_text, micro_text, pool):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    # the stub returns a well-formed but wrong plan: preconditions fail
    adapter = make_stub_adapter(
        tmp_path, "open(OUTPUT, 'w').write('(release gripper1 gripper2)\\n')\n",
    )
    result = plan_batch(adapter, domain_path, [problem_path], tmp_path / "plans",
                        pool=pool, log_path=tmp_path / "planning.log")
    (entry,) = result
    assert entry.status == "invalid"
    assert entry.plan_text is None
    assert entry.detail.startswith("step 0: ")
    assert not list((tmp_path / "plans").iterdir())
    assert " invalid " in (tmp_path / "planning.log").read_text()


@pytest.mark.parametrize("external", [False, True], ids=["internal", "external"])
def test_a_problem_that_does_not_parse_is_crashed_and_named(
    tmp_path, artic3_domain_text, micro_text, external, pool
):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    bad = tmp_path / "bad.pddl"
    bad.write_text(micro_text.replace("(:init", "(:init (nope)", 1))
    adapter = load_adapters()["internal"]
    if external:
        adapter = make_stub_adapter(tmp_path, f"open(OUTPUT, 'w').write({MICRO_PLAN!r})\n")
    crashed, solved = plan_unlogged(adapter, domain_path, [bad, problem_path],
                                    tmp_path / "plans", pool=pool)
    assert crashed.status == "crashed"
    assert crashed.detail.startswith(f"{bad}: line ")
    assert "unknown predicate 'nope'" in crashed.detail
    assert (solved.status, solved.plan_text) == ("solved", MICRO_PLAN)
    assert [p.name for p in (tmp_path / "plans").iterdir()] == ["problem.plan"]


def test_solve_names_a_domain_it_cannot_read(tmp_path, artic3_domain_text, micro_text):
    _, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    missing = tmp_path / "missing.pddl"
    result = solve(load_adapters()["internal"], missing, problem_path)
    assert result.status == "crashed"
    assert result.detail == f"{missing}: cannot read: No such file or directory"


def test_the_batch_process_neither_parses_problems_nor_validates(
    tmp_path, artic3_domain_text, micro_text, monkeypatch, pool
):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    calls = []

    def counted(name):
        original = getattr(drivers, name)

        def count(*args):
            calls.append(name)
            return original(*args)
        return count

    for name in ("parse_problem", "validate"):
        monkeypatch.setattr(drivers, name, counted(name))
    stub = make_stub_adapter(tmp_path, f"open(OUTPUT, 'w').write({MICRO_PLAN!r})\n")
    for adapter in (load_adapters()["internal"], stub):
        (entry,) = plan_unlogged(adapter, domain_path, [problem_path],
                                 tmp_path / adapter.name, pool=pool)
        assert entry.status == "solved"
    assert calls == []


@pytest.mark.parametrize("output", ["file", "stdout"])
def test_output_that_is_not_utf8_is_crashed_and_the_worker_stays(
    tmp_path, artic3_domain_text, micro_text, output
):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    workers = tmp_path / "workers"
    out = "sys.stdout.buffer" if output == "stdout" else "open(OUTPUT, 'wb')"
    # each planner notes its parent, the pool worker that runs it
    adapter = make_stub_adapter(
        tmp_path,
        f"import os\nopen({str(workers)!r}, 'a').write(f'{{os.getppid()}}\\n')\n"
        f"{out}.write(b'\\xff(grasp)\\n')\n",
        output=output,
    )
    with PlannerPool(1) as pool:
        results = plan_unlogged(adapter, domain_path, [problem_path, problem_path],
                                tmp_path / "plans", pool=pool)
    assert [r.status for r in results] == ["crashed", "crashed"]
    assert all("'utf-8' codec can't decode byte 0xff" in r.detail for r in results)
    assert all(r.wall_time > 0 for r in results)
    first, second = workers.read_text().split()
    assert first == second
    assert not (tmp_path / "plans" / "problem.plan").exists()
    _nothing_outlives_the_pool()


def test_plan_batch_parallel_matches_sequential(tmp_path, artic3, artic3_domain_text,
                                                artic3_config, pool):
    root = tmp_path / "s"
    generate_batch(artic3_config, artic3, 8, 33,
                   root / "problems", root / "journal.fp")
    domain_path = root / "domain.pddl"
    domain_path.write_text(artic3_domain_text)
    adapters = load_adapters()
    problems = sorted((root / "problems").iterdir())
    seq = plan_unlogged(adapters["internal"], domain_path, problems,
                        root / "plans-seq", pool=pool)
    with PlannerPool(4) as pool:
        par = plan_unlogged(adapters["internal"], domain_path, problems,
                            root / "plans-par", pool=pool)
    for problem in problems:
        plan = f"{problem.stem}.plan"
        assert (root / "plans-seq" / plan).read_text() == (
            root / "plans-par" / plan).read_text()
    assert [e.plan_text for e in seq] == [e.plan_text for e in par]


@pytest.mark.usefixtures("src_on_pythonpath")
def test_plan_batch_in_process_matches_subprocess(tmp_path, artic3, artic3_domain_text,
                                                  artic3_config):
    root = tmp_path / "s"
    generate_batch(artic3_config, artic3, 6, 57,
                   root / "problems", root / "journal.fp")
    domain_path = root / "domain.pddl"
    domain_path.write_text(artic3_domain_text)
    problems = sorted((root / "problems").iterdir())
    # one pool serves both batches, and nothing of it outlives its close
    with PlannerPool(2) as pool:
        pooled = plan_unlogged(load_adapters()["internal"], domain_path, problems,
                               root / "plans-pool", pool=pool)
        spawned = plan_unlogged(subprocess_refplan(), domain_path, problems,
                                root / "plans-subprocess", pool=pool)
    assert [e.status for e in pooled] == [e.status for e in spawned]
    assert any(e.status == "solved" for e in pooled)
    for problem, ours in zip(problems, pooled):
        if ours.plan_text is not None:
            plan = f"{problem.stem}.plan"
            assert (root / "plans-pool" / plan).read_bytes() == (
                root / "plans-subprocess" / plan).read_bytes()
    _nothing_outlives_the_pool()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_plan_batch_kills_a_stuck_worker(tmp_path, artic3_domain_text, micro_text, pool):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    # opening a named pipe nobody writes to blocks the worker before search
    stuck = tmp_path / "stuck.pddl"
    os.mkfifo(stuck)
    timeout = 0.5
    start = time.monotonic()
    result = plan_unlogged(load_adapters()["internal"], domain_path, [stuck, problem_path],
                           tmp_path / "plans", timeout=timeout, pool=pool)
    elapsed = time.monotonic() - start
    stuck_entry, micro_entry = result
    assert stuck_entry.status == "timeout"
    assert timeout + _KILL_GRACE_S <= stuck_entry.wall_time
    assert stuck_entry.wall_time < timeout + _KILL_GRACE_S + 1
    # the problem still pending ran on a fresh worker
    assert micro_entry.status == "solved"
    assert elapsed < timeout + _KILL_GRACE_S + 10
    pool.close()
    _nothing_outlives_the_pool()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_plan_batch_keeps_plans_and_survives_a_killed_worker(
    tmp_path, artic3_domain_text, micro_text, pool
):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    stuck = tmp_path / "stuck.pddl"
    os.mkfifo(stuck)
    internal = load_adapters()["internal"]
    seen = []
    with _helper_thread(_kill_workers_once_kept, tmp_path / "plans" / "problem.plan", seen):
        solved, killed = plan_unlogged(internal, domain_path, [problem_path, stuck],
                                       tmp_path / "plans", timeout=60, pool=pool)
    # the first plan was on disk while the batch was still running
    assert seen[0] == MICRO_PLAN
    assert (solved.status, killed.status) == ("solved", "crashed")
    pool.close()
    _nothing_outlives_the_pool()


def test_one_pool_plans_as_one_pool_per_batch(tmp_path, artic3, artic3m,
                                              artic3_domain_text, artic3_config,
                                              artic3m_config):
    root = tmp_path / "s"
    generate_batch(artic3_config, artic3, 6, 5, root / "a" / "problems",
                   root / "a" / "journal.fp")
    generate_batch(artic3m_config, artic3m, 3, 5, root / "m" / "problems",
                   root / "m" / "journal.fp")
    (root / "a" / "domain.pddl").write_text(artic3_domain_text)
    (root / "m" / "domain.pddl").write_text((assets_dir() / "artic3m.pddl").read_text())
    artic3_problems = sorted((root / "a" / "problems").iterdir())
    # artic3, then artic3m, then artic3 again, each with its own timeout
    batches = [("a", artic3_problems[:3], 30.0), ("m", None, 20.0),
               ("a", artic3_problems[3:], 40.0)]
    internal = load_adapters()["internal"]

    def plan_all(out, pool_of):
        results = []
        for name, problems, timeout in batches:
            problems = problems or sorted((root / name / "problems").iterdir())
            with pool_of() as pool:
                results += plan_unlogged(internal, root / name / "domain.pddl", problems,
                                         out / name, timeout=timeout, pool=pool)
        return results

    with PlannerPool(2) as shared:
        reused = plan_all(tmp_path / "shared", lambda: contextlib.nullcontext(shared))
    fresh = plan_all(tmp_path / "fresh", lambda: PlannerPool(2))
    assert [e.status for e in reused] == ["solved"] * 9
    assert [e.plan_text for e in reused] == [e.plan_text for e in fresh]
    for name in ("a", "m"):
        shared_plans = sorted((tmp_path / "shared" / name).iterdir())
        assert [p.read_bytes() for p in shared_plans] == [
            (tmp_path / "fresh" / name / p.name).read_bytes() for p in shared_plans
        ]
    _nothing_outlives_the_pool()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_pool_replaces_a_killed_worker_for_the_next_batch(
    tmp_path, artic3_domain_text, micro_text
):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    stuck = tmp_path / "stuck.pddl"
    os.mkfifo(stuck)
    internal = load_adapters()["internal"]
    with PlannerPool(2) as pool:
        seen = []
        # both workers die: the one stuck on the pipe and the idle one
        with _helper_thread(_kill_workers_once_kept, tmp_path / "plans" / "problem.plan",
                            seen):
            solved, killed = plan_unlogged(internal, domain_path, [problem_path, stuck],
                                           tmp_path / "plans", timeout=60, pool=pool)
        victims = seen[1]
        assert len(victims) == 2
        assert (solved.status, killed.status) == ("solved", "crashed")
        # the idle one is dead; the pool reaps it when it next reaches it
        deadline = time.monotonic() + 30
        while any(map(_alive, victims)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(map(_alive, victims))

        others = []
        for stem in ("b", "c", "d"):
            others.append(tmp_path / f"{stem}.pddl")
            others[-1].write_text(micro_text)
        again = plan_unlogged(internal, domain_path, others, tmp_path / "plans", pool=pool)
        assert [e.status for e in again] == ["solved"] * 3
        assert len(_live_children()) <= 2
    _nothing_outlives_the_pool()


def test_closing_one_pool_leaves_another_pools_workers_alone(tmp_path):
    # in a child process, so that a close that waits on the other pool's
    # worker fails by timeout instead of hanging the suite
    script = (
        "import multiprocessing, os\n"
        "from multiprocessing import resource_tracker\n"
        "from planforge import assets_dir\n"
        "from planforge.drivers import PlannerPool, load_adapters, plan_batch\n"
        "domain = assets_dir() / 'artic3.pddl'\n"
        "problems = [assets_dir() / 'artic3_micro.pddl']\n"
        "internal = load_adapters()['internal']\n"
        f"plans = {str(tmp_path / 'plans')!r}\n"
        "with PlannerPool() as outer:\n"
        "    with PlannerPool() as inner:\n"
        "        for pool in (inner, outer):\n"
        "            plan_batch(internal, domain, problems, plans, pool=pool,\n"
        "                       log_path=os.devnull)\n"
        "    (entry,) = plan_batch(internal, domain, problems, plans, pool=outer,\n"
        "                          log_path=os.devnull)\n"
        "    assert entry.status == 'solved'\n"
        "assert multiprocessing.active_children() == []\n"
        "assert resource_tracker._resource_tracker._pid is None\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(drivers.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_batch_left_early_stops_its_busy_workers(tmp_path, monkeypatch,
                                                   artic3_domain_text, micro_text):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    stuck = tmp_path / "stuck.pddl"
    os.mkfifo(stuck)

    def full_disk(path, text):
        raise OSError("no space left on device")

    # keeping the first plan fails while the other worker is stuck on the pipe
    monkeypatch.setattr(drivers, "atomic_write", full_disk)
    start = time.monotonic()
    with PlannerPool(2) as pool, pytest.raises(OSError, match="no space left"):
        plan_unlogged(load_adapters()["internal"], domain_path, [problem_path, stuck],
                      tmp_path / "plans", timeout=60, pool=pool)
    assert time.monotonic() - start < 30
    _nothing_outlives_the_pool()


# A command that opens a pool and plans the micro problem, with planforge
# imported from this checkout.
_PLAN_MICRO = (
    "import os\n"
    "from planforge import assets_dir\n"
    "from planforge.drivers import PlannerPool, load_adapters, plan_batch\n"
    "pool = PlannerPool()\n"
    "(entry,) = plan_batch(load_adapters()['internal'], assets_dir() / 'artic3.pddl',\n"
    "                      [assets_dir() / 'artic3_micro.pddl'], 'plans', pool=pool,\n"
    "                      log_path=os.devnull)\n"
)
_SCRIPT_ENV = dict(os.environ, PYTHONPATH=str(Path(drivers.__file__).resolve().parents[1]))


def test_a_script_without_a_main_guard_can_open_a_pool(tmp_path):
    script = tmp_path / "unguarded.py"
    script.write_text(_PLAN_MICRO + "pool.close()\nprint(entry.status)\n")
    run = subprocess.run([sys.executable, str(script)], env=_SCRIPT_ENV, cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert run.stdout == "solved\n"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_killed_command_leaves_no_worker_behind(tmp_path):
    # the command prints its idle worker's pid and dies without closing its pool
    script = _PLAN_MICRO + (
        "import os, signal\n"
        "print(pool._idle[0][0].pid, flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    # files, not pipes, so that waiting for the command does not wait for its worker
    with open(out, "w") as stdout, open(err, "w") as stderr:
        run = subprocess.run([sys.executable, "-c", script], env=_SCRIPT_ENV, cwd=tmp_path,
                             stdout=stdout, stderr=stderr, timeout=60)
    assert run.returncode == -signal.SIGKILL
    worker = int(out.read_text())
    deadline = time.monotonic() + 10
    while _alive(worker) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _alive(worker)
    assert "Traceback" not in err.read_text()


def test_no_worker_prints_the_commands_pending_output(tmp_path):
    # with stdout a file and buffered, "before" is still in the command's
    # buffer when the pool forks; the exit handler below, which each worker
    # inherits, would print it again from each worker that holds a copy
    script = (
        "import atexit, sys\n"
        "atexit.register(sys.stdout.flush)\n"
        "print('before')\n"
        "from planforge import assets_dir\n"
        "from planforge.drivers import PlannerPool, load_adapters\n"
        "with PlannerPool(2) as pool:\n"
        "    ((_, result),) = pool.solve_batch(\n"
        "        load_adapters()['internal'], assets_dir() / 'artic3.pddl',\n"
        "        [assets_dir() / 'artic3_micro.pddl'], 60)\n"
        "print(result.status)\n"
    )
    env = {k: v for k, v in _SCRIPT_ENV.items() if k != "PYTHONUNBUFFERED"}
    out = tmp_path / "stdout"
    with open(out, "w") as stdout:
        subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                       stdout=stdout, check=True, timeout=60)
    assert out.read_text() == "before\nsolved\n"


def test_a_worker_leaves_the_commands_temporary_directory_alone():
    # the directory's clean-up at exit is registered before the pool forks
    with tempfile.TemporaryDirectory() as kept:
        with PlannerPool(1):
            pass
        assert Path(kept).is_dir()


def test_a_worker_leaves_the_callers_multiprocessing_children_alone(tmp_path):
    # each worker inherits multiprocessing's exit handler, which would
    # terminate the caller's daemon child and fail to join it
    script = (
        "import multiprocessing, time\n"
        "from planforge.pool import PlannerPool\n"
        "child = multiprocessing.get_context('fork').Process(\n"
        "    target=time.sleep, args=(3,), daemon=True)\n"
        "child.start()\n"
        "with PlannerPool(1):\n"
        "    pass\n"
        "child.join(0.5)\n"
        "print(child.exitcode)\n"
    )
    run = subprocess.run([sys.executable, "-c", script], env=_SCRIPT_ENV, cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout) == (0, "None\n"), run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="needs /proc")
def test_each_worker_holds_only_its_own_pipe_end(tmp_path):
    stuck = tmp_path / "stuck.pddl"
    os.mkfifo(stuck)
    # in a fresh interpreter, so that the workers inherit no socket but the
    # pool's; every worker has answered a problem before its descriptors
    # are read, then all die from outside while one is stuck on the pipe
    script = (
        "import json, os, signal, threading\n"
        "from planforge import assets_dir\n"
        "from planforge.drivers import PlannerPool, load_adapters\n"
        "internal, domain = load_adapters()['internal'], assets_dir() / 'artic3.pddl'\n"
        "with PlannerPool(3) as pool:\n"
        "    micro = assets_dir() / 'artic3_micro.pddl'\n"
        "    list(pool.solve_batch(internal, domain, [micro] * 3, 60))\n"
        "    pids = [process.pid for process, _ in pool._idle]\n"
        "    sockets = [sum(os.readlink(f'/proc/{pid}/fd/{fd}').startswith('socket:')\n"
        "                   for fd in os.listdir(f'/proc/{pid}/fd')) for pid in pids]\n"
        "    def kill_all():\n"
        f"        with open({str(stuck)!r}, 'w'):  # once a worker opened it\n"
        "            for pid in pids:\n"
        "                os.kill(pid, signal.SIGKILL)\n"
        "    killer = threading.Thread(target=kill_all)\n"
        "    killer.start()\n"
        f"    ((_, result),) = pool.solve_batch(internal, domain, [{str(stuck)!r}], 60)\n"
        "    killer.join()\n"
        "print(json.dumps([sockets, result.status, result.detail]))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], env=_SCRIPT_ENV, cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [[1, 1, 1], "crashed", "worker died with exit code -9"]


def _two_domain_config(tmp_path, **overrides) -> dict:
    """Two domains, each a few problems short of its share of the quotas,
    so that both take a top-up round."""
    config = {
        "seed": 11,
        "domains": [
            {"domain": str(assets_dir() / "artic3.pddl"),
             "dpgc": str(assets_dir() / "artic3.dpgc.json"), "count": 3},
            {"domain": str(assets_dir() / "artic3m.pddl"),
             "dpgc": str(assets_dir() / "artic3m.dpgc.json"), "count": 3},
        ],
        "quotas": {"train": 8, "val": 2},
        "workers": 2,
        **overrides,
    }
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(config))
    return load_pipeline_config(path)


def test_run_pipeline_starts_its_workers_once(tmp_path, monkeypatch):
    started = []
    start = PlannerPool._start

    def spy(pool):
        started.append(pool)
        return start(pool)

    monkeypatch.setattr(PlannerPool, "_start", spy)
    with PlannerPool(2) as pool:
        summary = run_pipeline(_two_domain_config(tmp_path), tmp_path / "run", pool)
    assert [info["rounds"] > 1 for info in summary["domains"].values()] == [True, True]
    assert len(started) == 2
    _nothing_outlives_the_pool()


def test_a_failed_pipeline_leaves_no_worker(tmp_path, monkeypatch):
    import planforge.session as session_module

    registry = tmp_path / "adapters.json"
    registry.write_text(json.dumps({"adapters": [
        {"name": "fails", "executable": "sh", "args": ["-c", "exit 1"]}]}))
    monkeypatch.setattr(session_module, "MAX_ROUNDS", 2)
    config = _two_domain_config(tmp_path, adapter="fails",
                                adapters_file=str(registry))
    with PlannerPool(2) as pool, pytest.raises(StageError, match="short after 2 round"):
        run_pipeline(config, tmp_path / "run", pool)
    _nothing_outlives_the_pool()


@pytest.mark.parametrize("fault, workers_started", [
    ("second domain does not parse", 2),
    ("config missing", 0),
    ("config refused", 0),
])
def test_no_worker_outlives_a_failed_command(tmp_path, monkeypatch, capsys, fault,
                                             workers_started):
    started = []
    start = PlannerPool._start

    def spy(pool):
        started.append(pool)
        return start(pool)

    monkeypatch.setattr(PlannerPool, "_start", spy)
    bad_domain = tmp_path / "bad.pddl"
    bad_domain.write_text("(define (domain d) (:action a :parameters () :effect (q)))")
    config = {
        "seed": 11,
        "domains": [
            {"domain": str(assets_dir() / "artic3.pddl"),
             "dpgc": str(assets_dir() / "artic3.dpgc.json"), "count": 3},
            {"domain": str(bad_domain),
             "dpgc": str(assets_dir() / "artic3m.dpgc.json"), "count": 3},
        ],
        "quotas": {"train": 2},
        "workers": 2 if fault != "config refused" else 0,
    }
    path = tmp_path / "pipeline.json"
    if fault != "config missing":
        path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["pipeline", "--config", str(path), "--session", str(tmp_path / "run")]) == 2
    named = bad_domain if fault == "second domain does not parse" else path
    assert capsys.readouterr().err.startswith(f"error: {named}: ")
    assert len(started) == workers_started
    _nothing_outlives_the_pool()


def _group_alive(pgid: int) -> bool:
    """Whether process group ``pgid`` has a live (non-zombie) member."""
    pids = [p.name for p in Path("/proc").iterdir() if p.name.isdigit()]
    return any(stat[0] != "Z" and stat[2] == str(pgid)
               for stat in map(_stat, pids) if stat is not None)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_dead_worker_leaves_its_siblings_problem_running(
    tmp_path, artic3_domain_text, micro_text
):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    other_path = tmp_path / "other.pddl"
    other_path.write_text(micro_text)
    pids = tmp_path / "pids"
    # each planner records its group, its worker and its problem, then hangs
    adapter = PlannerAdapter(
        name="hangs", executable="sh",
        args=("-c", 'echo $$ $PPID "$1" >> "$0"; sleep 30', str(pids), "{problem}"),
        timeout=2,
    )
    planners = []

    def kill_a_worker():
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and (
            not pids.exists() or len(pids.read_text().splitlines()) < 2
        ):
            time.sleep(0.01)
        planners.extend(line.split() for line in pids.read_text().splitlines())
        # a worker reports its planner's group as soon as the planner starts;
        # give that report time to arrive
        time.sleep(0.2)
        # the worker dies from outside, as under the kernel's out-of-memory killer
        os.kill(int(planners[0][1]), signal.SIGKILL)

    with PlannerPool(2) as pool:
        try:
            with _helper_thread(kill_a_worker):
                crashed, timed_out = plan_unlogged(
                    adapter, domain_path, [problem_path, other_path], tmp_path / "plans",
                    pool=pool)
            (victim, worker, victim_problem), (sibling, sibling_worker, _) = planners
            victim_alive = _group_alive(int(victim))
            sibling_alive = _group_alive(int(sibling))
        finally:
            for line in pids.read_text().splitlines() if pids.exists() else ():
                drivers._kill_group(int(line.split()[0]))
    assert worker != sibling_worker  # both planners ran at once
    if Path(victim_problem).name != problem_path.name:
        crashed, timed_out = timed_out, crashed
    assert crashed.status == "crashed"
    # the sibling got its own planner's answer, which killed the planner
    assert (timed_out.status, timed_out.detail) == ("timeout", "killed after 2s")
    assert not sibling_alive
    # the dead worker's planner was killed with it, not left to run unwatched
    assert not victim_alive
    _nothing_outlives_the_pool()


def test_torn_plan_write_leaves_no_plan_and_is_replanned(tmp_path, monkeypatch, pool):
    session = Session(tmp_path / "artic3")
    stage_generate(session, assets_dir() / "artic3.dpgc.json",
                   assets_dir() / "artic3.pddl", 3, 17)
    internal = load_adapters()["internal"]
    write_text = Path.write_text

    def torn(path, data, *args, **kwargs):
        # the disk fills up halfway through the first plan
        if path.parent == session.plans_dir:
            write_text(path, data[: len(data) // 2], *args, **kwargs)
            raise OSError("no space left on device")
        return write_text(path, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", torn)
    with pytest.raises(OSError, match="no space left"):
        stage_plan(session, internal, pool=pool)
    monkeypatch.undo()
    assert list(session.plans_dir.iterdir()) == []

    result = stage_plan(session, internal, pool=pool)
    assert result["attempted"] == 3
    assert result["planned"] == 3
    assert sorted(p.name for p in session.plans_dir.iterdir()) == [
        f"{p.stem}.plan" for p in session.problem_paths()
    ]


def test_planning_log_lists_each_plan_as_it_is_kept(tmp_path, monkeypatch, pool):
    session = Session(tmp_path / "artic3")
    stage_generate(session, assets_dir() / "artic3.dpgc.json",
                   assets_dir() / "artic3.pddl", 3, 17)
    first, *_ = session.problem_paths()
    write_text = Path.write_text
    plan_writes = []

    def fails_second(path, data, *args, **kwargs):
        if path.parent == session.plans_dir:
            plan_writes.append(path)
            if len(plan_writes) == 2:
                raise OSError("no space left on device")
        return write_text(path, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fails_second)
    with pytest.raises(OSError, match="no space left"):
        stage_plan(session, load_adapters()["internal"], pool=pool)
    monkeypatch.undo()
    assert (session.plans_dir / f"{first.stem}.plan").exists()
    lines = session.planning_log.read_text().splitlines()
    assert lines[0] == "# plan adapter=internal problems=3"
    pid, status, wall, length = lines[1].split()
    assert (pid, status) == (first.stem, "solved")
    float(wall)
    assert int(length) >= 1


@pytest.mark.skipif(shutil.which("setsid") is None, reason="needs setsid")
def test_an_escaped_planner_cannot_hang_a_batch(tmp_path, artic3_domain_text,
                                                 micro_text, pool):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    pid_file = tmp_path / "escaped.pid"
    # the sleep leaves the planner's session, out of reach of its group kill,
    # and keeps the planner's stdout open
    adapter = PlannerAdapter(
        name="escapes", executable="sh",
        args=("-c", 'setsid sleep 20 & echo $! > "$0"; wait', str(pid_file)),
        timeout=0.5,
    )
    start = time.monotonic()
    try:
        (entry,) = plan_unlogged(adapter, domain_path, [problem_path], tmp_path / "plans",
                                 pool=pool)
        elapsed = time.monotonic() - start
    finally:
        if pid_file.exists():
            try:
                os.kill(int(pid_file.read_text()), signal.SIGKILL)
            except ProcessLookupError:
                pass
    assert entry.status == "timeout"
    assert elapsed < adapter.timeout + _KILL_GRACE_S + 5
    # the planner's own timeout answered, so no worker (and no other
    # problem's planner with it) was killed
    assert entry.detail == f"killed after {adapter.timeout}s"
    pool.close()
    _nothing_outlives_the_pool()
