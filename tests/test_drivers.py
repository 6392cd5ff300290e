from __future__ import annotations

import dataclasses
import functools
import json
import multiprocessing
import os
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import MICRO_PLAN, make_stub_adapter
from oracle import sim_shortest_plan, sim_validate
from planforge import drivers
from planforge.drivers import (
    AdapterError,
    ExpansionBudgetExceeded,
    NormalizationError,
    PlannerAdapter,
    load_adapters,
    normalize_output,
    plan_batch,
    reference_plan,
    runs_in_process,
    solve,
)
from planforge.generate import generate_batch
from planforge.pddl import parse_problem


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
    def write(payload):
        path = tmp_path / "adapters.json"
        path.write_text(json.dumps(payload))
        return path

    with pytest.raises(AdapterError, match="top-level 'adapters' array"):
        load_adapters(write({"planners": []}))
    with pytest.raises(AdapterError, match="missing 'executable'"):
        load_adapters(write({"adapters": [{"name": "x", "args": []}]}))
    entry = {"name": "x", "executable": "x", "args": []}
    with pytest.raises(AdapterError, match="unknown output mode 'pipe'"):
        load_adapters(write({"adapters": [dict(entry, output="pipe")]}))
    with pytest.raises(AdapterError, match="unknown dialect 'sexp'"):
        load_adapters(write({"adapters": [dict(entry, dialect="sexp")]}))
    with pytest.raises(AdapterError, match="duplicate adapter 'x'"):
        load_adapters(write({"adapters": [entry, entry]}))
    with pytest.raises(AdapterError, match="timeout must be positive"):
        load_adapters(write({"adapters": [dict(entry, timeout=0)]}))
    with pytest.raises(AdapterError, match="cannot read adapter registry"):
        load_adapters(tmp_path / "missing.json")


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
    adapter = make_stub_adapter(
        tmp_path,
        f"print('0: (grasp gripper1 gripper2) [1]')\nprint('plan cost: 1')\n",
        output="stdout", dialect="probe",
    )
    result = solve(adapter, domain_path, problem_path)
    assert result.status == "solved"
    assert result.plan_text == "(grasp gripper1 gripper2)\n"


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


def test_plan_batch_writes_validated_plans(tmp_path, artic3, artic3_domain_text,
                                           artic3_config):
    root = tmp_path / "s"
    generate_batch(artic3_config, artic3, 6, 21,
                   root / "problems", root / "journal.fp")
    domain_path = root / "domain.pddl"
    domain_path.write_text(artic3_domain_text)
    adapters = load_adapters()
    problems = sorted((root / "problems").iterdir())
    result = plan_batch(
        adapters["internal"], artic3, domain_path, problems,
        root / "plans", log_path=root / "planning.log",
    )
    assert len(result) == 6
    assert [entry.status for entry in result] == ["solved"] * 6
    for entry in result:
        assert entry.plan_path.exists()
        assert entry.plan_length >= 1
    log_lines = (root / "planning.log").read_text().splitlines()
    assert log_lines[0] == "# plan adapter=internal problems=6"
    assert log_lines[-1] == "# done solved=6"
    for line in log_lines[1:-1]:
        pid, status, wall, length = line.split()
        assert status == "solved"
        float(wall)
        int(length)


def test_plan_batch_rejects_invalid_plans(tmp_path, artic3, artic3_domain_text,
                                          micro_text):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    # the stub returns a well-formed but wrong plan: preconditions fail
    adapter = make_stub_adapter(
        tmp_path, "open(OUTPUT, 'w').write('(release gripper1 gripper2)\\n')\n",
    )
    result = plan_batch(adapter, artic3, domain_path, [problem_path],
                        tmp_path / "plans", log_path=tmp_path / "planning.log")
    (entry,) = result
    assert entry.status == "invalid"
    assert entry.plan_path is None
    assert not list((tmp_path / "plans").iterdir())
    assert " invalid " in (tmp_path / "planning.log").read_text()


def test_plan_batch_parallel_matches_sequential(tmp_path, artic3, artic3_domain_text,
                                                artic3_config):
    root = tmp_path / "s"
    generate_batch(artic3_config, artic3, 8, 33,
                   root / "problems", root / "journal.fp")
    domain_path = root / "domain.pddl"
    domain_path.write_text(artic3_domain_text)
    adapters = load_adapters()
    problems = sorted((root / "problems").iterdir())
    seq = plan_batch(adapters["internal"], artic3, domain_path, problems,
                     root / "plans-seq")
    par = plan_batch(adapters["internal"], artic3, domain_path, problems,
                     root / "plans-par", workers=4)
    seq_plans = {e.problem_id: e.plan_path.read_text() for e in seq}
    par_plans = {e.problem_id: e.plan_path.read_text() for e in par}
    assert seq_plans == par_plans


def test_plan_batch_in_process_matches_subprocess(tmp_path, artic3, artic3_domain_text,
                                                  artic3_config):
    root = tmp_path / "s"
    generate_batch(artic3_config, artic3, 6, 57,
                   root / "problems", root / "journal.fp")
    domain_path = root / "domain.pddl"
    domain_path.write_text(artic3_domain_text)
    problems = sorted((root / "problems").iterdir())
    pooled = plan_batch(load_adapters()["internal"], artic3, domain_path, problems,
                        root / "plans-pool", workers=2)
    spawned = plan_batch(subprocess_refplan(), artic3, domain_path, problems,
                         root / "plans-subprocess", workers=2)
    assert [e.status for e in pooled] == [e.status for e in spawned]
    assert any(e.status == "solved" for e in pooled)
    for ours, theirs in zip(pooled, spawned):
        if ours.plan_path is not None:
            assert ours.plan_path.read_bytes() == theirs.plan_path.read_bytes()
    assert multiprocessing.active_children() == []
    if Path("/proc/self/stat").exists():
        assert _live_children() == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_plan_batch_kills_a_stuck_worker(tmp_path, artic3, artic3_domain_text,
                                         micro_text):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    # opening a named pipe nobody writes to blocks the worker before search
    stuck = tmp_path / "stuck.pddl"
    os.mkfifo(stuck)
    timeout = 0.5
    start = time.monotonic()
    result = plan_batch(load_adapters()["internal"], artic3, domain_path,
                        [stuck, problem_path], tmp_path / "plans", timeout=timeout)
    elapsed = time.monotonic() - start
    stuck_entry, micro_entry = result
    assert stuck_entry.status == "timeout"
    assert timeout + drivers._KILL_GRACE_S <= stuck_entry.wall_time
    assert stuck_entry.wall_time < timeout + drivers._KILL_GRACE_S + 1
    # the problem still pending ran on a fresh worker
    assert micro_entry.status == "solved"
    assert elapsed < timeout + drivers._KILL_GRACE_S + 10
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_plan_batch_keeps_plans_and_survives_a_killed_worker(
    tmp_path, artic3, artic3_domain_text, micro_text
):
    domain_path, problem_path = micro_paths(tmp_path, artic3_domain_text, micro_text)
    stuck = tmp_path / "stuck.pddl"
    os.mkfifo(stuck)
    results = []
    batch = threading.Thread(target=lambda: results.append(plan_batch(
        load_adapters()["internal"], artic3, domain_path, [problem_path, stuck],
        tmp_path / "plans", timeout=60,
    )))
    batch.start()
    # the first plan is on disk while the batch is still running
    plan_file = tmp_path / "plans" / "problem.plan"
    deadline = time.monotonic() + 30
    while not plan_file.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert plan_file.read_text() == MICRO_PLAN
    assert batch.is_alive()
    # the worker dies from outside, as under the kernel's out-of-memory killer
    for worker in multiprocessing.active_children():
        worker.kill()
    batch.join(timeout=60)
    assert not batch.is_alive()
    solved, killed = results[0]
    assert (solved.status, killed.status) == ("solved", "crashed")
    assert multiprocessing.active_children() == []
