from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from planforge import assets_dir
from planforge.cli import main
from planforge.dataset import to_alpaca
from planforge.session import Session, collect_records

from conftest import MICRO_PLAN

ARTIC3_CONFIG = str(assets_dir() / "artic3.dpgc.json")
ARTIC3_DOMAIN = str(assets_dir() / "artic3.pddl")
MICRO_PROBLEM = str(assets_dir() / "artic3_micro.pddl")


@pytest.fixture(scope="module")
def cli_session(tmp_path_factory):
    """A session generated and planned through the CLI entry point."""
    root = tmp_path_factory.mktemp("cli") / "artic3"
    assert main([
        "gen-problems", "--config", ARTIC3_CONFIG, "--domain", ARTIC3_DOMAIN,
        "--count", "8", "--seed", "17", "--session", str(root),
    ]) == 0
    assert main(["plan", "--session", str(root)]) == 0
    return Session(root)


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 1
    out = capsys.readouterr().out
    assert "usage: planforge" in out
    assert "gen-problems" in out
    # internal helper command stays out of the advertised list
    assert "refplan" not in out


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["frobnicate"])
    assert exit_info.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["gen-problems", "--config", ARTIC3_CONFIG])
    assert exit_info.value.code == 1
    assert "error:" in capsys.readouterr().err


HEAVY_MODULES = ("planforge.evaluate", "planforge.dpgc", "planforge.generate")


def run_fresh(code: str):
    """The JSON that ``code``, run in a fresh interpreter on this checkout,
    prints last."""
    src = str(assets_dir().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(argv: list[str] | None, modules=HEAVY_MODULES) -> set[str]:
    """Which ``modules`` a fresh interpreter holds after importing the CLI
    and, unless argv is None, running it once."""
    return set(run_fresh(
        "import json, sys\n"
        "from planforge.cli import main\n"
        f"argv = {argv!r}\n"
        "if argv is not None:\n"
        "    main(argv)\n"
        f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))\n"
    ))


def test_importing_the_cli_loads_no_pddl_reader():
    # a number flag imports its kind from planforge.shape when it is read
    assert modules_after(None, ("planforge.shape", "planforge.pddl")) == set()


def test_commands_import_only_what_they_use(tmp_path):
    plan_file = tmp_path / "gold.plan"
    plan_file.write_text(MICRO_PLAN)
    split = tmp_path / "val.json"
    split.write_text(json.dumps([{
        "instruction": (assets_dir() / "artic3.pddl").read_text(),
        "input": (assets_dir() / "artic3_micro.pddl").read_text(),
        "output": MICRO_PLAN,
    }]))
    assert modules_after(None) == set()
    assert modules_after([
        "validate", "--domain", ARTIC3_DOMAIN, "--problem", MICRO_PROBLEM,
        "--plan", str(plan_file),
    ]) == set()
    assert modules_after([
        "refplan", "--domain", ARTIC3_DOMAIN, "--problem", MICRO_PROBLEM,
        "--output", str(tmp_path / "out.plan"),
    ]) == set()
    # nothing listens on port 1: every request fails fast and is scored
    assert modules_after([
        "eval", "--dataset", str(split), "--endpoint", "http://127.0.0.1:1/x",
        "--out", str(tmp_path / "report"),
    ]) == {"planforge.evaluate"}
    # the config is checked before any stage code loads
    assert modules_after([
        "pipeline", "--config", str(tmp_path / "missing.json"),
        "--session", str(tmp_path / "run"),
    ], HEAVY_MODULES + ("planforge.session",)) == set()


def modules_at_worker_starts(argv: list[str]) -> tuple[int, list[set[str]]]:
    """The exit code of one CLI run in a fresh interpreter, and the modules
    loaded at each fork: with the bundled adapter, only the pool forks, once
    per worker.  Every fork is from a single-threaded process."""
    code, loaded, threads = run_fresh(
        "import json, os, sys, threading\n"
        "from planforge.cli import main\n"
        "loaded, threads, fork = [], [], os.fork\n"
        "def spy():\n"
        "    loaded.append(sorted(sys.modules))\n"
        "    threads.append(threading.active_count())\n"
        "    return fork()\n"
        "os.fork = spy\n"
        f"print(json.dumps([main({argv!r}), loaded, threads]))\n"
    )
    assert threads == [1] * len(loaded)
    return code, [set(modules) for modules in loaded]


def test_workers_fork_with_the_planner_loaded(tmp_path):
    # every module that one in-process solve loads, planforge.drivers included
    solve_modules = set(run_fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from planforge import assets_dir\n"
        "from planforge.drivers import load_adapters, solve\n"
        "result = solve(load_adapters()['internal'], assets_dir() / 'artic3.pddl',\n"
        "               assets_dir() / 'artic3_micro.pddl')\n"
        "assert result.status == 'solved', result\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    ))
    assert "planforge.drivers" in solve_modules
    assert main(_gen_problems(tmp_path / "s")) == 0
    code, loaded = modules_at_worker_starts(
        ["plan", "--session", str(tmp_path / "s"), "--workers", "2"])
    assert (code, len(loaded)) == (0, 2)
    assert all(solve_modules <= modules for modules in loaded)
    config = tmp_path / "pipeline.json"
    raw = {
        "seed": 23,
        "domains": [{"domain": ARTIC3_DOMAIN, "dpgc": ARTIC3_CONFIG, "count": 4}],
        "quotas": {"train": 2},
        "workers": 2,
    }
    config.write_text(json.dumps(raw))
    code, loaded = modules_at_worker_starts(
        ["pipeline", "--config", str(config), "--session", str(tmp_path / "run")])
    assert (code, len(loaded)) == (0, 2)
    assert all(solve_modules <= modules for modules in loaded)
    # a refused config starts no worker
    config.write_text(json.dumps(dict(raw, workers=0)))
    assert modules_at_worker_starts(
        ["pipeline", "--config", str(config), "--session", str(tmp_path / "refused")]
    ) == (2, [])


def test_gen_problems_reports_and_skips(tmp_path, capsys):
    argv = [
        "gen-problems", "--config", ARTIC3_CONFIG, "--domain", ARTIC3_DOMAIN,
        "--count", "3", "--seed", "5", "--session", str(tmp_path / "s"),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert re.match(
        r"generated 3 problem\(s\) \(3 new, 0 replayed, \d+ trivial\) in ", out
    )
    assert main(argv) == 0
    assert capsys.readouterr().out == "up to date: 3 problem(s) already generated\n"


def test_gen_problems_stage_error_exits_2(tmp_path, capsys):
    session = str(tmp_path / "s")
    base = [
        "gen-problems", "--config", ARTIC3_CONFIG, "--domain", ARTIC3_DOMAIN,
        "--count", "2", "--session", session,
    ]
    assert main(base + ["--seed", "1"]) == 0
    capsys.readouterr()
    assert main(base + ["--seed", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "use a fresh session directory" in err


def test_gen_problems_refuses_a_session_copy_that_is_not_utf8(tmp_path, capsys):
    session = tmp_path / "s1"
    argv = ["gen-problems", "--config", ARTIC3_CONFIG, "--domain", ARTIC3_DOMAIN,
            "--count", "2", "--seed", "5", "--session", str(session)]
    assert main(argv) == 0
    (session / "domain.pddl").write_bytes(b"\xff")
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: domain.pddl already in session {session} differs from "
        f"{ARTIC3_DOMAIN}; use a fresh session directory\n"
    )


def test_gen_problems_names_a_bad_config_and_adopts_nothing(tmp_path, capsys):
    raw = json.loads(Path(ARTIC3_CONFIG).read_text())
    raw["object_pools"][0]["quantity"] = 0
    bad = tmp_path / "bad.dpgc.json"
    bad.write_text(json.dumps(raw))
    base = ["gen-problems", "--domain", ARTIC3_DOMAIN, "--count", "2", "--seed", "5",
            "--session", str(tmp_path / "s")]
    assert main(base + ["--config", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: config.object_pools[0].quantity: error: "
        "0 is less than the minimum of 1\n"
    )
    # the refused config left the session as it was, so a fixed one runs
    assert main(base + ["--config", ARTIC3_CONFIG]) == 0
    assert capsys.readouterr().out.startswith("generated 2 problem(s)")


def test_gen_problems_names_a_misfit_config_and_adopts_nothing(tmp_path, capsys):
    misfit = str(assets_dir() / "artic3m.dpgc.json")
    base = ["gen-problems", "--domain", ARTIC3_DOMAIN, "--count", "2", "--seed", "5",
            "--session", str(tmp_path / "s")]
    assert main(base + ["--config", misfit]) == 2
    assert capsys.readouterr().err == (
        f"error: {misfit}: config.domain: error: "
        "config targets domain 'artic3m', got 'artic3'\n"
    )
    # the refused config left the session as it was, so a fitting one runs
    assert main(base + ["--config", ARTIC3_CONFIG]) == 0
    assert capsys.readouterr().out.startswith("generated 2 problem(s)")


def test_plan_reports_tally_and_resume(cli_session, capsys):
    assert main(["plan", "--session", str(cli_session.root)]) == 0
    out = capsys.readouterr().out
    # everything was planned by the fixture, so the rerun attempts nothing
    assert out == "planned 8/8 (attempted 0; nothing to do)\n"


def test_a_planned_session_holds_only_its_layout(tmp_path, capsys):
    session = tmp_path / "s"
    assert main([
        "gen-problems", "--config", ARTIC3_CONFIG, "--domain", ARTIC3_DOMAIN,
        "--count", "3", "--seed", "7", "--session", str(session),
    ]) == 0
    assert main(["plan", "--session", str(session)]) == 0
    assert sorted(p.name for p in session.iterdir()) == [
        "config.dpgc.json", "domain.pddl", "journal.fp", "logs", "planning.log",
        "plans", "problems",
    ]


def test_plan_with_no_usable_plans_exits_2(tmp_path, capsys):
    session = tmp_path / "s"
    assert main([
        "gen-problems", "--config", ARTIC3_CONFIG, "--domain", ARTIC3_DOMAIN,
        "--count", "2", "--seed", "5", "--session", str(session),
    ]) == 0
    script = tmp_path / "broken.py"
    script.write_text("import sys\nsys.exit(1)\n")
    registry = tmp_path / "adapters.json"
    registry.write_text(json.dumps({"adapters": [{
        "name": "broken",
        "executable": sys.executable,
        "args": [str(script), "{domain}", "{problem}", "{output}"],
        "output": "file",
        "dialect": "val_native",
        "timeout": 5,
    }]}))
    capsys.readouterr()
    code = main([
        "plan", "--session", str(session),
        "--adapter", "broken", "--adapters", str(registry),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "planned 0/2 (attempted 2; crashed=2)\n"
    assert captured.err == "error: planner produced no usable plans\n"


def test_plan_unknown_adapter(cli_session, capsys):
    code = main(["plan", "--session", str(cli_session.root), "--adapter", "nope"])
    assert code == 2
    assert "unknown adapter 'nope'" in capsys.readouterr().err


def test_validate_accepts_the_reference_plan(tmp_path, capsys):
    plan_file = tmp_path / "gold.plan"
    plan_file.write_text(MICRO_PLAN)
    code = main([
        "validate", "--domain", ARTIC3_DOMAIN, "--problem", MICRO_PROBLEM,
        "--plan", str(plan_file),
    ])
    assert code == 0
    assert capsys.readouterr().out == "valid, 4 step(s)\n"


def test_validate_rejects_with_kind_and_step(tmp_path, capsys):
    lines = MICRO_PLAN.splitlines()
    lines[0], lines[1] = lines[1], lines[0]
    plan_file = tmp_path / "bad.plan"
    plan_file.write_text("\n".join(lines) + "\n")
    code = main([
        "validate", "--domain", ARTIC3_DOMAIN, "--problem", MICRO_PROBLEM,
        "--plan", str(plan_file),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid (precondition_failed at step 0): ")

    # a conjunction in ':init' is a positioned parse error, not a traceback
    problem_file = tmp_path / "and-init.pddl"
    problem_file.write_text(
        Path(MICRO_PROBLEM).read_text().replace("(free gripper2)", "(and)")
    )
    code = main([
        "validate", "--domain", ARTIC3_DOMAIN, "--problem", str(problem_file),
        "--plan", str(plan_file),
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {problem_file}: line 23, col 5: conjunctions are not allowed in ':init'\n"
    )

    # so is input nested deeper than the parser goes
    problem_file.write_text("(define (problem p) (:domain artic3)\n" + "(" * 3000)
    code = main([
        "validate", "--domain", ARTIC3_DOMAIN, "--problem", str(problem_file),
        "--plan", str(plan_file),
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {problem_file}: line 2, col 64: parentheses nested more than 64 deep\n"
    )


def test_assemble_audit_and_leakage(cli_session, tmp_path, capsys):
    records, _ = collect_records(cli_session)
    usable = len(records)
    assert usable >= 4
    out_dir = tmp_path / "dataset"
    code = main([
        "assemble", "--session", str(cli_session.root), "--out", str(out_dir),
        "--train", str(usable - 2), "--val", "2", "--seed", "9",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out == (
        f"dataset written to {out_dir} "
        f"(input={usable} spillover=0 train={usable - 2} val=2)\n"
    )

    assert main(["audit", "--dataset", str(out_dir)]) == 0
    assert capsys.readouterr().out == (
        f"no leakage (train.json={usable - 2} val.json=2)\n"
    )

    # plant one train record into val and the audit must fail
    train = json.loads((out_dir / "train.json").read_text())
    val = json.loads((out_dir / "val.json").read_text())
    val[0] = train[0]
    (out_dir / "val.json").write_text(json.dumps(val))
    assert main(["audit", "--dataset", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("leakage: 1 fingerprint(s) shared across files")


def test_audit_exits_2_on_a_malformed_split_file(tmp_path, capsys):
    (tmp_path / "train.json").write_text("{}")
    assert main(["audit", "--dataset", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    split = tmp_path / "train.json"
    assert captured.err == f"error: {split}: records: error: {{}} is not of type 'array'\n"
    split.write_text(json.dumps([{"instruction": "x"}]))
    assert main(["audit", "--dataset", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {split}: records[0]: error: 'input' is a required property\n"
        f"{split}: records[0]: error: 'output' is a required property\n")


def test_assemble_rejects_all_zero_quotas(cli_session, tmp_path, capsys):
    code = main([
        "assemble", "--session", str(cli_session.root),
        "--out", str(tmp_path / "d"), "--seed", "9",
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: all quotas are zero; nothing to assemble\n"
    )


def test_refplan_writes_a_valid_plan(tmp_path, capsys):
    out_file = tmp_path / "micro.plan"
    code = main([
        "refplan", "--domain", ARTIC3_DOMAIN, "--problem", MICRO_PROBLEM,
        "--output", str(out_file),
    ])
    assert code == 0
    assert capsys.readouterr().out == "plan found: 4 step(s)\n"
    validate_code = main([
        "validate", "--domain", ARTIC3_DOMAIN, "--problem", MICRO_PROBLEM,
        "--plan", str(out_file),
    ])
    assert validate_code == 0


def test_refplan_unsolvable_exits_3(tmp_path, capsys):
    micro_text = (assets_dir() / "artic3_micro.pddl").read_text()
    goal_at = micro_text.index("(:goal")
    impossible = micro_text[:goal_at] + "(:goal (and (held) (free gripper1))))\n"
    problem_file = tmp_path / "impossible.pddl"
    problem_file.write_text(impossible)
    code = main([
        "refplan", "--domain", ARTIC3_DOMAIN, "--problem", str(problem_file),
        "--output", str(tmp_path / "out.plan"),
    ])
    assert code == 3
    assert capsys.readouterr().out == (
        "unsolvable: reachable space exhausted without meeting the goal\n"
    )
    assert not (tmp_path / "out.plan").exists()


def test_refplan_budget_exits_4(tmp_path, capsys):
    code = main([
        "refplan", "--domain", ARTIC3_DOMAIN, "--problem", MICRO_PROBLEM,
        "--output", str(tmp_path / "out.plan"), "--max-expansions", "2",
    ])
    assert code == 4
    assert "2" in capsys.readouterr().err


def test_eval_scores_a_split(cli_session, tmp_path, stub_endpoint, capsys):
    records, _ = collect_records(cli_session)
    entries = to_alpaca(records[:2])
    dataset = tmp_path / "val.json"
    dataset.write_text(json.dumps(entries))

    def reply(payload):
        for entry in entries:
            if entry["input"] in payload["prompt"]:
                return {"choices": [{"text": entry["output"]}]}
        raise AssertionError("prompt did not match any record")

    server = stub_endpoint(reply)
    out_dir = tmp_path / "report"
    code = main([
        "eval", "--dataset", str(dataset), "--endpoint", server.url,
        "--out", str(out_dir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "requests: 2" in out
    assert "valid plans: 2" in out
    assert re.search(r"^mixed\s+100\.0\b", out, re.M)
    assert (out_dir / "inferences.jsonl").exists()
    assert (out_dir / "metrics.json").exists()
    assert (out_dir / "metrics.txt").exists()
    assert len((out_dir / "inferences.jsonl").read_text().splitlines()) == 2


def test_eval_limit_truncates(cli_session, tmp_path, stub_endpoint, capsys):
    records, _ = collect_records(cli_session)
    entries = to_alpaca(records[:3])
    dataset = tmp_path / "val.json"
    dataset.write_text(json.dumps(entries))
    server = stub_endpoint(lambda payload: {"choices": [{"text": "(noop)\n"}]})
    code = main([
        "eval", "--dataset", str(dataset), "--endpoint", server.url,
        "--out", str(tmp_path / "report"), "--limit", "1",
    ])
    assert code == 0
    assert "requests: 1" in capsys.readouterr().out


EVAL_ARGV = ["eval", "--dataset", "{tmp}/val.json", "--endpoint", "http://localhost:1/x",
             "--out", "{tmp}/r"]


@pytest.mark.parametrize("argv, flag, value, message", [
    pytest.param(EVAL_ARGV, "--retries", "-1", "-1 is less than the minimum of 0",
                 id="--retries"),
    pytest.param(EVAL_ARGV, "--limit", "-1", "-1 is less than the minimum of 0",
                 id="--limit"),
    pytest.param(EVAL_ARGV, "--timeout", "0",
                 "0.0 is less than or equal to the minimum of 0", id="eval--timeout"),
    pytest.param(EVAL_ARGV, "--token-budget", "-5", "-5 is less than the minimum of 1",
                 id="eval--token-budget"),
    pytest.param(EVAL_ARGV, "--token-budget", "0", "0 is less than the minimum of 1",
                 id="eval--token-budget-zero"),
    pytest.param(EVAL_ARGV, "--temperature", "nan", "nan is not a finite number",
                 id="eval--temperature-nan"),
    pytest.param(EVAL_ARGV, "--temperature", "inf", "inf is not a finite number",
                 id="eval--temperature-inf"),
    pytest.param(EVAL_ARGV, "--temperature", "-1", "-1.0 is less than the minimum of 0",
                 id="eval--temperature-negative"),
    pytest.param(["gen-problems", "--config", "c.json", "--domain", "d.pddl",
                  "--seed", "7", "--session", "{tmp}/r"],
                 "--count", "-3", "-3 is less than the minimum of 0",
                 id="gen-problems--count"),
    pytest.param(["plan", "--session", "{tmp}/r"], "--timeout", "-5",
                 "-5.0 is less than or equal to the minimum of 0", id="plan--timeout"),
    pytest.param(["plan", "--session", "{tmp}/r"], "--timeout", "0",
                 "0.0 is less than or equal to the minimum of 0", id="plan--timeout-zero"),
    pytest.param(["plan", "--session", "{tmp}/r"], "--timeout", "inf",
                 "inf is not a finite number", id="plan--timeout-inf"),
    pytest.param(["plan", "--session", "{tmp}/r"], "--workers", "0",
                 "0 is less than the minimum of 1", id="plan--workers"),
    pytest.param(["plan", "--session", "{tmp}/r"], "--workers", "1.5",
                 "'1.5' is not of type 'integer'", id="plan--workers-fraction"),
    pytest.param(["refplan", "--domain", "d.pddl", "--problem", "p.pddl",
                  "--output", "{tmp}/r"], "--max-expansions", "0",
                 "0 is less than the minimum of 1", id="refplan--max-expansions"),
    pytest.param(["assemble", "--session", "{tmp}/s", "--out", "{tmp}/r", "--seed", "1",
                  "--val", "2"], "--train", "-5", "-5 is less than the minimum of 0",
                 id="assemble--train"),
])
def test_eval_rejects_negative_counts(tmp_path, capsys, argv, flag, value, message):
    dataset = tmp_path / "val.json"
    dataset.write_text(json.dumps([{"instruction": "x", "input": "y", "output": "z"}]))
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(tmp=tmp_path) for arg in argv] + [flag, value])
    assert exit_info.value.code == 1
    assert f"argument {flag}: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_eval_rejects_malformed_datasets(tmp_path, capsys, stub_endpoint):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    code = main([
        "eval", "--dataset", str(empty), "--endpoint", "http://localhost:1/x",
        "--out", str(tmp_path / "r"),
    ])
    assert code == 2
    assert f"{empty}: records: error: expected a non-empty array" in capsys.readouterr().err

    for text, message in (
        ('[{"instruction": "x", "input": ""}]',
         "partial.json: records[0]: error: 'output' is a required property"),
        ("{\n", "partial.json: records: error: invalid JSON: Expecting property name"),
    ):
        partial = tmp_path / "partial.json"
        partial.write_text(text)
        code = main([
            "eval", "--dataset", str(partial), "--endpoint", "http://localhost:1/x",
            "--out", str(tmp_path / "r"),
        ])
        assert code == 2
        assert message in capsys.readouterr().err

    # checked before any request: the stub would answer every record
    posted = []
    server = stub_endpoint(lambda payload: posted.append(payload) or {"text": ""})
    good = {"instruction": "x", "input": "y", "output": "z"}
    pddl = {"instruction": (assets_dir() / "artic3.pddl").read_text(),
            "input": (assets_dir() / "artic3_micro.pddl").read_text(), "output": ""}
    for records, message in (
        ([good, 5], "records[1]: error: 5 is not of type 'object'"),
        ([good, ["x", "y", "z"]], "records[1]: error: ['x', 'y', 'z'] is not of type 'object'"),
        ([good, dict(good, instruction=5)],
         "records[1].instruction: error: 5 is not of type 'string'"),
        ([dict(good, output=None)], "records[0].output: error: None is not of type 'string'"),
        # every field a string, but not PDDL
        ([pddl, dict(pddl, instruction="not pddl")], "records[1]: error: line 1, col 5"),
        ([pddl, pddl, dict(pddl, input="(define")], "records[2]: error: line 1, col 1"),
    ):
        dataset = tmp_path / "typed.json"
        dataset.write_text(json.dumps(records))
        code = main([
            "eval", "--dataset", str(dataset), "--endpoint", server.url,
            "--out", str(tmp_path / "r"),
        ])
        assert code == 2
        assert f"{dataset}: {message}" in capsys.readouterr().err
    assert posted == []
    assert not (tmp_path / "r").exists()


def test_pipeline_runs_end_to_end(tmp_path, capsys):
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({
        "seed": 23,
        "domains": [
            {"domain": ARTIC3_DOMAIN, "dpgc": ARTIC3_CONFIG, "count": 6},
        ],
        "quotas": {"train": 2, "val": 2},
    }))
    session = tmp_path / "run"
    code = main(["pipeline", "--config", str(config), "--session", str(session)])
    assert code == 0
    out = capsys.readouterr().out
    assert re.search(
        r"^artic3: \d+ usable record\(s\) from \d+ problem\(s\) in \d+ round\(s\)$",
        out, re.M,
    )
    assert re.search(r"^dataset: .*train=2 val=2$", out, re.M)
    assert (session / "dataset" / "train.json").exists()


def _gen_problems(session: Path, config: str = ARTIC3_CONFIG,
                  domain: str = ARTIC3_DOMAIN) -> list[str]:
    return ["gen-problems", "--config", config, "--domain", domain,
            "--count", "2", "--seed", "1", "--session", str(session)]


@pytest.mark.parametrize("stage, text, message", [
    ("generate", "{}", "'fingerprint' is a required property"),
    ("plan", "[]", "[] is not of type 'object'"),
    ("plan", "x", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
], ids=["generate-object", "plan-array", "plan-not-json"])
def test_a_malformed_stage_marker_is_named(tmp_path, capsys, stage, text, message):
    session = tmp_path / "s"
    assert main(_gen_problems(session)) == 0
    marker = session / "logs" / f"{stage}.json"
    marker.write_text(text)
    capsys.readouterr()
    rerun = _gen_problems(session) if stage == "generate" else ["plan", "--session", str(session)]
    assert main(rerun) == 2
    assert capsys.readouterr().err == f"error: {marker}: marker: error: {message}\n"


def test_assemble_refuses_a_manifest_without_files_and_writes_nothing(
        cli_session, tmp_path, capsys):
    out = tmp_path / "dataset"
    out.mkdir()
    (out / "train.json").write_text("[]\n")
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps({"seed": "1"}))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code = main(["assemble", "--session", str(cli_session.root), "--out", str(out),
                 "--train", "2", "--val", "2", "--seed", "9"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {manifest}: manifest: error: 'files' is a required property\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("name", ["", ".", "..", "./train.json", "../train.json", "sub/x.json"],
                         ids=["empty", "dot", "dot-dot", "dot-slash", "parent", "subdirectory"])
def test_assemble_refuses_a_manifest_file_that_is_not_a_plain_name_and_writes_nothing(
        cli_session, tmp_path, capsys, name):
    out = tmp_path / "dataset"
    out.mkdir()
    (out / "train.json").write_text("[]\n")
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps({"files": {"train": "train.json", "stale": name}}))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code = main(["assemble", "--session", str(cli_session.root), "--out", str(out),
                 "--train", "2", "--seed", "9"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {manifest}: manifest.files.stale: error: "
        f"{name!r} is not a plain file name\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# Each PDDL file that does not read or parse is named in front of the error.
UNKNOWN_TYPE = "(define (problem p) (:domain artic3) (:objects a - nosuchtype) (:goal (held)))"
UNKNOWN_PREDICATE = "(define (domain d) (:predicates (p)) (:action a :parameters () :effect (q)))"


@pytest.mark.parametrize("bad, content, message", [
    ("domain", b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ("problem", UNKNOWN_TYPE.encode(), "line 1, col 38: unknown type 'nosuchtype' for object 'a'"),
    ("plan", b"grasp\n", "line 1: expected '(action args...)', got 'grasp'"),
], ids=["domain", "problem", "plan"])
def test_validate_names_the_file_it_refuses(tmp_path, capsys, bad, content, message):
    files = {"domain": ARTIC3_DOMAIN, "problem": MICRO_PROBLEM, "plan": tmp_path / "gold.plan"}
    files["plan"].write_text(MICRO_PLAN)
    files[bad] = tmp_path / f"bad.{bad}"
    files[bad].write_bytes(content)
    argv = ["validate"] + [arg for name, path in files.items() for arg in (f"--{name}", str(path))]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {files[bad]}: {message}\n"


def test_gen_problems_names_a_domain_that_does_not_parse(tmp_path, capsys):
    domain = tmp_path / "bad.pddl"
    domain.write_text(UNKNOWN_PREDICATE)
    assert main(_gen_problems(tmp_path / "s", domain=str(domain))) == 2
    assert capsys.readouterr().err == f"error: {domain}: line 1, col 72: unknown predicate 'q'\n"


def test_gen_problems_names_a_config_that_is_not_utf8(tmp_path, capsys):
    config = tmp_path / "bad.dpgc.json"
    config.write_bytes(b"{\xff}")
    assert main(_gen_problems(tmp_path / "s", config=str(config))) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: config: error: cannot read: 'utf-8' codec can't decode "
        "byte 0xff in position 1: invalid start byte\n")


def test_pipeline_names_a_domain_that_does_not_parse(tmp_path, capsys):
    domain = tmp_path / "bad.pddl"
    domain.write_text(UNKNOWN_PREDICATE)
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({
        "seed": 23,
        "domains": [{"domain": str(domain), "dpgc": ARTIC3_CONFIG, "count": 2}],
        "quotas": {"train": 1},
    }))
    assert main(["pipeline", "--config", str(config), "--session", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {domain}: line 1, col 72: unknown predicate 'q'\n"


# Every session file and input that does not read or parse is named.
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position"


def test_assemble_names_a_plan_that_is_not_utf8(tmp_path, capsys):
    session = tmp_path / "s"
    assert main(_gen_problems(session)) == 0
    plans = session / "plans"
    plans.mkdir()
    first, second = sorted((session / "problems").iterdir())
    (plans / f"{first.stem}.plan").write_text(MICRO_PLAN)
    bad = plans / f"{second.stem}.plan"
    bad.write_bytes(b"\xff")
    capsys.readouterr()
    assert main(["assemble", "--session", str(session), "--out", str(tmp_path / "d"),
                 "--train", "1", "--seed", "9"]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {NOT_UTF8} 0: invalid start byte\n"
    assert not (tmp_path / "d").exists()


def test_plan_names_a_session_domain_that_is_not_utf8(tmp_path, capsys):
    session = tmp_path / "s"
    assert main(_gen_problems(session)) == 0
    (session / "domain.pddl").write_bytes(b"\xff")
    capsys.readouterr()
    assert main(["plan", "--session", str(session)]) == 2
    assert capsys.readouterr().err == (
        f"error: {session / 'domain.pddl'}: {NOT_UTF8} 0: invalid start byte\n")
    assert not (session / "plans").exists()


def test_gen_problems_names_a_journal_that_is_not_utf8(tmp_path, capsys):
    session = tmp_path / "s"
    assert main(_gen_problems(session)) == 0
    journal = session / "journal.fp"
    with open(journal, "ab") as out:
        out.write(b"\xff\n")
    capsys.readouterr()
    top_up = _gen_problems(session)
    top_up[top_up.index("--count") + 1] = "3"
    assert main(top_up) == 2
    assert capsys.readouterr().err.startswith(f"error: {journal}: {NOT_UTF8} ")


def test_refplan_names_a_domain_that_does_not_parse(tmp_path, capsys):
    code = main(["refplan", "--domain", MICRO_PROBLEM, "--problem", MICRO_PROBLEM,
                 "--output", str(tmp_path / "out.plan")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {MICRO_PROBLEM}: line 3, col 9: expected (domain NAME)\n")
    assert not (tmp_path / "out.plan").exists()
