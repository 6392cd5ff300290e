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


HEAVY_MODULES = ("requests", "jsonschema", "planforge.dpgc", "planforge.generate")


def modules_after(argv: list[str] | None) -> set[str]:
    """Which HEAVY_MODULES a fresh interpreter holds after importing the CLI
    and, unless argv is None, running it once."""
    code = (
        "import json, sys\n"
        "from planforge.cli import main\n"
        f"argv = {argv!r}\n"
        "if argv is not None:\n"
        "    main(argv)\n"
        f"print(json.dumps([m for m in {HEAVY_MODULES!r} if m in sys.modules]))\n"
    )
    src = str(assets_dir().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


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
    ]) == {"requests"}
    assert "requests" not in modules_after([
        "pipeline", "--config", str(tmp_path / "missing.json"),
        "--session", str(tmp_path / "run"),
    ])


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


def test_plan_reports_tally_and_resume(cli_session, capsys):
    assert main(["plan", "--session", str(cli_session.root)]) == 0
    out = capsys.readouterr().out
    # everything was planned by the fixture, so the rerun attempts nothing
    assert out == "planned 8/8 (attempted 0; nothing to do)\n"


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
        "error: line 23, col 5: conjunctions are not allowed in ':init'\n"
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


@pytest.mark.parametrize("flag", ["--retries", "--limit"])
def test_eval_rejects_negative_counts(tmp_path, capsys, flag):
    dataset = tmp_path / "val.json"
    dataset.write_text(json.dumps([{"instruction": "x", "input": "y", "output": "z"}]))
    with pytest.raises(SystemExit) as exit_info:
        main([
            "eval", "--dataset", str(dataset), "--endpoint", "http://localhost:1/x",
            "--out", str(tmp_path / "r"), flag, "-1",
        ])
    assert exit_info.value.code == 1
    assert f"argument {flag}: must be zero or more, not -1" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_eval_rejects_malformed_datasets(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    code = main([
        "eval", "--dataset", str(empty), "--endpoint", "http://localhost:1/x",
        "--out", str(tmp_path / "r"),
    ])
    assert code == 2
    assert "expected a non-empty array" in capsys.readouterr().err

    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps([{"instruction": "x", "input": ""}]))
    code = main([
        "eval", "--dataset", str(partial), "--endpoint", "http://localhost:1/x",
        "--out", str(tmp_path / "r"),
    ])
    assert code == 2
    assert "record 0 is missing a required field" in capsys.readouterr().err


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
