"""Full-scale release checks, one test per gate.

Each test exercises a whole subsystem at the advertised scale and finishes
with a single printed summary line (visible with ``pytest -s``); the -v
test listing doubles as the pass/fail sheet.
"""

from __future__ import annotations

import json
import random
import re
import sys
import time
from collections import Counter

import pytest

from conftest import MICRO_PLAN, make_stub_adapter, tasks_of
from oracle import (
    sim_apply,
    sim_applicable_sequences,
    sim_ground,
    sim_ground_all,
    sim_pstdev,
    sim_reachable_by_depth,
    sim_validate,
)
from planforge import assets_dir
from planforge.cli import main
from planforge.dataset import assemble, audit_leakage, build_records
from planforge.dpgc import load_config, parse_config
from planforge.drivers import reference_plan, solve
from planforge.evaluate import InferenceRecord, render_report, score
from planforge.generate import fingerprint_problem, generate_batch, sample_problem
from planforge.pddl.ground import PreconditionError, apply_action, ground_action_for
from planforge.pddl.parser import parse_domain, parse_problem
from planforge.plans import render_plan, validate
from planforge.session import Session, load_pipeline_config, run_pipeline

ARTIC3_DOMAIN = assets_dir() / "artic3.pddl"
ARTIC3_CONFIG = assets_dir() / "artic3.dpgc.json"
MICRO_PROBLEM = assets_dir() / "artic3_micro.pddl"

CORPUS_SEED = 424242
CORPUS_SIZE = 10_000


@pytest.fixture(scope="module")
def corpus10k(tmp_path_factory):
    """One straight 10k generation run plus an interrupted-and-resumed twin."""
    config = load_config(ARTIC3_CONFIG)
    domain = parse_domain(ARTIC3_DOMAIN.read_text())
    base = tmp_path_factory.mktemp("corpus10k")
    straight = base / "straight"
    t0 = time.monotonic()
    generate_batch(
        config, domain, CORPUS_SIZE, CORPUS_SEED,
        straight / "problems", straight / "journal.fp",
    )
    elapsed = time.monotonic() - t0
    resumed = base / "resumed"
    generate_batch(
        config, domain, CORPUS_SIZE // 2, CORPUS_SEED,
        resumed / "problems", resumed / "journal.fp",
    )
    generate_batch(
        config, domain, CORPUS_SIZE, CORPUS_SEED,
        resumed / "problems", resumed / "journal.fp",
    )
    return {"straight": straight, "resumed": resumed, "elapsed": elapsed}


@pytest.fixture(scope="module")
def corpus_inits(corpus10k, artic3):
    inits = []
    for path in sorted((corpus10k["straight"] / "problems").glob("*.pddl")):
        inits.append(parse_problem(path.read_text(), artic3).init)
    assert len(inits) == CORPUS_SIZE
    return inits


def test_criterion_01_validator_matches_exhaustive_simulation(artic3, micro):
    t0 = time.monotonic()
    sequences = [tuple(map(tuple, s))
                 for s in sim_applicable_sequences(artic3, micro, 4)]
    assert len(sequences) > 100
    signatures = [(a.name,) + a.args for a in sim_ground_all(artic3, micro)]
    rng = random.Random("acceptance-criterion-1")
    for _ in range(1_000):
        sequences.append(tuple(
            rng.choice(signatures) for _ in range(rng.randint(1, 6))
        ))

    for steps in sequences:
        expect = sim_validate(artic3, micro, steps)
        got = validate(artic3, micro, list(steps))
        assert (got.valid, got.failure_kind, got.failure_step) == expect, steps

        # the reported final state must equal the simulator's fold over the
        # prefix that executed
        state = frozenset(micro.init)
        upto = expect[2] if expect[2] is not None else len(steps)
        for step in steps[:upto]:
            action, _ = sim_ground(artic3, micro, step[0], tuple(step[1:]))
            state = sim_apply(state, action)
        assert frozenset(got.final_state) == state, steps

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 1 PASS: {len(sequences)} sequences, verdicts and final "
          f"states agree, {elapsed:.1f}s")


def test_criterion_02_conditional_effects_match_oracle(artic3, micro):
    reference = sim_ground_all(artic3, micro)
    mine = [ground_action_for(artic3, micro, a.name, a.args) for a in reference]

    layers, _ = sim_reachable_by_depth(artic3, micro, 3)
    states = set().union(*layers)
    pairs = 0
    propagated = 0
    for state in states:
        for ours, theirs in zip(mine, reference):
            expected = sim_apply(state, theirs)
            try:
                got = apply_action(state, ours)
            except PreconditionError:
                got = None
            assert got == expected, (state, (ours.name,) + ours.args)
            pairs += 1
            if (
                expected is not None
                and ours.name.startswith("rotate")
                and len(expected.symmetric_difference(state)) > 2
            ):
                propagated += 1  # a drag branch moved the downstream link too
    assert propagated > 0
    print(f"criterion 2 PASS: {len(states)} reachable states x {len(mine)} "
          f"ground actions = {pairs} transitions, 0 mismatches "
          f"({propagated} with downstream propagation)")


def test_criterion_03_uniqueness_and_byte_identical_resume(corpus10k):
    straight, resumed = corpus10k["straight"], corpus10k["resumed"]
    fingerprints = [line.split()[0]
                    for line in (straight / "journal.fp").read_text().splitlines()]
    assert len(fingerprints) == CORPUS_SIZE
    assert len(set(fingerprints)) == CORPUS_SIZE

    straight_files = sorted((straight / "problems").glob("*.pddl"))
    resumed_files = sorted((resumed / "problems").glob("*.pddl"))
    assert len(straight_files) == CORPUS_SIZE
    assert [p.name for p in straight_files] == [p.name for p in resumed_files]
    for a, b in zip(straight_files, resumed_files):
        assert a.read_bytes() == b.read_bytes(), a.name
    assert (resumed / "journal.fp").read_bytes() == \
           (straight / "journal.fp").read_bytes()

    assert corpus10k["elapsed"] < 300.0
    print(f"criterion 3 PASS: {CORPUS_SIZE} problems, 0 duplicate "
          f"fingerprints, resume byte-identical, straight run "
          f"{corpus10k['elapsed']:.1f}s")


COIN_DOMAIN = """
(define (domain coin)
  (:requirements :strips :typing)
  (:types bead)
  (:predicates (lit ?b - bead))
  (:action light
    :parameters (?b - bead)
    :precondition (and (not (lit ?b)))
    :effect (and (lit ?b))))
"""


def test_criterion_04_probability_calibration(corpus_inits):
    domain = parse_domain(COIN_DOMAIN)
    config = parse_config(json.dumps({
        "domain": "coin",
        "object_pools": [
            {"id": "beads", "type": "bead", "prefix": "bead", "quantity": 1},
        ],
        "variable_init": [
            {"id": "flip",
             "atoms": [{"predicate": "lit", "args": ["beads"],
                        "probability": 0.5}]},
        ],
        "variable_goal": [
            {"id": "target",
             "atoms": [{"predicate": "lit", "args": ["beads"]}]},
        ],
    }))
    rng = random.Random("acceptance-criterion-4")
    draws = 10_000
    hits = sum(
        ("lit", "bead1") in sample_problem(config, domain, rng)[0].init
        for _ in range(draws)
    )
    frequency = hits / draws
    assert 0.48 <= frequency <= 0.52

    weights = json.loads(ARTIC3_CONFIG.read_text())["mutex_groups"][0]["weights"]
    grasping_rate = sum(
        1 for init in corpus_inits if ("held",) in init
    ) / len(corpus_inits)
    assert abs((1 - grasping_rate) - weights[0]) <= 0.02
    assert abs(grasping_rate - weights[1]) <= 0.02
    print(f"criterion 4 PASS: p=0.5 atom emitted at {frequency:.4f}; mutex "
          f"member rate {grasping_rate:.4f} vs weight {weights[1]}")


def test_criterion_05_gripper_convention_holds_everywhere(corpus_inits):
    lone_grasps = 0
    for init in corpus_inits:
        grasping = sum(1 for atom in init if atom[0] == "grasping")
        if grasping == 1:
            lone_grasps += 1
        assert grasping in (0, 2)
        assert (("held",) in init) == (grasping == 2)
    assert lone_grasps == 0
    print(f"criterion 5 PASS: 0 of {len(corpus_inits)} problems violate the "
          "two-gripper grasp convention")


CHAIN16 = """
(define (domain {name})
  (:requirements :strips :typing)
  (:types bead)
  (:predicates (lit ?b - bead))
  (:action light
    :parameters (?b - bead)
    :precondition (and (not (lit ?b)))
    :effect (and (lit ?b))))
"""


@pytest.fixture(scope="module")
def thousand_records(tmp_path_factory):
    """500+ usable (problem, plan) records for each of two tiny domains."""
    base = tmp_path_factory.mktemp("records")
    per_domain = {}
    for name in ("chaina", "chainb"):
        root = base / name
        root.mkdir()
        domain_text = CHAIN16.format(name=name)
        domain_path = root / "domain.pddl"
        domain_path.write_text(domain_text)
        domain = parse_domain(domain_text)
        config = parse_config(json.dumps({
            "domain": name,
            "object_pools": [
                {"id": "beads", "type": "bead", "prefix": "bead",
                 "quantity": 16},
            ],
            "variable_init": [
                {"id": "start", "count": 8,
                 "atoms": [{"predicate": "lit", "args": ["beads"]}]},
            ],
            "variable_goal": [
                {"id": "finish", "count": 2,
                 "atoms": [{"predicate": "lit", "args": ["beads"]}]},
            ],
        }))
        generate_batch(config, domain, 900, f"records-{name}",
                       root / "problems", root / "journal.fp")
        plans_dir = root / "plans"
        plans_dir.mkdir()
        problems = sorted((root / "problems").glob("*.pddl"))
        for path in problems:
            problem = parse_problem(path.read_text(), domain)
            plan = reference_plan(domain, problem)
            assert plan is not None
            (plans_dir / f"{path.stem}.plan").write_text(render_plan(plan))
        records, _skipped = build_records(domain_path, problems, plans_dir)
        assert len(records) >= 500
        per_domain[name] = records
    return per_domain


def test_criterion_06_quotas_disjointness_and_revalidation(
    thousand_records, tmp_path
):
    records = thousand_records["chaina"][:500] + thousand_records["chainb"][:500]
    out = tmp_path / "dataset"
    quotas = {"train": 800, "val": 100, "test": 100}
    manifest = assemble(records, quotas, "acceptance-6", out)
    assert manifest["counts"]["train"] == 800
    assert manifest["counts"]["val"] == 100
    assert manifest["counts"]["test"] == 100

    # recheck everything from the written bytes alone
    split_fingerprints: dict[str, set[str]] = {}
    revalidated = 0
    for split, quota in quotas.items():
        entries = json.loads((out / f"{split}.json").read_text())
        assert len(entries) == quota
        fingerprints = set()
        for entry in entries:
            domain = parse_domain(entry["instruction"])
            problem = parse_problem(entry["input"], domain)
            fingerprints.add(fingerprint_problem(problem))
            assert validate(domain, problem, entry["output"]).valid
            revalidated += 1
        split_fingerprints[split] = fingerprints
    for a, b in (("train", "val"), ("train", "test"), ("val", "test")):
        assert not split_fingerprints[a] & split_fingerprints[b]
    assert audit_leakage(out).clean

    # a two-domain validation split divides exactly in half
    manifest2 = assemble(records, {"val": 1000}, "acceptance-6b",
                         tmp_path / "val_only")
    assert manifest2["splits"]["val"]["per_domain"] == {
        "chaina": 500, "chainb": 500,
    }
    entries = json.loads((tmp_path / "val_only" / "val.json").read_text())
    by_domain = Counter(parse_domain(e["instruction"]).name for e in entries)
    assert by_domain == {"chaina": 500, "chainb": 500}
    print(f"criterion 6 PASS: 800/100/100 exact, pairwise disjoint, "
          f"{revalidated}/1000 outputs revalidate, two-domain val 500/500")


@pytest.mark.usefixtures("src_on_pythonpath")
def test_criterion_07_planner_driver_robustness(tmp_path, artic3, micro, pool):
    # one stub planner per failure mode
    ok = make_stub_adapter(
        tmp_path, f"open(OUTPUT, 'w').write({MICRO_PLAN!r})\n", name="ok")
    slow = make_stub_adapter(
        tmp_path, "import time\ntime.sleep(30)\n", name="slow", timeout=0.5)
    crash = make_stub_adapter(
        tmp_path, "import sys\nsys.exit(3)\n", name="crash")
    garbage = make_stub_adapter(
        tmp_path, "open(OUTPUT, 'w').write('!!! nonsense\\n')\n",
        name="garbage")
    nosol = make_stub_adapter(
        tmp_path, "import sys\nprint('no solution found')\nsys.exit(12)\n",
        name="nosol")
    statuses = {
        name: solve(adapter, ARTIC3_DOMAIN, MICRO_PROBLEM).status
        for name, adapter in (("ok", ok), ("slow", slow), ("crash", crash),
                              ("garbage", garbage), ("nosol", nosol))
    }
    assert statuses == {
        "ok": "solved", "slow": "timeout", "crash": "crashed",
        "garbage": "crashed", "nosol": "no_solution",
    }

    # a decorated search trace normalizes to a valid plan
    decorated = "".join(
        f"{i} : {line} [{i + 1}]\n"
        for i, line in enumerate(MICRO_PLAN.strip().splitlines())
    )
    tracey = make_stub_adapter(
        tmp_path, f"open(OUTPUT, 'w').write({decorated!r})\n",
        name="tracey", dialect="probe")
    result = solve(tracey, ARTIC3_DOMAIN, MICRO_PROBLEM)
    assert result.status == "solved"
    verdict = validate(artic3, micro, result.plan_text)
    assert verdict.valid and verdict.message == "valid, 4 step(s)"

    # the shortfall loop recovers exact quotas after two forced timeouts
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    flaky = tmp_path / "flaky.py"
    flaky.write_text(
        "import os, sys, time\n"
        "DOMAIN, PROBLEM, OUTPUT = sys.argv[1:4]\n"
        "stem = os.path.splitext(os.path.basename(PROBLEM))[0]\n"
        f"scratch = {str(scratch)!r}\n"
        "if stem in ('artic3_000001', 'artic3_000002'):\n"
        "    marker = os.path.join(scratch, stem)\n"
        "    if not os.path.exists(marker):\n"
        "        open(marker, 'w').write('x')\n"
        "        time.sleep(10)\n"
        "os.execv(sys.executable, [sys.executable, '-m', 'planforge.cli',\n"
        "         'refplan', '--domain', DOMAIN, '--problem', PROBLEM,\n"
        "         '--output', OUTPUT])\n"
    )
    registry = tmp_path / "adapters.json"
    registry.write_text(json.dumps({"adapters": [{
        "name": "flaky",
        "executable": sys.executable,
        "args": [str(flaky), "{domain}", "{problem}", "{output}"],
        "output": "file",
        "dialect": "val_native",
        "timeout": 2,
    }]}))
    pipeline_config = tmp_path / "pipeline.json"
    pipeline_config.write_text(json.dumps({
        "seed": 777,
        "adapter": "flaky",
        "adapters_file": "adapters.json",
        "domains": [{"domain": str(ARTIC3_DOMAIN),
                     "dpgc": str(ARTIC3_CONFIG), "count": 8}],
        "quotas": {"train": 6, "val": 2},
    }))
    summary = run_pipeline(
        load_pipeline_config(pipeline_config), tmp_path / "run", pool)
    assert summary["dataset"] == {"input": summary["dataset"]["input"],
                                  "spillover": summary["dataset"]["spillover"],
                                  "train": 6, "val": 2}
    assert summary["domains"]["artic3"]["rounds"] >= 2
    assert sorted(p.name for p in scratch.iterdir()) == [
        "artic3_000001", "artic3_000002",
    ]
    assert audit_leakage(tmp_path / "run" / "dataset").clean
    print("criterion 7 PASS: 5 planner failure modes classified, trace "
          "dialect normalized and validated, quotas 6/2 restored after 2 "
          f"forced timeouts in {summary['domains']['artic3']['rounds']} rounds")


def test_criterion_08_metrics_match_hand_computation(
    artic3_domain_text, micro_text
):
    detour = (
        "(grasp gripper1 gripper2)\n"
        "(rotate-cw link2 link3 a0 a90 a90 a180)\n"
        "(rotate-cw link2 link3 a90 a180 a180 a270)\n"
        "(rotate-ccw link2 link3 a180 a90 a270 a180)\n"
        "(rotate-cw link3 link2 a180 a270 a90 a180)\n"
        "(rotate-ccw link3 link2 a270 a180 a90 a0)\n"
        "(rotate-cw link3 link2 a180 a270 a90 a180)\n"
        "(release gripper1 gripper2)\n"
    )
    outputs = [MICRO_PLAN, MICRO_PLAN, detour, "(grasp gripper1 gripper2)\n"]
    latencies = [1.0, 2.0, 3.0, 4.0]
    entries = [
        {"instruction": artic3_domain_text, "input": micro_text, "output": o}
        for o in outputs
    ]
    inferences = [
        InferenceRecord(i, "ok", latency, output)
        for i, (output, latency) in enumerate(zip(outputs, latencies))
    ]
    metrics = score(tasks_of(entries), inferences)
    mixed = metrics["mixed"]

    # by hand: 3 of 4 valid; step lengths 4, 4, 8; times 1..4
    assert mixed["validity"] == round(100 * 3 / 4, 1) == 75.0
    assert mixed["steps"]["avg"] == (4 + 4 + 8) / 3
    assert (mixed["steps"]["min"], mixed["steps"]["max"],
            mixed["steps"]["median"]) == (4, 8, 4.0)
    assert mixed["times"]["avg"] == (1 + 2 + 3 + 4) / 4
    assert (mixed["times"]["min"], mixed["times"]["max"],
            mixed["times"]["median"]) == (1, 4, 2.5)
    assert round(mixed["times"]["std"], 3) == round(sim_pstdev(latencies), 3) == 1.118

    report = render_report(metrics)
    headers = [l for l in report.splitlines() if l.startswith("Set")]
    rows = [l for l in report.splitlines() if l.startswith("mixed")]
    assert headers[0].split() == [
        "Set", "Validity", "(%)", "Avg_steps", "Min_steps", "Max_steps",
        "Median_steps",
    ]
    assert rows[0].split() == ["mixed", "75.0", "5.33", "4", "8", "4"]
    assert headers[1].split() == [
        "Set", "Avg_t", "(s)", "Min_t", "(s)", "Max_t", "(s)", "Median_t",
        "(s)", "Std_t", "(s)",
    ]
    assert rows[1].split() == [
        "mixed", "2.500", "1.000", "4.000", "2.500", "1.118",
    ]
    print("criterion 8 PASS: validity 75.0, std 1.118, both table layouts "
          "exact")


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    config = base / "pipeline.json"
    config.write_text(json.dumps({
        "seed": 20260815,
        "workers": 4,
        "domains": [{"domain": str(ARTIC3_DOMAIN),
                     "dpgc": str(ARTIC3_CONFIG), "count": 230}],
        "quotas": {"train": 160, "val": 20, "test": 20},
    }))
    root = base / "run"
    t0 = time.monotonic()
    code = main(["pipeline", "--config", str(config), "--session", str(root)])
    elapsed = time.monotonic() - t0
    assert code == 0
    return {"root": root, "elapsed": elapsed}


def test_criterion_09_end_to_end_pipeline(pipeline_run, artic3):
    root = pipeline_run["root"]
    assert pipeline_run["elapsed"] < 600.0

    dataset = root / "dataset"
    quotas = {"train": 160, "val": 20, "test": 20}
    total = 0
    for split, quota in quotas.items():
        entries = json.loads((dataset / f"{split}.json").read_text())
        assert len(entries) == quota
        for entry in entries:
            problem = parse_problem(entry["input"], artic3)
            assert validate(artic3, problem, entry["output"]).valid
        total += quota
    assert total == 200
    assert audit_leakage(dataset).clean

    plan_marker = Session(root / "artic3").read_marker("plan")
    solvable = plan_marker["planned"] / plan_marker["problems"]
    assert solvable >= 0.95
    print(f"criterion 9 PASS: 200-record dataset, every plan valid, 0 "
          f"leaks, {solvable:.1%} of {plan_marker['problems']} problems "
          f"solved, {pipeline_run['elapsed']:.0f}s")


def test_criterion_10_stub_endpoint_eval(
    pipeline_run, tmp_path, stub_endpoint, capsys
):
    val = pipeline_run["root"] / "dataset" / "val.json"
    entries = json.loads(val.read_text())

    def completion_for(payload, transform):
        for entry in entries:
            if entry["input"] in payload["prompt"]:
                return {"choices": [{"text": transform(entry["output"])}]}
        raise AssertionError("prompt matched no dataset record")

    replay = stub_endpoint(lambda p: completion_for(p, lambda out: out))
    assert main(["eval", "--dataset", str(val), "--endpoint", replay.url,
                 "--out", str(tmp_path / "replay")]) == 0
    replay_out = capsys.readouterr().out
    match = re.search(r"^mixed\s+(\d+\.\d)\b", replay_out, re.M)
    assert match.group(1) == "100.0"
    assert "failure kinds: none" in replay_out

    def drop_last_action(out):
        lines = out.strip().splitlines()
        return "".join(line + "\n" for line in lines[:-1])

    truncating = stub_endpoint(lambda p: completion_for(p, drop_last_action))
    assert main(["eval", "--dataset", str(val), "--endpoint", truncating.url,
                 "--out", str(tmp_path / "truncated")]) == 0
    truncated_out = capsys.readouterr().out
    match = re.search(r"^mixed\s+(\d+\.\d)\b", truncated_out, re.M)
    truncated_validity = float(match.group(1))
    assert truncated_validity < 100.0

    kinds_line = next(
        l for l in truncated_out.splitlines()
        if l.startswith("failure kinds:")
    )
    assert "none" not in kinds_line
    kinds = dict(
        token.split("=") for token in kinds_line.split(":", 1)[1].split()
    )
    dominant = max(kinds, key=lambda k: int(kinds[k]))
    assert dominant == "goal_unreached"
    print(f"criterion 10 PASS: replay stub 100.0% valid; truncating stub "
          f"{truncated_validity}% with failure kinds {kinds}")
