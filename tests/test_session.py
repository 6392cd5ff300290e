from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from conftest import MICRO_PLAN, tasks_of
from planforge import assets_dir
from planforge.dataset import build_records
from planforge.dpgc import load_config
from planforge.drivers import PlannerPool, load_adapters
from planforge.evaluate import InferenceRecord, export_report, score
from planforge.generate import generate_batch
from planforge.pddl.parser import parse_domain
from planforge.session import (
    Session,
    StageError,
    collect_records,
    load_pipeline_config,
    run_pipeline,
    stage_assemble,
    stage_fingerprint,
    stage_generate,
    stage_plan,
)

ARTIC3_CONFIG = assets_dir() / "artic3.dpgc.json"
ARTIC3_DOMAIN = assets_dir() / "artic3.pddl"


def test_session_layout(tmp_path):
    session = Session(tmp_path / "s")
    assert session.config_path.name == "config.dpgc.json"
    assert session.domain_path.name == "domain.pddl"
    assert session.problems_dir.name == "problems"
    assert session.journal_path.name == "journal.fp"
    assert session.plans_dir.name == "plans"
    assert session.dataset_dir.name == "dataset"
    assert session.marker_path("generate") == session.logs_dir / "generate.json"
    assert session.problem_paths() == []


def test_marker_round_trip(tmp_path):
    session = Session(tmp_path)
    assert session.read_marker("generate") is None
    session.write_marker("generate", "abc123", count=5)
    marker = session.read_marker("generate")
    assert marker == {"stage": "generate", "fingerprint": "abc123", "count": 5}


def test_torn_marker_write_leaves_a_resumable_session(tmp_path, monkeypatch):
    session = Session(tmp_path / "s")
    write_text = Path.write_text

    def torn(path, data, *args, **kwargs):
        # the disk fills up halfway through the stage marker
        if path.parent == session.logs_dir:
            write_text(path, data[: len(data) // 2], *args, **kwargs)
            raise OSError("no space left on device")
        return write_text(path, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", torn)
    with pytest.raises(OSError, match="no space left"):
        stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 3, 5)
    monkeypatch.undo()
    assert list(session.logs_dir.iterdir()) == []

    result = stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 3, 5)
    assert (result["new"], result["replayed"]) == (0, 3)
    assert session.read_marker("generate")["count"] == 3


def test_torn_input_copy_leaves_a_resumable_session(tmp_path, monkeypatch):
    session = Session(tmp_path / "s")
    write_bytes = Path.write_bytes

    def torn(path, data):
        # the disk fills up halfway through the copy of the domain
        if session.domain_path.name in path.name:
            write_bytes(path, data[: len(data) // 2])
            raise OSError("no space left on device")
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", torn)
    with pytest.raises(OSError, match="no space left"):
        stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 3, 5)
    monkeypatch.undo()
    assert not session.domain_path.exists()

    result = stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 3, 5)
    assert result["new"] == 3
    assert session.domain_path.read_bytes() == ARTIC3_DOMAIN.read_bytes()


def _generate_one(out_dir):
    generate_batch(load_config(ARTIC3_CONFIG), parse_domain(ARTIC3_DOMAIN.read_text()),
                   1, 5, out_dir / "problems", out_dir / "journal.fp")


def _export_report(out_dir):
    entry = {"instruction": ARTIC3_DOMAIN.read_text(),
             "input": (assets_dir() / "artic3_micro.pddl").read_text(),
             "output": MICRO_PLAN}
    metrics = score(tasks_of([entry]), [InferenceRecord(0, "ok", 0.1, MICRO_PLAN)])
    export_report(metrics, out_dir / "metrics.json", out_dir / "metrics.txt")


@pytest.mark.parametrize("name, write", [
    ("artic3_000001.pddl", _generate_one),
    ("metrics.json", _export_report),
    ("metrics.txt", _export_report),
])
def test_torn_write_leaves_no_partial_file(tmp_path, monkeypatch, name, write):
    write_text = Path.write_text

    def torn(path, data, *args, **kwargs):
        # the disk fills up halfway through the file
        if name in path.name:
            write_text(path, data[: len(data) // 2], *args, **kwargs)
            raise OSError("no space left on device")
        return write_text(path, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", torn)
    with pytest.raises(OSError, match="no space left"):
        write(tmp_path)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.rglob("*") if name in p.name] == []


def test_stage_fingerprint_is_order_insensitive():
    a = stage_fingerprint({"x": 1, "y": "z"})
    b = stage_fingerprint({"y": "z", "x": 1})
    assert a == b
    assert a != stage_fingerprint({"x": 2, "y": "z"})


def test_stage_generate_refuses_a_changed_or_missing_input(tmp_path):
    session = Session(tmp_path / "s")
    source = tmp_path / "in.pddl"
    source.write_bytes(ARTIC3_DOMAIN.read_bytes())
    stage_generate(session, ARTIC3_CONFIG, source, 2, 5)
    stage_generate(session, ARTIC3_CONFIG, source, 2, 5)  # identical: fine
    source.write_bytes(ARTIC3_DOMAIN.read_bytes() + b"\n")
    with pytest.raises(StageError, match="use a fresh session directory"):
        stage_generate(session, ARTIC3_CONFIG, source, 2, 5)
    missing = tmp_path / "missing.txt"
    with pytest.raises(ValueError, match=re.escape(
            f"{missing}: config: error: cannot read: No such file or directory")):
        stage_generate(session, missing, ARTIC3_DOMAIN, 2, 5)
    with pytest.raises(ValueError, match=re.escape(
            f"{missing}: cannot read: No such file or directory")):
        stage_generate(session, ARTIC3_CONFIG, missing, 2, 5)


def test_stage_generate_adopts_the_bytes_it_generated_from(tmp_path, monkeypatch):
    import planforge.session as session_module

    straight = Session(tmp_path / "straight")
    stage_generate(straight, ARTIC3_CONFIG, ARTIC3_DOMAIN, 4, 7)
    config = tmp_path / "artic3.dpgc.json"
    domain = tmp_path / "artic3.pddl"
    originals = {config: ARTIC3_CONFIG.read_bytes(), domain: ARTIC3_DOMAIN.read_bytes()}
    for path, data in originals.items():
        path.write_bytes(data)
    parse = session_module.parse_domain
    edits = []

    def edit_after_reading(text):
        # both sources change once the stage has read them
        if not edits:
            for path, data in originals.items():
                edits.append(path.write_bytes(data + b"\n"))
        return parse(text)

    monkeypatch.setattr(session_module, "parse_domain", edit_after_reading)
    session = Session(tmp_path / "s")
    stage_generate(session, config, domain, 4, 7)
    monkeypatch.undo()
    assert edits
    assert session.config_path.read_bytes() == originals[config]
    assert session.domain_path.read_bytes() == originals[domain]
    assert ({p.name: p.read_bytes() for p in session.problem_paths()}
            == {p.name: p.read_bytes() for p in straight.problem_paths()})
    # the inputs the problems came from still fit the session
    assert stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 4, 7)["skipped"]


def test_stage_generate_fingerprints_crlf_inputs_as_read_text(tmp_path):
    config = tmp_path / "artic3.dpgc.json"
    domain = tmp_path / "artic3.pddl"
    for path, source in ((config, ARTIC3_CONFIG), (domain, ARTIC3_DOMAIN)):
        path.write_bytes(source.read_bytes().replace(b"\n", b"\r\n"))
    session = Session(tmp_path / "s")
    stage_generate(session, config, domain, 2, 5)
    assert session.read_marker("generate")["fingerprint"] == stage_fingerprint(
        {"stage": "generate", "config": config.read_text(),
         "domain": domain.read_text(), "seed": "5"})
    assert session.config_path.read_bytes() == config.read_bytes()
    assert session.domain_path.read_bytes() == domain.read_bytes()


@pytest.fixture(scope="module")
def planned_session(tmp_path_factory):
    root = tmp_path_factory.mktemp("session") / "artic3"
    session = Session(root)
    stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 8, 17)
    with PlannerPool() as pool:
        stage_plan(session, load_adapters()["internal"], pool=pool)
    return session


def test_stage_generate_populates_session(tmp_path):
    session = Session(tmp_path / "s")
    result = stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 5, 3)
    assert result == {
        "skipped": False, "count": 5, "new": 5, "replayed": 0,
        "trivial": result["trivial"],
    }
    assert len(session.problem_paths()) == 5
    assert session.config_path.exists()
    lines = session.journal_path.read_text().splitlines()
    assert len(lines) == 5
    marker = session.read_marker("generate")
    assert marker["count"] == 5
    assert marker["seed"] == "3"
    # the totals are the marker's; the last journal line also gives the draws
    assert lines[-1].split()[2] == f"draws={marker['draws']}"
    assert marker["degenerate"] == 0


def test_stage_generate_skips_when_satisfied(tmp_path):
    session = Session(tmp_path / "s")
    stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 4, 3)
    again = stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 4, 3)
    assert again == {"skipped": True, "count": 4}
    # a smaller target is already satisfied too
    assert stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 2, 3)["skipped"]


def test_stage_generate_tops_up_to_a_larger_count(tmp_path):
    session = Session(tmp_path / "s")
    stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 4, 3)
    result = stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 9, 3)
    assert not result["skipped"]
    assert result["replayed"] == 4
    assert result["new"] == 5
    assert len(session.problem_paths()) == 9
    assert session.read_marker("generate")["count"] == 9


def test_stage_generate_rejects_changed_seed(tmp_path):
    session = Session(tmp_path / "s")
    stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 3, 3)
    with pytest.raises(StageError, match="different config/domain/seed"):
        stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 3, 4)


def test_stage_generate_rejects_changed_config(tmp_path):
    session = Session(tmp_path / "s")
    stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 3, 3)
    with pytest.raises(StageError, match="use a fresh session directory"):
        stage_generate(session, assets_dir() / "artic3m.dpgc.json",
                       ARTIC3_DOMAIN, 3, 3)


def test_stage_plan_solves_and_resumes(planned_session, pool):
    session = planned_session
    plans = sorted(session.plans_dir.glob("*.plan"))
    assert len(plans) == 8
    marker = session.read_marker("plan")
    assert marker["adapter"] == "internal"
    assert marker["planned"] == 8
    # rerun: everything already has a plan file
    again = stage_plan(session, load_adapters()["internal"], pool=pool)
    assert again["attempted"] == 0
    assert again["planned"] == 8
    assert again["planned"] == again["problems"]
    # plans from another planner never join the session's
    other = dataclasses.replace(load_adapters()["internal"], name="other")
    with pytest.raises(StageError, match="planned with adapter 'internal'"):
        stage_plan(session, other, pool=pool)
    assert session.read_marker("plan")["adapter"] == "internal"


def test_stage_plan_names_a_changed_domain_not_the_adapter(tmp_path, pool):
    session = Session(tmp_path / "artic3")
    stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 3, 7)
    internal = load_adapters()["internal"]
    stage_plan(session, internal, pool=pool)
    with open(session.domain_path, "a") as fh:
        fh.write("; edited\n")
    with pytest.raises(StageError) as err:
        stage_plan(session, internal, pool=pool)
    assert str(err.value) == (
        f"session {session.root} has a domain.pddl that changed since it was "
        "planned; use a fresh session directory"
    )
    assert session.read_marker("plan")["adapter"] == "internal"


def test_an_interrupted_plan_stage_keeps_its_adapter(tmp_path, monkeypatch, pool):
    session = Session(tmp_path / "artic3")
    stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 4, 17)
    internal = load_adapters()["internal"]
    write_text = Path.write_text
    plan_writes = []

    def failing(path, data, *args, **kwargs):
        # the disk fills up at the second plan
        if path.parent == session.plans_dir:
            plan_writes.append(path)
            if len(plan_writes) == 2:
                raise OSError("no space left on device")
        return write_text(path, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing)
    with pytest.raises(OSError, match="no space left"):
        stage_plan(session, internal, pool=pool)
    monkeypatch.undo()
    assert len(list(session.plans_dir.glob("*.plan"))) == 1
    other = dataclasses.replace(internal, name="other")
    with pytest.raises(StageError, match="planned with adapter 'internal'"):
        stage_plan(session, other, pool=pool)
    assert len(list(session.plans_dir.glob("*.plan"))) == 1
    assert stage_plan(session, internal, pool=pool)["planned"] == 4
    assert session.read_marker("plan")["adapter"] == "internal"


def test_stage_plan_requires_problems(tmp_path, pool):
    session = Session(tmp_path / "s")
    session.root.mkdir()
    session.domain_path.write_bytes(ARTIC3_DOMAIN.read_bytes())
    with pytest.raises(StageError, match="no problems to plan"):
        stage_plan(session, load_adapters()["internal"], pool=pool)


def test_collect_records(planned_session):
    records, skipped = collect_records(planned_session)
    assert len(records) + len(skipped) == 8
    for record in records:
        assert record.domain_name == "artic3"
        assert record.output.strip()


def test_stage_assemble_writes_and_audits(tmp_path, planned_session):
    records, _ = collect_records(planned_session)
    usable = len(records) - (len(records) % 2)
    quotas = {"train": usable - 2, "val": 2}
    manifest = stage_assemble(records, quotas, 7, tmp_path / "dataset")
    assert manifest["counts"]["train"] == usable - 2
    assert (tmp_path / "dataset" / "train.json").exists()
    assert (tmp_path / "dataset" / "manifest.json").exists()


def test_stage_assemble_surfaces_quota_errors(tmp_path, planned_session):
    records, _ = collect_records(planned_session)
    with pytest.raises(StageError, match="quotas require"):
        stage_assemble(records, {"train": 100}, 7, tmp_path / "d")


def write_pipeline_config(tmp_path, **overrides):
    config = {
        "seed": 11,
        "domains": [
            {"domain": str(ARTIC3_DOMAIN), "dpgc": str(ARTIC3_CONFIG), "count": 8},
            {"domain": str(assets_dir() / "artic3m.pddl"),
             "dpgc": str(assets_dir() / "artic3m.dpgc.json"), "count": 8},
        ],
        "quotas": {"train": 8, "val": 2},
    }
    config.update(overrides)
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(config))
    return path


def test_load_pipeline_config_checks_and_resolves(tmp_path):
    path = write_pipeline_config(tmp_path, domains=[
        {"domain": "artic3.pddl", "dpgc": "artic3.dpgc.json", "count": 4}])
    config = load_pipeline_config(path)
    assert config["adapter"] == "internal"
    # relative entries resolve against the config file's directory
    assert config["domains"][0]["domain"] == str(tmp_path / "artic3.pddl")

    domain = {"domain": "x", "dpgc": "y"}
    for broken, match in (
        ({"seed": None}, "config: error: 'seed' is a required property"),
        ({"domains": []}, "config.domains: error: [] is too short"),
        ({"domains": [{"domain": "x"}]},
         "config.domains[0]: error: 'dpgc' is a required property"),
        ({"quotas": {}}, "config.quotas: error: {} is too short"),
        ({"workers": 0}, "config.workers: error: 0 is less than the minimum of 1"),
        ({"workers": True}, "config.workers: error: True is not of type 'integer'"),
        ({"domains": [dict(domain, count=-3)]},
         "config.domains[0].count: error: -3 is less than the minimum of 1"),
        ({"domains": [dict(domain, count=0)]},
         "config.domains[0].count: error: 0 is less than the minimum of 1"),
        ({"domains": [dict(domain, count=2.7)]},
         "config.domains[0].count: error: 2.7 is not of type 'integer'"),
        ({"domains": [dict(domain, count=True)]},
         "config.domains[0].count: error: True is not of type 'integer'"),
        ({"quotas": {"train": 2.5}}, "config.quotas.train: error: 2.5 is not of type 'integer'"),
        ({"quotas": {"train": True}}, "config.quotas.train: error: True is not of type 'integer'"),
        ({"timeout": -5}, "config.timeout: error: -5 is less than or equal to the minimum of 0"),
        ({"timeout": True}, "config.timeout: error: True is not of type 'number'"),
        ({"timeout": 10**400}, f"config.timeout: error: {10**400} is not a finite number"),
        ({"domains": [1]}, "config.domains[0]: error: 1 is not of type 'object'"),
        (5, "config: error: 5 is not of type 'object'"),
        # a path that is not a string, and a seed that is not a whole number
        ({"domains": [dict(domain, domain=5, count=1)]},
         "config.domains[0].domain: error: 5 is not of type 'string'"),
        ({"domains": [dict(domain, dpgc=None, count=1)]},
         "config.domains[0].dpgc: error: None is not of type 'string'"),
        ({"adapters_file": ["a.json"]},
         "config.adapters_file: error: ['a.json'] is not of type 'string'"),
        ({"seed": [7]}, "config.seed: error: [7] is not of type 'integer'"),
        ({"seed": {"a": 1}}, "config.seed: error: {'a': 1} is not of type 'integer'"),
        ({"seed": "7"}, "config.seed: error: '7' is not of type 'integer'"),
        ({"seed": 7.0}, "config.seed: error: 7.0 is not of type 'integer'"),
    ):
        data = json.loads(write_pipeline_config(tmp_path).read_text())
        if isinstance(broken, dict):
            data.update(broken)
        else:
            data = broken
        if broken == {"seed": None}:
            del data["seed"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(StageError, match=re.escape(f"{bad}: {match}")):
            load_pipeline_config(bad)

    # every bad place at once; a null timeout and other keys pass
    bad.write_text(json.dumps({"seed": True, "domains": [{"count": 0, "note": 1}],
                               "quotas": {"train": 1}, "timeout": None, "note": 2}))
    with pytest.raises(StageError) as info:
        load_pipeline_config(bad)
    assert [line.removeprefix(f"{bad}: ") for line in str(info.value).splitlines()] == [
        "config.seed: error: True is not of type 'integer'",
        "config.domains[0]: error: 'domain' is a required property",
        "config.domains[0]: error: 'dpgc' is a required property",
        "config.domains[0].count: error: 0 is less than the minimum of 1",
    ]
    assert load_pipeline_config(
        write_pipeline_config(tmp_path, timeout=None, note=2))["timeout"] is None

    absent = tmp_path / "absent.json"
    with pytest.raises(StageError, match=re.escape(f"{absent}: config: error: cannot read")):
        load_pipeline_config(absent)


def test_run_pipeline_end_to_end(tmp_path, monkeypatch, pool):
    import planforge.session as session_module

    builds = []

    def counting_build_records(*args):
        builds.append(args)
        return build_records(*args)

    monkeypatch.setattr(session_module, "build_records", counting_build_records)
    path = write_pipeline_config(tmp_path)
    config = load_pipeline_config(path)
    summary = run_pipeline(config, tmp_path / "run", pool)
    # records are built once per round, and assembly reuses the last round's
    assert len(builds) == sum(info["rounds"] for info in summary["domains"].values())
    assert set(summary["domains"]) == {"artic3", "artic3m"}
    for info in summary["domains"].values():
        assert info["usable"] >= 5  # 8 train + 2 val over 2 domains
    assert summary["dataset"]["train"] == 8
    assert summary["dataset"]["val"] == 2
    dataset_dir = tmp_path / "run" / "dataset"
    assert (dataset_dir / "train.json").exists()
    assert (dataset_dir / "val.json").exists()
    pipeline_marker = Session(tmp_path / "run").read_marker("pipeline")
    assert pipeline_marker["summary"]["train"] == 8

    # rerun is idempotent: generation skips, planning attempts nothing
    again = run_pipeline(config, tmp_path / "run", pool)
    assert again["dataset"] == summary["dataset"]
    for info in again["domains"].values():
        assert info["generate"]["skipped"]
        assert info["plan"]["attempted"] == 0


def test_run_pipeline_names_the_bad_config_of_its_second_domain(tmp_path, pool):
    raw = json.loads((assets_dir() / "artic3m.dpgc.json").read_text())
    raw["object_pools"][0]["quantity"] = 0
    bad = tmp_path / "artic3m.dpgc.json"
    bad.write_text(json.dumps(raw))
    path = write_pipeline_config(tmp_path, domains=[
        {"domain": str(ARTIC3_DOMAIN), "dpgc": str(ARTIC3_CONFIG), "count": 2},
        {"domain": str(assets_dir() / "artic3m.pddl"), "dpgc": str(bad), "count": 2},
    ])
    with pytest.raises(ValueError, match=re.escape(
        f"{bad}: config.object_pools[0].quantity: error: 0 is less than the minimum of 1"
    )):
        run_pipeline(load_pipeline_config(path), tmp_path / "run", pool)
    assert not Session(tmp_path / "run" / "artic3m").config_path.exists()


def test_run_pipeline_rejects_unknown_adapter(tmp_path, pool):
    path = write_pipeline_config(tmp_path, adapter="warp-drive")
    config = load_pipeline_config(path)
    with pytest.raises(StageError, match="unknown adapter 'warp-drive'"):
        run_pipeline(config, tmp_path / "run", pool)


def test_run_pipeline_rejects_indivisible_quota(tmp_path, pool):
    path = write_pipeline_config(tmp_path, quotas={"train": 7})
    config = load_pipeline_config(path)
    with pytest.raises(StageError, match="does not divide evenly"):
        run_pipeline(config, tmp_path / "run", pool)
    assert not (tmp_path / "run").exists()  # refused before any work


def test_run_pipeline_rejects_unknown_split_names(tmp_path, pool):
    for name in ("manifest", "spillover", "../../escaped"):
        path = write_pipeline_config(tmp_path, quotas={"train": 8, name: 2})
        config = load_pipeline_config(path)
        with pytest.raises(StageError, match=f"split '{name}' is not one of"):
            run_pipeline(config, tmp_path / "run", pool)
        assert not (tmp_path / "run").exists()  # refused before any work


def test_run_pipeline_refuses_a_domain_named_twice(tmp_path, pool):
    again = tmp_path / "again.pddl"
    again.write_bytes(ARTIC3_DOMAIN.read_bytes())
    path = write_pipeline_config(tmp_path, domains=[
        {"domain": str(ARTIC3_DOMAIN), "dpgc": str(ARTIC3_CONFIG), "count": 2},
        {"domain": str(again), "dpgc": str(ARTIC3_CONFIG), "count": 2},
    ], quotas={"train": 2})
    with pytest.raises(StageError, match=re.escape(
            "config.domains[0] and config.domains[1] both hold domain 'artic3'")):
        run_pipeline(load_pipeline_config(path), tmp_path / "run", pool)
    assert not (tmp_path / "run").exists()  # refused before any work
