from __future__ import annotations

import dataclasses
import json

import pytest

from planforge import assets_dir
from planforge.dataset import build_records
from planforge.drivers import load_adapters
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


def test_stage_fingerprint_is_order_insensitive():
    a = stage_fingerprint({"x": 1, "y": "z"})
    b = stage_fingerprint({"y": "z", "x": 1})
    assert a == b
    assert a != stage_fingerprint({"x": 2, "y": "z"})


def test_adopt_input_refuses_conflicting_content(tmp_path):
    session = Session(tmp_path / "s")
    source = tmp_path / "in.txt"
    source.write_text("one")
    session.adopt_input(source, session.domain_path)
    session.adopt_input(source, session.domain_path)  # identical: fine
    source.write_text("two")
    with pytest.raises(StageError, match="use a fresh session directory"):
        session.adopt_input(source, session.domain_path)
    with pytest.raises(StageError, match="not found"):
        session.adopt_input(tmp_path / "missing.txt", session.config_path)


@pytest.fixture(scope="module")
def planned_session(tmp_path_factory):
    root = tmp_path_factory.mktemp("session") / "artic3"
    session = Session(root)
    stage_generate(session, ARTIC3_CONFIG, ARTIC3_DOMAIN, 8, 17)
    stage_plan(session, load_adapters()["internal"])
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
    assert session.generation_log.exists()
    marker = session.read_marker("generate")
    assert marker["count"] == 5
    assert marker["seed"] == "3"


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


def test_stage_plan_solves_and_resumes(planned_session):
    session = planned_session
    plans = sorted(session.plans_dir.glob("*.plan"))
    assert len(plans) == 8
    marker = session.read_marker("plan")
    assert marker["adapter"] == "internal"
    assert marker["planned"] == 8
    # rerun: everything already has a plan file
    again = stage_plan(session, load_adapters()["internal"])
    assert again["attempted"] == 0
    assert again["planned"] == 8
    assert again["shortfall"] == 0
    # plans from another planner never join the session's
    other = dataclasses.replace(load_adapters()["internal"], name="other")
    with pytest.raises(StageError, match="planned with adapter 'internal'"):
        stage_plan(session, other)
    assert session.read_marker("plan")["adapter"] == "internal"


def test_stage_plan_requires_problems(tmp_path):
    session = Session(tmp_path / "s")
    session.root.mkdir()
    session.adopt_input(ARTIC3_DOMAIN, session.domain_path)
    with pytest.raises(StageError, match="no problems to plan"):
        stage_plan(session, load_adapters()["internal"])


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

    for broken, match in (
        ({"seed": None}, "must set 'seed'"),
        ({"domains": []}, "non-empty 'domains'"),
        ({"domains": [{"domain": "x"}]}, "missing 'dpgc'"),
        ({"quotas": {}}, "non-empty 'quotas'"),
    ):
        data = json.loads(write_pipeline_config(tmp_path).read_text())
        data.update(broken)
        if broken == {"seed": None}:
            del data["seed"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(StageError, match=match):
            load_pipeline_config(bad)

    with pytest.raises(StageError, match="cannot read pipeline config"):
        load_pipeline_config(tmp_path / "absent.json")


def test_run_pipeline_end_to_end(tmp_path, monkeypatch):
    import planforge.session as session_module

    builds = []

    def counting_build_records(*args):
        builds.append(args)
        return build_records(*args)

    monkeypatch.setattr(session_module, "build_records", counting_build_records)
    path = write_pipeline_config(tmp_path)
    config = load_pipeline_config(path)
    summary = run_pipeline(config, tmp_path / "run")
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
    again = run_pipeline(config, tmp_path / "run")
    assert again["dataset"] == summary["dataset"]
    for info in again["domains"].values():
        assert info["generate"]["skipped"]
        assert info["plan"]["attempted"] == 0


def test_run_pipeline_rejects_unknown_adapter(tmp_path):
    path = write_pipeline_config(tmp_path, adapter="warp-drive")
    config = load_pipeline_config(path)
    with pytest.raises(StageError, match="unknown adapter 'warp-drive'"):
        run_pipeline(config, tmp_path / "run")


def test_run_pipeline_rejects_indivisible_quota(tmp_path):
    path = write_pipeline_config(tmp_path, quotas={"train": 7})
    config = load_pipeline_config(path)
    with pytest.raises(StageError, match="does not divide evenly"):
        run_pipeline(config, tmp_path / "run")
    assert not (tmp_path / "run").exists()  # refused before any work
