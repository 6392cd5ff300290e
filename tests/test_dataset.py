from __future__ import annotations

import dataclasses
import json

import pytest

from planforge import assets_dir
from planforge.dataset import (
    ALPACA_KEYS,
    DatasetError,
    DatasetRecord,
    assemble,
    audit_leakage,
    build_records,
    to_alpaca,
)
from planforge.dpgc import load_config
from planforge.drivers import reference_plan
from planforge.generate import generate_batch
from planforge.pddl import parse_domain, parse_problem
from planforge.plans import render_plan


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """16 solved problems per domain, plans from the in-process search."""
    root = tmp_path_factory.mktemp("corpus")
    records = []
    for name in ("artic3", "artic3m"):
        domain_dir = root / name
        domain_text = (assets_dir() / f"{name}.pddl").read_text()
        (domain_dir / "problems").mkdir(parents=True)
        (domain_dir / "plans").mkdir()
        (domain_dir / "domain.pddl").write_text(domain_text)
        domain = parse_domain(domain_text)
        config = load_config(assets_dir() / f"{name}.dpgc.json")
        generate_batch(config, domain, 16, f"corpus-{name}",
                       domain_dir / "problems", domain_dir / "journal.fp")
        for problem_path in sorted((domain_dir / "problems").iterdir()):
            problem = parse_problem(problem_path.read_text(), domain)
            plan = reference_plan(domain, problem)
            assert plan is not None
            (domain_dir / "plans" / f"{problem_path.stem}.plan").write_text(
                render_plan(plan)
            )
        built, skipped = build_records(
            domain_dir / "domain.pddl",
            sorted((domain_dir / "problems").iterdir()),
            domain_dir / "plans",
        )
        # trivially satisfied problems have empty plans and are skipped
        assert len(built) + len(skipped) == 16
        assert len(built) >= 12
        records.append((built, skipped))
    a3, a3m = records
    return {"root": root, "artic3": a3[0], "artic3m": a3m[0],
            "skipped": a3[1] + a3m[1]}


def balanced(corpus, per_domain=12):
    return corpus["artic3"][:per_domain] + corpus["artic3m"][:per_domain]


def test_build_records_structure(corpus):
    record = corpus["artic3"][0]
    assert record.domain_name == "artic3"
    assert record.problem_id.startswith("artic3_")
    assert "(define (domain artic3)" in record.instruction
    assert record.input.startswith("(define (problem artic3-task)")
    assert record.output.strip().startswith("(")
    assert len(record.fingerprint) == 32


def test_build_records_skips_missing_and_empty_plans(tmp_path, corpus):
    src = corpus["root"] / "artic3"
    problems = sorted((src / "problems").iterdir())[:4]
    plans = tmp_path / "plans"
    plans.mkdir()
    kept = []
    for i, problem_path in enumerate(problems):
        plan_path = src / "plans" / f"{problem_path.stem}.plan"
        if i == 0:
            continue  # no plan file at all
        if i == 1:
            (plans / plan_path.name).write_text("\n")  # empty plan
            continue
        (plans / plan_path.name).write_text(plan_path.read_text())
        kept.append(problem_path.stem)
    records, skipped = build_records(src / "domain.pddl", problems, plans)
    assert [r.problem_id for r in records] == kept
    assert skipped == [problems[0].stem, problems[1].stem]


def test_to_alpaca_uses_exact_keys(corpus):
    entries = to_alpaca(corpus["artic3"][:3])
    for entry in entries:
        assert tuple(entry.keys()) == ALPACA_KEYS
    assert entries[0]["instruction"] == corpus["artic3"][0].instruction


def test_assemble_quota_exact_and_disjoint(tmp_path, corpus):
    records = balanced(corpus)
    quotas = {"train": 16, "val": 4, "test": 4}
    manifest = assemble(records, quotas, 5, tmp_path)
    assert manifest["counts"] == {
        "input": 24, "spillover": 0, "train": 16, "val": 4, "test": 4,
    }
    fingerprints = {}
    for name in quotas:
        data = json.loads((tmp_path / f"{name}.json").read_text())
        assert len(data) == quotas[name]
        info = manifest["splits"][name]
        assert info["count"] == quotas[name]
        assert info["per_domain"] == {
            "artic3": quotas[name] // 2, "artic3m": quotas[name] // 2,
        }
        for fp in info["fingerprints"]:
            assert fp not in fingerprints, "fingerprint in two splits"
            fingerprints[fp] = name
    assert len(fingerprints) == 24
    assert not (tmp_path / "spillover.json").exists()


def test_assemble_spillover_and_manifest_files(tmp_path, corpus):
    records = balanced(corpus)
    manifest = assemble(records, {"train": 8, "val": 4}, 5, tmp_path)
    assert manifest["counts"]["spillover"] == 12
    spill = json.loads((tmp_path / "spillover.json").read_text())
    assert len(spill) == 12
    assert manifest["files"] == {
        "train": "train.json", "val": "val.json", "spillover": "spillover.json",
    }
    total = set()
    for info in manifest["splits"].values():
        total.update(info["fingerprints"])
    assert len(total) == 24


def test_assemble_is_deterministic(tmp_path, corpus):
    records = balanced(corpus)
    quotas = {"train": 12, "val": 6}

    def snapshot(out):
        assemble(records, quotas, "split-seed", out)
        return {p.name: p.read_text() for p in sorted(out.iterdir())}

    first = snapshot(tmp_path / "a")
    second = snapshot(tmp_path / "b")
    assert first == second
    assemble(records, quotas, "other-seed", tmp_path / "c")
    other = {p.name: p.read_text() for p in sorted((tmp_path / "c").iterdir())}
    assert other != first


def test_assemble_mixes_domains_within_a_split(tmp_path, corpus):
    records = balanced(corpus)
    assemble(records, {"train": 20}, 5, tmp_path)
    data = json.loads((tmp_path / "train.json").read_text())
    domains = ["artic3m" if "(domain artic3m)" in e["instruction"] else "artic3"
               for e in data]
    # a blocked order would put all ten of one domain first
    assert domains[:10] != ["artic3"] * 10
    assert domains[:10] != ["artic3m"] * 10


def test_assemble_rejections(tmp_path, corpus):
    records = balanced(corpus)
    with pytest.raises(DatasetError, match="no records"):
        assemble([], {"train": 2}, 0, tmp_path)
    with pytest.raises(DatasetError, match="non-positive quota"):
        assemble(records, {"train": 0}, 0, tmp_path)
    with pytest.raises(DatasetError, match="does not divide evenly"):
        assemble(records, {"train": 7}, 0, tmp_path)
    with pytest.raises(DatasetError, match="quotas require"):
        assemble(records, {"train": 26}, 0, tmp_path)
    dup = records + [records[0]]
    with pytest.raises(DatasetError, match="duplicate problem"):
        assemble(dup, {"train": 2}, 0, tmp_path)
    hollow = records[:4] + [dataclasses.replace(records[5], output="  \n")]
    with pytest.raises(DatasetError, match="empty 'output' field"):
        assemble(hollow, {"train": 2}, 0, tmp_path)


def test_assemble_revalidation_gate(tmp_path, corpus):
    records = balanced(corpus)
    broken = dataclasses.replace(
        records[0], output="(release gripper1 gripper2)\n"
    )
    bad = [broken] + records[1:]
    with pytest.raises(DatasetError, match="invalid plan"):
        assemble(bad, {"train": 2}, 0, tmp_path / "gate")


def test_assemble_parses_each_domain_once(tmp_path, corpus):
    records = balanced(corpus)
    parse_domain.cache_clear()
    assemble(records, {"train": 2}, 0, tmp_path / "ok")
    assert parse_domain.cache_info().misses == 2
    # every record is still revalidated, not just each domain's first
    broken = dataclasses.replace(records[-1], output="(release gripper1 gripper2)\n")
    with pytest.raises(DatasetError, match="invalid plan"):
        assemble(records[:-1] + [broken], {"train": 2}, 0, tmp_path / "gate")


def test_audit_clean_dataset(tmp_path, corpus):
    assemble(balanced(corpus), {"train": 16, "val": 4, "test": 4}, 5, tmp_path)
    report = audit_leakage(tmp_path)
    assert report.clean
    assert report.files == {"train.json": 16, "val.json": 4, "test.json": 4}


def test_audit_flags_cross_file_leak_despite_cosmetic_edits(tmp_path, corpus):
    assemble(balanced(corpus), {"train": 16, "val": 4}, 5, tmp_path)
    train = json.loads((tmp_path / "train.json").read_text())
    val = json.loads((tmp_path / "val.json").read_text())
    leaked = dict(train[0])
    # cosmetic edits must not hide the leak from the audit
    leaked["input"] = leaked["input"].replace("\n", "\n\n", 3).upper()
    val.append(leaked)
    (tmp_path / "val.json").write_text(json.dumps(val))
    report = audit_leakage(tmp_path)
    assert not report.clean
    (collision,) = report.collisions
    places = {name for name, _ in collision["occurrences"]}
    assert places == {"train.json", "val.json"}


def test_audit_flags_duplicates_within_one_file(tmp_path, corpus):
    assemble(balanced(corpus), {"train": 16}, 5, tmp_path)
    train = json.loads((tmp_path / "train.json").read_text())
    train.append(dict(train[3]))
    (tmp_path / "train.json").write_text(json.dumps(train))
    report = audit_leakage(tmp_path)
    assert not report.clean
    (collision,) = report.collisions
    assert [name for name, _ in collision["occurrences"]] == [
        "train.json", "train.json",
    ]


def test_audit_requires_split_files(tmp_path):
    (tmp_path / "manifest.json").write_text("{}")
    with pytest.raises(DatasetError, match="no split files"):
        audit_leakage(tmp_path)
