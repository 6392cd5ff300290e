from __future__ import annotations

import dataclasses
import hashlib
import json
import re

import pytest

from planforge import assets_dir, dataset
from planforge.dataset import (
    ALPACA_KEYS,
    DatasetError,
    DatasetRecord,
    assemble,
    audit_leakage,
    build_records,
    check_record,
    to_alpaca,
)
from planforge.dpgc import load_config
from planforge.drivers import reference_plan
from planforge.generate import fingerprint_problem, generate_batch
from planforge.pddl.parser import parse_domain, parse_problem
from planforge.plans import render_plan
from planforge.shape import parse_record


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
    assert len(check_record(record)) == 32


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


# The sha256 of each file one fixed assembly writes, with its quotas out of
# canonical order and a non-empty spillover: a change to how `assemble`
# fills, shuffles or writes its splits must keep these bytes.
PINNED_SHA256 = {
    "manifest.json": "4bf4280225199733c697c3933f472c1edba9066ba8945e7787b8eba62cad6e1e",
    "spillover.json": "d06a03a28d048c5845404e2a966de7aceb428ab3089ea7616cb47f39abc77e54",
    "test.json": "259f0c2b2f0e21f1eb593ffbf759eab11faf0fc6764f10caa49511f6051c29a3",
    "train.json": "05d0c9b85e6997c0c570ed477328baba0e1d22fcefd1eb8c18e3b35425b0d53c",
    "val.json": "282d33a76beba6947744a9aa1b58911a9abaa9b65204f47967d8edfacf85cfb4",
}


def test_assemble_writes_the_pinned_bytes(tmp_path, corpus):
    assemble(balanced(corpus), {"val": 4, "train": 10, "test": 2}, "pin", tmp_path)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    assert written == PINNED_SHA256


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
    # a split names its file: only train, val and test, refused before any write
    out_dir = tmp_path / "deep" / "er" / "named"
    for name in ("manifest", "spillover", "../../escaped"):
        with pytest.raises(DatasetError, match="is not one of train, val, test"):
            assemble(records, {"train": 2, name: 2}, 0, out_dir)
    assert list(out_dir.iterdir()) == []
    assert not (tmp_path / "deep" / "escaped.json").exists()


def test_assemble_revalidation_gate(tmp_path, corpus):
    records = balanced(corpus)
    broken = dataclasses.replace(
        records[0], output="(release gripper1 gripper2)\n"
    )
    bad = [broken] + records[1:]
    with pytest.raises(DatasetError, match="invalid plan"):
        assemble(bad, {"train": 2}, 0, tmp_path / "gate")


def test_assemble_parses_each_domain_once(tmp_path, corpus):
    # fresh records: the shared ones keep what earlier tests parsed
    records = [dataclasses.replace(r) for r in balanced(corpus)]
    parse_domain.cache_clear()
    assemble(records, {"train": 2}, 0, tmp_path / "ok")
    assert parse_domain.cache_info().misses == 2
    # every record is still revalidated, not just each domain's first
    broken = dataclasses.replace(records[-1], output="(release gripper1 gripper2)\n")
    with pytest.raises(DatasetError, match="invalid plan"):
        assemble(records[:-1] + [broken], {"train": 2}, 0, tmp_path / "gate")


def test_build_and_assemble_parse_each_problem_once(tmp_path, corpus, monkeypatch):
    parsed = []

    def counting_parse_problem(text, domain):
        parsed.append(text)
        return parse_problem(text, domain)

    monkeypatch.setattr(dataset, "parse_problem", counting_parse_problem)
    records = []
    for name in ("artic3", "artic3m"):
        src = corpus["root"] / name
        built, _ = build_records(
            src / "domain.pddl", sorted((src / "problems").iterdir()), src / "plans"
        )
        records += built[:12]
    assert parsed == []
    assemble(records, {"train": 16, "val": 8}, 5, tmp_path)
    assert sorted(parsed) == sorted(r.input for r in records)


def test_assembled_records_keep_only_their_text(tmp_path, corpus):
    records = [dataclasses.replace(r) for r in balanced(corpus)]
    assemble(records, {"train": 16, "val": 8}, 5, tmp_path)
    fields = [f.name for f in dataclasses.fields(DatasetRecord)]
    assert fields == ["domain_name", "problem_id", *ALPACA_KEYS]
    for record in records:
        assert list(vars(record)) == fields


def test_manifest_fingerprints_follow_records_that_share_an_id(tmp_path, corpus):
    # two sessions of one domain number their problems alike
    records = [dataclasses.replace(r, problem_id=f"artic3_{i % 2:06d}")
               for i, r in enumerate(corpus["artic3"][:12])]
    manifest = assemble(records, {"train": 8, "val": 2}, 5, tmp_path)
    for name, info in manifest["splits"].items():
        shipped = json.loads((tmp_path / manifest["files"][name]).read_text())
        recomputed = []
        for index, entry in enumerate(shipped):
            _, problem = parse_record(name, index, entry)
            recomputed.append(fingerprint_problem(problem))
        assert info["fingerprints"] == recomputed
        assert len(set(recomputed)) == len(shipped)


def test_reassembly_leaves_only_its_own_files(tmp_path, corpus):
    records = corpus["artic3"][:12]
    assemble(records, {"train": 4, "test": 2}, 5, tmp_path)
    assert (tmp_path / "spillover.json").exists()
    assemble(records, {"train": 12}, 5, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "train.json"]
    assert audit_leakage(tmp_path).clean


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


# The ids keep these cases' established test names; they word each rule
# rather than quote the message.
@pytest.mark.parametrize("text, message", [
    pytest.param("{}", "train.json: records: error: {} is not of type 'array'",
                 id="{}-train.json: expected an array of records"),
    pytest.param("[{", "train.json: records: error: invalid JSON: Expecting property name",
                 id="[{-train.json: Expecting property name"),
    pytest.param('[{"instruction": "(define (domain d))"}]',
                 "train.json: records[0]: error: 'input' is a required property",
                 id='[{"instruction": "(define (domain d))"}]-train.json: record 0 needs a string'),
    pytest.param('["record"]', "train.json: records[0]: error: 'record' is not of type 'object'",
                 id='["record"]-train.json: record 0 needs a string'),
    pytest.param('[{"instruction": 1, "input": ""}]',
                 "train.json: records[0].instruction: error: 1 is not of type 'string'",
                 id='[{"instruction": 1, "input": ""}]-train.json: record 0 needs a string'),
    pytest.param('[{"instruction": "(define", "input": "", "output": ""}]',
                 "train.json: records[0]: error: line 1",
                 id='[{"instruction": "(define", "input": ""}]-train.json: record 0: line 1'),
    pytest.param('[{"instruction": "(define (domain d))", "input": ""}]',
                 "train.json: records[0]: error: 'output' is a required property",
                 id="no output"),
    pytest.param(json.dumps([{"instruction": "(" * 3000, "input": "", "output": ""}]),
                 "train.json: records[0]: error: line 1, col 65: "
                 "parentheses nested more than 64 deep",
                 id="nested 3000 deep"),
])
def test_audit_refuses_malformed_split_files(tmp_path, text, message):
    (tmp_path / "train.json").write_text(text)
    with pytest.raises(DatasetError, match=re.escape(message)):
        audit_leakage(tmp_path)


def test_audit_requires_split_files(tmp_path):
    (tmp_path / "manifest.json").write_text("{}")
    with pytest.raises(DatasetError, match="no split files"):
        audit_leakage(tmp_path)
