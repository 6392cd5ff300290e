from __future__ import annotations

import json
import random

import pytest

from planforge import generate
from planforge.dpgc import parse_config
from planforge.generate import (
    GenerationError,
    fingerprint_problem,
    fingerprint_text,
    generate_batch,
    problem_file_name,
    sample_problem,
)
from planforge.pddl import parse_domain, parse_problem

CHAIN = """
(define (domain chain)
  (:requirements :strips :typing)
  (:types bead)
  (:predicates (lit ?b - bead) (tied ?a - bead ?b - bead) (done))
  (:action light
    :parameters (?b - bead)
    :precondition (and (not (lit ?b)))
    :effect (and (lit ?b))))
"""


def chain_config(**edits):
    data = {
        "domain": "chain",
        "object_pools": [
            {"id": "beads", "type": "bead", "prefix": "bead", "quantity": 6},
        ],
        "variable_init": [
            {"id": "start",
             "atoms": [{"predicate": "lit", "args": ["beads"]}]},
        ],
        "variable_goal": [
            {"id": "finish",
             "atoms": [{"predicate": "lit", "args": ["beads"]}]},
        ],
    }
    data.update(edits)
    return parse_config(json.dumps(data))


@pytest.fixture(scope="module")
def chain():
    return parse_domain(CHAIN)


def read_dir(path):
    return {p.name: p.read_text() for p in sorted(path.iterdir())}


def test_generated_problem_shape(artic3, artic3_config):
    problem, trivial = sample_problem(artic3_config, artic3, random.Random("shape"))
    assert problem.name == "artic3-task"
    assert problem.domain == "artic3"
    names = [n for n, _ in problem.objects]
    assert {"gripper1", "gripper2", "base1", "link1", "link2"} <= set(names)
    assert sum(1 for n in names if n.startswith("angle")) == 12
    # constant relations always present
    assert ("downstream", "link1", "link2") in problem.init
    assert ("next-cw", "angle12", "angle1") in problem.init
    assert isinstance(trivial, bool)


def test_tagged_references_pick_adjacent_objects(chain):
    cfg = chain_config(variable_init=[
        {"id": "start",
         "atoms": [
             {"predicate": "tied", "args": ["beads$a", "beads$a+1"]},
             {"predicate": "tied", "args": ["beads$a+1", "beads$a+2"]},
         ]},
    ])
    for seed in range(40):
        problem, _ = sample_problem(cfg, chain, random.Random(seed))
        ties = [a for a in problem.init if a[0] == "tied"]
        assert len(ties) == 2
        indices = {int(name[4:]) for atom in ties for name in atom[1:]}
        base = min(indices)
        assert indices == {base, base + 1, base + 2}
        assert base + 2 <= 6
        assert ("tied", f"bead{base}", f"bead{base + 1}") in problem.init
        assert ("tied", f"bead{base + 1}", f"bead{base + 2}") in problem.init


def test_mutex_usage_draws_distinct_objects(chain):
    cfg = chain_config(
        object_pools=[{"id": "beads", "type": "bead", "prefix": "bead",
                       "quantity": 6, "usage": "mutex"}],
        variable_init=[
            {"id": "start", "count": 3,
             "atoms": [{"predicate": "lit", "args": ["beads"]}]},
        ],
    )
    for seed in range(40):
        problem, _ = sample_problem(cfg, chain, random.Random(seed))
        lit = [a for a in problem.init if a[0] == "lit"]
        assert len(lit) == 3
        assert len({a[1] for a in lit}) == 3


def test_mutex_usage_spans_init_and_goal(chain):
    # used objects stay reserved across sections within one problem
    cfg = chain_config(
        object_pools=[{"id": "beads", "type": "bead", "prefix": "bead",
                       "quantity": 4, "usage": "mutex"}],
        variable_init=[
            {"id": "start", "count": 2,
             "atoms": [{"predicate": "lit", "args": ["beads"]}]},
        ],
        variable_goal=[
            {"id": "finish", "count": 2,
             "atoms": [{"predicate": "lit", "args": ["beads"]}]},
        ],
    )
    for seed in range(30):
        problem, _ = sample_problem(cfg, chain, random.Random(seed))
        lit_init = {a[1] for a in problem.init if a[0] == "lit"}
        lit_goal = {l.atom[1] for l in problem.goal}
        assert len(lit_init) == 2 and len(lit_goal) == 2
        assert not (lit_init & lit_goal)


def test_mutex_usage_exhaustion(chain):
    cfg = chain_config(
        object_pools=[{"id": "beads", "type": "bead", "prefix": "bead",
                       "quantity": 2, "usage": "mutex"}],
        variable_init=[
            {"id": "start", "count": 3,
             "atoms": [{"predicate": "lit", "args": ["beads"]}]},
        ],
    )
    with pytest.raises(GenerationError) as err:
        sample_problem(cfg, chain, random.Random(0))
    assert "exhausted" in str(err.value)


def test_sequential_usage_walks_the_pool_and_resets(chain):
    cfg = chain_config(
        object_pools=[{"id": "beads", "type": "bead", "prefix": "bead",
                       "quantity": 4, "usage": "sequential"}],
        variable_init=[
            {"id": "start", "count": 6,
             "atoms": [{"predicate": "lit", "args": ["beads"]}]},
        ],
    )
    problem, _ = sample_problem(cfg, chain, random.Random(1))
    # six draws over four objects wrap around; the set is the whole pool
    assert {a[1] for a in problem.init if a[0] == "lit"} == {
        "bead1", "bead2", "bead3", "bead4",
    }
    again, _ = sample_problem(cfg, chain, random.Random(2))
    assert {a[1] for a in again.init if a[0] == "lit"} == {
        "bead1", "bead2", "bead3", "bead4",
    }


def test_goal_atoms_dedupe_but_keep_order(chain):
    cfg = chain_config(
        object_pools=[{"id": "beads", "type": "bead", "prefix": "bead",
                       "quantity": 1}],
        variable_goal=[
            {"id": "finish", "count": 3,
             "atoms": [{"predicate": "lit", "args": ["beads"]},
                       {"predicate": "done", "args": []}]},
        ],
    )
    problem, _ = sample_problem(cfg, chain, random.Random(0))
    assert [l.atom for l in problem.goal] == [("lit", "bead1"), ("done",)]


def test_empty_goal_is_an_error(chain):
    cfg = chain_config(variable_goal=[
        {"id": "finish",
         "atoms": [{"predicate": "done", "args": [], "probability": 0.5}]},
    ])
    hit = False
    for seed in range(50):
        try:
            sample_problem(cfg, chain, random.Random(seed))
        except GenerationError as err:
            assert "empty goal" in str(err)
            hit = True
    assert hit


def test_trivial_flag(chain):
    cfg = chain_config(
        constant_init=["(done)"],
        variable_goal=[{"id": "finish",
                        "atoms": [{"predicate": "done", "args": []}]}],
    )
    _, trivial = sample_problem(cfg, chain, random.Random(0))
    assert trivial


def test_mutex_groups_suppress_all_but_one_member(artic3, artic3_config):
    saw = set()
    for seed in range(60):
        problem, _ = sample_problem(artic3_config, artic3, random.Random(seed))
        free = sum(1 for a in problem.init if a[0] == "free")
        grasping = sum(1 for a in problem.init if a[0] == "grasping")
        held = sum(1 for a in problem.init if a == ("held",))
        assert (free, grasping, held) in {(2, 0, 0), (0, 2, 1)}
        saw.add((free, grasping, held))
    assert len(saw) == 2


def test_fingerprints_are_content_hashes(artic3, artic3_config):
    a, _ = sample_problem(artic3_config, artic3, random.Random("x"))
    b, _ = sample_problem(artic3_config, artic3, random.Random("x"))
    c, _ = sample_problem(artic3_config, artic3, random.Random("y"))
    assert fingerprint_problem(a) == fingerprint_problem(b)
    assert fingerprint_problem(a) != fingerprint_problem(c)
    fp = fingerprint_text("anything")
    assert len(fp) == 32 and int(fp, 16) >= 0


def test_problem_file_name():
    assert problem_file_name("artic3", 1) == "artic3_000001.pddl"
    assert problem_file_name("artic3", 123456) == "artic3_123456.pddl"


def test_batch_same_seed_is_byte_identical(tmp_path, artic3, artic3_config):
    dirs = []
    for run in ("a", "b"):
        root = tmp_path / run
        result = generate_batch(
            artic3_config, artic3, 25, 42,
            root / "problems", root / "journal.fp", root / "gen.log",
        )
        assert result.new_emissions == 25
        assert result.replayed == 0
        dirs.append(read_dir(root / "problems"))
    assert dirs[0] == dirs[1]
    assert (tmp_path / "a/journal.fp").read_text() == (tmp_path / "b/journal.fp").read_text()


def test_batch_different_seeds_differ(tmp_path, artic3, artic3_config):
    outs = []
    for seed in (1, 2):
        root = tmp_path / str(seed)
        generate_batch(artic3_config, artic3, 10, seed,
                       root / "problems", root / "journal.fp")
        outs.append(read_dir(root / "problems"))
    assert outs[0] != outs[1]


def test_batch_resume_matches_straight_run(tmp_path, artic3, artic3_config):
    straight = tmp_path / "straight"
    generate_batch(artic3_config, artic3, 30, 7,
                   straight / "problems", straight / "journal.fp")

    resumed = tmp_path / "resumed"
    first = generate_batch(artic3_config, artic3, 12, 7,
                           resumed / "problems", resumed / "journal.fp")
    assert first.new_emissions == 12
    second = generate_batch(artic3_config, artic3, 30, 7,
                            resumed / "problems", resumed / "journal.fp")
    assert second.replayed == 12
    assert second.new_emissions == 18
    assert read_dir(resumed / "problems") == read_dir(straight / "problems")
    assert (resumed / "journal.fp").read_text() == (straight / "journal.fp").read_text()


def test_batch_recovers_from_torn_journal_line(tmp_path, artic3, artic3_config):
    root = tmp_path / "s"
    generate_batch(artic3_config, artic3, 10, 3,
                   root / "problems", root / "journal.fp")
    clean = (root / "journal.fp").read_text()
    with open(root / "journal.fp", "a") as fh:
        fh.write("deadbeef")  # partial write: not a full fingerprint
    result = generate_batch(artic3_config, artic3, 10, 3,
                            root / "problems", root / "journal.fp")
    assert result.replayed == 10
    assert (root / "journal.fp").read_text() == clean


def test_batch_rewrites_missing_problem_files_on_replay(tmp_path, artic3, artic3_config):
    root = tmp_path / "s"
    generate_batch(artic3_config, artic3, 8, 3,
                   root / "problems", root / "journal.fp")
    victim = root / "problems" / problem_file_name("artic3", 5)
    original = victim.read_text()
    victim.unlink()
    # a torn write leaves a file that exists but differs from the emission
    torn = root / "problems" / problem_file_name("artic3", 6)
    torn_original = torn.read_bytes()
    torn.write_bytes(torn_original[: len(torn_original) // 2])
    result = generate_batch(artic3_config, artic3, 8, 3,
                            root / "problems", root / "journal.fp")
    assert result.replayed == 8
    assert victim.read_text() == original
    assert torn.read_bytes() == torn_original


def test_batch_detects_seed_mismatch(tmp_path, artic3, artic3_config):
    root = tmp_path / "s"
    generate_batch(artic3_config, artic3, 8, 3,
                   root / "problems", root / "journal.fp")
    with pytest.raises(GenerationError) as err:
        generate_batch(artic3_config, artic3, 8, 4,
                       root / "problems", root / "journal.fp")
    assert "journal mismatch" in str(err.value)


def test_batch_rejects_config_domain_mismatch(tmp_path, artic3m, artic3_config):
    with pytest.raises(GenerationError) as err:
        generate_batch(artic3_config, artic3m, 1, 0,
                       tmp_path / "problems", tmp_path / "journal.fp")
    assert "config does not fit the domain" in str(err.value)


def test_batch_gives_up_on_exhausted_space(tmp_path, chain, monkeypatch):
    cfg = chain_config(
        object_pools=[{"id": "beads", "type": "bead", "prefix": "bead",
                       "quantity": 1}],
        variable_init=[],
        variable_goal=[{"id": "finish",
                        "atoms": [{"predicate": "lit", "args": ["beads"]}]}],
    )
    # exactly one distinct problem exists
    result = generate_batch(cfg, chain, 1, 0,
                            tmp_path / "problems", tmp_path / "journal.fp")
    assert result.new_emissions == 1
    monkeypatch.setattr(generate, "MAX_CONSECUTIVE_FAILURES", 40)
    with pytest.raises(GenerationError) as err:
        generate_batch(cfg, chain, 2, 0, tmp_path / "problems",
                       tmp_path / "journal.fp")
    assert "consecutive duplicate draws" in str(err.value)


def test_batch_counts_degenerate_draws(tmp_path, chain):
    cfg = chain_config(variable_goal=[
        {"id": "finish",
         "atoms": [{"predicate": "lit", "args": ["beads"], "probability": 0.4}]},
    ])
    result = generate_batch(cfg, chain, 10, 11,
                            tmp_path / "problems", tmp_path / "journal.fp")
    assert result.new_emissions == 10
    assert result.degenerate > 0


def test_batch_log_records_emissions(tmp_path, artic3, artic3_config):
    root = tmp_path / "s"
    generate_batch(artic3_config, artic3, 5, 9,
                   root / "problems", root / "journal.fp", root / "gen.log")
    lines = (root / "gen.log").read_text().splitlines()
    assert lines[0].startswith("# generate domain=artic3 seed=9 target=5")
    assert lines[-1].startswith("# done emitted=5")
    body = [l for l in lines if not l.startswith("#")]
    assert len(body) == 5
    journal = (root / "journal.fp").read_text().split()
    for line, fp in zip(body, journal):
        fields = line.split()
        assert fields[1] == fp
        assert fields[2].startswith("draws=")


def test_generated_files_parse_and_match_journal(tmp_path, artic3, artic3_config):
    root = tmp_path / "s"
    generate_batch(artic3_config, artic3, 12, 5,
                   root / "problems", root / "journal.fp")
    journal = (root / "journal.fp").read_text().split()
    files = sorted((root / "problems").iterdir())
    assert len(files) == 12
    for path, fp in zip(files, journal):
        text = path.read_text()
        assert fingerprint_text(text) == fp
        problem = parse_problem(text, artic3)
        assert problem.name == "artic3-task"
