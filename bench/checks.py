"""Correctness checks that the benchmark makes from outside the code under test.

* ``tree_hash``: the byte-identity gate hashes a run's ``problems/``,
  ``plans/`` and ``dataset/`` trees.
* ``check_dataset``: split sizes equal the quotas, no problem appears twice
  (compared on parsed content, independently of planforge's fingerprints),
  and every shipped plan passes ``tests/oracle.py``'s ``sim_validate``.
* ``oracle_shortest_length``: plan length from ``sim_shortest_plan``.
* The eval mix: what the stub answers for each request and the score each
  answer must get.

Problems and domains are parsed with planforge's parser; the oracle consumes
the parsed objects as passive data, as the test suite does.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import oracle
from planforge.pddl.parser import parse_domain, parse_problem


def tree_hash(root: Path, subdirs: list[str]) -> str:
    """SHA-256 over the relative path and bytes of every file under ``subdirs``."""
    digest = hashlib.sha256()
    for sub in subdirs:
        base = root / sub
        files = sorted(p for p in base.rglob("*") if p.is_file()) if base.is_dir() else []
        digest.update(f"{sub}:{len(files)}\n".encode())
        for path in files:
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def parse_steps(text: str) -> list[tuple[str, ...]]:
    """Plan text as written by planforge: one ``(action arg ...)`` per line."""
    return [tuple(line.strip()[1:-1].split()) for line in text.splitlines() if line.strip()]


def check_dataset(dataset_dir: Path, quotas: dict[str, int]) -> tuple[list[str], list[dict]]:
    """Check a dataset directory; returns (problems found, shipped records)."""
    problems = []
    shipped = []
    seen: dict[tuple, str] = {}
    domains: dict[str, object] = {}
    files = sorted(p for p in dataset_dir.glob("*.json") if p.name != "manifest.json")
    for path in files:
        entries = json.loads(path.read_text())
        split = path.stem
        if split in quotas and len(entries) != quotas[split]:
            problems.append(f"{path.name}: {len(entries)} records, quota {quotas[split]}")
        for index, entry in enumerate(entries):
            where = f"{path.name}[{index}]"
            domain = domains.get(entry["instruction"])
            if domain is None:
                domain = domains[entry["instruction"]] = parse_domain(entry["instruction"])
            problem = parse_problem(entry["input"], domain)
            content = (
                domain.name,
                frozenset(problem.objects),
                frozenset(problem.init),
                frozenset((lit.atom, lit.positive) for lit in problem.goal),
            )
            if content in seen:
                problems.append(f"{where} repeats the problem of {seen[content]}")
            seen[content] = where
            steps = parse_steps(entry["output"])
            valid, kind, step = oracle.sim_validate(domain, problem, steps)
            if not valid or not steps:
                problems.append(f"{where}: oracle rejects the plan ({kind} at step {step})")
            shipped.append({"where": where, "domain": domain, "problem": problem, "steps": steps})
    missing = sorted(set(quotas) - {p.stem for p in files})
    problems.extend(f"split file {name}.json missing" for name in missing)
    return problems, shipped


def _static_candidates(domain, problem) -> list:
    """``sim_static_filter(sim_ground_all(...))`` without building every
    instantiation first: static literals are tested as soon as their
    parameters are bound, in the oracle's own grounding order."""
    changed = {
        atom[0]
        for schema in domain.actions
        for branch in schema.effects
        for atom in branch.adds + branch.deletes
    }
    parents = dict(domain.types)

    def is_sub(t, ancestor):
        while not (ancestor == "object" or t == ancestor):
            if t not in parents:
                return False
            t = parents[t]
        return True

    def holds(atom, positive):
        if atom[0] == "=":
            return (atom[1] == atom[2]) == positive
        return (atom in problem.init) == positive

    out = []
    for schema in domain.actions:
        names = [p.name for p in schema.params]
        pools = [sorted(o for o, t in problem.objects if is_sub(t, p.type)) for p in schema.params]
        ready: list[list] = [[] for _ in range(len(names) + 1)]
        for lit in schema.precondition:
            if lit.atom[0] == "=" or lit.atom[0] not in changed:
                depth = max((names.index(t) + 1 for t in lit.atom[1:] if t in names), default=0)
                ready[depth].append(lit)

        def walk(depth, binding):
            for lit in ready[depth]:
                if not holds(tuple(binding.get(t, t) for t in lit.atom), lit.positive):
                    return
            if depth == len(names):
                action, _ = oracle.sim_ground(
                    domain, problem, schema.name, tuple(binding[n] for n in names)
                )
                out.append(action)
                return
            for obj in pools[depth]:
                binding[names[depth]] = obj
                walk(depth + 1, binding)
                del binding[names[depth]]

        walk(0, {})
    return oracle.sim_static_filter(domain, problem, out)


def oracle_shortest_length(domain, problem) -> int | None:
    """Length of ``oracle.sim_shortest_plan``'s plan.

    The oracle grounds every instantiation first, about 373k for an artic3
    problem (tens of seconds and gigabytes).  Instantiations that fail a
    static precondition in the initial state can apply in no reachable
    state, so the search runs over the static-filtered set instead; its
    breadth-first search is the oracle's own.
    """
    full_grounding = oracle.sim_ground_all
    oracle.sim_ground_all = _static_candidates
    try:
        plan = oracle.sim_shortest_plan(domain, problem)
    finally:
        oracle.sim_ground_all = full_grounding
    return None if plan is None else len(plan)


def check_shortest(shipped: list[dict], seed: int, sample: int) -> list[str]:
    """On a seeded sample of shipped records, plan length equals the oracle's."""
    problems = []
    for record in random.Random(f"shortest:{seed}").sample(shipped, min(sample, len(shipped))):
        expected = oracle_shortest_length(record["domain"], record["problem"])
        if expected != len(record["steps"]):
            problems.append(
                f"{record['where']}: plan has {len(record['steps'])} step(s), "
                f"oracle's shortest has {expected}"
            )
    return problems


# The stub's designed answers.  Each kind names the score ``planforge eval``
# must give it: None for a valid plan, else the failure kind.
MIX = {
    "gold": (4, None),  # the reference plan
    "short": (1, "goal_unreached"),  # the reference plan minus its last step
    "truncated": (1, None),  # plus half of a step, as when the token budget runs out
    "garbage": (1, "parse_error"),  # a chatty line before the plan
    "wrong_object": (1, "type_error"),  # first step names an unknown object
    "http_500": (1, "endpoint_error"),  # the server fails the request
}


def design_kind(seed: int, checkpoint: int, index: int) -> str:
    kinds = list(MIX)
    weights = [MIX[k][0] for k in kinds]
    return random.Random(f"{seed}:{checkpoint}:{index}").choices(kinds, weights)[0]


def design_answer(kind: str, gold: str) -> str | int:
    lines = gold.splitlines()
    if kind == "gold":
        return gold
    if kind == "short":
        return "".join(line + "\n" for line in lines[:-1])
    if kind == "truncated":
        return gold + lines[0][: len(lines[0]) // 2]
    if kind == "garbage":
        return "Here is the plan:\n" + gold
    if kind == "wrong_object":
        first = lines[0][1:-1].split()
        first[1] = "ghost"
        return "(" + " ".join(first) + ")\n" + "".join(line + "\n" for line in lines[1:])
    return 500


def expected_group(kinds: list[str]) -> dict:
    """The ``total``, ``valid`` and ``failure_kinds`` a group of answers must score."""
    failures: dict[str, int] = {}
    for kind in kinds:
        failure = MIX[kind][1]
        if failure:
            failures[failure] = failures.get(failure, 0) + 1
    valid = sum(1 for kind in kinds if MIX[kind][1] is None)
    return {"total": len(kinds), "valid": valid, "failure_kinds": dict(sorted(failures.items()))}
