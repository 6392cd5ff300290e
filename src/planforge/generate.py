"""Mass problem generation from a declarative config.

Determinism contract: draw ``i`` of a run samples from its own substream
``random.Random(f"{seed}:{i}")``, so a run can be replayed from draw 0 at any
time.  Resuming an interrupted batch replays the journal prefix (verifying
fingerprints) and then continues; the final directory is byte-identical to an
uninterrupted run.  Problem files are written before their journal line, so a
journal entry always refers to an existing file.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

from planforge import atomic_write
from planforge.dpgc import GeneratorConfig, ObjectPool, PredicatePool, validate_against_domain
from planforge.pddl.ground import goal_satisfied
from planforge.pddl.model import Atom, Domain, Literal, Problem
from planforge.pddl.writer import serialize_problem


class GenerationError(RuntimeError):
    pass


def fingerprint_text(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def _is_fingerprint(token: str) -> bool:
    return len(token) == 32 and all(c in "0123456789abcdef" for c in token)


def fingerprint_problem(problem: Problem) -> str:
    return fingerprint_text(serialize_problem(problem))


def instantiate_objects(config: GeneratorConfig) -> tuple[tuple[str, str], ...]:
    """All pool objects as (name, type) pairs, pool declaration order."""
    out: list[tuple[str, str]] = []
    for pool in config.object_pools:
        out.extend((name, pool.type) for name in pool.object_names)
    return tuple(out)


class _PoolState:
    """Per-problem draw bookkeeping for one object pool."""

    def __init__(self, pool: ObjectPool):
        self.pool = pool
        self.used: set[int] = set()
        self.cursor = 0

    def draw_base(
        self, rng: random.Random, offsets: tuple[int, ...], label: str | None
    ) -> int:
        """Draw a base index such that base+offset stays in range for every
        offset the label uses, respecting the pool's usage mode.  An untagged
        draw has no label and the single offset 0."""
        q = self.pool.quantity
        span = q - max(offsets)
        if span <= 0:
            raise GenerationError(
                f"tag '{self.pool.id}${label}' needs offsets up to +{max(offsets)} "
                f"but the pool has only {q} object(s)"
            )
        if self.pool.usage == "sequential":
            index = self.cursor % span
            self.cursor += 1
            return index
        if self.pool.usage == "mutex":
            eligible = [
                b for b in range(span)
                if all(b + off not in self.used for off in offsets)
            ]
            if not eligible:
                raise GenerationError(
                    f"object pool '{self.pool.id}' exhausted (usage mutex)"
                    if label is None
                    else f"cannot place tag '{self.pool.id}${label}': pool exhausted"
                )
            base = eligible[rng.randrange(len(eligible))]
            self.used.update(base + off for off in offsets)
            return base
        return rng.randrange(span)


def _label_offsets(pp: PredicatePool) -> dict[tuple[str, str], tuple[int, ...]]:
    """Static offset sets per (pool, label), over all atoms of the pool, so a
    base draw leaves room for every tagged sibling whether or not its
    Bernoulli later includes it."""
    offsets: dict[tuple[str, str], set[int]] = {}
    for tpl in pp.atoms:
        for arg in tpl.args:
            if arg.kind == "pool" and arg.label is not None:
                offsets.setdefault((arg.value, arg.label), set()).add(arg.offset)
    return {key: tuple(sorted(offs)) for key, offs in offsets.items()}


def sample_problem(
    config: GeneratorConfig, domain: Domain, rng: random.Random, name: str | None = None
) -> tuple[Problem, bool]:
    """Draw one problem.  Returns (problem, trivial) where trivial means the
    goal already holds in the initial state."""
    objects = instantiate_objects(config)
    init: set[Atom] = set(config.constant_init)
    goal: list[Atom] = []

    pool_states = {pool.id: _PoolState(pool) for pool in config.object_pools}

    # One categorical draw per mutex group picks the surviving member.
    chosen: set[str] = set()
    suppressed: set[str] = set()
    for group in config.mutex_groups:
        total = sum(group.weights)
        pick = rng.random() * total
        acc = 0.0
        selected = group.members[-1]
        for member, weight in zip(group.members, group.weights):
            acc += weight
            if pick < acc:
                selected = member
                break
        chosen.add(selected)
        suppressed.update(m for m in group.members if m != selected)

    def sample_pool(pp: PredicatePool, sink_init: bool) -> None:
        offsets = _label_offsets(pp)
        for _ in range(pp.count):
            bases: dict[tuple[str, str], int] = {}
            for tpl in pp.atoms:
                if tpl.probability < 1.0 and rng.random() >= tpl.probability:
                    continue
                terms: list[str] = []
                for arg in tpl.args:
                    if arg.kind == "literal":
                        terms.append(arg.value)
                        continue
                    state = pool_states[arg.value]
                    if arg.label is None:
                        index = state.draw_base(rng, (0,), None)
                    else:
                        key = (arg.value, arg.label)
                        if key not in bases:
                            bases[key] = state.draw_base(rng, offsets[key], arg.label)
                        index = bases[key] + arg.offset
                    terms.append(state.pool.object_names[index])
                atom = (tpl.predicate,) + tuple(terms)
                if sink_init:
                    init.add(atom)
                elif atom not in goal:
                    goal.append(atom)

    for pp in config.variable_init:
        if pp.id not in suppressed:
            sample_pool(pp, sink_init=True)
    for pp in config.variable_goal:
        if pp.id not in suppressed:
            sample_pool(pp, sink_init=False)

    if not goal:
        raise GenerationError("sampled an empty goal; give at least one goal "
                              "atom probability 1")

    problem = Problem(
        name=name or f"{config.domain}-task",
        domain=config.domain,
        objects=objects,
        init=frozenset(init),
        goal=tuple(Literal(a) for a in goal),
    )
    trivial = goal_satisfied(problem.init, problem.goal)
    return problem, trivial


@dataclass
class GenerationResult:
    new_emissions: int = 0
    replayed: int = 0
    draws: int = 0
    duplicates: int = 0
    degenerate: int = 0
    trivial: int = 0
    problem_files: list[Path] = field(default_factory=list)


# Draws in a row that produce nothing new before generate_batch gives up.
MAX_CONSECUTIVE_FAILURES = 1000


def problem_file_name(domain: str, index: int) -> str:
    return f"{domain}_{index:06d}.pddl"


def generate_batch(
    config: GeneratorConfig,
    domain: Domain,
    count: int,
    seed: int | str,
    problems_dir: Path,
    journal_path: Path,
    log_path: Path | None = None,
) -> GenerationResult:
    """Emit ``count`` unique problems, resuming from the journal if present.

    Aborts once ``MAX_CONSECUTIVE_FAILURES`` draws in a row produce nothing
    new, which signals an (almost) exhausted configuration space.
    """
    diags = validate_against_domain(config, domain)
    hard = [d for d in diags if d.severity == "error"]
    if hard:
        raise GenerationError(
            "config does not fit the domain:\n" + "\n".join(str(d) for d in hard)
        )

    problems_dir.mkdir(parents=True, exist_ok=True)
    journal: list[str] = []
    if journal_path.exists():
        journal = journal_path.read_text().split()
        # A crash mid-append can leave a torn final line; drop it and let the
        # replay re-emit that problem (its file, if any, is rewritten as-is).
        if journal and not _is_fingerprint(journal[-1]):
            journal.pop()
            journal_path.write_text("".join(fp + "\n" for fp in journal))

    result = GenerationResult()
    seen: set[str] = set()
    consecutive_failures = 0
    draw_index = 0

    log_file = open(log_path, "a") if log_path else None
    journal_file = open(journal_path, "a")
    try:
        if log_file:
            log_file.write(
                f"# generate domain={config.domain} seed={seed} target={count} "
                f"resume_at={len(journal)}\n"
            )
            log_file.flush()
        while len(seen) < count:
            rng = random.Random(f"{seed}:{draw_index}")
            draw_index += 1
            try:
                problem, trivial = sample_problem(config, domain, rng)
            except GenerationError as err:
                result.degenerate += 1
                consecutive_failures += 1
                if consecutive_failures >= MAX_CONSECUTIVE_FAILURES:
                    raise GenerationError(
                        f"{consecutive_failures} consecutive draws produced no new "
                        f"problem (last error: {err}); aborting after "
                        f"{len(seen)} emission(s)"
                    ) from err
                continue
            text = serialize_problem(problem)
            fp = fingerprint_text(text)
            if fp in seen:
                result.duplicates += 1
                consecutive_failures += 1
                if consecutive_failures >= MAX_CONSECUTIVE_FAILURES:
                    raise GenerationError(
                        f"{consecutive_failures} consecutive duplicate draws; the "
                        f"configuration space is likely exhausted after "
                        f"{len(seen)} emission(s)"
                    )
                continue
            consecutive_failures = 0
            seen.add(fp)
            index = len(seen)
            path = problems_dir / problem_file_name(config.domain, index)
            if trivial:
                result.trivial += 1
            if index <= len(journal):
                if journal[index - 1] != fp:
                    raise GenerationError(
                        f"journal mismatch at emission {index}: the journal was "
                        "written with a different seed or config; clear the "
                        "session to regenerate"
                    )
                # A torn or edited file is rewritten with the replayed bytes.
                if not path.exists() or path.read_bytes() != text.encode():
                    atomic_write(path, text)
                result.replayed += 1
            else:
                atomic_write(path, text)
                journal_file.write(fp + "\n")
                journal_file.flush()
                result.new_emissions += 1
                if log_file:
                    marker = " trivial" if trivial else ""
                    log_file.write(
                        f"{index:06d} {fp} draws={draw_index} "
                        f"init={len(problem.init)} goal={len(problem.goal)}{marker}\n"
                    )
                    log_file.flush()
            result.problem_files.append(path)
        result.draws = draw_index
        if log_file:
            log_file.write(
                f"# done emitted={len(seen)} draws={draw_index} "
                f"duplicates={result.duplicates} degenerate={result.degenerate} "
                f"trivial={result.trivial}\n"
            )
    finally:
        journal_file.close()
        if log_file:
            log_file.close()
    return result
