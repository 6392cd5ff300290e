"""Session directories and idempotent pipeline stages.

A session is a self-contained working directory.  Single-domain layout:

    session/
      config.dpgc.json   the generation config, as the bytes generated from
      domain.pddl        the domain, as the bytes generated from
      problems/          generated problems
      journal.fp         one whole line per emission: fingerprint, index, draws
      plans/             validated plans, <problem>.plan
      planning.log
      logs/              stage completion markers

A pipeline session nests one such directory per domain and adds dataset/ at
the top.  Every stage writes a completion marker recording a
fingerprint of its inputs; reruns skip work that is already done and refuse
to continue silently when the inputs changed.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from planforge import atomic_write, parse_file, read_file
from planforge.dataset import (
    DatasetError,
    DatasetRecord,
    assemble,
    audit_leakage,
    build_records,
    per_domain_quotas,
)
from planforge.dpgc import read_config, validate_against_domain
from planforge.drivers import PlannerAdapter, PlannerPool, load_adapters, plan_batch
from planforge.generate import GenerationError, fingerprint_text, generate_batch
from planforge.pddl.parser import parse_domain
# StageError and the pipeline config's check live in shape, which loads no
# PDDL code, so that a command can check its config before it loads this
# module; they are re-exported here.
from planforge.shape import _PIPELINE, WHOLE, Object, StageError, load, load_pipeline_config, refuse


# Top-up rounds per domain before run_pipeline gives up on a shortfall.
MAX_ROUNDS = 10


# The fields of a stage marker that the stages read back.
_MARKER = Object({"fingerprint": "string", "count": WHOLE, "adapter": "string"},
                 ("fingerprint",), open=True)


def stage_fingerprint(parts: dict) -> str:
    return fingerprint_text(json.dumps(parts, sort_keys=True))


@dataclass
class Session:
    root: Path

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    @property
    def config_path(self) -> Path:
        return self.root / "config.dpgc.json"

    @property
    def domain_path(self) -> Path:
        return self.root / "domain.pddl"

    @property
    def problems_dir(self) -> Path:
        return self.root / "problems"

    @property
    def journal_path(self) -> Path:
        return self.root / "journal.fp"

    @property
    def plans_dir(self) -> Path:
        return self.root / "plans"

    @property
    def planning_log(self) -> Path:
        return self.root / "planning.log"

    @property
    def dataset_dir(self) -> Path:
        return self.root / "dataset"

    @property
    def logs_dir(self) -> Path:
        return self.root / "logs"

    def marker_path(self, stage: str) -> Path:
        return self.logs_dir / f"{stage}.json"

    def read_marker(self, stage: str) -> dict | None:
        """The marker of ``stage``, or None if it has none.  A marker that
        is not JSON, or whose fields do not fit ``_MARKER``, is a StageError
        naming the file and the place."""
        path = self.marker_path(stage)
        if not path.exists():
            return None
        return load(path, _MARKER, "marker", StageError)

    def write_marker(self, stage: str, fingerprint: str, **extra) -> None:
        self.logs_dir.mkdir(parents=True, exist_ok=True)
        payload = {"stage": stage, "fingerprint": fingerprint, **extra}
        # Whole or absent: a torn marker would fail every later resume.
        atomic_write(self.marker_path(stage), json.dumps(payload, indent=2) + "\n")

    def problem_paths(self) -> list[Path]:
        if not self.problems_dir.is_dir():
            return []
        return sorted(self.problems_dir.glob("*.pddl"))


def load_adapter(name: str, registry: str | Path | None = None) -> PlannerAdapter:
    """The adapter called ``name`` in ``registry`` (default: the bundled one)."""
    adapters = load_adapters(registry)
    if name not in adapters:
        raise StageError(
            f"unknown adapter '{name}' (registry has: {', '.join(sorted(adapters))})"
        )
    return adapters[name]


def stage_generate(
    session: Session,
    config_path: str | Path,
    domain_path: str | Path,
    count: int,
    seed: int | str,
) -> dict:
    """Generate problems into the session, resuming from the journal.

    Each input is read once, and the session adopts exactly the bytes it
    parsed, checked and fingerprints.  It refuses an input that differs
    from the one it adopted first, then a config that does not fit its
    domain.

    The marker fingerprint covers config, domain and seed but not the count:
    the count is a target, and a later call may raise it and top the session
    up through the same journal replay.
    """
    config_data, config_text, config = read_config(config_path)
    domain_data, domain_text, domain = read_file(domain_path, parse_domain)
    copies = ((config_path, config_data, session.config_path),
              (domain_path, domain_data, session.domain_path))
    for source, data, copy in copies:
        if copy.exists() and copy.read_bytes() != data:
            raise StageError(
                f"{copy.name} already in session {session.root} differs from "
                f"{source}; use a fresh session directory"
            )
    refuse(config_path, validate_against_domain(config, domain), StageError)
    session.root.mkdir(parents=True, exist_ok=True)
    for _, data, copy in copies:
        if not copy.exists():
            # Whole or not at all: a torn copy would differ from its source
            # and make every rerun refuse the session.
            atomic_write(copy, data)

    fingerprint = stage_fingerprint(
        {
            "stage": "generate",
            "config": config_text,
            "domain": domain_text,
            "seed": str(seed),
        }
    )
    marker = session.read_marker("generate")
    if marker is not None:
        if marker["fingerprint"] != fingerprint:
            raise StageError(
                f"session {session.root} was generated with a different "
                "config/domain/seed; use a fresh session directory"
            )
        if marker.get("count", 0) >= count:
            return {"skipped": True, "count": marker.get("count", 0)}

    try:
        result = generate_batch(
            config, domain, count, seed, session.problems_dir, session.journal_path
        )
    except GenerationError as err:
        raise StageError(str(err)) from err
    counts = {"new": result.new_emissions, "replayed": result.replayed,
              "trivial": result.trivial}
    session.write_marker("generate", fingerprint, count=count, seed=str(seed), **counts,
                         duplicates=result.duplicates, degenerate=result.degenerate,
                         draws=result.draws)
    return {"skipped": False, "count": count, **counts}


def stage_plan(
    session: Session,
    adapter: PlannerAdapter,
    *,
    timeout: float | None = None,
    pool: PlannerPool,
) -> dict:
    """Plan every problem that does not have a plan file yet, on ``pool``'s
    workers (see ``plan_batch``).

    Plans are only written if they validate, so rerunning after an
    interruption picks up exactly the unplanned remainder.  A session keeps
    the adapter it was first planned with, bound by a marker written before
    the first plan; another one is refused, so that plans from different
    planners never mix, even after an interruption.
    """
    if not session.domain_path.exists():
        raise StageError(f"session {session.root} has no domain.pddl")
    problems = session.problem_paths()
    if not problems:
        raise StageError(f"session {session.root} has no problems to plan")
    fingerprint = stage_fingerprint(
        {
            "stage": "plan",
            "adapter": adapter.name,
            "domain": parse_file(session.domain_path, str),
        }
    )
    marker = session.read_marker("plan")
    if marker is None:
        session.write_marker("plan", fingerprint, adapter=adapter.name)
    elif marker["fingerprint"] != fingerprint:
        if marker.get("adapter") == adapter.name:
            what = "has a domain.pddl that changed since it was planned"
        else:
            what = f"was planned with adapter '{marker.get('adapter')}', not '{adapter.name}'"
        raise StageError(f"session {session.root} {what}; use a fresh session directory")
    pending = [
        p for p in problems if not (session.plans_dir / f"{p.stem}.plan").exists()
    ]
    attempted = len(pending)
    entries = []
    if pending:
        entries = plan_batch(
            adapter,
            session.domain_path,
            pending,
            session.plans_dir,
            timeout=timeout,
            pool=pool,
            log_path=session.planning_log,
        )
    tally = dict(Counter(entry.status for entry in entries))
    # Only a solved result writes a plan file.
    planned = len(problems) - attempted + tally.get("solved", 0)
    counts = {"problems": len(problems), "planned": planned,
              "attempted": attempted, "tally": tally}
    session.write_marker("plan", fingerprint, adapter=adapter.name, **counts)
    return {**counts, "shortfall": len(problems) - planned}


def collect_records(session: Session):
    return build_records(
        session.domain_path, session.problem_paths(), session.plans_dir
    )


def stage_assemble(
    records: list[DatasetRecord],
    quotas: dict[str, int],
    seed: int | str,
    out_dir: str | Path,
) -> dict:
    try:
        manifest = assemble(records, quotas, seed, out_dir)
    except ValueError as err:
        raise StageError(str(err)) from err
    report = audit_leakage(out_dir)
    if not report.clean:
        raise StageError(
            f"dataset leakage detected: {len(report.collisions)} fingerprint(s) "
            "appear more than once"
        )
    return manifest


def run_pipeline(config: dict, root: str | Path, pool: PlannerPool) -> dict:
    """Generate, plan, top up shortfalls, assemble, audit.

    Each domain is generated and planned in its own sub-session.  When fewer
    usable (problem, plan) pairs exist than the quotas require, the target
    count is raised by the missing amount and the generate/plan stages run
    again, at most ``MAX_ROUNDS`` times.  Every round of every domain plans
    on ``pool``, which the caller opened with ``config["workers"]`` workers
    and closes.
    """
    root = Path(root)
    pipeline = Session(root)
    seed = config["seed"]
    adapter = load_adapter(config["adapter"], config.get("adapters_file"))
    # Each entry's inputs are read once, before the first round: the domain
    # names its sub-session, and the text goes into the pipeline marker.
    names: dict[str, int] = {}
    texts = []
    for i, entry in enumerate(config["domains"]):
        _, domain_text, domain = read_file(entry["domain"], parse_domain)
        if domain.name in names:
            raise StageError(
                f"config.domains[{names[domain.name]}] and config.domains[{i}] "
                f"both hold domain '{domain.name}'; give each domain one entry"
            )
        names[domain.name] = i
        texts.append(domain_text + read_config(entry["dpgc"])[1])
    quotas = config["quotas"]
    try:
        needed_per_domain = sum(
            per_domain_quotas(quotas, len(config["domains"])).values()
        )
    except DatasetError as err:
        raise StageError(str(err)) from err

    summary: dict = {"domains": {}}
    all_records: list[DatasetRecord] = []
    for entry, domain_name in zip(config["domains"], names):
        sub = Session(root / domain_name)
        target = entry["count"]
        usable = 0
        rounds = 0
        while True:
            rounds += 1
            gen = stage_generate(sub, entry["dpgc"], entry["domain"], target, seed)
            plan = stage_plan(sub, adapter, timeout=config.get("timeout"), pool=pool)
            records, skipped = collect_records(sub)
            usable = len(records)
            if usable >= needed_per_domain:
                break
            if rounds >= MAX_ROUNDS:
                raise StageError(
                    f"domain '{domain_name}': still {needed_per_domain - usable} "
                    f"record(s) short after {rounds} round(s)"
                )
            target += needed_per_domain - usable
        all_records.extend(records)
        summary["domains"][domain_name] = {
            "target": target,
            "usable": usable,
            "skipped_without_plan": len(skipped),
            "generate": gen,
            "plan": plan,
            "rounds": rounds,
        }

    manifest = stage_assemble(all_records, quotas, seed, pipeline.dataset_dir)
    summary["dataset"] = manifest["counts"]
    fingerprint = stage_fingerprint(
        {
            "stage": "pipeline",
            "seed": str(seed),
            "quotas": quotas,
            "adapter": adapter.name,
            "domains": texts,
        }
    )
    pipeline.write_marker("pipeline", fingerprint, summary=summary["dataset"])
    return summary
