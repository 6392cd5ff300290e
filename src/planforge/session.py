"""Session directories and idempotent pipeline stages.

A session is a self-contained working directory.  Single-domain layout:

    session/
      config.dpgc.json   copy of the generation config
      domain.pddl        copy of the domain
      problems/          generated problems
      journal.fp         fingerprint journal (one line per emission)
      generation.log
      plans/             validated plans, <problem>.plan
      planning.log
      logs/              stage completion markers

A pipeline session nests one such directory per domain and adds dataset/ at
the top.  Every stage writes a completion marker recording a
fingerprint of its inputs; reruns skip work that is already done and refuse
to continue silently when the inputs changed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from planforge.dataset import (
    DatasetError,
    DatasetRecord,
    assemble,
    audit_leakage,
    build_records,
    per_domain_quotas,
)
from planforge.dpgc import load_config
from planforge.drivers import PlannerAdapter, load_adapters, plan_batch
from planforge.generate import GenerationError, generate_batch
from planforge.pddl.model import Domain
from planforge.pddl.parser import parse_domain


# Top-up rounds per domain before run_pipeline gives up on a shortfall.
MAX_ROUNDS = 10


class StageError(RuntimeError):
    pass


def stage_fingerprint(parts: dict) -> str:
    payload = json.dumps(parts, sort_keys=True).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


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
    def generation_log(self) -> Path:
        return self.root / "generation.log"

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
        path = self.marker_path(stage)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def write_marker(self, stage: str, fingerprint: str, **extra) -> None:
        self.logs_dir.mkdir(parents=True, exist_ok=True)
        payload = {"stage": stage, "fingerprint": fingerprint, **extra}
        self.marker_path(stage).write_text(json.dumps(payload, indent=2) + "\n")

    def problem_paths(self) -> list[Path]:
        if not self.problems_dir.is_dir():
            return []
        return sorted(self.problems_dir.glob("*.pddl"))

    def adopt_input(self, source: str | Path, dest: Path) -> None:
        """Copy an input file into the session; refuse to clobber a
        different one, which would desynchronize journal and problems."""
        source = Path(source)
        if not source.exists():
            raise StageError(f"input file not found: {source}")
        if dest.exists():
            if dest.read_text() != source.read_text():
                raise StageError(
                    f"{dest.name} already in session {self.root} differs from "
                    f"{source}; use a fresh session directory"
                )
            return
        self.root.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source, dest)

    def load_domain(self) -> Domain:
        if not self.domain_path.exists():
            raise StageError(f"session {self.root} has no domain.pddl")
        return parse_domain(self.domain_path.read_text())


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

    The marker fingerprint covers config, domain and seed but not the count:
    the count is a target, and a later call may raise it and top the session
    up through the same journal replay.
    """
    session.adopt_input(config_path, session.config_path)
    session.adopt_input(domain_path, session.domain_path)
    config = load_config(session.config_path)
    domain = session.load_domain()

    fingerprint = stage_fingerprint(
        {
            "stage": "generate",
            "config": session.config_path.read_text(),
            "domain": session.domain_path.read_text(),
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
            return {"skipped": True, "count": marker["count"]}

    try:
        result = generate_batch(
            config,
            domain,
            count,
            seed,
            session.problems_dir,
            session.journal_path,
            session.generation_log,
        )
    except GenerationError as err:
        raise StageError(str(err)) from err
    session.write_marker(
        "generate",
        fingerprint,
        count=count,
        seed=str(seed),
        new=result.new_emissions,
        replayed=result.replayed,
        duplicates=result.duplicates,
        trivial=result.trivial,
    )
    return {
        "skipped": False,
        "count": count,
        "new": result.new_emissions,
        "replayed": result.replayed,
        "trivial": result.trivial,
    }


def stage_plan(
    session: Session,
    adapter: PlannerAdapter,
    *,
    timeout: float | None = None,
    workers: int = 1,
) -> dict:
    """Plan every problem that does not have a plan file yet.

    Plans are only written if they validate, so rerunning after an
    interruption picks up exactly the unplanned remainder.  A session keeps
    the adapter it was first planned with; another one is refused, so that
    plans from different planners never mix.
    """
    domain = session.load_domain()
    problems = session.problem_paths()
    if not problems:
        raise StageError(f"session {session.root} has no problems to plan")
    fingerprint = stage_fingerprint(
        {
            "stage": "plan",
            "adapter": adapter.name,
            "domain": session.domain_path.read_text(),
        }
    )
    marker = session.read_marker("plan")
    if marker is not None and marker["fingerprint"] != fingerprint:
        raise StageError(
            f"session {session.root} was planned with adapter "
            f"'{marker['adapter']}', not '{adapter.name}'; use a fresh session "
            "directory"
        )
    pending = [
        p for p in problems if not (session.plans_dir / f"{p.stem}.plan").exists()
    ]
    attempted = len(pending)
    entries = []
    if pending:
        entries = plan_batch(
            adapter,
            domain,
            session.domain_path,
            pending,
            session.plans_dir,
            timeout=timeout,
            workers=workers,
            log_path=session.planning_log,
        )
    tally = dict(Counter(entry.status for entry in entries))
    planned = sum(
        1 for p in problems if (session.plans_dir / f"{p.stem}.plan").exists()
    )
    session.write_marker(
        "plan",
        fingerprint,
        adapter=adapter.name,
        problems=len(problems),
        planned=planned,
        attempted=attempted,
        tally=tally,
    )
    return {
        "problems": len(problems),
        "planned": planned,
        "attempted": attempted,
        "shortfall": len(problems) - planned,
        "tally": tally,
    }


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


def load_pipeline_config(path: str | Path) -> dict:
    """Read and check a pipeline config document."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise StageError(f"cannot read pipeline config {path}: {err}") from err
    if "seed" not in data:
        raise StageError(f"{path}: pipeline config must set 'seed'")
    domains = data.get("domains")
    if not isinstance(domains, list) or not domains:
        raise StageError(f"{path}: pipeline config needs a non-empty 'domains' array")
    for i, entry in enumerate(domains):
        for key in ("domain", "dpgc", "count"):
            if key not in entry:
                raise StageError(f"{path}: domains[{i}] is missing '{key}'")
    quotas = data.get("quotas")
    if not isinstance(quotas, dict) or not quotas:
        raise StageError(f"{path}: pipeline config needs a non-empty 'quotas' object")
    data.setdefault("adapter", "internal")
    base = path.resolve().parent
    for entry in domains:
        entry["domain"] = str((base / entry["domain"]).resolve())
        entry["dpgc"] = str((base / entry["dpgc"]).resolve())
    if "adapters_file" in data:
        data["adapters_file"] = str((base / data["adapters_file"]).resolve())
    return data


def run_pipeline(config: dict, root: str | Path) -> dict:
    """Generate, plan, top up shortfalls, assemble, audit.

    Each domain is generated and planned in its own sub-session.  When fewer
    usable (problem, plan) pairs exist than the quotas require, the target
    count is raised by the missing amount and the generate/plan stages run
    again, at most ``MAX_ROUNDS`` times.
    """
    root = Path(root)
    pipeline = Session(root)
    seed = config["seed"]
    adapter = load_adapter(config["adapter"], config.get("adapters_file"))
    quotas = {name: int(v) for name, v in config["quotas"].items()}
    try:
        needed_per_domain = sum(
            per_domain_quotas(quotas, len(config["domains"])).values()
        )
    except DatasetError as err:
        raise StageError(str(err)) from err

    summary: dict = {"domains": {}}
    all_records: list[DatasetRecord] = []
    for entry in config["domains"]:
        domain_name = parse_domain(Path(entry["domain"]).read_text()).name
        sub = Session(root / domain_name)
        target = int(entry["count"])
        usable = 0
        rounds = 0
        while True:
            rounds += 1
            gen = stage_generate(sub, entry["dpgc"], entry["domain"], target, seed)
            plan = stage_plan(
                sub,
                adapter,
                timeout=config.get("timeout"),
                workers=int(config.get("workers", 1)),
            )
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
            "domains": [
                Path(e["domain"]).read_text() + Path(e["dpgc"]).read_text()
                for e in config["domains"]
            ],
        }
    )
    pipeline.write_marker("pipeline", fingerprint, summary=summary["dataset"])
    return summary
