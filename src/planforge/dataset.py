"""Instruction-tuning dataset assembly with quota-exact, leak-free splits.

Records follow the Alpaca convention: ``instruction`` holds the domain text,
``input`` the problem text, ``output`` the plan text.  Splits are drawn with
a seeded shuffle, quotas are exact per domain, leftovers land in
``spillover.json``, and every record is revalidated before it is written.
Split membership is tracked by problem fingerprint so leakage can be audited
from the shipped files alone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from planforge.generate import fingerprint_problem
from planforge.pddl.parser import parse_domain, parse_problem
from planforge.plans import validate

ALPACA_KEYS = ("instruction", "input", "output")


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class DatasetRecord:
    domain_name: str
    problem_id: str
    instruction: str  # domain text
    input: str  # problem text
    output: str  # plan text
    fingerprint: str


def build_records(
    domain_path: str | Path, problem_paths: list[Path], plans_dir: str | Path
) -> tuple[list[DatasetRecord], list[str]]:
    """Pair problems with their plan files.

    Problems without a plan file, or with an empty plan (trivial goals), are
    skipped and reported so the caller can regenerate replacements.
    """
    domain_text = Path(domain_path).read_text()
    domain = parse_domain(domain_text)
    plans_dir = Path(plans_dir)
    records: list[DatasetRecord] = []
    skipped: list[str] = []
    for problem_path in problem_paths:
        pid = problem_path.stem
        plan_path = plans_dir / f"{pid}.plan"
        if not plan_path.exists():
            skipped.append(pid)
            continue
        plan_text = plan_path.read_text()
        if not plan_text.strip():
            skipped.append(pid)
            continue
        problem_text = problem_path.read_text()
        problem = parse_problem(problem_text, domain)
        records.append(
            DatasetRecord(
                domain_name=domain.name,
                problem_id=pid,
                instruction=domain_text,
                input=problem_text,
                output=plan_text,
                fingerprint=fingerprint_problem(problem),
            )
        )
    return records, skipped


def to_alpaca(records: list[DatasetRecord]) -> list[dict[str, str]]:
    return [
        {"instruction": r.instruction, "input": r.input, "output": r.output}
        for r in records
    ]


def _revalidate(record: DatasetRecord) -> None:
    try:
        domain = parse_domain(record.instruction)
        problem = parse_problem(record.input, domain)
        outcome = validate(domain, problem, record.output)
    except ValueError as err:
        raise DatasetError(f"record '{record.problem_id}' does not parse: {err}") from err
    if not outcome.valid:
        raise DatasetError(
            f"record '{record.problem_id}' has an invalid plan: {outcome.message}"
        )


def per_domain_quotas(quotas: dict[str, int], n_domains: int) -> dict[str, int]:
    """Each split's count per domain.

    Quotas apply to the combined dataset and must be positive and divide
    evenly across the domains, so each domain contributes the same count to
    each split.  Raises DatasetError otherwise.
    """
    need: dict[str, int] = {}
    for name, quota in quotas.items():
        if quota <= 0:
            raise DatasetError(f"split '{name}' has non-positive quota {quota}")
        if quota % n_domains != 0:
            raise DatasetError(
                f"split '{name}' quota {quota} does not divide evenly "
                f"across {n_domains} domain(s)"
            )
        need[name] = quota // n_domains
    return need


def assemble(
    records: list[DatasetRecord],
    quotas: dict[str, int],
    seed: int | str,
    out_dir: str | Path,
) -> dict:
    """Write quota-exact split files plus spillover and a manifest.

    Raises DatasetError on bad quotas (see ``per_domain_quotas``), empty
    fields, duplicate problems, plans that do not revalidate, or unmet
    quotas.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not records:
        raise DatasetError("no records to assemble")
    groups: dict[str, list[DatasetRecord]] = {}
    for record in records:
        groups.setdefault(record.domain_name, []).append(record)
    domains = sorted(groups)
    need_per_domain = per_domain_quotas(quotas, len(domains))

    for record in records:
        for key in ALPACA_KEYS:
            if not getattr(record, key).strip():
                raise DatasetError(
                    f"record '{record.problem_id}' has an empty '{key}' field"
                )

    by_fp: dict[str, str] = {}
    for record in records:
        if record.fingerprint in by_fp:
            raise DatasetError(
                f"duplicate problem: '{record.problem_id}' repeats "
                f"'{by_fp[record.fingerprint]}'"
            )
        by_fp[record.fingerprint] = record.problem_id

    for record in records:
        _revalidate(record)

    total_needed = sum(need_per_domain.values())
    for domain in domains:
        if len(groups[domain]) < total_needed:
            raise DatasetError(
                f"domain '{domain}' has {len(groups[domain])} record(s) but "
                f"the quotas require {total_needed}"
            )

    splits: dict[str, list[DatasetRecord]] = {name: [] for name in quotas}
    spillover: list[DatasetRecord] = []
    for domain in domains:
        ordered = sorted(groups[domain], key=lambda r: r.problem_id)
        random.Random(f"{seed}:{domain}").shuffle(ordered)
        cursor = 0
        for name in quotas:
            take = need_per_domain[name]
            splits[name].extend(ordered[cursor:cursor + take])
            cursor += take
        spillover.extend(ordered[cursor:])

    # Mix domains within each split so training order is not blocked.
    for name in quotas:
        random.Random(f"{seed}:{name}").shuffle(splits[name])
    random.Random(f"{seed}:spillover").shuffle(spillover)

    manifest: dict = {
        "seed": str(seed),
        "domains": domains,
        "quotas": dict(quotas),
        "counts": {
            "input": len(records),
            "spillover": len(spillover),
            **{name: len(splits[name]) for name in quotas},
        },
        "splits": {},
        "files": {name: f"{name}.json" for name in quotas},
    }
    if spillover:
        manifest["files"]["spillover"] = "spillover.json"

    for name in quotas:
        chosen = splits[name]
        per_domain: dict[str, int] = {d: 0 for d in domains}
        for record in chosen:
            per_domain[record.domain_name] += 1
        manifest["splits"][name] = {
            "count": len(chosen),
            "per_domain": per_domain,
            "ids": [r.problem_id for r in chosen],
            "fingerprints": [r.fingerprint for r in chosen],
        }
        (out_dir / f"{name}.json").write_text(
            json.dumps(to_alpaca(chosen), indent=2) + "\n"
        )
    if spillover:
        (out_dir / "spillover.json").write_text(
            json.dumps(to_alpaca(spillover), indent=2) + "\n"
        )
        manifest["splits"]["spillover"] = {
            "count": len(spillover),
            "ids": [r.problem_id for r in spillover],
            "fingerprints": [r.fingerprint for r in spillover],
        }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


@dataclass
class AuditReport:
    files: dict[str, int]
    collisions: list[dict]

    @property
    def clean(self) -> bool:
        return not self.collisions


def audit_leakage(dataset_dir: str | Path) -> AuditReport:
    """Recompute problem fingerprints from the shipped split files and report
    any fingerprint that appears in more than one file.

    The recompute goes through a full parse and canonical re-render of each
    record's ``input`` against its own ``instruction``, so cosmetic
    differences (whitespace, ordering) cannot hide a leak.
    """
    dataset_dir = Path(dataset_dir)
    files = sorted(dataset_dir.glob("*.json"))
    files = [f for f in files if f.name != "manifest.json"]
    if not files:
        raise DatasetError(f"no split files found in {dataset_dir}")
    seen: dict[str, list[tuple[str, int]]] = {}
    counts: dict[str, int] = {}
    for path in files:
        data = json.loads(path.read_text())
        counts[path.name] = len(data)
        for index, entry in enumerate(data):
            domain = parse_domain(entry["instruction"])
            problem = parse_problem(entry["input"], domain)
            fp = fingerprint_problem(problem)
            seen.setdefault(fp, []).append((path.name, index))
    collisions = [
        {"fingerprint": fp, "occurrences": places}
        for fp, places in sorted(seen.items())
        if len({name for name, _ in places}) > 1 or len(places) > 1
    ]
    return AuditReport(files=counts, collisions=collisions)
