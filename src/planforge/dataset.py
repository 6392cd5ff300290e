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

from planforge import atomic_write, parse_file, read_file
from planforge.generate import fingerprint_problem
from planforge.pddl.parser import parse_domain, parse_problem
from planforge.plans import validate
from planforge.shape import ALPACA_KEYS, Map, Object, load, parse_record, read_split

SPLIT_NAMES = ("train", "val", "test")


class DatasetError(ValueError):
    pass


# What ``assemble`` reads of the manifest a previous run left: the files it
# lists.
_MANIFEST = Object({"files": Map("file")}, ("files",), open=True)


@dataclass(frozen=True)
class DatasetRecord:
    """One sample, as the exact text that ships."""

    domain_name: str
    problem_id: str
    instruction: str  # domain text
    input: str  # problem text
    output: str  # plan text


def build_records(
    domain_path: str | Path, problem_paths: list[Path], plans_dir: str | Path
) -> tuple[list[DatasetRecord], list[str]]:
    """Pair problems with their plan files; nothing is parsed but the
    domain, for its name.

    A problem whose plan is empty (a trivial goal) is skipped and reported,
    so the caller can regenerate a replacement; a problem without a plan
    file counts as one with an empty plan.
    """
    _, domain_text, domain = read_file(domain_path, parse_domain)
    plans_dir = Path(plans_dir)
    records: list[DatasetRecord] = []
    skipped: list[str] = []
    for problem_path in problem_paths:
        pid = problem_path.stem
        plan_path = plans_dir / f"{pid}.plan"
        plan_text = parse_file(plan_path, str) if plan_path.exists() else ""
        if not plan_text.strip():
            skipped.append(pid)
            continue
        records.append(
            DatasetRecord(
                domain_name=domain.name,
                problem_id=pid,
                instruction=domain_text,
                input=parse_file(problem_path, str),
                output=plan_text,
            )
        )
    return records, skipped


def to_alpaca(records: list[DatasetRecord]) -> list[dict[str, str]]:
    return [
        {"instruction": r.instruction, "input": r.input, "output": r.output}
        for r in records
    ]


def check_record(record: DatasetRecord) -> str:
    """The fingerprint of ``record``'s problem.  Raises DatasetError unless
    every field is non-empty, the domain and problem parse and the plan
    revalidates."""
    for key in ALPACA_KEYS:
        if not getattr(record, key).strip():
            raise DatasetError(f"record '{record.problem_id}' has an empty '{key}' field")
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
    return fingerprint_problem(problem)


def per_domain_quotas(quotas: dict[str, int], n_domains: int) -> dict[str, int]:
    """Each split's count per domain.

    Splits are named ``train``, ``val`` or ``test``; each names the split's
    file, beside ``spillover.json`` and ``manifest.json``.  Quotas apply to
    the combined dataset and must be positive and divide evenly across the
    domains, so each domain contributes the same count to each split.
    Raises DatasetError otherwise.
    """
    need: dict[str, int] = {}
    for name, quota in quotas.items():
        if name not in SPLIT_NAMES:
            raise DatasetError(f"split '{name}' is not one of {', '.join(SPLIT_NAMES)}")
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
    """Write quota-exact split files, spillover and a manifest.

    Each domain's records, in a seeded shuffle, fill the splits in quota
    order with its equal share of each quota; spillover, the last split,
    takes what they leave.  Each split is then shuffled to mix its domains
    and written whole or not at all, the manifest last.  An empty spillover
    gets no file and no entry in the manifest's ``files`` and ``splits``.
    Files that the previous manifest in ``out_dir`` lists and this run does
    not write are deleted, so that an audit sees only this run's splits.

    Raises DatasetError on bad quotas (see ``per_domain_quotas``), on the
    first record in input order that ``check_record`` refuses or that
    repeats an earlier problem, on unmet quotas, or on a previous manifest
    whose ``files`` is not a map of plain file names.  Only each record's
    fingerprint is kept, so memory is bounded by the record texts.
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

    # Keyed by record, not by id: two sessions of one domain repeat ids.
    fingerprints: dict[DatasetRecord, str] = {}
    first_of: dict[str, str] = {}
    for record in records:
        fingerprint = fingerprints[record] = check_record(record)
        if fingerprint in first_of:
            raise DatasetError(
                f"duplicate problem: '{record.problem_id}' repeats "
                f"'{first_of[fingerprint]}'"
            )
        first_of[fingerprint] = record.problem_id

    total_needed = sum(need_per_domain.values())
    for domain in domains:
        if len(groups[domain]) < total_needed:
            raise DatasetError(
                f"domain '{domain}' has {len(groups[domain])} record(s) but "
                f"the quotas require {total_needed}"
            )

    splits: dict[str, list[DatasetRecord]] = {name: [] for name in (*quotas, "spillover")}
    for domain in domains:
        ordered = sorted(groups[domain], key=lambda r: r.problem_id)
        random.Random(f"{seed}:{domain}").shuffle(ordered)
        cursor = 0
        for name, chosen in splits.items():
            take = need_per_domain.get(name, len(ordered))
            chosen.extend(ordered[cursor:cursor + take])
            cursor += take
    # Mix domains within each split so training order is not blocked.
    for name, chosen in splits.items():
        random.Random(f"{seed}:{name}").shuffle(chosen)
    # Only spillover can be empty; then it gets no file.
    splits = {name: chosen for name, chosen in splits.items() if chosen}

    manifest: dict = {
        "seed": str(seed),
        "domains": domains,
        "quotas": dict(quotas),
        "counts": {
            "input": len(records),
            "spillover": len(splits.get("spillover", [])),
            **{name: len(splits[name]) for name in quotas},
        },
        "splits": {},
        "files": {name: f"{name}.json" for name in splits},
    }

    # Refused before any split is written, so that out_dir stays as it was.
    manifest_path = out_dir / "manifest.json"
    previous = {"files": {}}
    if manifest_path.exists():
        previous = load(manifest_path, _MANIFEST, "manifest", DatasetError)
    for name, chosen in splits.items():
        manifest["splits"][name] = {
            "count": len(chosen),
            # Each domain's equal share; spillover has none.
            **({"per_domain": dict.fromkeys(domains, need_per_domain[name])}
               if name in quotas else {}),
            "ids": [r.problem_id for r in chosen],
            "fingerprints": [fingerprints[r] for r in chosen],
        }
        atomic_write(
            out_dir / f"{name}.json", json.dumps(to_alpaca(chosen), indent=2) + "\n"
        )
    for name in set(previous["files"].values()) - set(manifest["files"].values()):
        (out_dir / name).unlink(missing_ok=True)
    atomic_write(manifest_path, json.dumps(manifest, indent=2) + "\n")
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
    any fingerprint that appears more than once, in one file or across files.

    The recompute goes through a full parse and canonical re-render of each
    record's ``input`` against its own ``instruction``, so cosmetic
    differences (whitespace, ordering) cannot hide a leak.  A file that
    ``read_split`` refuses, or a record that ``parse_record`` cannot parse,
    is a DatasetError naming the file and the place.
    """
    dataset_dir = Path(dataset_dir)
    files = sorted(dataset_dir.glob("*.json"))
    files = [f for f in files if f.name != "manifest.json"]
    if not files:
        raise DatasetError(f"no split files found in {dataset_dir}")
    seen: dict[str, list[tuple[str, int]]] = {}
    counts: dict[str, int] = {}
    for path in files:
        records = read_split(path, DatasetError)
        counts[path.name] = len(records)
        for index, record in enumerate(records):
            _, problem = parse_record(path, index, record, DatasetError)
            seen.setdefault(fingerprint_problem(problem), []).append((path.name, index))
    collisions = [
        {"fingerprint": fp, "occurrences": places}
        for fp, places in sorted(seen.items())
        if len(places) > 1
    ]
    return AuditReport(files=counts, collisions=collisions)
