"""Per-layer metrics from the span files that ``hook/sitecustomize.py`` writes.

A rep is one unit of timed work: one ``planforge pipeline`` run, or one
round of ``planforge eval`` runs over every checkpoint.  Each traced rep has
its own trace directory holding one span file per process.

* Timings per problem, per planner child or per request are pooled over all
  traced reps and reported as ``.p50`` and a tail percentile.  The tail is
  the highest percentile that keeps at least ten samples beyond it at the
  sample counts the benchmark guarantees: ``.p75`` for planning (40 samples)
  and ``.p90`` for requests (100 samples).
* Counts and ratios are per rep.  Every traced rep of one seed does the same
  work, so they must repeat exactly; ``combine`` reports any that differ.
* Other ``_s`` metrics are a layer's summed time per rep, median over reps.
* A metric whose layer the workload never calls reads 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

# name, unit, better; the order BENCHMARK.json lists them in.
PER_LAYER = [
    ("cli.import_s.p50", "s", "lower"),
    ("drivers.solve_s.p50", "s", "lower"),
    ("drivers.solve_s.p75", "s", "lower"),
    ("drivers.spawn_overhead_s.p50", "s", "lower"),
    ("drivers.search_s.p50", "s", "lower"),
    ("drivers.search_s.p75", "s", "lower"),
    ("drivers.solve_calls", "count", "lower"),
    ("pddl.ground_s.p50", "s", "lower"),
    ("pddl.candidates.p50", "count", "lower"),
    ("pddl.parse_domain_calls", "count", "lower"),
    ("pddl.parse_domain_s", "s", "lower"),
    ("pddl.parse_problem_calls", "count", "lower"),
    ("pddl.parse_problem_s", "s", "lower"),
    ("pddl.serialize_problem_calls", "count", "lower"),
    ("plans.validate_calls", "count", "lower"),
    ("plans.validate_s", "s", "lower"),
    ("generate.batch_s", "s", "lower"),
    ("generate.draws", "count", "lower"),
    ("generate.emit_ratio", "ratio", "higher"),
    ("generate.replayed", "count", "lower"),
    ("dataset.build_records_s", "s", "lower"),
    ("dataset.assemble_s", "s", "lower"),
    ("dataset.audit_s", "s", "lower"),
    ("session.rounds", "count", "lower"),
    ("session.stage_generate_s", "s", "lower"),
    ("session.stage_plan_s", "s", "lower"),
    ("session.stage_assemble_s", "s", "lower"),
    ("session.plan_yield", "ratio", "higher"),
    ("evaluate.request_s.p50", "s", "lower"),
    ("evaluate.request_s.p90", "s", "lower"),
    ("evaluate.connections_per_request", "ratio", "lower"),
    ("evaluate.run_inference_s", "s", "lower"),
    ("evaluate.score_s", "s", "lower"),
    ("evaluate.stub_busy_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Pooled timing samples: metric prefix -> (samples needed, tail percentile).
TAILS = {"drivers.solve_s": (40, 75), "drivers.search_s": (40, 75), "evaluate.request_s": (100, 90)}

_COUNTED = {
    "drivers.solve_calls": "solve",
    "pddl.parse_domain_calls": "parse_domain",
    "pddl.parse_problem_calls": "parse_problem",
    "pddl.serialize_problem_calls": "serialize_problem",
    "plans.validate_calls": "validate",
}
_TOTALLED = {
    "pddl.parse_domain_s": "parse_domain",
    "pddl.parse_problem_s": "parse_problem",
    "plans.validate_s": "validate",
    "generate.batch_s": "generate_batch",
    "dataset.build_records_s": "build_records",
    "dataset.assemble_s": "assemble",
    "dataset.audit_s": "audit_leakage",
    "session.stage_generate_s": "stage_generate",
    "session.stage_plan_s": "stage_plan",
    "session.stage_assemble_s": "stage_assemble",
    "evaluate.run_inference_s": "run_inference",
    "evaluate.score_s": "score",
}


def _dur(span: dict) -> float:
    return span["t1"] - span["t0"]


def load_rep(trace_dir: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]


def summarize_rep(processes: list[dict]) -> dict:
    """Samples, per-rep totals and per-rep counts of one traced rep."""
    samples: dict[str, list[float]] = {
        "cli.import_s": [],
        "drivers.solve_s": [],
        "drivers.spawn_overhead_s": [],
        "drivers.search_s": [],
        "pddl.ground_s": [],
        "pddl.candidates": [],
        "evaluate.request_s": [],
    }
    totals = {metric: 0.0 for metric in _TOTALLED}
    counts = {metric: 0 for metric in _COUNTED}
    info: dict[str, float] = {"draws": 0, "new": 0, "replayed": 0, "rounds": 0,
                              "attempted": 0, "solved": 0}
    solves: dict[str, list[dict]] = {}
    children: dict[str, list[dict]] = {}

    for proc in processes:
        spans = proc["spans"]
        roots = [s for s in spans if s["parent"] == -1]
        samples["cli.import_s"].append(
            sum(_dur(s) for s in roots if s["name"].startswith("import:"))
        )
        if "refplan" in proc["argv"]:
            children.setdefault(proc["key"], []).append(
                {"t0": min(s["t0"] for s in spans), "busy": sum(_dur(s) for s in roots)}
            )
        for index, span in enumerate(spans):
            name = span["name"]
            for metric, counted in _COUNTED.items():
                counts[metric] += name == counted
            for metric, totalled in _TOTALLED.items():
                if name == totalled:
                    totals[metric] += _dur(span)
            extra = span.get("info", {})
            for field in info:
                info[field] += extra.get(field, 0)
            if name == "solve":
                solves.setdefault(span["key"], []).append(span)
                samples["drivers.solve_s"].append(_dur(span))
            elif name == "reference_plan":
                nested = sum(_dur(s) for s in spans if s["parent"] == index)
                samples["drivers.search_s"].append(_dur(span) - nested)
            elif name == "iter_applicable_candidates":
                samples["pddl.ground_s"].append(_dur(span))
                samples["pddl.candidates"].append(extra["count"])
            elif name == "run_inference":
                samples["evaluate.request_s"].extend(extra["latencies"])

    # A problem can be solved more than once (unsolvable ones are retried in
    # later rounds); pair the parent's calls with its children in start order.
    for key, calls in solves.items():
        runs = sorted(children.get(key, []), key=lambda c: c["t0"])
        for call, child in zip(sorted(calls, key=lambda s: s["t0"]), runs):
            samples["drivers.spawn_overhead_s"].append(_dur(call) - child["busy"])

    counts["session.rounds"] = info["rounds"]
    counts["generate.draws"] = info["draws"]
    counts["generate.replayed"] = info["replayed"]
    counts["generate.emit_ratio"] = info["new"] / info["draws"] if info["draws"] else 0.0
    counts["session.plan_yield"] = info["solved"] / info["attempted"] if info["attempted"] else 0.0
    counts["pddl.candidates.p50"] = (
        statistics.median(samples["pddl.candidates"]) if samples["pddl.candidates"] else 0
    )
    return {"samples": samples, "totals": totals, "counts": counts}


def percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if pct == 50:
        return statistics.median(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def sample_counts(reps: list[dict]) -> dict[str, int]:
    return {
        prefix: sum(len(rep["samples"][prefix]) for rep in reps) for prefix in TAILS
    }


def combine(reps: list[dict], extra: dict[str, float]) -> tuple[dict, list[str]]:
    """Per-layer metrics over all traced reps, plus any count that did not
    repeat exactly between reps."""
    values: dict[str, float] = {}
    pooled = {
        name: [v for rep in reps for v in rep["samples"][name]] for name in reps[0]["samples"]
    }
    for name in ("cli.import_s", "drivers.spawn_overhead_s", "pddl.ground_s"):
        values[f"{name}.p50"] = percentile(pooled[name], 50)
    for prefix, (_, tail) in TAILS.items():
        values[f"{prefix}.p50"] = percentile(pooled[prefix], 50)
        values[f"{prefix}.p{tail}"] = percentile(pooled[prefix], tail)
    for metric in _TOTALLED:
        values[metric] = statistics.median(rep["totals"][metric] for rep in reps)
    mismatched = []
    for metric, first in reps[0]["counts"].items():
        seen = [rep["counts"][metric] for rep in reps]
        if any(v != first for v in seen):
            mismatched.append(f"{metric} differs between reps: {seen}")
        values[metric] = first
    values.update(extra)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    return metrics, mismatched
