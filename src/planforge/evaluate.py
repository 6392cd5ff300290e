"""Model evaluation: completion-endpoint inference and exact plan scoring.

Inference talks to an OpenAI-completions-compatible HTTP endpoint.  Token
budgeting is approximated as one token per four characters of prompt, and the
completion is capped so prompt and completion together stay inside the
configured budget.  Scoring validates every returned plan exactly; step
statistics cover valid plans only, while latency statistics cover every
request.  Medians of even-length samples are the mean of the central pair and
the standard deviation is the population form.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import requests

from planforge.pddl.parser import parse_domain, parse_problem
from planforge.plans import PlanParseError, parse_plan, validate

ALPACA_PROMPT = (
    "Below is an instruction that describes a task, paired with an input that "
    "provides further context. Write a response that appropriately completes "
    "the request.\n\n"
    "### Instruction:\n{instruction}\n\n"
    "### Input:\n{input}\n\n"
    "### Response:\n"
)

# Fallback chain for the completion text across common server flavours.
_RESPONSE_PATHS = ("choices", "results", "text", "completion")


class EndpointError(RuntimeError):
    pass


@dataclass(frozen=True)
class EndpointConfig:
    url: str
    temperature: float = 0.01
    token_budget: int = 3096  # prompt + completion, at ~4 chars per token
    timeout: float = 120.0
    retries: int = 0


@dataclass
class InferenceRecord:
    index: int
    output: str
    latency: float
    status: str  # ok | error
    detail: str = ""


def _estimate_tokens(text: str) -> int:
    return (len(text) + 3) // 4


def extract_completion(data: dict) -> str:
    for key in _RESPONSE_PATHS:
        text = data.get(key)
        if key in ("choices", "results"):  # lists of {"text": ...}
            text = text[0].get("text") if isinstance(text, list) and text else None
        if isinstance(text, str):
            return text
    raise EndpointError(
        "unrecognized response shape; expected one of "
        + ", ".join(f"'{p}'" for p in _RESPONSE_PATHS)
    )


def check_reachable(endpoint: EndpointConfig) -> None:
    """Fail fast before a long run; any HTTP answer counts as reachable."""
    try:
        requests.get(endpoint.url, timeout=min(endpoint.timeout, 5.0))
    except requests.RequestException as err:
        raise EndpointError(f"endpoint {endpoint.url} is unreachable: {err}") from err


def run_inference(
    entries: list[dict],
    endpoint: EndpointConfig,
    out_path: str | Path | None = None,
) -> list[InferenceRecord]:
    """Query the endpoint once per dataset entry, sequentially and in order.

    Each record is appended to ``out_path`` (jsonl) as soon as it completes,
    so a long run can be inspected while in flight.
    """
    check_reachable(endpoint)
    out_file = open(out_path, "w") if out_path else None
    records: list[InferenceRecord] = []
    try:
        for index, entry in enumerate(entries):
            prompt = ALPACA_PROMPT.format(
                instruction=entry["instruction"], input=entry["input"]
            )
            max_tokens = endpoint.token_budget - _estimate_tokens(prompt)
            if max_tokens <= 0:
                record = InferenceRecord(
                    index, "", 0.0, "error",
                    f"prompt alone exceeds the {endpoint.token_budget} token budget",
                )
            else:
                record = _query(endpoint, index, prompt, max_tokens)
            records.append(record)
            if out_file:
                out_file.write(
                    json.dumps(
                        {
                            "index": record.index,
                            "status": record.status,
                            "latency": record.latency,
                            "output": record.output,
                            "detail": record.detail,
                        }
                    )
                    + "\n"
                )
                out_file.flush()
    finally:
        if out_file:
            out_file.close()
    return records


def _query(
    endpoint: EndpointConfig, index: int, prompt: str, max_tokens: int
) -> InferenceRecord:
    payload = {
        "prompt": prompt,
        "temperature": endpoint.temperature,
        "max_tokens": max_tokens,
    }
    last_error = ""
    start = time.perf_counter()
    for _attempt in range(endpoint.retries + 1):
        try:
            response = requests.post(
                endpoint.url, json=payload, timeout=endpoint.timeout
            )
            response.raise_for_status()
            text = extract_completion(response.json())
            return InferenceRecord(index, text, time.perf_counter() - start, "ok")
        except (requests.RequestException, ValueError, EndpointError) as err:
            last_error = str(err)
    return InferenceRecord(index, "", time.perf_counter() - start, "error", last_error)


def salvage_plan(text: str) -> list[tuple[str, ...]]:
    """Parse a model response as a plan, tolerating one truncated final line.

    Generation stops mid-line when the token budget runs out; a malformed
    fragment at the very end is dropped.  Malformed lines elsewhere still
    raise PlanParseError.
    """
    try:
        return parse_plan(text)
    except PlanParseError as err:
        lines = text.splitlines()
        tail = "\n".join(lines[err.line:])
        if tail.strip():
            raise
        return parse_plan("\n".join(lines[: err.line - 1]))


@dataclass
class StepStats:
    avg: float
    min: int
    max: int
    median: float


@dataclass
class TimeStats:
    avg: float
    min: float
    max: float
    median: float
    std: float


@dataclass
class GroupMetrics:
    label: str
    total: int
    valid: int
    validity: float  # percentage, one decimal
    steps: StepStats | None
    times: TimeStats | None
    failure_kinds: dict[str, int] = field(default_factory=dict)


@dataclass
class EvalMetrics:
    mixed: GroupMetrics
    per_domain: dict[str, GroupMetrics]


def _step_stats(lengths: list[int]) -> StepStats | None:
    if not lengths:
        return None
    return StepStats(
        avg=sum(lengths) / len(lengths),
        min=min(lengths),
        max=max(lengths),
        median=float(statistics.median(lengths)),
    )


def _time_stats(times: list[float]) -> TimeStats | None:
    if not times:
        return None
    return TimeStats(
        avg=statistics.fmean(times),
        min=min(times),
        max=max(times),
        median=float(statistics.median(times)),
        std=statistics.pstdev(times),
    )


def _group(label: str, rows: list[dict]) -> GroupMetrics:
    valid_rows = [r for r in rows if r["valid"]]
    kinds = Counter(r["failure_kind"] for r in rows if r["failure_kind"])
    validity = round(100.0 * len(valid_rows) / len(rows), 1) if rows else 0.0
    return GroupMetrics(
        label=label,
        total=len(rows),
        valid=len(valid_rows),
        validity=validity,
        steps=_step_stats([r["steps"] for r in valid_rows]),
        times=_time_stats([r["latency"] for r in rows]),
        failure_kinds=dict(sorted(kinds.items())),
    )


def score(entries: list[dict], inferences: list[InferenceRecord]) -> EvalMetrics:
    """Validate each returned plan against its own domain and problem."""
    if len(entries) != len(inferences):
        raise ValueError(
            f"{len(entries)} entries but {len(inferences)} inference records"
        )
    rows: list[dict] = []
    for entry, inference in zip(entries, inferences):
        domain = parse_domain(entry["instruction"])
        problem = parse_problem(entry["input"], domain)
        row = {
            "domain": domain.name,
            "latency": inference.latency,
            "valid": False,
            "steps": 0,
            "failure_kind": None,
        }
        if inference.status != "ok":
            row["failure_kind"] = "endpoint_error"
        else:
            try:
                plan = salvage_plan(inference.output)
            except PlanParseError:
                row["failure_kind"] = "parse_error"
            else:
                outcome = validate(domain, problem, plan)
                if outcome.valid:
                    row["valid"] = True
                    row["steps"] = len(plan)
                else:
                    row["failure_kind"] = outcome.failure_kind
        rows.append(row)

    per_domain: dict[str, GroupMetrics] = {}
    for name in sorted({r["domain"] for r in rows}):
        per_domain[name] = _group(name, [r for r in rows if r["domain"] == name])
    return EvalMetrics(mixed=_group("mixed", rows), per_domain=per_domain)


def _fmt_median(value: float) -> str:
    return f"{value:g}"


VALIDITY_HEADER = ("Validity (%)", "Avg_steps", "Min_steps", "Max_steps", "Median_steps")
TIME_HEADER = ("Avg_t (s)", "Min_t (s)", "Max_t (s)", "Median_t (s)", "Std_t (s)")


def _validity_row(g: GroupMetrics) -> tuple[str, ...]:
    if g.steps is None:
        return (f"{g.validity}", "-", "-", "-", "-")
    return (
        f"{g.validity}",
        f"{g.steps.avg:.2f}",
        str(g.steps.min),
        str(g.steps.max),
        _fmt_median(g.steps.median),
    )


def _time_row(g: GroupMetrics) -> tuple[str, ...]:
    if g.times is None:
        return ("-",) * 5
    t = g.times
    return (
        f"{t.avg:.3f}", f"{t.min:.3f}", f"{t.max:.3f}",
        f"{t.median:.3f}", f"{t.std:.3f}",
    )


def _render_table(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    table = [("Set",) + header] + rows
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in table
    ]
    return "\n".join(lines)


def render_report(metrics: EvalMetrics) -> str:
    groups = [metrics.mixed]
    if len(metrics.per_domain) > 1:
        groups.extend(metrics.per_domain[name] for name in sorted(metrics.per_domain))
    out = []
    out.append(f"requests: {metrics.mixed.total}")
    out.append(f"valid plans: {metrics.mixed.valid}")
    out.append("")
    out.append(
        _render_table(
            VALIDITY_HEADER, [(g.label,) + _validity_row(g) for g in groups]
        )
    )
    out.append("")
    out.append(
        _render_table(TIME_HEADER, [(g.label,) + _time_row(g) for g in groups])
    )
    out.append("")
    kinds = metrics.mixed.failure_kinds
    if kinds:
        out.append(
            "failure kinds: " + " ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        )
    else:
        out.append("failure kinds: none")
    return "\n".join(out) + "\n"


def _group_dict(g: GroupMetrics) -> dict:
    return {
        "total": g.total,
        "valid": g.valid,
        "validity": g.validity,
        "steps": vars(g.steps) if g.steps else None,
        "times": vars(g.times) if g.times else None,
        "failure_kinds": g.failure_kinds,
    }


def export_report(
    metrics: EvalMetrics, json_path: str | Path, txt_path: str | Path
) -> None:
    payload = {
        "mixed": _group_dict(metrics.mixed),
        "per_domain": {k: _group_dict(v) for k, v in metrics.per_domain.items()},
    }
    Path(json_path).write_text(json.dumps(payload, indent=2) + "\n")
    Path(txt_path).write_text(render_report(metrics))
