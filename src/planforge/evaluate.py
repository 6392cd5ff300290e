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

import http.client
import json
import statistics
import time
import urllib.error
import urllib.request
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

from planforge import atomic_write
from planforge.pddl.model import Domain, Problem
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
    """One request's result.  The fields are declared in the order of its
    ``inferences.jsonl`` line, which is ``asdict`` of the record,
    so ``InferenceRecord(**json.loads(line))`` reads a line back."""

    index: int
    status: str  # ok | error
    latency: float
    output: str = ""
    detail: str = ""


def _estimate_tokens(text: str) -> int:
    return (len(text) + 3) // 4


def extract_completion(data) -> str:
    """The completion text of a decoded response body; EndpointError for any
    body that is not an object holding one of ``_RESPONSE_PATHS``."""
    for key in _RESPONSE_PATHS if isinstance(data, dict) else ():
        text = data.get(key)
        if key in ("choices", "results"):  # lists of {"text": ...}
            first = text[0] if isinstance(text, list) and text else None
            text = first.get("text") if isinstance(first, dict) else None
        if isinstance(text, str):
            return text
    raise EndpointError(
        "unrecognized response shape; expected one of "
        + ", ".join(f"'{p}'" for p in _RESPONSE_PATHS)
    )


def check_reachable(endpoint: EndpointConfig) -> None:
    """Fail fast before a long run; any HTTP answer counts as reachable."""
    if not endpoint.url.lower().startswith(("http://", "https://")):
        raise EndpointError(f"endpoint {endpoint.url} is not an http(s) URL")
    try:
        urllib.request.urlopen(endpoint.url, timeout=min(endpoint.timeout, 5.0)).close()
    except urllib.error.HTTPError as err:
        err.close()
    except (OSError, http.client.HTTPException, ValueError) as err:
        raise EndpointError(f"endpoint {endpoint.url} is unreachable: {err}") from err


def run_inference(
    entries: list[dict], endpoint: EndpointConfig, out_path: str | Path
) -> list[InferenceRecord]:
    """Query the endpoint once per dataset entry, sequentially and in order.

    Each record is appended to ``out_path`` (jsonl) as soon as it completes,
    so a long run can be inspected while in flight.
    """
    check_reachable(endpoint)
    records: list[InferenceRecord] = []
    with open(out_path, "w") as out_file:
        for index, entry in enumerate(entries):
            prompt = ALPACA_PROMPT.format(
                instruction=entry["instruction"], input=entry["input"]
            )
            max_tokens = endpoint.token_budget - _estimate_tokens(prompt)
            if max_tokens <= 0:
                detail = f"prompt alone exceeds the {endpoint.token_budget} token budget"
                record = InferenceRecord(index, "error", 0.0, detail=detail)
            else:
                record = _query(endpoint, index, prompt, max_tokens)
            records.append(record)
            out_file.write(json.dumps(asdict(record)) + "\n")
            out_file.flush()
    return records


def _query(
    endpoint: EndpointConfig, index: int, prompt: str, max_tokens: int
) -> InferenceRecord:
    payload = {
        "prompt": prompt,
        "temperature": endpoint.temperature,
        "max_tokens": max_tokens,
    }
    request = urllib.request.Request(
        endpoint.url, json.dumps(payload).encode(), {"Content-Type": "application/json"}
    )
    last_error = ""
    start = time.perf_counter()
    for _attempt in range(endpoint.retries + 1):
        try:
            with urllib.request.urlopen(request, timeout=endpoint.timeout) as response:
                text = extract_completion(json.loads(response.read()))
            return InferenceRecord(index, "ok", time.perf_counter() - start, text)
        except (OSError, http.client.HTTPException, ValueError, EndpointError) as err:
            last_error = str(err)
    return InferenceRecord(index, "error", time.perf_counter() - start, detail=last_error)


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


def _group(rows: list[dict]) -> dict:
    """One ``metrics.json`` group: counts, validity, step statistics over the
    valid plans and latency statistics over every request (``None`` when
    there is nothing to summarize), and the failure kinds in name order."""
    valid_rows = [r for r in rows if r["valid"]]
    lengths = [r["steps"] for r in valid_rows]
    times = [r["latency"] for r in rows]
    kinds = Counter(r["failure_kind"] for r in rows if r["failure_kind"])
    return {
        "total": len(rows),
        "valid": len(valid_rows),
        "validity": round(100.0 * len(valid_rows) / len(rows), 1) if rows else 0.0,
        "steps": {
            "avg": sum(lengths) / len(lengths),
            "min": min(lengths),
            "max": max(lengths),
            "median": float(statistics.median(lengths)),
        } if lengths else None,
        "times": {
            "avg": statistics.fmean(times),
            "min": min(times),
            "max": max(times),
            "median": float(statistics.median(times)),
            "std": statistics.pstdev(times),
        } if times else None,
        "failure_kinds": dict(sorted(kinds.items())),
    }


def score(
    tasks: list[tuple[Domain, Problem]], inferences: list[InferenceRecord]
) -> dict:
    """Validate each returned plan against its own domain and problem, as
    ``shape.parse_record`` gives them.

    Returns the ``metrics.json`` document: ``{"mixed": group, "per_domain":
    {name: group}}`` with the domains in name order (see ``_group``).
    """
    if len(tasks) != len(inferences):
        raise ValueError(
            f"{len(tasks)} entries but {len(inferences)} inference records"
        )
    rows: list[dict] = []
    for (domain, problem), inference in zip(tasks, inferences):
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

    per_domain = {
        name: _group([r for r in rows if r["domain"] == name])
        for name in sorted({r["domain"] for r in rows})
    }
    return {"mixed": _group(rows), "per_domain": per_domain}


def _fmt_median(value: float) -> str:
    return f"{value:g}"


VALIDITY_HEADER = ("Validity (%)", "Avg_steps", "Min_steps", "Max_steps", "Median_steps")
TIME_HEADER = ("Avg_t (s)", "Min_t (s)", "Max_t (s)", "Median_t (s)", "Std_t (s)")


def _validity_row(g: dict) -> tuple[str, ...]:
    steps = g["steps"]
    if steps is None:
        return (f"{g['validity']}", "-", "-", "-", "-")
    return (
        f"{g['validity']}",
        f"{steps['avg']:.2f}",
        str(steps["min"]),
        str(steps["max"]),
        _fmt_median(steps["median"]),
    )


def _time_row(g: dict) -> tuple[str, ...]:
    t = g["times"]
    if t is None:
        return ("-",) * 5
    return (
        f"{t['avg']:.3f}", f"{t['min']:.3f}", f"{t['max']:.3f}",
        f"{t['median']:.3f}", f"{t['std']:.3f}",
    )


def _render_table(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    table = [("Set",) + header] + rows
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in table
    ]
    return "\n".join(lines)


def render_report(metrics: dict) -> str:
    """The ``metrics.txt`` text of a ``score`` document: the mixed row, then
    one row per domain when there are several, each labelled by its key."""
    mixed = metrics["mixed"]
    groups = [("mixed", mixed)]
    if len(metrics["per_domain"]) > 1:
        groups.extend(sorted(metrics["per_domain"].items()))
    out = []
    out.append(f"requests: {mixed['total']}")
    out.append(f"valid plans: {mixed['valid']}")
    out.append("")
    out.append(
        _render_table(
            VALIDITY_HEADER, [(label,) + _validity_row(g) for label, g in groups]
        )
    )
    out.append("")
    out.append(
        _render_table(TIME_HEADER, [(label,) + _time_row(g) for label, g in groups])
    )
    out.append("")
    kinds = mixed["failure_kinds"]
    if kinds:
        out.append(
            "failure kinds: " + " ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        )
    else:
        out.append("failure kinds: none")
    return "\n".join(out) + "\n"


def export_report(metrics: dict, json_path: str | Path, txt_path: str | Path) -> None:
    """Write a ``score`` document as ``json_path`` and its report as
    ``txt_path``, each whole or not at all."""
    atomic_write(Path(json_path), json.dumps(metrics, indent=2) + "\n")
    atomic_write(Path(txt_path), render_report(metrics))
