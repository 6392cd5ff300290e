from __future__ import annotations

import json

import pytest

from conftest import MICRO_PLAN
from oracle import sim_mean, sim_median, sim_pstdev
from planforge.evaluate import (
    ALPACA_PROMPT,
    EndpointConfig,
    EndpointError,
    EvalMetrics,
    InferenceRecord,
    check_reachable,
    export_report,
    extract_completion,
    render_report,
    run_inference,
    salvage_plan,
    score,
)
from planforge.plans import PlanParseError


def micro_entry(artic3_domain_text, micro_text):
    return {
        "instruction": artic3_domain_text,
        "input": micro_text,
        "output": MICRO_PLAN,
    }


def test_prompt_template_sections():
    prompt = ALPACA_PROMPT.format(instruction="DOM", input="PROB")
    assert prompt.startswith("Below is an instruction")
    assert "### Instruction:\nDOM\n" in prompt
    assert "### Input:\nPROB\n" in prompt
    assert prompt.endswith("### Response:\n")


def test_extract_completion_fallbacks():
    assert extract_completion({"choices": [{"text": "a"}]}) == "a"
    assert extract_completion({"results": [{"text": "b"}]}) == "b"
    assert extract_completion({"text": "c"}) == "c"
    assert extract_completion({"completion": "d"}) == "d"
    # precedence: choices first
    assert extract_completion({"choices": [{"text": "a"}], "text": "c"}) == "a"
    with pytest.raises(EndpointError, match="unrecognized response shape"):
        extract_completion({"answer": "e"})
    with pytest.raises(EndpointError):
        extract_completion({"choices": []})


def test_check_reachable(stub_endpoint):
    server = stub_endpoint(lambda payload: {"text": ""})
    check_reachable(EndpointConfig(url=server.url))
    with pytest.raises(EndpointError, match="unreachable"):
        check_reachable(EndpointConfig(url="http://127.0.0.1:9/void", timeout=0.5))


def test_run_inference_round_trip(tmp_path, stub_endpoint, artic3_domain_text,
                                  micro_text):
    requests_seen = []

    def reply(payload):
        requests_seen.append(payload)
        return {"choices": [{"text": MICRO_PLAN}]}

    server = stub_endpoint(reply)
    entries = [micro_entry(artic3_domain_text, micro_text) for _ in range(3)]
    out_path = tmp_path / "inferences.jsonl"
    records = run_inference(entries, EndpointConfig(url=server.url), out_path)

    assert [r.index for r in records] == [0, 1, 2]
    assert all(r.status == "ok" for r in records)
    assert all(r.output == MICRO_PLAN for r in records)
    assert all(r.latency > 0 for r in records)

    payload = requests_seen[0]
    prompt = ALPACA_PROMPT.format(instruction=artic3_domain_text, input=micro_text)
    assert payload["prompt"] == prompt
    assert payload["temperature"] == 0.01
    # completion budget is what remains of the shared budget after the prompt
    assert payload["max_tokens"] == 3096 - (len(prompt) + 3) // 4

    lines = out_path.read_text().splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["status"] == "ok"
    assert first["output"] == MICRO_PLAN


def test_run_inference_flags_oversized_prompts(stub_endpoint, artic3_domain_text,
                                               micro_text):
    server = stub_endpoint(lambda payload: {"text": ""})
    entry = micro_entry(artic3_domain_text, micro_text)
    config = EndpointConfig(url=server.url, token_budget=100)
    (record,) = run_inference([entry], config)
    assert record.status == "error"
    assert "exceeds the 100 token budget" in record.detail


def test_run_inference_records_server_errors(stub_endpoint, artic3_domain_text,
                                             micro_text):
    server = stub_endpoint(lambda payload: 503)
    entry = micro_entry(artic3_domain_text, micro_text)
    (record,) = run_inference([entry], EndpointConfig(url=server.url))
    assert record.status == "error"
    assert "503" in record.detail


def test_salvage_plan_drops_one_truncated_tail():
    whole = "(grasp g1 g2)\n(release g1 g2)\n"
    assert salvage_plan(whole) == [("grasp", "g1", "g2"), ("release", "g1", "g2")]
    truncated = "(grasp g1 g2)\n(release g1"
    assert salvage_plan(truncated) == [("grasp", "g1", "g2")]
    trailing_blank = "(grasp g1 g2)\n(release g1\n   \n"
    assert salvage_plan(trailing_blank) == [("grasp", "g1", "g2")]
    # a lone malformed line is a truncated tail too: it salvages to nothing
    assert salvage_plan("(release g1") == []


def test_salvage_plan_rejects_mid_text_garbage():
    with pytest.raises(PlanParseError):
        salvage_plan("(grasp g1 g2)\ngibberish\n(release g1 g2)\n")
    with pytest.raises(PlanParseError):
        salvage_plan("complete nonsense with no step at all\nmore\n")


def build_metrics(artic3_domain_text, micro_text, outputs, latencies=None):
    entries = [micro_entry(artic3_domain_text, micro_text) for _ in outputs]
    records = []
    for i, output in enumerate(outputs):
        latency = latencies[i] if latencies else 0.1
        if output is None:
            records.append(InferenceRecord(i, "", latency, "error", "boom"))
        else:
            records.append(InferenceRecord(i, output, latency, "ok"))
    return score(entries, records)


def test_score_classifies_failures(artic3_domain_text, micro_text):
    outputs = [
        MICRO_PLAN,                                  # valid
        None,                                        # endpoint_error
        "not a plan\nstill not one\n",               # parse_error
        "(teleport link1)\n",                        # unknown_action
        "(grasp gripper1)\n",                        # bad_arity
        "(grasp gripper1 link1)\n",                  # type_error
        "(release gripper1 gripper2)\n",             # precondition_failed
        "(grasp gripper1 gripper2)\n",               # goal_unreached
    ]
    metrics = build_metrics(artic3_domain_text, micro_text, outputs)
    mixed = metrics.mixed
    assert mixed.total == 8
    assert mixed.valid == 1
    assert mixed.validity == 12.5
    assert mixed.failure_kinds == {
        "endpoint_error": 1,
        "parse_error": 1,
        "unknown_action": 1,
        "bad_arity": 1,
        "type_error": 1,
        "precondition_failed": 1,
        "goal_unreached": 1,
    }
    assert list(metrics.per_domain) == ["artic3"]
    # the percentage is rounded to one decimal
    for outputs, validity in (([MICRO_PLAN, None, None], 33.3),
                              ([MICRO_PLAN, MICRO_PLAN, None], 66.7)):
        metrics = build_metrics(artic3_domain_text, micro_text, outputs)
        assert metrics.mixed.validity == validity


def test_score_stats_match_hand_computation(artic3_domain_text, micro_text):
    # four requests, three valid (4, 4 and 8 steps via a detour), one invalid
    detour = (
        "(grasp gripper1 gripper2)\n"
        "(rotate-cw link2 link3 a0 a90 a90 a180)\n"
        "(rotate-cw link2 link3 a90 a180 a180 a270)\n"
        "(rotate-ccw link2 link3 a180 a90 a270 a180)\n"
        "(rotate-cw link3 link2 a180 a270 a90 a180)\n"
        "(rotate-ccw link3 link2 a270 a180 a90 a0)\n"
        "(rotate-cw link3 link2 a180 a270 a90 a180)\n"
        "(release gripper1 gripper2)\n"
    )
    outputs = [MICRO_PLAN, MICRO_PLAN, detour, "(grasp gripper1 gripper2)\n"]
    latencies = [1.0, 2.0, 3.0, 4.0]
    metrics = build_metrics(artic3_domain_text, micro_text, outputs, latencies)
    mixed = metrics.mixed

    assert mixed.validity == 75.0
    lengths = [4, 4, 8]
    assert mixed.steps.avg == pytest.approx(sim_mean(lengths))
    assert mixed.steps.min == 4
    assert mixed.steps.max == 8
    assert mixed.steps.median == pytest.approx(sim_median(lengths))

    # time stats cover every request, not just the valid ones
    assert mixed.times.avg == pytest.approx(sim_mean(latencies))
    assert mixed.times.median == pytest.approx(sim_median(latencies))
    assert mixed.times.median == pytest.approx(2.5)
    assert mixed.times.std == pytest.approx(sim_pstdev(latencies))
    assert round(mixed.times.std, 3) == 1.118


def test_score_requires_aligned_inputs(artic3_domain_text, micro_text):
    entries = [micro_entry(artic3_domain_text, micro_text)]
    with pytest.raises(ValueError, match="1 entries but 2"):
        score(entries, [InferenceRecord(0, "", 0.0, "ok"),
                        InferenceRecord(1, "", 0.0, "ok")])


def test_report_layout_single_domain(artic3_domain_text, micro_text):
    metrics = build_metrics(
        artic3_domain_text, micro_text,
        [MICRO_PLAN, "(grasp gripper1 gripper2)\n"],
        latencies=[1.0, 3.0],
    )
    report = render_report(metrics)
    lines = report.splitlines()
    assert lines[0] == "requests: 2"
    assert lines[1] == "valid plans: 1"
    assert lines[3].split() == [
        "Set", "Validity", "(%)", "Avg_steps", "Min_steps", "Max_steps",
        "Median_steps",
    ]
    assert lines[4].split() == ["mixed", "50.0", "4.00", "4", "4", "4"]
    assert lines[6].split() == [
        "Set", "Avg_t", "(s)", "Min_t", "(s)", "Max_t", "(s)", "Median_t",
        "(s)", "Std_t", "(s)",
    ]
    assert lines[7].split() == ["mixed", "2.000", "1.000", "3.000", "2.000", "1.000"]
    assert lines[9] == "failure kinds: goal_unreached=1"
    # single-domain reports carry no per-domain rows
    assert sum(1 for l in lines if l.startswith("mixed")) == 2
    assert not any(l.startswith("artic3 ") for l in lines)


def test_report_layout_two_domains(artic3_domain_text, micro_text, artic3m,
                                   artic3m_config):
    import random

    from planforge import assets_dir
    from planforge.drivers import reference_plan
    from planforge.generate import sample_problem
    from planforge.pddl import serialize_problem
    from planforge.plans import render_plan

    artic3m_text = (assets_dir() / "artic3m.pddl").read_text()
    for seed in range(20):
        problem, trivial = sample_problem(artic3m_config, artic3m,
                                          random.Random(f"report:{seed}"))
        if trivial:
            continue
        plan = reference_plan(artic3m, problem)
        if plan:
            break
    entries = [
        micro_entry(artic3_domain_text, micro_text),
        {"instruction": artic3m_text, "input": serialize_problem(problem),
         "output": render_plan(plan)},
    ]
    records = [
        InferenceRecord(0, MICRO_PLAN, 0.5, "ok"),
        InferenceRecord(1, render_plan(plan), 0.7, "ok"),
    ]
    report = render_report(score(entries, records))
    lines = report.splitlines()
    labels = [l.split()[0] for l in lines if l and l[0] not in " \t"]
    # per-domain rows follow the mixed row in both tables
    assert labels.count("mixed") == 2
    assert labels.count("artic3") == 2
    assert labels.count("artic3m") == 2
    mixed_at = [i for i, l in enumerate(lines) if l.startswith("mixed")]
    for at in mixed_at:
        assert lines[at + 1].startswith("artic3 ") or lines[at + 1].startswith("artic3  ")
        assert lines[at + 2].startswith("artic3m")


def test_report_with_no_valid_plans(artic3_domain_text, micro_text):
    metrics = build_metrics(artic3_domain_text, micro_text, [None, None])
    report = render_report(metrics)
    row = next(l for l in report.splitlines() if l.startswith("mixed"))
    assert row.split() == ["mixed", "0.0", "-", "-", "-", "-"]


def test_export_report(tmp_path, artic3_domain_text, micro_text):
    metrics = build_metrics(artic3_domain_text, micro_text, [MICRO_PLAN])
    export_report(metrics, tmp_path / "metrics.json", tmp_path / "metrics.txt")
    payload = json.loads((tmp_path / "metrics.json").read_text())
    assert payload["mixed"]["total"] == 1
    assert payload["mixed"]["validity"] == 100.0
    assert payload["mixed"]["steps"]["avg"] == 4.0
    assert payload["per_domain"]["artic3"]["valid"] == 1
    assert (tmp_path / "metrics.txt").read_text() == render_report(metrics)
