from __future__ import annotations

import random

import pytest

from oracle import sim_applicable_sequences, sim_validate
from planforge.plans import (
    PlanParseError,
    parse_plan,
    render_plan,
    validate,
)


def test_parse_plain_steps():
    text = "(grasp gripper1 gripper2)\n(release gripper1 gripper2)\n"
    assert parse_plan(text) == [
        ("grasp", "gripper1", "gripper2"),
        ("release", "gripper1", "gripper2"),
    ]


def test_parse_tolerates_comments_blanks_case_and_timestamps():
    text = """
; header comment
0: (GRASP gripper1 gripper2)   ; inline note
1.5 : (Rotate-CW link2 link3 a0 a90 a90 a180)

(release gripper1 gripper2)
"""
    assert parse_plan(text) == [
        ("grasp", "gripper1", "gripper2"),
        ("rotate-cw", "link2", "link3", "a0", "a90", "a90", "a180"),
        ("release", "gripper1", "gripper2"),
    ]


def test_parse_zero_arg_step():
    assert parse_plan("(noop)\n") == [("noop",)]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PlanParseError) as err:
        parse_plan("(grasp g1 g2)\nnot a step\n")
    assert err.value.line == 2
    assert str(err.value).startswith("line 2:")

    with pytest.raises(PlanParseError) as err:
        parse_plan("(grasp g1 g2)\n(open (nested))\n")
    assert err.value.line == 2

    with pytest.raises(PlanParseError):
        parse_plan("(unclosed g1\n")


def test_render_is_inverse_of_parse(micro_plan_text):
    steps = parse_plan(micro_plan_text)
    assert render_plan(steps) == micro_plan_text
    assert parse_plan(render_plan(steps)) == steps


def test_validate_gold_plan(artic3, micro, micro_plan_text):
    result = validate(artic3, micro, micro_plan_text)
    assert result.valid
    assert result.failure_kind is None
    assert result.failure_step is None
    assert result.message == "valid, 4 step(s)"
    assert ("current-angle", "link2", "a90") in result.final_state
    assert ("held",) not in result.final_state


def test_validate_accepts_parsed_steps(artic3, micro, micro_plan_text):
    steps = parse_plan(micro_plan_text)
    assert validate(artic3, micro, steps).valid


def failure(artic3, micro, plan_text):
    result = validate(artic3, micro, plan_text)
    assert not result.valid
    return result


def test_failure_unknown_action(artic3, micro, micro_plan_text):
    bad = micro_plan_text.replace("(release", "(detach", 1)
    result = failure(artic3, micro, bad)
    assert result.failure_kind == "unknown_action"
    assert result.failure_step == 3
    assert result.message.startswith("step 3:")


def test_failure_bad_arity(artic3, micro):
    result = failure(artic3, micro, "(grasp gripper1)\n")
    assert result.failure_kind == "bad_arity"
    assert result.failure_step == 0


def test_failure_type_error(artic3, micro):
    result = failure(artic3, micro, "(grasp gripper1 link1)\n")
    assert result.failure_kind == "type_error"
    assert result.failure_step == 0
    result = failure(artic3, micro, "(grasp gripper1 gripper9)\n")
    assert result.failure_kind == "type_error"


def test_failure_precondition(artic3, micro, micro_plan_text):
    # swapping the first two steps tries to rotate before grasping
    lines = micro_plan_text.splitlines()
    swapped = "\n".join([lines[1], lines[0]] + lines[2:]) + "\n"
    result = failure(artic3, micro, swapped)
    assert result.failure_kind == "precondition_failed"
    assert result.failure_step == 0
    # final_state is the state before the failing step: the initial state
    assert result.final_state == micro.init


def test_failure_goal_unreached(artic3, micro, micro_plan_text):
    # dropping the last rotation leaves link3 short of its goal angle
    lines = micro_plan_text.splitlines()
    short = "\n".join(lines[:2] + lines[3:]) + "\n"
    result = failure(artic3, micro, short)
    assert result.failure_kind == "goal_unreached"
    assert result.failure_step is None
    assert ("current-angle", "link3", "a180") in result.final_state


def test_verdicts_match_simulation_on_random_plans(artic3, micro):
    sequences = sim_applicable_sequences(artic3, micro, 2)
    rng = random.Random("plans")
    cases = [rng.choice(sequences) for _ in range(50)]
    # also mutate some into invalid plans
    for seq in cases[:25]:
        seq = list(seq)
        seq.append(("release", "gripper1", "gripper1"))
        cases.append(seq)
    for steps in cases:
        expected_valid, expected_kind, expected_step = sim_validate(artic3, micro, steps)
        got = validate(artic3, micro, list(steps))
        assert got.valid == expected_valid, steps
        assert got.failure_kind == expected_kind, steps
        assert got.failure_step == expected_step, steps
