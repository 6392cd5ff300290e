"""Line-oriented plan parsing and exact validation against a domain."""

from __future__ import annotations

import re
from dataclasses import dataclass

from planforge.pddl.ground import (
    GroundingError,
    PreconditionError,
    apply_action,
    first_failure,
    ground_action_for,
)
from planforge.pddl.model import Domain, Problem, State

PlanStep = tuple[str, ...]

_TIMESTAMP_RE = re.compile(r"^\s*\d+(\.\d+)?\s*:\s*")
_STEP_RE = re.compile(r"^\((\S+)((?:\s+\S+)*)\s*\)$")


class PlanParseError(ValueError):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    failure_kind: str | None
    # 0-based index of the offending step; None unless the kind is step-level.
    failure_step: int | None
    message: str
    final_state: State


def parse_plan(text: str) -> list[PlanStep]:
    """Parse one action per line, e.g. ``(grasp gripper1 gripper2)``.

    Comments start with ``;`` and run to end of line.  A numeric timestamp
    prefix (``3 : (...)`` style) is tolerated and dropped.
    """
    steps: list[PlanStep] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        line = _TIMESTAMP_RE.sub("", line)
        m = _STEP_RE.match(line)
        if not m:
            raise PlanParseError(f"expected '(action args...)', got '{line}'", lineno)
        name = m.group(1).lower()
        if "(" in name or ")" in name:
            raise PlanParseError(f"malformed action name '{name}'", lineno)
        args = tuple(a.lower() for a in m.group(2).split())
        if any("(" in a or ")" in a for a in args):
            raise PlanParseError(f"malformed step '{line}'", lineno)
        steps.append((name,) + args)
    return steps


def render_plan(steps: list[PlanStep]) -> str:
    """One ``(action args...)`` line per step; inverse of parse_plan."""
    return "".join("(" + " ".join(step) + ")\n" for step in steps)


def validate(
    domain: Domain, problem: Problem, plan: list[PlanStep] | str
) -> ValidationResult:
    """Simulate the plan from the initial state and check the goal.

    ``final_state`` is the last consistent state: the one reached before the
    failing step, or after the whole plan when every step applied.
    """
    if isinstance(plan, str):
        plan = parse_plan(plan)
    state = problem.init
    for i, step in enumerate(plan):
        try:
            action = ground_action_for(domain, problem, step[0], tuple(step[1:]))
        except GroundingError as err:
            return ValidationResult(False, err.kind, i, f"step {i}: {err}", state)
        try:
            state = apply_action(state, action)
        except PreconditionError as err:
            return ValidationResult(False, "precondition_failed", i, f"step {i}: {err}", state)
    failed = first_failure(state, problem.goal)
    if failed is not None:
        return ValidationResult(
            False, "goal_unreached", None, "goal not satisfied after final step", state
        )
    return ValidationResult(True, None, None, f"valid, {len(plan)} step(s)", state)


def validity_rate(results: list[ValidationResult]) -> float:
    """Percentage of valid results, rounded to one decimal place."""
    if not results:
        raise ValueError("validity_rate requires at least one result")
    valid = sum(1 for r in results if r.valid)
    return round(100.0 * valid / len(results), 1)
