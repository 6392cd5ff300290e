"""Grounding and exact state-transition semantics.

``apply_action`` implements the two ordering rules everything downstream
relies on: conditional-effect conditions are evaluated against the state the
action is applied to (never against intermediate results), and all deletes
accumulated across firing branches are applied before any adds.
"""

from __future__ import annotations

from collections.abc import Iterator

from planforge.pddl.model import (
    EQ,
    Domain,
    GroundAction,
    Literal,
    Problem,
    State,
    ground_schema,
)
from planforge.pddl.writer import render_literal


class GroundingError(ValueError):
    """A plan step that cannot be grounded against the domain and problem."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(message)


class PreconditionError(ValueError):
    def __init__(self, action: GroundAction, literal: Literal):
        self.action = action
        self.literal = literal
        super().__init__(
            f"precondition of {action.signature} fails on {render_literal(literal)}"
        )


def holds(state: State, literal: Literal) -> bool:
    if literal.atom[0] == EQ:
        return (literal.atom[1] == literal.atom[2]) == literal.positive
    return (literal.atom in state) == literal.positive


def first_failure(state: State, condition: tuple[Literal, ...]) -> Literal | None:
    for literal in condition:
        if not holds(state, literal):
            return literal
    return None


def goal_satisfied(state: State, goal: tuple[Literal, ...]) -> bool:
    return first_failure(state, goal) is None


def apply_effects(state: State, action: GroundAction) -> State:
    """Apply effects without checking the precondition (callers that already
    tested applicability use this directly)."""
    adds = set()
    deletes = set()
    for branch in action.effects:
        # Branch conditions see the pre-state only.
        if first_failure(state, branch.condition) is None:
            deletes.update(branch.deletes)
            adds.update(branch.adds)
    return frozenset((state - deletes) | adds)


def apply_action(state: State, action: GroundAction) -> State:
    failed = first_failure(state, action.precondition)
    if failed is not None:
        raise PreconditionError(action, failed)
    return apply_effects(state, action)


def ground_action_for(
    domain: Domain, problem: Problem, name: str, args: tuple[str, ...]
) -> GroundAction:
    """Ground one plan step, classifying failures for the validator."""
    action = domain.action(name)
    if action is None:
        raise GroundingError("unknown_action", f"unknown action '{name}'")
    if len(args) != action.arity:
        raise GroundingError(
            "bad_arity",
            f"action '{name}' expects {action.arity} argument(s), got {len(args)}",
        )
    object_type = problem.object_types
    for arg, param in zip(args, action.params):
        if arg not in object_type:
            raise GroundingError("type_error", f"unknown object '{arg}'")
        if not domain.is_subtype(object_type[arg], param.type):
            raise GroundingError(
                "type_error",
                f"object '{arg}' has type '{object_type[arg]}', but parameter "
                f"'{param.name}' of '{name}' requires '{param.type}'",
            )
    return ground_schema(action, args)


def static_predicates(domain: Domain) -> frozenset[str]:
    """Predicates no action effect can change."""
    touched = set()
    for action in domain.actions:
        for branch in action.effects:
            for atom in branch.adds + branch.deletes:
                touched.add(atom[0])
    return frozenset(p.name for p in domain.predicates) - frozenset(touched)


def iter_applicable_candidates(domain: Domain, problem: Problem) -> Iterator[GroundAction]:
    """Every type-consistent instantiation whose static and ``=`` precondition
    literals hold in the initial state, in schema order, then lexicographic
    argument order.  Statics never change, so a skipped instantiation is
    inapplicable in every reachable state, and the relative order of the
    applicable ones is kept.

    Parameters are bound one at a time, in declaration order, each from its
    type pool.  Each static or ``=`` precondition literal is compiled to a
    tuple of argument slots and checked against the initial state as soon as
    its last parameter is bound, so a failing prefix is never extended.
    """
    statics = static_predicates(domain)
    init = problem.init
    for action in domain.actions:
        arity = action.arity
        pools = [problem.objects_of_type(domain, p.type) for p in action.params]
        slot_of = {t: i for i, t in enumerate(action.terms)}
        # values[:arity] holds the arguments bound so far, the rest constants.
        values = list(action.terms)
        # checks[k]: (predicate, term slots, positive) of each static literal
        # whose terms are all bound once k parameters are bound
        checks: list[list[tuple[str, tuple[int, ...], bool]]] = [
            [] for _ in range(arity + 1)
        ]
        for literal in action.precondition:
            pred = literal.atom[0]
            if pred != EQ and pred not in statics:
                continue
            slots = tuple(slot_of[t] for t in literal.atom[1:])
            depth = max((s + 1 for s in slots if s < arity), default=0)
            checks[depth].append((pred, slots, literal.positive))

        def walk(depth: int) -> Iterator[GroundAction]:
            for pred, slots, positive in checks[depth]:
                if pred == EQ:
                    true = values[slots[0]] == values[slots[1]]
                else:
                    true = (pred, *[values[s] for s in slots]) in init
                if true != positive:
                    return
            if depth == arity:
                yield ground_schema(action, tuple(values[:arity]))
                return
            for obj in pools[depth]:
                values[depth] = obj
                yield from walk(depth + 1)

        yield from walk(0)
