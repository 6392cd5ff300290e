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
    Action,
    Atom,
    Domain,
    GroundAction,
    Literal,
    Problem,
    State,
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
    return GroundAction(action, args)


def static_predicates(domain: Domain) -> frozenset[str]:
    """Predicates no action effect can change."""
    touched = set()
    for action in domain.actions:
        for branch in action.effects:
            for atom in branch.adds + branch.deletes:
                touched.add(atom[0])
    return frozenset(p.name for p in domain.predicates) - frozenset(touched)


def iter_applicable_candidates(
    domain: Domain, problem: Problem
) -> Iterator[tuple[Action, tuple[str, ...]]]:
    """The (schema, arguments) of every type-consistent instantiation whose
    static and ``=`` precondition literals hold in the initial state, in
    schema order, then lexicographic argument order.  Statics never change,
    so a skipped instantiation is inapplicable in every reachable state, and
    the relative order of the applicable ones is kept.  No literal is built:
    ``GroundAction(schema, args)`` builds them where they are needed.

    Parameters are bound level by level, in declaration order: each level
    extends every partial binding kept so far by the objects of the next
    parameter's type pool, in the pool's order.  Each static or ``=``
    precondition literal is checked against the initial state at the level
    that binds its last parameter, so a failing prefix is never extended.
    The first positive static literal of a level that names its parameter
    once is joined instead of checked: an index of the initial state, keyed
    by the literal's other terms, lists the pool objects that make it true,
    in pool order (Helmert, "Concise finite-domain representations for PDDL
    planning tasks", AIJ 2009).
    """
    statics = static_predicates(domain)
    init = problem.init
    atoms_of: dict[str, list[Atom]] = {}
    for atom in init:
        atoms_of.setdefault(atom[0], []).append(atom)
    for action in domain.actions:
        arity = action.arity
        # A row is a partial binding: the schema's constants, then the
        # arguments bound so far.
        consts = action.terms[arity:]
        offset = len(consts)
        slot_of = {t: offset + i if i < arity else i - arity for i, t in enumerate(action.terms)}
        # checks[k]: (predicate, term slots, positive) of each static or ``=``
        # literal whose terms are all bound once k parameters are bound
        checks: list[list[tuple[str, tuple[int, ...], bool]]] = [[] for _ in range(arity + 1)]
        for literal in action.precondition:
            pred = literal.atom[0]
            if pred == EQ or pred in statics:
                slots = tuple(slot_of[t] for t in literal.atom[1:])
                depth = max((s - offset + 1 for s in slots if s >= offset), default=0)
                checks[depth].append((pred, slots, literal.positive))
        rows = [consts] if _passes(consts, checks[0], init) else []
        for depth, param in enumerate(action.params):
            pool = problem.objects_of_type(domain, param.type)
            slot, tests = offset + depth, checks[depth + 1]
            join = next((c for c in tests if c[2] and c[0] != EQ and c[1].count(slot) == 1), None)
            if join is not None:
                tests = [c for c in tests if c is not join]
                pred, slots, _ = join
                at = slots.index(slot)
                rank = {obj: i for i, obj in enumerate(pool)}
                index: dict[tuple[str, ...], list[str]] = {}
                for atom in atoms_of.get(pred, ()):
                    if atom[1 + at] in rank:
                        key = atom[1 : 1 + at] + atom[2 + at :]
                        index.setdefault(key, []).append(atom[1 + at])
                for objs in index.values():
                    objs.sort(key=rank.__getitem__)
                keys = slots[:at] + slots[at + 1 :]
            extended = []
            for row in rows:
                objs = pool if join is None else index.get(tuple([row[s] for s in keys]), ())
                for obj in objs:
                    new = row + (obj,)
                    if _passes(new, tests, init):
                        extended.append(new)
            rows = extended
        for row in rows:
            yield action, row[offset:]


def _passes(row: tuple[str, ...], checks: list, init: State) -> bool:
    """Whether every (predicate, term slots, positive) check holds for the
    terms in ``row``, ``=`` by comparison and any other against ``init``."""
    for pred, slots, positive in checks:
        if pred == EQ:
            true = row[slots[0]] == row[slots[1]]
        else:
            true = (pred, *[row[s] for s in slots]) in init
        if true != positive:
            return False
    return True
