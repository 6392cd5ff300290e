"""Typed STRIPS-style planning model: parsing, problem serialization, grounding."""

from planforge.pddl.model import (
    Action,
    Atom,
    EffectBranch,
    Domain,
    GroundAction,
    Literal,
    Param,
    Predicate,
    Problem,
    State,
)
from planforge.pddl.parser import ParseError, parse_domain, parse_problem
from planforge.pddl.writer import serialize_problem
from planforge.pddl.ground import (
    GroundingError,
    PreconditionError,
    apply_action,
    apply_effects,
    goal_satisfied,
    ground_action_for,
    ground_actions,
    holds,
    iter_applicable_candidates,
    static_predicates,
)

__all__ = [
    "Action",
    "Atom",
    "EffectBranch",
    "Domain",
    "GroundAction",
    "GroundingError",
    "Literal",
    "Param",
    "ParseError",
    "PreconditionError",
    "Predicate",
    "Problem",
    "State",
    "apply_action",
    "apply_effects",
    "goal_satisfied",
    "ground_action_for",
    "ground_actions",
    "holds",
    "iter_applicable_candidates",
    "static_predicates",
    "parse_domain",
    "parse_problem",
    "serialize_problem",
]
