"""Immutable model types for the supported planning fragment.

Atoms are plain tuples: the predicate name followed by its terms.  Terms are
object names in ground atoms and ``?``-prefixed variables in schema atoms.
States are frozensets of ground atoms under the closed-world assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

Atom = tuple[str, ...]
State = frozenset[Atom]

# Equality is modelled as an ordinary predicate name; it never enters a state.
EQ = "="


@dataclass(frozen=True)
class Literal:
    atom: Atom
    positive: bool = True

    def negate(self) -> Literal:
        return Literal(self.atom, not self.positive)


@dataclass(frozen=True)
class Param:
    name: str
    type: str


@dataclass(frozen=True)
class Predicate:
    name: str
    params: tuple[Param, ...]

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class EffectBranch:
    """One effect branch: unconditional when ``condition`` is empty."""

    condition: tuple[Literal, ...]
    adds: tuple[Atom, ...]
    deletes: tuple[Atom, ...]


@dataclass(frozen=True)
class Action:
    name: str
    params: tuple[Param, ...]
    precondition: tuple[Literal, ...]
    effects: tuple[EffectBranch, ...]

    @property
    def arity(self) -> int:
        return len(self.params)


def is_subtype_in(parents: dict[str, str], t: str, ancestor: str) -> bool:
    """Whether type ``t`` is ``ancestor`` or descends from it, walking the
    ``parents`` map; a type without a declared parent descends from object."""
    if ancestor == "object":
        return True
    seen = set()
    while t not in seen:
        if t == ancestor:
            return True
        seen.add(t)
        t = parents.get(t, "object")
    return False


@dataclass(frozen=True)
class Domain:
    name: str
    requirements: tuple[str, ...]
    # (type, parent) pairs; parent is "object" unless declared otherwise.
    types: tuple[tuple[str, str], ...]
    predicates: tuple[Predicate, ...]
    actions: tuple[Action, ...]

    def action(self, name: str) -> Action | None:
        for act in self.actions:
            if act.name == name:
                return act
        return None

    def is_subtype(self, t: str, ancestor: str) -> bool:
        return is_subtype_in(dict(self.types), t, ancestor)


@dataclass(frozen=True)
class Problem:
    name: str
    domain: str
    # (object, type) pairs; sorted by object name on construction so that
    # declaration order never leaks into equality or serialization.
    objects: tuple[tuple[str, str], ...]
    init: State
    goal: tuple[Literal, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(sorted(self.objects)))
        object.__setattr__(self, "init", frozenset(self.init))

    def objects_of_type(self, domain: Domain, type_name: str) -> list[str]:
        return [name for name, t in self.objects if domain.is_subtype(t, type_name)]


@dataclass(frozen=True)
class GroundAction:
    name: str
    args: tuple[str, ...]
    precondition: tuple[Literal, ...]
    effects: tuple[EffectBranch, ...]

    @property
    def signature(self) -> str:
        return "(" + " ".join((self.name,) + self.args) + ")"


def substitute(atom: Atom, binding: dict[str, str]) -> Atom:
    return tuple(binding.get(term, term) for term in atom)


def ground_schema(action: Action, args: tuple[str, ...]) -> GroundAction:
    """Instantiate a schema with concrete arguments, one per parameter."""
    binding = {p.name: a for p, a in zip(action.params, args)}
    pre = tuple(Literal(substitute(l.atom, binding), l.positive) for l in action.precondition)
    effects = []
    for branch in action.effects:
        effects.append(
            EffectBranch(
                condition=tuple(
                    Literal(substitute(l.atom, binding), l.positive) for l in branch.condition
                ),
                adds=tuple(substitute(a, binding) for a in branch.adds),
                deletes=tuple(substitute(a, binding) for a in branch.deletes),
            )
        )
    return GroundAction(action.name, args, pre, tuple(effects))
