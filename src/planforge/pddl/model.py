"""Immutable model types for the supported planning fragment.

Atoms are plain tuples: the predicate name followed by its terms.  Terms are
object names in ground atoms and ``?``-prefixed variables in schema atoms.
States are frozensets of ground atoms under the closed-world assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

Atom = tuple[str, ...]
State = frozenset[Atom]

# Equality is modelled as an ordinary predicate name; it never enters a state.
EQ = "="


@dataclass(frozen=True)
class Literal:
    atom: Atom
    positive: bool = True


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

    @cached_property
    def terms(self) -> tuple[str, ...]:
        """The parameter names in order, then every other term of the schema's
        atoms; a ``GroundAction`` fills the first ``arity`` with arguments."""
        terms = [p.name for p in self.params]
        atoms = [l.atom for l in self.precondition]
        for branch in self.effects:
            atoms += [l.atom for l in branch.condition] + list(branch.adds + branch.deletes)
        for atom in atoms:
            for term in atom[1:]:
                if term not in terms:
                    terms.append(term)
        return tuple(terms)

    @cached_property
    def template(self) -> tuple:
        """The schema with each term replaced by its index in ``terms``:
        (precondition, effects), literals as (predicate, indexes, positive),
        atoms as (predicate, indexes), branches as (condition, adds, deletes)."""
        slot = {t: i for i, t in enumerate(self.terms)}

        def atom(a: Atom) -> tuple[str, tuple[int, ...]]:
            return a[0], tuple(slot[t] for t in a[1:])

        def literals(ls: tuple[Literal, ...]) -> tuple:
            return tuple(atom(l.atom) + (l.positive,) for l in ls)

        effects = tuple(
            (
                literals(b.condition),
                tuple(atom(a) for a in b.adds),
                tuple(atom(a) for a in b.deletes),
            )
            for b in self.effects
        )
        return literals(self.precondition), effects


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


def is_known_type_in(parents: dict[str, str], t: str) -> bool:
    """Whether ``t`` is object or named in the ``parents`` map, as a declared
    type or as a parent."""
    return t == "object" or t in parents or t in parents.values()


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

    @cached_property
    def type_parents(self) -> dict[str, str]:
        return dict(self.types)

    def is_subtype(self, t: str, ancestor: str) -> bool:
        return is_subtype_in(self.type_parents, t, ancestor)


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

    @cached_property
    def object_types(self) -> dict[str, str]:
        return dict(self.objects)

    def objects_of_type(self, domain: Domain, type_name: str) -> list[str]:
        return [name for name, t in self.objects if domain.is_subtype(t, type_name)]


class GroundAction:
    """A schema applied to one argument per parameter: ``precondition`` and
    ``effects`` are the schema's with every term replaced (see
    ``Action.template``)."""

    __slots__ = ("schema", "args", "precondition", "effects")

    def __init__(self, schema: Action, args: tuple[str, ...]) -> None:
        self.schema = schema
        self.args = args
        precondition, effects = schema.template
        values = args + schema.terms[len(args) :]
        self.precondition = _literals(precondition, values)
        self.effects = tuple([
            EffectBranch(
                _literals(cond, values),
                tuple([(p, *[values[i] for i in at]) for p, at in adds]),
                tuple([(p, *[values[i] for i in at]) for p, at in deletes]),
            )
            for cond, adds, deletes in effects
        ])

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def signature(self) -> str:
        return "(" + " ".join((self.name,) + self.args) + ")"


def _literals(template: tuple, values: tuple[str, ...]) -> tuple[Literal, ...]:
    return tuple([Literal((p, *[values[i] for i in at]), pos) for p, at, pos in template])
