"""Declarative problem generation configs: parsing and checking.

A config names a domain, declares object pools that instantiate numbered
objects (``prefix1 .. prefixN``), fixes a constant part of the initial state,
and describes the variable init and goal parts as predicate pools whose atom
templates are sampled per problem.  Template arguments may name an object
directly, name an object pool (uniform draw), or use the tagged form
``pool$label`` / ``pool$label+k`` which draws one base object per label and
offsets from it, so related atoms can share objects.

Checking finds diagnostics, each naming a path in the config; every one is
an error.  ``parse_config`` raises the structural ones and
``validate_against_domain`` returns those against a domain, and
``generate_batch`` refuses a config with any.
"""

from __future__ import annotations

import json
import math
import re
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

from planforge.pddl.model import Atom, Domain, is_known_type_in

_ATOM_RE = re.compile(r"^\(\s*([^\s()]+)((?:\s+[^\s()]+)*)\s*\)$")
_TAG_RE = re.compile(r"^(?P<pool>[^$]+)\$(?P<label>[^+$]+)(?:\+(?P<offset>\d+))?$")


class ConfigError(ValueError):
    def __init__(self, diagnostics: list["Diagnostic"]):
        self.diagnostics = diagnostics
        super().__init__("\n".join(str(d) for d in diagnostics))


@dataclass(frozen=True)
class Diagnostic:
    """One problem that stops a config from being used."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: error: {self.message}"


@dataclass(frozen=True)
class ObjectPool:
    id: str
    type: str
    prefix: str
    quantity: int
    usage: str = "random"

    @property
    def object_names(self) -> tuple[str, ...]:
        return tuple(f"{self.prefix}{i}" for i in range(1, self.quantity + 1))


@dataclass(frozen=True)
class ArgRef:
    """One template argument slot.

    ``kind`` is "literal" for a concrete object name and "pool" for a draw
    from an object pool.  ``label`` is set for tagged pool references; tagged
    references sharing a (pool, label) pair within one predicate-pool instance
    resolve relative to a single base draw, shifted by ``offset``.
    """

    kind: str
    value: str
    label: str | None = None
    offset: int = 0


@dataclass(frozen=True)
class AtomTemplate:
    predicate: str
    args: tuple[ArgRef, ...]
    probability: float = 1.0


@dataclass(frozen=True)
class PredicatePool:
    id: str
    atoms: tuple[AtomTemplate, ...]
    count: int = 1


@dataclass(frozen=True)
class MutexGroup:
    id: str
    members: tuple[str, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class GeneratorConfig:
    domain: str
    object_pools: dict[str, ObjectPool]  # by id, in declaration order
    constant_init: tuple[Atom, ...] = ()
    variable_init: tuple[PredicatePool, ...] = ()
    variable_goal: tuple[PredicatePool, ...] = ()
    mutex_groups: tuple[MutexGroup, ...] = ()


# A kind is an _Object (fields: key -> kind), an _Array of item kinds, "name"
# (a non-empty string), "usage" (one of _USAGES) or a key of _NUMBERS:
# (whole, minimum, maximum, minimum excluded).  A whole number is an int, and
# every number is finite.  Counts are capped so that checking a config, which
# builds every object name, takes bounded time and memory.
_Object = namedtuple("_Object", "fields required")
_Array = namedtuple("_Array", "item min_items", defaults=(0,))
_USAGES = ["random", "mutex", "sequential"]
_NUMBERS = {
    "count": (True, 1, 10_000, False),
    "probability": (False, 0, 1, False),
    "weight": (False, 0, math.inf, True),
}
_ATOM_TEMPLATE = _Object(
    {"predicate": "name", "args": _Array("name"), "probability": "probability"},
    ("predicate", "args"))
_PREDICATE_POOL = _Object(
    {"id": "name", "count": "count", "atoms": _Array(_ATOM_TEMPLATE, 1)}, ("id", "atoms"))
_CONFIG = _Object({
    "domain": "name",
    "object_pools": _Array(_Object(
        {"id": "name", "type": "name", "prefix": "name", "quantity": "count",
         "usage": "usage"}, ("id", "type", "quantity")), 1),
    "constant_init": _Array("name"),
    "variable_init": _Array(_PREDICATE_POOL),
    "variable_goal": _Array(_PREDICATE_POOL),
    "mutex_groups": _Array(_Object(
        {"id": "name", "members": _Array("name", 2), "weights": _Array("weight", 2)},
        ("id", "members", "weights"))),
}, ("domain", "object_pools"))


def _check_shape(value, kind, path: str, errors: list[Diagnostic]) -> None:
    """Append a diagnostic for each place where ``value`` is not of ``kind``."""
    def error(message: str) -> None:
        errors.append(Diagnostic(path, message))

    if isinstance(kind, _Object):
        if not isinstance(value, dict):
            return error(f"{value!r} is not of type 'object'")
        for key in kind.required:
            if key not in value:
                error(f"'{key}' is a required property")
        for key in sorted(value.keys() - kind.fields.keys()):
            error(f"Additional properties are not allowed ({key!r} was unexpected)")
        for key, sub in kind.fields.items():
            if key in value:
                _check_shape(value[key], sub, f"{path}.{key}", errors)
    elif isinstance(kind, _Array):
        if not isinstance(value, list):
            return error(f"{value!r} is not of type 'array'")
        if len(value) < kind.min_items:
            error(f"{value!r} is too short")
        for i, item in enumerate(value):
            _check_shape(item, kind.item, f"{path}[{i}]", errors)
    elif kind == "name":
        if not isinstance(value, str):
            error(f"{value!r} is not of type 'string'")
        elif not value:
            error("'' should be non-empty")
    elif kind == "usage":
        if value not in _USAGES:
            error(f"{value!r} is not one of {_USAGES!r}")
    else:
        whole, low, high, low_excluded = _NUMBERS[kind]
        if isinstance(value, bool) or not isinstance(value, int if whole else (int, float)):
            error(f"{value!r} is not of type '{'integer' if whole else 'number'}'")
        elif isinstance(value, float) and not math.isfinite(value):
            error(f"{value!r} is not a finite number")
        elif value < low or (low_excluded and value == low):
            error(f"{value!r} is less than {'or equal to ' * low_excluded}the minimum of {low}")
        elif value > high:
            error(f"{value!r} is greater than the maximum of {high}")


def parse_ground_atom(text: str) -> Atom:
    m = _ATOM_RE.match(text.strip())
    if m is None:
        raise ValueError(f"expected '(predicate args...)', got '{text.strip()}'")
    name = m.group(1).lower()
    return (name,) + tuple(a.lower() for a in m.group(2).split())


def _parse_arg(raw: str, pools: dict[str, ObjectPool], path: str,
               errors: list[Diagnostic]) -> ArgRef:
    raw = raw.lower()
    if "$" in raw:
        m = _TAG_RE.match(raw)
        if m is None:
            errors.append(Diagnostic(path, f"malformed tagged reference '{raw}'"))
            return ArgRef("literal", raw)
        pool_id = m.group("pool")
        if pool_id not in pools:
            errors.append(Diagnostic(path, f"tag references unknown object pool '{pool_id}'"))
            return ArgRef("literal", raw)
        offset = int(m.group("offset") or 0)
        if offset >= pools[pool_id].quantity:
            errors.append(
                Diagnostic(
                    path,
                    f"offset +{offset} cannot fit in pool '{pool_id}' "
                    f"of quantity {pools[pool_id].quantity}",
                )
            )
        return ArgRef("pool", pool_id, m.group("label"), offset)
    if raw in pools:
        return ArgRef("pool", raw)
    return ArgRef("literal", raw)


def parse_config(text: str) -> GeneratorConfig:
    """Parse and structurally check a config document.

    Raises ConfigError carrying every diagnostic found, formatted as
    ``path: error: message``.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError([Diagnostic("config", f"invalid JSON: {err}")]) from err

    errors: list[Diagnostic] = []
    _check_shape(data, _CONFIG, "config", errors)
    if errors:
        raise ConfigError(errors)

    pools: dict[str, ObjectPool] = {}
    for i, raw in enumerate(data["object_pools"]):
        pool = ObjectPool(
            id=raw["id"].lower(),
            type=raw["type"].lower(),
            prefix=raw.get("prefix", raw["id"]).lower(),
            quantity=raw["quantity"],
            usage=raw.get("usage", "random"),
        )
        if pool.id in pools:
            errors.append(Diagnostic(f"config.object_pools[{i}].id",
                                     f"duplicate object pool id '{pool.id}'"))
            continue
        pools[pool.id] = pool

    # Instantiated names must be unique across pools.
    owner: dict[str, str] = {}
    for pool in pools.values():
        for name in pool.object_names:
            if name in owner:
                errors.append(
                    Diagnostic(
                        "config.object_pools",
                        f"pools '{owner[name]}' and '{pool.id}' both "
                        f"instantiate an object named '{name}'",
                    )
                )
            else:
                owner[name] = pool.id

    constant_init: list[Atom] = []
    for i, raw in enumerate(data.get("constant_init", [])):
        try:
            constant_init.append(parse_ground_atom(raw))
        except ValueError as err:
            errors.append(Diagnostic(f"config.constant_init[{i}]", str(err)))

    def parse_section(section: str) -> tuple[PredicatePool, ...]:
        out: list[PredicatePool] = []
        for i, raw in enumerate(data.get(section, [])):
            atoms = []
            for j, atom_raw in enumerate(raw["atoms"]):
                path = f"config.{section}[{i}].atoms[{j}]"
                args = tuple(
                    _parse_arg(a, pools, f"{path}.args[{k}]", errors)
                    for k, a in enumerate(atom_raw["args"])
                )
                atoms.append(
                    AtomTemplate(
                        predicate=atom_raw["predicate"].lower(),
                        args=args,
                        probability=atom_raw.get("probability", 1.0),
                    )
                )
            out.append(
                PredicatePool(
                    id=raw["id"].lower(),
                    atoms=tuple(atoms),
                    count=raw.get("count", 1),
                )
            )
        return tuple(out)

    variable_init = parse_section("variable_init")
    variable_goal = parse_section("variable_goal")

    seen_pp: dict[str, str] = {}
    for section, pps in (("variable_init", variable_init), ("variable_goal", variable_goal)):
        for i, pp in enumerate(pps):
            if pp.id in seen_pp:
                errors.append(
                    Diagnostic(
                        f"config.{section}[{i}].id",
                        f"duplicate predicate pool id '{pp.id}' "
                        f"(first declared in {seen_pp[pp.id]})",
                    )
                )
            else:
                seen_pp[pp.id] = section

    groups: list[MutexGroup] = []
    grouped: dict[str, str] = {}
    for i, raw in enumerate(data.get("mutex_groups", [])):
        path = f"config.mutex_groups[{i}]"
        group = MutexGroup(
            id=raw["id"].lower(),
            members=tuple(m.lower() for m in raw["members"]),
            weights=tuple(float(w) for w in raw["weights"]),
        )
        if len(group.members) != len(group.weights):
            errors.append(Diagnostic(
                path, f"{len(group.members)} member(s) but {len(group.weights)} weight(s)"
            ))
        for member in group.members:
            if member not in seen_pp:
                errors.append(Diagnostic(f"{path}.members",
                                         f"unknown predicate pool '{member}'"))
            elif member in grouped:
                errors.append(
                    Diagnostic(
                        f"{path}.members",
                        f"predicate pool '{member}' is already in mutex group '{grouped[member]}'",
                    )
                )
            else:
                grouped[member] = group.id
        if len(set(group.members)) != len(group.members):
            errors.append(Diagnostic(f"{path}.members", "duplicate members in mutex group"))
        groups.append(group)

    if errors:
        raise ConfigError(errors)

    return GeneratorConfig(
        domain=data["domain"].lower(),
        object_pools=pools,
        constant_init=tuple(constant_init),
        variable_init=variable_init,
        variable_goal=variable_goal,
        mutex_groups=tuple(groups),
    )


def load_config(path: str | Path) -> GeneratorConfig:
    return parse_config(Path(path).read_text())


def validate_against_domain(config: GeneratorConfig, domain: Domain) -> list[Diagnostic]:
    """Cross-check a parsed config against a parsed domain.

    Returns diagnostics; an empty list means the config is usable.
    """
    out: list[Diagnostic] = []
    if config.domain != domain.name:
        out.append(
            Diagnostic("config.domain",
                       f"config targets domain '{config.domain}', got '{domain.name}'")
        )

    object_type: dict[str, str] = {}
    for i, pool in enumerate(config.object_pools.values()):
        path = f"config.object_pools[{i}]"
        if not is_known_type_in(domain.type_parents, pool.type):
            out.append(Diagnostic(f"{path}.type", f"unknown type '{pool.type}'"))
            continue
        for name in pool.object_names:
            object_type[name] = pool.type

    predicates = {p.name: p for p in domain.predicates}

    def check_atom(predicate: str, arg_types: list[str | None], path: str) -> None:
        pred = predicates.get(predicate)
        if pred is None:
            out.append(Diagnostic(path, f"unknown predicate '{predicate}'"))
            return
        if len(arg_types) != pred.arity:
            out.append(
                Diagnostic(path, f"predicate '{predicate}' expects {pred.arity} "
                                 f"argument(s), got {len(arg_types)}")
            )
            return
        for k, (given, param) in enumerate(zip(arg_types, pred.params)):
            if given is None:
                continue
            if not domain.is_subtype(given, param.type):
                out.append(
                    Diagnostic(
                        f"{path}.args[{k}]",
                        f"type '{given}' does not satisfy '{param.type}'",
                    )
                )

    for i, atom in enumerate(config.constant_init):
        path = f"config.constant_init[{i}]"
        arg_types: list[str | None] = []
        for name in atom[1:]:
            if name not in object_type:
                out.append(Diagnostic(path, f"unknown object '{name}'"))
                arg_types.append(None)
            else:
                arg_types.append(object_type[name])
        check_atom(atom[0], arg_types, path)

    for section, pps in (
        ("variable_init", config.variable_init),
        ("variable_goal", config.variable_goal),
    ):
        for i, pp in enumerate(pps):
            for j, tpl in enumerate(pp.atoms):
                path = f"config.{section}[{i}].atoms[{j}]"
                arg_types = []
                for k, arg in enumerate(tpl.args):
                    if arg.kind == "pool":
                        arg_types.append(config.object_pools[arg.value].type)
                    elif arg.value in object_type:
                        arg_types.append(object_type[arg.value])
                    else:
                        out.append(
                            Diagnostic(f"{path}.args[{k}]", f"unknown object '{arg.value}'")
                        )
                        arg_types.append(None)
                check_atom(tpl.predicate, arg_types, path)
    return out
