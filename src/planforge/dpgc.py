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
from dataclasses import dataclass
from pathlib import Path

from planforge import decode
from planforge.pddl.model import Atom, Domain, is_known_type_in
from planforge.shape import ABOVE_ZERO, Array, Diagnostic, Number, Object, OneOf, check

_ATOM_RE = re.compile(r"^\(\s*([^\s()]+)((?:\s+[^\s()]+)*)\s*\)$")
_TAG_RE = re.compile(r"^(?P<pool>[^$]+)\$(?P<label>[^+$]+)(?:\+(?P<offset>\d+))?$")


class ConfigError(ValueError):
    def __init__(self, diagnostics: list["Diagnostic"]):
        self.diagnostics = diagnostics
        super().__init__("\n".join(str(d) for d in diagnostics))


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


# Counts are capped so that checking a config, which builds every object
# name, takes bounded time and memory.
_COUNT = Number(True, 1, 10_000)
_ATOM_TEMPLATE = Object(
    {"predicate": "name", "args": Array("name"), "probability": Number(False, 0, 1)},
    ("predicate", "args"))
_PREDICATE_POOL = Object(
    {"id": "name", "count": _COUNT, "atoms": Array(_ATOM_TEMPLATE, 1)}, ("id", "atoms"))
_CONFIG = Object({
    "domain": "name",
    "object_pools": Array(Object(
        {"id": "name", "type": "name", "prefix": "name", "quantity": _COUNT,
         "usage": OneOf(("random", "mutex", "sequential"))}, ("id", "type", "quantity")), 1),
    "constant_init": Array("name"),
    "variable_init": Array(_PREDICATE_POOL),
    "variable_goal": Array(_PREDICATE_POOL),
    "mutex_groups": Array(Object(
        {"id": "name", "members": Array("name", 2), "weights": Array(ABOVE_ZERO, 2)},
        ("id", "members", "weights"))),
}, ("domain", "object_pools"))


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

    errors = list(check(data, _CONFIG, "config"))
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
        if not math.isfinite(sum(group.weights)):
            errors.append(Diagnostic(f"{path}.weights", "the weights' total is not finite"))
        for j, member in enumerate(group.members):
            if member in group.members[:j]:
                errors.append(Diagnostic(f"{path}.members", "duplicate members in mutex group"))
            elif member not in seen_pp:
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
    """The config in the file ``path``; see ``read_config``."""
    return read_config(path)[2]


def read_config(path: str | Path) -> tuple[bytes, str, GeneratorConfig]:
    """The bytes of the file ``path``, their text (see ``decode``) and the
    config it holds.  A ConfigError names the file on each line, as
    ``<file>: config.<place>: error: <message>``."""
    try:
        data = Path(path).read_bytes()
        text = decode(data)
        return data, text, parse_config(text)
    except OSError as err:
        diagnostics = [Diagnostic("config", f"cannot read: {err.strerror or err}")]
    except UnicodeDecodeError as err:
        diagnostics = [Diagnostic("config", f"cannot read: {err}")]
    except ConfigError as err:
        diagnostics = err.diagnostics
    raise ConfigError([Diagnostic(f"{path}: {d.path}", d.message) for d in diagnostics])


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
