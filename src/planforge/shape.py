"""Shape checks for the JSON inputs: generation configs, adapter registries,
pipeline configs and split files.

A kind is an ``Object`` (key -> kind, the required keys, and whether other
keys pass unchecked), an ``Array`` or a ``Map`` (any key) of one kind, a
``OneOf`` of values, a ``Number``, a ``Maybe`` (null or a kind), "string",
"name" (a non-empty string) or "file" (a file name with no directory part,
and not ``.`` or ``..``).  A whole number is an int; true and false are
not numbers, and no number is NaN, infinite or too large for a float.  Every place that does not fit
is a ``Diagnostic``, printed ``<place>: error: <message>``.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

# The PDDL reader loads only when a record is parsed, so that checking a
# config, or importing this module, loads none of it.
if TYPE_CHECKING:
    from planforge.pddl.model import Domain, Problem

Object = namedtuple("Object", "fields required open", defaults=((), False))
Array = namedtuple("Array", "item min_items", defaults=(0,))
Map = namedtuple("Map", "value min_items", defaults=(0,))
OneOf = namedtuple("OneOf", "values")
Maybe = namedtuple("Maybe", "kind")
Number = namedtuple("Number", "whole minimum maximum minimum_excluded",
                    defaults=(-math.inf, math.inf, False))
WHOLE = Number(True)
ZERO_OR_MORE = Number(True, 0)
ONE_OR_MORE = Number(True, 1)
AT_LEAST_ZERO = Number(False, 0)
ABOVE_ZERO = Number(False, 0, math.inf, True)


@dataclass(frozen=True)
class Diagnostic:
    """One problem that stops an input from being used."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: error: {self.message}"


def check(value, kind, path: str) -> Iterator[Diagnostic]:
    """A diagnostic for each place, named from ``path`` as ``path.key`` and
    ``path[i]``, where ``value`` is not of ``kind``."""
    def error(message: str) -> Diagnostic:
        return Diagnostic(path, message)

    if isinstance(kind, Object):
        if not isinstance(value, dict):
            yield error(f"{value!r} is not of type 'object'")
            return
        for key in kind.required:
            if key not in value:
                yield error(f"'{key}' is a required property")
        for key in [] if kind.open else sorted(value.keys() - kind.fields.keys()):
            yield error(f"Additional properties are not allowed ({key!r} was unexpected)")
        for key, sub in kind.fields.items():
            if key in value:
                yield from check(value[key], sub, f"{path}.{key}")
    elif isinstance(kind, Array):
        if not isinstance(value, list):
            yield error(f"{value!r} is not of type 'array'")
            return
        if len(value) < kind.min_items:
            yield error(f"{value!r} is too short")
        for i, item in enumerate(value):
            yield from check(item, kind.item, f"{path}[{i}]")
    elif isinstance(kind, Map):
        if not isinstance(value, dict):
            yield error(f"{value!r} is not of type 'object'")
            return
        if len(value) < kind.min_items:
            yield error(f"{value!r} is too short")
        for key, item in value.items():
            yield from check(item, kind.value, f"{path}.{key}")
    elif isinstance(kind, OneOf):
        if value not in kind.values:
            yield error(f"{value!r} is not one of {list(kind.values)!r}")
    elif isinstance(kind, Maybe):
        if value is not None:
            yield from check(value, kind.kind, path)
    elif kind in ("string", "name", "file"):
        if not isinstance(value, str):
            yield error(f"{value!r} is not of type 'string'")
        elif not value and kind == "name":
            yield error("'' should be non-empty")
        elif kind == "file" and (value in ("", ".", "..") or Path(value).name != value):
            yield error(f"{value!r} is not a plain file name")
    else:
        whole, low, high, low_excluded = kind
        if isinstance(value, bool) or not isinstance(value, int if whole else (int, float)):
            yield error(f"{value!r} is not of type '{'integer' if whole else 'number'}'")
        elif not whole and not -sys.float_info.max <= value <= sys.float_info.max:
            yield error(f"{value!r} is not a finite number")  # NaN, or no float holds it
        elif value < low or (low_excluded and value == low):
            yield error(f"{value!r} is less than {'or equal to ' * low_excluded}the minimum of {low}")
        elif value > high:
            yield error(f"{value!r} is greater than the maximum of {high}")


def refuse(source, diagnostics, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` with a ``<source>: <diagnostic>`` line per diagnostic,
    if there are any."""
    if lines := [f"{source}: {d}" for d in diagnostics]:
        raise error("\n".join(lines))


def load(path: str | Path, kind, root: str, error: type[Exception] = ValueError):
    """The JSON file ``path``, refused (see ``refuse``) at each place, named
    from ``root``, that is not of ``kind``, or at ``root`` if it cannot be
    read or is not JSON."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as err:
        refuse(path, [Diagnostic(root, f"cannot read: {err.strerror or err}")], error)
    except ValueError as err:
        refuse(path, [Diagnostic(root, f"invalid JSON: {err}")], error)
    refuse(path, check(data, kind, root), error)
    return data


# The shape of a split file, as ``assemble`` writes it and ``audit`` and
# ``eval`` read it: an array of Alpaca records.
ALPACA_KEYS = ("instruction", "input", "output")
_SPLIT = Array(Object(dict.fromkeys(ALPACA_KEYS, "string"), ALPACA_KEYS, open=True))


def read_split(path: str | Path, error: type[Exception] = ValueError) -> list[dict]:
    """The records of the split file ``path``; see ``load``."""
    return load(path, _SPLIT, "records", error)


def parse_record(path: str | Path, index: int, record: dict,
                 error: type[Exception] = ValueError) -> tuple[Domain, Problem]:
    """The domain and problem of record ``index`` of the split file ``path``,
    from its ``instruction`` and ``input``; refused there if either does not
    parse."""
    from planforge.pddl.parser import parse_domain, parse_problem

    try:
        domain = parse_domain(record["instruction"])
        return domain, parse_problem(record["input"], domain)
    except ValueError as err:
        refuse(path, [Diagnostic(f"records[{index}]", str(err))], error)


class StageError(RuntimeError):
    """A stage refused its inputs or could not finish."""


# The shape of a pipeline config.  Quota names, positivity and even division
# are left to ``dataset.per_domain_quotas``, the one quota check.
_PIPELINE = Object({
    "seed": WHOLE,
    "domains": Array(Object({"domain": "string", "dpgc": "string", "count": ONE_OR_MORE},
                            ("domain", "dpgc", "count"), open=True), 1),
    "quotas": Map(WHOLE, 1),
    "workers": ONE_OR_MORE,
    "timeout": Maybe(ABOVE_ZERO),
    "adapter": "string",
    "adapters_file": "string",
}, ("seed", "domains", "quotas"), open=True)


def load_pipeline_config(path: str | Path) -> dict:
    """Read and check a pipeline config document; its paths resolve against
    the config file's directory."""
    path = Path(path)
    data = load(path, _PIPELINE, "config", StageError)
    data.setdefault("adapter", "internal")
    base = path.resolve().parent
    for entry in data["domains"]:
        entry["domain"] = str((base / entry["domain"]).resolve())
        entry["dpgc"] = str((base / entry["dpgc"]).resolve())
    if "adapters_file" in data:
        data["adapters_file"] = str((base / data["adapters_file"]).resolve())
    return data
