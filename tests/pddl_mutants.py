"""Seeded mutants of the bundled PDDL files, and what the reader makes of each.

``mutants()`` yields the same texts for the same seed on every platform: it
cuts, copies and inserts spans of ``artic3.pddl``, ``artic3m.pddl`` and
``artic3_micro.pddl``, and puts in runs of parentheses, line breaks, ``;``,
keywords and characters whose lower case is longer than they are.
``outcome()`` is a digest of what parses or the text of what is refused.

Run ``PYTHONPATH=src python3 tests/pddl_mutants.py`` to rewrite the fixture
``pddl_mutants.json`` beside this file from the reader in the tree.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Iterator
from pathlib import Path

from planforge import assets_dir
from planforge.pddl.parser import parse_domain, parse_problem

FIXTURE = Path(__file__).with_name("pddl_mutants.json")
SEED = 20
PER_FILE = 1000

# The file each mutant starts from, and what it is read as; the problem is
# read against the unmutated artic3 domain.
SOURCES = (("artic3.pddl", "domain"), ("artic3m.pddl", "domain"),
           ("artic3_micro.pddl", "problem"))

# Every boundary ``str.splitlines`` cuts a line at.
LINE_BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029")

WORDS = ("(", ")", "()", ";", " ", "and", "not", "when", "=", "-", "?x",
         "define", "domain", "problem", ":action", ":parameters", ":effect",
         ":init", ":goal", ":objects", ":types", "forall", "(and)", "(not",
         "link", "a0", "held", "İ", "İİ x", "DEFINE")


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        op = rng.randrange(6)
        if op == 0:  # delete a span
            text = text[:at] + text[at + rng.randint(1, 40):]
        elif op == 1:  # copy a span elsewhere
            start = rng.randrange(len(text))
            span = text[start:start + rng.randint(1, 60)]
            text = text[:at] + span + text[at:]
        elif op == 2:  # a run of open parentheses
            text = text[:at] + "(" * rng.randint(1, 80) + text[at:]
        elif op == 3:
            text = text[:at] + rng.choice(LINE_BREAKS) + text[at:]
        else:
            text = text[:at] + rng.choice(WORDS) + text[at:]
    return text


def mutants(seed: int = SEED, per_file: int = PER_FILE) -> Iterator[tuple[str, str]]:
    """``(kind, text)`` for ``per_file`` mutants of each of ``SOURCES``."""
    rng = random.Random(seed)
    for name, kind in SOURCES:
        text = (assets_dir() / name).read_text()
        for _ in range(per_file):
            yield kind, _mutate(text, rng)


def outcome(kind: str, text: str) -> str:
    """A digest of the ``repr`` of what ``text`` parses to, or the type and
    text of the error that refuses it."""
    try:
        if kind == "domain":
            value = parse_domain(text)
        else:
            problem = parse_problem(text, parse_domain((assets_dir() / "artic3.pddl").read_text()))
            # init is a set, whose repr order changes with the hash seed
            value = (problem.name, problem.domain, problem.objects,
                     sorted(problem.init), problem.goal)
    except Exception as err:
        return f"{type(err).__name__}: {err}"
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


if __name__ == "__main__":
    outcomes = [outcome(kind, text) for kind, text in mutants()]
    FIXTURE.write_text(json.dumps({"seed": SEED, "per_file": PER_FILE,
                                   "outcomes": outcomes}, indent=0) + "\n")
    print(f"wrote {len(outcomes)} outcomes to {FIXTURE}")
