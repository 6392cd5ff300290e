"""Canonical text rendering for problems, atoms and literals.

The canonical form is what fingerprinting and the round-trip guarantee rest
on: every name is lower case, objects are listed one per line sorted by name,
init atoms are listed one per line in lexicographic order of their rendered
text, and goal conjuncts keep their declared order.  Parsing a rendered
problem yields a value equal to the one rendered.  Domains have no canonical
form: a domain ships as the text it was read from.
"""

from __future__ import annotations

from planforge.pddl.model import Atom, Literal, Problem


def render_atom(atom: Atom) -> str:
    return "(" + " ".join(atom) + ")"


def render_literal(lit: Literal) -> str:
    body = render_atom(lit.atom)
    return body if lit.positive else f"(not {body})"


def serialize_problem(problem: Problem) -> str:
    lines = [f"(define (problem {problem.name})"]
    lines.append(f"  (:domain {problem.domain})")
    lines.append("  (:objects")
    for name, t in problem.objects:
        lines.append(f"    {name} - {t}")
    lines[-1] += ")"
    lines.append("  (:init")
    for text in sorted(render_atom(atom) for atom in problem.init):
        lines.append(f"    {text}")
    lines[-1] += ")"
    lines.append("  (:goal (and")
    for lit in problem.goal:
        lines.append(f"    {render_literal(lit)}")
    lines[-1] += ")))"
    return "\n".join(lines) + "\n"
