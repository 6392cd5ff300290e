"""Parser for a STRIPS fragment with typing, equality and conditional effects.

Accepted requirement flags: :strips :typing :negative-preconditions :equality
:conditional-effects :adl.  Declaring :adl is tolerated but only the listed
features are honoured; quantifiers, disjunctions, numeric fluents and durative
actions are rejected with positioned diagnostics.  All input is folded to
lower case before interpretation.

Each place that holds logic has one reader.  Preconditions, effect
conditions and goals are conditions: a conjunction of atoms and ``=`` tests,
each of which may sit inside one ``not``.  An effect's add or delete and an
``:init`` entry is a single atom; a conjunction there is an error.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

from planforge.pddl.model import (
    EQ,
    Action,
    Atom,
    Domain,
    EffectBranch,
    Literal,
    Param,
    Predicate,
    Problem,
    is_known_type_in,
    is_subtype_in,
)

ACCEPTED_REQUIREMENTS = (
    ":strips",
    ":typing",
    ":negative-preconditions",
    ":equality",
    ":conditional-effects",
    ":adl",
)

_TOKEN_RE = re.compile(r"[()]|[^\s();]+")

# The deepest group the reader opens.  The accepted fragment needs about ten
# levels; the parser recurses once per level, so without a limit deep input
# would end in a RecursionError without a position.
_MAX_DEPTH = 64


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        if line is not None:
            super().__init__(f"line {line}, col {col}: {message}")
        else:
            super().__init__(message)


class Token(NamedTuple):
    text: str
    line: int
    col: int


class SExpr(list):
    """A parenthesised group; carries the position of its opening paren."""

    def __init__(self, line: int, col: int):
        super().__init__()
        self.line = line
        self.col = col


Node = Token | SExpr


def _read_tree(text: str) -> Node:
    """The one expression ``text`` holds, read in one pass.  Each token or
    new group goes to the innermost group still open, the last on a stack
    whose bottom holds the expression.  A comment runs from ``;`` to the
    end of its line."""
    top: list[Node] = []
    stack: list[list[Node]] = [top]
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN_RE.finditer(line.split(";", 1)[0]):
            word, col = m.group(), m.start() + 1
            if top and len(stack) == 1:
                raise ParseError("trailing input after expression", lineno, col)
            if word == "(":
                if len(stack) > _MAX_DEPTH:
                    raise ParseError(
                        f"parentheses nested more than {_MAX_DEPTH} deep", lineno, col
                    )
                group = SExpr(lineno, col)
                stack[-1].append(group)
                stack.append(group)
            elif word == ")":
                if len(stack) == 1:
                    raise ParseError("unexpected ')'", lineno, col)
                stack.pop()
            else:
                stack[-1].append(Token(word.lower(), lineno, col))
    if len(stack) > 1:
        raise _fail(stack[-1], "unbalanced parenthesis")
    if not top:
        raise ParseError("empty input")
    return top[0]


def _fail(node: Node, message: str) -> ParseError:
    return ParseError(message, node.line, node.col)


def _expect_group(node: Node, what: str) -> SExpr:
    if not isinstance(node, SExpr):
        raise _fail(node, f"expected {what}, got '{node.text}'")
    return node


def _expect_symbol(node: Node, what: str) -> Token:
    if not isinstance(node, Token):
        raise _fail(node, f"expected {what}, got a parenthesised group")
    return node


def _head(group: SExpr) -> str:
    if group and isinstance(group[0], Token):
        return group[0].text
    return ""


def _parse_typed_list(
    nodes: list[Node], *, variables: bool, what: str
) -> list[tuple[str, str]]:
    """Parse ``a b - t c d`` style lists; untyped entries default to object."""
    out: list[tuple[str, str]] = []
    pending: list[Token] = []
    i = 0
    while i < len(nodes):
        tok = _expect_symbol(nodes[i], what)
        if tok.text == "-":
            if not pending:
                raise _fail(tok, "type marker '-' without preceding names")
            if i + 1 >= len(nodes):
                raise _fail(tok, "type marker '-' without a type")
            type_tok = _expect_symbol(nodes[i + 1], "a type name")
            if type_tok.text.startswith("?") or type_tok.text == "-":
                raise _fail(type_tok, f"invalid type name '{type_tok.text}'")
            for name in pending:
                out.append((name.text, type_tok.text))
            pending = []
            i += 2
            continue
        if variables and not tok.text.startswith("?"):
            raise _fail(tok, f"expected a variable, got '{tok.text}'")
        if not variables and tok.text.startswith("?"):
            raise _fail(tok, f"expected a name, got variable '{tok.text}'")
        pending.append(tok)
        i += 1
    for name in pending:
        out.append((name.text, "object"))
    return out


def _term(node: Node, term_type: dict[str, str]) -> str:
    """A term's name; it must be a declared variable or object."""
    tok = _expect_symbol(node, "a term")
    if tok.text not in term_type:
        kind = "variable" if tok.text.startswith("?") else "object"
        raise _fail(tok, f"undeclared {kind} '{tok.text}'")
    return tok.text


_REJECTED_CONNECTIVES = {
    "forall": "quantifiers are not supported",
    "exists": "quantifiers are not supported",
    "or": "disjunctions are not supported",
    "imply": "disjunctions are not supported",
    "increase": "numeric fluents are not supported",
    "decrease": "numeric fluents are not supported",
    "assign": "numeric fluents are not supported",
}

# Heads that cannot stand where one atom is read, as the diagnostic names them.
_NOT_AN_ATOM = {"not": "negation", "when": "'when'", EQ: "equality"}

_NOT_IN_INIT = {
    "not": "negative literals are not allowed in ':init'",
    "and": "conjunctions are not allowed in ':init'",
    EQ: "numeric fluents are not supported",
}


def _atom(
    group: SExpr,
    predicates: dict[str, Predicate],
    term_type: dict[str, str],
    parents: dict[str, str],
    context: str,
) -> Atom:
    """One atom: an effect's add or delete, an ':init' entry, or a
    condition's atom."""
    head = _head(group)
    if head in _REJECTED_CONNECTIVES:
        raise _fail(group, _REJECTED_CONNECTIVES[head])
    if head in _NOT_AN_ATOM:
        raise _fail(group, f"{_NOT_AN_ATOM[head]} is not allowed in {context}")
    if not head:
        raise _fail(group, f"empty or malformed {context} expression")
    if head not in predicates:
        raise _fail(group, f"unknown predicate '{head}'")
    pred = predicates[head]
    args = [_expect_symbol(a, "a term") for a in group[1:]]
    if len(args) != pred.arity:
        raise _fail(
            group,
            f"predicate '{pred.name}' expects {pred.arity} argument(s), got {len(args)}",
        )
    for tok, param in zip(args, pred.params):
        t = term_type[_term(tok, term_type)]
        if not is_subtype_in(parents, t, param.type):
            raise _fail(
                tok,
                f"'{tok.text}' has type '{t}', "
                f"but '{pred.name}' expects '{param.type}' here",
            )
    return (pred.name,) + tuple(tok.text for tok in args)


def _negated(group: SExpr, context: str) -> SExpr:
    """The single atom a ``(not ...)`` wraps."""
    if len(group) != 2:
        raise _fail(group, "'not' takes exactly one argument")
    inner = _expect_group(group[1], f"a {context} expression")
    if _head(inner) == "and":
        raise _fail(group, "'not' must wrap a single atom")
    return inner


def _condition(
    node: Node,
    predicates: dict[str, Predicate],
    term_type: dict[str, str],
    parents: dict[str, str],
    context: str,
) -> list[Literal]:
    """A precondition, effect condition or goal: a conjunction of atoms and
    ``=`` tests, each of which may sit inside a ``not``."""
    group = _expect_group(node, f"a {context} expression")
    head = _head(group)
    if head == "and":
        return [
            lit
            for child in group[1:]
            for lit in _condition(child, predicates, term_type, parents, context)
        ]
    if head == "not":
        group = _negated(group, context)
    if _head(group) == EQ:
        if len(group) != 3:
            raise _fail(group, "'=' takes exactly two arguments")
        atom = (EQ,) + tuple(_term(arg, term_type) for arg in group[1:])
    else:
        atom = _atom(group, predicates, term_type, parents, context)
    return [Literal(atom, head != "not")]


def _effect(
    node: Node,
    predicates: dict[str, Predicate],
    term_type: dict[str, str],
    parents: dict[str, str],
    branches: list[EffectBranch] | None,
) -> tuple[list[Atom], list[Atom]]:
    """The unconditional adds and deletes of an effect; each ``when`` is
    appended to ``branches``, which is None inside a ``when``."""
    group = _expect_group(node, "an effect expression")
    head = _head(group)
    if head == "and":
        adds: list[Atom] = []
        deletes: list[Atom] = []
        for child in group[1:]:
            a, d = _effect(child, predicates, term_type, parents, branches)
            adds += a
            deletes += d
        return adds, deletes
    if head == "when":
        if branches is None:
            raise _fail(group, "nested 'when' is not supported")
        if len(group) != 3:
            raise _fail(group, "'when' takes a condition and an effect")
        condition = _condition(group[1], predicates, term_type, parents, "effect condition")
        adds, deletes = _effect(group[2], predicates, term_type, parents, None)
        branches.append(_branch(condition, adds, deletes))
        return [], []
    if head == "not":
        return [], [_atom(_negated(group, "effect"), predicates, term_type, parents, "effect")]
    return [_atom(group, predicates, term_type, parents, "effect")], []


def _branch(condition: list[Literal], adds: list[Atom], deletes: list[Atom]) -> EffectBranch:
    return EffectBranch(
        tuple(condition), tuple(dict.fromkeys(adds)), tuple(dict.fromkeys(deletes))
    )


def _parse_action(
    group: SExpr,
    predicates: dict[str, Predicate],
    parents: dict[str, str],
) -> Action:
    nodes = list(group)[1:]
    if not nodes:
        raise _fail(group, "':action' requires a name")
    name = _expect_symbol(nodes[0], "an action name").text
    sections: dict[str, Node] = {}
    i = 1
    while i < len(nodes):
        key_tok = _expect_symbol(nodes[i], "an action section keyword")
        key = key_tok.text
        if key not in (":parameters", ":precondition", ":effect"):
            if key == ":duration":
                raise _fail(key_tok, "durative actions are not supported")
            raise _fail(key_tok, f"unknown action section '{key}'")
        if key in sections:
            raise _fail(key_tok, f"duplicate action section '{key}'")
        if i + 1 >= len(nodes):
            raise _fail(key_tok, f"'{key}' requires a value")
        sections[key] = nodes[i + 1]
        i += 2
    if ":parameters" not in sections:
        raise _fail(group, f"action '{name}' is missing ':parameters'")
    if ":effect" not in sections:
        raise _fail(group, f"action '{name}' is missing ':effect'")

    param_nodes = _expect_group(sections[":parameters"], "a parameter list")
    typed = _parse_typed_list(list(param_nodes), variables=True, what="a parameter")
    seen_vars: dict[str, str] = {}
    for var, t in typed:
        if var in seen_vars:
            raise _fail(param_nodes, f"duplicate parameter '{var}' in action '{name}'")
        if not is_known_type_in(parents, t):
            raise _fail(param_nodes, f"unknown type '{t}' in action '{name}'")
        seen_vars[var] = t

    precondition: tuple[Literal, ...] = ()
    if ":precondition" in sections:
        precondition = tuple(
            _condition(sections[":precondition"], predicates, seen_vars, parents, "precondition")
        )

    effects: list[EffectBranch] = []
    adds, deletes = _effect(sections[":effect"], predicates, seen_vars, parents, effects)
    if adds or deletes:
        effects.insert(0, _branch([], adds, deletes))
    if not effects:
        raise _fail(group, f"action '{name}' has an empty effect")
    for branch in effects:
        overlap = set(branch.adds) & set(branch.deletes)
        if overlap:
            raise _fail(
                group,
                f"action '{name}' both adds and deletes ({' '.join(sorted(overlap)[0])}) "
                "in the same effect branch",
            )
    params = tuple(Param(var, t) for var, t in seen_vars.items())
    return Action(name, params, precondition, tuple(effects))


def _parse_define(text: str, kind: str) -> tuple[SExpr, str, list[Node]]:
    """Read ``(define (KIND NAME) SECTION...)`` into the whole group, NAME
    and the sections."""
    group = _expect_group(_read_tree(text), f"a {kind} definition")
    if _head(group) != "define":
        raise _fail(group, f"expected (define ({kind} ...) ...)")
    nodes = list(group)[1:]
    if not nodes:
        raise _fail(group, f"missing ({kind} NAME)")
    head_group = _expect_group(nodes[0], f"({kind} NAME)")
    if _head(head_group) != kind or len(head_group) != 2:
        raise _fail(head_group, f"expected ({kind} NAME)")
    return group, _expect_symbol(head_group[1], f"a {kind} name").text, nodes[1:]


@functools.lru_cache(maxsize=8)
def parse_domain(text: str) -> Domain:
    """Parse a domain; the result is immutable, so repeated texts are
    answered from a small memo instead of being parsed again."""
    _, name, sections = _parse_define(text, "domain")
    requirements: tuple[str, ...] = ()
    parents: dict[str, str] = {}
    predicates: dict[str, Predicate] = {}
    actions: list[Action] = []
    seen_sections: set[str] = set()

    for node in sections:
        section = _expect_group(node, "a domain section")
        key = _head(section)
        if key == ":functions":
            raise _fail(section, "numeric fluents are not supported")
        if key == ":durative-action":
            raise _fail(section, "durative actions are not supported")
        if key == ":constants":
            raise _fail(section, "domain constants are not supported")
        if key not in (":requirements", ":types", ":predicates", ":action"):
            raise _fail(section, f"unknown domain section '{key or '()'}'")
        if key != ":action" and key in seen_sections:
            raise _fail(section, f"duplicate domain section '{key}'")
        seen_sections.add(key)

        if key == ":requirements":
            reqs = []
            for child in list(section)[1:]:
                tok = _expect_symbol(child, "a requirement flag")
                if tok.text not in ACCEPTED_REQUIREMENTS:
                    raise _fail(
                        tok,
                        f"unsupported requirement '{tok.text}' "
                        f"(supported: {' '.join(ACCEPTED_REQUIREMENTS)})",
                    )
                reqs.append(tok.text)
            requirements = tuple(reqs)
        elif key == ":types":
            for t, parent in _parse_typed_list(
                list(section)[1:], variables=False, what="a type name"
            ):
                if t in parents:
                    raise _fail(section, f"duplicate type '{t}'")
                parents[t] = parent
        elif key == ":predicates":
            for child in list(section)[1:]:
                pgroup = _expect_group(child, "a predicate declaration")
                if not pgroup:
                    raise _fail(pgroup, "empty predicate declaration")
                pname = _expect_symbol(pgroup[0], "a predicate name").text
                if pname in predicates:
                    raise _fail(pgroup, f"duplicate predicate '{pname}'")
                typed = _parse_typed_list(list(pgroup)[1:], variables=True, what="a parameter")
                for _var, t in typed:
                    if not is_known_type_in(parents, t):
                        raise _fail(pgroup, f"unknown type '{t}' in predicate '{pname}'")
                predicates[pname] = Predicate(pname, tuple(Param(v, t) for v, t in typed))
        else:
            action = _parse_action(section, predicates, parents)
            if any(a.name == action.name for a in actions):
                raise _fail(section, f"duplicate action '{action.name}'")
            actions.append(action)

    return Domain(
        name, requirements, tuple(parents.items()), tuple(predicates.values()), tuple(actions)
    )


def parse_problem(text: str, domain: Domain) -> Problem:
    group, name, sections = _parse_define(text, "problem")
    parents = domain.type_parents
    predicates = {p.name: p for p in domain.predicates}
    object_type: dict[str, str] = {}
    init: set[Atom] = set()
    goal: tuple[Literal, ...] = ()
    seen_sections: set[str] = set()

    for node in sections:
        section = _expect_group(node, "a problem section")
        key = _head(section)
        if key not in (":domain", ":objects", ":init", ":goal"):
            if key == ":metric":
                raise _fail(section, "numeric fluents are not supported")
            raise _fail(section, f"unknown problem section '{key or '()'}'")
        if key in seen_sections:
            raise _fail(section, f"duplicate problem section '{key}'")
        seen_sections.add(key)

        if key == ":domain":
            if len(section) != 2:
                raise _fail(section, "expected (:domain NAME)")
            dname = _expect_symbol(section[1], "a domain name").text
            if dname != domain.name:
                raise _fail(
                    section,
                    f"problem is for domain '{dname}', not '{domain.name}'",
                )
        elif key == ":objects":
            for oname, t in _parse_typed_list(
                list(section)[1:], variables=False, what="an object name"
            ):
                if oname in object_type:
                    raise _fail(section, f"duplicate object '{oname}'")
                if not is_known_type_in(parents, t):
                    raise _fail(section, f"unknown type '{t}' for object '{oname}'")
                object_type[oname] = t
        elif key == ":init":
            for child in list(section)[1:]:
                agroup = _expect_group(child, "an init atom")
                head = _head(agroup)
                if head in _NOT_IN_INIT:
                    raise _fail(agroup, _NOT_IN_INIT[head])
                init.add(_atom(agroup, predicates, object_type, parents, "init"))
        else:
            if len(section) != 2:
                raise _fail(section, "expected (:goal EXPR)")
            goal = tuple(_condition(section[1], predicates, object_type, parents, "goal"))
            if not goal:
                raise _fail(section, "goal must not be empty")

    if ":goal" not in seen_sections:
        raise _fail(group, "problem is missing ':goal'")
    if ":domain" not in seen_sections:
        raise _fail(group, "problem is missing '(:domain ...)'")
    return Problem(name, domain.name, tuple(object_type.items()), frozenset(init), goal)
