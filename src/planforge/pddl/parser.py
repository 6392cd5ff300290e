"""Parser for a STRIPS fragment with typing, equality and conditional effects.

Accepted requirement flags: :strips :typing :negative-preconditions :equality
:conditional-effects :adl.  Declaring :adl is tolerated but only the listed
features are honoured; quantifiers, disjunctions, numeric fluents and durative
actions are rejected with positioned diagnostics.  All input is folded to
lower case before interpretation.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

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


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        if line is not None:
            super().__init__(f"line {line}, col {col}: {message}")
        else:
            super().__init__(message)


@dataclass(frozen=True)
class Token:
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


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split(";", 1)[0]
        for m in _TOKEN_RE.finditer(body):
            tokens.append(Token(m.group().lower(), lineno, m.start() + 1))
    return tokens


def _read_tree(tokens: list[Token]) -> Node:
    if not tokens:
        raise ParseError("empty input")
    pos = 0

    def read() -> Node:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok.text == "(":
            group = SExpr(tok.line, tok.col)
            while True:
                if pos >= len(tokens):
                    raise ParseError("unbalanced parenthesis", tok.line, tok.col)
                if tokens[pos].text == ")":
                    pos += 1
                    return group
                group.append(read())
        if tok.text == ")":
            raise ParseError("unexpected ')'", tok.line, tok.col)
        return tok

    tree = read()
    if pos != len(tokens):
        extra = tokens[pos]
        raise ParseError("trailing input after expression", extra.line, extra.col)
    return tree


def _where(node: Node) -> tuple[int, int]:
    return (node.line, node.col)


def _fail(node: Node, message: str) -> ParseError:
    line, col = _where(node)
    return ParseError(message, line, col)


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


def _check_atom_args(
    pred: Predicate,
    args: list[Token],
    term_type: dict[str, str],
    domain_types: "_TypeOracle",
    node: Node,
) -> Atom:
    if len(args) != pred.arity:
        raise _fail(
            node,
            f"predicate '{pred.name}' expects {pred.arity} argument(s), got {len(args)}",
        )
    terms = []
    for tok, param in zip(args, pred.params):
        if tok.text not in term_type:
            kind = "variable" if tok.text.startswith("?") else "object"
            raise _fail(tok, f"undeclared {kind} '{tok.text}'")
        if not domain_types.is_subtype(term_type[tok.text], param.type):
            raise _fail(
                tok,
                f"'{tok.text}' has type '{term_type[tok.text]}', "
                f"but '{pred.name}' expects '{param.type}' here",
            )
        terms.append(tok.text)
    return (pred.name,) + tuple(terms)


class _TypeOracle:
    def __init__(self, types: tuple[tuple[str, str], ...]):
        self.parents = dict(types)

    def known(self, t: str) -> bool:
        return t == "object" or t in self.parents or t in self.parents.values()

    def is_subtype(self, t: str, ancestor: str) -> bool:
        return is_subtype_in(self.parents, t, ancestor)


_REJECTED_CONNECTIVES = {
    "forall": "quantifiers are not supported",
    "exists": "quantifiers are not supported",
    "or": "disjunctions are not supported",
    "imply": "disjunctions are not supported",
    "increase": "numeric fluents are not supported",
    "decrease": "numeric fluents are not supported",
    "assign": "numeric fluents are not supported",
}


def _parse_literals(
    node: Node,
    predicates: dict[str, Predicate],
    term_type: dict[str, str],
    types: _TypeOracle,
    *,
    allow_negation: bool,
    allow_equality: bool,
    context: str,
) -> list[Literal]:
    group = _expect_group(node, f"a {context} expression")
    head = _head(group)
    if head in _REJECTED_CONNECTIVES:
        raise _fail(group, _REJECTED_CONNECTIVES[head])
    if head == "and":
        out: list[Literal] = []
        for child in list(group)[1:]:
            out.extend(
                _parse_literals(
                    child,
                    predicates,
                    term_type,
                    types,
                    allow_negation=allow_negation,
                    allow_equality=allow_equality,
                    context=context,
                )
            )
        return out
    if head == "not":
        if not allow_negation:
            raise _fail(group, f"negation is not allowed in {context}")
        if len(group) != 2:
            raise _fail(group, "'not' takes exactly one argument")
        inner = _parse_literals(
            group[1],
            predicates,
            term_type,
            types,
            allow_negation=False,
            allow_equality=allow_equality,
            context=context,
        )
        if len(inner) != 1:
            raise _fail(group, "'not' must wrap a single atom")
        return [inner[0].negate()]
    if head == "when":
        raise _fail(group, f"'when' is not allowed in {context}")
    if head == EQ:
        if not allow_equality:
            raise _fail(group, f"equality is not allowed in {context}")
        args = list(group)[1:]
        if len(args) != 2:
            raise _fail(group, "'=' takes exactly two arguments")
        terms = []
        for arg in args:
            tok = _expect_symbol(arg, "a term")
            if tok.text not in term_type:
                kind = "variable" if tok.text.startswith("?") else "object"
                raise _fail(tok, f"undeclared {kind} '{tok.text}'")
            terms.append(tok.text)
        return [Literal((EQ,) + tuple(terms))]
    if not head:
        raise _fail(group, f"empty or malformed {context} expression")
    if head not in predicates:
        raise _fail(group, f"unknown predicate '{head}'")
    args = [_expect_symbol(a, "a term") for a in list(group)[1:]]
    atom = _check_atom_args(predicates[head], args, term_type, types, group)
    return [Literal(atom)]


def _parse_effect(
    node: Node,
    predicates: dict[str, Predicate],
    term_type: dict[str, str],
    types: _TypeOracle,
    *,
    in_branch: bool = False,
) -> tuple[list[Atom], list[Atom], list[EffectBranch]]:
    """Collect unconditional adds/deletes and conditional branches."""
    group = _expect_group(node, "an effect expression")
    head = _head(group)
    if head in _REJECTED_CONNECTIVES:
        raise _fail(group, _REJECTED_CONNECTIVES[head])
    adds: list[Atom] = []
    deletes: list[Atom] = []
    branches: list[EffectBranch] = []
    if head == "and":
        for child in list(group)[1:]:
            a, d, b = _parse_effect(
                child, predicates, term_type, types, in_branch=in_branch
            )
            adds.extend(a)
            deletes.extend(d)
            branches.extend(b)
        return adds, deletes, branches
    if head == "when":
        if in_branch:
            raise _fail(group, "nested 'when' is not supported")
        if len(group) != 3:
            raise _fail(group, "'when' takes a condition and an effect")
        condition = _parse_literals(
            group[1],
            predicates,
            term_type,
            types,
            allow_negation=True,
            allow_equality=True,
            context="effect condition",
        )
        a, d, b = _parse_effect(group[2], predicates, term_type, types, in_branch=True)
        assert not b
        branches.append(
            EffectBranch(tuple(condition), tuple(dict.fromkeys(a)), tuple(dict.fromkeys(d)))
        )
        return adds, deletes, branches
    if head == "not":
        if len(group) != 2:
            raise _fail(group, "'not' takes exactly one argument")
        lits = _parse_literals(
            group[1],
            predicates,
            term_type,
            types,
            allow_negation=False,
            allow_equality=False,
            context="effect",
        )
        deletes.append(lits[0].atom)
        return adds, deletes, branches
    lits = _parse_literals(
        group,
        predicates,
        term_type,
        types,
        allow_negation=False,
        allow_equality=False,
        context="effect",
    )
    adds.append(lits[0].atom)
    return adds, deletes, branches


def _check_branch_consistency(branch: EffectBranch, action: str, node: Node) -> None:
    overlap = set(branch.adds) & set(branch.deletes)
    if overlap:
        atom = sorted(overlap)[0]
        raise _fail(
            node,
            f"action '{action}' both adds and deletes ({' '.join(atom)}) "
            "in the same effect branch",
        )


def _parse_action(
    group: SExpr,
    predicates: dict[str, Predicate],
    types: _TypeOracle,
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
    params = []
    seen_vars: dict[str, str] = {}
    for var, t in typed:
        if var in seen_vars:
            raise _fail(param_nodes, f"duplicate parameter '{var}' in action '{name}'")
        if not types.known(t):
            raise _fail(param_nodes, f"unknown type '{t}' in action '{name}'")
        seen_vars[var] = t
        params.append(Param(var, t))

    precondition: tuple[Literal, ...] = ()
    if ":precondition" in sections:
        precondition = tuple(
            _parse_literals(
                sections[":precondition"],
                predicates,
                seen_vars,
                types,
                allow_negation=True,
                allow_equality=True,
                context="precondition",
            )
        )

    adds, deletes, branches = _parse_effect(
        sections[":effect"], predicates, seen_vars, types
    )
    if not adds and not deletes and not branches:
        raise _fail(group, f"action '{name}' has an empty effect")
    effects: list[EffectBranch] = []
    if adds or deletes:
        effects.append(
            EffectBranch((), tuple(dict.fromkeys(adds)), tuple(dict.fromkeys(deletes)))
        )
    effects.extend(branches)
    for branch in effects:
        _check_branch_consistency(branch, name, group)
    return Action(name, tuple(params), precondition, tuple(effects))


@functools.lru_cache(maxsize=8)
def parse_domain(text: str) -> Domain:
    """Parse a domain; the result is immutable, so repeated texts are
    answered from a small memo instead of being parsed again."""
    tree = _read_tree(tokenize(text))
    group = _expect_group(tree, "a domain definition")
    if _head(group) != "define":
        raise _fail(group, "expected (define (domain ...) ...)")
    nodes = list(group)[1:]
    if not nodes:
        raise _fail(group, "missing (domain NAME)")
    head_group = _expect_group(nodes[0], "(domain NAME)")
    if _head(head_group) != "domain" or len(head_group) != 2:
        raise _fail(head_group, "expected (domain NAME)")
    name = _expect_symbol(head_group[1], "a domain name").text

    requirements: tuple[str, ...] = ()
    types = _TypeOracle(())
    type_pairs: tuple[tuple[str, str], ...] = ()
    predicates: dict[str, Predicate] = {}
    pred_order: list[Predicate] = []
    actions: list[Action] = []
    seen_sections: set[str] = set()

    for node in nodes[1:]:
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
            pairs = _parse_typed_list(list(section)[1:], variables=False, what="a type name")
            seen_types = set()
            for t, _parent in pairs:
                if t in seen_types:
                    raise _fail(section, f"duplicate type '{t}'")
                seen_types.add(t)
            type_pairs = tuple(pairs)
            types = _TypeOracle(type_pairs)
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
                    if not types.known(t):
                        raise _fail(pgroup, f"unknown type '{t}' in predicate '{pname}'")
                pred = Predicate(pname, tuple(Param(v, t) for v, t in typed))
                predicates[pname] = pred
                pred_order.append(pred)
        else:
            action = _parse_action(section, predicates, types)
            if any(a.name == action.name for a in actions):
                raise _fail(section, f"duplicate action '{action.name}'")
            actions.append(action)

    return Domain(name, requirements, type_pairs, tuple(pred_order), tuple(actions))


def parse_problem(text: str, domain: Domain) -> Problem:
    tree = _read_tree(tokenize(text))
    group = _expect_group(tree, "a problem definition")
    if _head(group) != "define":
        raise _fail(group, "expected (define (problem ...) ...)")
    nodes = list(group)[1:]
    if not nodes:
        raise _fail(group, "missing (problem NAME)")
    head_group = _expect_group(nodes[0], "(problem NAME)")
    if _head(head_group) != "problem" or len(head_group) != 2:
        raise _fail(head_group, "expected (problem NAME)")
    name = _expect_symbol(head_group[1], "a problem name").text

    types = _TypeOracle(domain.types)
    predicates = {p.name: p for p in domain.predicates}
    objects: list[tuple[str, str]] = []
    object_type: dict[str, str] = {}
    init: set[Atom] = set()
    goal: tuple[Literal, ...] = ()
    seen_sections: set[str] = set()
    domain_declared = False

    for node in nodes[1:]:
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
            domain_declared = True
        elif key == ":objects":
            for oname, t in _parse_typed_list(
                list(section)[1:], variables=False, what="an object name"
            ):
                if oname in object_type:
                    raise _fail(section, f"duplicate object '{oname}'")
                if not types.known(t):
                    raise _fail(section, f"unknown type '{t}' for object '{oname}'")
                object_type[oname] = t
                objects.append((oname, t))
        elif key == ":init":
            for child in list(section)[1:]:
                agroup = _expect_group(child, "an init atom")
                head = _head(agroup)
                if head == "not":
                    raise _fail(agroup, "negative literals are not allowed in ':init'")
                if head == EQ:
                    raise _fail(agroup, "numeric fluents are not supported")
                lits = _parse_literals(
                    agroup,
                    predicates,
                    object_type,
                    types,
                    allow_negation=False,
                    allow_equality=False,
                    context="init",
                )
                init.add(lits[0].atom)
        else:
            if len(section) != 2:
                raise _fail(section, "expected (:goal EXPR)")
            lits = _parse_literals(
                section[1],
                predicates,
                object_type,
                types,
                allow_negation=True,
                allow_equality=True,
                context="goal",
            )
            if not lits:
                raise _fail(section, "goal must not be empty")
            goal = tuple(lits)

    if ":goal" not in seen_sections:
        raise _fail(group, "problem is missing ':goal'")
    if not domain_declared:
        raise _fail(group, "problem is missing '(:domain ...)'")
    return Problem(name, domain.name, tuple(objects), frozenset(init), goal)
