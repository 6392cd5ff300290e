from __future__ import annotations

import pytest

from planforge.pddl.model import EffectBranch, Literal, Param
from planforge.pddl.parser import ParseError, parse_domain, parse_problem

MINI = """
(define (domain mini)
  (:requirements :strips :typing :negative-preconditions :equality :conditional-effects)
  (:types slot item)
  (:predicates (at ?i - item ?s - slot) (blocked ?s - slot) (moved))
  (:action shift
    :parameters (?i - item ?a ?b - slot)
    :precondition (and (at ?i ?a) (not (blocked ?b)) (not (= ?a ?b)))
    :effect (and (at ?i ?b) (not (at ?i ?a))
                 (when (blocked ?a) (and (moved))))))
"""

MINI_PROBLEM = """
(define (problem mini-1)
  (:domain mini)
  (:objects i1 i2 - item s1 s2 - slot)
  (:init (at i1 s1) (blocked s2))
  (:goal (and (at i1 s2) (not (blocked s1)))))
"""


def test_parse_domain_structure():
    dom = parse_domain(MINI)
    assert dom.name == "mini"
    assert dom.requirements == (
        ":strips", ":typing", ":negative-preconditions", ":equality",
        ":conditional-effects",
    )
    assert dom.types == (("slot", "object"), ("item", "object"))
    assert [p.name for p in dom.predicates] == ["at", "blocked", "moved"]
    assert dom.predicates[0].params == (Param("?i", "item"), Param("?s", "slot"))
    (shift,) = dom.actions
    assert shift.name == "shift"
    assert shift.params == (Param("?i", "item"), Param("?a", "slot"), Param("?b", "slot"))
    assert shift.precondition == (
        Literal(("at", "?i", "?a")),
        Literal(("blocked", "?b"), positive=False),
        Literal(("=", "?a", "?b"), positive=False),
    )
    assert shift.effects == (
        EffectBranch((), (("at", "?i", "?b"),), (("at", "?i", "?a"),)),
        EffectBranch((Literal(("blocked", "?a")),), (("moved",),), ()),
    )


def test_parse_problem_structure(artic3):
    dom = parse_domain(MINI)
    prob = parse_problem(MINI_PROBLEM, dom)
    assert prob.name == "mini-1"
    assert prob.domain == "mini"
    # objects come back sorted by name regardless of declaration order
    assert prob.objects == (("i1", "item"), ("i2", "item"), ("s1", "slot"), ("s2", "slot"))
    assert prob.init == frozenset({("at", "i1", "s1"), ("blocked", "s2")})
    assert prob.goal == (
        Literal(("at", "i1", "s2")),
        Literal(("blocked", "s1"), positive=False),
    )


def test_case_folding_and_comments():
    dom = parse_domain(MINI.upper().replace(";", ";"))
    assert dom.name == "mini"
    text = "(define (domain mini) ; trailing comment\n" + MINI.split("\n", 2)[2]
    assert parse_domain(text).name == "mini"


def test_bundled_domains_parse(artic3, artic3m):
    assert [a.name for a in artic3.actions] == [
        "grasp", "release", "rotate-cw", "rotate-ccw",
    ]
    assert [a.name for a in artic3m.actions] == [
        "grasp", "release", "rotate-cw", "rotate-ccw", "rotate-cw-2", "rotate-ccw-2",
    ]


def _expect(text: str, fragment: str):
    with pytest.raises(ParseError) as err:
        parse_domain(text)
    assert fragment in str(err.value), str(err.value)
    return err.value


def test_reject_unsupported_requirement():
    err = _expect(MINI.replace(":equality", ":fluents"), "unsupported requirement ':fluents'")
    assert err.line is not None and err.col is not None


def test_reject_numeric_durative_constants():
    _expect(MINI.replace("(:types slot item)", "(:functions (cost))"),
            "numeric fluents are not supported")
    _expect(MINI.replace(":action", ":durative-action"),
            "durative actions are not supported")
    _expect(MINI.replace("(:types slot item)", "(:constants c1 - item)"),
            "domain constants are not supported")


def test_reject_quantifiers_and_disjunction():
    _expect(MINI.replace("(at ?i ?a)", "(forall (?x - slot) (at ?i ?x))"),
            "quantifiers are not supported")
    _expect(MINI.replace("(at ?i ?b)", "(forall (?x - slot) (at ?i ?x))"),
            "quantifiers are not supported")
    _expect(MINI.replace("(at ?i ?a)", "(exists (?x - slot) (at ?i ?x))"),
            "quantifiers are not supported")
    _expect(MINI.replace("(and (at ?i ?a)", "(or (at ?i ?a)"),
            "disjunctions are not supported")


def test_reject_schema_misuse():
    _expect(MINI.replace("(at ?i ?a)", "(atx ?i ?a)"), "unknown predicate 'atx'")
    _expect(MINI.replace("(at ?i ?a)", "(at ?i)"), "expects 2 argument(s), got 1")
    _expect(MINI.replace("(at ?i ?a)", "(at ?a ?i)"), "has type 'slot'")
    _expect(MINI.replace("(at ?i ?a)", "(at ?i ?z)"), "undeclared variable '?z'")
    _expect(MINI.replace("(?i - item ?a ?b - slot)", "(?i - item ?i - slot)"),
            "duplicate parameter")
    _expect(MINI.replace("(:types slot item)", "(:types slot slot)"), "duplicate type")


def test_reject_duplicate_declarations():
    dup_pred = MINI.replace("(moved))", "(moved) (moved))")
    _expect(dup_pred, "duplicate predicate 'moved'")
    dup_action = MINI.rstrip()[:-1] + MINI[MINI.index("(:action"):]
    _expect(dup_action, "duplicate action 'shift'")


def test_reject_add_delete_overlap_in_branch():
    text = MINI.replace("(not (at ?i ?a))", "(not (at ?i ?b))")
    err = _expect(text, "both adds and deletes")
    assert "(at ?i ?b)" in str(err)


def test_add_delete_across_branches_is_legal():
    text = MINI.replace("(when (blocked ?a) (and (moved)))",
                        "(when (blocked ?a) (and (at ?i ?a)))")
    dom = parse_domain(text)
    branches = dom.actions[0].effects
    assert ("at", "?i", "?a") in branches[0].deletes
    assert ("at", "?i", "?a") in branches[1].adds


def test_reject_nested_when_and_equality_effect():
    _expect(
        MINI.replace("(when (blocked ?a) (and (moved)))",
                     "(when (blocked ?a) (when (moved) (and (moved))))"),
        "nested 'when' is not supported",
    )
    _expect(MINI.replace("(at ?i ?b)", "(= ?a ?b)"), "equality is not allowed in effect")


def test_reject_malformed_not_and_equality():
    _expect(MINI.replace("(not (blocked ?b))", "(not (and (blocked ?b) (moved)))"),
            "'not' must wrap a single atom")
    _expect(MINI.replace("(not (= ?a ?b))", "(not (= ?a ?b ?i))"),
            "'=' takes exactly two arguments")
    _expect(MINI.replace("(not (at ?i ?a))", "(not (and (at ?i ?a) (moved)))"),
            "line 9, col 29: 'not' must wrap a single atom")
    _expect(MINI.replace("(not (at ?i ?a))", "(not (and))"),
            "line 9, col 29: 'not' must wrap a single atom")


def test_reject_unbalanced_and_trailing():
    with pytest.raises(ParseError) as err:
        parse_domain("(define (domain x)")
    assert "unbalanced" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_domain(MINI + "(extra)")
    assert "trailing input" in str(err.value)


def test_typed_list_markers():
    _expect(MINI.replace("(?i - item ?a ?b - slot)", "(- item)"),
            "type marker '-' without preceding names")
    _expect(MINI.replace("(?i - item ?a ?b - slot)", "(?i -)"),
            "type marker '-' without a type")


def test_problem_rejections():
    dom = parse_domain(MINI)

    def expect(text, fragment):
        with pytest.raises(ParseError) as err:
            parse_problem(text, dom)
        assert fragment in str(err.value), str(err.value)

    expect(MINI_PROBLEM.replace("(:domain mini)", "(:domain other)"),
           "problem is for domain 'other'")
    expect(MINI_PROBLEM.replace("i1 i2 - item", "i1 i1 - item"), "duplicate object 'i1'")
    expect(MINI_PROBLEM.replace("(at i1 s1)", "(not (at i1 s1))"),
           "negative literals are not allowed in ':init'")
    expect(MINI_PROBLEM.replace("(at i1 s1)", "(= (total-cost) 0)"),
           "numeric fluents are not supported")
    expect(MINI_PROBLEM.replace("(at i1 s1)", "(and (at i1 s1) (blocked s1))"),
           "line 5, col 10: conjunctions are not allowed in ':init'")
    expect(MINI_PROBLEM.replace("(at i1 s1)", "(and)"),
           "line 5, col 10: conjunctions are not allowed in ':init'")
    expect(MINI_PROBLEM.replace("(at i1 s1)", "(at i9 s1)"), "undeclared object 'i9'")
    expect(MINI_PROBLEM.replace("(at i1 s1)", "(at s1 i1)"), "has type 'slot'")
    no_goal = MINI_PROBLEM[: MINI_PROBLEM.index("(:goal")].rstrip() + ")"
    expect(no_goal, "missing ':goal'")
    expect(MINI_PROBLEM.replace("(:domain mini)", ""), "missing '(:domain ...)'")


def test_error_positions_point_at_offender():
    bad = MINI.replace("(at ?i ?b)", "(at ?i ?z)")
    with pytest.raises(ParseError) as err:
        parse_domain(bad)
    assert err.value.line is not None
    lines = bad.splitlines()
    assert "?z" in lines[err.value.line - 1]
