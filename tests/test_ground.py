from __future__ import annotations

import dataclasses
import random

import pytest

from conftest import CASCADE, EDGES, EDGES_PROBLEM
from oracle import (
    sim_apply,
    sim_ground_all,
    sim_reachable_by_depth,
    sim_shortest_plan,
    sim_static_filter,
)
from planforge.pddl.ground import (
    GroundingError,
    PreconditionError,
    apply_action,
    apply_effects,
    goal_satisfied,
    ground_action_for,
    iter_applicable_candidates,
    static_predicates,
)
from planforge.pddl.model import Literal
from planforge.pddl.parser import parse_domain, parse_problem

# Micro fixture: 3 links, 4 angles, 2 grippers.
# grasp/release take 2 gripper params: 2^2 = 4 each.
# rotate-cw/rotate-ccw take (?l ?m - link) plus 4 angle params:
# 3^2 * 4^4 = 2304 each.  4 + 4 + 2304 + 2304 = 4616.
MICRO_GROUND_COUNT = 4616

# Static pruning on the micro init keeps grasp/release pairs with distinct
# grippers (2 each) and rotations whose adjacency and next-cw atoms hold:
# (l, m) in {(link2, link3), (link3, link2)}, 4 choices of ?from (next-cw is
# a cycle), 4 of ?mfrom: 2 * 4 * 4 = 32 per rotation schema.
# 2 + 2 + 32 + 32 = 68.
MICRO_CANDIDATE_COUNT = 68


def every_grounding(domain, problem):
    """Every type-consistent instantiation, in the oracle's order, grounded
    by the package."""
    return [ground_action_for(domain, problem, a.name, a.args)
            for a in sim_ground_all(domain, problem)]


def test_candidate_stream_is_ordered_subset(artic3, micro):
    ground = every_grounding(artic3, micro)
    assert len(ground) == MICRO_GROUND_COUNT
    candidates = list(iter_applicable_candidates(artic3, micro))
    assert len(candidates) == MICRO_CANDIDATE_COUNT
    sigs = [g.signature for g in ground]
    positions = [sigs.index(c.signature) for c in candidates]
    assert positions == sorted(positions)
    expected = sim_static_filter(artic3, micro, sim_ground_all(artic3, micro))
    assert [c.signature for c in candidates] == [
        "(" + " ".join((a.name,) + a.args) + ")" for a in expected
    ]


def test_grounding_matches_the_oracle_on_edge_cases():
    domain = parse_domain(EDGES)
    # a constant term, which the parser does not accept in a domain
    loop = domain.actions[0]
    loop = dataclasses.replace(
        loop, precondition=loop.precondition + (Literal(("adj", "?y", "b2")),)
    )
    domain = dataclasses.replace(domain, actions=(loop,) + domain.actions[1:])
    problem = parse_problem(EDGES_PROBLEM.format(goal="(marked b1)"), domain)

    def fields(action):
        return (action.name, action.args, action.precondition, action.effects)

    candidates = list(iter_applicable_candidates(domain, problem))
    expected = sim_static_filter(domain, problem, sim_ground_all(domain, problem))
    assert [fields(c) for c in candidates] == [fields(a) for a in expected]
    assert [c.signature for c in candidates] == [
        "(loop b1 b2)", "(loop b1 h1)", "(loop b2 b1)", "(loop h1 b2)",
        "(move-heavy h1 p2 p3)", "(move-heavy h2 p2 p3)",
    ]


# Static literals at each place the grounder's join touches: a literal
# that names its new parameter twice ((adj ?y ?y) in twice, tested before the
# joined (adj ?x ?y)), a joined literal whose new parameter comes first
# ((adj ?y ?x) in chain), negative static literals, = between parameters,
# 0-ary statics that hold ((ready)) and fail ((open)), and a type whose pool
# is empty (ghost).  anchor gains a constant below.
JOINS = """
(define (domain joins)
  (:requirements :strips :typing :negative-preconditions :equality)
  (:types block place ghost - object heavy - block)
  (:predicates (adj ?a - object ?b - object) (link ?a - object ?b - object ?c - object)
               (ready) (open) (marked ?b - object) (haunts ?g - ghost))
  (:action twice
    :parameters (?x - block ?y - block)
    :precondition (and (ready) (adj ?y ?y) (adj ?x ?y) (not (adj ?y ?x)) (not (marked ?y)))
    :effect (and (marked ?x)))
  (:action chain
    :parameters (?x - object ?y - block ?z - place)
    :precondition (and (not (open)) (adj ?y ?x) (link ?x ?y ?z) (not (= ?x ?y)))
    :effect (and (marked ?y) (not (marked ?x))))
  (:action same
    :parameters (?x - block ?y - block)
    :precondition (and (= ?x ?y) (adj ?x ?y))
    :effect (and (marked ?x)))
  (:action closed
    :parameters (?x - block)
    :precondition (and (open) (adj ?x ?x))
    :effect (and (marked ?x)))
  (:action spook
    :parameters (?x - block ?g - ghost)
    :precondition (and (adj ?x ?x) (haunts ?g))
    :effect (and (marked ?x)))
  (:action anchor
    :parameters (?x - block ?y - place)
    :precondition (and (adj ?x ?x))
    :effect (and (marked ?y))))
"""

# Every object of the joins problem; the init atoms over them include ones
# that name objects outside a parameter's pool (a place where a block is
# wanted, say).
JOINS_OBJECTS = ("b1", "b2", "b3", "h1", "p1", "p2", "p3")


def joins_domain():
    """JOINS, with anchor's precondition replaced: a joined literal with a
    constant ahead of the new parameter, and a negative one with a constant
    (the parser does not accept constants in a domain)."""
    domain = parse_domain(JOINS)
    anchor = dataclasses.replace(domain.actions[-1], precondition=(
        Literal(("link", "p1", "?x", "?y")), Literal(("adj", "?y", "p2"), False)))
    return dataclasses.replace(domain, actions=domain.actions[:-1] + (anchor,))


def joins_problem(domain, atoms):
    init = " ".join("(" + " ".join(atom) + ")" for atom in atoms)
    return parse_problem(
        "(define (problem j) (:domain joins)"
        " (:objects b1 b2 b3 - block h1 - heavy p1 p2 p3 - place)"
        f" (:init {init}) (:goal (marked b1)))", domain)


def fields(action):
    return (action.name, action.args, action.precondition, action.effects)


def test_grounding_matches_the_oracle_where_the_join_applies():
    domain = joins_domain()
    problem = joins_problem(domain, [
        ("ready",), ("adj", "b1", "b1"), ("adj", "b2", "b2"), ("adj", "h1", "h1"),
        ("adj", "b1", "b2"), ("adj", "b2", "b1"), ("adj", "b3", "b2"), ("adj", "h1", "b2"),
        ("adj", "b1", "p1"), ("adj", "p1", "b1"), ("adj", "p2", "b2"), ("adj", "p2", "p2"),
        ("link", "p1", "b1", "p2"), ("link", "p1", "b1", "b2"), ("link", "p1", "h1", "p3"),
        ("link", "p1", "h1", "p2"), ("link", "p2", "b2", "p1"), ("link", "b1", "b2", "p3"),
        ("marked", "b2"),
    ])
    candidates = list(iter_applicable_candidates(domain, problem))
    expected = sim_static_filter(domain, problem, sim_ground_all(domain, problem))
    assert [fields(c) for c in candidates] == [fields(a) for a in expected]
    assert [c.signature for c in candidates] == [
        "(twice b3 b2)", "(twice h1 b2)",
        "(chain b1 b2 p3)", "(chain p1 b1 p2)",
        "(same b1 b1)", "(same b2 b2)", "(same h1 h1)",
        "(anchor h1 p3)",
    ]


def test_grounding_matches_the_oracle_on_random_initial_states():
    domain = joins_domain()
    every = [("ready",), ("open",)]
    every += [("adj", a, b) for a in JOINS_OBJECTS for b in JOINS_OBJECTS]
    every += [("link", a, b, c) for a in JOINS_OBJECTS for b in JOINS_OBJECTS
              for c in JOINS_OBJECTS]
    rng = random.Random("joins")
    sizes = []
    for _ in range(40):
        share = rng.choice((0.1, 0.3, 0.6))
        problem = joins_problem(domain, [a for a in every if rng.random() < share])
        candidates = list(iter_applicable_candidates(domain, problem))
        expected = sim_static_filter(domain, problem, sim_ground_all(domain, problem))
        assert [fields(c) for c in candidates] == [fields(a) for a in expected]
        sizes.append(len(candidates))
    assert min(sizes) < 10 < max(sizes)


def test_static_predicates(artic3):
    assert static_predicates(artic3) == frozenset(
        {"adjacent", "downstream", "is-rotatable", "next-cw"}
    )


def test_apply_matches_simulation_on_random_walks(artic3, micro):
    candidates = list(iter_applicable_candidates(artic3, micro))
    by_sig = {c.signature: c for c in candidates}
    rng = random.Random("walks")
    for _ in range(200):
        state = micro.init
        for _ in range(6):
            sig = rng.choice(sorted(by_sig))
            action = by_sig[sig]
            expected = sim_apply(state, action)
            if expected is None:
                with pytest.raises(PreconditionError):
                    apply_action(state, action)
            else:
                state = apply_action(state, action)
                assert state == expected


def test_transition_map_matches_simulation(artic3, micro):
    layers, transitions = sim_reachable_by_depth(artic3, micro, 2)
    candidates = list(iter_applicable_candidates(artic3, micro))
    for state in layers[0] | layers[1]:
        for action in candidates:
            key = (state, (action.name,) + action.args)
            expected = transitions.get(key)
            if expected is None:
                assert sim_apply(state, action) is None
            else:
                assert apply_action(state, action) == expected


def cascade_setup(init_atoms):
    dom = parse_domain(CASCADE)
    atoms = " ".join(f"({a})" for a in init_atoms)
    prob = parse_problem(
        f"(define (problem c) (:domain cascade) (:objects) (:init {atoms}) (:goal (and (s))))",
        dom,
    )
    (action,) = every_grounding(dom, prob)
    return dom, prob, action


def test_branch_conditions_read_the_pre_state():
    # (p) is deleted unconditionally, yet the branch guarded on (p) fires
    # because conditions are evaluated before any effect lands.
    _, prob, action = cascade_setup(["p"])
    after = apply_action(prob.init, action)
    assert after == frozenset({("r",)})


def test_deletes_collected_before_adds_across_branches():
    # one branch deletes (p), another adds it back: add wins
    _, prob, action = cascade_setup(["p", "q"])
    after = apply_action(prob.init, action)
    assert after == frozenset({("p",), ("q",), ("r",)})
    assert after == sim_apply(prob.init, action)


def test_effects_do_not_chain_within_one_step():
    # (r) is added this step, but the branch guarded on (r) saw the pre-state
    _, prob, action = cascade_setup(["p"])
    after = apply_action(prob.init, action)
    assert ("s",) not in after
    assert after == sim_apply(prob.init, action)


def test_apply_effects_skips_the_precondition_gate():
    _, prob, action = cascade_setup(["q"])
    with pytest.raises(PreconditionError):
        apply_action(prob.init, action)
    assert apply_effects(prob.init, action) == frozenset({("p",), ("q",)})


def test_precondition_error_reports_first_failed_literal(artic3, micro):
    release = ground_action_for(artic3, micro, "release", ("gripper1", "gripper2"))
    with pytest.raises(PreconditionError) as err:
        apply_action(micro.init, release)
    assert err.value.literal == release.precondition[0]
    assert err.value.literal.atom == ("grasping", "gripper1")
    assert "(grasping gripper1)" in str(err.value)


def test_ground_action_for_failure_kinds(artic3, micro):
    with pytest.raises(GroundingError) as err:
        ground_action_for(artic3, micro, "teleport", ("link1",))
    assert err.value.kind == "unknown_action"
    with pytest.raises(GroundingError) as err:
        ground_action_for(artic3, micro, "grasp", ("gripper1",))
    assert err.value.kind == "bad_arity"
    with pytest.raises(GroundingError) as err:
        ground_action_for(artic3, micro, "grasp", ("gripper1", "link1"))
    assert err.value.kind == "type_error"
    with pytest.raises(GroundingError) as err:
        ground_action_for(artic3, micro, "grasp", ("gripper1", "ghost"))
    assert err.value.kind == "type_error"


def test_goal_satisfied_handles_negative_goals(artic3, micro):
    assert not goal_satisfied(micro.init, micro.goal)
    plan = sim_shortest_plan(artic3, micro)
    state = micro.init
    for step in plan:
        state = apply_action(state, ground_action_for(artic3, micro, step[0], step[1:]))
    assert goal_satisfied(state, micro.goal)


def test_downstream_drag_propagates_only_downstream(artic3, micro):
    ground = {g.signature: g for g in iter_applicable_candidates(artic3, micro)}
    grasped = apply_action(micro.init, ground["(grasp gripper1 gripper2)"])

    # rotating link2 drags link3 (downstream of link2)
    mid = apply_action(grasped, ground["(rotate-cw link2 link3 a0 a90 a90 a180)"])
    assert ("current-angle", "link2", "a90") in mid
    assert ("current-angle", "link3", "a180") in mid

    # rotating link3 leaves link2 alone
    tip = apply_action(mid, ground["(rotate-cw link3 link2 a180 a270 a90 a180)"])
    assert ("current-angle", "link3", "a270") in tip
    assert ("current-angle", "link2", "a90") in tip
