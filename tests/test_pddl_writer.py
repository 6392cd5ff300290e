from __future__ import annotations

import dataclasses
import random

from planforge.generate import sample_problem
from planforge.pddl.model import Problem
from planforge.pddl.parser import parse_domain, parse_problem
from planforge.pddl.writer import serialize_problem

SMALL_DOMAIN = """\
(define (domain pantry)
  (:requirements :strips :typing)
  (:types shelf - object jar tin - container)
  (:predicates (on ?c - container ?s - shelf)
               (sealed ?c - container))
  (:action stash
    :parameters (?c - container ?s - shelf)
    :precondition (sealed ?c)
    :effect (and (on ?c ?s))))
"""

SMALL_PROBLEM = """\
(define (problem pantry-0)
  (:domain pantry)
  (:objects
    j1 - jar
    s1 - shelf
    t1 - tin)
  (:init
    (on t1 s1)
    (sealed j1)
    (sealed t1))
  (:goal (and
    (on j1 s1)
    (sealed t1))))
"""


def test_problem_serialization_is_canonical_text():
    dom = parse_domain(SMALL_DOMAIN)
    prob = parse_problem(SMALL_PROBLEM, dom)
    assert serialize_problem(prob) == SMALL_PROBLEM


def test_init_and_object_order_do_not_affect_output():
    dom = parse_domain(SMALL_DOMAIN)
    base = parse_problem(SMALL_PROBLEM, dom)
    rng = random.Random(7)
    for _ in range(20):
        objects = list(base.objects)
        init = list(base.init)
        rng.shuffle(objects)
        rng.shuffle(init)
        shuffled = Problem(base.name, base.domain, tuple(objects), frozenset(init), base.goal)
        assert serialize_problem(shuffled) == serialize_problem(base)


def test_goal_order_is_preserved():
    dom = parse_domain(SMALL_DOMAIN)
    base = parse_problem(SMALL_PROBLEM, dom)
    flipped = dataclasses.replace(base, goal=tuple(reversed(base.goal)))
    text = serialize_problem(flipped)
    assert text.index("(sealed t1)") < text.index("(on j1 s1)")
    assert parse_problem(text, dom).goal == flipped.goal


def test_negative_goal_renders_with_not(micro):
    assert "(not (held))" in serialize_problem(micro)


def test_generated_problems_round_trip(artic3, artic3_config, artic3m, artic3m_config):
    for dom, cfg in ((artic3, artic3_config), (artic3m, artic3m_config)):
        for seed in range(30):
            problem, _ = sample_problem(cfg, dom, random.Random(f"writer:{seed}"))
            text = serialize_problem(problem)
            again = parse_problem(text, dom)
            assert again == problem
            assert serialize_problem(again) == text

