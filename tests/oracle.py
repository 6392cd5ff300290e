"""Independent reference implementations used to cross-check the package.

Everything here except ``literal_bfs`` is written from the semantics
directly, on plain dicts, sets and loops, sharing no transition or
statistics code with the package.  It consumes parsed model objects only as
passive data.
"""

from __future__ import annotations

from collections import deque
from itertools import product


def _bind(atom, subst):
    return tuple(subst.get(t, t) for t in atom)


def _literal_true(state, atom, positive):
    if atom[0] == "=":
        same = atom[1] == atom[2]
        return same if positive else not same
    if positive:
        return atom in state
    return atom not in state


def sim_applicable(state, action):
    """Precondition check; returns the index of the first failed literal or
    None when all hold."""
    for i, lit in enumerate(action.precondition):
        if not _literal_true(state, lit.atom, lit.positive):
            return i
    return None


def sim_apply(state, action):
    """Successor state, or None when the precondition fails.

    Branch conditions are read off the original state.  Deletions from all
    firing branches are collected first, then additions go on top.
    """
    if sim_applicable(state, action) is not None:
        return None
    removed = set()
    added = set()
    for branch in action.effects:
        fires = True
        for lit in branch.condition:
            if not _literal_true(state, lit.atom, lit.positive):
                fires = False
                break
        if fires:
            for atom in branch.deletes:
                removed.add(atom)
            for atom in branch.adds:
                added.add(atom)
    new_state = set(state)
    for atom in removed:
        new_state.discard(atom)
    for atom in added:
        new_state.add(atom)
    return frozenset(new_state)


def sim_ground(domain, problem, name, args):
    """Ground one step by hand; returns (ground_action, None) or
    (None, failure_kind)."""
    schema = None
    for act in domain.actions:
        if act.name == name:
            schema = act
            break
    if schema is None:
        return None, "unknown_action"
    if len(args) != len(schema.params):
        return None, "bad_arity"
    types = {}
    for obj, t in problem.objects:
        types[obj] = t
    parents = dict(domain.types)

    def is_sub(t, anc):
        while True:
            if anc == "object" or t == anc:
                return True
            if t not in parents:
                return False
            t = parents[t]

    for value, param in zip(args, schema.params):
        if value not in types:
            return None, "type_error"
        if not is_sub(types[value], param.type):
            return None, "type_error"
    subst = {}
    for param, value in zip(schema.params, args):
        subst[param.name] = value

    class _G:
        pass

    g = _G()
    g.name = name
    g.args = tuple(args)
    g.precondition = tuple(
        type(l)(_bind(l.atom, subst), l.positive) for l in schema.precondition
    )
    g.effects = tuple(
        type(b)(
            tuple(type(l)(_bind(l.atom, subst), l.positive) for l in b.condition),
            tuple(_bind(a, subst) for a in b.adds),
            tuple(_bind(a, subst) for a in b.deletes),
        )
        for b in schema.effects
    )
    return g, None


def sim_validate(domain, problem, steps):
    """Full plan verdict: (valid, failure_kind, failure_step)."""
    state = frozenset(problem.init)
    for i, step in enumerate(steps):
        action, kind = sim_ground(domain, problem, step[0], tuple(step[1:]))
        if action is None:
            return False, kind, i
        nxt = sim_apply(state, action)
        if nxt is None:
            return False, "precondition_failed", i
        state = nxt
    for lit in problem.goal:
        if not _literal_true(state, lit.atom, lit.positive):
            return False, "goal_unreached", None
    return True, None, None


def sim_ground_all(domain, problem):
    """Every type-consistent instantiation, in the same documented order:
    schema declaration order, then lexicographic argument tuples."""
    parents = dict(domain.types)

    def is_sub(t, anc):
        while True:
            if anc == "object" or t == anc:
                return True
            if t not in parents:
                return False
            t = parents[t]

    out = []
    for schema in domain.actions:
        pools = []
        for param in schema.params:
            names = sorted(o for o, t in problem.objects if is_sub(t, param.type))
            pools.append(names)
        for combo in product(*pools):
            action, kind = sim_ground(domain, problem, schema.name, combo)
            assert kind is None
            out.append(action)
    return out


def sim_goal_holds(state, goal):
    for lit in goal:
        if not _literal_true(state, lit.atom, lit.positive):
            return False
    return True


def sim_shortest_plan(domain, problem, limit=200000):
    """Plain breadth-first search; returns a shortest plan as a list of
    steps, or None when the reachable space holds no goal state."""
    actions = sim_ground_all(domain, problem)
    start = frozenset(problem.init)
    if sim_goal_holds(start, problem.goal):
        return []
    back = {start: None}
    frontier = deque([start])
    seen = 0
    while frontier:
        state = frontier.popleft()
        seen += 1
        assert seen <= limit, "oracle search limit hit"
        for action in actions:
            nxt = sim_apply(state, action)
            if nxt is None or nxt in back:
                continue
            back[nxt] = (state, action)
            if sim_goal_holds(nxt, problem.goal):
                plan = []
                cur = nxt
                while back[cur] is not None:
                    prev, act = back[cur]
                    plan.append((act.name,) + act.args)
                    cur = prev
                plan.reverse()
                return plan
            frontier.append(nxt)
    return None


def literal_bfs(domain, problem):
    """The package's breadth-first search before it compiled its candidates:
    ``iter_applicable_candidates`` in order, each precondition tested literal
    by literal against every expanded state and applied with
    ``apply_effects``.  It pins ``reference_plan``'s tie-breaking: both must
    return the same plan, or None."""
    from planforge.pddl.ground import (
        apply_effects,
        first_failure,
        goal_satisfied,
        iter_applicable_candidates,
    )
    from planforge.pddl.model import GroundAction

    candidates = [GroundAction(schema, args)
                  for schema, args in iter_applicable_candidates(domain, problem)]
    start = problem.init
    if goal_satisfied(start, problem.goal):
        return []
    visited = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for action in candidates:
            if first_failure(state, action.precondition) is not None:
                continue
            successor = apply_effects(state, action)
            if successor in visited:
                continue
            visited[successor] = (state, action)
            if goal_satisfied(successor, problem.goal):
                steps = []
                cursor = successor
                while visited[cursor] is not None:
                    prev, act = visited[cursor]
                    steps.append((act.name,) + act.args)
                    cursor = prev
                steps.reverse()
                return steps
            queue.append(successor)
    return None


def sim_reachable_count(domain, problem):
    """The number of states reachable from the initial state."""
    actions = sim_ground_all(domain, problem)
    start = frozenset(problem.init)
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for action in actions:
            nxt = sim_apply(state, action)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def sim_reachable_by_depth(domain, problem, depth):
    """States reachable in exactly 0..depth steps plus the transition map
    {(state, action signature): successor}."""
    actions = sim_ground_all(domain, problem)
    layers = [frozenset([frozenset(problem.init)])]
    transitions = {}
    for _ in range(depth):
        nxt_layer = set()
        for state in layers[-1]:
            for action in actions:
                nxt = sim_apply(state, action)
                if nxt is None:
                    continue
                key = (state, (action.name,) + action.args)
                transitions[key] = nxt
                nxt_layer.add(nxt)
        layers.append(frozenset(nxt_layer))
    return layers, transitions


def sim_static_filter(domain, problem, actions):
    """Drop instantiations whose never-changing precondition atoms are false
    in the initial state; such actions can apply in no reachable state."""
    changed = set()
    for schema in domain.actions:
        for branch in schema.effects:
            for atom in branch.adds:
                changed.add(atom[0])
            for atom in branch.deletes:
                changed.add(atom[0])
    init = frozenset(problem.init)
    keep = []
    for action in actions:
        ok = True
        for lit in action.precondition:
            if lit.atom[0] == "=" or lit.atom[0] not in changed:
                if not _literal_true(init, lit.atom, lit.positive):
                    ok = False
                    break
        if ok:
            keep.append(action)
    return keep


def sim_applicable_sequences(domain, problem, depth):
    """Every applicable action sequence of length <= depth, depth-first."""
    actions = sim_ground_all(domain, problem)
    usable = sim_static_filter(domain, problem, actions)
    out = []

    def walk(state, prefix):
        if len(prefix) == depth:
            return
        for action in usable:
            nxt = sim_apply(state, action)
            if nxt is None:
                continue
            seq = prefix + [(action.name,) + action.args]
            out.append(list(seq))
            walk(nxt, seq)

    walk(frozenset(problem.init), [])
    return out


def sim_mean(values):
    return sum(values) / len(values)


def sim_median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n % 2 == 1:
        return float(ordered[n // 2])
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0


def sim_pstdev(values):
    mu = sim_mean(values)
    return (sum((v - mu) ** 2 for v in values) / len(values)) ** 0.5
