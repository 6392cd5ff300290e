from __future__ import annotations

import copy
import json

import pytest

from planforge.dpgc import (
    ArgRef,
    ConfigError,
    Diagnostic,
    load_config,
    parse_config,
    parse_ground_atom,
    validate_against_domain,
)
from planforge.pddl import parse_domain

BASE = {
    "domain": "artic3",
    "object_pools": [
        {"id": "links", "type": "link", "prefix": "link", "quantity": 3},
        {"id": "angles", "type": "angle", "prefix": "a", "quantity": 4,
         "usage": "sequential"},
    ],
    "constant_init": ["(is-rotatable link1)"],
    "variable_init": [
        {"id": "poses",
         "atoms": [{"predicate": "current-angle", "args": ["links$x", "angles"]}]},
    ],
    "variable_goal": [
        {"id": "targets", "count": 2,
         "atoms": [{"predicate": "current-angle", "args": ["links", "angles"],
                    "probability": 0.5}]},
    ],
    "mutex_groups": [],
}


def variant(**edits):
    data = copy.deepcopy(BASE)
    data.update(edits)
    return json.dumps(data)


def errors_of(text):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    return [str(d) for d in err.value.diagnostics]


def test_parse_base_config():
    cfg = parse_config(json.dumps(BASE))
    assert cfg.domain == "artic3"
    links, angles = cfg.object_pools
    assert links.object_names == ("link1", "link2", "link3")
    assert links.usage == "random"
    assert angles.usage == "sequential"
    assert cfg.constant_init == (("is-rotatable", "link1"),)
    (poses,) = cfg.variable_init
    assert poses.count == 1
    (tpl,) = poses.atoms
    assert tpl.probability == 1.0
    assert tpl.args == (ArgRef("pool", "links", "x", 0), ArgRef("pool", "angles"))
    (targets,) = cfg.variable_goal
    assert targets.count == 2
    assert targets.atoms[0].probability == 0.5


def test_bundled_configs_load_and_check(artic3, artic3_config, artic3m, artic3m_config):
    assert validate_against_domain(artic3_config, artic3) == []
    assert validate_against_domain(artic3m_config, artic3m) == []
    assert artic3_config.domain == "artic3"
    assert {p.id for p in artic3_config.object_pools} == {
        "gripper-pool", "base-pool", "link-pool", "angle-pool",
    }
    (group,) = artic3_config.mutex_groups
    assert group.members == ("grippers-free", "grippers-grasping")
    assert group.weights == (0.5, 0.5)


def test_invalid_json_is_one_diagnostic():
    msgs = errors_of("{not json")
    assert len(msgs) == 1
    assert msgs[0].startswith("config: error: invalid JSON")


def test_schema_rejections():
    assert any("'domain' is a required property" in m
               for m in errors_of(json.dumps({"object_pools": []})))
    assert any("config.object_pools[0]" in m and "quantity" in m
               for m in errors_of(variant(object_pools=[
                   {"id": "links", "type": "link", "prefix": "l", "quantity": 0}])))
    assert any("was unexpected" in m or "Additional properties" in m
               for m in errors_of(variant(extra_section=[])))
    assert any("not one of" in m for m in errors_of(variant(object_pools=[
        {"id": "links", "type": "link", "prefix": "l", "quantity": 1,
         "usage": "round-robin"}])))
    bad_prob = copy.deepcopy(BASE)
    bad_prob["variable_goal"][0]["atoms"][0]["probability"] = 1.5
    assert any("greater than the maximum of 1" in m
               for m in errors_of(json.dumps(bad_prob)))
    no_atoms = copy.deepcopy(BASE)
    no_atoms["variable_init"][0]["atoms"] = []
    assert any("non-empty" in m or "too short" in m
               for m in errors_of(json.dumps(no_atoms)))


def test_duplicate_pool_id():
    msgs = errors_of(variant(object_pools=[
        {"id": "links", "type": "link", "prefix": "l", "quantity": 2},
        {"id": "links", "type": "link", "prefix": "k", "quantity": 2},
    ]))
    assert any("duplicate object pool id 'links'" in m for m in msgs)


def test_cross_pool_name_collision():
    msgs = errors_of(variant(object_pools=[
        {"id": "a-pool", "type": "link", "prefix": "item", "quantity": 2},
        {"id": "b-pool", "type": "angle", "prefix": "item", "quantity": 3},
    ]))
    assert any("both instantiate an object named 'item1'" in m for m in msgs)


def test_tag_errors():
    bad = copy.deepcopy(BASE)
    bad["variable_init"][0]["atoms"][0]["args"] = ["links$", "angles"]
    assert any("malformed tagged reference 'links$'" in m
               for m in errors_of(json.dumps(bad)))

    bad["variable_init"][0]["atoms"][0]["args"] = ["ghost$x", "angles"]
    assert any("unknown object pool 'ghost'" in m for m in errors_of(json.dumps(bad)))

    bad["variable_init"][0]["atoms"][0]["args"] = ["links$x+3", "angles"]
    msgs = errors_of(json.dumps(bad))
    assert any("offset +3 cannot fit in pool 'links' of quantity 3" in m for m in msgs)

    # +2 fits a pool of quantity 3
    bad["variable_init"][0]["atoms"][0]["args"] = ["links$x+2", "angles"]
    cfg = parse_config(json.dumps(bad))
    assert cfg.variable_init[0].atoms[0].args[0].offset == 2


def test_duplicate_predicate_pool_id_across_sections():
    bad = copy.deepcopy(BASE)
    bad["variable_goal"][0]["id"] = "poses"
    msgs = errors_of(json.dumps(bad))
    assert any("duplicate predicate pool id 'poses' (first declared in variable_init)" in m
               for m in msgs)


def test_mutex_group_errors():
    msgs = errors_of(variant(mutex_groups=[
        {"id": "g", "members": ["poses", "ghost"], "weights": [1, 1]}]))
    assert any("unknown predicate pool 'ghost'" in m for m in msgs)

    msgs = errors_of(variant(mutex_groups=[
        {"id": "g1", "members": ["poses", "targets"], "weights": [1, 1]},
        {"id": "g2", "members": ["targets", "poses"], "weights": [1, 1]}]))
    assert any("already in mutex group 'g1'" in m for m in msgs)

    # a single weight is already a schema violation; the semantic count
    # check needs a list that passes the schema minimum
    msgs = errors_of(variant(mutex_groups=[
        {"id": "g", "members": ["poses", "targets"], "weights": [1]}]))
    assert any("too short" in m for m in msgs)

    extra = copy.deepcopy(BASE)
    extra["variable_goal"].append(
        {"id": "more", "atoms": [{"predicate": "held", "args": []}]})
    extra["mutex_groups"] = [
        {"id": "g", "members": ["poses", "targets", "more"], "weights": [1, 1]}]
    msgs = errors_of(json.dumps(extra))
    assert any("3 member(s) but 2 weight(s)" in m for m in msgs)

    msgs = errors_of(variant(mutex_groups=[
        {"id": "g", "members": ["poses", "poses"], "weights": [1, 1]}]))
    assert any("duplicate members" in m for m in msgs)


def test_parse_ground_atom():
    assert parse_ground_atom(" (Next-CW A1 A2) ") == ("next-cw", "a1", "a2")
    assert parse_ground_atom("(held)") == ("held",)
    with pytest.raises(ValueError):
        parse_ground_atom("next-cw a1 a2")


def test_diagnostic_format():
    d = Diagnostic("config.object_pools[0].id", "error", "boom")
    assert str(d) == "config.object_pools[0].id: error: boom"


def test_validate_against_domain_errors(artic3):
    cfg = parse_config(variant(domain="artic3m"))
    msgs = [str(d) for d in validate_against_domain(cfg, artic3)]
    assert any("targets domain 'artic3m'" in m for m in msgs)

    cfg = parse_config(variant(object_pools=[
        {"id": "links", "type": "rope", "prefix": "l", "quantity": 2},
        {"id": "angles", "type": "angle", "prefix": "a", "quantity": 4}]))
    msgs = [str(d) for d in validate_against_domain(cfg, artic3)]
    assert any("unknown type 'rope'" in m for m in msgs)

    bad = copy.deepcopy(BASE)
    bad["constant_init"] = ["(is-rotatable ghost)", "(levitates link1)",
                            "(next-cw link1)"]
    cfg = parse_config(json.dumps(bad))
    msgs = [str(d) for d in validate_against_domain(cfg, artic3)]
    assert any("unknown object 'ghost'" in m for m in msgs)
    assert any("unknown predicate 'levitates'" in m for m in msgs)
    assert any("expects 2 argument(s), got 1" in m for m in msgs)

    bad = copy.deepcopy(BASE)
    bad["variable_init"][0]["atoms"][0]["args"] = ["angles", "angles"]
    cfg = parse_config(json.dumps(bad))
    msgs = [str(d) for d in validate_against_domain(cfg, artic3)]
    assert any("type 'angle' does not satisfy 'link'" in m for m in msgs)


def test_validate_against_domain_warnings(artic3):
    bad = copy.deepcopy(BASE)
    bad["variable_goal"][0]["atoms"][0]["probability"] = 0
    cfg = parse_config(json.dumps(bad))
    diags = validate_against_domain(cfg, artic3)
    assert [d.severity for d in diags] == ["warning"]
    assert "probability 0" in diags[0].message

    unused = copy.deepcopy(BASE)
    unused["object_pools"].append(
        {"id": "spare", "type": "gripper", "prefix": "g", "quantity": 2})
    cfg = parse_config(json.dumps(unused))
    diags = validate_against_domain(cfg, artic3)
    assert any(d.severity == "warning" and "spare" in d.message for d in diags)

    # a pool is "used" when its objects appear as literals
    used = copy.deepcopy(unused)
    used["constant_init"].append("(free g1)")
    cfg = parse_config(json.dumps(used))
    diags = validate_against_domain(cfg, artic3)
    assert not any("spare" in d.message for d in diags)


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(BASE))
    assert load_config(path) == parse_config(json.dumps(BASE))
