"""parse_config_dict never raises: it returns a config or a list of violations."""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epifront.config import RunConfig, parse_config_dict

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))}

JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)
WRONG_TYPES = ("1.0", None, True, [], [1.0], {}, {"x": 1}, math.nan, -math.inf, 10**400, -1, 0, 2.5)


def _key_paths(node, prefix=()):
    """Every key path into nested dicts, the block keys included."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield prefix + (key,)
            yield from _key_paths(child, prefix + (key,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def assert_contract(data):
    cfg, issues = parse_config_dict(data)
    assert isinstance(issues, list) and all(isinstance(msg, str) for msg in issues)
    if cfg is None:
        assert issues
    else:
        assert isinstance(cfg, RunConfig) and issues == []


@st.composite
def mutated_configs(draw):
    data = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_key_paths(data))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = _at(data, path[:-1])
        if not isinstance(parent, dict):  # an earlier mutation replaced the block
            continue
        action = draw(st.sampled_from(("replace", "delete", "add")))
        if action == "replace":
            parent[path[-1]] = draw(JSON_VALUES)
        elif action == "delete":
            del parent[path[-1]]
        else:
            parent[draw(st.text(max_size=8))] = draw(JSON_VALUES)
    return data


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(mutated_configs(), JSON_VALUES))
def test_parse_config_dict_never_raises(data):
    assert_contract(data)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_every_field_survives_every_wrong_type(name):
    for path in _key_paths(SHIPPED[name]):
        for value in WRONG_TYPES:
            data = copy.deepcopy(SHIPPED[name])
            _at(data, path[:-1])[path[-1]] = value
            assert_contract(data)
