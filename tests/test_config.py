"""The config walker against jsonschema, the reference implementation of the
JSON Schema keywords CONFIG_SCHEMA uses."""

import copy
import math
import re

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from glasslocal.config import CONFIG_SCHEMA, ConfigError, _walk, resolve_config

# Draft 2020-12 with finite numbers, as the walker checks them.
_TYPES = jsonschema.Draft202012Validator.TYPE_CHECKER
Reference = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=_TYPES.redefine(
        "number", lambda _, v: _TYPES.is_type(v, "number") and math.isfinite(v)
    ),
)
REFERENCE = Reference(CONFIG_SCHEMA)

# The one intended divergence: jsonschema takes 2.0 as an integer.
INTEGRAL_FLOAT = re.compile(r": -?[0-9]+\.0 is not of type 'integer'$")


def _schema_paths(schema, path=()):
    """(path, subschema) for every node, with "2" for a mixture key and 0 for an item."""
    yield path, schema
    for key, sub in schema.get("properties", {}).items():
        yield from _schema_paths(sub, path + (key,))
    for sub in schema.get("patternProperties", {}).values():
        yield from _schema_paths(sub, path + ("2",))
    if "items" in schema:
        yield from _schema_paths(schema["items"], path + (0,))


LEAVES = [(path, leaf) for path, leaf in _schema_paths(CONFIG_SCHEMA) if "default" in leaf]


@pytest.mark.parametrize("path, leaf", LEAVES, ids=["/".join(p) for p, _ in LEAVES])
def test_default_validates_against_its_leaf(path, leaf):
    Reference(leaf).validate(leaf["default"])
    assert _walk(leaf, leaf["default"], path) == leaf["default"]


def test_mixture_replaced_not_merged():
    assert resolve_config({"kind": "thresholds", "mixture": {"3": 1.0}})["mixture"] == {"3": 1.0}


def test_section_without_defaults_stays_absent():
    assert "w2" not in resolve_config({"kind": "w2"})


def test_partial_section_completed_from_defaults():
    cfg = {"kind": "sample", "sampler": {"L": 5}}
    resolved = resolve_config(cfg)
    assert resolved["sampler"]["L"] == 5 and resolved["sampler"]["k_ngd"] == 100
    assert cfg == {"kind": "sample", "sampler": {"L": 5}}  # the input is not mutated


@pytest.mark.parametrize("value", [2.0, True])
def test_integer_key_rejects_non_int(value):
    with pytest.raises(ConfigError, match=f"config field 'sampler/L': {value!r} is not of type"):
        resolve_config({"kind": "sample", "sampler": {"L": value}})


def test_unknown_mixture_key_message():
    with pytest.raises(ConfigError) as err:
        resolve_config({"kind": "se", "mixture": {"x": 1.0}})
    assert str(err.value) == (
        "config field 'mixture': 'x' does not match any of the regexes: '^[0-9]+$'"
    )


# --- valid configs drawn from the schema, then mutated ------------------------


def _valid(schema):
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "boolean":
        return st.booleans()
    if kind == "string":
        return st.text("ab/.", max_size=4)
    if kind == "integer":
        return st.integers(schema.get("minimum", -3), 5)
    if kind == "number":
        lo = schema.get("minimum", schema.get("exclusiveMinimum", -2.0))
        hi = schema.get("maximum", schema.get("exclusiveMaximum", 3.0))
        floats = st.floats(lo, hi, exclude_min="exclusiveMinimum" in schema,
                           exclude_max="exclusiveMaximum" in schema)
        return floats | st.sampled_from([v for v in (0, 1, 2) if Reference(schema).is_valid(v)])
    if kind == "array":
        return st.lists(_valid(schema["items"]), max_size=3)
    if "patternProperties" in schema:
        (sub,) = schema["patternProperties"].values()
        keys = st.from_regex(r"\A[0-9]{1,2}\Z")
        return st.dictionaries(keys, _valid(sub), min_size=1, max_size=3)
    props = {k: _valid(s) for k, s in schema["properties"].items()}
    required = schema.get("required", [])
    return st.fixed_dictionaries(
        {k: props[k] for k in required},
        optional={k: v for k, v in props.items() if k not in required},
    )


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from([0.0, 1.0, 2.0, -0.5, 0.5, 1.5, math.nan, math.inf, -math.inf]),
    st.text("ab2", max_size=3),
    st.lists(st.sampled_from([0.0, 0.5, 2, math.nan]), max_size=2),
    st.dictionaries(st.sampled_from(["2", "x", "L"]), st.integers(-1, 2), max_size=2),
)


def _edges(schema):
    """Values on and next to each bound of a leaf."""
    bounds = [schema[k] for k in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")
              if k in schema]
    return [b + d for b in bounds for d in (-1, -0.5, 0, 0.5)] or [0]


def _schema_at(path):
    schema = CONFIG_SCHEMA
    for key in path:
        if isinstance(key, int):
            schema = schema.get("items", {})
        else:
            patterns = iter(schema.get("patternProperties", {}).values())
            schema = schema.get("properties", {}).get(key) or next(patterns, {})
    return schema


def _nodes(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _nodes(sub, path + (key,))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from _nodes(sub, path + (i,))


@st.composite
def configs(draw):
    cfg = draw(_valid(CONFIG_SCHEMA))
    for _ in range(draw(st.integers(0, 3))):
        nodes = list(_nodes(cfg))[1:]
        if not nodes:
            break
        path = draw(st.sampled_from(nodes))
        *parent, last = path
        node = cfg
        for key in parent:
            node = node[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            near = st.sampled_from(_edges(_schema_at(path)))
            node[last] = draw(near if draw(st.booleans()) else JUNK)
        elif action == "delete" and isinstance(node, dict):
            del node[last]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(["bogus", "x", "9", "threads"]))] = draw(JUNK)
    return cfg


def _where(path):
    return "/".join(str(p) for p in path) or "<root>"


def _check_against_reference(cfg):
    errors = list(REFERENCE.iter_errors(cfg))
    before = copy.deepcopy(cfg)
    try:
        resolved, msg = resolve_config(cfg), None
    except ConfigError as e:
        msg = str(e)
    assert cfg == before  # the input is not mutated
    if msg is None:
        assert errors == []
        REFERENCE.validate(resolved)
        assert resolve_config(resolved) == resolved
    elif not INTEGRAL_FLOAT.search(msg):
        where = re.match(r"config field '(.*?)': ", msg).group(1)
        assert where in {_where(err.absolute_path) for err in errors}, msg
        if len(errors) == 1:
            assert msg == f"config field '{where}': {errors[0].message}"


@given(configs())
@settings(max_examples=400, deadline=None)
def test_walker_decides_as_jsonschema(cfg):
    _check_against_reference(cfg)


PROBES = [None, True, False, -1, 0, 1, 2, -0.5, 0.0, 0.5, 1.0, 1.5, math.nan, math.inf, -math.inf,
          "a", [], [0.5], [2], {}, {"2": 1}, {"x": 1}]


FIELDS = list(_schema_paths(CONFIG_SCHEMA))[1:]


@pytest.mark.parametrize("path, field", FIELDS, ids=[_where(p) for p, _ in FIELDS])
def test_each_field_decides_as_jsonschema(path, field):
    for value in PROBES + _edges(field):
        for key in reversed(path):
            value = [value] if isinstance(key, int) else {key: value}
        _check_against_reference({"kind": "sample"} | value)
