"""Experiment configuration: JSON schema, validation, defaults resolution.

A config is one JSON object with a `kind` naming the subcommand plus the
fields that kind needs.  Unknown keys are rejected everywhere.  Each default
is the `"default"` of its field in CONFIG_SCHEMA.  The resolved form (all
defaults materialized) is echoed next to every result file so a run can be
reproduced byte-for-byte from its provenance record.
"""

from __future__ import annotations

import json
import math
import operator
import re

__all__ = ["CONFIG_SCHEMA", "resolve_config"]

KINDS = [
    "gen-disorder", "thresholds", "se", "amp", "tap", "sample",
    "exact", "glauber", "w2", "chaos", "stability",
]

_UNIT = {"type": "number", "minimum": 0, "maximum": 1}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "glasslocal experiment config",
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": KINDS},
        "mixture": {
            "type": "object",
            "patternProperties": {"^[0-9]+$": {"type": "number", "minimum": 0}},
            "additionalProperties": False,
            "minProperties": 1,
            "default": {"2": 0.5},
        },
        "n": {"type": "integer", "minimum": 1, "default": 10},
        "beta": {"type": "number", "minimum": 0, "default": 0.3},
        "seed": {"type": "integer", "minimum": 0, "default": 0},
        "out": {"type": "string"},
        "tensor_file": {"type": "string"},
        "sampler": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "delta": {"type": "number", "exclusiveMinimum": 0, "default": 0.05},
                "L": {"type": "integer", "minimum": 1, "default": 400},
                "k_amp": {"type": "integer", "minimum": 1, "default": 5},
                "k_ngd": {"type": "integer", "minimum": 1, "default": 100},
                "eta": {"type": "number", "exclusiveMinimum": 0, "default": 0.6},
                "gamma": {"type": "number", "minimum": 0, "default": 1.0},
                "keep_trajectory": {"type": "boolean", "default": False},
                "replicas": {"type": "integer", "minimum": 1, "default": 1},
            },
        },
        "gen": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["random", "planted"], "default": "random"},
                "planted_beta": {"type": "number", "minimum": 0, "default": 0.0},
            },
        },
        "se": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t_max": {"type": "number", "exclusiveMinimum": 0, "default": 5.0},
                "t_step": {"type": "number", "exclusiveMinimum": 0, "default": 0.25},
            },
        },
        "amp": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "k": {"type": "integer", "minimum": 1, "default": 10},
                "t": {"type": "number", "minimum": 0, "default": 1.0},
                "planted": {"type": "boolean", "default": True},
            },
        },
        "tap": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "q": {"type": "number", "minimum": 0, "exclusiveMaximum": 1, "default": 0.0},
                "gamma": {"type": "number", "minimum": 0, "default": 1.0},
                "t": {"type": "number", "minimum": 0, "default": 1.0},
                "k_amp": {"type": "integer", "minimum": 1, "default": 30},
                "spectrum": {"type": "boolean", "default": True},
            },
        },
        "exact": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"m_samples": {"type": "integer", "minimum": 1, "default": 100}},
        },
        "glauber": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sweeps": {"type": "integer", "minimum": 1, "default": 1000},
                "burn_in": {"type": "integer", "minimum": 0, "default": 100},
                "thin": {"type": "integer", "minimum": 1, "default": 10},
            },
        },
        "w2": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"batch_a": {"type": "string"}, "batch_b": {"type": "string"}},
            "required": ["batch_a", "batch_b"],
        },
        "chaos": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "s_list": {"type": "array", "items": _UNIT, "default": [0.0, 0.1, 0.3, 1.0]},
                "n_seeds": {"type": "integer", "minimum": 1, "default": 5},
                "batch_size": {"type": "integer", "minimum": 1, "default": 200},
            },
        },
        "stability": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "s_list": {"type": "array", "items": _UNIT, "default": [0.0, 0.1, 0.3]},
                "n_seeds": {"type": "integer", "minimum": 1, "default": 3},
                "replicas": {"type": "integer", "minimum": 1, "default": 4},
            },
        },
    },
}


class ConfigError(ValueError):
    """Schema violation, carrying a pointer to the offending field."""


# JSON types.  Numbers must be finite: json reads NaN and +-Infinity, and NaN
# passes every bound because comparisons with NaN are false.  bool is neither
# an integer nor a number, and an integer is an int, never an integral float.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: _TYPES["integer"](v) or isinstance(v, float) and math.isfinite(v),
}

# keyword -> (violated when, message), with jsonschema's wording
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of"),
}


def _walk(schema: dict, value, path: tuple):
    """Check `value` against the keywords CONFIG_SCHEMA uses; return a copy in
    which each missing property with a `"default"`, or with properties that
    have one, is filled in (so `w2`, which has none, stays absent)."""

    def fail(msg):
        raise ConfigError(f"config field '{'/'.join(map(str, path)) or '<root>'}': {msg}")

    kind = schema.get("type")
    if kind and not _TYPES[kind](value):
        fail(f"{value!r} is not of type {kind!r}")
    if "enum" in schema and value not in schema["enum"]:
        fail(f"{value!r} is not one of {schema['enum']!r}")
    for word, (violated, text) in _BOUNDS.items():
        if word in schema and violated(value, schema[word]):
            fail(f"{value!r} is {text} {schema[word]!r}")
    if kind == "array":
        return [_walk(schema["items"], v, path + (i,)) for i, v in enumerate(value)]
    if kind != "object":
        return value
    props, patterns = schema.get("properties", {}), schema.get("patternProperties", {})
    subs = {k: props.get(k) or next((s for p, s in patterns.items() if re.search(p, k)), None)
            for k in value}
    extras = sorted(k for k, s in subs.items() if s is None)  # every object is closed
    if extras and patterns:
        fail(f"{', '.join(map(repr, extras))} {'does' if len(extras) == 1 else 'do'} not "
             f"match any of the regexes: {', '.join(map(repr, sorted(patterns)))}")
    if extras:
        fail(f"Additional properties are not allowed ({', '.join(map(repr, extras))} "
             f"{'was' if len(extras) == 1 else 'were'} unexpected)")
    for key in schema.get("required", []):
        if key not in value:
            fail(f"{key!r} is a required property")
    if len(value) < schema.get("minProperties", 0):
        fail(f"{value!r} should be non-empty")
    out = {k: _walk(subs[k], value[k], path + (k,)) for k in sorted(value)}
    for key, sub in props.items():
        if key not in out and ("default" in sub or any(
            "default" in s for s in sub.get("properties", {}).values()
        )):
            out[key] = _walk(sub, sub.get("default", {}), path + (key,))
    return out


def resolve_config(cfg: dict) -> dict:
    """Validate and materialize every default the kind consumes.  Beside a
    `tensor_file`, `mixture` gets no default: the file's is the run's."""
    out = _walk(CONFIG_SCHEMA, cfg, ())
    if cfg.get("tensor_file") and "mixture" not in cfg:
        del out["mixture"]
    return out


def dump_config(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"
