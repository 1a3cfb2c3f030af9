"""Experiment configuration: JSON schema, validation, defaults resolution.

A config is one JSON object with a `kind` naming the subcommand plus the
fields that kind needs.  Unknown keys are rejected everywhere.  The resolved
form (all defaults materialized) is echoed next to every result file so a
run can be reproduced byte-for-byte from its provenance record.
"""

from __future__ import annotations

import copy
import json
import math

import jsonschema

__all__ = ["CONFIG_SCHEMA", "DEFAULTS", "validate_config", "resolve_config"]

KINDS = [
    "gen-disorder",
    "thresholds",
    "se",
    "amp",
    "tap",
    "sample",
    "exact",
    "glauber",
    "w2",
    "chaos",
    "stability",
    "validate",
]

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
        },
        "n": {"type": "integer", "minimum": 1},
        "beta": {"type": "number", "minimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
        "tensor_file": {"type": "string"},
        "sampler": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "delta": {"type": "number", "exclusiveMinimum": 0},
                "L": {"type": "integer", "minimum": 1},
                "k_amp": {"type": "integer", "minimum": 1},
                "k_ngd": {"type": "integer", "minimum": 1},
                "eta": {"type": "number", "exclusiveMinimum": 0},
                "gamma": {"type": "number", "minimum": 0},
                "keep_trajectory": {"type": "boolean"},
                "replicas": {"type": "integer", "minimum": 1},
            },
        },
        "gen": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["random", "planted"]},
                "planted_beta": {"type": "number", "minimum": 0},
            },
        },
        "thresholds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "c0": {"type": "number", "exclusiveMinimum": 0},
                "dyn_ceiling": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "se": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t_max": {"type": "number", "exclusiveMinimum": 0},
                "t_step": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "amp": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "k": {"type": "integer", "minimum": 1},
                "t": {"type": "number", "minimum": 0},
                "planted": {"type": "boolean"},
            },
        },
        "tap": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "q": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "gamma": {"type": "number", "minimum": 0},
                "t": {"type": "number", "minimum": 0},
                "k_amp": {"type": "integer", "minimum": 1},
                "m_source": {"enum": ["amp", "zero"]},
                "spectrum": {"type": "boolean"},
            },
        },
        "exact": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"m_samples": {"type": "integer", "minimum": 1}},
        },
        "glauber": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sweeps": {"type": "integer", "minimum": 1},
                "burn_in": {"type": "integer", "minimum": 0},
                "thin": {"type": "integer", "minimum": 1},
            },
        },
        "w2": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "batch_a": {"type": "string"},
                "batch_b": {"type": "string"},
            },
            "required": ["batch_a", "batch_b"],
        },
        "chaos": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "s_list": {"type": "array", "items": {"type": "number", "minimum": 0, "maximum": 1}},
                "n_seeds": {"type": "integer", "minimum": 1},
                "batch_size": {"type": "integer", "minimum": 1},
            },
        },
        "stability": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "s_list": {"type": "array", "items": {"type": "number", "minimum": 0, "maximum": 1}},
                "n_seeds": {"type": "integer", "minimum": 1},
                "replicas": {"type": "integer", "minimum": 1},
            },
        },
    },
}

DEFAULTS = {
    "mixture": {"2": 0.5},
    "n": 10,
    "beta": 0.3,
    "seed": 0,
    "sampler": {
        "delta": 0.05,
        "L": 400,
        "k_amp": 30,
        "k_ngd": 100,
        "eta": 0.1,
        "gamma": 1.0,
        "keep_trajectory": False,
        "replicas": 1,
    },
    "gen": {"mode": "random", "planted_beta": 0.0},
    "thresholds": {"c0": 0.25, "dyn_ceiling": 3.0},
    "se": {"t_max": 5.0, "t_step": 0.25},
    "amp": {"k": 10, "t": 1.0, "planted": True},
    "tap": {"q": 0.0, "gamma": 1.0, "t": 1.0, "k_amp": 30, "m_source": "amp", "spectrum": True},
    "exact": {"m_samples": 100},
    "glauber": {"sweeps": 1000, "burn_in": 100, "thin": 10},
    "chaos": {"s_list": [0.0, 0.1, 0.3, 1.0], "n_seeds": 5, "batch_size": 200},
    "stability": {"s_list": [0.0, 0.1, 0.3], "n_seeds": 3, "replicas": 4},
}


class ConfigError(ValueError):
    """Schema violation, carrying a pointer to the offending field."""


# Numbers must be finite: json reads NaN and +-Infinity, and NaN passes every
# bound such as `minimum` because comparisons with NaN are false.
_TYPES = jsonschema.Draft202012Validator.TYPE_CHECKER
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=_TYPES.redefine(
        "number", lambda _, v: _TYPES.is_type(v, "number") and math.isfinite(v)
    ),
)


def validate_config(cfg: dict) -> None:
    validator = _Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        where = "/".join(str(p) for p in e.absolute_path) or "<root>"
        raise ConfigError(f"config field '{where}': {e.message}")


def resolve_config(cfg: dict) -> dict:
    """Validate and materialize every default the kind consumes."""
    validate_config(cfg)
    out = copy.deepcopy(cfg)
    for key, val in DEFAULTS.items():
        if isinstance(val, dict):
            merged = copy.deepcopy(val)
            merged.update(out.get(key, {}))
            out[key] = merged
        else:
            out.setdefault(key, copy.deepcopy(val))
    validate_config(out)
    return out


def dump_config(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"
