"""The config language: a config file's strict JSON, the JSON Schema subset
that it is checked in, and the schema blocks that `cli`'s tables share.

`cli._validate` checks a whole config, blocks included, in one pass against
one closed schema of `cli.SCHEMAS`: its command's, or the one of the
``system`` (simulate, convergence) or ``study`` (verify) that it names.  A key
that this variant does not read is rejected.  `_schema_error` checks the
subset itself, with JSON Schema's messages.
"""
from __future__ import annotations

import json
import math

from .errors import ConfigError
from .simulate import STEPPERS


def _object(props, required=()):
    """A closed config object: a key it does not list is an error."""
    return {"type": "object", "properties": props, "required": list(required),
            "additionalProperties": False}


def _without(obj, name):
    return _object({key: value for key, value in obj["properties"].items() if key != name},
                   [key for key in obj["required"] if key != name])


def _kind(kind, props, required=()):
    return _object({"kind": {"const": kind}, **props}, ["kind", *required])


NUM = {"type": "number"}
POS_NUM = {"type": "number", "exclusiveMinimum": 0}
SIGN = {"type": "integer", "enum": [-1, 1]}
NUM_LIST = {"type": "array", "items": NUM, "minItems": 1}
AXIS = _object({"min": NUM, "max": NUM, "n": {"type": "integer", "minimum": 2}},
               ["min", "max", "n"])
SPAN = _object({"min": NUM, "max": NUM}, ["min", "max"])
BOOL = {"type": "boolean"}

PROFILE = {
    "oneOf": [
        _kind("linear", {"k": NUM}, ["k"]),
        _kind("sine", {"amp": NUM, "freq": NUM, "offset": NUM}, ["amp", "freq"]),
        _kind("poly", {"coeffs": NUM_LIST}, ["coeffs"]),
        _kind("const", {"c": NUM}, ["c"]),
    ]
}
MODULUS = {
    "oneOf": [
        _kind("mooney_rivlin", {"mu": POS_NUM, "rho": POS_NUM}, ["mu"]),
        _kind("cubic", {"mu0": NUM, "mu1": NUM, "rho": POS_NUM}, ["mu0", "mu1"]),
        _kind("power", {"mu": POS_NUM, "n": NUM, "rho": POS_NUM}, ["mu", "n"]),
        _kind("poly", {"coeffs": NUM_LIST, "rho": POS_NUM}, ["coeffs"]),
    ]
}
FLUX = {
    "oneOf": [
        _kind("product", {}),
        _kind("ratio", {}),
        _kind("poly", {"coeffs": {"type": "array", "items": NUM_LIST, "minItems": 1}}, ["coeffs"]),
        _kind("sum_squares", {"scale": NUM}),
        _kind("modulus", {"modulus": MODULUS}, ["modulus"]),
    ]
}
BOUNDARY = {"enum": ["periodic", "outflow"]}
GRID = _object({"n": {"type": "integer", "minimum": 8}, "a": NUM, "b": NUM, "boundary": BOUNDARY},
               ["n", "a", "b"])
RUN = _object({"end": {"type": "number", "minimum": 0},
               "scheme": {"enum": list(STEPPERS)},
               "cfl": {"type": "number", "exclusiveMinimum": 0, "maximum": 0.9},
               "snapshot_stride": {"type": "integer", "minimum": 0},
               "blowup_factor": {"type": "number", "exclusiveMinimum": 1}}, ["end"])
# a convergence study compares final states alone, each on the grid of its level's n
CONVERGENCE_RUN, CONVERGENCE_GRID = _without(RUN, "snapshot_stride"), _without(GRID, "n")
PAIR = {"type": "array", "items": NUM, "minItems": 2, "maxItems": 2}

WITH_MODULUS, WITH_BETA = {"modulus": MODULUS}, {"beta": NUM}


def _reject_constant(literal: str):
    # Python's json reads NaN, Infinity and -Infinity, which JSON does not
    # have; the schema's "number" would then let them through to the solvers
    raise ConfigError(f"config is not valid JSON: {literal} is not a JSON number")


def _finite(literal: str) -> str:
    # json reads a numeral out of a double's range as inf, or as an int no
    # double holds; either would reach the solvers
    if not math.isfinite(float(literal)):
        raise ConfigError(f"config is not valid JSON: {literal} overflows a double")
    return literal


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            config = json.load(f, parse_constant=_reject_constant,
                               parse_float=lambda s: float(_finite(s)),
                               parse_int=lambda s: int(_finite(s)))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:  # a directory, or a file this process may not read
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    except RecursionError:
        raise ConfigError("config is not valid JSON: nested too deeply")
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


# JSON Schema's types, but 2.0 is no integer: numpy takes Python ints only
_TYPES = {"object": dict, "array": list, "boolean": bool, "number": (int, float), "integer": int}


def _is(value, name: str) -> bool:
    return isinstance(value, _TYPES[name]) and (name == "boolean" or not isinstance(value, bool))


def _equal(value, scalar) -> bool:  # JSON Schema's: true is not 1, but 1 is 1.0
    return value == scalar and isinstance(value, bool) == isinstance(scalar, bool)


def _extras(value: dict, schema: dict, path: tuple):
    extras = sorted((key for key in value if key not in schema.get("properties", ())), key=str)
    return extras and (path, "Additional properties are not allowed (%s %s unexpected)" % (
        ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"))


def _first(errors):
    return next(filter(None, errors), None)


# keyword -> (value, rule, schema, path) -> the rule's first (path, message), or falsy
_KEYWORDS = {
    "type": lambda v, r, s, p: not _is(v, r) and (p, f"{v!r} is not of type {r!r}"),
    "properties": lambda v, r, s, p: _is(v, "object") and _first(
        _schema_error(v[name], r[name], (*p, name)) for name in r if name in v),
    "required": lambda v, r, s, p: _is(v, "object") and _first(
        (p, f"{name!r} is a required property") for name in r if name not in v),
    "additionalProperties": lambda v, r, s, p: _is(v, "object") and _extras(v, s, p),
    "const": lambda v, r, s, p: not _equal(v, r) and (p, f"{r!r} was expected"),
    "enum": lambda v, r, s, p: not any(_equal(v, e) for e in r)
    and (p, f"{v!r} is not one of {r!r}"),
    "oneOf": lambda v, r, s, p: all(_schema_error(v, branch) for branch in r)
    and (p, f"{v!r} is not valid under any of the given schemas"),
    "items": lambda v, r, s, p: _is(v, "array") and _first(
        _schema_error(item, r, (*p, i)) for i, item in enumerate(v)),
    "minItems": lambda v, r, s, p: _is(v, "array") and len(v) < r
    and (p, f"{v!r} {'should be non-empty' if r == 1 else 'is too short'}"),
    "maxItems": lambda v, r, s, p: _is(v, "array") and len(v) > r
    and (p, f"{v!r} {'is expected to be empty' if r == 0 else 'is too long'}"),
    "minimum": lambda v, r, s, p: _is(v, "number") and v < r
    and (p, f"{v!r} is less than the minimum of {r!r}"),
    "exclusiveMinimum": lambda v, r, s, p: _is(v, "number") and v <= r
    and (p, f"{v!r} is less than or equal to the minimum of {r!r}"),
    "maximum": lambda v, r, s, p: _is(v, "number") and v > r
    and (p, f"{v!r} is greater than the maximum of {r!r}"),
}


def _schema_error(value, schema: dict, path: tuple = ()):
    """The first ``(path, message)`` by which ``value`` breaks ``schema``, or None: the
    `_KEYWORDS` in the schema's order, with jsonschema 4.26's messages (any other keyword
    raises KeyError).  Each ``oneOf`` branch is a ``_kind`` of its own kind: one at most matches."""
    return _first(_KEYWORDS[key](value, rule, schema, path) for key, rule in schema.items())


def _block_error(value, schema: dict, path: tuple = ()):
    """``_schema_error``, but a block that no ``oneOf`` branch takes gets its own kind's error."""
    error = _schema_error(value, schema, path)
    if error:
        for key in error[0][len(path):]:
            value = value[key]
            schema = schema["items"] if isinstance(key, int) else schema["properties"][key]
        kind = value.get("kind") if isinstance(value, dict) else None
        for branch in schema.get("oneOf", ()):
            if _equal(kind, branch["properties"]["kind"]["const"]):
                return _block_error(value, branch, error[0])
    return error
