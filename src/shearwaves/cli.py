"""Command-line entry point: JSON config in, CSV/JSON artifacts out.

Subcommands: simulate, exact, classify, hodograph, verify, convergence.
Every run validates its config against a closed schema, in a JSON Schema
subset that this module checks itself with JSON Schema's messages (unknown
keys are rejected), computes, and writes a deterministic artifact set into the
output directory: a ``manifest.json`` that echoes the config and records
diagnostics, plus ``snapshots.csv`` / ``samples.csv`` / ``report.json``
depending on the command.  A CSV is one header line, then comma-separated rows
with CRLF line ends; every value is printed with ``%.17g`` (so ``float()`` gives
back the exact double), and the special values as ``nan``, ``inf``, ``-inf``, ``-0``.
The rows are the sample mesh in row-major order, first column slowest.  The
mesh axes come as broadcast views, and the writer formats such a column once
per distinct value, not once per row; the bytes are the same either way.  The
writer runs in this process alone.  It builds each block of rows as one numpy
byte matrix: a zero or a value of magnitude in [1e-4, 1e16) gets its exact
``%.17g`` digits from integer arithmetic, and any other value (NaN, the
infinities, tiny or huge magnitudes) is formatted with ``%``.  A JSON artifact
writes a non-finite number (a NaN residual, an infinite fitted order) as
``null``.

Every command goes through ``run``, whose docstring gives the exit codes:
0 success, 1 a target missed, 2 a config error, 3 a solver failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .constitutive import flux_from_config, modulus_from_config
from .errors import ConfigError, NeitherOrientationDecays, ShearWaveError
from .exact import (
    CarrollWave,
    FullState,
    HodographData,
    StrainState,
    carroll_full_state,
    eval_overdetermined,
    eval_separable,
    generalized_carroll_full_state,
    sample_hodograph,
    sample_simple_wave,
    strain_to_polar,
)
from .analysis import classify
from .profiles import profile_from_config
from .simulate import (STEPPERS, Grid1D, SimulationConfig, evolve_asymptotic, evolve_full,
                       evolve_scalar)
from .verify import (
    AngleSquaredControl,
    ConservationSpec,
    FieldSample,
    PerturbedRadialControl,
    SymmetrySpec,
    commutator_residual,
    conservation_residual,
    convergence_study,
    linearized_symmetry_residual,
    residual_asymptotic,
    residual_full,
)

COMMANDS = ("simulate", "exact", "classify", "hodograph", "verify", "convergence")
# about this many rows per CSV block: whole outer rows of a mesh, or one outer
# row's share of a longer inner axis.  One block at a time bounds the writer's
# memory.  At 2048 rows the allocator handed each block's temporaries back to
# the system, and the next block page-faulted them in again (330-430 minor
# faults a block on the benchmark's artifact_write jobs; under one at 1024 rows)
CSV_BLOCK_ROWS = 1024

# ---------------------------------------------------------------------------
# schema building blocks


def _object(props, required=()):
    """A closed config object: a key it does not list is an error."""
    return {"type": "object", "properties": props, "required": list(required),
            "additionalProperties": False}


def _kind(kind, props, required=()):
    return _object({"kind": {"const": kind}, **props}, ["kind", *required])


NUM = {"type": "number"}
POS_NUM = {"type": "number", "exclusiveMinimum": 0}
SIGN = {"type": "integer", "enum": [-1, 1]}
NUM_LIST = {"type": "array", "items": NUM, "minItems": 1}
AXIS = _object({"min": NUM, "max": NUM, "n": {"type": "integer", "minimum": 2}},
               ["min", "max", "n"])
SPAN = _object({"min": NUM, "max": NUM}, ["min", "max"])
# a block whose schema depends on its context: the handler validates it
# against its own table (INIT_SCHEMAS, ORACLE_SCHEMAS, VERIFY_SOLUTION_SCHEMAS)
BLOCK = {"type": "object"}

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
COMMAND_PROP = {"enum": list(COMMANDS)}
PAIR = {"type": "array", "items": NUM, "minItems": 2, "maxItems": 2}

# each block kind's own parameters (properties, required), written once; a
# context adds what else it reads from the block: see _block
KIND_PARAMS = {
    "carroll": ({"amplitude": POS_NUM, "wavenumber": POS_NUM, "polarization": SIGN},
                ["amplitude", "wavenumber"]),
    "generalized": ({"amplitude": POS_NUM, "profile": PROFILE, "direction": SIGN,
                     "polarization": SIGN}, ["amplitude", "profile"]),
    "zero": ({}, []),
    "constant_amplitude": ({"amplitude": POS_NUM, "profile": PROFILE}, ["amplitude", "profile"]),
    "plane": ({"profile": PROFILE}, ["profile"]),
    "profile": ({"profile": PROFILE}, ["profile"]),
    "simple_wave": ({"profile": PROFILE}, ["profile"]),
    "separable": ({"flux": FLUX, "k": NUM, "phi0": NUM, "dphi0": NUM},
                  ["flux", "k", "phi0", "dphi0"]),
    "overdetermined": ({"flux": FLUX, "level": POS_NUM, "profile": PROFILE, "direction": SIGN,
                        "v_bracket": PAIR}, ["flux", "level", "profile"]),
    "hodograph": ({"phase": PROFILE, "radial": PROFILE, "seed": PAIR}, ["phase", "radial", "seed"]),
}
WITH_MODULUS, WITH_BETA = {"modulus": MODULUS}, {"beta": NUM}


def _block(kind, lead=None, axes=(), omit=()):
    """The schema of a ``kind`` block in one context: the ``lead`` properties
    (the modulus or beta the block carries there), the kind's own parameters
    less ``omit``, then its sample ``axes``; all required but the optional
    parameters."""
    props, required = KIND_PARAMS[kind]
    lead = lead or {}
    own = {name: value for name, value in props.items() if name not in omit}
    return _kind(kind, {**lead, **own, **dict.fromkeys(axes, AXIS)}, [*lead, *required, *axes])


# the properties that simulate and convergence configs open with
SYSTEM_HEAD = {"command": COMMAND_PROP, "system": {"enum": ["full", "asymptotic", "scalar"]},
               "modulus": MODULUS, "beta": NUM}
SIMULATE_SCHEMA = _object({**SYSTEM_HEAD, "grid": GRID, "run": RUN, "init": BLOCK,
                           "oracle_check": {"type": "boolean"}}, ["system", "grid", "run", "init"])
INIT_SCHEMAS = {
    "full": {"oneOf": [_block("carroll"), _block("zero")]},
    "asymptotic": {"oneOf": [_block("constant_amplitude"), _block("plane")]},
    "scalar": {"oneOf": [_block("profile")]},
}

EXACT_SCHEMA = _object({"command": COMMAND_PROP, "solution": {"oneOf": [
    _block("carroll", WITH_MODULUS, ("x", "t")),
    _block("generalized", WITH_MODULUS, ("x", "t")),
    _block("constant_amplitude", WITH_BETA, ("X", "tau")),
    _block("simple_wave", WITH_BETA, ("X", "tau")),
    _block("separable", axes=("x", "t")),
    _block("overdetermined", axes=("x", "t")),
]}}, ["solution"])

CLASSIFY_SCHEMA = _object({"command": COMMAND_PROP, "flux": FLUX,
                           "samples": _object({"u": AXIS, "v": AXIS}, ["u", "v"]),
                           "alpha": FLUX}, ["flux", "samples"])

# a hodograph config is a hodograph block at the root, with beta and its axes
HODOGRAPH_SCHEMA = _object(
    {"command": COMMAND_PROP, **WITH_BETA, **KIND_PARAMS["hodograph"][0], "X": AXIS, "tau": AXIS},
    [*WITH_BETA, *KIND_PARAMS["hodograph"][1], "X", "tau"])

VERIFY_SCHEMA = _object({
    "command": COMMAND_PROP,
    "study": {"enum": ["full", "asymptotic", "conservation", "linearized_symmetry", "commutator"]},
    "beta": NUM,
    "solution": BLOCK,
    "rectangle": _object({"coord": SPAN, "point": SPAN}, ["coord", "point"]),
    "levels": {"type": "array", "items": {"type": "integer", "minimum": 5}, "minItems": 2},
    "order_target": NUM,
    "negative_control": {"type": "boolean"},
    "conservation": _object({"amp_weight": PROFILE, "angle_weight": PROFILE},
                            ["amp_weight", "angle_weight"]),
    "symmetry": _object({"phase": PROFILE, "radial": PROFILE}, ["phase", "radial"]),
    "jets": {"type": "integer", "minimum": 1},
    "seed": {"type": "integer", "minimum": 0},
    "tol_factor": POS_NUM,
}, ["study"])
# the full study verifies the Carroll wave of polarization 1 only
VERIFY_SOLUTION_SCHEMAS = {
    "carroll": _block("carroll", WITH_MODULUS, omit=("polarization",)),
    "constant_amplitude": _block("constant_amplitude"),
    "hodograph": _block("hodograph"),
}

CONVERGENCE_SCHEMA = _object({
    **SYSTEM_HEAD,
    "grid": _object({"a": NUM, "b": NUM, "boundary": BOUNDARY}, ["a", "b"]),
    "run": RUN,
    "levels": {"type": "array", "items": {"type": "integer", "minimum": 8}, "minItems": 2},
    "oracle": BLOCK,
    "order_target": NUM,
    "order_tol": POS_NUM,
}, ["system", "grid", "run", "levels", "oracle"])
ORACLE_SCHEMAS = {
    "full": _block("carroll"),
    "asymptotic": _block("constant_amplitude"),
    "scalar": _block("simple_wave"),
}

SCHEMAS = {
    "simulate": SIMULATE_SCHEMA,
    "exact": EXACT_SCHEMA,
    "classify": CLASSIFY_SCHEMA,
    "hodograph": HODOGRAPH_SCHEMA,
    "verify": VERIFY_SCHEMA,
    "convergence": CONVERGENCE_SCHEMA,
}


# ---------------------------------------------------------------------------
# plumbing


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


def _validate(config: dict, schema: dict, where: str = "config"):
    error = _schema_error(config, schema)
    if error:
        path = "/".join(map(str, error[0])) or "<root>"
        raise ConfigError(f"invalid {where} at {path}: {error[1]}")


def _axis(cfg: dict) -> np.ndarray:
    if not cfg["max"] > cfg["min"]:
        raise ConfigError("axis needs max > min")
    if not math.isfinite(cfg["max"] - cfg["min"]):
        raise ConfigError("axis width max - min overflows a double")
    return np.linspace(cfg["min"], cfg["max"], cfg["n"])


def _json_value(obj):
    """obj with numpy values as plain ones and non-finite floats as None (JSON null)."""
    if isinstance(obj, dict):
        return {key: _json_value(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_value(value) for value in obj]
    if isinstance(obj, np.ndarray):
        # a finite array needs no walk over its elements
        finite = obj.dtype.kind != "f" or np.isfinite(obj).all()
        return obj.tolist() if finite else _json_value(obj.tolist())
    obj = obj.item() if isinstance(obj, np.generic) else obj
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path: Path, obj: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_json_value(obj), f, indent=2, sort_keys=True)
        f.write("\n")


# `_format17` builds each value's text in a slot of five 8-byte words: a sign,
# "0.000", then each of 17 digits with a "." after it; any %.17g text (24 bytes
# at most) also fits.  The words are only moved and masked, never read as
# numbers, so the byte order of the machine does not matter.
_U = np.uint64
_POW5 = _U(5) ** np.arange(22, dtype=_U)


def _digit_tables():
    """The word "d.d.d.d." of each group of four digits 0000..9999, then the
    slot's first word "-0.000d." of each leading digit d at 10000 + d; and the
    trailing zeros of each group."""
    digits = (np.arange(10_000, dtype=np.uint16)[:, None]
              // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10).astype(np.uint8)
    groups = np.full((10_000, 8), ord("."), dtype=np.uint8)
    groups[:, ::2] = digits + ord("0")
    lead = np.tile(np.frombuffer(b"-0.0000.", dtype=np.uint8), (10, 1))
    lead[:, 6] += np.arange(10, dtype=np.uint8)
    zeros = np.argmax(digits[:, ::-1] != 0, axis=1) + 4 * (digits == 0).all(axis=1)
    return np.concatenate([groups, lead]).view(_U).ravel(), zeros.astype(np.uint8)


_WORDS, _TZ4 = _digit_tables()
_COMMA = np.frombuffer(b"\0" * 7 + b",", dtype=_U)[0]  # the slot's last byte is never text
_CRLF = np.frombuffer(b"\r\n" + b"\0" * 6, dtype=_U)[0]


def _keep_masks() -> np.ndarray:
    """Each slot byte that the text keeps, as 0xFF, the others 0: one row per
    (sign, E, significant digits k), E in -4..15 then a row for zero, k in 1..17."""
    pos = np.arange(40)
    digit, j = (pos >= 6) & (pos % 2 == 0), (pos - 6) // 2  # digit j, then its "."
    E, k = np.arange(-4, 16)[:, None, None], np.arange(1, 18)[None, :, None]
    below_one = (pos == 1) | (pos == 2) | ((pos >= 7 + E) & (pos < 6)) | (digit & (j < k))
    above_one = (digit & (j < np.maximum(k, E + 1))) | ((pos == 7 + 2 * E) & (k > E + 1))
    keep = np.concatenate([np.where(E < 0, below_one, above_one).reshape(-1, 40),
                           np.tile(pos == 1, (17, 1))])
    keep = np.stack([keep, keep | (pos == 0)])
    return (keep * np.uint8(0xFF)).view(_U).reshape(-1, 5)


_KEEP = _keep_masks()


def _write_csv(path: Path, header, columns):
    """Write equal-size columns, one per header name, at full double precision.

    Each column is read in row-major order.  Columns that all share one 2-D
    shape, some of them broadcast views, are a mesh; any other columns are
    written as one mesh row.  A mesh is written in blocks of about
    `CSV_BLOCK_ROWS` rows (whole outer rows, or one outer row's share of a
    longer inner axis), so memory stays bounded; see `_csv_lines`.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = columns[0].size
    if len(header) != len(columns) or any(c.size != n for c in columns):
        raise ValueError("CSV needs one header name per column and columns of equal length")
    if columns[0].ndim != 2 or any(c.shape != columns[0].shape for c in columns):
        columns = [c.reshape(1, -1) for c in columns]
    m, k = columns[0].shape
    group = max(1, CSV_BLOCK_ROWS // max(k, 1))  # outer rows per block
    with open(path, "wb") as f:
        f.write((",".join(header) + "\r\n").encode())
        for i0 in range(0, m, group):
            for j0 in range(0, k, CSV_BLOCK_ROWS):
                f.write(_csv_lines([c[i0:i0 + group, j0:j0 + CSV_BLOCK_ROWS] for c in columns]))


def _csv_lines(block) -> bytes:
    """The CSV lines of equal-shape 2-D columns, from one `_format17` call.

    A column with stride 0 along an axis (a broadcast mesh axis, or a field
    of one axis alone) is formatted once per distinct value; the stride test
    reads no values, so NaN or signed-zero axes cannot pass for constant.
    The slots fill a (rows, columns, slot) matrix with the separators, and
    its NUL pad bytes are then deleted.
    """
    distinct = [c[:1 if c.strides[0] == 0 else None, :1 if c.strides[1] == 0 else None]
                for c in block]
    text = _format17(np.concatenate([d.ravel() for d in distinct]))
    text[:len(text) - distinct[-1].size, -1] |= _COMMA  # after every column but the last
    lines = np.empty((*block[0].shape, 5 * len(block) + 1), dtype=_U)
    start = 0
    for i, d in enumerate(distinct):
        lines[:, :, 5 * i:5 * i + 5] = text[start:start + d.size].reshape(*d.shape, 5)
        start += d.size
    lines[:, :, -1] = _CRLF
    return lines.tobytes().translate(None, b"\0")


def _format17(values) -> np.ndarray:
    """The ``%.17g`` text of each double, NUL-padded in five 8-byte words.

    A finite |x| in [1e-4, 1e16), where ``%.17g`` uses fixed notation, and
    +-0 are formatted by integer arithmetic.  Write |x| = M 2^e with M in
    [2^62, 2^63) (the significand shifted left by 10 bits) and let
    E = floor(log10 |x|).  The 17 significant digits are then
    M 5^p / 2^s with p = 16 - E <= 21 and 7 <= s <= 57, rounded half to
    even; one product of M and 5^p in 32-bit limbs holds it exactly in two
    words.  E comes from ``log10`` and is corrected by one where the scaled
    value falls outside [10^16, 10^17).  No double in the range rounds up
    to a power of ten: the largest double below 10^k is at least
    8.7e-17 10^k from it, more than half a unit of the 17th digit.  The
    mask `_KEEP` of (sign, E, significant digits) keeps the bytes of the
    text in the slot.  Every other value (NaN, +-inf, tiny or huge) is
    formatted with ``%``.
    """
    v = np.ravel(values)
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    w = np.where(fast, a, 1.0)
    bits = w.view(_U)
    M = ((bits & _U(2**52 - 1)) | _U(2**52)) << _U(10)
    e = (bits >> _U(52)).astype(np.int64) - 1085
    E = np.floor(np.log10(w)).astype(np.int64)
    scaled, up = _scaled17(M, e, E)
    off = np.flatnonzero((scaled < _U(10**16)) | (scaled >= _U(10**17)))
    if off.size:
        E[off] += np.where(scaled[off] < _U(10**16), -1, 1)
        scaled[off], up[off] = _scaled17(M[off], e[off], E[off])
    digits = (scaled + up).astype(np.int64)
    high = digits // 10**8
    low = digits - high * 10**8
    words = np.empty((v.size, 5), dtype=np.int64)  # into _WORDS: leading digit, then 4 groups
    np.floor_divide(high, 10**8, out=words[:, 0])
    high -= words[:, 0] * 10**8
    words[:, 0] += 10_000
    np.floor_divide(high, 10**4, out=words[:, 1])
    np.subtract(high, words[:, 1] * 10**4, out=words[:, 2])
    np.floor_divide(low, 10**4, out=words[:, 3])
    np.subtract(low, words[:, 3] * 10**4, out=words[:, 4])
    z = _TZ4[words[:, 1:].T]  # the trailing zeros of the 17 digits; the first is never 0
    zeros = z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))
    out = np.take(_WORDS, words)
    out &= np.take(_KEEP, (np.where(a == 0, 20, E + 4) + 21 * np.signbit(v)) * 17 + 16 - zeros,
                   axis=0)
    other = np.flatnonzero(~fast & (a != 0))
    if other.size:
        text = b"".join(("%.17g" % x).encode().ljust(40, b"\0") for x in v[other].tolist())
        out[other] = np.frombuffer(text, dtype=_U).reshape(-1, 5)
    return out


def _scaled17(M, e, E):
    """floor(M 2^e 10^(16 - E)) and whether it rounds up, half to even."""
    f, s = _POW5[16 - E], (E - 16 - e).astype(_U)  # the scaled value is M f / 2^s
    m0, m1, f0, f1 = M & _U(0xFFFFFFFF), M >> _U(32), f & _U(0xFFFFFFFF), f >> _U(32)
    low0 = m0 * f0
    mid = m1 * f0 + m0 * f1
    low = low0 + (mid << _U(32))
    high = m1 * f1 + (mid >> _U(32)) + (low < low0)  # carry out of the low word
    scaled = (low >> s) | (high << (_U(64) - s))
    rest, half = low & ((_U(1) << s) - _U(1)), _U(1) << (s - _U(1))
    return scaled, (rest > half) | ((rest == half) & (scaled & _U(1) == _U(1)))


def _manifest(outdir: Path, command: str, config: dict, status: str, **extra):
    doc = {
        "package": "shearwaves",
        "version": __version__,
        "command": command,
        "config": config,
        "status": status,
        **extra,
    }
    _write_json(outdir / "manifest.json", doc)


def _grid(grid_cfg: dict, n: int) -> Grid1D:
    return Grid1D(n=n, a=grid_cfg["a"], b=grid_cfg["b"],
                  boundary=grid_cfg.get("boundary", "periodic"))


# ---------------------------------------------------------------------------
# exact solution families: one builder serves every command


def _mesh(coord_axis, point_axis):
    """The (coordinate, point) mesh as read-only broadcast views, indexed [coordinate, point]."""
    coords = np.asarray(coord_axis, dtype=float)
    points = np.asarray(point_axis, dtype=float)
    shape = (coords.size, points.size)
    return np.broadcast_to(coords[:, None], shape), np.broadcast_to(points, shape)


def _polar(rho, theta) -> dict:
    """Polar fields with their strains U = rho cos(theta), V = rho sin(theta)."""
    return {"theta": theta, "rho": rho, "U": rho * np.cos(theta), "V": rho * np.sin(theta)}


def _solution(kind: str, params: dict) -> Callable:
    """``fields(coords, points)``: the named arrays of the exact family ``kind``
    on the mesh of a coordinate axis (t or X) and a point axis (x or tau).

    ``params`` is the block merged over its enclosing config, which holds the
    modulus or beta.  The family's profiles, flux or modulus, and a Carroll
    wave, are built here; every family evaluates, and fails, inside ``fields``.
    """
    if kind == "zero":
        return lambda t, x: dict.fromkeys(FullState._fields, np.zeros((len(t), len(x))))
    if kind == "simple_wave":
        prof = profile_from_config(params["profile"])
        return lambda X, tau: {"rho": sample_simple_wave(params["beta"], prof, X, tau)}
    if kind == "hodograph":
        data = HodographData(phase_fn=profile_from_config(params["phase"]),
                             radial_fn=profile_from_config(params["radial"]))
        return lambda X, tau: _polar(*sample_hodograph(data, params["beta"], X, tau,
                                                       tuple(params["seed"])))
    if kind == "separable":
        f = flux_from_config(params["flux"])
        def separable(t, x):
            solution = eval_separable(f, params["k"], params["phi0"], params["dphi0"], t)
            # phi depends on t alone: a view the CSV writer formats once per t
            return {"phi": np.broadcast_to(solution.phi[:, None], (len(t), len(x))),
                    "u": solution.u_field(x), "v": solution.v_field(x)}
        return separable
    # the closed-form families, on the mesh's broadcast views
    if kind == "carroll":
        wave = CarrollWave.from_modulus(modulus_from_config(params["modulus"]),
                                        params["amplitude"], params["wavenumber"],
                                        params.get("polarization", 1))
        closed = lambda T, X: carroll_full_state(wave, X, T)._asdict()
    elif kind == "generalized":
        m, prof = modulus_from_config(params["modulus"]), profile_from_config(params["profile"])
        closed = lambda T, X: generalized_carroll_full_state(
            m, params["amplitude"], prof, X, T,
            params.get("direction", -1), params.get("polarization", 1))._asdict()
    elif kind == "constant_amplitude":
        prof = profile_from_config(params["profile"])
        beta, amp = params["beta"], params["amplitude"]
        closed = lambda X, tau: _polar(np.full(X.shape, float(amp)), prof(beta * amp**2 * X + tau))
    else:
        f, prof = flux_from_config(params["flux"]), profile_from_config(params["profile"])
        closed = lambda T, X: eval_overdetermined(
            f, params["level"], prof, X, T, params.get("direction", 1),
            tuple(params.get("v_bracket", (1e-8, 10.0))))._asdict()
    return lambda coords, points: closed(*_mesh(coords, points))


# ---------------------------------------------------------------------------
# systems: each pairs one evolution with the exact family it reproduces


def _system(config: dict, block: dict):
    """``(evolve, oracle)`` of the config's system and an init or oracle block.

    ``evolve(grid, run)`` returns the Trajectory from the block's initial state
    on the grid's cell centers.  ``oracle(centers, coordinate)`` stacks the
    block's exact fields like the trajectory's states, or is None.
    """
    system, kind = config["system"], block["kind"]
    params = {**config, **block}
    if system == "full":
        if "modulus" not in config:
            raise ConfigError("system 'full' requires a 'modulus' block")
        m = modulus_from_config(config["modulus"])
        names = FullState._fields
        evolve = lambda grid, run, w: evolve_full(m, grid, FullState(*w), run)
    elif "beta" not in config:
        raise ConfigError(f"system {system!r} requires 'beta'")
    elif system == "asymptotic":
        beta = params["beta"] = float(config["beta"])
        names = StrainState._fields
        evolve = lambda grid, run, w: evolve_asymptotic(beta, grid, StrainState(*w), run)
    else:
        beta = float(config["beta"])
        names, evolve = ("rho",), lambda grid, run, w: evolve_scalar(beta, grid, w[0], run)
        # evolve_scalar solves rho_X = beta (rho^3)_tau, whose simple wave
        # rho = Phi(tau + 3 beta X rho^2) is the family sample_simple_wave
        # builds with -beta
        kind, params["beta"] = "simple_wave", -beta
    oracle = None
    if kind != "plane":
        fields = _solution(kind, params)
        oracle = lambda x, c: np.stack([v[0] for v in map(fields([c], x).get, names)])
    if kind in ("plane", "simple_wave"):
        # a plane wave or a scalar profile starts from prof(x) itself
        prof = profile_from_config(block["profile"])
        initial = lambda x: [np.asarray(prof(x), dtype=float), *np.zeros((len(names) - 1, len(x)))]
    else:
        initial = lambda x: oracle(x, 0.0)
    return lambda grid, run: evolve(grid, run, initial(grid.centers)), oracle


# ---------------------------------------------------------------------------
# command handlers: each computes, writes its artifacts and returns the
# manifest entries it adds; run() owns validation, errors and exit codes


def cmd_simulate(config: dict, outdir: Path) -> dict:
    _validate(config["init"], INIT_SCHEMAS[config["system"]], where="init block")
    grid = _grid(config["grid"], config["grid"]["n"])
    run_cfg = SimulationConfig(**config["run"])
    evolve, oracle = _system(config, config["init"])
    if config.get("oracle_check") and oracle is None:
        raise ConfigError("oracle_check is not available for this init family")
    traj = evolve(grid, run_cfg)

    _write_csv(outdir / "snapshots.csv", ["coordinate", "cell_center", *traj.field_names],
               [*_mesh(traj.coords, grid.centers), *traj.states.transpose(1, 0, 2)])

    diagnostics = {
        "n_steps": int(len(traj.step_coords)),
        "initial_gradient": traj.initial_gradient,
        "blowup_coordinate": traj.blowup_coordinate,
        "snapshot_coords": traj.coords,
        "step_coords": traj.step_coords,
        "max_speed": traj.step_max_speed,
        "max_gradient": traj.step_max_gradient,
        "total_variation": traj.tv,
    }
    extra = {"grid": {**config["grid"], "h": grid.h}, "diagnostics": diagnostics}
    if config.get("oracle_check"):
        ref = oracle(grid.centers, float(traj.coords[-1]))
        extra["oracle_error_linf"] = float(np.max(np.abs(traj.final - ref)))
    return extra


def _sample_exact(sol: dict):
    """The header and columns of an exact solution block: its two axes, then its fields."""
    fields = _solution(sol["kind"], sol)
    axes = ("t", "x") if "t" in sol else ("X", "tau")
    coords, points = _axis(sol[axes[0]]), _axis(sol[axes[1]])
    values = fields(coords, points)
    if sol["kind"] == "constant_amplitude":
        # the rho and theta columns have always been read back from (U, V);
        # the family's own rho and theta differ from them in the last bits
        values = {"U": values["U"], "V": values["V"],
                  **strain_to_polar(values["U"], values["V"])._asdict()}
    return [*axes, *values], [*_mesh(coords, points), *values.values()]


def cmd_exact(config: dict, outdir: Path) -> dict:
    header, columns = _sample_exact(config["solution"])
    _write_csv(outdir / "samples.csv", header, columns)
    return {"rows": int(np.asarray(columns[0]).size), "columns": header}


# the structure flags of a classify report
FLAGS = ("equal_eigenvalues", "completely_exceptional", "hamiltonian", "decouples")


def cmd_classify(config: dict, outdir: Path) -> dict:
    f = flux_from_config(config["flux"])
    u = _axis(config["samples"]["u"])
    v = _axis(config["samples"]["v"])
    if np.any(u == 0.0) or np.any(v == 0.0):
        raise ConfigError("sample axes must avoid u = 0 and v = 0")
    U, V = np.meshgrid(u, v, indexing="ij")
    pts = np.column_stack([U.ravel(), V.ravel()])

    P = np.asarray(f.p(U, V), dtype=float)
    Pu = np.asarray(f.p_u(U, V), dtype=float)
    Pv = np.asarray(f.p_v(U, V), dtype=float)
    scale = max(1.0, float(np.max(np.abs(P))))
    if float(np.max(np.abs(Pu))) <= 1e-12 * scale and float(np.max(np.abs(Pv))) <= 1e-12 * scale:
        report = {
            "constant_flux": True,
            "flags": dict.fromkeys(FLAGS, True),
            "residuals": dict.fromkeys(FLAGS, 0.0),
            "n_samples": int(pts.shape[0]),
            "note": "constant flux: the system is linear and every family is degenerate",
        }
        _write_json(outdir / "report.json", report)
        return {}

    alpha = flux_from_config(config["alpha"]) if "alpha" in config else None
    cls = classify(f, pts, alpha=alpha)
    eig = cls.eigen
    report = {
        "constant_flux": False,
        "flags": {name: getattr(cls, name) for name in FLAGS},
        "residuals": cls.residuals,
        "n_samples": cls.n_samples,
        "eigen": {
            "max_abs_grad2_dot_d2": float(np.max(np.abs(eig.grad2_dot_d2))),
            "lambda1_range": [float(eig.lambda1.min()), float(eig.lambda1.max())],
            "lambda2_range": [float(eig.lambda2.min()), float(eig.lambda2.max())],
        },
    }
    _write_json(outdir / "report.json", report)
    return {}


def cmd_hodograph(config: dict, outdir: Path) -> dict:
    fields = _solution("hodograph", config)
    X, tau = _axis(config["X"]), _axis(config["tau"])
    theta, rho = map(fields(X, tau).get, ("theta", "rho"))
    _write_csv(outdir / "samples.csv", ["X", "tau", "theta", "rho"], [*_mesh(X, tau), theta, rho])
    return {"rho_range": [float(rho.min()), float(rho.max())],
            "theta_range": [float(theta.min()), float(theta.max())]}


def _rectangle_samples(config: dict, fields: Callable) -> list:
    """The study's ``fields(coords, points)`` on every refinement level of the
    rectangle, coarsest first."""
    rect = config["rectangle"]
    levels = [[np.linspace(rect[axis]["min"], rect[axis]["max"], n) for axis in ("coord", "point")]
              for n in config["levels"]]
    return [FieldSample(coords, points, fields(coords, points)) for coords, points in levels]


def _order_report(study: str, report, target: float, control: bool, **extra) -> dict:
    """Report of a study judged by the fitted decay order of its residual."""
    doc = {"study": study, "order": report.order, "order_l2": report.order_l2,
           "linf": report.linf, "l2": report.l2, "target": target,
           "negative_control": control, "passed": report.passed, **extra}
    if control:
        doc["control_confirmed"] = report.order <= 0.5
    return doc


def _commutator_study(config: dict, control: bool) -> dict:
    sym = config.get("symmetry")
    if sym is None:
        raise ConfigError("commutator study requires a 'symmetry' block")
    spec = SymmetrySpec(phase_fn=profile_from_config(sym["phase"]),
                        radial_fn=profile_from_config(sym["radial"]))
    if control:
        spec = PerturbedRadialControl(spec)
    rng = np.random.default_rng(config.get("seed", 0))
    n = config.get("jets", 100)
    jets = np.column_stack([rng.uniform(lo, hi, n) for lo, hi in
                            [(0.0, 2.0 * np.pi), (0.5, 1.5)] + [(-1.0, 1.0)] * 4])
    beta = config.get("beta", 1.0)
    worst = commutator_residual(spec, beta, jets)
    phi = spec.characteristic(jets[:, 0], jets[:, 1], jets[:, 2], jets[:, 3])
    scale = max(1.0, float(np.max(np.abs(phi[0]))), float(np.max(np.abs(phi[1]))),
                abs(beta) * float(np.max(jets[:, 1] ** 2)))
    tol = config.get("tol_factor", 1e-10) * scale
    doc = {"study": "commutator", "max_bracket": worst, "tolerance": tol,
           "n_jets": int(n), "negative_control": control, "passed": worst <= tol}
    if control:
        doc["control_confirmed"] = worst > tol
    return doc


def _verify_study(config: dict) -> dict:
    """Run the configured study and return its report; ``passed`` holds the verdict."""
    study = config["study"]
    target = config.get("order_target", 1.8)
    control = bool(config.get("negative_control", False))
    if study == "commutator":
        return _commutator_study(config, control)
    if "rectangle" not in config or "levels" not in config:
        raise ConfigError(f"study {study!r} requires 'rectangle' and 'levels'")
    sol, full = config.get("solution"), study == "full"
    if not full and "beta" not in config:
        raise ConfigError(f"study {study!r} requires 'beta'")
    # a negative control of the residual and conservation studies samples its
    # own non-solution, but a solution block it is given must still be valid
    non_solution = control and study in ("asymptotic", "conservation")
    if sol is not None or not non_solution:
        if full and (sol is None or sol.get("kind") != "carroll"):
            raise ConfigError("study 'full' requires a 'carroll' solution block")
        if not full and (sol is None or sol.get("kind") not in ("constant_amplitude", "hodograph")):
            raise ConfigError(f"study {study!r} requires a solution block "
                              f"(constant_amplitude or hodograph)")
        _validate(sol, VERIFY_SOLUTION_SCHEMAS[sol["kind"]], where="solution block")
    block = {"conservation": "conservation", "linearized_symmetry": "symmetry"}.get(study)
    if block is not None and block not in config:
        raise ConfigError(f"{study} study requires a {block!r} block")
    if non_solution:
        def fields(coords, points):
            # theta = sin(2 tau), rho = 1 solves neither study
            C, P = _mesh(coords, points)
            return {"theta": np.sin(2.0 * P) + 0.0 * C, "rho": np.ones(C.shape)}
    else:
        fields = _solution(sol["kind"], {**config, **sol})
    if full and control:
        rng = np.random.default_rng(config.get("seed", 0))
        fields = lambda t, x: {k: rng.standard_normal((len(t), len(x))) for k in FullState._fields}
    samples = _rectangle_samples(config, fields)

    if full:
        report = residual_full(samples, modulus_from_config(sol["modulus"]), order_target=target)
        return _order_report(study, report, target, control)
    beta = config["beta"]
    if study == "asymptotic":
        report = residual_asymptotic(samples, beta, order_target=target)
        return _order_report(study, report, target, control)
    if study == "conservation":
        cons = config["conservation"]
        spec = ConservationSpec(amp_weight=profile_from_config(cons["amp_weight"]),
                                angle_weight=profile_from_config(cons["angle_weight"]))
        try:
            report = conservation_residual(samples, beta, spec, order_target=target)
        except NeitherOrientationDecays as exc:
            doc = {"study": study, "neither_orientation_decays": True,
                   "message": str(exc), "negative_control": control, "passed": False}
            if control:
                doc["control_confirmed"] = True
            return doc
        return _order_report(study, report, target, control,
                             orientation=report.details.get("orientation"))
    sym = config["symmetry"]
    spec = SymmetrySpec(phase_fn=profile_from_config(sym["phase"]),
                        radial_fn=profile_from_config(sym["radial"]))
    if control:
        spec = AngleSquaredControl(spec)
    report = linearized_symmetry_residual(samples, beta, spec, order_target=target)
    return _order_report(study, report, target, control)


def cmd_verify(config: dict, outdir: Path) -> dict:
    doc = _verify_study(config)
    _write_json(outdir / "report.json", doc)
    # a negative control is run to be missed, confirmed or not; its report says which
    return {"passed": doc["passed"] and not doc["negative_control"]}


def cmd_convergence(config: dict, outdir: Path) -> dict:
    _validate(config["oracle"], ORACLE_SCHEMAS[config["system"]], where="oracle block")
    run_cfg = SimulationConfig(**config["run"])
    evolve, oracle = _system(config, config["oracle"])
    report = convergence_study(lambda n: evolve(_grid(config["grid"], n), run_cfg),
                               oracle, config["levels"],
                               order_target=config.get("order_target"),
                               order_tol=config.get("order_tol"))
    doc = {
        "system": config["system"],
        "cells": report.cells,
        "spacings": report.spacings,
        "linf": report.linf,
        "l2": report.l2,
        "order": report.order,
        "order_l2": report.order_l2,
        "order_target": report.target,
        "order_tol": report.tol,
        "passed": report.passed,
    }
    _write_json(outdir / "report.json", doc)
    return {"passed": report.passed}


HANDLERS = {
    "simulate": cmd_simulate,
    "exact": cmd_exact,
    "classify": cmd_classify,
    "hodograph": cmd_hodograph,
    "verify": cmd_verify,
    "convergence": cmd_convergence,
}


# ---------------------------------------------------------------------------
# entry point


def _check_outdir(outdir: Path):
    """Reject an output directory that cannot be made, before any work is done:
    it, or its nearest existing ancestor, exists and is not a directory (a
    dangling symlink counts as existing)."""
    for path in (outdir, *outdir.parents):
        if os.path.lexists(path):
            if not path.is_dir():
                raise ConfigError(f"output directory {outdir}: {path} is not a directory")
            return


def run(command: str, config_path: str, outdir: Path, quiet: bool = False) -> int:
    """Load and validate a config, run its command, write the manifest; return the exit code.

    0: success.  1: a verification or convergence target was missed, or
    a ``verify`` negative control ran (``control_confirmed`` in its report
    says whether it failed as it should).  2: a config error, including a
    config file that cannot be read or is nested too deeply, a ValueError
    from a library input check (a grid whose width overflows a double among
    them), a parameter's OverflowError, a size whose arrays do not fit in
    memory (MemoryError) or an ``outdir`` that is, or lies under, a dangling
    symlink or an existing path other than a directory; the message goes to
    stderr and no manifest is written.  3:
    any other ShearWaveError; ``manifest.json`` gets ``status: "error"`` and
    ``error.{type, message, coordinate}``.
    Exits 0, 1 and 3 all leave a manifest.
    """
    try:
        config = _load_config(config_path)
        declared = config.get("command")
        if declared is not None and declared != command:
            raise ConfigError(f"config declares command {declared!r} but {command!r} was invoked")
        _validate(config, SCHEMAS[command])
        _check_outdir(outdir)
        extra = HANDLERS[command](config, outdir)
    except (ConfigError, ValueError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"config error: a parameter overflows a double: {exc.args[-1]}", file=sys.stderr)
        return 2
    except ShearWaveError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        coordinate = getattr(exc, "coordinate", None)
        if coordinate is not None:
            error["coordinate"] = coordinate
        _manifest(outdir, command, config, "error", error=error)
        print(f"{command} failed: {error['type']}: {exc} (manifest in {outdir})", file=sys.stderr)
        return 3
    _manifest(outdir, command, config, "ok", **extra)
    passed = extra.get("passed", True)
    if not quiet:
        print(f"wrote {outdir}" if passed else f"wrote {outdir} (target missed)")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shearwaves",
        description="Exact solutions, finite-volume evolution, and structural "
                    "verification for 1D nonlinear shear waves.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--out", default="out", help="artifact output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress status output")
    args = parser.parse_args(argv)
    return run(args.command, args.config, Path(args.out), args.quiet)


if __name__ == "__main__":
    sys.exit(main())
