"""Command-line entry point: JSON config in, CSV/JSON artifacts out.

Subcommands: simulate, exact, classify, hodograph, verify, convergence.
Every run validates its config against a closed schema (unknown keys are
rejected), computes, and writes a deterministic artifact set into the output
directory: a ``manifest.json`` that echoes the config and records
diagnostics, plus ``snapshots.csv`` / ``samples.csv`` / ``report.json``
depending on the command.  A CSV is one header line, then comma-separated rows
with CRLF line ends; every value is printed with ``%.17g`` (so ``float()`` gives
back the exact double), and the special values as ``nan``, ``inf``, ``-inf``, ``-0``.
The rows are the sample mesh in row-major order, first column slowest.  The
mesh axes come as broadcast views, and the writer formats such a column once
per distinct value, not once per row; the bytes are the same either way.  A
large CSV is formatted by up to one process per available CPU, each taking a
contiguous range of outer rows, with the bytes of a serial write; a small
one, one on a platform without ``fork`` and one written while another thread
runs are formatted in this process.  A JSON artifact writes a non-finite
number (a NaN residual, an infinite fitted order) as ``null``.

Every command goes through ``run``.  Exit codes: 0 success, 1 a verification
or convergence target missed, 2 config error (no manifest; also a size that
does not fit in memory, or an output directory at or under a dangling
symlink), 3 solver or construction failure (the manifest names the error).
A negative-control ``verify`` run always exits 1; its ``report.json`` says in
``control_confirmed`` whether the control failed as it should.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable

import jsonschema
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
from .simulate import Grid1D, SimulationConfig, evolve_asymptotic, evolve_full, evolve_scalar
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
# about this many rows per `%` format and write: a mesh block is whole outer rows,
# or one outer row's share of a longer inner axis; one block at a time bounds
# the writer's memory
CSV_BLOCK_ROWS = 2048
# the fewest full-column values worth one more writer process.  On a 2-vCPU
# Xeon (Python 3.11) a fork, exit and wait of the ~42 MB CLI process take
# 3.9 ms, about 6 ms with the temporary file and its copy, and the writer
# formats a full value in about 1 us (80k values in 77 ms): so a child gets
# at least twice its cost in formatting
PER_WORKER = 12_000

# ---------------------------------------------------------------------------
# schema building blocks

NUM = {"type": "number"}
POS_NUM = {"type": "number", "exclusiveMinimum": 0}
SIGN = {"type": "integer", "enum": [-1, 1]}
NUM_LIST = {"type": "array", "items": NUM, "minItems": 1}
AXIS = {
    "type": "object",
    "properties": {"min": NUM, "max": NUM, "n": {"type": "integer", "minimum": 2}},
    "required": ["min", "max", "n"],
    "additionalProperties": False,
}
SPAN = {
    "type": "object",
    "properties": {"min": NUM, "max": NUM},
    "required": ["min", "max"],
    "additionalProperties": False,
}


def _kind(kind, props, required=()):
    return {
        "type": "object",
        "properties": {"kind": {"const": kind}, **props},
        "required": ["kind", *required],
        "additionalProperties": False,
    }


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
GRID = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 8},
        "a": NUM,
        "b": NUM,
        "boundary": {"enum": ["periodic", "outflow"]},
    },
    "required": ["n", "a", "b"],
    "additionalProperties": False,
}
RUN = {
    "type": "object",
    "properties": {
        "end": {"type": "number", "minimum": 0},
        "scheme": {"enum": ["lax_friedrichs", "muscl_minmod"]},
        "cfl": {"type": "number", "exclusiveMinimum": 0, "maximum": 0.9},
        "snapshot_stride": {"type": "integer", "minimum": 0},
        "blowup_factor": {"type": "number", "exclusiveMinimum": 1},
    },
    "required": ["end"],
    "additionalProperties": False,
}
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
SIMULATE_SCHEMA = {
    "type": "object",
    "properties": {
        **SYSTEM_HEAD,
        "grid": GRID,
        "run": RUN,
        "init": {"type": "object"},
        "oracle_check": {"type": "boolean"},
    },
    "required": ["system", "grid", "run", "init"],
    "additionalProperties": False,
}
INIT_SCHEMAS = {
    "full": {"oneOf": [_block("carroll"), _block("zero")]},
    "asymptotic": {"oneOf": [_block("constant_amplitude"), _block("plane")]},
    "scalar": {"oneOf": [_block("profile")]},
}

EXACT_SCHEMA = {
    "type": "object",
    "properties": {
        "command": COMMAND_PROP,
        "solution": {
            "oneOf": [
                _block("carroll", WITH_MODULUS, ("x", "t")),
                _block("generalized", WITH_MODULUS, ("x", "t")),
                _block("constant_amplitude", WITH_BETA, ("X", "tau")),
                _block("simple_wave", WITH_BETA, ("X", "tau")),
                _block("separable", axes=("x", "t")),
                _block("overdetermined", axes=("x", "t")),
            ]
        },
    },
    "required": ["solution"],
    "additionalProperties": False,
}

CLASSIFY_SCHEMA = {
    "type": "object",
    "properties": {
        "command": COMMAND_PROP,
        "flux": FLUX,
        "samples": {
            "type": "object",
            "properties": {"u": AXIS, "v": AXIS},
            "required": ["u", "v"],
            "additionalProperties": False,
        },
        "alpha": FLUX,
    },
    "required": ["flux", "samples"],
    "additionalProperties": False,
}

# a hodograph config is a hodograph block at the root, with beta and its axes
HODOGRAPH_SCHEMA = {
    "type": "object",
    "properties": {"command": COMMAND_PROP, **WITH_BETA, **KIND_PARAMS["hodograph"][0],
                   "X": AXIS, "tau": AXIS},
    "required": [*WITH_BETA, *KIND_PARAMS["hodograph"][1], "X", "tau"],
    "additionalProperties": False,
}

VERIFY_SCHEMA = {
    "type": "object",
    "properties": {
        "command": COMMAND_PROP,
        "study": {"enum": ["full", "asymptotic", "conservation",
                           "linearized_symmetry", "commutator"]},
        "beta": NUM,
        "solution": {"type": "object"},
        "rectangle": {
            "type": "object",
            "properties": {"coord": SPAN, "point": SPAN},
            "required": ["coord", "point"],
            "additionalProperties": False,
        },
        "levels": {"type": "array", "items": {"type": "integer", "minimum": 5}, "minItems": 2},
        "order_target": NUM,
        "negative_control": {"type": "boolean"},
        "conservation": {
            "type": "object",
            "properties": {"amp_weight": PROFILE, "angle_weight": PROFILE},
            "required": ["amp_weight", "angle_weight"],
            "additionalProperties": False,
        },
        "symmetry": {
            "type": "object",
            "properties": {"phase": PROFILE, "radial": PROFILE},
            "required": ["phase", "radial"],
            "additionalProperties": False,
        },
        "jets": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "tol_factor": POS_NUM,
    },
    "required": ["study"],
    "additionalProperties": False,
}
# the full study verifies the Carroll wave of polarization 1 only
VERIFY_SOLUTION_SCHEMAS = {
    "carroll": _block("carroll", WITH_MODULUS, omit=("polarization",)),
    "constant_amplitude": _block("constant_amplitude"),
    "hodograph": _block("hodograph"),
}

CONVERGENCE_SCHEMA = {
    "type": "object",
    "properties": {
        **SYSTEM_HEAD,
        "grid": {
            "type": "object",
            "properties": {"a": NUM, "b": NUM, "boundary": {"enum": ["periodic", "outflow"]}},
            "required": ["a", "b"],
            "additionalProperties": False,
        },
        "run": RUN,
        "levels": {"type": "array", "items": {"type": "integer", "minimum": 8}, "minItems": 2},
        "oracle": {"type": "object"},
        "order_target": NUM,
        "order_tol": POS_NUM,
    },
    "required": ["system", "grid", "run", "levels", "oracle"],
    "additionalProperties": False,
}
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


# JSON has one number type and JSON Schema lets 2.0 pass as an integer, but
# the grid sizes and counts go to numpy, which takes Python ints only
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)))


def _validate(config: dict, schema: dict, where: str = "config"):
    try:
        _Validator(schema).validate(config)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"invalid {where} at {path}: {exc.message}")


def _axis(cfg: dict) -> np.ndarray:
    if not cfg["max"] > cfg["min"]:
        raise ConfigError("axis needs max > min")
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


def _write_csv(path: Path, header, columns):
    """Write equal-size columns, one per header name, at full double precision.

    Each column is read in row-major order.  Columns that all share one 2-D
    shape, some of them broadcast views, are a mesh: see `_write_mesh_rows`.
    Any other columns are written as one mesh row.  The outer rows are split
    into `_csv_workers` contiguous ranges, formatted in parallel by
    `_write_ranges`; a row's text does not depend on which block holds it,
    so the bytes are those of one serial pass.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = columns[0].size
    if len(header) != len(columns) or any(c.size != n for c in columns):
        raise ValueError("CSV needs one header name per column and columns of equal length")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\r\n")
        if n == 0:
            return
        if columns[0].ndim != 2 or any(c.shape != columns[0].shape for c in columns):
            columns = [c.reshape(1, -1) for c in columns]
        m = columns[0].shape[0]
        w = min(m, _csv_workers(columns))
        _write_ranges(f, path.parent, [[c[m * i // w:m * (i + 1) // w] for c in columns]
                                       for i in range(w)])


def _write_ranges(f, tmpdir: Path, ranges):
    """Write the mesh row ranges to ``f`` in order: the first in this process,
    each other one in a forked child that formats it into a temporary file in
    ``tmpdir``, appended once the child has succeeded.

    A range whose fork fails or whose child exits non-zero is formatted here,
    so the bytes are the same, and a real error such as a full disk raises
    here.  No child outlives the call: if this process raises while children
    run, those not yet reaped are killed and reaped.
    """
    tmps, pids = [], {}  # pids: range index -> child not yet reaped
    try:
        for i, rows in enumerate(ranges[1:], 1):
            tmps.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline="", dir=tmpdir))
            f.flush()  # a child must not inherit unwritten bytes of f
            try:
                pid = os.fork()
            except OSError:
                continue
            if pid == 0:
                _write_child(tmps[-1], rows)
            pids[i] = pid
        _write_mesh_rows(f, ranges[0])
        for i, (tmp, rows) in enumerate(zip(tmps, ranges[1:]), 1):
            done = i in pids and os.waitstatus_to_exitcode(os.waitpid(pids[i], 0)[1]) == 0
            pids.pop(i, None)
            if done:
                tmp.seek(0)
                f.flush()
                shutil.copyfileobj(tmp.buffer, f.buffer)
            else:
                _write_mesh_rows(f, rows)
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for tmp in tmps:
            tmp.close()


def _write_child(tmp, columns):
    """In a forked child: write the mesh rows into ``tmp`` and exit, 0 on success.

    The child leaves through ``os._exit`` only, so it never returns into the
    parent's code, flushes the buffers it inherited or prints a traceback.
    """
    try:
        _write_mesh_rows(tmp, columns)
        tmp.flush()
        os._exit(0)
    finally:
        os._exit(1)


def _csv_workers(columns) -> int:
    """How many processes format a mesh's rows: one per available CPU, but no
    more than one per `PER_WORKER` values of its full columns (see
    `_column_kinds`).  1, formatting in this process, where ``fork`` is
    unavailable or another thread is alive, as a fork would copy that
    thread's locks but not the thread."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    full = _column_kinds(columns).count("full") * columns[0].size
    return max(1, min(len(os.sched_getaffinity(0)), full // PER_WORKER))


def _row_major(columns) -> tuple:
    """The values of equal-shape columns as one flat tuple, row by row."""
    return tuple(np.stack(columns, axis=-1).ravel().tolist()) if columns else ()


def _column_kinds(columns) -> list:
    """Each 2-D mesh column's kind, from its strides alone: ``outer`` is
    constant along axis 1, ``inner`` along axis 0 with an inner axis of at
    most `CSV_BLOCK_ROWS`, and ``full`` is formatted value by value."""
    inner_fits = columns[0].shape[1] <= CSV_BLOCK_ROWS  # one template holds every inner index
    return ["outer" if c.strides[1] == 0 else
            "inner" if c.strides[0] == 0 and inner_fits else "full" for c in columns]


def _write_mesh_rows(f, columns):
    """Write the rows of equal-shape 2-D columns, formatting each broadcast column once.

    A column with stride 0 along axis 1 is constant along each outer row (the
    outer mesh axis, or a field of the outer coordinate alone): its value is
    formatted once per outer index and joined into that row's template.  A
    column with stride 0 along axis 0 is the inner mesh axis: it is formatted
    once, into the template of one outer row's lines that every outer row
    reuses.  Only the other columns go through ``%`` value by value.  The
    stride test reads no values, so NaN or signed-zero axes cannot be taken
    for constant columns.  Blocks hold about `CSV_BLOCK_ROWS` rows; an inner
    axis longer than that is formatted with the full columns, so memory stays
    bounded.
    """
    m, k = columns[0].shape
    kinds = _column_kinds(columns)
    outer = [c[:, 0] for c, kind in zip(columns, kinds) if kind == "outer"]
    inner = [c[0] for c, kind in zip(columns, kinds) if kind == "inner"]
    full = [c for c, kind in zip(columns, kinds) if kind == "full"]
    marks = [f"\0{r}\0" for r in range(len(outer))]  # no formatted number holds a NUL
    next_mark = iter(marks).__next__
    row = ",".join(next_mark() if kind == "outer" else "%.17g" if kind == "inner" else "%%.17g"
                   for kind in kinds) + "\r\n"
    if inner:
        template = (row * k) % _row_major(inner)
    group = max(1, CSV_BLOCK_ROWS // k)  # outer rows per block
    for i0 in range(0, m, group):
        texts = [["%.17g" % v for v in c[i0:i0 + group].tolist()] for c in outer]
        for j0 in range(0, k, CSV_BLOCK_ROWS):
            if not inner:
                template = (row % ()) * (min(k, j0 + CSV_BLOCK_ROWS) - j0)
            lines = _fill_outer(template, marks, texts) if outer \
                else template * (min(m, i0 + group) - i0)
            f.write(lines % _row_major([c[i0:i0 + group, j0:j0 + CSV_BLOCK_ROWS] for c in full]))


def _fill_outer(template: str, marks, texts) -> str:
    """`template` once per outer row, each mark replaced by that row's formatted value."""
    parts = template.split(marks[0])
    lines = []
    for values in zip(*texts):
        line = values[0].join(parts)
        for mark, value in zip(marks[1:], values[1:]):
            line = line.replace(mark, value)
        lines.append(line)
    return "".join(lines)


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
    ValueError from a library input check, a parameter's OverflowError, a
    size whose arrays do not fit in memory (MemoryError) or an ``outdir``
    that is, or lies under, a dangling symlink or an existing path other
    than a directory; the message goes to stderr and no manifest is written.  3:
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
