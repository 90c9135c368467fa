"""Command-line entry point: JSON config in, CSV/JSON artifacts out.

Subcommands: simulate, exact, classify, hodograph, verify, convergence.
Each exact solution family is one `FAMILIES` entry plus one README row, each
evolved system one `SYSTEMS` entry plus its README rows, and each verify
study one `STUDIES` entry plus one README row.
Every run validates its whole config, blocks included, in one pass against
one closed schema of `SCHEMAS`: its command's, or the one of the ``system``
(simulate, convergence) or ``study`` (verify) that it names.  A key that
this variant does not read is rejected.  The schemas are in a JSON Schema
subset that this module checks itself with JSON Schema's messages.  The
command's handler ``cmd_<command>(config)`` computes
and returns its artifacts by file name with its manifest entries, and writes
nothing.  Only then does ``run`` write the deterministic artifact set into the
output directory: ``snapshots.csv`` / ``samples.csv`` / ``report.json``
depending on the command, then a ``manifest.json`` that echoes the config and
records diagnostics; a failed run writes the manifest alone.  A CSV is one
header line, then comma-separated rows with CRLF line ends; every value is
printed with ``%.17g`` (so ``float()`` gives back the exact double), and the
special values as ``nan``, ``inf``, ``-inf``, ``-0``.  The rows are the sample
mesh in row-major order, first column slowest.  The writer runs in this process
alone, a block of rows at a time, and formats a broadcast mesh axis once per
distinct value; `_csv_lines` and `_format17` say how.  A JSON artifact writes a
non-finite number (a NaN residual, an infinite fitted order) as ``null``.

Every command goes through ``run``, whose docstring gives the exit codes:
0 success, 1 a target missed, 2 a config error, 3 a solver failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
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
    DEFAULT_ORDER_TARGET,
    FieldSample,
    PerturbedRadialControl,
    SymmetrySpec,
    commutator_residual,
    conservation_residual,
    convergence_study,
    linearized_symmetry_residual,
    oracle_error,
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
BOOL = {"type": "boolean"}
SEED = {"type": "integer", "minimum": 0}

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
# a convergence study compares final states alone: it keeps no snapshots
CONVERGENCE_RUN = _object({key: value for key, value in RUN["properties"].items()
                           if key != "snapshot_stride"}, ["end"])
COMMAND_PROP = {"enum": list(COMMANDS)}
PAIR = {"type": "array", "items": NUM, "minItems": 2, "maxItems": 2}

WITH_MODULUS, WITH_BETA = {"modulus": MODULUS}, {"beta": NUM}

# ---------------------------------------------------------------------------
# exact solution families, one table for every command; then the verify studies


def _mesh(coord_axis, point_axis):
    """The (coordinate, point) mesh as read-only broadcast views, indexed [coordinate, point]."""
    coords = np.asarray(coord_axis, dtype=float)
    points = np.asarray(point_axis, dtype=float)
    shape = (coords.size, points.size)
    return np.broadcast_to(coords[:, None], shape), np.broadcast_to(points, shape)


def _polar(rho, theta) -> dict:
    """Polar fields with their strains U = rho cos(theta), V = rho sin(theta)."""
    return {"theta": theta, "rho": rho, "U": rho * np.cos(theta), "V": rho * np.sin(theta)}


def _profiles(block: dict, *names) -> list:
    """The profiles of ``block`` under ``names``, built in that order."""
    return [profile_from_config(block[name]) for name in names]


def _on_mesh(closed_form: Callable) -> Callable:
    """The builder of a closed-form family, whose fields take the mesh's broadcast views."""
    def build(params):
        closed = closed_form(params)
        return lambda coords, points: closed(*_mesh(coords, points))
    return build


@_on_mesh
def _carroll(params):
    wave = CarrollWave.from_modulus(modulus_from_config(params["modulus"]),
                                    params["amplitude"], params["wavenumber"],
                                    params.get("polarization", 1))
    return lambda T, X: carroll_full_state(wave, X, T)._asdict()


@_on_mesh
def _generalized(params):
    m, prof = modulus_from_config(params["modulus"]), profile_from_config(params["profile"])
    return lambda T, X: generalized_carroll_full_state(
        m, params["amplitude"], prof, X, T,
        params.get("direction", -1), params.get("polarization", 1))._asdict()


@_on_mesh
def _constant_amplitude(params):
    prof = profile_from_config(params["profile"])
    beta, amp = params["beta"], params["amplitude"]
    return lambda X, tau: _polar(np.full(X.shape, float(amp)), prof(beta * amp**2 * X + tau))


@_on_mesh
def _overdetermined(params):
    f, prof = flux_from_config(params["flux"]), profile_from_config(params["profile"])
    return lambda T, X: eval_overdetermined(
        f, params["level"], prof, X, T, params.get("direction", 1),
        tuple(params.get("v_bracket", (1e-8, 10.0))))._asdict()


def _simple_wave(params):
    prof = profile_from_config(params["profile"])
    return lambda X, tau: {"rho": sample_simple_wave(params["beta"], prof, X, tau)}


def _hodograph(params):
    data = HodographData(*_profiles(params, "phase", "radial"))

    def hodograph(X, tau):
        rho, theta = sample_hodograph(data, params["beta"], X, tau, tuple(params["seed"]))
        return {"theta": theta, "rho": rho}
    return hodograph


def _separable(params):
    f = flux_from_config(params["flux"])

    def separable(t, x):
        solution = eval_separable(f, params["k"], params["phi0"], params["dphi0"], t)
        # phi depends on t alone: a view the CSV writer formats once per t
        return {"phi": np.broadcast_to(solution.phi[:, None], (len(t), len(x))),
                "u": solution.u_field(x), "v": solution.v_field(x)}
    return separable


# an exact solution family: its block's own parameters (props, required); the
# coefficient it reads, a modulus or beta, which a block carries where it is
# sampled and a run's config holds at its top level; its sample axes, the
# coordinate (t or X) first, then the point (x or tau); build(params), which
# returns fields(coords, points), the family's named arrays on the mesh of
# those axes, or is None where the family has no exact fields; and whether a
# run starts from its profile rather than from its fields at coordinate 0.
# params is the block merged over its enclosing config.  build makes the
# family's profiles, flux, modulus or wave; it evaluates, and fails, in fields
Family = namedtuple("Family", "props required coefficient axes build from_profile",
                    defaults=(False,))
# every exact family by block kind: a new family is one entry here and one row
# of the README's "Solution blocks" table
FAMILIES = {
    "carroll": Family({"amplitude": POS_NUM, "wavenumber": POS_NUM, "polarization": SIGN},
                      ("amplitude", "wavenumber"), WITH_MODULUS, ("t", "x"), _carroll),
    "generalized": Family({"amplitude": POS_NUM, "profile": PROFILE, "direction": SIGN,
                           "polarization": SIGN}, ("amplitude", "profile"), WITH_MODULUS,
                          ("t", "x"), _generalized),
    "zero": Family({}, (), {}, ("t", "x"), lambda params: lambda t, x: dict.fromkeys(
        FullState._fields, np.zeros((len(t), len(x))))),
    "constant_amplitude": Family({"amplitude": POS_NUM, "profile": PROFILE},
                                 ("amplitude", "profile"), WITH_BETA, ("X", "tau"),
                                 _constant_amplitude),
    # a plane wave's initial U is its profile; it has no exact fields
    "plane": Family({"profile": PROFILE}, ("profile",), {}, (), None, from_profile=True),
    "simple_wave": Family({"profile": PROFILE}, ("profile",), WITH_BETA, ("X", "tau"),
                          _simple_wave, from_profile=True),
    "separable": Family({"flux": FLUX, "k": NUM, "phi0": NUM, "dphi0": NUM},
                        ("flux", "k", "phi0", "dphi0"), {}, ("t", "x"), _separable),
    "overdetermined": Family({"flux": FLUX, "level": POS_NUM, "profile": PROFILE,
                              "direction": SIGN, "v_bracket": PAIR}, ("flux", "level", "profile"),
                             {}, ("t", "x"), _overdetermined),
    "hodograph": Family({"phase": PROFILE, "radial": PROFILE, "seed": PAIR},
                        ("phase", "radial", "seed"), WITH_BETA, ("X", "tau"), _hodograph),
}
# a scalar run's init names the simple wave by the profile it starts from
FAMILIES["profile"] = FAMILIES["simple_wave"]


def _properties(kind, coefficient=False, axes=False, omit=()):
    """A ``kind`` block's properties and required names in one context: its family's
    coefficient if carried, its own parameters less ``omit``, then its axes if carried."""
    family = FAMILIES[kind]
    lead = family.coefficient if coefficient else {}
    own = {name: value for name, value in family.props.items() if name not in omit}
    axes = dict.fromkeys(family.axes if axes else (), AXIS)
    return {**lead, **own, **axes}, [*lead, *family.required, *axes]


def _block(kind, **context):
    return _kind(kind, *_properties(kind, **context))


def _one_of(*blocks):
    """The schema of a position that takes these blocks: one alone, or their oneOf."""
    return blocks[0] if len(blocks) == 1 else {"oneOf": list(blocks)}


def _variants(key, table):
    """The configs of a command's variants by the value of ``key`` (system or
    study), from each variant's properties and required keys."""
    return {name: _object({"command": COMMAND_PROP, key: {"const": name}, **props},
                          [key, *required]) for name, (props, required) in table.items()}


# an evolved system: the coefficient it reads from the top level of its config;
# the block kinds of its simulate init and of its convergence oracle; its state's
# rows; evolve(config, grid, rows, run) -> its Trajectory from those rows, which
# calls evolve_* by this module's names at run time; and the sign its oracle gives
# beta, a float so that an integer beta becomes the double it names.  A new system
# is one entry of SYSTEMS and its rows of the README's "Top-level keys" table
System = namedtuple("System", "coefficient inits oracles fields evolve sign", defaults=(1.0,))
SYSTEMS = {
    "full": System(WITH_MODULUS, ("carroll", "generalized", "zero"), ("carroll", "generalized"),
                   FullState._fields, lambda config, grid, rows, run: evolve_full(
                       modulus_from_config(config["modulus"]), grid, rows, run)),
    "asymptotic": System(WITH_BETA, ("constant_amplitude", "plane"), ("constant_amplitude",),
                         StrainState._fields, lambda config, grid, rows, run: evolve_asymptotic(
                             config["beta"], grid, rows, run)),
    # evolve_scalar's simple wave rho = Phi(tau + 3 beta X rho^2) is sample_simple_wave's at -beta
    "scalar": System(WITH_BETA, ("profile",), ("simple_wave",), ("rho",),
                     lambda config, grid, rows, run: evolve_scalar(
                         config["beta"], grid, rows[0], run), sign=-1.0),
}
SIMULATE_SCHEMAS = _variants("system", {
    name: ({**s.coefficient, "grid": GRID, "run": RUN, "init": _one_of(*map(_block, s.inits)),
            "oracle_check": BOOL}, [*s.coefficient, "grid", "run", "init"])
    for name, s in SYSTEMS.items()})
CONVERGENCE_SCHEMAS = _variants("system", {
    name: ({**s.coefficient,
            "grid": _object({"a": NUM, "b": NUM, "boundary": BOUNDARY}, ["a", "b"]),
            "run": CONVERGENCE_RUN,
            "levels": {"type": "array", "items": {"type": "integer", "minimum": 8}, "minItems": 2},
            "oracle": _one_of(*map(_block, s.oracles)), "order_target": NUM, "order_tol": POS_NUM},
           [*s.coefficient, "grid", "run", "levels", "oracle"])
    for name, s in SYSTEMS.items()})

# the families that the exact command samples, each with its coefficient and axes
EXACT_KINDS = ("carroll", "generalized", "constant_amplitude", "simple_wave", "separable",
               "overdetermined")
EXACT_SCHEMA = _object({"command": COMMAND_PROP, "solution": _one_of(
    *(_block(kind, coefficient=True, axes=True) for kind in EXACT_KINDS))}, ["solution"])

CLASSIFY_SCHEMA = _object({"command": COMMAND_PROP, "flux": FLUX,
                           "samples": _object({"u": AXIS, "v": AXIS}, ["u", "v"]),
                           "alpha": FLUX}, ["flux", "samples"])

# a hodograph config is a hodograph block at the root, with beta and its axes
HODOGRAPH_KEYS = _properties("hodograph", coefficient=True, axes=True)
HODOGRAPH_SCHEMA = _object({"command": COMMAND_PROP, **HODOGRAPH_KEYS[0]}, HODOGRAPH_KEYS[1])


def _non_solution(coords, points):
    """theta = sin(2 tau), rho = 1: it solves neither the asymptotic nor the conservation study."""
    C, P = _mesh(coords, points)
    return {"theta": np.sin(2.0 * P) + 0.0 * C, "rho": np.ones(C.shape)}


def _samples(config: dict, control: bool, noise: Callable = None) -> list:
    """The study's fields on each refinement level of its rectangle, coarsest first: its
    solution's, or under a negative control ``noise`` or, where the study does not require
    a solution, `_non_solution`.  A control with ``noise`` still builds the solution, for
    its input checks alone: a block that names no wave (a Carroll wave whose modulus is not
    positive at its amplitude squared) fails as it does without the control."""
    study, sol, rect = config["study"], config.get("solution"), config["rectangle"]
    levels = [[_axis({**rect[a], "n": n}) for a in ("coord", "point")] for n in config["levels"]]
    if control and "solution" not in STUDIES[study].required:
        fields = _non_solution
    elif sol is None:
        raise ConfigError(f"study {study!r} requires a solution block unless negative_control")
    else:
        fields = FAMILIES[sol["kind"]].build({**config, **sol})
    fields = noise if control and noise else fields
    with np.errstate(all="ignore"):  # a field that overflows misses the study's target
        return [FieldSample(coords, points, fields(coords, points)) for coords, points in levels]


def _decay(report) -> tuple:
    """The run of a study judged by the fitted decay order of its residual: a
    control is confirmed where the residual does not decay."""
    return ({"order": report.order, "order_l2": report.order_l2, "linf": report.linf,
             "l2": report.l2, "target": report.target}, report.passed,
            report.order <= 0.5)


def _symmetry(config: dict, control: bool, control_spec: Callable):
    """The study's symmetry, or under a negative control ``control_spec`` of it."""
    spec = SymmetrySpec(*_profiles(config["symmetry"], "phase", "radial"))
    return control_spec(spec) if control else spec


def _full(config, control, target):
    # a negative control samples standard normal noise: per level, fields U, V, M, N
    rng = np.random.default_rng(config.get("seed", 0)) if control else None
    noise = lambda t, x: {k: rng.standard_normal((len(t), len(x))) for k in FullState._fields}
    samples = _samples(config, control, noise)
    return _decay(residual_full(samples, modulus_from_config(config["solution"]["modulus"]),
                                order_target=target))


def _conservation(config, control, target):
    samples = _samples(config, control)
    spec = ConservationSpec(*_profiles(config["conservation"], "amp_weight", "angle_weight"))
    try:
        return _decay(conservation_residual(samples, config["beta"], spec, order_target=target))
    except NeitherOrientationDecays as exc:
        return {"neither_orientation_decays": True, "message": str(exc)}, False, True


def _commutator(config, control, target):
    spec = _symmetry(config, control, PerturbedRadialControl)
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
    return {"max_bracket": worst, "tolerance": tol, "n_jets": int(n)}, worst <= tol, worst > tol


# a residual study samples its solution on the refinement levels of a rectangle
SAMPLED = {"rectangle": _object({"coord": SPAN, "point": SPAN}, ["coord", "point"]),
           "levels": {"type": "array", "items": {"type": "integer", "minimum": 5}, "minItems": 2},
           "order_target": NUM, "negative_control": BOOL}
POLAR = {**WITH_BETA, "solution": _one_of(_block("constant_amplitude"), _block("hodograph")),
         **SAMPLED}
SYMMETRY = _object({"phase": PROFILE, "radial": PROFILE}, ["phase", "radial"])
CONSERVATION = _object({"amp_weight": PROFILE, "angle_weight": PROFILE},
                       ["amp_weight", "angle_weight"])
# a verify study: its config's keys (props, required) and run(config, control,
# target) -> (its report's entries, passed, whether a negative control was
# confirmed); run calls the verify residuals by this module's names, at run time
Study = namedtuple("Study", "props required run")
# every verify study by name: a new study is one entry here and one row of the
# README's "Top-level keys" table
STUDIES = {
    # the full study verifies the Carroll wave of polarization 1 only
    "full": Study({"solution": _block("carroll", coefficient=True, omit=("polarization",)),
                   **SAMPLED, "seed": SEED}, ("solution", "rectangle", "levels"), _full),
    "asymptotic": Study(POLAR, ("beta", "rectangle", "levels"), lambda config, control, target:
                        _decay(residual_asymptotic(_samples(config, control), config["beta"],
                                                   order_target=target))),
    "conservation": Study({**POLAR, "conservation": CONSERVATION},
                          ("beta", "rectangle", "levels", "conservation"), _conservation),
    "linearized_symmetry": Study(
        {**POLAR, "symmetry": SYMMETRY}, ("beta", "solution", "rectangle", "levels", "symmetry"),
        lambda config, control, target: _decay(linearized_symmetry_residual(
            _samples(config, control), config["beta"],
            _symmetry(config, control, AngleSquaredControl), order_target=target))),
    "commutator": Study({**WITH_BETA, "symmetry": SYMMETRY,
                         "jets": {"type": "integer", "minimum": 1}, "seed": SEED,
                         "tol_factor": POS_NUM, "negative_control": BOOL},
                        ("symmetry",), _commutator),
}
VERIFY_SCHEMAS = _variants("study", {name: study[:2] for name, study in STUDIES.items()})

# a command's closed schema, or its variants by the value of its VARIANT_KEYS key
SCHEMAS = {"simulate": SIMULATE_SCHEMAS, "exact": EXACT_SCHEMA, "classify": CLASSIFY_SCHEMA,
           "hodograph": HODOGRAPH_SCHEMA, "verify": VERIFY_SCHEMAS,
           "convergence": CONVERGENCE_SCHEMAS}
VARIANT_KEYS = {"simulate": "system", "convergence": "system", "verify": "study"}


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


def _validate(command: str, config: dict):
    """Check the whole config against its command's schema, or against the variant
    that its system or study names; a config that names none is checked for that key."""
    schema, key = SCHEMAS[command], VARIANT_KEYS.get(command)
    if key is not None:
        name = config.get(key)
        schema = schema[name] if isinstance(name, str) and name in schema else {
            "properties": {key: {"enum": list(schema)}}, "required": [key]}
    error = _block_error(config, schema)
    if error:
        path = "/".join(map(str, error[0])) or "<root>"
        raise ConfigError(f"invalid config at {path}: {error[1]}")


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
    even by `_scaled17`.  E comes from ``log10`` and is corrected by one
    where the scaled value falls outside [10^16, 10^17).  No double in the
    range rounds up to a power of ten: the largest double below 10^k is at
    least 8.7e-17 10^k from it, more than half a unit of the 17th digit.
    An int64 division by 10^8 halves the digits, and ``floor`` of double
    quotients by 1e8 and 1e4 splits the halves into the leading digit and
    four groups.  For integers below 10^9 these are exact: a true quotient
    lies 10^-8 or more below the next integer, far over half an ulp.  The
    trailing zeros are the last group's `_TZ4` entry, plus the earlier
    groups' where it is 0000.  The mask `_KEEP` of (sign, E, significant
    digits) keeps the bytes of the text in the slot.  Every other value
    (NaN, +-inf, tiny or huge) is formatted with ``%``.
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
    high, low = high.astype(float), (digits - high * 10**8).astype(float)  # below 10^9
    lead = np.floor(high / 1e8)
    high -= lead * 1e8
    words = np.empty((v.size, 5), dtype=np.int64)  # into _WORDS: leading digit, then 4 groups
    words[:, 0] = lead + 10_000
    words[:, 1], words[:, 3] = np.floor(high / 1e4), np.floor(low / 1e4)
    words[:, 2], words[:, 4] = high - words[:, 1] * 1e4, low - words[:, 3] * 1e4
    zeros = _TZ4[words[:, 4]]  # the trailing zeros of the 17 digits; the first is never 0
    deep = np.flatnonzero(zeros == 4)
    if deep.size:
        z = _TZ4[words[deep, 1:4].T]
        zeros[deep] += z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0])
    out = np.take(_WORDS, words)
    out &= np.take(_KEEP, (np.where(a == 0, 20, E + 4) + 21 * np.signbit(v)) * 17 + 16 - zeros,
                   axis=0)
    other = np.flatnonzero(~fast & (a != 0))
    if other.size:
        text = b"".join(("%.17g" % x).encode().ljust(40, b"\0") for x in v[other].tolist())
        out[other] = np.frombuffer(text, dtype=_U).reshape(-1, 5)
    return out


def _scaled17(M, e, E):
    """floor(M 2^e 10^(16 - E)) and whether it rounds up, half to even.

    M 5^p in 32-bit limbs is exact in two words, high and low.  With
    r = 64 - s in [7, 57], ``low << r`` puts the s discarded bits on r zero
    bits, so adding the scaled value's last bit cannot overflow; the sum
    passes 2^63 when the rest is over half a unit, or half and the value odd.
    """
    f, s = _POW5[16 - E], (E - 16 - e).astype(_U)  # the scaled value is M f / 2^s
    m0, m1, f0, f1 = M & _U(0xFFFFFFFF), M >> _U(32), f & _U(0xFFFFFFFF), f >> _U(32)
    low0 = m0 * f0
    mid = m1 * f0 + m0 * f1
    low = low0 + (mid << _U(32))
    high = m1 * f1 + (mid >> _U(32)) + (low < low0)  # carry out of the low word
    r = _U(64) - s
    scaled = (low >> s) | (high << r)
    return scaled, (low << r) + (scaled & _U(1)) > _U(2**63)


def _grid(grid_cfg: dict, n: int) -> Grid1D:
    return Grid1D(n=n, a=grid_cfg["a"], b=grid_cfg["b"],
                  boundary=grid_cfg.get("boundary", "periodic"))


# ---------------------------------------------------------------------------
# systems: each pairs one evolution with the exact family it reproduces


def _system(config: dict, block: dict):
    """``(evolve, oracle)`` of the config's system and an init or oracle block.

    ``evolve(grid, run)`` returns the Trajectory from the block's initial state
    on the grid's cell centers.  ``oracle(centers, coordinate)`` stacks the
    block's exact fields like the trajectory's states, or is None.
    """
    system, family = SYSTEMS[config["system"]], FAMILIES[block["kind"]]
    names, params = system.fields, {**config, **block}
    if "beta" in system.coefficient:
        params["beta"] = system.sign * config["beta"]
    # a family without exact fields (a plane wave) has no oracle
    fields = family.build and family.build(params)
    oracle = fields and (lambda x, c: np.stack([v[0] for v in map(fields([c], x).get, names)]))
    if family.from_profile:
        prof = profile_from_config(block["profile"])
        initial = lambda x: [np.asarray(prof(x), dtype=float), *np.zeros((len(names) - 1, len(x)))]
    else:
        initial = lambda x: oracle(x, 0.0)

    def start(grid, run):
        with np.errstate(all="ignore"):  # evolve_* raises on a non-finite initial state
            rows = initial(grid.centers)
        return system.evolve(config, grid, rows, run)
    return start, oracle


# ---------------------------------------------------------------------------
# command handlers: each computes and returns ``(artifacts, extra)``, the files
# it makes by name and the manifest entries it adds; run() owns validation,
# errors, exit codes and every write


def cmd_simulate(config: dict) -> tuple[dict, dict]:
    grid = _grid(config["grid"], config["grid"]["n"])
    run_cfg = SimulationConfig(**config["run"])
    evolve, oracle = _system(config, config["init"])
    if config.get("oracle_check") and oracle is None:
        raise ConfigError("oracle_check is not available for this init family")
    traj = evolve(grid, run_cfg)
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
        extra["oracle_error_linf"] = float(np.max(np.abs(oracle_error(traj, oracle))))
    snapshots = (["coordinate", "cell_center", *SYSTEMS[config["system"]].fields],
                 [*_mesh(traj.coords, grid.centers), *traj.states.transpose(1, 0, 2)])
    return {"snapshots.csv": snapshots}, extra


def _sample_exact(sol: dict):
    """The header and columns of an exact solution block: its family's axes, then its fields."""
    family = FAMILIES[sol["kind"]]
    fields = family.build(sol)
    coords, points = (_axis(sol[axis]) for axis in family.axes)
    with np.errstate(all="ignore"):  # a field that overflows is refused below
        values = fields(coords, points)
    for name, value in values.items():
        if not np.isfinite(value).all():
            i, j = np.argwhere(~np.isfinite(value))[0]
            raise OverflowError(f"{name} is not finite at ({', '.join(family.axes)}) = "
                                f"({float(coords[i])!r}, {float(points[j])!r})")
    if sol["kind"] == "constant_amplitude":
        # the rho and theta columns have always been read back from (U, V);
        # the family's own rho and theta differ from them in the last bits
        values = {"U": values["U"], "V": values["V"],
                  **strain_to_polar(values["U"], values["V"])._asdict()}
    return [*family.axes, *values], [*_mesh(coords, points), *values.values()]


def cmd_exact(config: dict) -> tuple[dict, dict]:
    header, columns = _sample_exact(config["solution"])
    return ({"samples.csv": (header, columns)},
            {"rows": int(np.asarray(columns[0]).size), "columns": header})


# the structure flags of a classify report
FLAGS = ("equal_eigenvalues", "completely_exceptional", "hamiltonian", "decouples")


def cmd_classify(config: dict) -> tuple[dict, dict]:
    f = flux_from_config(config["flux"])
    u = _axis(config["samples"]["u"])
    v = _axis(config["samples"]["v"])
    if np.any(u == 0.0) or np.any(v == 0.0):
        raise ConfigError("sample axes must avoid u = 0 and v = 0")
    U, V = np.meshgrid(u, v, indexing="ij")
    pts = np.column_stack([U.ravel(), V.ravel()])

    with np.errstate(all="ignore"):  # classify refuses a sample where these are not finite
        P, Pu, Pv = (np.asarray(get(U, V), dtype=float) for get in (f.p, f.p_u, f.p_v))
    scale = max(1.0, float(np.max(np.abs(P))))
    if (np.isfinite(P).all() and float(np.max(np.abs(Pu))) <= 1e-12 * scale
            and float(np.max(np.abs(Pv))) <= 1e-12 * scale):
        return {"report.json": {
            "constant_flux": True,
            "flags": dict.fromkeys(FLAGS, True),
            "residuals": dict.fromkeys(FLAGS, 0.0),
            "n_samples": int(pts.shape[0]),
            "note": "constant flux: the system is linear and every family is degenerate",
        }}, {}

    alpha = flux_from_config(config["alpha"]) if "alpha" in config else None
    cls = classify(f, pts, alpha=alpha)
    eig = cls.eigen
    return {"report.json": {
        "constant_flux": False,
        "flags": {name: getattr(cls, name) for name in FLAGS},
        "residuals": cls.residuals,
        "n_samples": cls.n_samples,
        "eigen": {
            "max_abs_grad2_dot_d2": float(np.max(np.abs(eig.grad2_dot_d2))),
            "lambda1_range": [float(eig.lambda1.min()), float(eig.lambda1.max())],
            "lambda2_range": [float(eig.lambda2.min()), float(eig.lambda2.max())],
        },
    }}, {}


def cmd_hodograph(config: dict) -> tuple[dict, dict]:
    # the family at the root of the config: its CSV holds the axes, theta and rho
    header, columns = _sample_exact({**config, "kind": "hodograph"})
    theta, rho = columns[2:]
    return ({"samples.csv": (header, columns)},
            {"rho_range": [float(rho.min()), float(rho.max())],
             "theta_range": [float(theta.min()), float(theta.max())]})


def cmd_verify(config: dict) -> tuple[dict, dict]:
    control = bool(config.get("negative_control", False))
    entries, passed, confirmed = STUDIES[config["study"]].run(
        config, control, config.get("order_target", DEFAULT_ORDER_TARGET))
    doc = {"study": config["study"], **entries, "negative_control": control, "passed": passed}
    if control:
        doc["control_confirmed"] = confirmed
    # a negative control is run to be missed, confirmed or not; its report says which
    return {"report.json": doc}, {"passed": passed and not control}


def cmd_convergence(config: dict) -> tuple[dict, dict]:
    run_cfg = SimulationConfig(**config["run"])
    evolve, oracle = _system(config, config["oracle"])
    report = convergence_study(lambda n: evolve(_grid(config["grid"], n), run_cfg),
                               oracle, config["levels"],
                               order_target=config.get("order_target"),
                               order_tol=config.get("order_tol"))
    doc = {"system": config["system"], "cells": config["levels"], "spacings": report.spacings,
           "linf": report.linf, "l2": report.l2, "order": report.order, "order_l2": report.order_l2,
           "order_target": report.target, "order_tol": config.get("order_tol"),
           "passed": report.passed}
    return {"report.json": doc}, {"passed": report.passed}


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
    """Load and validate a config, run its command, write its files; return the exit code.

    The handler returns ``(artifacts, extra)``: its files by name (a ``.csv`` as
    ``(header, columns)``, a ``.json`` as a dict) and its manifest entries.  Only
    then is anything written: the artifacts, then ``manifest.json``.

    0: success.  1: a verification or convergence target was missed, or
    a ``verify`` negative control ran (``control_confirmed`` in its report
    says whether it failed as it should).  2: a config error, including a
    config file that cannot be read or is nested too deeply, a ValueError
    from a library input check (a grid whose width overflows a double among
    them), a parameter's OverflowError, a size whose arrays do not fit in
    memory (MemoryError) or an ``outdir`` that is, or lies under, a dangling
    symlink or an existing path other than a directory; the message goes to
    stderr and nothing is written.  3: any other ShearWaveError, such as
    the OracleFailure of a ``simulate`` oracle check or a ``convergence`` study;
    ``manifest.json``, the only file written, gets ``status: "error"`` and
    ``error.{type, message, coordinate}``.  Exits 0, 1 and 3 all leave a manifest.
    """
    try:
        config = _load_config(config_path)
        declared = config.get("command")
        if declared is not None and declared != command:
            raise ConfigError(f"config declares command {declared!r} but {command!r} was invoked")
        _validate(command, config)
        _check_outdir(outdir)
        artifacts, extra = HANDLERS[command](config)
        status = "ok"
    except (ConfigError, ValueError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"config error: a parameter overflows a double: {exc.args[-1]}", file=sys.stderr)
        return 2
    except ShearWaveError as exc:
        error = {"type": type(exc).__name__, "message": str(exc), "coordinate": exc.coordinate}
        error = {key: value for key, value in error.items() if value is not None}
        artifacts, extra, status = {}, {"error": error}, "error"
    for name, artifact in artifacts.items():
        if name.endswith(".csv"):
            _write_csv(outdir / name, *artifact)
        else:
            _write_json(outdir / name, artifact)
    _write_json(outdir / "manifest.json", {"package": "shearwaves", "version": __version__,
                                           "command": command, "config": config,
                                           "status": status, **extra})
    if status == "error":
        print(f"{command} failed: {error['type']}: {error['message']} (manifest in {outdir})",
              file=sys.stderr)
        return 3
    passed = extra.get("passed", True)
    if not quiet:
        print(f"wrote {outdir}" if passed else f"wrote {outdir} (target missed)")
    return 0 if passed else 1


_PARSER = argparse.ArgumentParser(  # once: one process may run main for many commands
    prog="shearwaves",
    description="Exact solutions, finite-volume evolution, and structural "
                "verification for 1D nonlinear shear waves.",
)
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--config", required=True, help="path to a JSON run configuration")
_PARSER.add_argument("--out", default="out", help="artifact output directory")
_PARSER.add_argument("--quiet", action="store_true", help="suppress status output")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    return run(args.command, args.config, Path(args.out), args.quiet)


if __name__ == "__main__":
    sys.exit(main())
