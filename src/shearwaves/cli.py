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
per distinct value, not once per row; the bytes are the same either way.

Every command goes through ``run``.  Exit codes: 0 success, 1 a
verification or convergence target missed, 2 config error (no manifest),
3 solver or construction failure (the manifest names the error).  A
negative-control ``verify`` run always exits 1; its ``report.json`` says in
``control_confirmed`` whether the control failed as it should.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

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
    eval_asymptotic_linear,
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

SIMULATE_SCHEMA = {
    "type": "object",
    "properties": {
        "command": COMMAND_PROP,
        "system": {"enum": ["full", "asymptotic", "scalar"]},
        "modulus": MODULUS,
        "beta": NUM,
        "grid": GRID,
        "run": RUN,
        "init": {"type": "object"},
        "oracle_check": {"type": "boolean"},
    },
    "required": ["system", "grid", "run", "init"],
    "additionalProperties": False,
}
CARROLL_BLOCK = _kind("carroll", {"amplitude": POS_NUM, "wavenumber": POS_NUM,
                                  "polarization": SIGN}, ["amplitude", "wavenumber"])
CONSTANT_AMPLITUDE_BLOCK = _kind("constant_amplitude", {"amplitude": POS_NUM, "profile": PROFILE},
                                 ["amplitude", "profile"])
INIT_SCHEMAS = {
    "full": {"oneOf": [CARROLL_BLOCK, _kind("zero", {})]},
    "asymptotic": {
        "oneOf": [
            CONSTANT_AMPLITUDE_BLOCK,
            _kind("plane", {"profile": PROFILE}, ["profile"]),
        ]
    },
    "scalar": {
        "oneOf": [_kind("profile", {"profile": PROFILE}, ["profile"])]
    },
}

EXACT_SCHEMA = {
    "type": "object",
    "properties": {
        "command": COMMAND_PROP,
        "solution": {
            "oneOf": [
                _kind("carroll", {"modulus": MODULUS, "amplitude": POS_NUM,
                                  "wavenumber": POS_NUM, "polarization": SIGN,
                                  "x": AXIS, "t": AXIS},
                      ["modulus", "amplitude", "wavenumber", "x", "t"]),
                _kind("generalized", {"modulus": MODULUS, "amplitude": POS_NUM,
                                      "profile": PROFILE, "direction": SIGN,
                                      "polarization": SIGN, "x": AXIS, "t": AXIS},
                      ["modulus", "amplitude", "profile", "x", "t"]),
                _kind("constant_amplitude", {"beta": NUM, "amplitude": POS_NUM,
                                             "profile": PROFILE, "X": AXIS, "tau": AXIS},
                      ["beta", "amplitude", "profile", "X", "tau"]),
                _kind("simple_wave", {"beta": NUM, "profile": PROFILE,
                                      "X": AXIS, "tau": AXIS},
                      ["beta", "profile", "X", "tau"]),
                _kind("separable", {"flux": FLUX, "k": NUM, "phi0": NUM, "dphi0": NUM,
                                    "x": AXIS, "t": AXIS},
                      ["flux", "k", "phi0", "dphi0", "x", "t"]),
                _kind("overdetermined", {"flux": FLUX, "level": POS_NUM,
                                         "profile": PROFILE, "direction": SIGN,
                                         "v_bracket": {"type": "array", "items": NUM,
                                                       "minItems": 2, "maxItems": 2},
                                         "x": AXIS, "t": AXIS},
                      ["flux", "level", "profile", "x", "t"]),
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

HODOGRAPH_SCHEMA = {
    "type": "object",
    "properties": {
        "command": COMMAND_PROP,
        "beta": NUM,
        "phase": PROFILE,
        "radial": PROFILE,
        "X": AXIS,
        "tau": AXIS,
        "seed": {"type": "array", "items": NUM, "minItems": 2, "maxItems": 2},
    },
    "required": ["beta", "phase", "radial", "X", "tau", "seed"],
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
VERIFY_SOLUTION_SCHEMAS = {
    "carroll": _kind("carroll", {"modulus": MODULUS, "amplitude": POS_NUM,
                                 "wavenumber": POS_NUM}, ["modulus", "amplitude", "wavenumber"]),
    "constant_amplitude": CONSTANT_AMPLITUDE_BLOCK,
    "hodograph": _kind("hodograph", {"phase": PROFILE, "radial": PROFILE,
                                     "seed": {"type": "array", "items": NUM,
                                              "minItems": 2, "maxItems": 2}},
                       ["phase", "radial", "seed"]),
}

CONVERGENCE_SCHEMA = {
    "type": "object",
    "properties": {
        "command": COMMAND_PROP,
        "system": {"enum": ["full", "asymptotic", "scalar"]},
        "modulus": MODULUS,
        "beta": NUM,
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
    "full": CARROLL_BLOCK,
    "asymptotic": CONSTANT_AMPLITUDE_BLOCK,
    "scalar": _kind("simple_wave", {"profile": PROFILE}, ["profile"]),
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


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            config = json.load(f, parse_constant=_reject_constant)
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


def _numpy_to_json(obj):
    """numpy arrays and scalars as the equivalent plain JSON values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, obj: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True, default=_numpy_to_json)
        f.write("\n")


def _write_csv(path: Path, header, columns):
    """Write equal-size columns, one per header name, at full double precision.

    Each column is read in row-major order.  Columns that all share one 2-D
    shape, some of them broadcast views, are a mesh: see `_write_mesh_rows`.
    Any other columns are written as one mesh row.
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
        _write_mesh_rows(f, columns)


def _row_major(columns) -> tuple:
    """The values of equal-shape columns as one flat tuple, row by row."""
    return tuple(np.stack(columns, axis=-1).ravel().tolist()) if columns else ()


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
    inner_fits = k <= CSV_BLOCK_ROWS  # one template holds every inner index
    kinds = ["outer" if c.strides[1] == 0 else
             "inner" if c.strides[0] == 0 and inner_fits else "full" for c in columns]
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
# systems: each pairs one evolution with the exact family it reproduces


class System(NamedTuple):
    """One of the three systems, wired from a config and an init/oracle block.

    ``evolve(grid, run)`` evolves the block's initial state from the grid's
    cell centers and returns the Trajectory.  ``oracle(centers, coordinate)``
    evaluates the exact fields at that coordinate, stacked like the
    trajectory's states; it is None when the block names no exact family.
    """

    evolve: Callable
    oracle: Optional[Callable]


def _beta(config: dict, system: str) -> float:
    if "beta" not in config:
        raise ConfigError(f"system {system!r} requires 'beta'")
    return float(config["beta"])


def _full_system(config: dict, block: dict) -> System:
    if "modulus" not in config:
        raise ConfigError("system 'full' requires a 'modulus' block")
    m = modulus_from_config(config["modulus"])
    if block["kind"] == "zero":
        oracle = lambda x, t: np.zeros((4, len(x)))
    else:
        wave = CarrollWave.from_modulus(m, block["amplitude"], block["wavenumber"],
                                        block.get("polarization", 1))
        oracle = lambda x, t: np.stack(carroll_full_state(wave, x, t))
    return System(
        lambda grid, run: evolve_full(m, grid, FullState(*oracle(grid.centers, 0.0)), run),
        oracle)


def _asymptotic_system(config: dict, block: dict) -> System:
    beta = _beta(config, "asymptotic")
    prof = profile_from_config(block["profile"])
    if block["kind"] == "plane":
        oracle = None
        initial = lambda x: StrainState(np.asarray(prof(x), dtype=float), np.zeros_like(x))
    else:
        amp = block["amplitude"]
        oracle = lambda x, X: np.stack(eval_asymptotic_linear(beta, amp, prof, X, x))
        initial = lambda x: eval_asymptotic_linear(beta, amp, prof, 0.0, x)
    return System(lambda grid, run: evolve_asymptotic(beta, grid, initial(grid.centers), run),
                  oracle)


def _scalar_system(config: dict, block: dict) -> System:
    beta = _beta(config, "scalar")
    prof = profile_from_config(block["profile"])
    # evolve_scalar solves rho_X = beta (rho^3)_tau, whose simple wave
    # rho = Phi(tau + 3 beta X rho^2) is the family sample_simple_wave builds
    # with -beta
    oracle = lambda x, X: sample_simple_wave(-beta, prof, [X], x)
    return System(
        lambda grid, run: evolve_scalar(beta, grid, np.asarray(prof(grid.centers), dtype=float),
                                        run),
        oracle)


SYSTEMS = {"full": _full_system, "asymptotic": _asymptotic_system, "scalar": _scalar_system}


# ---------------------------------------------------------------------------
# command handlers: each computes, writes its artifacts and returns the
# manifest entries it adds; run() owns validation, errors and exit codes


def cmd_simulate(config: dict, outdir: Path) -> dict:
    _validate(config["init"], INIT_SCHEMAS[config["system"]], where="init block")
    grid = _grid(config["grid"], config["grid"]["n"])
    run_cfg = SimulationConfig(**config["run"])
    system = SYSTEMS[config["system"]](config, config["init"])
    if config.get("oracle_check") and system.oracle is None:
        raise ConfigError("oracle_check is not available for this init family")
    traj = system.evolve(grid, run_cfg)

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
        ref = system.oracle(grid.centers, float(traj.coords[-1]))
        extra["oracle_error_linf"] = float(np.max(np.abs(traj.final - ref)))
    return extra


def _mesh(coord_axis, point_axis):
    """The (coordinate, point) mesh as read-only broadcast views, indexed [coordinate, point]."""
    coords = np.asarray(coord_axis, dtype=float)
    points = np.asarray(point_axis, dtype=float)
    shape = (coords.size, points.size)
    return np.broadcast_to(coords[:, None], shape), np.broadcast_to(points, shape)


def _sample_exact(sol: dict):
    kind = sol["kind"]
    if kind == "carroll":
        m = modulus_from_config(sol["modulus"])
        wave = CarrollWave.from_modulus(m, sol["amplitude"], sol["wavenumber"],
                                        sol.get("polarization", 1))
        T, X = _mesh(_axis(sol["t"]), _axis(sol["x"]))
        U, V, M, N = carroll_full_state(wave, X, T)
        return ["t", "x", "U", "V", "M", "N"], [T, X, U, V, M, N]
    if kind == "generalized":
        m = modulus_from_config(sol["modulus"])
        prof = profile_from_config(sol["profile"])
        T, X = _mesh(_axis(sol["t"]), _axis(sol["x"]))
        U, V, M, N = generalized_carroll_full_state(
            m, sol["amplitude"], prof, X, T,
            sol.get("direction", -1), sol.get("polarization", 1))
        return ["t", "x", "U", "V", "M", "N"], [T, X, U, V, M, N]
    if kind == "constant_amplitude":
        prof = profile_from_config(sol["profile"])
        Xc, Tau = _mesh(_axis(sol["X"]), _axis(sol["tau"]))
        U, V = eval_asymptotic_linear(sol["beta"], sol["amplitude"], prof, Xc, Tau)
        rho, theta = strain_to_polar(U, V)
        return ["X", "tau", "U", "V", "rho", "theta"], [Xc, Tau, U, V, rho, theta]
    if kind == "simple_wave":
        prof = profile_from_config(sol["profile"])
        Xg = _axis(sol["X"])
        taug = _axis(sol["tau"])
        rho = sample_simple_wave(sol["beta"], prof, Xg, taug)
        Xc, Tau = _mesh(Xg, taug)
        return ["X", "tau", "rho"], [Xc, Tau, rho]
    if kind == "separable":
        f = flux_from_config(sol["flux"])
        t = _axis(sol["t"])
        x = _axis(sol["x"])
        solution = eval_separable(f, sol["k"], sol["phi0"], sol["dphi0"], t)
        T, X = _mesh(t, x)
        u = solution.u_field(x)
        v = solution.v_field(x)
        phi = np.broadcast_to(solution.phi[:, None], T.shape)
        return ["t", "x", "phi", "u", "v"], [T, X, phi, u, v]
    f = flux_from_config(sol["flux"])
    prof = profile_from_config(sol["profile"])
    T, X = _mesh(_axis(sol["t"]), _axis(sol["x"]))
    bracket = tuple(sol.get("v_bracket", (1e-8, 10.0)))
    U, V = eval_overdetermined(f, sol["level"], prof, X, T,
                               sol.get("direction", 1), bracket)
    return ["t", "x", "U", "V"], [T, X, U, V]


def cmd_exact(config: dict, outdir: Path) -> dict:
    header, columns = _sample_exact(config["solution"])
    _write_csv(outdir / "samples.csv", header, columns)
    return {"rows": int(np.asarray(columns[0]).size), "columns": header}


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
            "flags": {"equal_eigenvalues": True, "completely_exceptional": True,
                      "hamiltonian": True, "decouples": True},
            "residuals": {"equal_eigenvalues": 0.0, "completely_exceptional": 0.0,
                          "hamiltonian": 0.0, "decouples": 0.0},
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
        "flags": {
            "equal_eigenvalues": cls.equal_eigenvalues,
            "completely_exceptional": cls.completely_exceptional,
            "hamiltonian": cls.hamiltonian,
            "decouples": cls.decouples,
        },
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
    data = HodographData(phase_fn=profile_from_config(config["phase"]),
                         radial_fn=profile_from_config(config["radial"]))
    X = _axis(config["X"])
    tau = _axis(config["tau"])
    rho, theta = sample_hodograph(data, config["beta"], X, tau, tuple(config["seed"]))
    Xc, Tau = _mesh(X, tau)
    _write_csv(outdir / "samples.csv", ["X", "tau", "theta", "rho"], [Xc, Tau, theta, rho])
    return {"rho_range": [float(rho.min()), float(rho.max())],
            "theta_range": [float(theta.min()), float(theta.max())]}


def _rectangle_samples(config: dict, fields: Callable) -> list:
    """The study's fields on every refinement level of the rectangle, coarsest first.

    ``fields(C, P)`` returns the named fields on one level's (coordinate,
    point) mesh, given as broadcast views.
    """
    rect = config["rectangle"]
    samples = []
    for n in config["levels"]:
        coords = np.linspace(rect["coord"]["min"], rect["coord"]["max"], n)
        points = np.linspace(rect["point"]["min"], rect["point"]["max"], n)
        samples.append(FieldSample(coords, points, fields(*_mesh(coords, points))))
    return samples


def _polar_fields(config: dict, control: bool) -> Callable:
    """``fields(C, P)`` of (theta, rho) from the solution block, or the non-solution
    theta = sin(2 tau), rho = 1 for a negative control of a residual or conservation study."""
    if control and config["study"] in ("asymptotic", "conservation"):
        return lambda C, P: {"theta": np.sin(2.0 * P) + 0.0 * C, "rho": np.ones(C.shape)}
    sol, beta = config["solution"], config["beta"]
    if sol["kind"] == "constant_amplitude":
        prof = profile_from_config(sol["profile"])
        amp = sol["amplitude"]
        return lambda C, P: {"theta": prof(beta * amp**2 * C + P),
                             "rho": np.full(C.shape, float(amp))}
    data = HodographData(phase_fn=profile_from_config(sol["phase"]),
                         radial_fn=profile_from_config(sol["radial"]))
    # the hodograph is sampled on the mesh's two axes
    return lambda C, P: dict(zip(("rho", "theta"),
                                 sample_hodograph(data, beta, C[:, 0], P[0], tuple(sol["seed"]))))


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
    jets = np.column_stack([
        rng.uniform(0.0, 2.0 * np.pi, n),
        rng.uniform(0.5, 1.5, n),
        rng.uniform(-1.0, 1.0, n),
        rng.uniform(-1.0, 1.0, n),
        rng.uniform(-1.0, 1.0, n),
        rng.uniform(-1.0, 1.0, n),
    ])
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
    sol = config.get("solution")

    if study == "full":
        if sol is None or sol.get("kind") != "carroll":
            raise ConfigError("study 'full' requires a 'carroll' solution block")
        _validate(sol, VERIFY_SOLUTION_SCHEMAS["carroll"], where="solution block")
        m = modulus_from_config(sol["modulus"])
        wave = CarrollWave.from_modulus(m, sol["amplitude"], sol["wavenumber"])
        if control:
            rng = np.random.default_rng(config.get("seed", 0))
            fields = lambda C, P: {k: rng.standard_normal(C.shape) for k in ("U", "V", "M", "N")}
        else:
            fields = lambda C, P: dict(zip(("U", "V", "M", "N"), carroll_full_state(wave, P, C)))
        report = residual_full(_rectangle_samples(config, fields), m, order_target=target)
        return _order_report(study, report, target, control)

    if "beta" not in config:
        raise ConfigError(f"study {study!r} requires 'beta'")
    beta = config["beta"]
    # a negative control of the residual and conservation studies samples its
    # own non-solution, but a solution block it is given must still be valid
    if sol is not None or not control or study == "linearized_symmetry":
        if sol is None or sol.get("kind") not in ("constant_amplitude", "hodograph"):
            raise ConfigError(f"study {study!r} requires a solution block "
                              f"(constant_amplitude or hodograph)")
        _validate(sol, VERIFY_SOLUTION_SCHEMAS[sol["kind"]], where="solution block")
    block = {"conservation": "conservation", "linearized_symmetry": "symmetry"}.get(study)
    if block is not None and block not in config:
        raise ConfigError(f"{study} study requires a {block!r} block")
    samples = _rectangle_samples(config, _polar_fields(config, control))

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
    system = SYSTEMS[config["system"]](config, config["oracle"])
    report = convergence_study(lambda n: system.evolve(_grid(config["grid"], n), run_cfg),
                               system.oracle, config["levels"],
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


def run(command: str, config_path: str, outdir: Path, quiet: bool = False) -> int:
    """Load and validate a config, run its command, write the manifest; return the exit code.

    0: success.  1: a verification or convergence target was missed, or
    a ``verify`` negative control ran (``control_confirmed`` in its report
    says whether it failed as it should).  2: a config error, including a
    ValueError from a library input check; the message goes to stderr and
    no manifest is written.  3: any other ShearWaveError; ``manifest.json``
    gets ``status: "error"`` and ``error.{type, message, coordinate}``.
    Exits 0, 1 and 3 all leave a manifest.
    """
    try:
        config = _load_config(config_path)
        declared = config.get("command")
        if declared is not None and declared != command:
            raise ConfigError(f"config declares command {declared!r} but {command!r} was invoked")
        _validate(config, SCHEMAS[command])
        extra = HANDLERS[command](config, outdir)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
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
