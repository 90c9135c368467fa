"""Command-line entry point: JSON config in, CSV/JSON artifacts out.

Subcommands: simulate, exact, classify, hodograph, verify, convergence.
Each exact solution family is one `FAMILIES` entry plus one README row, each
evolved system one `SYSTEMS` entry plus its README rows, and each verify
study one `STUDIES` entry plus one README row.
Every run validates its whole config against one closed schema of `SCHEMAS`,
in the config language of `schema`.  The command's handler
``cmd_<command>(config)`` computes and returns its artifacts by file name with
its manifest entries, and writes nothing.  Only then does ``run`` write the
deterministic artifact set into the output directory, in the byte format of
`artifacts`: ``snapshots.csv`` / ``samples.csv`` / ``report.json`` depending on
the command, then a ``manifest.json`` that echoes the config and records
diagnostics; a failed run writes the manifest alone.

Every command goes through ``run``, whose docstring gives the exit codes:
0 success, 1 a target missed, 2 a config error, 3 a solver failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .artifacts import _write_csv, _write_json
from .constitutive import flux_from_config, modulus_from_config
from .errors import ConfigError, NeitherOrientationDecays, ShearWaveError
from .exact import (CarrollWave, FullState, HodographData, StrainState, carroll_full_state,
                    eval_overdetermined, eval_separable, generalized_carroll_full_state,
                    sample_hodograph, sample_simple_wave, strain_to_polar)
from .analysis import classify
from .profiles import profile_from_config
from .schema import (AXIS, BOOL, CONVERGENCE_GRID, CONVERGENCE_RUN, FLUX, GRID, NUM, PAIR, POS_NUM,
                     PROFILE, RUN, SIGN, SPAN, WITH_BETA, WITH_MODULUS, _block_error, _kind,
                     _load_config, _object)
from .simulate import Grid1D, SimulationConfig, evolve_asymptotic, evolve_full, evolve_scalar
from .verify import (AngleSquaredControl, ConservationSpec, DEFAULT_ORDER_TARGET, FieldSample,
                     PerturbedRadialControl, SymmetrySpec, commutator_residual,
                     conservation_residual, convergence_study, linearized_symmetry_residual,
                     oracle_error, residual_asymptotic, residual_full)

COMMANDS = ("simulate", "exact", "classify", "hodograph", "verify", "convergence")
COMMAND_PROP = {"enum": list(COMMANDS)}

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


def _given(params: dict, *names) -> dict:
    """The optional ``names`` that ``params`` sets: the rest take their library defaults."""
    return {name: params[name] for name in names if name in params}


def _on_mesh(closed_form: Callable) -> Callable:
    """The builder of a closed-form family, whose fields take the mesh's broadcast views."""
    def build(params):
        closed = closed_form(params)
        return lambda coords, points: closed(*_mesh(coords, points))
    return build


@_on_mesh
def _carroll(params):
    wave = CarrollWave.from_modulus(modulus_from_config(params["modulus"]), params["amplitude"],
                                    params["wavenumber"], **_given(params, "polarization"))
    return lambda T, X: carroll_full_state(wave, X, T)._asdict()


@_on_mesh
def _generalized(params):
    m, prof = modulus_from_config(params["modulus"]), profile_from_config(params["profile"])
    amp, signs = params["amplitude"], _given(params, "direction", "polarization")
    return lambda T, X: generalized_carroll_full_state(m, amp, prof, X, T, **signs)._asdict()


@_on_mesh
def _constant_amplitude(params):
    prof = profile_from_config(params["profile"])
    beta, amp = params["beta"], params["amplitude"]
    return lambda X, tau: _polar(np.full(X.shape, float(amp)), prof(beta * amp**2 * X + tau))


@_on_mesh
def _overdetermined(params):
    f, prof = flux_from_config(params["flux"]), profile_from_config(params["profile"])
    given = _given(params, "direction", "v_bracket")
    return lambda T, X: eval_overdetermined(f, params["level"], prof, X, T, **given)._asdict()


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
            "grid": CONVERGENCE_GRID, "run": CONVERGENCE_RUN,
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
    """theta = sin(2 tau), rho = 1 and U = sin(2x), V = M = N = 1: the one field that every
    negative control samples, and which solves none of the sampled studies."""
    C, P = _mesh(coords, points)
    wave, one = np.sin(2.0 * P) + 0.0 * C, np.ones(C.shape)
    return {"theta": wave, "rho": one, "U": wave, "V": one, "M": one, "N": one}


def _samples(config: dict, control: bool) -> list:
    """The study's fields on each refinement level of its rectangle, coarsest first: its
    solution's, or under a negative control `_non_solution`.  A control still builds a
    given solution block, for its input checks alone: a block that names no wave (a Carroll
    wave whose modulus is not positive at its amplitude squared) fails as it does without
    the control."""
    sol, rect = config.get("solution"), config["rectangle"]
    levels = [[_axis({**rect[a], "n": n}) for a in ("coord", "point")] for n in config["levels"]]
    if sol is not None:
        fields = FAMILIES[sol["kind"]].build({**config, **sol})
    elif not control:
        raise ConfigError(f"study {config['study']!r} requires a solution block unless "
                          "negative_control")
    fields = _non_solution if control else fields
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


def _conservation(config, control, target):
    samples = _samples(config, control)
    spec = ConservationSpec(*_profiles(config["conservation"], "amp_weight", "angle_weight"))
    try:
        return _decay(conservation_residual(samples, config["beta"], spec, order_target=target))
    except NeitherOrientationDecays as exc:
        return {"neither_orientation_decays": True, "message": str(exc)}, False, True


def _commutator(config, control, target):
    spec = _symmetry(config, control, PerturbedRadialControl)
    # the first n points of the Kronecker sequence frac(i sqrt(p)), p = 2, 3, 5, 7, 11, 13,
    # on the box theta in [0, 2 pi], rho in [0.5, 1.5] and each derivative in [-1, 1]
    n = config.get("jets", 100)
    unit = np.outer(np.arange(1, n + 1), np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0])) % 1.0
    jets = np.array([0.0, 0.5, -1.0, -1.0, -1.0, -1.0]) + unit * np.array(
        [2.0 * np.pi, 1.0, 2.0, 2.0, 2.0, 2.0])
    beta = config.get("beta", 1.0)
    with np.errstate(all="ignore"):  # a NaN bracket, or an infinite tolerance, fails below
        worst = commutator_residual(spec, beta, jets)
        phi = spec.characteristic(*jets.T[:4])
        scale = max(1.0, float(np.max(np.abs(phi))), abs(beta) * float(np.max(jets[:, 1] ** 2)))
    tol = config.get("tol_factor", 1e-10) * scale
    return ({"max_bracket": worst, "tolerance": tol, "n_jets": int(n)}, worst <= tol < math.inf,
            worst > tol)


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
                   **SAMPLED}, ("solution", "rectangle", "levels"),
                  lambda config, control, target: _decay(residual_full(
                      _samples(config, control), modulus_from_config(config["solution"]["modulus"]),
                      order_target=target))),
    "asymptotic": Study(POLAR, ("beta", "rectangle", "levels"), lambda config, control, target:
                        _decay(residual_asymptotic(_samples(config, control), config["beta"],
                                                   order_target=target))),
    "conservation": Study({**POLAR, "conservation": CONSERVATION},
                          ("beta", "rectangle", "levels", "conservation"), _conservation),
    "linearized_symmetry": Study(
        {**POLAR, "symmetry": SYMMETRY}, ("beta", "solution", "rectangle", "levels", "symmetry"),
        lambda config, control, target: _decay(linearized_symmetry_residual(
            _samples(config, False), config["beta"],
            _symmetry(config, control, AngleSquaredControl), order_target=target))),
    "commutator": Study({**WITH_BETA, "symmetry": SYMMETRY,
                         "jets": {"type": "integer", "minimum": 1},
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
    grid = Grid1D(**config["grid"])
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
    alpha = flux_from_config(config["alpha"]) if "alpha" in config else None
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
    report = convergence_study(lambda n: evolve(Grid1D(n=n, **config["grid"]), run_cfg), oracle,
                               config["levels"], **_given(config, "order_target", "order_tol"))
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
