"""Output checks for benchmark jobs, each against an exact oracle.

``check_job(job, code, outdir, stderr)`` returns ``(ok, detail, error)``:
whether the job's exit code and artifacts are correct, a short reason when
they are not, and the oracle error the check measured (``None`` when the
check is exact or has no error to report).

The oracles come from the paper's exact families: Carroll waves and
constant-amplitude envelopes stay exact at any amplitude, the simple wave and
the hodograph field satisfy implicit relations that are evaluated directly,
and the overdetermined field lies on a level set of the flux.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from shearwaves.constitutive import LEVEL_SET_TOL, flux_from_config, modulus_from_config
from shearwaves.exact import (
    HODOGRAPH_TOL,
    SIMPLE_WAVE_TOL,
    CarrollWave,
    FullState,
    HodographData,
    StrainState,
    carroll_full_state,
    eval_asymptotic_linear,
    eval_separable,
    generalized_carroll_full_state,
    hodograph_forward,
    sample_simple_wave,
    strain_to_polar,
)
from shearwaves.profiles import profile_from_config
from shearwaves.simulate import Grid1D, SimulationConfig, evolve_asymptotic, evolve_full

# Oracle tolerance per (system, scheme, n), as a share of the wave's
# amplitude: the Carroll or envelope amplitude A, or the sine amplitude of a
# scalar profile.  n is the cell count, the finest level for convergence
# jobs.  Each share is about three times the largest error/amplitude seen at
# that n over seeds 0-49 of evolve_coarse and 0-14 of evolve_fine, so a change
# that loses accuracy fails these checks, and none exceeds MAX_TOL_SHARE, so an
# output far from the wave (all zeros, say) fails them too.
ORACLE_TOL = {
    ("full", "muscl_minmod", 64): 0.081,
    ("full", "muscl_minmod", 128): 0.019,
    ("full", "muscl_minmod", 256): 0.021,
    ("full", "muscl_minmod", 512): 0.0049,
    ("full", "muscl_minmod", 4096): 1.0e-4,
    ("full", "muscl_minmod", 8192): 2.5e-5,
    ("full", "lax_friedrichs", 128): 0.12,
    ("full", "lax_friedrichs", 512): 0.026,
    ("asymptotic", "muscl_minmod", 64): 0.077,
    ("asymptotic", "muscl_minmod", 256): 0.021,
    ("asymptotic", "muscl_minmod", 8192): 7.5e-5,
    ("asymptotic", "muscl_minmod", 16384): 1.4e-5,
    ("asymptotic", "lax_friedrichs", 128): 0.1,
    ("asymptotic", "lax_friedrichs", 512): 0.026,
    ("scalar", "muscl_minmod", 128): 0.019,
    ("scalar", "muscl_minmod", 512): 0.0018,
    ("scalar", "lax_friedrichs", 256): 0.029,
}
# finest level (256 cells) of the convergence studies, same rule
CONVERGENCE_TOL = {"full": 0.0073, "asymptotic": 0.0088}
MAX_TOL_SHARE = 0.25

# The known class of each flux the classify jobs use, from the eigenstructure
# of u_t = [P u]_x, v_t = [P v]_x.  None means the flag is left open.
CLASSIFY_FLAGS = {
    "product": {"equal_eigenvalues": False, "completely_exceptional": False,
                "hamiltonian": True, "decouples": True},
    "ratio": {"equal_eigenvalues": True, "completely_exceptional": True,
              "hamiltonian": False, "decouples": None},
    "sum_squares": {"equal_eigenvalues": False, "completely_exceptional": False,
                    "hamiltonian": False},
}


def wave_amplitude(cfg: dict) -> float:
    """The amplitude the oracle tolerance of a simulate or convergence job scales with."""
    init = cfg.get("init") or cfg["oracle"]
    if cfg["system"] == "scalar":
        return float(init["profile"]["amp"])
    return float(init["amplitude"])


def _read_csv(path: Path):
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _fail(detail):
    return False, detail, None


def _check_error(job, outdir, stderr):
    if job["expect"] == 2:
        if not stderr.startswith("config error:"):
            return _fail(f"exit 2 without a config error message: {stderr[:80]!r}")
        return True, "", None
    manifest = _read_json(outdir / "manifest.json")
    if manifest.get("status") != "error":
        return _fail(f"manifest status {manifest.get('status')!r}")
    if manifest.get("error", {}).get("type") != job["error"]:
        return _fail(f"manifest names {manifest.get('error')!r}, expected {job['error']}")
    return True, "", None


def _final_state(outdir, n_fields):
    header, data = _read_csv(outdir / "snapshots.csv")
    coords = data[:, 0]
    first = data[coords == coords[0], 2:2 + n_fields]
    last = data[coords == coords[-1], 2:2 + n_fields]
    return float(coords[-1]), data[coords == coords[-1], 1], first, last


def _oracle_error(job, outdir):
    """Largest deviation of the final snapshot from the exact wave the run started on."""
    cfg = job["config"]
    init = cfg["init"]
    if cfg["system"] == "scalar":
        # evolve_scalar solves rho_X = 3 beta rho^2 rho_tau, the simple-wave
        # family of -beta
        X, centers, _, last = _final_state(outdir, 1)
        ref = [sample_simple_wave(-cfg["beta"], profile_from_config(init["profile"]),
                                  [X], centers)[0]]
    elif cfg["system"] == "full":
        X, centers, _, last = _final_state(outdir, 4)
        wave = CarrollWave.from_modulus(modulus_from_config(cfg["modulus"]), init["amplitude"],
                                        init["wavenumber"], init.get("polarization", 1))
        ref = carroll_full_state(wave, centers, X)
    else:
        X, centers, _, last = _final_state(outdir, 2)
        ref = eval_asymptotic_linear(cfg["beta"], init["amplitude"],
                                     profile_from_config(init["profile"]), X, centers)
    return float(np.max(np.abs(last - np.column_stack(ref))))


def _check_oracle(job, outdir):
    """A run before breaking against its exact family, computed here from the CSV.

    Carroll waves and constant-amplitude envelopes are exact at any
    amplitude; a scalar run is compared with rho = Phi(tau + 3 beta X rho^2).
    """
    cfg = job["config"]
    err = _oracle_error(job, outdir)
    tol = ORACLE_TOL[(cfg["system"], cfg["run"]["scheme"], cfg["grid"]["n"])] * wave_amplitude(cfg)
    if not err <= tol:
        return False, f"oracle error {err:.3e} > {tol:.3e}", err
    return True, "", err
def _check_shock(job, outdir):
    """Scalar run past breaking: conservative and total-variation diminishing."""
    manifest = _read_json(outdir / "manifest.json")
    tv = manifest["diagnostics"]["total_variation"]
    if not tv[-1][0] <= tv[0][0] * (1.0 + 1e-12):
        return _fail(f"total variation grew from {tv[0][0]!r} to {tv[-1][0]!r}")
    _, _, first, last = _final_state(outdir, 1)
    m0, m1 = float(np.sum(first)), float(np.sum(last))
    if not abs(m1 - m0) <= 1e-12 * len(first) * max(1.0, abs(m0) / len(first)):
        return _fail(f"cell sum drifted from {m0!r} to {m1!r}")
    return True, "", None


def _check_convergence(job, outdir):
    cfg = job["config"]
    report = _read_json(outdir / "report.json")
    linf = report["linf"]
    tol = CONVERGENCE_TOL[cfg["system"]] * wave_amplitude(cfg)
    if not (report["passed"] and linf[-1] < linf[0] and linf[-1] <= tol):
        return False, f"convergence linf {linf!r} (tol {tol:.3e})", linf[-1]
    return True, "", linf[-1]


def _check_hodograph(job, outdir):
    cfg = job["config"]
    header, data = _read_csv(outdir / "samples.csv")
    if header != ["X", "tau", "theta", "rho"] or len(data) != cfg["X"]["n"] * cfg["tau"]["n"]:
        return _fail(f"unexpected samples.csv shape {header} x {len(data)}")
    hd = HodographData(profile_from_config(cfg["phase"]), profile_from_config(cfg["radial"]))
    Xf, tf = hodograph_forward(hd, cfg["beta"], data[:, 2], data[:, 3])
    err = float(max(np.max(np.abs(Xf - data[:, 0])), np.max(np.abs(tf - data[:, 1]))))
    if not err <= HODOGRAPH_TOL:
        return False, f"hodograph forward residual {err:.3e}", err
    return True, "", err


def _check_simple_wave(job, outdir):
    sol = job["config"]["solution"]
    _, data = _read_csv(outdir / "samples.csv")
    prof = profile_from_config(sol["profile"])
    beta = float(sol["beta"])
    worst = 0.0
    # point by point, as the solver evaluates the relation
    for X, tau, rho in data:
        g = abs(rho - float(prof(tau - 3.0 * beta * X * rho * rho)))
        worst = max(worst, g / max(1.0, abs(rho)))
    if not worst <= SIMPLE_WAVE_TOL:
        return False, f"simple-wave residual {worst:.3e}", worst
    return True, "", worst


def _check_level_set(job, outdir):
    sol = job["config"]["solution"]
    _, data = _read_csv(outdir / "samples.csv")
    f = flux_from_config(sol["flux"])
    level = float(sol["level"])
    err = float(np.max(np.abs(f.p(data[:, 2], data[:, 3]) - level)))
    if not err <= LEVEL_SET_TOL * max(1.0, level):
        return False, f"level-set residual {err:.3e}", err
    return True, "", err


def _check_classify(job, outdir):
    report = _read_json(outdir / "report.json")
    expected = CLASSIFY_FLAGS[job["config"]["flux"]["kind"]]
    got = {k: report["flags"][k] for k in expected}
    if got != expected:
        return _fail(f"flags {got} != {expected}")
    return True, "", None


def _check_verify(job, outdir):
    report = _read_json(outdir / "report.json")
    if not (report["passed"] and report["order"] >= report["target"]):
        return _fail(f"verify order {report.get('order')!r} vs {report.get('target')!r}")
    return True, "", None


def _axis(cfg):
    return np.linspace(cfg["min"], cfg["max"], cfg["n"])


def _mesh(a, b):
    return np.meshgrid(a, b, indexing="ij")


def _exact_columns(sol):
    """The columns of an exact family, evaluated directly through the library."""
    kind = sol["kind"]
    if kind in ("carroll", "generalized"):
        m = modulus_from_config(sol["modulus"])
        T, X = _mesh(_axis(sol["t"]), _axis(sol["x"]))
        if kind == "carroll":
            wave = CarrollWave.from_modulus(m, sol["amplitude"], sol["wavenumber"],
                                            sol.get("polarization", 1))
            return [T, X, *carroll_full_state(wave, X, T)]
        return [T, X, *generalized_carroll_full_state(
            m, sol["amplitude"], profile_from_config(sol["profile"]), X, T,
            sol.get("direction", -1), sol.get("polarization", 1))]
    if kind == "constant_amplitude":
        Xc, Tau = _mesh(_axis(sol["X"]), _axis(sol["tau"]))
        U, V = eval_asymptotic_linear(sol["beta"], sol["amplitude"],
                                      profile_from_config(sol["profile"]), Xc, Tau)
        return [Xc, Tau, U, V, *strain_to_polar(U, V)]
    if kind == "separable":
        t, x = _axis(sol["t"]), _axis(sol["x"])
        s = eval_separable(flux_from_config(sol["flux"]), sol["k"], sol["phi0"], sol["dphi0"], t)
        T, X = _mesh(t, x)
        return [T, X, np.broadcast_to(s.phi[:, None], T.shape), s.u_field(x), s.v_field(x)]
    raise KeyError(f"no direct evaluation for exact family {kind!r}")


def _simulate_columns(cfg):
    """Snapshot columns of a simulate job, evolved directly through the library."""
    g = cfg["grid"]
    grid = Grid1D(n=g["n"], a=g["a"], b=g["b"], boundary=g.get("boundary", "periodic"))
    run = SimulationConfig(**cfg["run"])
    init = cfg["init"]
    if cfg["system"] == "full":
        m = modulus_from_config(cfg["modulus"])
        wave = CarrollWave.from_modulus(m, init["amplitude"], init["wavenumber"],
                                        init.get("polarization", 1))
        traj = evolve_full(m, grid, FullState(*carroll_full_state(wave, grid.centers, 0.0)), run)
    else:
        U, V = eval_asymptotic_linear(cfg["beta"], init["amplitude"],
                                      profile_from_config(init["profile"]), 0.0, grid.centers)
        traj = evolve_asymptotic(cfg["beta"], grid, StrainState(U, V), run)
    n_snap = len(traj.coords)
    cols = [np.repeat(traj.coords, grid.n), np.tile(grid.centers, n_snap)]
    return cols + [traj.states[:, k, :].ravel() for k in range(traj.states.shape[1])]


def _check_roundtrip(job, outdir):
    """The CSV read back equals the direct library evaluation bit for bit."""
    if job["command"] == "exact":
        _, data = _read_csv(outdir / "samples.csv")
        cols = _exact_columns(job["config"]["solution"])
    else:
        _, data = _read_csv(outdir / "snapshots.csv")
        cols = _simulate_columns(job["config"])
    if data.shape != (np.asarray(cols[0]).size, len(cols)):
        return _fail(f"CSV shape {data.shape} vs {len(cols)} columns of {np.size(cols[0])}")
    for k, col in enumerate(cols):
        if not np.array_equal(data[:, k], np.ravel(np.asarray(col, dtype=float))):
            return _fail(f"CSV column {k} differs from the direct evaluation")
    return True, "", None


CHECKS = {
    "oracle": _check_oracle,
    "shock": _check_shock,
    "convergence": _check_convergence,
    "hodograph": _check_hodograph,
    "simple_wave": _check_simple_wave,
    "level_set": _check_level_set,
    "classify": _check_classify,
    "verify": _check_verify,
    "roundtrip": _check_roundtrip,
}


def check_job(job: dict, code, outdir: Path, stderr: str):
    """Check one finished job; never raises for a wrong or missing artifact."""
    if code != job["expect"]:
        return _fail(f"exit code {code!r}, expected {job['expect']}")
    try:
        if job["check"] == "error":
            return _check_error(job, outdir, stderr)
        return CHECKS[job["check"]](job, outdir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return _fail(f"{type(exc).__name__} while checking: {exc}")
