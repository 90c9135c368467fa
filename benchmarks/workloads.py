"""Seeded job lists for the four benchmark workloads.

A job is a dict with an ``id``, the CLI ``command``, the ``config`` that the
program receives as a JSON file, the ``expect``-ed exit code, the ``check``
that the harness applies to its output, and the ``points`` it solves (for the
points-per-second metric).  The same (workload, seed) pair always yields the
same list, byte for byte once serialised.

Job parameters are drawn from the seed, but the cost of each job is held
roughly fixed: grid sizes come from fixed ladders and each evolution's end
coordinate is chosen to give a fixed number of time steps.  Different seeds
therefore exercise different waves without changing how much work a round
does.
"""
from __future__ import annotations

import math
import random

TWO_PI = 2.0 * math.pi
CFL = 0.4


def _job(jobs, command, config, check, expect=0, points=0, **extra):
    jid = f"{len(jobs):02d}-{command}-{check}"
    jobs.append({"id": jid, "command": command, "config": {"command": command, **config},
                 "expect": expect, "check": check, "points": points, **extra})


def _cubic(rng):
    return {"kind": "cubic", "mu0": rng.uniform(0.8, 1.2), "mu1": rng.uniform(0.2, 0.6)}


def _sine(rng, offset=0.0):
    prof = {"kind": "sine", "amp": rng.uniform(0.5, 1.0), "freq": float(rng.choice((1, 2)))}
    if offset:
        prof["offset"] = offset
    return prof


def _carroll_speed(modulus, amplitude):
    """Largest characteristic speed of a Carroll wave of a cubic modulus (rho = 1)."""
    s = amplitude * amplitude
    slow = modulus["mu0"] + modulus["mu1"] * s
    return math.sqrt(max(slow, slow + 2.0 * s * modulus["mu1"]))


def _end_for_steps(steps, n, speed):
    """End coordinate that a CFL-limited run covers in `steps` steps (half a step short)."""
    return (steps - 0.5) * CFL * (TWO_PI / n) / speed


def _wavenumber(rng, n):
    """One or two waves on the domain, but one only below 256 cells.

    Two waves on 64 or 128 cells are resolved too coarsely for an oracle
    tolerance that stays a small share of the amplitude.
    """
    k = float(rng.choice((1, 2)))
    return k if n >= 256 else 1.0


def _full_sim(rng, n, scheme, steps, stride=0):
    modulus = _cubic(rng)
    amp = rng.uniform(0.5, 1.0)
    init = {"kind": "carroll", "amplitude": amp, "wavenumber": _wavenumber(rng, n),
            "polarization": rng.choice((-1, 1))}
    run = {"end": _end_for_steps(steps, n, _carroll_speed(modulus, amp)),
           "scheme": scheme, "cfl": CFL, "snapshot_stride": stride}
    return {"system": "full", "modulus": modulus,
            "grid": {"n": n, "a": 0.0, "b": TWO_PI, "boundary": "periodic"},
            "run": run, "init": init, "oracle_check": True}


def _asym_sim(rng, n, scheme, steps, stride=0):
    beta = rng.uniform(0.3, 1.0)
    amp = rng.uniform(0.5, 1.0)
    run = {"end": _end_for_steps(steps, n, 3.0 * beta * amp * amp),
           "scheme": scheme, "cfl": CFL, "snapshot_stride": stride}
    profile = {**_sine(rng), "freq": _wavenumber(rng, n)}
    return {"system": "asymptotic", "beta": beta,
            "grid": {"n": n, "a": 0.0, "b": TWO_PI, "boundary": "periodic"},
            "run": run,
            "init": {"kind": "constant_amplitude", "amplitude": amp, "profile": profile},
            "oracle_check": True}


def _scalar_profile(rng):
    """Positive sine profile and its breaking coordinate 1/max(6 beta rho rho')."""
    beta = rng.uniform(0.3, 1.0)
    amp = rng.uniform(0.2, 0.3)
    offset = rng.uniform(0.9, 1.1)
    freq = 1.0
    # steepest characteristic slope, sampled on a fine tau grid
    slope = max(6.0 * beta * (offset + amp * math.sin(t)) * amp * freq * math.cos(t)
                for t in (i * TWO_PI / 4096 for i in range(4096)))
    profile = {"kind": "sine", "amp": amp, "freq": freq, "offset": offset}
    return beta, profile, 1.0 / slope, 3.0 * beta * (offset + amp) ** 2


def _scalar_sim(rng, n, scheme, steps, past_breaking):
    # No "oracle_check": the CLI's scalar oracle evaluates the simple wave
    # with +beta, while evolve_scalar solves the family built with -beta, so
    # the harness checks scalar runs against the simple wave itself.
    beta, profile, x_break, speed = _scalar_profile(rng)
    end = (1.5 if past_breaking else 0.4) * x_break
    # the CFL number is set so the run takes about `steps` steps
    cfl = min(0.9, end * speed / (steps * TWO_PI / n))
    return {"system": "scalar", "beta": beta,
            "grid": {"n": n, "a": 0.0, "b": TWO_PI, "boundary": "periodic"},
            "run": {"end": end, "scheme": scheme, "cfl": cfl},
            "init": {"kind": "profile", "profile": profile}}


def _convergence(rng, system, levels, steps):
    n0 = levels[0]
    if system == "full":
        sim = _full_sim(rng, n0, "muscl_minmod", steps)
        oracle = {k: sim["init"][k] for k in ("amplitude", "wavenumber", "polarization")}
        oracle["kind"] = "carroll"
        extra = {"modulus": sim["modulus"]}
    else:
        sim = _asym_sim(rng, n0, "muscl_minmod", steps)
        oracle = dict(sim["init"])
        extra = {"beta": sim["beta"]}
    return {"system": system, **extra, "grid": {"a": 0.0, "b": TWO_PI},
            "run": {"end": sim["run"]["end"], "scheme": "muscl_minmod"},
            "levels": list(levels), "oracle": oracle}


def evolve_coarse(rng):
    # Short simulate and convergence jobs on 64-512 cells.  A step costs about
    # 400 us at n=512 against about 4 us of raw arithmetic, so per-call numpy
    # overhead, the repeated eval_Q validation and the CLI's fixed cost per
    # job dominate.  About one job in ten is an expected failure.
    jobs = []
    for n in (64, 128, 256, 512):
        _job(jobs, "simulate", _full_sim(rng, n, "muscl_minmod", 80), "oracle")
    for n in (128, 512):
        _job(jobs, "simulate", _full_sim(rng, n, "lax_friedrichs", 80), "oracle")
    for n, scheme in ((64, "muscl_minmod"), (256, "muscl_minmod"),
                      (128, "lax_friedrichs"), (512, "lax_friedrichs")):
        _job(jobs, "simulate", _asym_sim(rng, n, scheme, 80), "oracle")
    for n, scheme in ((128, "muscl_minmod"), (512, "muscl_minmod"), (256, "lax_friedrichs")):
        _job(jobs, "simulate", _scalar_sim(rng, n, scheme, 80, past_breaking=False),
             "oracle")
    for n, scheme in ((128, "muscl_minmod"), (256, "lax_friedrichs")):
        _job(jobs, "simulate", _scalar_sim(rng, n, scheme, 120, past_breaking=True), "shock")
    # the CLI's scalar convergence study has the same oracle sign problem
    for system in ("full", "asymptotic"):
        _job(jobs, "convergence", _convergence(rng, system, (64, 128, 256), 40), "convergence")
    # Q = mu0 + mu1 s with mu1 < 0: Q(A^2) > 0 but Q + 2 s Q' < 0 at A^2
    mu1 = -rng.uniform(0.3, 0.5)
    amp = math.sqrt(rng.uniform(0.45, 0.9) / -mu1)
    _job(jobs, "simulate",
         {"system": "full", "modulus": {"kind": "cubic", "mu0": 1.0, "mu1": mu1},
          "grid": {"n": 128, "a": 0.0, "b": TWO_PI}, "run": {"end": 0.5},
          "init": {"kind": "carroll", "amplitude": amp, "wavenumber": 1.0}},
         "error", expect=3, error="HyperbolicityLoss")
    bad = _full_sim(rng, 128, "muscl_minmod", 40)
    bad["run"]["cfl"] = 0.9 + rng.uniform(0.01, 0.5)
    _job(jobs, "simulate", bad, "error", expect=2, error="ConfigError")
    return jobs


def evolve_fine(rng):
    # A few long MUSCL runs on 4096-16384 cells over a short coordinate
    # interval.  Arithmetic and temporary arrays per cell dominate: a change
    # that only cuts call overhead should gain little here, one that
    # evaluates Q fewer times should gain.  The 300 MiB last-level cache holds
    # every array, so this is not a memory-bandwidth workload.
    jobs = []
    for n, steps in ((4096, 600), (8192, 400)):
        _job(jobs, "simulate", _full_sim(rng, n, "muscl_minmod", steps), "oracle")
    for n, steps in ((8192, 600), (16384, 300)):
        _job(jobs, "simulate", _asym_sim(rng, n, "muscl_minmod", steps), "oracle")
    return jobs


HODOGRAPH = {"beta": 1.0, "phase": {"kind": "linear", "k": 1.0},
             "radial": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}, "seed": [0.5, 1.0]}


def _hodograph_window(rng, nX, ntau):
    """A rectangle inside the fold-free family X in [-0.55,-0.45], tau in [-1.7,-1.3]."""
    x0 = rng.uniform(-0.55, -0.53)
    t0 = rng.uniform(-1.7, -1.66)
    return {"X": {"min": x0, "max": x0 + 0.08, "n": nX},
            "tau": {"min": t0, "max": t0 + 0.36, "n": ntau}}


def _axis(lo, hi, n):
    return {"min": lo, "max": hi, "n": n}


def implicit_fields(rng):
    # Scalar Newton, level-set and eigen loops in exact, constitutive,
    # analysis and profiles run once per point and do nearly all the work.
    # This workload never enters simulate, so the prediction for a kernel
    # change here is no change.
    # The two largest jobs are the same 65x33 rectangle size, so that the
    # tail latency lands inside one class of jobs whatever the number of
    # rounds in a run, not on the edge between two classes.
    jobs = []
    for nX, ntau in ((33, 33), (65, 33), (65, 33)):
        _job(jobs, "hodograph", {**HODOGRAPH, **_hodograph_window(rng, nX, ntau)},
             "hodograph", points=nX * ntau)
    # the documented fold: the seed sits where det J vanishes
    _job(jobs, "hodograph", {**HODOGRAPH, "X": _axis(-1.1, -0.9, 5),
                             "tau": _axis(-0.1, 0.1, 5), "seed": [0.0, 1.0]},
         "error", expect=3, error="SingularJacobian", points=0)
    beta, profile, x_break, _ = _scalar_profile(rng)
    nX, ntau = 21, 65
    _job(jobs, "exact", {"solution": {"kind": "simple_wave", "beta": beta, "profile": profile,
                                      "X": _axis(0.0, 0.6 * x_break, nX),
                                      "tau": _axis(0.0, TWO_PI, ntau)}},
         "simple_wave", points=nX * ntau)
    nt, nx = 20, 100
    level = rng.uniform(0.5, 2.0)
    _job(jobs, "exact", {"solution": {"kind": "overdetermined", "flux": {"kind": "ratio"},
                                      "level": level, "profile": _sine(rng, offset=1.5),
                                      "x": _axis(0.0, TWO_PI, nx), "t": _axis(0.0, 1.0, nt)}},
         "level_set", points=nt * nx)
    for flux, n in (("product", 21), ("ratio", 61), ("sum_squares", 41)):
        lo = rng.uniform(0.3, 0.6)
        hi = lo + rng.uniform(1.0, 1.5)
        _job(jobs, "classify", {"flux": {"kind": flux},
                                "samples": {"u": _axis(lo, hi, n), "v": _axis(lo, hi, n)}},
             "classify", points=n * n)
    rect = _hodograph_window(rng, 2, 2)
    base = {"beta": 1.0, "rectangle": {"coord": {"min": rect["X"]["min"], "max": rect["X"]["max"]},
                                       "point": {"min": rect["tau"]["min"],
                                                 "max": rect["tau"]["max"]}},
            "solution": {"kind": "hodograph", "phase": HODOGRAPH["phase"],
                         "radial": HODOGRAPH["radial"], "seed": HODOGRAPH["seed"]},
            "levels": [17, 33]}
    _job(jobs, "verify", {**base, "study": "asymptotic"}, "verify", points=17 ** 2 + 33 ** 2)
    _job(jobs, "verify", {**base, "study": "linearized_symmetry",
                          "symmetry": {"phase": HODOGRAPH["phase"],
                                       "radial": HODOGRAPH["radial"]}},
         "verify", points=17 ** 2 + 33 ** 2)
    return jobs


def _grid_shape(rng, rows):
    """Split `rows` into (n_t, n_x) with n_x drawn from a small ladder."""
    nx = rng.choice((100, 200, 400, 500))
    return rows // nx, nx


def artifact_write(rng):
    # Evaluation is vectorised here, so _write_csv (about 10 us per row) and
    # the manifest JSON dominate; cli works as a writer, not as glue.  Of the
    # four workloads only this one gains from an array CSV writer or a
    # slimmer manifest.
    # The three largest jobs write the same number of rows, so that the tail
    # latency lands inside one class of jobs.
    jobs = []
    for kind, rows in (("carroll", 20_000), ("carroll", 20_000), ("generalized", 20_000),
                       ("constant_amplitude", 10_000), ("separable", 10_000)):
        nt, nx = _grid_shape(rng, rows)
        if kind == "carroll":
            sol = {"modulus": _cubic(rng), "amplitude": rng.uniform(0.5, 1.0),
                   "wavenumber": float(rng.choice((1, 2))), "polarization": rng.choice((-1, 1)),
                   "x": _axis(0.0, TWO_PI, nx), "t": _axis(0.0, 2.0, nt)}
        elif kind == "generalized":
            sol = {"modulus": _cubic(rng), "amplitude": rng.uniform(0.5, 1.0),
                   "profile": _sine(rng), "direction": rng.choice((-1, 1)),
                   "polarization": rng.choice((-1, 1)),
                   "x": _axis(0.0, TWO_PI, nx), "t": _axis(0.0, 2.0, nt)}
        elif kind == "constant_amplitude":
            sol = {"beta": rng.uniform(0.3, 1.0), "amplitude": rng.uniform(0.5, 1.0),
                   "profile": _sine(rng), "X": _axis(0.0, 2.0, nt), "tau": _axis(0.0, TWO_PI, nx)}
        else:
            sol = {"flux": {"kind": "product"}, "k": rng.uniform(0.2, 0.5),
                   "phi0": rng.uniform(0.2, 0.5), "dphi0": rng.uniform(-0.2, 0.2),
                   "x": _axis(-1.0, 1.0, nx), "t": _axis(0.0, 1.0, nt)}
        _job(jobs, "exact", {"solution": {"kind": kind, **sol}}, "roundtrip")
    _job(jobs, "simulate", _full_sim(rng, 128, "muscl_minmod", 100, stride=1), "roundtrip")
    _job(jobs, "simulate", _asym_sim(rng, 256, "lax_friedrichs", 60, stride=1), "roundtrip")
    return jobs


WORKLOADS = {
    "evolve_coarse": evolve_coarse,
    "evolve_fine": evolve_fine,
    "implicit_fields": implicit_fields,
    "artifact_write": artifact_write,
}


def generate(workload: str, seed: int) -> list:
    """The job list of `workload` for `seed`; raises KeyError for an unknown workload."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
