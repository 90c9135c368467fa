"""Conservative finite-volume evolution for the three 1D systems.

Two schemes share one kernel, and ``STEPPERS``, the one table of schemes,
names them: first-order local Lax-Friedrichs (Rusanov interface flux) and
second-order MUSCL-Hancock with minmod-limited slopes, minmod computed as a
clamp of one difference between 0 and the other: opposite signs give 0, like
signs the smaller magnitude, the textbook selection, save that a product of
the two that underflows to 0 is no sign change.  All systems are advanced in
the paper's form w_t = g(w)_x with local wave-speed bounds feeding the CFL
step; a gradient monitor watches for loss of smoothness.  Each evolve_*
function hands the kernel its initial rows, any sequence of arrays, and its
system as one ConservationLaw, which names no fields.  Two law builders serve
the three systems: the full law, and the polar law w_X = beta (s w)_tau, s the
sum of the rows' squares, on the two rows of the asymptotic system (U, V) or
the one row of the scalar cubic law (rho).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .constitutive import ShearModulus, _positive_Q
from .errors import BlowupDetected, HyperbolicityLoss, NoConvergence, NonPositiveModulus
from .profiles import ProfileFunction

STEP_FLOOR_FACTOR = 1e-9
# a run that takes this many steps raises NoConvergence
MAX_STEPS = 5_000_000


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D cell grid on [a, b] with periodic or outflow boundaries."""

    n: int
    a: float
    b: float
    boundary: str = "periodic"

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("grid needs at least 8 cells")
        if not self.h > 0.0:  # b <= a, or a width b - a so small that h underflows to 0
            raise ValueError(f"grid spacing (b - a)/n = {self.h!r} is not positive")
        if not math.isfinite(self.b - self.a):
            raise ValueError("grid width b - a overflows a double")
        if self.boundary not in ("periodic", "outflow"):
            raise ValueError(f"unknown boundary {self.boundary!r}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    @property
    def centers(self) -> np.ndarray:
        return self.a + (np.arange(self.n) + 0.5) * self.h


@dataclass(frozen=True)
class SimulationConfig:
    """End coordinate, scheme selection, and stability/monitoring knobs."""

    end: float
    scheme: str = "muscl_minmod"
    cfl: float = 0.4
    snapshot_stride: int = 0
    blowup_factor: float = 50.0

    def __post_init__(self):
        if not self.end >= 0.0:
            raise ValueError("end coordinate must be nonnegative")
        if self.scheme not in STEPPERS:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0.0 < self.cfl <= 0.9:
            raise ValueError("cfl must lie in (0, 0.9]")
        if self.blowup_factor <= 1.0:
            raise ValueError("blowup_factor must exceed 1")


@dataclass
class Trajectory:
    """Snapshots plus per-step diagnostics of one evolution run, in its initial state's rows."""

    grid: Grid1D
    coords: np.ndarray          # snapshot coordinates, shape (n_snap,)
    states: np.ndarray          # shape (n_snap, n_fields, n_cells)
    tv: np.ndarray              # total variation per snapshot/field
    step_coords: np.ndarray
    step_max_speed: np.ndarray
    step_max_gradient: np.ndarray
    initial_gradient: float
    blowup_coordinate: Optional[float] = None

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def cfl_step(max_speed: float, h: float, cfl: float, remaining: float = math.inf) -> float:
    """CFL-limited step cfl*h/max_speed, capped by the remaining interval.

    A (numerically) zero speed cannot bound the step, so the remaining
    interval is used whole.
    """
    if max_speed <= 1e-300:
        return remaining
    return min(cfl * h / max_speed, remaining)


@dataclass(frozen=True)
class ConservationLaw:
    """One system w_t = g(w)_x as data for the finite-volume kernel.

    ``flux_speed(w, ncells=None)`` takes states of shape (fields, n) and
    evaluates the system's coefficients once.  It returns the fluxes g(w) of
    the columns from ``ncells`` on and the wave-speed bounds, shape
    (1, ncells), of the first ``ncells`` columns, and checks that those
    first columns are hyperbolic; ``ncells=None`` gives both for every
    column.  A MUSCL step evaluates it twice: on the cells with the stacked
    predictor faces (cell speeds, face fluxes), then on the stacked
    interface states.  ``raise_on_blowup`` says whether the gradient monitor
    raises or only records; a step below ``STEP_FLOOR_FACTOR * (b - a)``
    raises for every law, unless it is the last one, cut short by the end.
    """

    flux_speed: Callable
    raise_on_blowup: bool


@lru_cache(maxsize=64)
def _ghost_columns(n: int, ng: int, boundary: str) -> np.ndarray:
    """Columns padding n cells with ng ghost cells a side: wrapped, or the edge cell
    repeated.  The cached array is shared, so it is read-only."""
    j = np.arange(-ng, n + ng)
    j = j % n if boundary == "periodic" else np.clip(j, 0, n - 1)
    j.flags.writeable = False
    return j


def _rusanov(w, g, c, left, right):
    """Twice the Rusanov fluxes of w_t = g(w)_x between w[:, left] and w[:, right]."""
    alpha = np.maximum(c[:, left], c[:, right])
    return (g[:, left] + g[:, right]) + alpha * (w[:, right] - w[:, left])


# A stepper advances the cells by one CFL step: (w, law, h, boundary, cfl,
# remaining) -> (new w, dt, max cell speed).  The cells' speeds set dt.  Each
# update is w - (dt/2h) * (G[k] - G[k+1]) for the doubled interface fluxes G.


def _step_lf(w, law, h, boundary, cfl, remaining):
    g, c = law.flux_speed(w)
    amax = float(np.maximum.reduce(c, axis=None))
    dt = cfl_step(amax, h, cfl, remaining)
    # interface states are padded cells, so the padded g and c serve them
    nf = w.shape[0]
    wgc = np.concatenate([w, g, c]).take(_ghost_columns(w.shape[1], 1, boundary), axis=1)
    G = _rusanov(wgc[:nf], wgc[nf:2 * nf], wgc[2 * nf:], np.s_[:-1], np.s_[1:])
    return w - (0.5 * (dt / h)) * (G[:, :-1] - G[:, 1:]), dt, amax


def _step_muscl(w, law, h, boundary, cfl, remaining):
    wp = w.take(_ghost_columns(w.shape[1], 2, boundary), axis=1)
    # minmod of each padded cell's backward and forward differences: dm clamped
    # into [min(dp, 0), max(dp, 0)] selects what dm*dp <= 0, then |dm| < |dp|
    # selects (np.minimum and np.maximum return their second argument on ties,
    # so zero slopes are +0.0), but keeps the minmod where dm*dp underflows to 0
    d = wp[:, 1:] - wp[:, :-1]
    dm, dp = d[:, :-1], d[:, 1:]
    slope = np.minimum(np.maximum(dm, np.minimum(dp, 0.0)), np.maximum(dp, 0.0))
    wc = wp[:, 1:-1]
    half = 0.5 * slope
    wl, wr = wc - half, wc + half
    # cells first, then the predictor faces right-then-left, so a failing Q
    # names the same first point as evaluating cells, wr and wl in turn
    n, m = w.shape[1], wc.shape[1]
    g_faces, c = law.flux_speed(np.concatenate([w, wr, wl], axis=1), n)
    amax = float(np.maximum.reduce(c, axis=None))
    dt = cfl_step(amax, h, cfl, remaining)
    shift = (dt / (2.0 * h)) * (g_faces[:, m:] - g_faces[:, :m])
    wr -= shift
    wl -= shift
    # interface k sits between wr[:, k] and wl[:, k + 1]; stack both sides
    k = m - 1
    ab = np.concatenate([wr[:, :-1], wl[:, 1:]], axis=1)
    g_ab, c_ab = law.flux_speed(ab)
    G = _rusanov(ab, g_ab, c_ab, np.s_[:k], np.s_[k:])
    return w - (0.5 * (dt / h)) * (G[:, :-1] - G[:, 1:]), dt, amax


STEPPERS = {"lax_friedrichs": _step_lf, "muscl_minmod": _step_muscl}


def _max_gradient(w: np.ndarray, h: float) -> float:
    return float(np.maximum.reduce(np.abs(w[:, 1:] - w[:, :-1]), axis=None)) / h


def _total_variation(w: np.ndarray, boundary: str) -> np.ndarray:
    with np.errstate(over="ignore"):  # a finite state's variation may exceed a double: inf
        tv = np.sum(np.abs(np.diff(w, axis=1)), axis=1)
        if boundary == "periodic":
            tv = tv + np.abs(w[:, 0] - w[:, -1])
    return tv


def _evolve(w0, grid: Grid1D, config: SimulationConfig, law: ConservationLaw,
            rows: int) -> Trajectory:
    w = np.array(w0, dtype=float)
    if w.shape != (rows, grid.n):
        raise ValueError(f"initial state needs {rows} rows, one per field, and {grid.n} columns, "
                         f"one per grid cell, not shape {w.shape}")
    if not np.isfinite(w).all():
        raise BlowupDetected("non-finite initial state", coordinate=0.0)
    h = grid.h
    end, stride = config.end, config.snapshot_stride
    stepper = STEPPERS[config.scheme]
    g0 = max(_max_gradient(w, h), 1e-8)
    step_floor = STEP_FLOOR_FACTOR * (grid.b - grid.a)

    coords, states = [0.0], [w.copy()]
    step_coords, step_speed, step_grad = [], [], []
    blowup_at = None

    t = 0.0
    with np.errstate(all="ignore"):  # a step that overflows raises BlowupDetected below
        while t < end - 1e-14 * max(1.0, abs(end)):
            remaining = end - t
            try:
                w, dt, amax = stepper(w, law, h, grid.boundary, config.cfl, remaining)
            except (HyperbolicityLoss, NonPositiveModulus) as exc:  # the state at t fails its step
                exc.coordinate = t
                raise
            g = _max_gradient(w, h)
            # a non-finite cell makes the gradient non-finite; an overflowing difference may too
            if not math.isfinite(g) and not np.isfinite(w).all():
                raise BlowupDetected(f"non-finite state at coordinate {t + dt!r}",
                                     coordinate=t + dt)
            t += dt
            step_coords.append(t)
            step_speed.append(amax)
            step_grad.append(g)
            steep = g > config.blowup_factor * g0
            # a last step cut short by the end of the run is not a collapsed step
            if dt < min(step_floor, remaining):
                raise BlowupDetected(f"step collapsed to {dt:.3e}, below the floor "
                                     f"{step_floor:.3e}, at coordinate {t!r}", coordinate=t)
            if steep and law.raise_on_blowup:
                raise BlowupDetected(
                    f"gradient monitor tripped at coordinate {t!r} "
                    f"(gradient {g:.3e} vs initial {g0:.3e}, step {dt:.3e})",
                    coordinate=t,
                )
            if steep and blowup_at is None:
                blowup_at = t
            if stride > 0 and len(step_coords) % stride == 0 and t < end:
                coords.append(t)
                states.append(w.copy())
            if len(step_coords) >= MAX_STEPS:
                raise NoConvergence(f"exceeded max_steps = {MAX_STEPS} at coordinate {t!r}",
                                    coordinate=t)
    if coords[-1] != t:
        coords.append(t)
        states.append(w.copy())

    states_arr = np.array(states)
    return Trajectory(
        grid=grid,
        coords=np.array(coords),
        states=states_arr,
        tv=np.array([_total_variation(s, grid.boundary) for s in states_arr]),
        step_coords=np.array(step_coords),
        step_max_speed=np.array(step_speed),
        step_max_gradient=np.array(step_grad),
        initial_gradient=g0,
        blowup_coordinate=blowup_at,
    )


# ---------------------------------------------------------------------------
# the three systems: the full law and the polar law


def _sum_sq(w):
    """s = U^2 + V^2 of the first two rows, or rho^2 of a single row, shape (1, n)."""
    U, V = w[:1], w[1:2]
    return U * U + V * V if len(w) > 1 else U * U


def _polar_law(beta, raise_on_blowup) -> ConservationLaw:
    """w_X = beta (s w)_tau on rows (U, V) or one row rho: flux beta s w, speed bound 3|beta| s."""
    beta = float(beta)

    def flux_speed(w, ncells=None):
        s = _sum_sq(w)
        return beta * (s[:, ncells:] * w[:, ncells:]), 3.0 * abs(beta) * s[:, :ncells]

    return ConservationLaw(flux_speed, raise_on_blowup)


def evolve_full(m: ShearModulus, grid: Grid1D, init: Sequence,
                config: SimulationConfig) -> Trajectory:
    """Evolve the 4-field system (U, V, M, N) in conservation form.

    ``init`` is any sequence of those rows on the grid's cells, a FullState among them.
    U_t = M_x, V_t = N_x, M_t = [Qt(s) U]_x, N_t = [Qt(s) V]_x with Qt = Q/rho and
    s = U^2 + V^2.  Squared wave speeds are Qt and Qt + 2 s Qt'(s); both must stay
    positive (else NonPositiveModulus for Q itself, HyperbolicityLoss for the fast
    speed).  The speeds use the modulus's analytic Q', so a modulus without q.df is a
    TypeError before the first step.  The gradient monitor raises BlowupDetected.
    """
    dq = m.q.analytic("df")

    def flux_speed(w, ncells=None):
        s = _sum_sq(w)  # s >= 0; with Q > 0 on every column, only the fast speed is tested
        qt, dqt = _positive_Q(m, s, m.q.f(s)), dq(s[:, :ncells])
        if m.rho != 1.0:
            qt, dqt = qt / m.rho, dqt / m.rho
        sc, qc = s[:, :ncells], qt[:, :ncells]
        fast = qc + 2.0 * sc * dqt
        if np.fmin.reduce(fast, axis=None) <= 0.0:
            raise HyperbolicityLoss(
                f"squared wave speed went non-positive (min {min(np.min(qc), np.min(fast)):.3e})"
            )
        c = np.sqrt(np.maximum(qc, fast))
        wf, qf = w[:, ncells:], qt[:, ncells:]
        return np.concatenate([wf[2:], qf * wf[:2]]), c

    return _evolve(init, grid, config, ConservationLaw(flux_speed, raise_on_blowup=True), 4)


def evolve_asymptotic(beta: float, grid: Grid1D, init: Sequence,
                      config: SimulationConfig) -> Trajectory:
    """Evolve the weakly nonlinear system U_X = beta[(U^2+V^2)U]_tau (and V).

    ``init`` is any sequence of the rows U, V on the grid's cells, a StrainState among
    them.  The grid axis is tau, the evolution coordinate is X.  Plane-polarized data
    (V = 0) reduces to the scalar cubic law.  The gradient monitor raises
    BlowupDetected when smoothness is lost.
    """
    return _evolve(init, grid, config, _polar_law(beta, True), 2)


def evolve_scalar(beta: float, grid: Grid1D, rho0,
                  config: SimulationConfig) -> Trajectory:
    """Shock-capturing evolution of the scalar cubic law rho_X = beta (rho^3)_tau.

    Weak solutions continue past breaking, so the gradient monitor only
    records the crossing coordinate in the diagnostics; a step below the
    floor still raises BlowupDetected.
    """
    return _evolve((rho0,), grid, config, _polar_law(beta, False), 1)


def breaking_estimate(beta: float, rho0: ProfileFunction, tau_grid) -> float:
    """Gradient-catastrophe coordinate of the scalar law from characteristics.

    Characteristics launched from tau with speed -3*beta*rho0(tau)^2 first
    cross at X* = 1 / max_tau (d/dtau)[3 beta rho0^2]^+; monotone data of the
    harmless orientation (or constant data) never break: X* = inf.  Doubling
    beta halves X*.
    """
    tau = np.asarray(tau_grid, dtype=float)
    slope = 6.0 * float(beta) * np.asarray(rho0(tau)) * np.asarray(rho0.deriv(tau))
    mx = float(np.max(slope))
    if mx <= 0.0:
        return math.inf
    return 1.0 / mx
