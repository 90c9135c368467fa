"""Conservative finite-volume evolution for the three 1D systems.

Two schemes share one kernel, and ``STEPPERS``, the one table of schemes,
names them: first-order local Lax-Friedrichs (Rusanov interface flux) and
second-order MUSCL-Hancock with minmod-limited slopes.  All systems are
advanced in conservation form w_t + f(w)_x = 0 with local wave-speed bounds
feeding the CFL step; a gradient monitor watches for loss of smoothness.
Each evolve_* function hands the kernel its system as one ConservationLaw.
Two law builders serve the three systems: the full law, and the polar law
w_X = beta (s w)_tau, s the sum of the rows' squares, whose rows (U, V) are
the asymptotic system and whose one row rho is the scalar cubic law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constitutive import ShearModulus
from .errors import BlowupDetected, HyperbolicityLoss, NoConvergence, NonPositiveModulus
from .exact import FullState, StrainState
from .profiles import ProfileFunction

STEP_FLOOR_FACTOR = 1e-9


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
        if not self.b > self.a:
            raise ValueError("need b > a")
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
    max_steps: int = 5_000_000

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
    """Snapshots plus per-step diagnostics of one evolution run."""

    grid: Grid1D
    field_names: tuple
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

    def masses(self) -> np.ndarray:
        """Cell-sum conserved totals per snapshot/field (times h)."""
        return self.states.sum(axis=2) * self.grid.h



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
    """One system w_t + f(w)_x = 0 as data for the finite-volume kernel.

    ``flux_speed(w, ncells=None)`` takes states of shape (fields, n) and
    evaluates the system's coefficients once.  It returns the fluxes f(w) of
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
    field_names: tuple
    raise_on_blowup: bool


def _pad(w: np.ndarray, ng: int, boundary: str) -> np.ndarray:
    if boundary == "periodic":
        return np.concatenate([w[:, -ng:], w, w[:, :ng]], axis=1)
    left = np.repeat(w[:, :1], ng, axis=1)
    right = np.repeat(w[:, -1:], ng, axis=1)
    return np.concatenate([left, w, right], axis=1)


def _rusanov(w, f, c, left, right):
    """Rusanov fluxes between states w[:, left] and w[:, right], given f(w) and speeds c."""
    alpha = np.maximum(c[:, left], c[:, right])
    return 0.5 * (f[:, left] + f[:, right]) - 0.5 * alpha * (w[:, right] - w[:, left])


# A stepper advances the cells by one CFL step: (w, law, h, boundary, cfl,
# remaining) -> (new w, dt, max cell speed).  The cells' speeds set dt.


def _step_lf(w, law, h, boundary, cfl, remaining):
    f, c = law.flux_speed(w)
    amax = float(c.max())
    dt = cfl_step(amax, h, cfl, remaining)
    # interface states are padded cells, so the padded f and c serve them
    nf = w.shape[0]
    wfc = _pad(np.concatenate([w, f, c]), 1, boundary)
    F = _rusanov(wfc[:nf], wfc[nf:2 * nf], wfc[2 * nf:], np.s_[:-1], np.s_[1:])
    return w - (dt / h) * (F[:, 1:] - F[:, :-1]), dt, amax


def _step_muscl(w, law, h, boundary, cfl, remaining):
    wp = _pad(w, 2, boundary)
    # minmod of the backward and forward differences of each padded cell
    d = wp[:, 1:] - wp[:, :-1]
    dm, dp = d[:, :-1], d[:, 1:]
    ad = np.abs(d)
    slope = np.where(dm * dp <= 0.0, 0.0, np.where(ad[:, :-1] < ad[:, 1:], dm, dp))
    wc = wp[:, 1:-1]
    half = 0.5 * slope
    wl = wc - half
    wr = wc + half
    # cells first, then the predictor faces right-then-left, so a failing Q
    # names the same first point as evaluating cells, wr and wl in turn
    n, m = w.shape[1], wc.shape[1]
    fr_fl, c = law.flux_speed(np.concatenate([w, wr, wl], axis=1), n)
    amax = float(c.max())
    dt = cfl_step(amax, h, cfl, remaining)
    shift = -(dt / (2.0 * h)) * (fr_fl[:, :m] - fr_fl[:, m:])
    wl = wl + shift
    wr = wr + shift
    # interface k sits between wr[:, k] and wl[:, k + 1]; stack both sides
    k = m - 1
    ab = np.concatenate([wr[:, :-1], wl[:, 1:]], axis=1)
    f_ab, c_ab = law.flux_speed(ab)
    F = _rusanov(ab, f_ab, c_ab, np.s_[:k], np.s_[k:])
    return w - (dt / h) * (F[:, 1:] - F[:, :-1]), dt, amax


STEPPERS = {"lax_friedrichs": _step_lf, "muscl_minmod": _step_muscl}


def _max_gradient(w: np.ndarray, h: float) -> float:
    if w.shape[1] < 2:
        return 0.0
    return float(np.abs(w[:, 1:] - w[:, :-1]).max()) / h


def _total_variation(w: np.ndarray, boundary: str) -> np.ndarray:
    tv = np.sum(np.abs(np.diff(w, axis=1)), axis=1)
    if boundary == "periodic":
        tv = tv + np.abs(w[:, 0] - w[:, -1])
    return tv


def _evolve(w0, grid: Grid1D, config: SimulationConfig,
            law: ConservationLaw) -> Trajectory:
    w = np.array(w0, dtype=float)
    if not np.isfinite(w).all():
        raise BlowupDetected("non-finite initial state", coordinate=0.0)
    h = grid.h
    end = config.end
    stepper = STEPPERS[config.scheme]
    g0 = max(_max_gradient(w, h), 1e-8)
    step_floor = STEP_FLOOR_FACTOR * (grid.b - grid.a)

    coords = [0.0]
    states = [w.copy()]
    step_coords, step_speed, step_grad = [], [], []
    blowup_at = None

    t = 0.0
    n_steps = 0
    while t < end - 1e-14 * max(1.0, abs(end)):
        remaining = end - t
        try:
            w, dt, amax = stepper(w, law, h, grid.boundary, config.cfl, remaining)
        except (HyperbolicityLoss, NonPositiveModulus) as exc:  # the state at t fails its step
            exc.coordinate = t
            raise
        if not np.isfinite(w).all():
            raise BlowupDetected(f"non-finite state at coordinate {t + dt!r}", coordinate=t + dt)
        t += dt
        n_steps += 1
        g = _max_gradient(w, h)
        step_coords.append(t)
        step_speed.append(amax)
        step_grad.append(g)
        steep = g > config.blowup_factor * g0
        # a last step cut short by the end of the run is not a collapsed step
        if dt < min(step_floor, remaining):
            raise BlowupDetected(f"step collapsed to {dt:.3e}, below the floor {step_floor:.3e}, "
                                 f"at coordinate {t!r}", coordinate=t)
        if steep and law.raise_on_blowup:
            raise BlowupDetected(
                f"gradient monitor tripped at coordinate {t!r} "
                f"(gradient {g:.3e} vs initial {g0:.3e}, step {dt:.3e})",
                coordinate=t,
            )
        if steep and blowup_at is None:
            blowup_at = t
        if config.snapshot_stride > 0 and n_steps % config.snapshot_stride == 0 and t < end:
            coords.append(t)
            states.append(w.copy())
        if n_steps >= config.max_steps:
            raise NoConvergence(f"exceeded max_steps = {config.max_steps} at coordinate {t!r}",
                                coordinate=t)
    if coords[-1] != t:
        coords.append(t)
        states.append(w.copy())

    states_arr = np.array(states)
    return Trajectory(
        grid=grid,
        field_names=law.field_names,
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


def _polar_law(beta, field_names, raise_on_blowup) -> ConservationLaw:
    """w_X = beta (s w)_tau on rows (U, V) or one row rho: flux -beta s w, speed bound 3|beta| s."""
    beta = float(beta)

    def flux_speed(w, ncells=None):
        s = _sum_sq(w)
        return -beta * (s[:, ncells:] * w[:, ncells:]), 3.0 * abs(beta) * s[:, :ncells]

    return ConservationLaw(flux_speed, field_names, raise_on_blowup)


def evolve_full(m: ShearModulus, grid: Grid1D, init: FullState,
                config: SimulationConfig) -> Trajectory:
    """Evolve the 4-field system (U, V, M, N) in conservation form.

    U_t = M_x, V_t = N_x, M_t = [Qt(s) U]_x, N_t = [Qt(s) V]_x with
    Qt = Q/rho and s = U^2 + V^2.  Squared wave speeds are Qt and
    Qt + 2 s Qt'(s); both must stay positive (else NonPositiveModulus for
    Q itself, HyperbolicityLoss for the fast speed).
    When no analytic Q' is available the speed bound carries a 1.2 safety
    factor.  The gradient monitor raises BlowupDetected.
    """
    safety = 1.2 if m.q.df is None else 1.0

    def flux_speed(w, ncells=None):
        s = _sum_sq(w)
        qt = m.qtilde(s)
        sc, qc = s[:, :ncells], qt[:, :ncells]
        fast = qc + 2.0 * sc * m.dqtilde(sc)
        if np.fmin.reduce(np.fmin(qc, fast), axis=None) <= 0.0:
            raise HyperbolicityLoss(
                f"squared wave speed went non-positive (min {min(np.min(qc), np.min(fast)):.3e})"
            )
        c = np.sqrt(np.maximum(qc, fast))
        wf, qf = w[:, ncells:], qt[:, ncells:]
        return -np.concatenate([wf[2:], qf * wf[:2]]), (c if safety == 1.0 else safety * c)

    law = ConservationLaw(flux_speed, ("U", "V", "M", "N"), raise_on_blowup=True)
    return _evolve((init.U, init.V, init.M, init.N), grid, config, law)


def evolve_asymptotic(beta: float, grid: Grid1D, init: StrainState,
                      config: SimulationConfig) -> Trajectory:
    """Evolve the weakly nonlinear system U_X = beta[(U^2+V^2)U]_tau (and V).

    The grid axis is tau, the evolution coordinate is X.  Plane-polarized
    data (V = 0) reduces to the scalar cubic law.  The gradient monitor
    raises BlowupDetected when smoothness is lost.
    """
    return _evolve((init.U, init.V), grid, config, _polar_law(beta, ("U", "V"), True))


def evolve_scalar(beta: float, grid: Grid1D, rho0,
                  config: SimulationConfig) -> Trajectory:
    """Shock-capturing evolution of the scalar cubic law rho_X = beta (rho^3)_tau.

    Weak solutions continue past breaking, so the gradient monitor only
    records the crossing coordinate in the diagnostics; a step below the
    floor still raises BlowupDetected.
    """
    return _evolve((rho0,), grid, config, _polar_law(beta, ("rho",), False))


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
