"""Closed-form and semi-analytic solution families.

All evaluators are vectorized over coordinate arrays and return plain
arrays bundled in light NamedTuples, so they can serve directly as oracles
for the finite-volume solvers and the residual checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .constitutive import ShearModulus, TempleFlux, eval_Q, solve_level_set
from .errors import (
    NoBracket,
    NoConvergence,
    SingularJacobian,
)
from .numerics import rk4_integrate
from .profiles import ProfileFunction

DISPERSION_RTOL = 1e-12
SIMPLE_WAVE_TOL = 1e-12
HODOGRAPH_TOL = 1e-10
# converged hodograph roots scatter by about 1e-13; distinct branches are O(1) apart
HODOGRAPH_AGREE = 1e-8
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 20
# sweeps a point gets in the two array passes of _hodograph_continue; points
# still iterating after that are marched at the full NEWTON_MAX_ITER
HODOGRAPH_PASS_MAX_ITER = 10


class StrainState(NamedTuple):
    """Transverse strain pair (U, V)."""

    U: np.ndarray
    V: np.ndarray


class PolarState(NamedTuple):
    """Polar form of the strain pair: amplitude rho >= 0 and phase theta."""

    rho: np.ndarray
    theta: np.ndarray


class FullState(NamedTuple):
    """Strains (U, V) and velocities (M, N) of the first-order 4-field system."""

    U: np.ndarray
    V: np.ndarray
    M: np.ndarray
    N: np.ndarray


def strain_to_polar(U, V) -> PolarState:
    return PolarState(np.hypot(U, V), np.arctan2(V, U))


# ---------------------------------------------------------------------------
# circularly polarized travelling waves


@dataclass(frozen=True)
class CarrollWave:
    """Circularly polarized travelling wave of the 4-field system.

    U = A cos(k x - omega t), V = polarization * A sin(k x - omega t), valid
    exactly when rho * omega^2 = k^2 * Q(A^2).  The constructor enforces the
    dispersion relation to 1e-12 relative.
    """

    modulus: ShearModulus
    amplitude: float
    wavenumber: float
    omega: float
    polarization: int = 1

    def __post_init__(self):
        if self.amplitude <= 0.0 or self.wavenumber <= 0.0 or self.omega <= 0.0:
            raise ValueError("amplitude, wavenumber and omega must be positive")
        if self.polarization not in (-1, 1):
            raise ValueError("polarization must be +1 or -1")
        lhs = self.modulus.rho * self.omega**2
        rhs = self.wavenumber**2 * eval_Q(self.modulus, self.amplitude**2)
        if abs(lhs - rhs) > DISPERSION_RTOL * max(abs(lhs), abs(rhs)):
            raise ValueError(
                f"dispersion relation violated: rho*omega^2 = {lhs!r} vs k^2 Q(A^2) = {rhs!r}"
            )

    @classmethod
    def from_modulus(cls, m: ShearModulus, amplitude: float, wavenumber: float,
                     polarization: int = 1) -> "CarrollWave":
        omega = carroll_dispersion(m, amplitude, wavenumber)
        return cls(m, float(amplitude), float(wavenumber), omega, polarization)

    @property
    def speed(self) -> float:
        return self.omega / self.wavenumber

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega


def carroll_dispersion(m: ShearModulus, amplitude: float, wavenumber: float) -> float:
    """Frequency omega = k * sqrt(Q(A^2)/rho) of the circular wave."""
    if amplitude <= 0.0 or wavenumber <= 0.0:
        raise ValueError("amplitude and wavenumber must be positive")
    return float(wavenumber) * math.sqrt(eval_Q(m, float(amplitude) ** 2) / m.rho)


def carroll_full_state(w: CarrollWave, x, t=0.0) -> FullState:
    """The circular wave U = A cos(kx - omega t), V = polarization * A sin(kx - omega t),
    with the matching velocities M = -(omega/k) U, N = -(omega/k) V."""
    phase = w.wavenumber * np.asarray(x, dtype=float) - w.omega * np.asarray(t, dtype=float)
    U = w.amplitude * np.cos(phase)
    V = w.polarization * w.amplitude * np.sin(phase)
    c = w.omega / w.wavenumber
    return FullState(U, V, -c * U, -c * V)


def generalized_carroll_full_state(m: ShearModulus, amplitude: float,
                                   theta_profile: ProfileFunction, x, t,
                                   direction: int = -1, polarization: int = 1) -> FullState:
    """Constant-amplitude wave with arbitrary phase profile, and its velocities.

    theta = F(x + direction * c * t) with c = sqrt(Q(A^2)/rho); the strain is
    (A cos theta, polarization * A sin theta) and the velocities are
    M = direction*c*U, N = direction*c*V.  direction and polarization are
    independent sign choices; F(xi) = k*xi with direction=-1 reproduces
    carroll_full_state with polarization +1.
    """
    if direction not in (-1, 1) or polarization not in (-1, 1):
        raise ValueError("direction and polarization must be +1 or -1")
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    c = math.sqrt(eval_Q(m, amplitude**2) / m.rho)
    xi = np.asarray(x, dtype=float) + direction * c * np.asarray(t, dtype=float)
    theta = theta_profile(xi)
    U, V = amplitude * np.cos(theta), polarization * amplitude * np.sin(theta)
    return FullState(U, V, direction * c * U, direction * c * V)


def eval_asymptotic_linear(beta: float, amplitude: float, theta_profile: ProfileFunction,
                           X, tau) -> StrainState:
    """Constant-amplitude solution of the weakly nonlinear system.

    theta = Theta(beta * A^2 * X + tau), rho = A: the phase rides at speed
    beta*A^2 while the amplitude is exactly preserved.
    """
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    xi = beta * amplitude**2 * np.asarray(X, dtype=float) + np.asarray(tau, dtype=float)
    theta = theta_profile(xi)
    return StrainState(amplitude * np.cos(theta), amplitude * np.sin(theta))


# ---------------------------------------------------------------------------
# plane-polarized simple wave (implicit profile equation)


def _damped_newton(residual, newton_step, unknowns, tol, max_iter=NEWTON_MAX_ITER):
    """Damped Newton over arrays of independent equations, each element on its own.

    residual(u, idx) returns the residual components and their max-norm at
    the elements idx, given their unknowns u; newton_step(u, res, idx)
    returns the full Newton step and a flag per element that cannot step.
    Each element tries the fractions 1, 1/2, ..., 2^-NEWTON_MAX_HALVINGS of
    its step and takes the first that lowers its norm, until norm <= tol or
    max_iter sweeps.  Returns the unknowns and a code per element: 0
    converged, 1 flagged by newton_step, 2 damping exhausted, 3 still above
    tol after max_iter sweeps.
    """
    u = [np.array(a, dtype=float) for a in unknowns]
    act = np.arange(u[0].size)
    res, err = residual(u, act)
    code = np.zeros(act.size, dtype=int)
    for _ in range(max_iter):
        act = act[~(err[act] <= tol)]
        if act.size == 0:
            return u, code
        step, code[act] = newton_step([a[act] for a in u], [r[act] for r in res], act)
        ok = code[act] == 0
        act, step = act[ok], [s[ok] for s in step]
        left, lam = np.arange(act.size), 1.0
        for _h in range(NEWTON_MAX_HALVINGS + 1):
            idx = act[left]
            trial = [a[idx] + lam * s[left] for a, s in zip(u, step)]
            res_t, err_t = residual(trial, idx)
            won = err_t < err[idx]
            for old, new in zip(u + res + [err], trial + res_t + [err_t]):
                old[idx[won]] = new[won]
            left, lam = left[~won], 0.5 * lam
            if left.size == 0:
                break
        code[act[left]] = 2
        act = act[code[act] == 0]
    code[act[~(err[act] <= tol)]] = 3
    return u, code


def _point_error(cls, message, point, names="(X, tau)"):
    """A solver error whose message and coordinate name the sample point where it failed."""
    point = tuple(float(c) for c in point)
    return cls(f"{message} at {names} = {point}", coordinate=point)


def _first_failure(code, failures, X, tau):
    """(k, error) for the first element k with a nonzero code, or None."""
    bad = np.flatnonzero(code)
    if bad.size == 0:
        return None
    k = bad[0]
    return k, _point_error(*failures[code[k]], (np.broadcast_to(X, code.shape)[k], tau[k]))


SIMPLE_WAVE_FAILURES = {
    1: (NoConvergence, "simple-wave Newton hit a vanishing derivative"),
    2: (NoConvergence, "simple-wave Newton stalled"),
    3: (NoConvergence, f"simple-wave Newton did not reach {SIMPLE_WAVE_TOL:.0e}"),
}
BRANCH_SUBSTEPS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def _simple_wave_solve(beta, profile, X, tau, rho, check=True):
    """Newton for g(rho) = rho - Phi(tau - 3 beta X rho^2) = 0 at one X over an array of tau.

    Returns the roots, raising at the first failing tau; with check=False,
    returns the iterates and the failure codes of _damped_newton instead.
    """
    c3, c6 = 3.0 * beta * X, 6.0 * beta * X

    def residual(u, idx):
        g = u[0] - profile(tau[idx] - c3 * u[0] * u[0])
        return [g], np.abs(g)

    def newton_step(u, res, idx):
        dg = 1.0 + c6 * u[0] * profile.deriv(tau[idx] - c3 * u[0] * u[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            return [-(res[0] / dg)], (dg == 0.0) | ~np.isfinite(dg)

    (rho,), code = _damped_newton(residual, newton_step, [rho], SIMPLE_WAVE_TOL)
    if not check:
        return rho, code
    failure = _first_failure(code, SIMPLE_WAVE_FAILURES, X, tau)
    if failure is not None:
        raise failure[1]
    return rho


def _track_branch(beta, profile, X, tau) -> np.ndarray:
    """Simple-wave roots at X over an array of tau, continued from the X = 0 root Phi(tau).

    Each element not yet resolved retries with 1, 2, 4, ..., 256 equal
    substeps in X, warm-starting each substep from the last.
    """
    rho = np.array(profile(tau), dtype=float)
    todo = np.arange(tau.size)
    for n_sub in BRANCH_SUBSTEPS:
        idx, r = todo, rho[todo]
        for j in range(1, n_sub + 1):
            r, code = _simple_wave_solve(beta, profile, X * j / n_sub, tau[idx], r, check=False)
            idx, r = idx[code == 0], r[code == 0]
        rho[idx] = r
        todo = todo[~np.isin(todo, idx)]
        if todo.size == 0:
            return rho
    raise _point_error(NoConvergence, "simple-wave branch tracking failed", (X, tau[todo[0]]))


def eval_simple_wave(beta: float, profile: ProfileFunction, X: float, tau: float,
                     rho_guess: Optional[float] = None) -> float:
    """Amplitude of the plane-polarized simple wave at a single point.

    Solves the implicit relation rho = Phi(tau - 3*beta*X*rho^2) to 1e-12 on
    the branch continued in X from the X = 0 root rho = Phi(tau).  An explicit
    rho_guess selects a branch directly; otherwise the branch is tracked by
    stepping X from 0 and warm-starting Newton at each substep.  This is a
    one-point view of the array solver behind sample_simple_wave.
    """
    if rho_guess is None:
        return float(sample_simple_wave(beta, profile, [X], [tau])[0, 0])
    return float(_simple_wave_solve(beta, profile, float(X), np.array([float(tau)]),
                                    np.array([float(rho_guess)]))[0])


def sample_simple_wave(beta: float, profile: ProfileFunction, X_grid, tau_grid) -> np.ndarray:
    """Simple-wave amplitude on a rectangle, shape (len(X_grid), len(tau_grid)).

    Seed graph: row i is warm-started from row i-1, so each X row is one
    array Newton over tau.  The first row starts from rho = Phi(tau), with
    the branch-tracking substeps of _track_branch when its X is not 0, per
    element on the points not yet resolved.  A failure raises NoConvergence
    naming the first failing point (X, tau) in row-major order, in its
    message and coordinate.
    """
    X_grid = np.asarray(X_grid, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    out = np.empty((len(X_grid), len(tau_grid)))
    for i, X in enumerate(X_grid.tolist()):
        if i == 0 and X != 0.0:
            out[0] = _track_branch(beta, profile, X, tau_grid)
        else:
            out[i] = _simple_wave_solve(beta, profile, X, tau_grid,
                                        out[i - 1] if i else profile(tau_grid))
    return out


# ---------------------------------------------------------------------------
# hodograph family


@dataclass(frozen=True)
class HodographData:
    """Generating functions of the hodograph solution family.

    phase_fn depends on the phase theta, radial_fn on the amplitude rho;
    radial_fn must provide usable first and second derivatives.
    """

    phase_fn: ProfileFunction
    radial_fn: ProfileFunction


def hodograph_forward(hd: HodographData, beta: float, theta, rho):
    """Map (theta, rho) to the physical coordinates (X, tau).

    X = s(theta)/(2 beta rho^3) - r'(rho)/(2 beta rho),
    tau = -3 s(theta)/(2 rho) - r(rho) + rho r'(rho)/2,
    with s = phase_fn and r = radial_fn.  rho = 0 raises ZeroDivisionError.
    """
    theta = np.asarray(theta, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if np.any(rho == 0.0):
        raise ZeroDivisionError("hodograph map is singular at rho = 0")
    s = hd.phase_fn(theta)
    r = hd.radial_fn(rho)
    dr = hd.radial_fn.deriv(rho)
    X = s / (2.0 * beta * rho**3) - dr / (2.0 * beta * rho)
    tau = -3.0 * s / (2.0 * rho) - r + 0.5 * rho * dr
    if X.ndim == 0:
        return float(X), float(tau)
    return X, tau


def hodograph_jacobian(hd: HodographData, beta: float, theta, rho) -> np.ndarray:
    """Jacobian d(X, tau)/d(theta, rho) of the forward map, shape (2, 2, *theta.shape)."""
    theta = np.asarray(theta, dtype=float)
    rho = np.asarray(rho, dtype=float)
    s = hd.phase_fn(theta)
    ds = hd.phase_fn.deriv(theta)
    dr = hd.radial_fn.deriv(rho)
    d2r = hd.radial_fn.deriv2(rho)
    # float_power is libm pow per element, the same bits as a Python float
    # power; numpy's ** on arrays may differ from it in the last place
    rho2, rho3, rho4 = (np.float_power(rho, k) for k in (2, 3, 4))
    X_theta = ds / (2.0 * beta * rho3)
    X_rho = -3.0 * s / (2.0 * beta * rho4) - d2r / (2.0 * beta * rho) + dr / (2.0 * beta * rho2)
    tau_theta = -3.0 * ds / (2.0 * rho)
    tau_rho = 3.0 * s / (2.0 * rho2) - 0.5 * dr + 0.5 * rho * d2r
    return np.array([[X_theta, X_rho], [tau_theta, tau_rho]])


HODOGRAPH_FAILURES = {
    1: (SingularJacobian, "fold: |det J| below 1e-14 of its scale"),
    2: (NoConvergence, "hodograph Newton damping exhausted"),
    3: (NoConvergence, f"hodograph inversion did not reach {HODOGRAPH_TOL:.0e}"),
}


def _hodograph_solve(hd, beta, X, tau, theta, rho, check=True, max_iter=NEWTON_MAX_ITER):
    """Invert the forward map at arrays of points, seeded at (theta, rho).

    One damped 2D Newton of at most max_iter sweeps over all points, with
    the forward map and its Jacobian evaluated once per sweep over the
    points still iterating.
    Returns (theta, rho), raising at the first failing point; with
    check=False, returns the iterates and the failure codes of
    _damped_newton instead.
    """
    if beta == 0.0 or np.any(np.asarray(rho) == 0.0):
        raise ValueError("the hodograph map needs beta != 0 and a seed with rho != 0")
    X, tau, theta, rho = np.broadcast_arrays(*np.atleast_1d(X, tau, theta, rho))

    def residual(u, idx):
        # a trial at rho = 0 gets a NaN residual, which is never accepted
        Xf, tf = hodograph_forward(hd, beta, u[0], np.where(u[1] == 0.0, np.nan, u[1]))
        res = [Xf - X[idx], tf - tau[idx]]
        return res, np.maximum(np.abs(res[0]), np.abs(res[1]))

    def newton_step(u, res, idx):
        (a, b), (c, d) = hodograph_jacobian(hd, beta, *u)
        det = a * d - b * c
        fold = np.abs(det) <= 1e-14 * np.maximum(np.abs(a * d) + np.abs(b * c), 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            return [(-res[0] * d + res[1] * b) / det, (-res[1] * a + res[0] * c) / det], fold

    u, code = _damped_newton(residual, newton_step, [theta, rho], HODOGRAPH_TOL, max_iter)
    if not check:
        return u, code
    failure = _first_failure(code, HODOGRAPH_FAILURES, X, tau)
    if failure is not None:
        raise failure[1]
    return u


def _hodograph_continue(hd, beta, X, tau, start):
    """Continue solved lanes over n steps, each step warm-started from the one before.

    X and tau broadcast to shape (n, w): step k solves lane l at
    (X[k, l], tau[k, l]) from lane l of step k-1, and step -1 is
    start = (theta, rho), each of shape (w,).  Lanes are independent.
    Pass 1 solves every step from start; pass 2 solves step k from pass-1
    step k-1, the march's own seed graph.  Both passes stop after
    HODOGRAPH_PASS_MAX_ITER sweeps.  A lane keeps its pass-2 values up to the
    first step where a pass fails or the passes differ by more than
    HODOGRAPH_AGREE, and is marched one step at a time from there.  Returns
    theta and rho of shape (n, w), and (lane, step, code) of the first
    failure in lane-major order, or None.
    """
    X, tau = np.broadcast_arrays(X, tau)
    n, w = X.shape
    if X.size == 0:
        return np.empty((n, w)), np.empty((n, w)), None
    # seeds far from the root may overflow the forward map; such a trial is
    # rejected by the damping, and its step marched below
    with np.errstate(all="ignore"):
        (th1, r1), c1 = _hodograph_solve(hd, beta, X.ravel(), tau.ravel(),
                                         *(np.broadcast_to(a, (n, w)).ravel() for a in start),
                                         check=False, max_iter=HODOGRAPH_PASS_MAX_ITER)
        th1, r1, c1 = (a.reshape(n, w) for a in (th1, r1, c1))
        theta, rho, code = th1.copy(), r1.copy(), c1.copy()
        k, lane = np.nonzero(np.logical_and.accumulate(c1 == 0, axis=0)[1:])
        (theta[k + 1, lane], rho[k + 1, lane]), code[k + 1, lane] = _hodograph_solve(
            hd, beta, X[k + 1, lane], tau[k + 1, lane], th1[k, lane], r1[k, lane], check=False,
            max_iter=HODOGRAPH_PASS_MAX_ITER)
    # pass 2 runs only where pass 1 converged up to its step, so code holds
    # pass 1's failures and pass 2's
    bad = ((code != 0) | (np.abs(theta - th1) > HODOGRAPH_AGREE)
           | (np.abs(rho - r1) > HODOGRAPH_AGREE))
    march = np.where(bad.any(axis=0), bad.argmax(axis=0), n)
    # a failure in lane l comes before every point of the lanes after it
    alive, failure = np.arange(w), None
    for k in range(march.min(), n):
        lane = alive[march[alive] <= k]
        prev = (theta[k - 1, lane], rho[k - 1, lane]) if k else (start[0][lane], start[1][lane])
        (theta[k, lane], rho[k, lane]), c = _hodograph_solve(hd, beta, X[k, lane], tau[k, lane],
                                                             *prev, check=False)
        if c.any():
            f = np.flatnonzero(c)[0]
            failure = (lane[f], k, c[f])
            alive = alive[alive < lane[f]]
    return theta, rho, failure


def hodograph_invert(hd: HodographData, beta: float, X: float, tau: float,
                     seed) -> PolarState:
    """Invert the forward map at one physical point by damped 2D Newton.

    A one-point view of the array solver behind sample_hodograph.  Converges
    when both coordinate residuals are <= 1e-10; raises SingularJacobian on a
    fold (|det| below 1e-14 * entry scale) and NoConvergence when the
    iteration budget or damping schedule is exhausted, naming (X, tau) in
    the message and coordinate.  The map is undefined for beta = 0 and at
    rho = 0, so either raises ValueError.
    """
    rho, theta = sample_hodograph(hd, beta, [X], [tau], seed)
    return PolarState(rho[0, 0], theta[0, 0])


def sample_hodograph(hd: HodographData, beta: float, X_grid, tau_grid, seed) -> PolarState:
    """Invert the hodograph map on a coordinate rectangle.

    Seed graph: point (i, j) is warm-started from (i, j-1), and the first
    column from (i-1, 0), starting at seed, so no point can change branch.
    Point (0, 0) is solved alone and raises at once if it fails.  Column 0
    is then continued down X one point per step, and the later tau columns
    along tau, one vector over the rows per step, each in two array Newton
    solves: pass 1 seeds every step from the first, pass 2 seeds step k
    from pass-1 step k-1.  Where pass 1 agrees with pass 2 to within
    HODOGRAPH_AGREE, pass 2 had the march's seed to that bound, and Newton
    contracts the difference to rounding, so pass 2 is kept.  From the
    first step where a pass fails or the two disagree, the row or column is
    marched one step at a time as the seed graph says.  A failure raises
    the error of the first failing point in row-major order, naming its
    (X, tau) in the message and coordinate.
    Returns (rho, theta) arrays of shape (len(X_grid), len(tau_grid)).
    """
    X_grid = np.asarray(X_grid, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    nX, nt = len(X_grid), len(tau_grid)
    rho = np.empty((nX, nt))
    theta = np.empty((nX, nt))
    if nX == 0 or nt == 0:
        return PolarState(rho, theta)
    theta[0, :1], rho[0, :1] = _hodograph_solve(hd, beta, X_grid[0], tau_grid[0], seed[0], seed[1])
    th, r, fail = _hodograph_continue(hd, beta, X_grid[1:, None], tau_grid[0],
                                      (theta[0, :1], rho[0, :1]))
    theta[1:, 0], rho[1:, 0] = th[:, 0], r[:, 0]
    # a failure at row k puts every later row after it in row-major order
    rows, failure = nX, None
    if fail is not None:
        _, step, code = fail
        rows = step + 1
        failure = _point_error(*HODOGRAPH_FAILURES[code], (X_grid[rows], tau_grid[0]))
    th, r, fail = _hodograph_continue(hd, beta, X_grid[:rows], tau_grid[1:, None],
                                      (theta[:rows, 0], rho[:rows, 0]))
    theta[:rows, 1:], rho[:rows, 1:] = th.T, r.T
    if fail is not None:
        lane, step, code = fail
        failure = _point_error(*HODOGRAPH_FAILURES[code], (X_grid[lane], tau_grid[step + 1]))
    if failure is not None:
        raise failure
    return PolarState(rho, theta)


# ---------------------------------------------------------------------------
# overdetermined level-set waves


def eval_overdetermined(f: TempleFlux, level: float, profile: ProfileFunction,
                        x, t, direction: int = 1, v_bracket=(1e-8, 10.0)) -> StrainState:
    """Wave riding a level set P(U, V) = level.

    U = F(x + direction*sqrt(level)*t) and V solves P(U, V) = level inside
    v_bracket, by one array solve over every point.  A failure raises the
    NoBracket or NoConvergence of the first failing point in row-major
    order, naming its (x, t) in the message and coordinate.  Requires
    level > 0.
    """
    if level <= 0.0:
        raise ValueError("level must be positive (it is a squared speed)")
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    c = math.sqrt(level)
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    U = np.asarray(profile(x + direction * c * t), dtype=float)
    try:
        V = solve_level_set(f, level, U, v_bracket)
    except (NoBracket, NoConvergence) as exc:
        k = exc.coordinate
        raise _point_error(type(exc), str(exc), (x.flat[k], t.flat[k]), "(x, t)") from exc
    return StrainState(float(U) if U.ndim == 0 else U, V)


# ---------------------------------------------------------------------------
# separable solutions


@dataclass(frozen=True)
class SeparableSolution:
    """phi(t) samples of the separable family u = phi e^{kx}, v = phi e^{-kx}."""

    wavenumber: float
    t_grid: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray

    def u_field(self, x_grid) -> np.ndarray:
        x = np.asarray(x_grid, dtype=float)
        return self.phi[:, None] * np.exp(self.wavenumber * x)[None, :]

    def v_field(self, x_grid) -> np.ndarray:
        x = np.asarray(x_grid, dtype=float)
        return self.phi[:, None] * np.exp(-self.wavenumber * x)[None, :]

    def first_integral(self, p_antiderivative: Callable) -> np.ndarray:
        """E(t) = phi'(t)^2/2 - k^2 W(phi^2)/2 with W an antiderivative of P.

        Constant along exact trajectories; drift measures integrator error.
        """
        W = np.asarray(p_antiderivative(self.phi**2), dtype=float)
        return 0.5 * self.dphi**2 - 0.5 * self.wavenumber**2 * W


def _product_scalar(f: Union[TempleFlux, Callable]) -> Callable:
    """Reduce a product-form flux P(u, v) = g(u v) to its scalar factor g."""
    if not isinstance(f, TempleFlux):
        return f

    def g(s):
        r = np.sqrt(np.maximum(np.asarray(s, dtype=float), 0.0))
        return f.p(r, r)

    # product form means P depends on (u, v) only through u*v
    rng = np.random.default_rng(0)
    for _ in range(8):
        a = rng.uniform(0.5, 1.5)
        b = rng.uniform(0.5, 1.5)
        direct = float(f.p(a, b))
        reduced = float(g(a * b))
        if abs(direct - reduced) > 1e-8 * max(1.0, abs(direct)):
            raise ValueError(
                f"flux {f.name!r} is not of product form: P({a:.3f},{b:.3f}) = {direct!r} "
                f"but P(sqrt(ab),sqrt(ab)) = {reduced!r}"
            )
    return g


def eval_separable(f: Union[TempleFlux, Callable], k: float, phi0: float, dphi0: float,
                   t_grid, substeps: int = 1) -> SeparableSolution:
    """Integrate phi'' = k^2 P(phi^2) phi with fixed-step RK4 on t_grid.

    f is either a product-form flux (P(u, v) = g(u v), verified on samples)
    or the scalar factor g itself.  k = 0 degenerates to free motion
    phi = phi0 + dphi0 * t.  Raises BlowupDetected if phi leaves the domain
    where the modulus can be evaluated (non-finite state).
    """
    g = _product_scalar(f)
    k = float(k)

    def rhs(t, y):
        return np.array([y[1], k * k * float(g(y[0] * y[0])) * y[0]])

    states = rk4_integrate(rhs, t_grid, [float(phi0), float(dphi0)], substeps=substeps)
    return SeparableSolution(
        wavenumber=k,
        t_grid=np.asarray(t_grid, dtype=float),
        phi=states[:, 0],
        dphi=states[:, 1],
    )

