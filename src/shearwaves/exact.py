"""Closed-form and semi-analytic solution families.

All evaluators are vectorized over coordinate arrays and return plain
arrays bundled in light NamedTuples, so they can serve directly as oracles
for the finite-volume solvers and the residual checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .constitutive import ShearModulus, TempleFlux, eval_Q, solve_level_set
from .errors import NoConvergence, SingularJacobian, point_error
from .numerics import rk4_integrate
from .profiles import ProfileFunction

DISPERSION_RTOL = 1e-12
SIMPLE_WAVE_TOL = 1e-12
HODOGRAPH_TOL = 1e-10
# converged roots of either sampler scatter by about 1e-13; distinct branches
# are O(1) apart
HODOGRAPH_AGREE = 1e-8
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 20
# sweeps a point seeded from another point's pass-1 value gets in an array
# pass of _continue; points still iterating after that are marched at the full
# NEWTON_MAX_ITER
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
    c = w.speed
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
    The list residual returns may go on past the residual components with
    arrays it computed on the way, such as the profile values at u; res
    carries them beside u, so newton_step reads them at its own iterate.
    Each element tries the fractions 1, 1/2, ..., 2^-NEWTON_MAX_HALVINGS of
    its step and takes the first that lowers its norm, until norm <= tol or
    max_iter sweeps.  Returns the unknowns and a code per element: 0
    converged, 1 flagged by newton_step, 2 damping exhausted, 3 still above
    tol after max_iter sweeps.

    Elements still iterating stay packed in x, res (every entry of it) and
    err beside their indices act, and are written back when they leave.
    The full step is tried as x + step (1.0 * step == step); if every
    element takes it, it replaces the packed state whole.
    """
    u = [np.array(a, dtype=float) for a in unknowns]
    act = np.arange(u[0].size)
    code = np.zeros(act.size, dtype=int)
    x = u  # u itself until the first element leaves, while act is every index
    res, err = residual(x, act)

    def drop(gone, why, step=()):
        """Write back the elements gone with code why; pack the rest and their step."""
        nonlocal act, x, res, err
        for out, a in zip(u, x):
            out[act[gone]] = a[gone]
        code[act[gone]] = why
        keep = ~gone
        act, err, x, res = act[keep], err[keep], [a[keep] for a in x], [r[keep] for r in res]
        return [s[keep] for s in step]

    for _ in range(max_iter):
        done = err <= tol
        if done.any():
            drop(done, 0)
        if act.size == 0:
            return u, code
        step, flag = newton_step(x, res, act)
        if flag.any():
            step = drop(flag, 1, step)
        trial = [a + s for a, s in zip(x, step)]
        res_t, err_t = residual(trial, act)
        won = err_t < err
        if won.all():
            x, res, err = trial, res_t, err_t
            continue
        for old, new in zip(x + res + [err], trial + res_t + [err_t]):
            old[won] = new[won]
        left, lam = np.flatnonzero(~won), 1.0
        for _h in range(NEWTON_MAX_HALVINGS):
            lam *= 0.5
            trial = [a[left] + lam * s[left] for a, s in zip(x, step)]
            res_t, err_t = residual(trial, act[left])
            won = err_t < err[left]
            for old, new in zip(x + res + [err], trial + res_t + [err_t]):
                old[left[won]] = new[won]
            left = left[~won]
            if left.size == 0:
                break
        else:
            drop(np.isin(np.arange(act.size), left), 2)
    for out, a in zip(u, x):
        out[act] = a
    code[act[~(err <= tol)]] = 3
    return u, code


def _raise_first_failure(code, failures, X, tau):
    """Raise the error of the first element with a nonzero code, if any."""
    bad = np.flatnonzero(code)
    if bad.size:
        k = bad[0]
        raise point_error(*failures[code[k]], (X[k], tau[k]))


def _continue(solve, pred, lead, start):
    """Solve every point of a flattened rectangle along its seed graph.

    The seed graph marches point p from the solution at point pred[p] < p,
    or from start[:, p] where pred[p] < 0; solve(idx, seeds, max_iter)
    returns the unknowns and the _damped_newton codes at the points idx,
    with seeds and unknowns of shape (k, len(idx)).  Pass 1 solves the
    points with lead < 0, which include every point with pred < 0, from
    start at the full NEWTON_MAX_ITER, so it solves those as the march does;
    it then solves every other point from the pass-1 value at lead[p], and
    pass 2 each point from the pass-1 value at pred[p], both within
    HODOGRAPH_PASS_MAX_ITER sweeps.  A point keeps its pass-2 value where
    both passes converged and agree within HODOGRAPH_AGREE at it and at
    every point of its seed chain: pass 2 then had the march's seed to that
    bound, and Newton contracts the difference to rounding.  Every other
    point is marched in seed-graph order, one array solve per level of the
    graph, up to the first failing point in row-major order.  Returns the
    unknowns, shaped as start, and a code per point, nonzero first at that
    failure.  Where both passes converged and agree at every point, nothing
    is marched and the pass-2 values and codes (all 0) are returned at once:
    the general path would find every chain good, set no code (c1 is 0
    everywhere) and march nothing.
    """
    def run(idx, seeds, max_iter):
        if idx.size == 0:
            return seeds, np.zeros(0, dtype=int)
        vals, code = solve(idx, seeds, max_iter)
        return np.reshape(vals, seeds.shape), code

    # seeds far from a root may overflow the map; such a trial is rejected by
    # the damping, and every failure is reported by its code
    with np.errstate(all="ignore"):
        # no pass solves a point from a pass-1 value that failed (code 1 until solved)
        u1, c1 = start.copy(), np.ones(pred.size, dtype=int)
        idx = np.flatnonzero(lead < 0)
        u1[:, idx], c1[idx] = run(idx, start[:, idx], NEWTON_MAX_ITER)
        idx = np.flatnonzero((lead >= 0) & (c1[lead] == 0))
        u1[:, idx], c1[idx] = run(idx, u1.take(lead[idx], axis=1), HODOGRAPH_PASS_MAX_ITER)
        u, code = u1.copy(), c1.copy()
        idx = np.flatnonzero((pred >= 0) & (c1[pred] == 0))
        u[:, idx], code[idx] = run(idx, u1.take(pred[idx], axis=1), HODOGRAPH_PASS_MAX_ITER)
        good = (c1 == 0) & (code == 0) & np.all(np.abs(u - u1) <= HODOGRAPH_AGREE, axis=0)
        if good.all():
            return u, code
        # pointer doubling ANDs good over each seed chain and sums its length
        anc, depth = np.where(pred < 0, np.arange(pred.size), pred), (pred >= 0).astype(int)
        for _ in range(pred.size.bit_length()):
            good &= good[anc]
            depth += depth[anc]
            nxt = anc[anc]
            if np.array_equal(nxt, anc):  # every pointer is at its root
                break
            anc = nxt
        code = np.where(pred < 0, c1, 0)  # pass 1 solved these as the march does
        failed = np.flatnonzero(code)
        first = failed[0] if failed.size else code.size
        todo = np.flatnonzero(~good[:first] & (pred[:first] >= 0))
        todo = todo[np.argsort(depth[todo], kind="stable")]
        # level by level: a point's predecessor is one level up
        for ready in np.split(todo, np.flatnonzero(np.diff(depth[todo])) + 1):
            ready = ready[ready < first]
            u[:, ready], code[ready] = run(ready, u.take(pred[ready], axis=1), NEWTON_MAX_ITER)
            failed = ready[code[ready] != 0]
            if failed.size:
                first = min(first, failed[0])
    return u, code


SIMPLE_WAVE_FAILURES = {
    1: (NoConvergence, "simple-wave Newton hit a vanishing derivative"),
    2: (NoConvergence, "simple-wave Newton stalled"),
    3: (NoConvergence, f"simple-wave Newton did not reach {SIMPLE_WAVE_TOL:.0e}"),
}
BRANCH_SUBSTEPS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def _simple_wave_coefficients(beta, X):
    """3 beta X and 6 beta X, raising OverflowError where either is not finite."""
    with np.errstate(all="ignore"):
        c3, c6 = 3.0 * beta * X, 6.0 * beta * X
    if not (np.all(np.isfinite(c3)) and np.all(np.isfinite(c6))):
        raise OverflowError(f"3 beta X or 6 beta X is not finite at beta = {beta!r}")
    return c3, c6


def _simple_wave_solve(beta, profile, X, tau, rho, max_iter=NEWTON_MAX_ITER):
    """Newton for g(rho) = rho - Phi(tau - 3 beta X rho^2) = 0 at points (X, tau).

    X is one coordinate or an array shaped as tau.  Returns the iterates and
    the failure codes of _damped_newton.
    """
    X, tau = np.broadcast_arrays(X, tau)
    c3, c6 = _simple_wave_coefficients(beta, X)

    def residual(u, idx):
        foot = tau[idx] - c3[idx] * u[0] * u[0]
        g = u[0] - profile(foot)
        return [g, foot], np.abs(g)

    def newton_step(u, res, idx):
        dg = 1.0 + c6[idx] * u[0] * profile.deriv(res[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            return [-(res[0] / dg)], (dg == 0.0) | ~np.isfinite(dg)

    (rho,), code = _damped_newton(residual, newton_step, [rho], SIMPLE_WAVE_TOL, max_iter)
    return rho, code


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
            r, code = _simple_wave_solve(beta, profile, X * j / n_sub, tau[idx], r)
            idx, r = idx[code == 0], r[code == 0]
        rho[idx] = r
        todo = todo[~np.isin(todo, idx)]
        if todo.size == 0:
            return rho
    raise point_error(NoConvergence, "simple-wave branch tracking failed", (X, tau[todo[0]]))


def eval_simple_wave(beta: float, profile: ProfileFunction, X: float, tau: float) -> float:
    """Amplitude of the plane-polarized simple wave at a single point.

    Solves the implicit relation rho = Phi(tau - 3*beta*X*rho^2) to 1e-12 on
    the branch continued in X from the X = 0 root rho = Phi(tau).  This is a
    one-point view of the array solver behind sample_simple_wave.
    """
    return float(sample_simple_wave(beta, profile, [X], [tau])[0, 0])


def sample_simple_wave(beta: float, profile: ProfileFunction, X_grid, tau_grid) -> np.ndarray:
    """Simple-wave amplitude on a rectangle, shape (len(X_grid), len(tau_grid)).

    Seed graph: point (i, j) is warm-started from (i-1, j), and row 0 from
    rho = Phi(tau), with the branch-tracking substeps of _track_branch when
    its X is not 0, per element on the points not yet resolved.  The
    rectangle is then solved by _continue: pass 1 solves every row from row
    0 at the full sweep budget, pass 2 each row from the pass-1 row before
    it, and from the first point of a column where a pass fails or the two
    disagree, the column is marched row by row as the seed graph says.  A
    failure raises NoConvergence naming the first failing point (X, tau) in
    row-major order, in its message and coordinate; OverflowError where
    3 beta X or 6 beta X is not finite.
    """
    X_grid = np.asarray(X_grid, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    _simple_wave_coefficients(beta, X_grid)
    X, tau = (a.ravel() for a in np.meshgrid(X_grid, tau_grid, indexing="ij"))
    if X.size == 0:
        return np.empty((len(X_grid), len(tau_grid)))
    row0 = _track_branch(beta, profile, X[0], tau_grid) if X[0] != 0.0 else profile(tau_grid)
    p = np.arange(X.size)
    (rho,), code = _continue(
        lambda idx, seeds, it: _simple_wave_solve(beta, profile, X[idx], tau[idx], *seeds,
                                                  max_iter=it),
        pred=p - len(tau_grid), lead=np.full(p.size, -1),
        start=np.tile(row0, len(X_grid))[None])
    _raise_first_failure(code, SIMPLE_WAVE_FAILURES, X, tau)
    return rho.reshape(len(X_grid), len(tau_grid))


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


def hodograph_forward(hd: HodographData, beta: float, theta, rho, aux=None):
    """Map (theta, rho) to the physical coordinates (X, tau).

    X = s(theta)/(2 beta rho^3) - r'(rho)/(2 beta rho),
    tau = -3 s(theta)/(2 rho) - r(rho) + rho r'(rho)/2,
    with s = phase_fn and r = radial_fn.  rho = 0 raises ZeroDivisionError.
    Given a list aux, appends s(theta) and r'(rho) to it, each shaped as X
    (a profile that returns a scalar is spread to that shape), which
    hodograph_jacobian takes as its aux at the same (theta, rho) instead of
    evaluating them again.
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
    if aux is not None:
        aux += [a if np.shape(a) == X.shape else np.full(X.shape, a, dtype=float) for a in (s, dr)]
    if X.ndim == 0:
        return float(X), float(tau)
    return X, tau


def hodograph_jacobian(hd: HodographData, beta: float, theta, rho, aux=None):
    """Jacobian d(X, tau)/d(theta, rho) of the forward map.

    Returns the rows ((X_theta, X_rho), (tau_theta, tau_rho)), each entry
    shaped as theta; np.array of it is the (2, 2, *theta.shape) array.  aux
    is the pair s(theta), r'(rho) that hodograph_forward appended to its aux
    at this (theta, rho); without it both are evaluated here.
    """
    theta = np.asarray(theta, dtype=float)
    rho = np.asarray(rho, dtype=float)
    s, dr = (hd.phase_fn(theta), hd.radial_fn.deriv(rho)) if aux is None else aux
    ds = hd.phase_fn.deriv(theta)
    d2r = hd.radial_fn.deriv2(rho)
    rho2 = rho * rho
    rho3, rho4 = rho2 * rho, rho2 * rho2
    X_theta = ds / (2.0 * beta * rho3)
    X_rho = -3.0 * s / (2.0 * beta * rho4) - d2r / (2.0 * beta * rho) + dr / (2.0 * beta * rho2)
    tau_theta = -3.0 * ds / (2.0 * rho)
    tau_rho = 3.0 * s / (2.0 * rho2) - 0.5 * dr + 0.5 * rho * d2r
    return (X_theta, X_rho), (tau_theta, tau_rho)


HODOGRAPH_FAILURES = {
    1: (SingularJacobian, "fold: |det J| below 1e-14 of its scale"),
    2: (NoConvergence, "hodograph Newton damping exhausted"),
    3: (NoConvergence, f"hodograph inversion did not reach {HODOGRAPH_TOL:.0e}"),
}


def _hodograph_solve(hd, beta, X, tau, theta, rho, max_iter=NEWTON_MAX_ITER):
    """Invert the forward map at arrays of points, seeded at (theta, rho).

    One damped 2D Newton of at most max_iter sweeps over all points, with
    the forward map and its Jacobian evaluated once per sweep over the
    points still iterating; the Jacobian reuses the s(theta) and r'(rho)
    that the forward map computed at the iterate.  Returns the iterates
    (theta, rho) and the failure codes of _damped_newton.
    """
    if beta == 0.0 or np.any(np.asarray(rho) == 0.0):
        raise ValueError("the hodograph map needs beta != 0 and a seed with rho != 0")
    X, tau, theta, rho = np.broadcast_arrays(*np.atleast_1d(X, tau, theta, rho))

    def residual(u, idx):
        # a trial at rho = 0 gets a NaN residual, which is never accepted, so
        # s and r' ride in res at an iterate whose rho is u[1]
        aux = []
        Xf, tf = hodograph_forward(hd, beta, u[0], np.where(u[1] == 0.0, np.nan, u[1]), aux=aux)
        res = [Xf - X[idx], tf - tau[idx]]
        return res + aux, np.maximum(np.abs(res[0]), np.abs(res[1]))

    def newton_step(u, res, idx):
        (a, b), (c, d) = hodograph_jacobian(hd, beta, *u, aux=res[2:])
        ad, bc = a * d, b * c
        det = ad - bc
        fold = np.abs(det) <= 1e-14 * np.maximum(np.abs(ad) + np.abs(bc), 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            return [(-res[0] * d + res[1] * b) / det, (-res[1] * a + res[0] * c) / det], fold

    return _damped_newton(residual, newton_step, [theta, rho], HODOGRAPH_TOL, max_iter)


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
    The rectangle is solved by _continue: pass 1 solves column 0 from seed
    at the full sweep budget and every later point from its row's pass-1
    column-0 value, pass 2 each point from the pass-1 value of its
    seed-graph predecessor, and from the first point of a seed chain where a
    pass fails or the two disagree, the points are marched one seed-graph
    step at a time.  A failure raises the error of the first failing point
    in row-major order, naming its (X, tau) in the message and coordinate.
    Returns (rho, theta) arrays of shape (len(X_grid), len(tau_grid)).
    """
    shape = (len(X_grid), len(tau_grid))
    X, tau = (a.ravel() for a in np.meshgrid(np.asarray(X_grid, dtype=float),
                                             np.asarray(tau_grid, dtype=float), indexing="ij"))
    if X.size == 0:
        return PolarState(np.empty(shape), np.empty(shape))
    p = np.arange(X.size)
    j = p % shape[1]
    (theta, rho), code = _continue(
        lambda idx, seeds, it: _hodograph_solve(hd, beta, X[idx], tau[idx], *seeds, max_iter=it),
        pred=p - np.where(j, 1, shape[1]), lead=np.where(j, p - j, -1),
        start=np.broadcast_to(np.asarray(seed, dtype=float).reshape(2, 1), (2, p.size)))
    _raise_first_failure(code, HODOGRAPH_FAILURES, X, tau)
    return PolarState(rho.reshape(shape), theta.reshape(shape))


# ---------------------------------------------------------------------------
# overdetermined level-set waves


def eval_overdetermined(f: TempleFlux, level: float, profile: ProfileFunction,
                        x, t, direction: int = 1, v_bracket=(1e-8, 10.0)) -> StrainState:
    """Wave riding a level set P(U, V) = level.

    U = F(x + direction*sqrt(level)*t) and V solves P(U, V) = level inside
    v_bracket, by one array solve over every point.  A failure raises the
    NoConvergence of the first failing point in row-major order, naming its
    (x, t) in the message and coordinate.  Requires level > 0.
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
    except NoConvergence as exc:
        k = exc.coordinate
        raise point_error(NoConvergence, str(exc), (x.flat[k], t.flat[k]), "(x, t)") from exc
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


PRODUCT_FORM_PAIRS = (
    (1.1369616873214543, 0.7697867137638703), (0.5409735239361947, 0.5165276355285291),
    (1.3132702392002724, 1.4127555772777218), (1.1066357757671799, 1.2294965609839985),
    (1.043624991465423, 1.4350724237877683), (1.3158535541215322, 0.5027385001701481),
    (1.3574042765875693, 0.5335855753054644), (1.229655446429944, 0.675655620602559))


def _product_scalar(f: TempleFlux) -> Callable:
    """Reduce a product-form flux P(u, v) = g(u v) to its scalar factor g."""
    def g(s):
        r = np.sqrt(np.maximum(np.asarray(s, dtype=float), 0.0))
        return f.p(r, r)

    # product form means P depends on (u, v) only through u*v: P(a, b) = P(r, r), r^2 = ab
    for a, b in PRODUCT_FORM_PAIRS:
        direct = float(f.p(a, b))
        reduced = float(g(a * b))
        if abs(direct - reduced) > 1e-8 * max(1.0, abs(direct)):
            raise ValueError(
                f"flux {f.name!r} is not of product form: P({a:.3f},{b:.3f}) = {direct!r} "
                f"but P(sqrt(ab),sqrt(ab)) = {reduced!r}"
            )
    return g


def eval_separable(f: TempleFlux, k: float, phi0: float, dphi0: float,
                   t_grid, substeps: int = 1) -> SeparableSolution:
    """Integrate phi'' = k^2 P(phi^2) phi with fixed-step RK4 on t_grid.

    f is a product-form flux (P(u, v) = g(u v), verified on samples).  k = 0
    degenerates to free motion phi = phi0 + dphi0 * t.  Raises BlowupDetected
    if phi leaves the domain where the modulus can be evaluated (non-finite
    state).
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

