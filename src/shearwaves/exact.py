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
    InconsistentField,
    NoConvergence,
    SingularJacobian,
    StepFailure,
)
from .numerics import cumtrapz, rk4_integrate
from .profiles import ProfileFunction

DISPERSION_RTOL = 1e-12
SIMPLE_WAVE_TOL = 1e-12
HODOGRAPH_TOL = 1e-10
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 20


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


def polar_to_strain(rho, theta) -> StrainState:
    rho = np.asarray(rho, dtype=float)
    return StrainState(rho * np.cos(theta), rho * np.sin(theta))


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


def eval_carroll(w: CarrollWave, x, t) -> StrainState:
    phase = w.wavenumber * np.asarray(x, dtype=float) - w.omega * np.asarray(t, dtype=float)
    return StrainState(
        w.amplitude * np.cos(phase),
        w.polarization * w.amplitude * np.sin(phase),
    )


def carroll_full_state(w: CarrollWave, x, t=0.0) -> FullState:
    """Strains plus the matching velocities M = -(omega/k) U, N = -(omega/k) V."""
    U, V = eval_carroll(w, x, t)
    c = w.omega / w.wavenumber
    return FullState(U, V, -c * U, -c * V)


def eval_generalized_carroll(m: ShearModulus, amplitude: float, theta_profile: ProfileFunction,
                             x, t, direction: int = -1, polarization: int = 1) -> StrainState:
    """Constant-amplitude wave with arbitrary phase profile.

    theta = F(x + direction * c * t) with c = sqrt(Q(A^2)/rho); the strain is
    (A cos theta, polarization * A sin theta).  direction and polarization are
    independent sign choices; F(xi) = k*xi with direction=-1 reproduces
    eval_carroll with polarization +1.
    """
    if direction not in (-1, 1) or polarization not in (-1, 1):
        raise ValueError("direction and polarization must be +1 or -1")
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    c = math.sqrt(eval_Q(m, amplitude**2) / m.rho)
    xi = np.asarray(x, dtype=float) + direction * c * np.asarray(t, dtype=float)
    theta = theta_profile(xi)
    return StrainState(amplitude * np.cos(theta), polarization * amplitude * np.sin(theta))


def generalized_carroll_full_state(m: ShearModulus, amplitude: float,
                                   theta_profile: ProfileFunction, x, t,
                                   direction: int = -1, polarization: int = 1) -> FullState:
    """Generalized wave with velocities M = direction*c*U, N = direction*c*V."""
    U, V = eval_generalized_carroll(m, amplitude, theta_profile, x, t, direction, polarization)
    c = math.sqrt(eval_Q(m, amplitude**2) / m.rho)
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


def _simple_wave_newton(beta, profile, X, tau, rho0):
    """Damped Newton for g(rho) = rho - Phi(tau - 3 beta X rho^2) = 0."""
    rho = float(rho0)

    def g(r):
        return r - float(profile(tau - 3.0 * beta * X * r * r))

    gr = g(rho)
    for _ in range(NEWTON_MAX_ITER):
        if abs(gr) <= SIMPLE_WAVE_TOL:
            return rho
        arg = tau - 3.0 * beta * X * rho * rho
        dg = 1.0 + 6.0 * beta * X * rho * float(profile.deriv(arg))
        if dg == 0.0 or not np.isfinite(dg):
            raise NoConvergence("simple-wave Newton hit a vanishing derivative")
        step = gr / dg
        new_rho = rho - step
        new_gr = g(new_rho)
        halvings = 0
        while abs(new_gr) >= abs(gr) and halvings < NEWTON_MAX_HALVINGS:
            step *= 0.5
            new_rho = rho - step
            new_gr = g(new_rho)
            halvings += 1
        if abs(new_gr) >= abs(gr):
            raise NoConvergence("simple-wave Newton stalled")
        rho, gr = new_rho, new_gr
    raise NoConvergence(f"simple-wave Newton did not reach {SIMPLE_WAVE_TOL:.0e}")


def eval_simple_wave(beta: float, profile: ProfileFunction, X: float, tau: float,
                     rho_guess: Optional[float] = None) -> float:
    """Amplitude of the plane-polarized simple wave at a single point.

    Solves the implicit relation rho = Phi(tau - 3*beta*X*rho^2) to 1e-12 on
    the branch continued in X from the X = 0 root rho = Phi(tau).  An explicit
    rho_guess selects a branch directly; otherwise the branch is tracked by
    stepping X from 0 and warm-starting Newton at each substep.
    """
    beta, X, tau = float(beta), float(X), float(tau)
    if rho_guess is not None:
        return _simple_wave_newton(beta, profile, X, tau, float(rho_guess))
    rho = float(profile(tau))
    if X == 0.0:
        return rho
    for n_sub in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        try:
            r = rho
            for j in range(1, n_sub + 1):
                r = _simple_wave_newton(beta, profile, X * j / n_sub, tau, r)
            return r
        except NoConvergence:
            continue
    raise NoConvergence(f"simple-wave branch tracking failed at X = {X!r}, tau = {tau!r}")


def sample_simple_wave(beta: float, profile: ProfileFunction, X_grid, tau_grid) -> np.ndarray:
    """Simple-wave amplitude on a rectangle, shape (len(X_grid), len(tau_grid)).

    Marches in X, warm-starting each point from the previous X level.
    """
    X_grid = np.asarray(X_grid, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    out = np.empty((len(X_grid), len(tau_grid)))
    prev = None
    for i, X in enumerate(X_grid):
        for j, tau in enumerate(tau_grid):
            guess = prev[j] if prev is not None else None
            if guess is None and X != 0.0:
                out[i, j] = eval_simple_wave(beta, profile, X, tau)
            else:
                seed = guess if guess is not None else float(profile(tau))
                out[i, j] = _simple_wave_newton(beta, profile, X, tau, seed)
        prev = out[i]
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


def hodograph_jacobian(hd: HodographData, beta: float, theta: float, rho: float) -> np.ndarray:
    """2x2 Jacobian d(X, tau)/d(theta, rho) of the forward map."""
    s = float(hd.phase_fn(theta))
    ds = float(hd.phase_fn.deriv(theta))
    dr = float(hd.radial_fn.deriv(rho))
    d2r = float(hd.radial_fn.deriv2(rho))
    X_theta = ds / (2.0 * beta * rho**3)
    X_rho = -3.0 * s / (2.0 * beta * rho**4) - d2r / (2.0 * beta * rho) + dr / (2.0 * beta * rho**2)
    tau_theta = -3.0 * ds / (2.0 * rho)
    tau_rho = 3.0 * s / (2.0 * rho**2) - 0.5 * dr + 0.5 * rho * d2r
    return np.array([[X_theta, X_rho], [tau_theta, tau_rho]])


def hodograph_invert(hd: HodographData, beta: float, X: float, tau: float,
                     seed) -> PolarState:
    """Invert the forward map at one physical point by damped 2D Newton.

    Converges when both coordinate residuals are <= 1e-10; raises
    SingularJacobian on a fold (|det| below 1e-14 * entry scale) and
    NoConvergence when the iteration budget or damping schedule is exhausted.
    The map is undefined for beta = 0 and at rho = 0, so either raises
    ValueError.
    """
    theta, rho = float(seed[0]), float(seed[1])
    X, tau = float(X), float(tau)
    if beta == 0.0 or rho == 0.0:
        raise ValueError("the hodograph map needs beta != 0 and a seed with rho != 0")

    def residual(th, r):
        Xf, tf = hodograph_forward(hd, beta, th, r)
        return np.array([Xf - X, tf - tau])

    res = residual(theta, rho)
    for _ in range(NEWTON_MAX_ITER):
        if np.max(np.abs(res)) <= HODOGRAPH_TOL:
            return PolarState(np.float64(rho), np.float64(theta))
        J = hodograph_jacobian(hd, beta, theta, rho)
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        scale = abs(J[0, 0] * J[1, 1]) + abs(J[0, 1] * J[1, 0])
        if abs(det) <= 1e-14 * max(scale, 1e-300):
            raise SingularJacobian(
                f"fold at (theta, rho) = ({theta!r}, {rho!r}): |det J| = {abs(det):.3e}"
            )
        dth = (-res[0] * J[1, 1] + res[1] * J[0, 1]) / det
        drh = (-res[1] * J[0, 0] + res[0] * J[1, 0]) / det
        lam = 1.0
        for _h in range(NEWTON_MAX_HALVINGS + 1):
            th_new, rho_new = theta + lam * dth, rho + lam * drh
            if rho_new != 0.0:
                res_new = residual(th_new, rho_new)
                if np.max(np.abs(res_new)) < np.max(np.abs(res)):
                    theta, rho, res = th_new, rho_new, res_new
                    break
            lam *= 0.5
        else:
            raise NoConvergence("hodograph Newton damping exhausted")
    raise NoConvergence(f"hodograph inversion did not reach {HODOGRAPH_TOL:.0e}")


def sample_hodograph(hd: HodographData, beta: float, X_grid, tau_grid, seed) -> PolarState:
    """Invert the hodograph map on a coordinate rectangle.

    Marches across the grid warm-starting each Newton solve from the
    neighbouring solution; returns (rho, theta) arrays of shape
    (len(X_grid), len(tau_grid)).
    """
    X_grid = np.asarray(X_grid, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    nX, nt = len(X_grid), len(tau_grid)
    rho = np.empty((nX, nt))
    theta = np.empty((nX, nt))
    row_seed = (float(seed[0]), float(seed[1]))
    for i in range(nX):
        pt_seed = row_seed
        for j in range(nt):
            sol = hodograph_invert(hd, beta, X_grid[i], tau_grid[j], pt_seed)
            rho[i, j], theta[i, j] = sol.rho, sol.theta
            pt_seed = (theta[i, j], rho[i, j])
            if j == 0:
                row_seed = pt_seed
    return PolarState(rho, theta)


# ---------------------------------------------------------------------------
# overdetermined level-set waves


def eval_overdetermined(f: TempleFlux, level: float, profile: ProfileFunction,
                        x, t, direction: int = 1, v_bracket=(1e-8, 10.0)) -> StrainState:
    """Wave riding a level set P(U, V) = level.

    U = F(x + direction*sqrt(level)*t) and V solves P(U, V) = level inside
    v_bracket at every point.  Requires level > 0.
    """
    if level <= 0.0:
        raise ValueError("level must be positive (it is a squared speed)")
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    c = math.sqrt(level)
    xi = np.asarray(x, dtype=float) + direction * c * np.asarray(t, dtype=float)
    U = np.asarray(profile(xi), dtype=float)
    V = np.empty_like(U, dtype=float)
    flat_U = U.reshape(-1)
    flat_V = V.reshape(-1)
    for i, u in enumerate(flat_U):
        flat_V[i] = solve_level_set(f, level, float(u), v_bracket)
    if U.ndim == 0:
        return StrainState(float(U), float(flat_V[0]))
    return StrainState(U, V)


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
    phi = phi0 + dphi0 * t.  Raises StepFailure if phi leaves the domain
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


# ---------------------------------------------------------------------------
# potential variable for the polar system


@dataclass(frozen=True)
class PotentialField:
    """Potential phi with phi_tau = rho, phi_X = beta rho^3 and its path check."""

    phi: np.ndarray
    path_residual: float
    X_grid: np.ndarray
    tau_grid: np.ndarray
    beta: float


def _check_uniform(grid, name):
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 2:
        raise ValueError(f"{name} needs at least two points")
    d = np.diff(grid)
    if np.max(np.abs(d - d[0])) > 1e-10 * max(abs(d[0]), 1e-300):
        raise ValueError(f"{name} must be uniformly spaced")
    return grid


def potential_phi(rho: np.ndarray, X_grid, tau_grid, beta: float,
                  tol_factor: float = 100.0) -> PotentialField:
    """Reconstruct the potential phi from an amplitude field rho(X, tau).

    phi is integrated by trapezoid quadrature along tau at fixed X, with the
    X-offsets supplied by integrating beta*rho^3 along the first tau column.
    The same construction with the two path orders swapped gives an
    independent value; their maximum disagreement is the path residual.
    Raises InconsistentField when the residual exceeds
    tol_factor * (h_X^2 + h_tau^2) * max(1, |phi|): the field does not carry a
    single-valued potential at discretization accuracy.
    """
    X_grid = _check_uniform(X_grid, "X_grid")
    tau_grid = _check_uniform(tau_grid, "tau_grid")
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (len(X_grid), len(tau_grid)):
        raise ValueError("rho must have shape (len(X_grid), len(tau_grid))")
    flux = beta * rho**3
    # path A: up the first tau column in X, then across tau
    offsets_A = cumtrapz(flux[:, 0], X_grid)
    phi_A = offsets_A[:, None] + cumtrapz(rho, tau_grid, axis=1)
    # path B: across tau at the first X row, then up in X
    offsets_B = cumtrapz(rho[0, :], tau_grid)
    phi_B = offsets_B[None, :] + cumtrapz(flux, X_grid, axis=0)
    resid = float(np.max(np.abs(phi_A - phi_B)))
    hX = X_grid[1] - X_grid[0]
    ht = tau_grid[1] - tau_grid[0]
    bound = tol_factor * (hX * hX + ht * ht) * max(1.0, float(np.max(np.abs(phi_A))))
    if resid > bound:
        raise InconsistentField(
            f"path integrals disagree by {resid:.3e} > {bound:.3e}; "
            "rho is not the tau-derivative of a potential for this beta"
        )
    return PotentialField(phi_A, resid, X_grid, tau_grid, float(beta))
