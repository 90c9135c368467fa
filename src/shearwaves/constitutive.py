"""Constitutive inputs: shear modulus functions and 2x2 flux families.

A shear modulus is a ProfileFunction Q(s) of the squared strain magnitude
s = U^2 + V^2 with a density rho.  The flux P(u, v) multiplies both
components of the reduced 2x2 system, and the same TempleFlux type carries
its charts and level-set functions.  Both carry optional analytic
derivatives with central-difference fallbacks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NoConvergence, NonPositiveModulus
from .profiles import (
    FD2_REL_STEP,
    FD_REL_STEP,
    ProfileFunction,
    _fd_step,
    const_profile,
    poly_profile,
)

LEVEL_SET_TOL = 1e-12
LEVEL_SET_MAX_ITER = 100


@dataclass(frozen=True)
class ShearModulus:
    """Shear modulus Q(s), s = squared strain magnitude, with density rho.

    Q' is q.deriv: the analytic q.df, else a central difference of Q.
    """

    q: ProfileFunction
    rho: float = 1.0

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")

    def qtilde(self, s):
        """Q(s)/rho, the squared slow wave speed."""
        q = eval_Q(self, s)
        return q if self.rho == 1.0 else q / self.rho

    def dqtilde(self, s):
        dq = self.q.deriv(s)
        return dq if self.rho == 1.0 else dq / self.rho


def eval_Q(m: ShearModulus, s):
    """Evaluate Q(s) for s >= 0; raise NonPositiveModulus if Q <= 0 anywhere.

    Q is broadcast to the shape of s, so a modulus that returns a constant
    still gives one value per point; a scalar s returns a float.  Each check
    is one NaN-ignoring min reduction, so NaN passes through unflagged.
    """
    s = np.asarray(s, dtype=float)
    if s.size and np.fmin.reduce(s, axis=None) < 0.0:
        raise ValueError("squared strain magnitude must be non-negative")
    out = np.asarray(m.q(s), dtype=float)
    if out.shape != s.shape:
        out = np.broadcast_to(out, s.shape).copy()
    if s.size and np.fmin.reduce(out, axis=None) <= 0.0:
        bad = float(s.flat[int(np.argmax(out <= 0.0))])
        raise NonPositiveModulus(f"Q({bad!r}) <= 0 for modulus {m.q.name!r}")
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class TempleFlux:
    """A scalar function P(u, v) with its first and second partial derivatives.

    It is the flux coefficient of the reduced system u_t = [P u]_x,
    v_t = [P v]_x, and equally a decoupling chart alpha, a level-set function
    phi or one member of a conservative pair (A, B).  A missing partial is a
    central difference of the partial one order lower (for p_uv, an analytic
    p_u before an analytic p_v).  The step is 1e-6 * max(1, |x|) when that
    lower partial is analytic, and 1e-4 * max(1, |x|) for both differences
    when it is itself a difference.
    """

    p: Callable
    pu: Optional[Callable] = None
    pv: Optional[Callable] = None
    puu: Optional[Callable] = None
    puv: Optional[Callable] = None
    pvv: Optional[Callable] = None
    name: str = "custom"

    def __call__(self, u, v):
        return self.p(u, v)

    def p_u(self, u, v):
        return self._partial("u", u, v)

    def p_v(self, u, v):
        return self._partial("v", u, v)

    def p_uu(self, u, v):
        return self._partial("uu", u, v)

    def p_uv(self, u, v):
        return self._partial("uv", u, v)

    def p_vv(self, u, v):
        return self._partial("vv", u, v)

    def _partial(self, axes: str, u, v, rel_step: float = FD_REL_STEP):
        """The partial of P along axes ("" is P, "u" is P_u, "uv" is P_uv, ...)."""
        given = getattr(self, "p" + axes)
        if given is not None:
            return given(u, v)
        lower, axis = axes[:-1], axes[-1]
        if axes == "uv" and self.pu is None:
            lower, axis = "v", "u"
        if getattr(self, "p" + lower) is None:
            rel_step = FD2_REL_STEP

        def g(uu, vv):
            return self._partial(lower, uu, vv, rel_step)

        if axis == "u":
            h = _fd_step(u, rel_step)
            return (g(u + h, v) - g(u - h, v)) / (2.0 * h)
        h = _fd_step(v, rel_step)
        return (g(u, v + h) - g(u, v - h)) / (2.0 * h)


def solve_level_set(f: TempleFlux, a: float, u, v_bracket):
    """Solve P(u, v) = a for v inside v_bracket, elementwise over u.

    Bisection-safeguarded Newton with a bracket per element: the bracket must
    enclose a sign change of P(u, .) - a; Newton steps that leave an
    element's bracket or stall are replaced by bisection.  An element
    converges when |P(u, v) - a| <= 1e-12 * max(1, |a|) within 100
    iterations.  A scalar u returns a float, an array u an array of its
    shape.  An element with no sign change in its bracket, or one that does
    not converge, raises NoConvergence for the first such element in
    row-major order; the error's coordinate is its flat index.
    """
    lo0, hi0 = float(v_bracket[0]), float(v_bracket[1])
    if lo0 > hi0:
        lo0, hi0 = hi0, lo0
    a = float(a)
    tol = LEVEL_SET_TOL * max(1.0, abs(a))
    u_in = np.asarray(u, dtype=float)
    u = u_in.ravel()
    lo, hi = np.full(u.shape, lo0), np.full(u.shape, hi0)
    glo = np.asarray(f.p(u, lo), dtype=float) - a
    ghi = np.asarray(f.p(u, hi), dtype=float) - a
    at_lo = np.abs(glo) <= tol
    at_hi = ~at_lo & (np.abs(ghi) <= tol)
    no_bracket = ~(at_lo | at_hi) & ~(glo * ghi <= 0.0)
    v = 0.5 * (lo + hi)
    v[at_lo], v[at_hi] = lo0, hi0
    code = no_bracket.astype(int)
    act = np.flatnonzero(~(at_lo | at_hi | no_bracket))
    for _ in range(LEVEL_SET_MAX_ITER):
        uu, vv = u[act], v[act]
        gv = np.asarray(f.p(uu, vv), dtype=float) - a
        live = ~(np.abs(gv) <= tol)
        act, uu, vv, gv = act[live], uu[live], vv[live], gv[live]
        if act.size == 0:
            break
        left = gv * glo[act] < 0.0
        hi[act[left]] = vv[left]
        lo[act[~left]], glo[act[~left]] = vv[~left], gv[~left]
        dg = np.asarray(f.p_v(uu, vv), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            v_new = vv - gv / dg
        l, h = lo[act], hi[act]
        newton = (dg != 0.0) & np.isfinite(dg) & (l < v_new) & (v_new < h)
        v[act] = np.where(newton, v_new, 0.5 * (l + h))
    else:
        code[act] = 2
    bad = np.flatnonzero(code)
    if bad.size:
        k = int(bad[0])
        raise NoConvergence(
            f"P(u,.)-a has no sign change on [{lo0}, {hi0}] "
            f"(values {glo[k]:.3e}, {ghi[k]:.3e})" if code[k] == 1 else
            f"level-set solve did not reach {tol:.1e} in {LEVEL_SET_MAX_ITER} iterations",
            coordinate=k)
    return v.reshape(u_in.shape) if u_in.ndim else float(v[0])


# ---------------------------------------------------------------------------
# builtin modulus families


def mooney_rivlin(mu: float, rho: float = 1.0) -> ShearModulus:
    """Constant modulus Q(s) = mu: linear shear response."""
    mu = float(mu)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    return ShearModulus(const_profile(mu), rho)


def cubic_modulus(mu0: float, mu1: float, rho: float = 1.0) -> ShearModulus:
    """Q(s) = mu0 + mu1*s, the leading two-term (cubic-stress) law."""
    mu0, mu1 = float(mu0), float(mu1)
    return ShearModulus(ProfileFunction(
        f=lambda s: mu0 + mu1 * np.asarray(s, dtype=float),
        df=lambda s: np.full(np.shape(s), mu1),
        name="cubic",
    ), rho)


def power_modulus(mu: float, n: float, rho: float = 1.0) -> ShearModulus:
    """Q(s) = mu * (1 + s)**n, positive at rest with Q'(0) = mu*n."""
    mu, n = float(mu), float(n)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    return ShearModulus(ProfileFunction(
        f=lambda s: mu * (1.0 + np.asarray(s, dtype=float)) ** n,
        df=lambda s: mu * n * (1.0 + np.asarray(s, dtype=float)) ** (n - 1.0),
        name="power",
    ), rho)


def poly_modulus(coeffs, rho: float = 1.0) -> ShearModulus:
    """Q(s) = sum_k coeffs[k] * s**k."""
    return ShearModulus(poly_profile(coeffs), rho)


MODULUS_BUILTINS = {
    "mooney_rivlin": lambda cfg: mooney_rivlin(cfg["mu"], cfg.get("rho", 1.0)),
    "cubic": lambda cfg: cubic_modulus(cfg["mu0"], cfg["mu1"], cfg.get("rho", 1.0)),
    "power": lambda cfg: power_modulus(cfg["mu"], cfg["n"], cfg.get("rho", 1.0)),
    "poly": lambda cfg: poly_modulus(cfg["coeffs"], cfg.get("rho", 1.0)),
}


def modulus_from_config(cfg: dict) -> ShearModulus:
    kind = cfg.get("kind")
    if kind not in MODULUS_BUILTINS:
        raise KeyError(f"unknown modulus kind: {kind!r}")
    return MODULUS_BUILTINS[kind](cfg)


# ---------------------------------------------------------------------------
# builtin flux families


def product_flux() -> TempleFlux:
    """P(u, v) = u*v."""
    z = lambda u, v: np.zeros(np.broadcast(u, v).shape) if np.ndim(u) or np.ndim(v) else 0.0
    one = lambda u, v: np.ones(np.broadcast(u, v).shape) if np.ndim(u) or np.ndim(v) else 1.0
    return TempleFlux(
        p=lambda u, v: u * v,
        pu=lambda u, v: v + 0.0 * u,
        pv=lambda u, v: u + 0.0 * v,
        puu=z,
        puv=one,
        pvv=z,
        name="product",
    )


def ratio_flux() -> TempleFlux:
    """P(u, v) = u/v."""
    return TempleFlux(
        p=lambda u, v: u / v,
        pu=lambda u, v: 1.0 / v + 0.0 * u,
        pv=lambda u, v: -u / v**2,
        puu=lambda u, v: 0.0 * u * v,
        puv=lambda u, v: -1.0 / v**2 + 0.0 * u,
        pvv=lambda u, v: 2.0 * u / v**3,
        name="ratio",
    )


def poly_flux(coeffs) -> TempleFlux:
    """P(u, v) = sum_{i,j} coeffs[i][j] * u**i * v**j."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 2:
        raise ValueError("coeffs must be a 2D array [i][j] -> u**i v**j")
    pv2, polyder = np.polynomial.polynomial.polyval2d, np.polynomial.polynomial.polyder
    # a constant's derivative is +0 (polyder gives c[:1]*0, which is -0 where c < 0)
    der = lambda a, axis: polyder(a, axis=axis) if a.shape[axis] > 1 else np.zeros_like(a)
    cu, cv = der(c, 0), der(c, 1)
    cuu, cuv, cvv = der(cu, 0), der(cu, 1), der(cv, 1)
    return TempleFlux(
        p=lambda u, v: pv2(u, v, c),
        pu=lambda u, v: pv2(u, v, cu),
        pv=lambda u, v: pv2(u, v, cv),
        puu=lambda u, v: pv2(u, v, cuu),
        puv=lambda u, v: pv2(u, v, cuv),
        pvv=lambda u, v: pv2(u, v, cvv),
        name="poly",
    )


def sum_squares_flux(scale: float = 1.0) -> TempleFlux:
    """P(u, v) = scale * (u**2 + v**2), the weakly nonlinear flux."""
    return poly_flux([[0.0, 0.0, scale], [0.0, 0.0, 0.0], [scale, 0.0, 0.0]])


def modulus_flux(m: ShearModulus) -> TempleFlux:
    """P(u, v) = Q(u^2 + v^2)/rho, the full-system coefficient seen as a flux."""
    return TempleFlux(
        p=lambda u, v: m.qtilde(u * u + v * v),
        pu=lambda u, v: 2.0 * u * m.dqtilde(u * u + v * v),
        pv=lambda u, v: 2.0 * v * m.dqtilde(u * u + v * v),
        name="modulus",
    )


FLUX_BUILTINS = {
    "product": lambda cfg: product_flux(),
    "ratio": lambda cfg: ratio_flux(),
    "poly": lambda cfg: poly_flux(cfg["coeffs"]),
    "sum_squares": lambda cfg: sum_squares_flux(cfg.get("scale", 1.0)),
    "modulus": lambda cfg: modulus_flux(modulus_from_config(cfg["modulus"])),
}


def flux_from_config(cfg: dict) -> TempleFlux:
    kind = cfg.get("kind")
    if kind not in FLUX_BUILTINS:
        raise KeyError(f"unknown flux kind: {kind!r}")
    return FLUX_BUILTINS[kind](cfg)
