"""Constitutive inputs: shear modulus functions and 2x2 flux families.

A shear modulus is a ProfileFunction Q(s) of the squared strain magnitude
s = U^2 + V^2 with a density rho.  The flux P(u, v) multiplies both
components of the reduced 2x2 system, and the same TempleFlux type carries
its charts and level-set functions.  Each derivative is the analytic one its
builder gave; asking for one it left out is a TypeError that names it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NoConvergence, NonPositiveModulus
from .profiles import (
    ProfileFunction,
    _derivatives_of,
    _from_config,
    _horner,
    _polyder,
    const_profile,
    poly_profile,
)

LEVEL_SET_TOL = 1e-12
LEVEL_SET_MAX_ITER = 100


@dataclass(frozen=True)
class ShearModulus:
    """Shear modulus Q(s), s = squared strain magnitude, with density rho.

    Q' and Q'' are q.deriv and q.deriv2: a TypeError if q lacks df or d2f.
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
        return self.q.deriv(s) / self.rho

    def d2qtilde(self, s):
        return self.q.deriv2(s) / self.rho


def eval_Q(m: ShearModulus, s):
    """Evaluate Q(s) for s >= 0; raise NonPositiveModulus if Q <= 0 anywhere.

    Q is broadcast to the shape of s, so a modulus that returns a constant
    still gives one value per point; a scalar s returns a float.  Each check
    is one NaN-ignoring min reduction, so NaN passes through unflagged.
    """
    s = np.asarray(s, dtype=float)
    if s.size and np.fmin.reduce(s, axis=None) < 0.0:
        raise ValueError("squared strain magnitude must be non-negative")
    out = _positive_Q(m, s, m.q(s))
    return out if out.ndim else float(out)


def _positive_Q(m: ShearModulus, s: np.ndarray, q) -> np.ndarray:
    """q = Q(s) as floats of the shape of s; NonPositiveModulus names the first s with Q <= 0."""
    q = np.asarray(q, dtype=float)
    if q.shape != s.shape:
        q = np.broadcast_to(q, s.shape).copy()
    if s.size and np.fmin.reduce(q, axis=None) <= 0.0:
        bad = float(s.flat[int(np.argmax(q <= 0.0))])
        raise NonPositiveModulus(f"Q({bad!r}) <= 0 for modulus {m.q.name!r}")
    return q


def _partial_method(axes: str):
    """A TempleFlux method (u, v) -> the partial along ``axes``, looked up when it is called."""
    return lambda self, u, v: self._partial(axes, u, v)


@dataclass(frozen=True)
class TempleFlux:
    """A scalar function P(u, v) with its first and second partial derivatives.

    It is the flux coefficient of the reduced system u_t = [P u]_x,
    v_t = [P v]_x, and equally a decoupling chart alpha, a level-set function
    phi or one member of a conservative pair (A, B).  Asking for a partial that
    was not given is a TypeError naming the flux and the partial.
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

    p_u, p_v, p_uu, p_uv, p_vv = map(_partial_method, ("u", "v", "uu", "uv", "vv"))

    def _partial(self, axes: str, u, v):
        """The partial of P along axes ("u" is P_u, "uv" is P_uv, ...)."""
        given = getattr(self, "p" + axes)
        if given is None:
            raise TypeError(f"flux {self.name!r} has no analytic partial p{axes}")
        return given(u, v)


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
        d2f=lambda s: np.zeros(np.shape(s)),
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
        d2f=lambda s: mu * n * (n - 1.0) * (1.0 + np.asarray(s, dtype=float)) ** (n - 2.0),
        name="power",
    ), rho)


def poly_modulus(coeffs, rho: float = 1.0) -> ShearModulus:
    """Q(s) = sum_k coeffs[k] * s**k."""
    return ShearModulus(poly_profile(coeffs), rho)


MODULUS_BUILTINS = {"mooney_rivlin": mooney_rivlin, "cubic": cubic_modulus,
                    "power": power_modulus, "poly": poly_modulus}


def modulus_from_config(cfg: dict) -> ShearModulus:
    """A modulus block's ShearModulus; see `profiles._from_config` for its errors."""
    return _from_config("modulus", MODULUS_BUILTINS, cfg)


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


def poly_flux(coeffs, name: str = "poly") -> TempleFlux:
    """P(u, v) = sum_{i,j} coeffs[i][j] * u**i * v**j."""
    try:
        c = np.asarray(coeffs, dtype=float)
    except ValueError:  # numpy's refusal of rows of unequal length, reworded below
        c = None
    if c is None or c.ndim != 2 or c.size == 0:
        raise ValueError(f"a poly flux needs a 2D array [i][j] -> u**i v**j, its rows of equal "
                         f"length, of at least one coefficient, got coeffs = {coeffs!r}")
    with _derivatives_of(coeffs):
        cu, cv = _polyder(c), _polyder(c.T).T
        cuu, cuv, cvv = _polyder(cu), _polyder(cu.T).T, _polyder(cv.T).T
    return TempleFlux(*map(_horner, (c, cu, cv, cuu, cuv, cvv)), name=name)


def sum_squares_flux(scale: float = 1.0) -> TempleFlux:
    """P(u, v) = scale * (u**2 + v**2), the weakly nonlinear flux."""
    return poly_flux([[0.0, 0.0, scale], [0.0, 0.0, 0.0], [scale, 0.0, 0.0]], name="sum_squares")


def modulus_flux(m: ShearModulus) -> TempleFlux:
    """P(u, v) = Q(u^2 + v^2)/rho, the full-system coefficient seen as a flux."""
    return TempleFlux(
        p=lambda u, v: m.qtilde(u * u + v * v),
        pu=lambda u, v: 2.0 * u * m.dqtilde(u * u + v * v),
        pv=lambda u, v: 2.0 * v * m.dqtilde(u * u + v * v),
        puu=lambda u, v: 2.0 * m.dqtilde(u * u + v * v) + 4.0 * u * u * m.d2qtilde(u * u + v * v),
        puv=lambda u, v: 4.0 * u * v * m.d2qtilde(u * u + v * v),
        pvv=lambda u, v: 2.0 * m.dqtilde(u * u + v * v) + 4.0 * v * v * m.d2qtilde(u * u + v * v),
        name="modulus",
    )


FLUX_BUILTINS = {"product": product_flux, "ratio": ratio_flux, "poly": poly_flux,
                 "sum_squares": sum_squares_flux,
                 "modulus": lambda modulus: modulus_flux(modulus_from_config(modulus))}


def flux_from_config(cfg: dict) -> TempleFlux:
    """A flux block's TempleFlux; see `profiles._from_config` for its errors."""
    return _from_config("flux", FLUX_BUILTINS, cfg)
