"""Eigenstructure and degeneracy analysis of the 2x2 flux system.

The system u_t = [P u]_x, v_t = [P v]_x has speeds lambda1 = P + u P_u + v P_v
(genuinely nonlinear direction d1 = (1, v/u)) and lambda2 = P (direction
d2 = (1, -P_u/P_v), along which lambda2 is constant: the second family is
always linearly degenerate).  Classification measures how far a given P sits
from the special subfamilies (coinciding speeds, complete exceptionality,
Hamiltonian structure, decoupling in a Riemann-invariant chart).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional, Union

import numpy as np

from .constitutive import TempleFlux
from .errors import SingularJacobian, point_error
from .profiles import ProfileFunction

FLAG_SET_TOL = 1e-8
FLAG_CLEAR_TOL = 1e-4
DIRECTION_TOL = 1e-14


@dataclass(frozen=True)
class EigenReport:
    """Wave speeds, characteristic directions and degeneracy products at states.

    Fields are floats for a scalar state and arrays for arrays of states.
    """

    u: Union[float, np.ndarray]
    v: Union[float, np.ndarray]
    lambda1: Union[float, np.ndarray]
    lambda2: Union[float, np.ndarray]
    d1: tuple
    d2: tuple
    grad1_dot_d1: Union[float, np.ndarray]
    grad2_dot_d2: Union[float, np.ndarray]
    partials: tuple


def _require_regular(singular, message, u, v):
    """Raise SingularJacobian at the first (u, v) sample, in row-major order, where
    ``singular`` holds; ``u`` and ``v`` share a shape that ``singular`` broadcasts to."""
    bad = np.flatnonzero(np.broadcast_to(singular, u.shape))
    if bad.size:
        k = bad[0]
        raise point_error(SingularJacobian, message, (u.flat[k], v.flat[k]), "(u, v)")


def temple_eigen(f: TempleFlux, u, v) -> EigenReport:
    """Eigenstructure of the 2x2 flux Jacobian at (u, v), elementwise over arrays.

    One evaluation of P and its partials covers every state; the report keeps
    them as ``partials = (P_u, P_v, P_uu, P_uv, P_vv)``.  A scalar state gives
    floats (0-d arrays in ``partials``).  Raises SingularJacobian when P or a
    partial is not finite (a state outside the flux's domain), then when
    P_v = 0 (d2 undefined) or u = 0 (d1 undefined), then when lambda1, its
    gradient or grad1_dot_d1 overflows, naming the first such state in row-major order.
    """
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    with np.errstate(all="ignore"):  # a value that is not finite is refused below
        values = [np.asarray(get(u, v), dtype=float)
                  for get in (f.p, f.p_u, f.p_v, f.p_uu, f.p_uv, f.p_vv)]
        _require_regular(~np.isfinite(np.broadcast_arrays(*values)).all(axis=0),
                         "P or a partial of P is not finite", u, v)
        P, Pu, Pv, Puu, Puv, Pvv = values
        scale = np.maximum(1.0, np.maximum(np.abs(P), np.abs(Pu)))
        _require_regular(np.abs(Pv) <= DIRECTION_TOL * scale, "P_v = 0: d2 undefined", u, v)
        _require_regular(u == 0.0, "u = 0: d1 = (1, v/u) undefined", u, v)
        lam1 = P + u * Pu + v * Pv
        one = np.ones_like(u)
        d1, d2 = (one, v / u), (one, -Pu / Pv)
        grad1 = (2.0 * Pu + u * Puu + v * Puv, 2.0 * Pv + u * Puv + v * Pvv)
        ld1 = grad1[0] * d1[0] + grad1[1] * d1[1]
        # grad(lambda2) = (P_u, P_v); the product with d2 cancels exactly
        ld2 = Pu * d2[0] + Pv * d2[1]
    _require_regular(~np.isfinite([lam1, *grad1, ld1]).all(axis=0),
                     "lambda1 or its gradient is not finite", u, v)
    partials = (Pu, Pv, Puu, Puv, Pvv)
    if u.ndim == 0:
        return EigenReport(float(u), float(v), float(lam1), float(P), (1.0, float(d1[1])),
                           (1.0, float(d2[1])), float(ld1), float(ld2), partials)
    return EigenReport(u, v, lam1, P, d1, d2, ld1, ld2, partials)


@dataclass(frozen=True)
class ClassificationReport:
    """Tri-state structure flags with the residuals that produced them, and
    the eigenstructure at the samples.

    Flags are True when the residual stays <= 1e-8 on all samples, False when
    it reaches >= 1e-4 somewhere, and None (indeterminate) in between.
    """

    equal_eigenvalues: Optional[bool]
    completely_exceptional: Optional[bool]
    hamiltonian: Optional[bool]
    decouples: Optional[bool]
    eigen: EigenReport
    residuals: dict = field(default_factory=dict)
    n_samples: int = 0


def _flag(residual_max: float) -> Optional[bool]:
    if residual_max <= FLAG_SET_TOL:
        return True
    if residual_max >= FLAG_CLEAR_TOL:
        return False
    return None


def _decoupling_residual(u, v, au, av, auu, auv, avv):
    """Residual of d(alpha_u u + alpha_v v)/d(u/v) = 0 in the (alpha, u/v)
    chart, from the chart's partials at (u, v).  Raises SingularJacobian at the
    first sample where the chart overflows or the change of variables is singular."""
    with np.errstate(all="ignore"):  # a value that is not finite is refused below
        bu, bv = 1.0 / v, -u / (v * v)
        det = au * bv - av * bu
        scale = np.abs(au * bv) + np.abs(av * bu)
        _require_regular(~(np.isfinite(det) & np.isfinite(scale)),
                         "(alpha, u/v) chart is not finite", u, v)
        _require_regular(np.abs(det) <= 1e-12 * np.maximum(scale, 1e-300),
                         "(alpha, u/v) change of variables is singular", u, v)
        res = (-av / det) * (auu * u + au + auv * v) + (au / det) * (auv * u + avv * v + av)
    _require_regular(~np.isfinite(res), "(alpha, u/v) chart is not finite", u, v)
    return res


def classify(f: TempleFlux, samples, alpha: Optional[TempleFlux] = None) -> ClassificationReport:
    """Two-threshold structure classification over an array of (u, v) samples.

    samples: array-like of shape (n, 2).  The decoupling test runs in the
    (alpha, u/v) chart; when no chart is supplied, alpha = P itself is used
    (a valid Riemann-invariant chart wherever the change of variables is
    regular).  An explicitly supplied chart that degenerates or overflows at
    a sample raises SingularJacobian; if the default chart does (e.g. any
    P = P(u/v) degenerates) the decoupling flag is left indeterminate instead.
    A sample with u = 0, v = 0 or P_v = 0, or where lambda1 overflows, raises
    SingularJacobian too.  Each names the first failing sample in row-major
    order, (u, v), in its message and coordinate.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("samples must have shape (n, 2)")
    u, v = pts[:, 0], pts[:, 1]
    _require_regular((u == 0.0) | (v == 0.0), "sample on the axis u = 0 or v = 0", u, v)
    eigen = temple_eigen(f, u, v)
    res_ce = np.abs(eigen.grad1_dot_d1)
    Pu, Pv = eigen.partials[:2]
    res_equal = np.abs(u * Pu + v * Pv)
    res_ham = np.abs(v * Pv - u * Pu)
    # the default chart alpha = P reuses the partials of P
    with np.errstate(all="ignore"):  # _decoupling_residual refuses a chart that is not finite
        chart = eigen.partials if alpha is None else [getattr(alpha, "p_" + axes)(u, v)
                                                      for axes in ("u", "v", "uu", "uv", "vv")]
    try:
        dec = _decoupling_residual(u, v, *chart)
    except SingularJacobian:
        if alpha is not None:  # the caller asked for this chart explicitly
            raise
        dec = np.nan
    dec_max = float(np.max(np.abs(dec)))

    residuals = {
        "equal_eigenvalues": float(np.max(res_equal)),
        "completely_exceptional": float(np.max(res_ce)),
        "hamiltonian": float(np.max(res_ham)),
        "decouples": dec_max,
    }
    return ClassificationReport(
        equal_eigenvalues=_flag(residuals["equal_eigenvalues"]),
        completely_exceptional=_flag(residuals["completely_exceptional"]),
        hamiltonian=_flag(residuals["hamiltonian"]),
        decouples=_flag(dec_max),
        eigen=eigen,
        residuals=residuals,
        n_samples=len(u),
    )


# ---------------------------------------------------------------------------
# compatibility of a conservative pair with a level-set constraint


class CompatibilityResiduals(NamedTuple):
    g4: np.ndarray
    g5: float


def compatibility_residuals(A: TempleFlux, B: TempleFlux, phi: TempleFlux,
                            u, v) -> CompatibilityResiduals:
    """Residuals of restricting u_t = [A]_x, v_t = [B]_x to a level set of phi.

    Along phi(u, v) = const the two equations reduce to a single transport
    equation; consistency requires

        g4 = B_u phi_v^2 + (A_u - B_v) phi_u phi_v - A_v phi_u^2 = 0

    pointwise, and the reduced speed k = A_u - A_v phi_u/phi_v must be
    constant on the level set; g5 is the variance of k over the samples.
    Raises SingularJacobian when phi_v vanishes at a sample, naming the
    first one in row-major order in the message and coordinate.
    """
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    pu, pv = (np.asarray(get(u, v), dtype=float) for get in (phi.p_u, phi.p_v))
    _require_regular(np.abs(pv) <= 1e-14 * np.maximum(1.0, np.abs(pu)),
                     "phi_v = 0: level set is not a v-graph", u, v)
    Au, Av, Bu, Bv = (np.asarray(get(u, v), dtype=float) for get in (A.p_u, A.p_v, B.p_u, B.p_v))
    g4 = Bu * pv**2 + (Au - Bv) * pu * pv - Av * pu**2
    k = Au - Av * pu / pv
    g5 = float(np.var(np.atleast_1d(k)))
    return CompatibilityResiduals(g4 if g4.ndim else float(g4), g5)


@dataclass(frozen=True)
class FluxPair:
    """Conservative pair (A, B) compatible with every level set of phi."""

    A: TempleFlux
    B: TempleFlux
    phi: TempleFlux


def construct_temple_flux(H: ProfileFunction, Phi: ProfileFunction, Psi: ProfileFunction,
                          phi: TempleFlux) -> FluxPair:
    """Build the compatible pair A = H(phi) u + Phi(phi), B = H(phi) v + Psi(phi).

    The constructed pair satisfies the g4 compatibility residual identically.
    With Phi = Psi = 0 and H the flux coefficient seen through phi, the pair
    reduces to (P u, P v).  Its partials follow by the chain rule.
    """

    def make_field(extra: ProfileFunction, carrier: str) -> TempleFlux:
        def value(u, v):
            w = u if carrier == "u" else v
            s = phi(u, v)
            return H(s) * w + extra(s)

        def first(axis, u, v):
            w = u if carrier == "u" else v
            s = phi(u, v)
            dphi = getattr(phi, "p_" + axis)(u, v)
            base = H.deriv(s) * dphi * w + extra.deriv(s) * dphi
            return base + (H(s) if carrier == axis else 0.0)

        def second(axes, u, v):  # first(a) differentiated along b
            a, b = axes
            w = u if carrier == "u" else v
            s = phi(u, v)
            da, dab = getattr(phi, "p_" + a)(u, v), getattr(phi, "p_" + axes)(u, v)
            db = da if b == a else getattr(phi, "p_" + b)(u, v)
            dh = H.deriv(s)
            out = (H.deriv2(s) * w + extra.deriv2(s)) * da * db + (dh * w + extra.deriv(s)) * dab
            return out + dh * ((db if carrier == a else 0.0) + (da if carrier == b else 0.0))

        return TempleFlux(value, *(partial(first, axis) for axis in "uv"),
                          *(partial(second, axes) for axes in ("uu", "uv", "vv")),
                          name=f"H*{carrier}+{extra.name}")

    return FluxPair(make_field(Phi, "u"), make_field(Psi, "v"), phi)
