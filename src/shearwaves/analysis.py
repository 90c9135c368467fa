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
from typing import NamedTuple, Optional, Union

import numpy as np

from .constitutive import TempleFlux
from .errors import (
    ChartFailure,
    DegenerateConstraint,
    DegenerateDirection,
)
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


def temple_eigen(f: TempleFlux, u, v) -> EigenReport:
    """Eigenstructure of the 2x2 flux Jacobian at (u, v), elementwise over arrays.

    One evaluation of P and its partials covers every state; the report keeps
    them as ``partials = (P_u, P_v, P_uu, P_uv, P_vv)``.  A scalar state gives
    floats (0-d arrays in ``partials``).  Raises DegenerateDirection when P_v = 0
    (d2 undefined) or u = 0 (d1 undefined) at any state, naming the first one.
    """
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    P = np.asarray(f.p(u, v), dtype=float)
    Pu = np.asarray(f.p_u(u, v), dtype=float)
    Pv = np.asarray(f.p_v(u, v), dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(P), np.abs(Pu)))
    flat = np.flatnonzero(np.abs(Pv) <= DIRECTION_TOL * scale)
    if flat.size:
        k = flat[0]
        raise DegenerateDirection(
            f"P_v = {float(Pv.flat[k])!r} at ({u.flat[k]}, {v.flat[k]}): d2 undefined")
    if np.any(u == 0.0):
        raise DegenerateDirection("u = 0: d1 = (1, v/u) undefined")
    lam1 = P + u * Pu + v * Pv
    one = np.ones_like(u)
    d1 = (one, v / u)
    d2 = (one, -Pu / Pv)
    Puu = np.asarray(f.p_uu(u, v), dtype=float)
    Puv = np.asarray(f.p_uv(u, v), dtype=float)
    Pvv = np.asarray(f.p_vv(u, v), dtype=float)
    grad1 = (2.0 * Pu + u * Puu + v * Puv, 2.0 * Pv + u * Puv + v * Pvv)
    ld1 = grad1[0] * d1[0] + grad1[1] * d1[1]
    # grad(lambda2) = (P_u, P_v); the product with d2 cancels exactly
    ld2 = Pu * d2[0] + Pv * d2[1]
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
    chart, from the chart's partials at (u, v)."""
    bu = 1.0 / v
    bv = -u / (v * v)
    det = au * bv - av * bu
    scale = np.abs(au * bv) + np.abs(av * bu)
    if np.any(np.abs(det) <= 1e-12 * np.maximum(scale, 1e-300)):
        raise ChartFailure("(alpha, u/v) change of variables is singular at a sample")
    du_db = -av / det
    dv_db = au / det
    Eu = auu * u + au + auv * v
    Ev = auv * u + avv * v + av
    return du_db * Eu + dv_db * Ev


def classify(f: TempleFlux, samples, alpha: Optional[TempleFlux] = None) -> ClassificationReport:
    """Two-threshold structure classification over an array of (u, v) samples.

    samples: array-like of shape (n, 2).  The decoupling test runs in the
    (alpha, u/v) chart; when no chart is supplied, alpha = P itself is used
    (a valid Riemann-invariant chart wherever the change of variables is
    regular).  An explicitly supplied chart that degenerates at a sample
    raises ChartFailure; if the default chart degenerates (e.g. any
    P = P(u/v)) the decoupling flag is left indeterminate instead.  Raises
    DegenerateDirection if any sample has u = 0 or P_v = 0.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("samples must have shape (n, 2)")
    u = pts[:, 0]
    v = pts[:, 1]
    if np.any(u == 0.0) or np.any(v == 0.0):
        raise DegenerateDirection("samples must avoid the axes u = 0 and v = 0")
    # raises DegenerateDirection where P_v = 0
    eigen = temple_eigen(f, u, v)
    res_ce = np.abs(eigen.grad1_dot_d1)
    Pu, Pv = eigen.partials[:2]
    res_equal = np.abs(u * Pu + v * Pv)
    res_ham = np.abs(v * Pv - u * Pu)
    # the default chart alpha = P reuses the partials of P
    chart = eigen.partials if alpha is None else [getattr(alpha, "p_" + axes)(u, v)
                                                  for axes in ("u", "v", "uu", "uv", "vv")]
    try:
        dec_max = float(np.max(np.abs(_decoupling_residual(u, v, *chart))))
        dec_flag = _flag(dec_max)
    except ChartFailure:
        if alpha is not None:
            # the caller asked for this chart explicitly
            raise
        dec_max = float("nan")
        dec_flag = None

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
        decouples=dec_flag,
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
    Raises DegenerateConstraint when phi_v vanishes at a sample.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    pu = np.asarray(phi.p_u(u, v), dtype=float)
    pv = np.asarray(phi.p_v(u, v), dtype=float)
    if np.any(np.abs(pv) <= 1e-14 * np.maximum(1.0, np.abs(pu))):
        raise DegenerateConstraint("phi_v = 0 at a sample: level set is not a v-graph")
    Au = np.asarray(A.p_u(u, v), dtype=float)
    Av = np.asarray(A.p_v(u, v), dtype=float)
    Bu = np.asarray(B.p_u(u, v), dtype=float)
    Bv = np.asarray(B.p_v(u, v), dtype=float)
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
                          phi: TempleFlux, check_points=None) -> FluxPair:
    """Build the compatible pair A = H(phi) u + Phi(phi), B = H(phi) v + Psi(phi).

    The constructed pair satisfies the g4 compatibility residual identically;
    this is verified numerically at construction on a small lattice of states
    (or the provided check_points).  With Phi = Psi = 0 and H the flux
    coefficient seen through phi, the pair reduces to (P u, P v).
    """

    def make_field(extra: ProfileFunction, carrier: str) -> TempleFlux:
        def value(u, v):
            w = u if carrier == "u" else v
            s = phi(u, v)
            return H(s) * w + extra(s)

        def partial(axis, u, v):
            w = u if carrier == "u" else v
            s = phi(u, v)
            dphi = getattr(phi, "p_" + axis)(u, v)
            base = H.deriv(s) * dphi * w + extra.deriv(s) * dphi
            return base + (H(s) if carrier == axis else 0.0)

        return TempleFlux(p=value, pu=lambda u, v: partial("u", u, v),
                          pv=lambda u, v: partial("v", u, v), name=f"H*{carrier}+{extra.name}")

    A = make_field(Phi, "u")
    B = make_field(Psi, "v")
    pair = FluxPair(A, B, phi)
    if check_points is None:
        g = np.linspace(0.6, 1.4, 5)
        uu, vv = np.meshgrid(g, g, indexing="ij")
        check_points = np.column_stack([uu.ravel(), vv.ravel()])
    pts = np.asarray(check_points, dtype=float)
    g4, _ = compatibility_residuals(A, B, phi, pts[:, 0], pts[:, 1])
    worst = float(np.max(np.abs(g4)))
    if worst > 1e-10:
        raise AssertionError(f"constructed pair failed its own compatibility check: {worst:.3e}")
    return pair

