"""Discrete verification of structural identities on sampled fields.

Everything here follows one pattern: sample a field family on nested uniform
grids, evaluate an identity with centered second-order stencils on the
interior (dropping two boundary layers so no one-sided stencil pollutes the
order), and fit the decay order of the residual norms against the spacing.
Solutions decay at the stencil order; non-solutions do not decay at all.

The module also carries the conservation-law densities and symmetry
characteristics of the weakly nonlinear polar system, including a purely
algebraic commutator check that needs no field at all.

Solver runs are checked the same way: ``convergence_study`` fits the order of
``oracle_error``, a trajectory's error against its exact family, over cell counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .constitutive import ShearModulus
from .errors import NeitherOrientationDecays, OracleFailure
from .profiles import ProfileFunction

ZERO_FLOOR = 1e-12
DEFAULT_ORDER_TARGET = 1.8
DECAY_MIN_ORDER = 1.0


# ---------------------------------------------------------------------------
# sampled fields


@dataclass(frozen=True)
class FieldSample:
    """Named fields on a uniform (evolution x transverse) product grid.

    ``values[name][i, j]`` is the field at evolution coordinate ``coords[i]``
    and transverse coordinate ``points[j]``.  Both axes must be uniformly
    spaced and strictly increasing.
    """

    coords: np.ndarray
    points: np.ndarray
    values: Dict[str, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        for axis, name in ((self.coords, "coords"), (self.points, "points")):
            if axis.ndim != 1 or len(axis) < 2:
                raise ValueError(f"{name} must be a 1D axis with at least 2 entries")
            d = np.diff(axis)
            if np.any(d <= 0):
                raise ValueError(f"{name} must be strictly increasing")
            if np.max(d) - np.min(d) > 1e-9 * np.mean(d):
                raise ValueError(f"{name} must be uniformly spaced")
        shape = (len(self.coords), len(self.points))
        vals = {k: np.asarray(v, dtype=float) for k, v in self.values.items()}
        for k, v in vals.items():
            if v.shape != shape:
                raise ValueError(f"field {k!r} has shape {v.shape}, expected {shape}")
        object.__setattr__(self, "values", vals)

    @property
    def d_coord(self) -> float:
        return float(self.coords[1] - self.coords[0])

    @property
    def d_point(self) -> float:
        return float(self.points[1] - self.points[0])

    def get(self, name: str) -> np.ndarray:
        if name not in self.values:
            raise KeyError(f"sample is missing field {name!r}; has {sorted(self.values)}")
        return self.values[name]


def _require_layers(sample: FieldSample):
    if len(sample.coords) < 5:
        raise ValueError(f"need at least 5 evolution layers for centered stencils with two "
                         f"dropped boundary layers, got {len(sample.coords)}")
    if len(sample.points) < 5:
        raise ValueError("need at least 5 transverse points for interior stencils")


def _mid(a: np.ndarray) -> np.ndarray:
    """The interior of ``a``, one layer dropped on each end of both axes."""
    return a[1:-1, 1:-1]


def _d_coord(a: np.ndarray, sample: FieldSample) -> np.ndarray:
    """Centered derivative along the evolution axis, on ``_mid(a)``."""
    return (a[2:, 1:-1] - a[:-2, 1:-1]) / (2.0 * sample.d_coord)


def _d_point(a: np.ndarray, sample: FieldSample) -> np.ndarray:
    """Centered derivative along the transverse axis, on ``_mid(a)``."""
    return (a[1:-1, 2:] - a[1:-1, :-2]) / (2.0 * sample.d_point)


def _balance(a: np.ndarray, b: np.ndarray, sample: FieldSample) -> np.ndarray:
    """D_coord a - D_point b on the interior, two boundary layers dropped on each axis."""
    return _mid(_d_coord(a, sample) - _d_point(b, sample))


def _norms(residuals: Sequence[np.ndarray]) -> tuple:
    flat = np.concatenate([np.ravel(r) for r in residuals])
    with np.errstate(over="ignore"):  # an l2 norm that overflows is inf, written as null
        return float(np.max(np.abs(flat))), float(np.sqrt(np.mean(flat**2)))


# ---------------------------------------------------------------------------
# reports


def _fit_order(hs: np.ndarray, norms: np.ndarray) -> float:
    if np.max(norms) < ZERO_FLOOR:
        return math.inf
    safe = np.maximum(norms, 1e-300)
    slope = np.polyfit(np.log2(hs), np.log2(safe), 1)[0]
    return float(slope)


@dataclass
class ResidualReport:
    """Error or residual norms per refinement level and their fitted decay order."""

    spacings: np.ndarray
    linf: np.ndarray
    l2: np.ndarray
    order: float
    order_l2: float
    target: Optional[float]
    passed: bool


def _make_report(hs, norms, target, tol=None) -> ResidualReport:
    """Report of one residual's (Linf, L2) norms over the spacings ``hs``: it passes
    with no ``target``, with the Linf order within ``tol`` of it when a ``tol`` is
    given, and otherwise when both orders reach it."""
    linf, l2 = norms
    order, order_l2 = _fit_order(hs, linf), _fit_order(hs, l2)
    if target is None:
        passed = True
    elif tol is None:
        passed = min(order, order_l2) >= target
    else:
        passed = abs(order - target) <= tol
    return ResidualReport(spacings=hs, linf=linf, l2=l2, order=order, order_l2=order_l2,
                          target=target, passed=passed)


def _residual_report(samples: Sequence[FieldSample], level: Callable,
                     target: Optional[float]) -> ResidualReport:
    """Report of the residuals over the refinement levels.

    ``level(sample)`` returns one level's residuals as a list of arrays, pooled
    into one (Linf, L2) pair per level against the transverse spacing.  The
    levels need strictly decreasing spacing and room for the stencils.
    """
    if len(samples) < 2:
        raise ValueError("need at least 2 refinement levels to estimate a decay order")
    hs = np.array([s.d_point for s in samples])
    if np.any(hs[1:] >= hs[:-1]):
        raise ValueError("refinement levels must have strictly decreasing spacing")
    for sample in samples:
        _require_layers(sample)
    with np.errstate(all="ignore"):  # a residual that overflows is inf or NaN, its norm null
        norms = [_norms(level(s)) for s in samples]
    return _make_report(hs, np.transpose(norms), target)


# ---------------------------------------------------------------------------
# PDE residuals


def residual_full(samples: Sequence[FieldSample], m: ShearModulus,
                  order_target: float = DEFAULT_ORDER_TARGET) -> ResidualReport:
    """Decay of the 4-field system residual on sampled (U, V, M, N) fields.

    The four first-order equations U_t - M_x, V_t - N_x, M_t - [Qt(s)U]_x,
    N_t - [Qt(s)V]_x are discretized with centered stencils; fields must be
    sampled with the evolution axis t and transverse axis x.
    """
    def level(sample):
        U, V, M, N = (sample.get(name) for name in "UVMN")
        qt = m.qtilde(U * U + V * V)
        return [_balance(U, M, sample), _balance(V, N, sample),
                _balance(M, qt * U, sample), _balance(N, qt * V, sample)]

    return _residual_report(samples, level, order_target)


def residual_asymptotic(samples: Sequence[FieldSample], beta: float,
                        order_target: float = DEFAULT_ORDER_TARGET) -> ResidualReport:
    """Decay of the polar weakly nonlinear residual on sampled (theta, rho).

    Checks theta_X - beta rho^2 theta_tau and rho_X - 3 beta rho^2 rho_tau
    with the evolution axis X and transverse axis tau.
    """
    beta = float(beta)

    def level(sample):
        th, rh = sample.get("theta"), sample.get("rho")
        rh2 = _mid(rh)**2
        return [_mid(_d_coord(th, sample) - beta * rh2 * _d_point(th, sample)),
                _mid(_d_coord(rh, sample) - 3.0 * beta * rh2 * _d_point(rh, sample))]

    return _residual_report(samples, level, order_target)


# ---------------------------------------------------------------------------
# conservation pairs


@dataclass(frozen=True)
class ConservationSpec:
    """Weight pair generating a conservation-law density/flux for the polar system.

    ``amp_weight`` is a function of the radial field rho, ``angle_weight`` a
    function of the angle theta.  The generated pair is

        density = -amp'(rho) rho^2 - 3 amp(rho) rho - angle(theta) rho
        flux    = beta (-3 amp'(rho) rho^4 - 3 amp(rho) rho^3 - angle(theta) rho^3)

    For every weight pair flux_theta = beta rho^2 density_theta and flux_rho =
    3 beta rho^2 density_rho, so D_X density - D_tau flux = density_theta r_theta
    + density_rho r_rho, with r_theta and r_rho the two residuals of
    ``residual_asymptotic``: the balance vanishes on every solution.
    """

    amp_weight: ProfileFunction
    angle_weight: ProfileFunction

    def density(self, theta, rho) -> np.ndarray:
        c1, c2 = self.amp_weight, self.angle_weight
        return -c1.deriv(rho) * rho**2 - 3.0 * c1(rho) * rho - c2(theta) * rho

    def flux(self, theta, rho, beta: float) -> np.ndarray:
        c1, c2 = self.amp_weight, self.angle_weight
        return beta * (-3.0 * c1.deriv(rho) * rho**4 - 3.0 * c1(rho) * rho**3
                       - c2(theta) * rho**3)


def conservation_residual(samples: Sequence[FieldSample], beta: float,
                          spec: ConservationSpec,
                          order_target: float = DEFAULT_ORDER_TARGET) -> ResidualReport:
    """Decay of a conservation pair's balance D_X density - D_tau flux on sampled (theta, rho).

    The balance is density_theta r_theta + density_rho r_rho (``ConservationSpec``),
    so it decays on every solution.  Unless min(order, order_l2) reaches
    DECAY_MIN_ORDER (a NaN ``order`` never does) the field is not a solution or
    the pair is wrong, and NeitherOrientationDecays is raised with both orders.
    """
    beta = float(beta)

    def level(sample):
        th, rh = sample.get("theta"), sample.get("rho")
        return [_balance(spec.density(th, rh), spec.flux(th, rh, beta), sample)]

    report = _residual_report(samples, level, order_target)
    if not min(report.order, report.order_l2) >= DECAY_MIN_ORDER:
        raise NeitherOrientationDecays(
            f"conservation residual does not decay (order {report.order:.3f}, "
            f"L2 order {report.order_l2:.3f})")
    return report


# ---------------------------------------------------------------------------
# symmetries


@dataclass(frozen=True)
class SymmetrySpec:
    """Hydrodynamic symmetry of the polar system from an angle/radial weight pair.

    ``phase_fn`` is a function of theta, ``radial_fn`` a function of rho.
    The characteristic is linear in the first transverse derivatives:

        phi_theta = -(phase(theta)/rho + radial(rho)) theta_tau
        phi_rho   = -(radial'(rho) rho + radial(rho)) rho_tau
    """

    phase_fn: ProfileFunction
    radial_fn: ProfileFunction

    def _coeffs(self, theta, rho):
        a = -(self.phase_fn(theta) / rho + self.radial_fn(rho))
        b = -(self.radial_fn.deriv(rho) * rho + self.radial_fn(rho))
        return a, b

    def characteristic(self, theta, rho, theta_tau, rho_tau):
        a, b = self._coeffs(theta, rho)
        return a * theta_tau, b * rho_tau

    def characteristic_partials(self, theta, rho, theta_tau, rho_tau):
        """Partials of both components w.r.t. (theta, rho, theta_tau, rho_tau)."""
        a, b = self._coeffs(theta, rho)
        a_theta = -self.phase_fn.deriv(theta) / rho
        a_rho = self.phase_fn(theta) / rho**2 - self.radial_fn.deriv(rho)
        b_rho = -(self.radial_fn.deriv2(rho) * rho + 2.0 * self.radial_fn.deriv(rho))
        zero = np.zeros_like(np.asarray(a, dtype=float))
        comp_theta = (a_theta * theta_tau, a_rho * theta_tau, a + zero, zero)
        comp_rho = (zero, b_rho * rho_tau, zero, b + zero)
        return comp_theta, comp_rho


@dataclass(frozen=True)
class PerturbedRadialControl:
    """Negative control: the radial characteristic component scaled by (1 + COEFF*rho).

    Breaks the commutation with the system flow while keeping the angle
    component intact; any bracket or linearized residual run against it must
    come out nonzero.
    """

    base: SymmetrySpec
    COEFF = 0.1

    def characteristic(self, theta, rho, theta_tau, rho_tau):
        phi_th, phi_rh = self.base.characteristic(theta, rho, theta_tau, rho_tau)
        return phi_th, (1.0 + self.COEFF * rho) * phi_rh

    def characteristic_partials(self, theta, rho, theta_tau, rho_tau):
        comp_theta, comp_rho = self.base.characteristic_partials(theta, rho, theta_tau, rho_tau)
        _, phi_rh = self.base.characteristic(theta, rho, theta_tau, rho_tau)
        g = 1.0 + self.COEFF * rho
        scaled = (comp_rho[0] * g,
                  comp_rho[1] * g + self.COEFF * phi_rh,
                  comp_rho[2] * g,
                  comp_rho[3] * g)
        return comp_theta, scaled


@dataclass(frozen=True)
class AngleSquaredControl:
    """Negative control: the angle characteristic component replaced by theta_tau^2.

    Not a symmetry of the system; on fields with varying amplitude the
    linearized residual stays O(1) instead of decaying.
    """

    base: SymmetrySpec

    def characteristic(self, theta, rho, theta_tau, rho_tau):
        _, phi_rh = self.base.characteristic(theta, rho, theta_tau, rho_tau)
        return theta_tau**2, phi_rh


def linearized_symmetry_residual(samples: Sequence[FieldSample], beta: float, spec,
                                 order_target: float = DEFAULT_ORDER_TARGET) -> ResidualReport:
    """Decay of the linearized-system residual for a symmetry characteristic.

    ``spec`` needs a ``characteristic(theta, rho, theta_tau, rho_tau)``
    method.  On sampled solution fields (theta, rho) the characteristic
    (phi_theta, phi_rho) is tabulated from first-stage stencils and then
    tested against

        D_X phi_theta - 2 beta rho theta_tau phi_rho - beta rho^2 D_tau phi_theta = 0
        D_X phi_rho   - 6 beta rho rho_tau   phi_rho - 3 beta rho^2 D_tau phi_rho = 0.
    """
    beta = float(beta)

    def level(sample):
        th, rh = sample.get("theta"), sample.get("rho")
        th_tau, rh_tau = _d_point(th, sample), _d_point(rh, sample)
        phi_th, phi_rh = spec.characteristic(_mid(th), _mid(rh), th_tau, rh_tau)
        # the equations on the interior of the characteristic's own interior
        rh_m, phi_rh_m = _mid(_mid(rh)), _mid(phi_rh)
        eq1 = (_d_coord(phi_th, sample) - 2.0 * beta * rh_m * _mid(th_tau) * phi_rh_m
               - beta * rh_m**2 * _d_point(phi_th, sample))
        eq2 = (_d_coord(phi_rh, sample) - 6.0 * beta * rh_m * _mid(rh_tau) * phi_rh_m
               - 3.0 * beta * rh_m**2 * _d_point(phi_rh, sample))
        return [eq1, eq2]

    return _residual_report(samples, level, order_target)


def commutator_residual(spec, beta: float, jet_samples) -> float:
    """Max bracket of a symmetry characteristic with the system's own flow.

    The second characteristic is (beta rho^2 theta_tau, 3 beta rho^2 rho_tau).
    Both bracket components are expanded algebraically on raw jet coordinates
    (theta, rho, theta_tau, rho_tau, theta_tautau, rho_tautau) with the total
    transverse derivative truncated at second order; no field enters.
    ``spec`` needs ``characteristic`` and ``characteristic_partials`` methods.
    For hydrodynamic specs the result is an algebraic zero, so anything above
    roundoff signals a broken characteristic.
    """
    beta = float(beta)
    jets = np.atleast_2d(np.asarray(jet_samples, dtype=float))
    if jets.shape[1] != 6:
        raise ValueError("jet samples must have columns "
                         "(theta, rho, theta_tau, rho_tau, theta_tautau, rho_tautau)")
    th, rh, tht, rht, thtt, rhtt = (jets[:, i] for i in range(6))

    psi_th = beta * rh**2 * tht
    psi_rh = 3.0 * beta * rh**2 * rht
    zero = np.zeros_like(th)
    psi_th_p = (zero, 2.0 * beta * rh * tht, beta * rh**2, zero)
    psi_rh_p = (zero, 6.0 * beta * rh * rht, zero, 3.0 * beta * rh**2)

    phi_th, phi_rh = spec.characteristic(th, rh, tht, rht)
    phi_th_p, phi_rh_p = spec.characteristic_partials(th, rh, tht, rht)

    def total_tau(partials):
        d_th, d_rh, d_tht, d_rht = partials
        return d_th * tht + d_rh * rht + d_tht * thtt + d_rht * rhtt

    D_phi = (total_tau(phi_th_p), total_tau(phi_rh_p))
    D_psi = (total_tau(psi_th_p), total_tau(psi_rh_p))
    phi_vals = (phi_th, phi_rh)
    psi_vals = (psi_th, psi_rh)

    worst = 0.0
    for psi_p, phi_p in ((psi_th_p, phi_th_p), (psi_rh_p, phi_rh_p)):
        bracket = (psi_p[0] * phi_vals[0] + psi_p[1] * phi_vals[1]
                   + psi_p[2] * D_phi[0] + psi_p[3] * D_phi[1]
                   - phi_p[0] * psi_vals[0] - phi_p[1] * psi_vals[1]
                   - phi_p[2] * D_psi[0] - phi_p[3] * D_psi[1])
        worst = max(worst, float(np.max(np.abs(bracket))))
    return worst


# ---------------------------------------------------------------------------
# solver convergence


def oracle_error(traj, oracle: Callable) -> np.ndarray:
    """``traj.final`` minus ``oracle(centers, coord)`` at the trajectory's cell
    centers and final coordinate.

    An oracle that raises, or returns non-finite values, raises OracleFailure
    naming the cell count; a cause's ``coordinate`` (the failing sample point)
    is kept.
    """
    n = traj.grid.n
    try:
        with np.errstate(all="ignore"):  # non-finite values raise below
            ref = np.asarray(oracle(traj.grid.centers, float(traj.coords[-1])), dtype=float)
    except Exception as exc:
        raise OracleFailure(f"oracle evaluation failed at n={n}: {exc}",
                            coordinate=getattr(exc, "coordinate", None)) from exc
    ref = np.broadcast_to(ref, traj.final.shape)
    if not np.all(np.isfinite(ref)):
        raise OracleFailure(f"oracle returned non-finite values at n={n}")
    return traj.final - ref


def convergence_study(run: Callable, oracle: Callable, levels: Sequence[int],
                      order_target: Optional[float] = None,
                      order_tol: Optional[float] = None) -> ResidualReport:
    """Errors of ``run(n).final`` against ``oracle(centers, coord)`` over levels.

    ``run`` maps a cell count to a finished Trajectory; ``oracle_error``
    compares it with the oracle.  The fitted order passes when it reaches
    ``order_target`` (or lands within ``order_tol`` of it when a tolerance is
    given), and always when there is no target.
    """
    if len(levels) < 2:
        raise ValueError("need at least 2 resolutions")
    if len({int(n) for n in levels}) < len(levels):
        raise ValueError(f"resolutions must be distinct, got {[int(n) for n in levels]}")
    if order_tol is not None and order_target is None:
        raise ValueError("an order tolerance needs an order target")
    hs, norms = [], []
    for n in levels:
        traj = run(int(n))
        hs.append(traj.grid.h)
        norms.append(_norms([oracle_error(traj, oracle)]))
    return _make_report(np.asarray(hs), np.transpose(norms), order_target, order_tol)
