"""Exception types shared across the package.

A computation that fails raises a ShearWaveError subclass, so callers (and
the CLI, which maps them to exit 3) have one failure path; a bad argument
to a library function raises ValueError instead.  Where the failure has a
place, ``coordinate`` holds it: a sample point, or an evolution coordinate.
"""


class ShearWaveError(Exception):
    """Base class for all domain errors; ``coordinate`` is where it happened, if known."""

    def __init__(self, message="", coordinate=None):
        super().__init__(message)
        self.coordinate = coordinate


class NonPositiveModulus(ShearWaveError):
    """The shear modulus evaluated to a non-positive value."""


class NoConvergence(ShearWaveError):
    """An iterative solve failed: its bracket has no sign change, or it ran out of iterations."""


class SingularJacobian(ShearWaveError):
    """A Jacobian or change of variables is singular at a sample (a fold, or a degenerate map)."""


class HyperbolicityLoss(ShearWaveError):
    """A squared wave speed went non-positive during evolution."""


class BlowupDetected(ShearWaveError):
    """An integrator went non-finite or below its step floor, or the gradient monitor tripped."""


class NeitherOrientationDecays(ShearWaveError):
    """A conservation pair's balance does not decay under refinement."""


class OracleFailure(ShearWaveError):
    """An exact-solution oracle failed to evaluate."""


class ConfigError(ShearWaveError):
    """A run configuration failed validation."""


def point_error(cls, message, point, names="(X, tau)"):
    """A ``cls`` error whose message and coordinate name the sample point where it failed."""
    point = tuple(float(c) for c in point)
    return cls(f"{message} at {names} = {point}", coordinate=point)
