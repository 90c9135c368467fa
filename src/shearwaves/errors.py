"""Exception types shared across the package.

Every error raised by library code derives from ShearWaveError so callers
(and the CLI) can map failures to a single exit path.
"""


class ShearWaveError(Exception):
    """Base class for all domain errors; ``coordinate`` is where it happened, if known."""

    def __init__(self, message="", coordinate=None):
        super().__init__(message)
        self.coordinate = coordinate


class NonPositiveModulus(ShearWaveError):
    """The shear modulus evaluated to a non-positive value."""


class NoBracket(ShearWaveError):
    """A bracketing interval does not enclose a sign change."""


class NoConvergence(ShearWaveError):
    """An iterative solve exhausted its iteration budget."""


class SingularJacobian(ShearWaveError):
    """A Newton Jacobian is numerically singular (fold / degenerate map)."""


class DegenerateDirection(ShearWaveError):
    """An eigenvector direction is undefined at the requested state."""


class ChartFailure(ShearWaveError):
    """A change of variables is singular at a sample point."""


class DegenerateConstraint(ShearWaveError):
    """The level-set constraint has a vanishing gradient component."""


class HyperbolicityLoss(ShearWaveError):
    """A squared wave speed went non-positive during evolution."""


class BlowupDetected(ShearWaveError):
    """A time integrator produced a non-finite state, or the gradient monitor tripped."""


class InsufficientSnapshots(ShearWaveError):
    """Not enough snapshots to form centered stencils."""


class NeitherOrientationDecays(ShearWaveError):
    """Neither density/flux ordering of a balance law decays under refinement."""


class OracleFailure(ShearWaveError):
    """An exact-solution oracle failed to evaluate."""


class ConfigError(ShearWaveError):
    """A run configuration failed validation."""
