"""Nonlinear transverse shear waves in one space dimension.

Exact solution families, finite-volume evolution of the full and weakly
nonlinear systems, structural classification of 2x2 fluxes with coinciding
characteristic speeds, and residual-based verification machinery.
"""

__version__ = "0.1.0"

from .errors import (
    BlowupDetected,
    ChartFailure,
    ConfigError,
    DegenerateConstraint,
    DegenerateDirection,
    HyperbolicityLoss,
    InsufficientSnapshots,
    NeitherOrientationDecays,
    NoBracket,
    NoConvergence,
    NonPositiveModulus,
    OracleFailure,
    ShearWaveError,
    SingularJacobian,
)
from .profiles import (
    ProfileFunction,
    const_profile,
    linear_profile,
    poly_profile,
    profile_from_config,
    sine_profile,
)
from .constitutive import (
    ShearModulus,
    TempleFlux,
    cubic_modulus,
    eval_Q,
    flux_from_config,
    modulus_flux,
    modulus_from_config,
    mooney_rivlin,
    poly_flux,
    poly_modulus,
    power_modulus,
    product_flux,
    ratio_flux,
    solve_level_set,
    sum_squares_flux,
)
from .exact import (
    CarrollWave,
    FullState,
    HodographData,
    PolarState,
    SeparableSolution,
    StrainState,
    carroll_dispersion,
    carroll_full_state,
    eval_asymptotic_linear,
    eval_overdetermined,
    eval_separable,
    eval_simple_wave,
    generalized_carroll_full_state,
    hodograph_forward,
    hodograph_invert,
    hodograph_jacobian,
    sample_hodograph,
    sample_simple_wave,
    strain_to_polar,
)
from .analysis import (
    ClassificationReport,
    EigenReport,
    classify,
    compatibility_residuals,
    construct_temple_flux,
    temple_eigen,
)
from .simulate import (
    Grid1D,
    SimulationConfig,
    Trajectory,
    breaking_estimate,
    cfl_step,
    evolve_asymptotic,
    evolve_full,
    evolve_scalar,
)
from .verify import (
    AngleSquaredControl,
    ConservationSpec,
    ConvergenceReport,
    FieldSample,
    PerturbedRadialControl,
    ResidualReport,
    SymmetrySpec,
    commutator_residual,
    conservation_residual,
    convergence_study,
    linearized_symmetry_residual,
    residual_asymptotic,
    residual_full,
)

__all__ = [name for name in dir() if not name.startswith("_")]
