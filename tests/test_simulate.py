"""Finite-volume evolution: conservation, stability guards, blowup monitoring."""
import math

import numpy as np
import pytest

from shearwaves.constitutive import ShearModulus, cubic_modulus
from shearwaves.errors import BlowupDetected, HyperbolicityLoss, NoConvergence, NonPositiveModulus
from shearwaves.exact import (
    CarrollWave,
    FullState,
    StrainState,
    carroll_full_state,
    eval_asymptotic_linear,
)
from shearwaves.profiles import ProfileFunction, poly_profile, sine_profile
from shearwaves.simulate import (
    STEPPERS,
    Grid1D,
    SimulationConfig,
    breaking_estimate,
    cfl_step,
    evolve_asymptotic,
    evolve_full,
    evolve_scalar,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# configuration objects


def test_grid_properties():
    g = Grid1D(n=10, a=0.0, b=1.0)
    assert g.h == pytest.approx(0.1)
    assert len(g.centers) == 10
    assert g.centers[0] == pytest.approx(0.05)
    assert g.centers[-1] == pytest.approx(0.95)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 4, "a": 0.0, "b": 1.0},
        {"n": 16, "a": 1.0, "b": 1.0},
        {"n": 16, "a": 0.0, "b": 1.0, "boundary": "reflecting"},
    ],
)
def test_grid_validation(kwargs):
    with pytest.raises(ValueError):
        Grid1D(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"end": -1.0},
        {"end": 1.0, "scheme": "weno5"},
        {"end": 1.0, "cfl": 0.0},
        {"end": 1.0, "cfl": 1.1},
        {"end": 1.0, "blowup_factor": 1.0},
    ],
)
def test_simulation_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimulationConfig(**kwargs)


def test_max_steps_raises_no_convergence():
    grid = Grid1D(n=16, a=0.0, b=TWO_PI)
    rho0 = 1.0 + 0.1 * np.sin(grid.centers)
    with pytest.raises(NoConvergence, match="max_steps = 3"):
        evolve_scalar(1.0, grid, rho0, SimulationConfig(end=1.0, max_steps=3))


def test_cfl_step_arithmetic():
    assert cfl_step(2.0, 0.1, 0.5) == pytest.approx(0.025)
    assert cfl_step(2.0, 0.1, 0.5, remaining=0.01) == pytest.approx(0.01)
    # zero speed cannot limit the step
    assert cfl_step(0.0, 0.1, 0.5, remaining=0.7) == 0.7


# ---------------------------------------------------------------------------
# exact conservation and trivial evolutions


@pytest.mark.parametrize("scheme", list(STEPPERS))
def test_periodic_mass_conservation_full(scheme):
    m = cubic_modulus(1.0, 0.5)
    w = CarrollWave.from_modulus(m, 1.0, 1.0)
    grid = Grid1D(n=64, a=0.0, b=TWO_PI)
    init = FullState(*carroll_full_state(w, grid.centers, 0.0))
    traj = evolve_full(m, grid, init, SimulationConfig(end=1.0, scheme=scheme))
    masses = traj.masses()
    drift = np.max(np.abs(masses - masses[0]))
    assert drift <= 1e-12


@pytest.mark.parametrize("scheme", list(STEPPERS))
def test_periodic_mass_conservation_scalar(scheme):
    grid = Grid1D(n=128, a=0.0, b=TWO_PI)
    rho0 = 1.0 + 0.2 * np.sin(grid.centers)
    cfg = SimulationConfig(end=2.0, scheme=scheme, snapshot_stride=50)
    traj = evolve_scalar(1.0, grid, rho0, cfg)  # runs through breaking
    masses = traj.masses()
    assert np.max(np.abs(masses - masses[0])) <= 1e-12


def test_zero_data_stays_zero():
    m = cubic_modulus(1.0, 0.5)
    grid = Grid1D(n=32, a=0.0, b=1.0)
    z = np.zeros(grid.n)
    traj = evolve_full(m, grid, FullState(z, z, z, z), SimulationConfig(end=0.3))
    np.testing.assert_array_equal(traj.final, 0.0)


def test_zero_beta_freezes_asymptotic():
    grid = Grid1D(n=32, a=0.0, b=TWO_PI)
    U = np.cos(grid.centers)
    V = np.sin(grid.centers)
    traj = evolve_asymptotic(0.0, grid, StrainState(U, V), SimulationConfig(end=2.0))
    np.testing.assert_allclose(traj.final[0], U, atol=1e-15)
    np.testing.assert_allclose(traj.final[1], V, atol=1e-15)


def test_outflow_constant_state_is_steady():
    grid = Grid1D(n=32, a=0.0, b=1.0, boundary="outflow")
    rho0 = np.full(grid.n, 1.3)
    traj = evolve_scalar(0.8, grid, rho0, SimulationConfig(end=0.5))
    np.testing.assert_allclose(traj.final[0], 1.3, atol=1e-14)


# ---------------------------------------------------------------------------
# scheme quality


def test_total_variation_diminishes_scalar_lf():
    grid = Grid1D(n=128, a=0.0, b=TWO_PI)
    rho0 = 1.0 + 0.2 * np.sin(grid.centers)
    cfg = SimulationConfig(end=1.5, scheme="lax_friedrichs", snapshot_stride=1)
    traj = evolve_scalar(1.0, grid, rho0, cfg)
    tv = traj.tv[:, 0]
    assert np.all(np.diff(tv) <= 1e-12)


def test_muscl_beats_first_order():
    beta, A = 0.5, 1.0
    prof = sine_profile(1.0, 1.0)
    grid = Grid1D(n=128, a=0.0, b=TWO_PI)
    U0, V0 = eval_asymptotic_linear(beta, A, prof, 0.0, grid.centers)
    end = 1.0
    errs = {}
    for scheme in ("lax_friedrichs", "muscl_minmod"):
        traj = evolve_asymptotic(beta, grid, StrainState(U0, V0),
                                 SimulationConfig(end=end, scheme=scheme))
        Ue, Ve = eval_asymptotic_linear(beta, A, prof, end, grid.centers)
        errs[scheme] = np.max(np.abs(traj.final - np.stack([Ue, Ve])))
    assert errs["muscl_minmod"] < 0.3 * errs["lax_friedrichs"]


def test_plane_asymptotic_matches_scalar_law():
    # V = 0 reduces the two-component flux to the scalar cubic law exactly
    beta = 0.8
    grid = Grid1D(n=96, a=0.0, b=TWO_PI)
    w0 = 1.0 + 0.1 * np.sin(grid.centers)
    cfg = SimulationConfig(end=0.2, scheme="muscl_minmod")
    tra = evolve_asymptotic(beta, grid, StrainState(w0.copy(), np.zeros(grid.n)), cfg)
    trs = evolve_scalar(beta, grid, w0.copy(), cfg)
    np.testing.assert_allclose(tra.final[0], trs.final[0], atol=1e-13)
    np.testing.assert_array_equal(tra.final[1], 0.0)


# ---------------------------------------------------------------------------
# guards and monitors


SCHEMES_AND_BOUNDARIES = [(scheme, boundary)
                          for scheme in ("lax_friedrichs", "muscl_minmod")
                          for boundary in ("periodic", "outflow")]


@pytest.mark.parametrize("scheme, boundary", SCHEMES_AND_BOUNDARIES)
def test_hyperbolicity_loss_raises(scheme, boundary):
    # Q stays positive but Q + 2 s Q' does not: the fast family loses
    # hyperbolicity at amplitude 1.2 for Q = 1 - 0.3 s
    m = cubic_modulus(1.0, -0.3)
    w = CarrollWave.from_modulus(m, 1.2, 1.0)
    grid = Grid1D(n=32, a=0.0, b=TWO_PI, boundary=boundary)
    init = FullState(*carroll_full_state(w, grid.centers, 0.0))
    with pytest.raises(HyperbolicityLoss):
        evolve_full(m, grid, init, SimulationConfig(end=0.1, scheme=scheme))


@pytest.mark.parametrize("scheme, boundary", SCHEMES_AND_BOUNDARIES)
def test_modulus_turning_non_positive_mid_run_raises(scheme, boundary):
    # Q = 1 below s = 0.25 and -1 above, with Q' = 0 so the fast speed never
    # fails first.  From U = 0, M = sin x the linear wave grows U = cos x sin t,
    # so |U| first reaches 0.5 (s = 0.25) near t = pi/6.
    m = ShearModulus(ProfileFunction(lambda s: np.where(s < 0.25, 1.0, -1.0),
                                     df=lambda s: np.zeros_like(s), name="step"))
    grid = Grid1D(n=64, a=0.0, b=TWO_PI, boundary=boundary)
    zero = np.zeros(grid.n)
    init = FullState(zero, zero, np.sin(grid.centers), zero)
    evolve_full(m, grid, init, SimulationConfig(end=0.3, scheme=scheme))
    with pytest.raises(NonPositiveModulus, match="for modulus 'step'"):
        evolve_full(m, grid, init, SimulationConfig(end=1.5, scheme=scheme))


def test_blowup_detected_on_steepening_plane_wave():
    grid = Grid1D(n=256, a=0.0, b=TWO_PI)
    U0 = 1.0 + 0.2 * np.sin(grid.centers)
    cfg = SimulationConfig(end=5.0, blowup_factor=5.0)
    with pytest.raises(BlowupDetected) as info:
        evolve_asymptotic(1.0, grid, StrainState(U0, np.zeros(grid.n)), cfg)
    assert info.value.coordinate is not None
    assert 0.0 < info.value.coordinate < 5.0


@pytest.mark.parametrize("system", ["full", "asymptotic", "scalar"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_initial_state_raises_at_coordinate_zero(system, bad):
    # caught before the first step, so no speed or coordinate is computed from it
    grid = Grid1D(n=16, a=0.0, b=TWO_PI)
    u = np.full(grid.n, 0.5)
    u[5] = bad
    zero = np.zeros(grid.n)
    cfg = SimulationConfig(end=0.1)
    with pytest.raises(BlowupDetected, match="non-finite initial state") as info:
        if system == "full":
            evolve_full(cubic_modulus(1.0, 0.4), grid, FullState(zero, zero, u, zero), cfg)
        elif system == "asymptotic":
            evolve_asymptotic(1.0, grid, StrainState(zero, u), cfg)
        else:
            evolve_scalar(1.0, grid, u, cfg)
    assert info.value.coordinate == 0.0


def test_scalar_evolution_records_blowup_without_raising():
    grid = Grid1D(n=256, a=0.0, b=TWO_PI)
    rho0 = 1.0 + 0.2 * np.sin(grid.centers)
    cfg = SimulationConfig(end=5.0, blowup_factor=5.0)
    traj = evolve_scalar(1.0, grid, rho0, cfg)
    assert traj.blowup_coordinate is not None
    assert traj.coords[-1] == pytest.approx(5.0)
    first = np.nonzero(traj.step_max_gradient > 5.0 * traj.initial_gradient)[0][0]
    assert traj.step_coords[first] == pytest.approx(traj.blowup_coordinate)


def test_scalar_evolution_records_no_blowup_before_breaking():
    grid = Grid1D(n=128, a=0.0, b=TWO_PI)
    rho0 = 1.0 + 0.2 * np.sin(grid.centers)
    traj = evolve_scalar(1.0, grid, rho0, SimulationConfig(end=0.1))
    assert traj.blowup_coordinate is None
    assert np.all(traj.step_max_gradient <= 10.0 * traj.initial_gradient)


def test_scalar_step_below_floor_raises():
    # speeds near 1e300 give steps near 1e-302, far below the floor: the run
    # stops at its first step instead of running on to max_steps
    grid = Grid1D(n=64, a=0.0, b=TWO_PI)
    rho0 = 1.0 + 0.2 * np.sin(grid.centers)
    # the floor is 1e-9 (b - a)
    message = r"step collapsed to \S+, below the floor 6\.283e-09, at coordinate"
    with pytest.raises(BlowupDetected, match=message) as info:
        evolve_scalar(1e300, grid, rho0, SimulationConfig(end=1.0, max_steps=10))
    assert 0.0 < info.value.coordinate < 1e-290
    assert f"at coordinate {info.value.coordinate!r}" in str(info.value)


def test_last_step_cut_short_below_floor_is_not_a_blowup():
    grid = Grid1D(n=64, a=0.0, b=TWO_PI)
    rho0 = 1.0 + 0.2 * np.sin(grid.centers)
    third = evolve_scalar(1.0, grid, rho0, SimulationConfig(end=0.5)).step_coords[2]
    # the fourth step is the 1e-12 left before the end, far below the floor
    traj = evolve_scalar(1.0, grid, rho0, SimulationConfig(end=third + 1e-12))
    assert len(traj.step_coords) == 4
    assert traj.blowup_coordinate is None


def test_snapshot_stride_and_final_coordinate():
    grid = Grid1D(n=32, a=0.0, b=1.0)
    traj = evolve_scalar(0.5, grid, np.ones(grid.n),
                         SimulationConfig(end=0.4, snapshot_stride=3))
    assert traj.coords[0] == 0.0
    assert traj.coords[-1] == pytest.approx(0.4)
    assert np.all(np.diff(traj.coords) > 0)
    assert traj.states.shape[0] == len(traj.coords)


# ---------------------------------------------------------------------------
# breaking estimate


def test_breaking_estimate_sine_reference():
    tau = np.linspace(0.0, TWO_PI, 4097)
    prof = sine_profile(0.2, 1.0, offset=1.0)
    Xstar = breaking_estimate(1.0, prof, tau)
    # max of 6 rho rho' for rho = 1 + 0.2 sin: maximize 6*0.2*cos*(1+0.2*sin)
    vals = 6.0 * (1.0 + 0.2 * np.sin(tau)) * 0.2 * np.cos(tau)
    assert Xstar == pytest.approx(1.0 / np.max(vals), rel=1e-6)


def test_breaking_estimate_halves_with_double_beta():
    tau = np.linspace(0.0, TWO_PI, 2049)
    prof = sine_profile(0.2, 1.0, offset=1.0)
    assert breaking_estimate(2.0, prof, tau) == pytest.approx(
        0.5 * breaking_estimate(1.0, prof, tau), rel=1e-12
    )


def test_breaking_estimate_harmless_data_never_breaks():
    tau = np.linspace(0.0, 5.0, 257)
    assert breaking_estimate(1.0, poly_profile([1.0]), tau) == math.inf
    # decreasing positive data: rho*rho' < 0 throughout
    assert breaking_estimate(1.0, poly_profile([2.0, -0.1]), tau) == math.inf
    # flipping the sign of beta makes the same data break
    assert breaking_estimate(-1.0, poly_profile([2.0, -0.1]), tau) < math.inf
