"""Residual operations, conservation pairs, symmetries, convergence studies."""
import math

import numpy as np
import pytest

from shearwaves import verify
from shearwaves.constitutive import cubic_modulus
from shearwaves.errors import NeitherOrientationDecays, OracleFailure
from shearwaves.exact import (
    CarrollWave,
    HodographData,
    StrainState,
    carroll_full_state,
    eval_asymptotic_linear,
    sample_hodograph,
)
from shearwaves.profiles import (
    ProfileFunction,
    const_profile,
    linear_profile,
    poly_profile,
    sine_profile,
)
from shearwaves.simulate import Grid1D, SimulationConfig, evolve_asymptotic
from shearwaves.verify import (
    AngleSquaredControl,
    ConservationSpec,
    FieldSample,
    PerturbedRadialControl,
    SymmetrySpec,
    commutator_residual,
    conservation_residual,
    convergence_study,
    linearized_symmetry_residual,
    residual_asymptotic,
    residual_full,
)

LEVELS = (33, 65, 129)


# ---------------------------------------------------------------------------
# field samples


def test_field_sample_validation():
    c = np.linspace(0.0, 1.0, 6)
    p = np.linspace(0.0, 2.0, 8)
    good = FieldSample(c, p, {"theta": np.zeros((6, 8))})
    assert good.d_coord == pytest.approx(0.2)
    assert good.d_point == pytest.approx(2.0 / 7.0)
    with pytest.raises(ValueError):
        FieldSample(c, p, {"theta": np.zeros((8, 6))})
    with pytest.raises(ValueError):
        FieldSample(np.array([0.0, 0.1, 0.5]), p, {"theta": np.zeros((3, 8))})
    with pytest.raises(ValueError):
        FieldSample(c[::-1], p, {"theta": np.zeros((6, 8))})
    with pytest.raises(KeyError):
        good.get("rho")


def _flat_sample(n_coords, n_points):
    """Zero fields on the unit square, with rho = 1: enough for every residual."""
    z = np.zeros((n_coords, n_points))
    return FieldSample(np.linspace(0.0, 1.0, n_coords), np.linspace(0.0, 1.0, n_points),
                       {"U": z, "V": z, "M": z, "N": z, "theta": z, "rho": z + 1.0})


RESIDUALS = {
    "residual_full": lambda samples: residual_full(samples, cubic_modulus(1.0, 0.5)),
    "residual_asymptotic": lambda samples: residual_asymptotic(samples, 1.0),
    "conservation_residual": lambda samples: conservation_residual(
        samples, 1.0, ConservationSpec(const_profile(0.0), linear_profile(1.0))),
    "linearized_symmetry_residual": lambda samples: linearized_symmetry_residual(
        samples, 1.0, SymmetrySpec(linear_profile(1.0), poly_profile([0.0, 0.0, 1.0]))),
}
LEVEL_GUARDS = {
    "too_few_snapshots": ([_flat_sample(3, 9), _flat_sample(3, 17)],
                          ValueError, "at least 5 evolution layers"),
    "single_level": ([_flat_sample(9, 9)], ValueError, "at least 2 refinement levels"),
    "equal_spacing": ([_flat_sample(9, 9), _flat_sample(17, 9)], ValueError,
                      "strictly decreasing spacing"),
    "coarsening": ([_flat_sample(9, 17), _flat_sample(9, 9)], ValueError,
                   "strictly decreasing spacing"),
}


@pytest.mark.parametrize("guard", LEVEL_GUARDS)
@pytest.mark.parametrize("residual", RESIDUALS)
def test_level_guards_rejected(residual, guard):
    samples, error, message = LEVEL_GUARDS[guard]
    with pytest.raises(error, match=message):
        RESIDUALS[residual](samples)


# ---------------------------------------------------------------------------
# sample builders


def _carroll_samples(m, wave, levels=LEVELS):
    out = []
    for n in levels:
        t = np.linspace(0.0, 1.0, n)
        x = np.linspace(0.0, 2.0 * math.pi, n)
        T, X = np.meshgrid(t, x, indexing="ij")
        U, V, M, N = carroll_full_state(wave, X, T)
        out.append(FieldSample(t, x, {"U": U, "V": V, "M": M, "N": N}))
    return out


def _constant_amplitude_samples(beta, A, prof, levels=LEVELS):
    out = []
    for n in levels:
        X = np.linspace(0.0, 1.0, n)
        tau = np.linspace(0.0, 2.0 * math.pi, n)
        C, P = np.meshgrid(X, tau, indexing="ij")
        theta = np.asarray(prof(beta * A * A * C + P), dtype=float)
        out.append(FieldSample(X, tau, {"theta": theta, "rho": np.full_like(theta, A)}))
    return out


def _hodograph_samples(levels=LEVELS, beta=1.0):
    hd = HodographData(phase_fn=linear_profile(1.0),
                       radial_fn=poly_profile([0.0, 0.0, 1.0]))
    out = []
    for n in levels:
        X = np.linspace(-0.55, -0.45, n)
        tau = np.linspace(-1.7, -1.3, n)
        rho, theta = sample_hodograph(hd, beta, X, tau, seed=(0.5, 1.0))
        out.append(FieldSample(X, tau, {"theta": theta, "rho": rho}))
    return out


def _noise_samples(levels=LEVELS, names=("U", "V", "M", "N")):
    rng = np.random.default_rng(0)
    out = []
    for n in levels:
        c = np.linspace(0.0, 1.0, n)
        p = np.linspace(0.0, 1.0, n)
        out.append(FieldSample(c, p, {k: rng.standard_normal((n, n)) for k in names}))
    return out


# ---------------------------------------------------------------------------
# residual decay on exact families


def test_residual_full_second_order_on_carroll():
    m = cubic_modulus(1.0, 0.5)
    wave = CarrollWave.from_modulus(m, 1.0, 1.0)
    report = residual_full(_carroll_samples(m, wave), m)
    assert report.order > 1.9
    assert report.order_l2 > 1.9
    assert report.passed


def test_residual_full_noise_control():
    m = cubic_modulus(1.0, 0.5)
    report = residual_full(_noise_samples(), m)
    assert report.order <= 0.5
    assert not report.passed


def test_residual_asymptotic_constant_amplitude():
    report = residual_asymptotic(
        _constant_amplitude_samples(0.5, 1.0, sine_profile(1.0, 1.0)), 0.5)
    assert report.order > 1.9
    assert report.passed


def test_residual_asymptotic_hodograph_fields():
    report = residual_asymptotic(_hodograph_samples(), 1.0)
    assert report.order > 1.8
    assert report.passed


def test_residual_asymptotic_non_solution_control():
    # constant amplitude with a phase pattern that does not ride at beta*rho^2
    samples = []
    for n in LEVELS:
        X = np.linspace(0.0, 1.0, n)
        tau = np.linspace(0.0, 2.0 * math.pi, n)
        C, P = np.meshgrid(X, tau, indexing="ij")
        samples.append(FieldSample(X, tau, {"theta": np.sin(2.0 * P) + 0.0 * C,
                                            "rho": np.ones_like(C)}))
    report = residual_asymptotic(samples, 0.5)
    assert report.order <= 0.5
    assert not report.passed


# ---------------------------------------------------------------------------
# conservation pairs


def test_conservation_angle_weight_on_exact_solution():
    samples = _constant_amplitude_samples(0.5, 1.0, sine_profile(1.0, 1.0))
    spec = ConservationSpec(amp_weight=const_profile(0.0),
                            angle_weight=linear_profile(1.0))
    report = conservation_residual(samples, 0.5, spec)
    assert report.order > 1.9
    assert report.passed
    # the swapped orientation must be visibly non-decaying here
    assert _swapped_balance(samples, 0.5, spec).order < 1.0


def test_conservation_constant_angle_weight_is_exact():
    samples = _constant_amplitude_samples(0.5, 1.0, sine_profile(1.0, 1.0))
    spec = ConservationSpec(amp_weight=const_profile(0.0),
                            angle_weight=const_profile(1.0))
    report = conservation_residual(samples, 0.5, spec)
    assert math.isinf(report.order)
    assert report.passed


def test_conservation_trivial_pair_constant_densities():
    # amp weight a/rho + b/rho^3 - c/3 with constant angle weight c collapses
    # the density and the flux to constants, so the divergence vanishes
    # identically on any field
    a, b, c = 0.7, -0.4, 1.3
    amp = ProfileFunction(
        f=lambda r: a / r + b / r**3 - c / 3.0,
        df=lambda r: -a / r**2 - 3.0 * b / r**4,
        name="trivial",
    )
    spec = ConservationSpec(amp_weight=amp, angle_weight=const_profile(c))
    rng = np.random.default_rng(5)
    n = 33
    X = np.linspace(0.0, 1.0, n)
    tau = np.linspace(0.0, 1.0, n)
    theta = rng.standard_normal((n, n))
    rho = 1.0 + 0.5 * rng.random((n, n))
    dens = spec.density(theta, rho)
    flx = spec.flux(theta, rho, beta=0.8)
    np.testing.assert_allclose(dens, -2.0 * a, atol=1e-12)
    np.testing.assert_allclose(flx, 6.0 * b * 0.8, atol=1e-12)


def test_conservation_hodograph_fields():
    samples = _hodograph_samples()
    spec = ConservationSpec(amp_weight=const_profile(0.0),
                            angle_weight=linear_profile(1.0))
    report = conservation_residual(samples, 1.0, spec)
    assert report.order > 1.8
    assert report.passed


def test_conservation_neither_orientation_decays():
    samples = _noise_samples(names=("theta", "rho"))
    # keep rho positive so the densities stay finite
    samples = [
        FieldSample(s.coords, s.points,
                    {"theta": s.get("theta"), "rho": 1.5 + 0.3 * np.tanh(s.get("rho"))})
        for s in samples
    ]
    spec = ConservationSpec(amp_weight=const_profile(0.0),
                            angle_weight=linear_profile(1.0))
    with pytest.raises(NeitherOrientationDecays):
        conservation_residual(samples, 0.5, spec)


def _swapped_balance(samples, beta, spec):
    """Report of D_X flux - D_tau density, the balance with the pair swapped."""
    def level(sample):
        th, rh = sample.get("theta"), sample.get("rho")
        return [verify._balance(spec.flux(th, rh, beta), spec.density(th, rh), sample)]

    return verify._residual_report(samples, level, None)


@pytest.fixture(scope="module")
def polar_solutions():
    """Sampled solutions of the polar system with varying and constant amplitude, with their beta."""
    return [(_hodograph_samples(), 1.0),
            (_constant_amplitude_samples(0.5, 1.0, sine_profile(1.0, 1.0)), 0.5)]


@pytest.mark.parametrize("seed", range(20))
def test_conservation_balance_of_random_weights_decays_forward_only(polar_solutions, seed):
    # D_X density - D_tau flux = density_theta r_theta + density_rho r_rho for
    # every weight pair, so the forward balance decays at the stencil order on
    # any solution; the swapped one carries (beta^2 rho^4 - 1) density_theta
    # theta_tau + (9 beta^2 rho^4 - 1) density_rho rho_tau and does not
    rng = np.random.default_rng(seed)
    spec = ConservationSpec(poly_profile(rng.uniform(-1.0, 1.0, 3)),
                            poly_profile(rng.uniform(-1.0, 1.0, 3)))
    for samples, beta in polar_solutions:
        report = conservation_residual(samples, beta, spec)
        assert min(report.order, report.order_l2) >= 1.8
        assert report.passed
        swapped = _swapped_balance(samples, beta, spec)
        assert max(swapped.order, swapped.order_l2) < 1.0


def test_conservation_on_nan_fields_does_not_decay():
    samples = _constant_amplitude_samples(0.5, 1.0, sine_profile(1.0, 1.0))
    for sample in samples:
        sample.get("theta")[len(sample.coords) // 2, len(sample.points) // 2] = np.nan
    spec = ConservationSpec(const_profile(0.0), linear_profile(1.0))
    with pytest.raises(NeitherOrientationDecays, match="order nan"):
        conservation_residual(samples, 0.5, spec)


# fitted (Linf, L2) orders and whether the balance decays: min(Linf, L2) reaches
# DECAY_MIN_ORDER; Python's min keeps its first argument against a NaN second
INF, NAN = math.inf, math.nan
DECAY_RULE = [((2.0, 2.0), True), ((1.0, 1.0), True), ((INF, INF), True), ((INF, 2.0), True),
              ((0.5, 2.0), False), ((2.0, 0.9), False), ((0.0, INF), False),
              ((NAN, 2.0), False), ((NAN, NAN), False), ((2.0, NAN), True)]


@pytest.mark.parametrize("orders, decays", DECAY_RULE)
def test_conservation_decay_rule(monkeypatch, orders, decays):
    scripted = iter(orders)
    monkeypatch.setattr(verify, "_fit_order", lambda hs, norms: next(scripted))
    samples = [_flat_sample(n, n) for n in (9, 17)]
    spec = ConservationSpec(const_profile(0.0), linear_profile(1.0))
    if not decays:
        with pytest.raises(NeitherOrientationDecays):
            conservation_residual(samples, 0.5, spec)
        return
    report = conservation_residual(samples, 0.5, spec)
    assert (report.order, report.order_l2) == orders


# ---------------------------------------------------------------------------
# symmetries: linearized residual


def test_linearized_symmetry_on_hodograph_fields():
    samples = _hodograph_samples()
    spec = SymmetrySpec(phase_fn=linear_profile(1.0),
                        radial_fn=poly_profile([0.0, 0.0, 1.0]))
    report = linearized_symmetry_residual(samples, 1.0, spec)
    assert report.order > 1.8
    assert report.passed


def test_linearized_symmetry_angle_control_fails():
    samples = _hodograph_samples()
    base = SymmetrySpec(phase_fn=linear_profile(1.0),
                        radial_fn=poly_profile([0.0, 0.0, 1.0]))
    report = linearized_symmetry_residual(samples, 1.0, AngleSquaredControl(base))
    assert report.order <= 0.5
    assert not report.passed


# ---------------------------------------------------------------------------
# symmetries: commutator


def _random_jets(n=100, seed=2):
    rng = np.random.default_rng(seed)
    return np.column_stack([
        rng.uniform(0.0, 2.0 * math.pi, n),
        rng.uniform(0.5, 1.5, n),
        rng.uniform(-1.0, 1.0, n),
        rng.uniform(-1.0, 1.0, n),
        rng.uniform(-1.0, 1.0, n),
        rng.uniform(-1.0, 1.0, n),
    ])


def test_commutator_vanishes_for_hydrodynamic_symmetry():
    spec = SymmetrySpec(phase_fn=sine_profile(0.4, 1.0),
                        radial_fn=poly_profile([0.3, 0.5, 0.8]))
    worst = commutator_residual(spec, 1.0, _random_jets())
    assert worst <= 1e-10


def test_commutator_randomized_weights():
    rng = np.random.default_rng(9)
    for _ in range(5):
        spec = SymmetrySpec(phase_fn=poly_profile(rng.uniform(-1, 1, 4)),
                            radial_fn=poly_profile(rng.uniform(-1, 1, 4)))
        beta = rng.uniform(0.2, 2.0)
        assert commutator_residual(spec, beta, _random_jets(seed=rng.integers(1 << 30))) <= 1e-10


def test_commutator_detects_perturbed_control():
    base = SymmetrySpec(phase_fn=sine_profile(0.4, 1.0),
                        radial_fn=poly_profile([0.3, 0.5, 0.8]))
    worst = commutator_residual(PerturbedRadialControl(base), 1.0, _random_jets())
    assert worst > 1e-3


def test_commutator_rejects_bad_jets():
    spec = SymmetrySpec(phase_fn=linear_profile(1.0), radial_fn=linear_profile(1.0))
    with pytest.raises(ValueError):
        commutator_residual(spec, 1.0, np.zeros((4, 5)))


# ---------------------------------------------------------------------------
# convergence studies


def _asymptotic_runner(beta, A, prof, end, scheme="muscl_minmod"):
    def run(n):
        grid = Grid1D(n=n, a=0.0, b=2.0 * math.pi)
        U0, V0 = eval_asymptotic_linear(beta, A, prof, 0.0, grid.centers)
        return evolve_asymptotic(beta, grid, StrainState(U0, V0),
                                 SimulationConfig(end=end, scheme=scheme))

    def oracle(tau, X):
        return np.stack(eval_asymptotic_linear(beta, A, prof, X, tau))

    return run, oracle


def test_convergence_study_reports_scheme_order():
    run, oracle = _asymptotic_runner(0.5, 1.0, sine_profile(1.0, 1.0), end=0.5)
    report = convergence_study(run, oracle, [32, 64, 128], order_target=1.0)
    assert len(report.linf) == 3
    assert report.linf[0] > report.linf[-1]
    assert report.order > 1.0
    assert report.passed


def test_convergence_study_order_band():
    run, oracle = _asymptotic_runner(0.5, 1.0, sine_profile(1.0, 1.0), end=0.5,
                                     scheme="lax_friedrichs")
    report = convergence_study(run, oracle, [32, 64, 128],
                               order_target=1.0, order_tol=0.35)
    assert abs(report.order - 1.0) <= 0.35
    assert report.passed
    # with no target any order passes
    untargeted = convergence_study(run, oracle, [32, 64, 128], order_target=None)
    assert untargeted.passed and untargeted.order == report.order


def test_convergence_study_rejects_a_tolerance_without_a_target():
    # a tolerance around no target would pass at any order; the study refuses
    # it before it evolves any level
    evolve, oracle = _asymptotic_runner(0.5, 1.0, sine_profile(1.0, 1.0), end=0.2)
    calls = []

    def run(n):
        calls.append(n)
        return evolve(n)

    with pytest.raises(ValueError, match="order tolerance needs an order target"):
        convergence_study(run, oracle, [32, 64], order_tol=1e-9)
    assert calls == []


def test_convergence_study_oracle_failure():
    run, _ = _asymptotic_runner(0.5, 1.0, sine_profile(1.0, 1.0), end=0.2)

    def bad_oracle(tau, X):
        raise RuntimeError("no reference available")

    with pytest.raises(OracleFailure):
        convergence_study(run, bad_oracle, [32, 64])

    def nan_oracle(tau, X):
        return np.full((2, len(tau)), np.nan)

    with pytest.raises(OracleFailure):
        convergence_study(run, nan_oracle, [32, 64])


def test_convergence_study_rejects_repeated_level():
    run, oracle = _asymptotic_runner(0.5, 1.0, sine_profile(1.0, 1.0), end=0.2)
    with pytest.raises(ValueError, match="must be distinct"):
        convergence_study(run, oracle, [32, 64, 32])
