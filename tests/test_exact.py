"""Exact solution families and their defining identities."""
import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearwaves import exact
from shearwaves.constitutive import (
    cubic_modulus,
    poly_flux,
    power_modulus,
    product_flux,
    ratio_flux,
    sum_squares_flux,
)
from shearwaves.errors import NoConvergence, SingularJacobian
from shearwaves.exact import (
    HODOGRAPH_PASS_MAX_ITER,
    NEWTON_MAX_ITER,
    SIMPLE_WAVE_FAILURES,
    CarrollWave,
    HodographData,
    _damped_newton,
    _hodograph_solve,
    _raise_first_failure,
    _simple_wave_solve,
    _track_branch,
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
from shearwaves.profiles import (
    ProfileFunction,
    const_profile,
    linear_profile,
    poly_profile,
    profile_from_config,
    sine_profile,
)

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


# ---------------------------------------------------------------------------
# circularly polarized waves


def test_dispersion_reference_values():
    m = cubic_modulus(1.0, 0.5)
    assert carroll_dispersion(m, 1.0, 1.0) == pytest.approx(math.sqrt(1.5), rel=1e-15)
    # k = 3, Q(A^2) = 1 + 0.5/2 = 1.25
    assert carroll_dispersion(m, math.sqrt(0.5), 3.0) == pytest.approx(
        3.0 * math.sqrt(1.25), rel=1e-15
    )


def test_dispersion_scales_with_density():
    m4 = cubic_modulus(1.0, 0.5, rho=4.0)
    m1 = cubic_modulus(1.0, 0.5, rho=1.0)
    assert carroll_dispersion(m4, 1.0, 1.0) == pytest.approx(
        0.5 * carroll_dispersion(m1, 1.0, 1.0)
    )


def test_wave_constructor_enforces_dispersion():
    m = cubic_modulus(1.0, 0.5)
    with pytest.raises(ValueError):
        CarrollWave(m, amplitude=1.0, wavenumber=1.0, omega=1.0)  # should be sqrt(1.5)
    w = CarrollWave.from_modulus(m, 1.0, 2.0)
    assert w.speed == pytest.approx(math.sqrt(1.5))


def test_carroll_amplitude_invariant():
    m = power_modulus(2.0, 1.5)
    w = CarrollWave.from_modulus(m, 0.7, 2.0)
    x = np.linspace(-5.0, 5.0, 101)
    U, V = carroll_full_state(w, x, 0.3)[:2]
    np.testing.assert_allclose(U * U + V * V, 0.49, rtol=1e-14)


def test_full_state_velocity_proportionality():
    m = cubic_modulus(1.0, 0.5)
    w = CarrollWave.from_modulus(m, 1.0, 1.0)
    x = np.linspace(0.0, 2.0 * math.pi, 33)
    U, V, M, N = carroll_full_state(w, x, 0.7)
    np.testing.assert_allclose(M, -w.speed * U, rtol=1e-14)
    np.testing.assert_allclose(N, -w.speed * V, rtol=1e-14)


def test_full_state_satisfies_field_equations():
    # centered differences of all four first-order equations, two resolutions
    m = cubic_modulus(1.0, 0.5)
    w = CarrollWave.from_modulus(m, 1.0, 1.0)

    def residual(n):
        x = np.linspace(0.0, 1.0, n)
        t = np.linspace(0.0, 1.0, n)
        h = x[1] - x[0]
        T, X = np.meshgrid(t, x, indexing="ij")
        U, V, M, N = carroll_full_state(w, X, T)
        s = U * U + V * V
        qt = m.qtilde(s)
        dt_ = lambda a: (a[2:, 1:-1] - a[:-2, 1:-1]) / (2 * h)
        dx_ = lambda a: (a[1:-1, 2:] - a[1:-1, :-2]) / (2 * h)
        r = [
            dt_(U) - dx_(M),
            dt_(V) - dx_(N),
            dt_(M) - dx_(qt * U),
            dt_(N) - dx_(qt * V),
        ]
        return max(float(np.max(np.abs(ri))) for ri in r)

    r1, r2 = residual(65), residual(129)
    assert r1 < 2e-3
    assert r2 < r1 / 3.2  # about second order


def test_generalized_reduces_to_carroll():
    m = cubic_modulus(1.0, 0.5)
    w = CarrollWave.from_modulus(m, 1.0, 2.0)
    x = np.linspace(-1.0, 1.0, 17)
    t = 0.37
    U0, V0 = carroll_full_state(w, x, t)[:2]
    U1, V1 = generalized_carroll_full_state(m, 1.0, linear_profile(2.0), x, t, direction=-1)[:2]
    np.testing.assert_allclose(U1, U0, atol=1e-14)
    np.testing.assert_allclose(V1, V0, atol=1e-14)


def test_generalized_constant_amplitude_any_profile():
    m = power_modulus(1.0, 2.0)
    prof = sine_profile(2.0, 0.7)
    x = np.linspace(-3.0, 3.0, 41)
    for t in (0.0, 0.5, 2.0):
        U, V, M, N = generalized_carroll_full_state(m, 1.3, prof, x, t, direction=1)
        np.testing.assert_allclose(U * U + V * V, 1.69, rtol=1e-14)
        c = math.sqrt(m.qtilde(1.69))
        np.testing.assert_allclose(M, c * U, rtol=1e-13)


def test_asymptotic_linear_phase_transport():
    prof = linear_profile(1.0)
    beta, A = 0.5, 1.2
    tau = np.linspace(0.0, 3.0, 7)
    U0, V0 = eval_asymptotic_linear(beta, A, prof, 0.0, tau)
    # the same phase pattern reappears shifted by -beta*A^2*dX after dX
    dX = 2.0
    U1, V1 = eval_asymptotic_linear(beta, A, prof, dX, tau - beta * A * A * dX)
    np.testing.assert_allclose(U1, U0, atol=1e-14)
    np.testing.assert_allclose(V1, V0, atol=1e-14)


def test_polar_conversions_round_trip():
    rng = np.random.default_rng(7)
    U = rng.normal(size=50)
    V = rng.normal(size=50)
    rho, theta = strain_to_polar(U, V)
    np.testing.assert_allclose(rho * np.cos(theta), U, atol=1e-14)
    np.testing.assert_allclose(rho * np.sin(theta), V, atol=1e-14)


# ---------------------------------------------------------------------------
# simple wave


def test_simple_wave_constant_profile_is_exact():
    prof = const_profile(1.3)
    assert eval_simple_wave(0.8, prof, 5.0, -2.0) == pytest.approx(1.3, abs=1e-12)


def test_simple_wave_implicit_residual():
    beta = 0.4
    prof = sine_profile(0.2, 1.0, offset=1.0)
    X = np.linspace(0.0, 0.5, 6)
    tau = np.linspace(0.0, 2.0 * math.pi, 11)
    rho = sample_simple_wave(beta, prof, X, tau)
    assert rho.shape == (6, 11)
    for i, Xi in enumerate(X):
        arg = tau - 3.0 * beta * Xi * rho[i] ** 2
        np.testing.assert_allclose(rho[i], prof(arg), atol=1e-11)


def simple_wave_from(beta, prof, X, tau, rho_guess):
    """The simple-wave root at one point (X, tau) by Newton from rho_guess, with no
    branch tracking; a failure raises as sample_simple_wave's would."""
    X, tau = np.array([float(X)]), np.array([float(tau)])
    rho, code = _simple_wave_solve(beta, prof, X, tau, np.array([float(rho_guess)]))
    _raise_first_failure(code, SIMPLE_WAVE_FAILURES, X, tau)
    return float(rho[0])


def test_simple_wave_branch_guess():
    beta = 0.4
    prof = sine_profile(0.2, 1.0, offset=1.0)
    r_cont = eval_simple_wave(beta, prof, 0.3, 1.0)
    r_seed = simple_wave_from(beta, prof, 0.3, 1.0, rho_guess=r_cont + 1e-3)
    assert r_seed == pytest.approx(r_cont, abs=1e-9)


def test_simple_wave_branch_tracking_matches_point_view():
    # at X = 1.5 Newton started from Phi(tau) fails on some tau, so the first
    # row needs branch-tracking substeps
    beta, X = 0.5, np.array([1.5, 1.55])
    prof = sine_profile(0.5, 2.0, offset=1.0)
    tau = np.linspace(0.0, 2.0 * math.pi, 9)
    direct_fails = 0
    for t in tau:
        try:
            simple_wave_from(beta, prof, X[0], t, rho_guess=prof(t))
        except NoConvergence:
            direct_fails += 1
    assert direct_fails > 0
    rho = sample_simple_wave(beta, prof, X, tau)
    np.testing.assert_array_equal(rho[0], [eval_simple_wave(beta, prof, X[0], t) for t in tau])
    np.testing.assert_array_equal(
        rho[1], [simple_wave_from(beta, prof, X[1], t, rho_guess=r) for t, r in zip(tau, rho[0])])


def test_simple_wave_pde_after_sign_flip():
    # the implicit family built with -beta satisfies rho_X = 3 beta rho^2 rho_tau
    beta = 0.5
    prof = sine_profile(0.1, 1.0, offset=1.0)

    def residual(n):
        X = np.linspace(0.0, 0.4, n)
        tau = np.linspace(0.0, 2.0 * math.pi, n)
        rho = sample_simple_wave(-beta, prof, X, tau)
        hX = X[1] - X[0]
        ht = tau[1] - tau[0]
        rX = (rho[2:, 1:-1] - rho[:-2, 1:-1]) / (2 * hX)
        rt = (rho[1:-1, 2:] - rho[1:-1, :-2]) / (2 * ht)
        mid = rho[1:-1, 1:-1]
        return float(np.max(np.abs(rX - 3.0 * beta * mid**2 * rt)))

    r1, r2 = residual(33), residual(65)
    assert r2 < r1 / 3.0


def _simple_wave_march(beta, profile, X, tau):
    """The row-by-row march over sample_simple_wave's seed graph.

    Row 0 is tracked from rho = Phi(tau) by _track_branch when its X is not
    0, and each later row is one _simple_wave_solve from the row before.
    Returns rho, or the error of the first failing point.
    """
    def solve(x, seed):
        row, code = _simple_wave_solve(beta, profile, x, tau, seed)
        _raise_first_failure(code, SIMPLE_WAVE_FAILURES, np.full(len(tau), x), tau)
        return row

    rho = np.empty((len(X), len(tau)))
    try:
        for i, x in enumerate(X):
            if i:
                rho[i] = solve(x, rho[i - 1])
            elif x != 0.0:
                rho[0] = _track_branch(beta, profile, x, tau)
            else:
                rho[0] = solve(x, profile(tau))
    except NoConvergence as exc:
        return exc
    return rho


def _simple_wave_cases(n=200, seed=2):
    """Random sine profiles, signs of beta and rectangles around breaking.

    x_star = 1 / (6 |beta| amp freq (offset + amp)) bounds 1 + 6 beta X rho
    Phi' away from 0 for |X| < x_star.  A rectangle has 1 to 7 rows, starting
    at X = 0 in about a third of the cases and elsewhere in (-0.8, 0.8)
    x_star, and spans up to 2 x_star either way, so that many run past
    breaking and some of those fail.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        beta = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.5)
        amp, freq, offset = rng.uniform(0.1, 0.6), rng.uniform(0.5, 2.0), rng.uniform(0.8, 1.5)
        x_star = 1.0 / (6.0 * abs(beta) * amp * freq * (offset + amp))
        X0 = 0.0 if rng.random() < 0.35 else rng.uniform(-0.8, 0.8) * x_star
        X = X0 + np.linspace(0.0, rng.uniform(-2.0, 2.0) * x_star, rng.integers(1, 8))
        tau0 = rng.uniform(0.0, 2.0 * math.pi)
        tau = np.linspace(tau0, tau0 + rng.uniform(0.5, 2.0 * math.pi), rng.integers(1, 10))
        cases.append((beta, sine_profile(amp, freq, offset), X, tau))
    return cases


SIMPLE_WAVE_CASES = _simple_wave_cases()


def _assert_same_outcome(got, ref, k):
    """The same error type, coordinate and message, or values within 1e-12."""
    if isinstance(ref, Exception):
        assert isinstance(got, Exception), (k, ref)
        assert type(got) is type(ref), (k, ref, got)
        assert got.coordinate == ref.coordinate, (k, ref, got)
        assert str(got) == str(ref), (k, ref, got)
    else:
        assert not isinstance(got, Exception), (k, got)
        assert np.max(np.abs(np.subtract(got, ref)), initial=0.0) <= 1e-12, k


def _sample_or_error(sampler, *args):
    try:
        return sampler(*args)
    except (NoConvergence, SingularJacobian) as exc:
        return exc


def test_sample_simple_wave_matches_reference_march():
    failed = 0
    for k, (beta, prof, X, tau) in enumerate(SIMPLE_WAVE_CASES):
        ref = _simple_wave_march(beta, prof, X, tau)
        failed += isinstance(ref, Exception)
        _assert_same_outcome(_sample_or_error(sample_simple_wave, beta, prof, X, tau), ref, k)
    assert 0 < failed < len(SIMPLE_WAVE_CASES)
    # first rows at X = 0 and away from it, on both sides
    firsts = [X[0] for _, _, X, _ in SIMPLE_WAVE_CASES]
    assert min(firsts) < 0.0 < max(firsts) and 0.0 in firsts


@pytest.mark.parametrize("X", [[0.0], [0.3], [-0.2], [0.0, 0.1, 0.2, 0.3], [0.3, 0.2, 0.1]],
                         ids=["1x_at_0", "1x_off_0", "1x_negative", "rows_from_0", "rows_off_0"])
@pytest.mark.parametrize("n_tau", [1, 7])
def test_sample_simple_wave_degenerate_rectangles(X, n_tau):
    beta, prof = 0.4, sine_profile(0.5, 2.0, offset=1.0)
    tau = np.linspace(0.3, 5.0, n_tau)
    ref = _simple_wave_march(beta, prof, np.array(X), tau)
    _assert_same_outcome(_sample_or_error(sample_simple_wave, beta, prof, X, tau), ref, X)


def test_simple_wave_beta_overflow_raises_overflow_error():
    # 3 beta X is inf * 0 = NaN on the row X = 0, whose answer is Phi(tau)
    with pytest.raises(OverflowError, match="3 beta X"):
        sample_simple_wave(1e308, sine_profile(0.2, 1.0, offset=1.0), [0.0, 0.1], [0.0, 1.0])


# ---------------------------------------------------------------------------
# hodograph family


def test_hodograph_forward_closed_form():
    # phase weight identically zero, radial weight r(rho) = rho:
    # X = -1/(2 beta rho), tau = -rho/2
    hd = HodographData(phase_fn=const_profile(0.0), radial_fn=linear_profile(1.0))
    beta = 0.7
    for rho in (0.5, 1.0, 2.0):
        X, tau = hodograph_forward(hd, beta, 0.3, rho)
        assert X == pytest.approx(-1.0 / (2.0 * beta * rho), rel=1e-14)
        assert tau == pytest.approx(-0.5 * rho, rel=1e-14)


def test_hodograph_forward_rejects_zero_rho():
    hd = HodographData(phase_fn=linear_profile(1.0), radial_fn=linear_profile(1.0))
    with pytest.raises(ZeroDivisionError):
        hodograph_forward(hd, 1.0, 0.0, 0.0)


def test_hodograph_jacobian_matches_finite_differences():
    hd = HodographData(phase_fn=sine_profile(0.5, 1.0),
                       radial_fn=poly_profile([0.0, 0.0, 1.0]))
    beta, theta, rho = 0.9, 0.4, 1.1
    J = hodograph_jacobian(hd, beta, theta, rho)
    h = 1e-6
    for col, (dth, drh) in enumerate([(h, 0.0), (0.0, h)]):
        Xp, tp = hodograph_forward(hd, beta, theta + dth, rho + drh)
        Xm, tm = hodograph_forward(hd, beta, theta - dth, rho - drh)
        assert J[0][col] == pytest.approx((Xp - Xm) / (2 * h), rel=2e-6, abs=1e-8)
        assert J[1][col] == pytest.approx((tp - tm) / (2 * h), rel=2e-6, abs=1e-8)


@given(
    theta=st.floats(0.2, 2.0),
    rho=st.floats(0.6, 1.6),
)
@settings(max_examples=100, deadline=None)
def test_hodograph_invert_round_trip(theta, rho):
    hd = HodographData(phase_fn=linear_profile(1.0),
                       radial_fn=poly_profile([0.0, 0.0, 1.0]))
    beta = 1.0
    X, tau = hodograph_forward(hd, beta, theta, rho)
    sol = hodograph_invert(hd, beta, X, tau, seed=(theta + 0.05, rho - 0.03))
    Xr, taur = hodograph_forward(hd, beta, sol.theta, sol.rho)
    assert abs(Xr - X) <= 1e-10
    assert abs(taur - tau) <= 1e-10


def test_hodograph_invert_exact_point_recovery():
    hd = HodographData(phase_fn=linear_profile(1.0),
                       radial_fn=poly_profile([0.0, 0.0, 1.0]))
    X, tau = hodograph_forward(hd, 1.0, 0.8, 1.2)
    sol = hodograph_invert(hd, 1.0, X, tau, seed=(0.8, 1.2))
    assert sol.theta == pytest.approx(0.8, abs=1e-12)
    assert sol.rho == pytest.approx(1.2, abs=1e-12)


@pytest.mark.parametrize("beta, seed", [(0.0, (0.5, 1.0)), (1.0, (0.5, 0.0))])
def test_hodograph_invert_rejects_undefined_map(beta, seed):
    hd = HodographData(phase_fn=linear_profile(1.0),
                       radial_fn=poly_profile([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="beta != 0"):
        hodograph_invert(hd, beta, -0.5, -1.5, seed=seed)


def test_hodograph_fold_raises():
    # with phase weight s(theta) = theta and radial weight rho^2 the Jacobian
    # determinant is proportional to theta: seeding on theta = 0 sits exactly
    # on the fold line
    hd = HodographData(phase_fn=linear_profile(1.0),
                       radial_fn=poly_profile([0.0, 0.0, 1.0]))
    with pytest.raises(SingularJacobian):
        hodograph_invert(hd, 1.0, -3.0, 4.0, seed=(0.0, 1.0))


def test_sample_hodograph_pinned_values():
    # corners and centre of scripts/configs/hodograph.json, as sampled by the
    # point-by-point solver this one replaced
    hd = HodographData(phase_fn=linear_profile(1.0),
                       radial_fn=poly_profile([0.0, 0.0, 1.0]))
    X = np.linspace(-0.55, -0.45, 65)
    tau = np.linspace(-1.7, -1.3, 65)
    rho, theta = sample_hodograph(hd, 1.0, X, tau, seed=(0.5, 1.0))
    pinned = {
        (0, 0): (1.1221672153371889, 1.2717895107188977),
        (0, 64): (0.9813067628806141, 0.8504658611913934),
        (64, 0): (1.015038437831025, 1.150376896208495),
        (64, 64): (0.8876253645581599, 0.7692753159759081),
        (32, 32): (0.9999999999742731, 0.999999999992994),
    }
    for (i, j), (r, th) in pinned.items():
        assert abs(rho[i, j] - r) <= 1e-13
        assert abs(theta[i, j] - th) <= 1e-13


def test_sample_hodograph_grid_orientation():
    hd = HodographData(phase_fn=linear_profile(1.0),
                       radial_fn=poly_profile([0.0, 0.0, 1.0]))
    X = np.linspace(-0.55, -0.45, 4)
    tau = np.linspace(-1.6, -1.4, 5)
    rho, theta = sample_hodograph(hd, 1.0, X, tau, seed=(0.5, 1.0))
    assert rho.shape == (4, 5)
    # every grid node maps back onto its coordinates
    for i in range(4):
        for j in range(5):
            Xr, taur = hodograph_forward(hd, 1.0, theta[i, j], rho[i, j])
            assert abs(Xr - X[i]) <= 1e-9
            assert abs(taur - tau[j]) <= 1e-9


def _march_reference(hd, beta, X, tau, seed):
    """The point-by-point march over sample_hodograph's seed graph.

    (i, 0) is solved from (i-1, 0), starting at seed, and (i, j) from
    (i, j-1), in row-major order.  Returns (rho, theta), or the error of the
    first failing point.
    """
    rho = np.empty((len(X), len(tau)))
    theta = np.empty_like(rho)
    for i, x in enumerate(X):
        for j, t in enumerate(tau):
            if j:
                start = (theta[i, j - 1], rho[i, j - 1])
            else:
                start = (theta[i - 1, 0], rho[i - 1, 0]) if i else seed
            try:
                rho[i, j], theta[i, j] = hodograph_invert(hd, beta, x, t, seed=start)
            except (NoConvergence, SingularJacobian) as exc:
                return exc
    return rho, theta


def _hodograph_cases(n=200, seed=1):
    """Random rectangles, seeds, phase slopes and radial cubics.

    Each rectangle starts next to the image of its seed and spans up to 0.5
    in X and 1.5 in tau, so about a third of them run into a fold or off the
    map's image, and a few send a point seeded from the first column onto
    another branch.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        beta = rng.uniform(0.5, 1.5)
        hd = HodographData(phase_fn=linear_profile(rng.uniform(0.5, 2.0)),
                           radial_fn=poly_profile([0.0, rng.uniform(-0.5, 0.5), 1.0,
                                                   rng.uniform(-0.5, 0.5)]))
        theta0, rho0 = rng.uniform(-1.0, 1.5), rng.uniform(0.6, 1.5)
        X0, tau0 = hodograph_forward(hd, beta, theta0 + 0.05, rho0 - 0.05)
        X = X0 + np.linspace(0.0, rng.uniform(-0.5, 0.5), rng.integers(2, 7))
        tau = tau0 + np.linspace(0.0, rng.uniform(-1.5, 1.5), rng.integers(2, 7))
        cases.append((hd, beta, X, tau, (theta0, rho0)))
    return cases


HODOGRAPH_CASES = _hodograph_cases()


def test_sample_hodograph_matches_reference_march():
    failed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, (hd, beta, X, tau, seed) in enumerate(HODOGRAPH_CASES):
            ref = _march_reference(hd, beta, X, tau, seed)
            try:
                got = sample_hodograph(hd, beta, X, tau, seed)
            except (NoConvergence, SingularJacobian) as exc:
                got = exc
            if isinstance(ref, Exception):
                failed += 1
                assert isinstance(got, Exception), (k, ref)
                assert type(got) is type(ref), (k, ref, got)
                assert got.coordinate == ref.coordinate, (k, ref, got)
            else:
                assert not isinstance(got, Exception), (k, got)
                assert np.max(np.abs(np.subtract(got, ref))) <= 1e-12, k
    assert 0 < failed < len(HODOGRAPH_CASES)


def test_sample_hodograph_marches_past_a_branch_jump():
    # in case 52 every point converges from either seed, but seeded from the
    # first column, (0, 4) and (0, 5) land on the branch with rho < 0; a solve
    # of (0, 5) seeded from that (0, 4) stays there, so only the march is right
    hd, beta, X, tau, seed = HODOGRAPH_CASES[52]
    rho, theta = _march_reference(hd, beta, X, tau, seed)
    jumps = []
    for i in range(len(X)):
        for j in range(1, len(tau)):
            sol = hodograph_invert(hd, beta, X[i], tau[j], seed=(theta[i, 0], rho[i, 0]))
            jumps.append(max(abs(sol.theta - theta[i, j]), abs(sol.rho - rho[i, j])))
    assert max(jumps) > 1.0
    off = hodograph_invert(hd, beta, X[0], tau[4], seed=(theta[0, 0], rho[0, 0]))
    off = hodograph_invert(hd, beta, X[0], tau[5], seed=(off.theta, off.rho))
    assert off.rho < 0.0 < rho[0, 5]
    got_rho, got_theta = sample_hodograph(hd, beta, X, tau, seed)
    assert np.max(np.abs(got_rho - rho)) <= 1e-12
    assert np.max(np.abs(got_theta - theta)) <= 1e-12


HODOGRAPH_FAMILY = HodographData(phase_fn=linear_profile(1.0),
                                  radial_fn=poly_profile([0.0, 0.0, 1.0]))


@pytest.mark.parametrize("nX, ntau", [(1, 1), (1, 6), (6, 1)])
def test_sample_hodograph_degenerate_rectangles(nX, ntau):
    # the window of scripts/configs/hodograph.json, one row, one column or both
    X = np.linspace(-0.55, -0.45, nX)
    tau = np.linspace(-1.7, -1.3, ntau)
    ref = _march_reference(HODOGRAPH_FAMILY, 1.0, X, tau, (0.5, 1.0))
    got = _sample_or_error(sample_hodograph, HODOGRAPH_FAMILY, 1.0, X, tau, (0.5, 1.0))
    _assert_same_outcome(got, ref, (nX, ntau))
    # the first point is one damped Newton from the seed at the full budget
    (theta, rho), code = _hodograph_solve(HODOGRAPH_FAMILY, 1.0, X[0], tau[0], 0.5, 1.0)
    assert code[0] == 0
    assert (got.rho[0, 0], got.theta[0, 0]) == (rho[0], theta[0])


def _count_hodograph_solves(monkeypatch):
    """Record the sweep budget of every _hodograph_solve call from here on."""
    budgets = []

    def counted(*args, max_iter):
        budgets.append(max_iter)
        return _hodograph_solve(*args, max_iter=max_iter)

    monkeypatch.setattr(exact, "_hodograph_solve", counted)
    return budgets


@pytest.mark.parametrize("nX, ntau", [(1, 1), (1, 5), (5, 1), (5, 5)])
def test_sample_hodograph_seed_on_a_fold_fails_at_the_first_point(monkeypatch, nX, ntau):
    # the fold job of the benchmark: det J vanishes at the seed theta = 0, and
    # the one array solve of column 0 from the seed is the march's own there
    X = np.linspace(-1.1, -0.9, nX)
    tau = np.linspace(-0.1, 0.1, ntau)
    ref = _march_reference(HODOGRAPH_FAMILY, 1.0, X, tau, (0.0, 1.0))
    budgets = _count_hodograph_solves(monkeypatch)
    got = _sample_or_error(sample_hodograph, HODOGRAPH_FAMILY, 1.0, X, tau, (0.0, 1.0))
    assert isinstance(got, SingularJacobian)
    assert got.coordinate == (X[0], tau[0])
    _assert_same_outcome(got, ref, (nX, ntau))
    assert budgets == [NEWTON_MAX_ITER]


# ---------------------------------------------------------------------------
# Newton sweep budgets


def _unit_root_problem(mode):
    """Residual and Newton step of the scalar equations u = 1, one per element.

    The step of a "half" element covers half the distance to the root, an
    "away" element steps away from it, an "over" element steps to 3 times
    its distance on the other side (so only a quarter step lowers its
    residual), and a "flag" element cannot step.
    """
    mode = np.asarray(mode)

    def residual(u, idx):
        res = u[0] - 1.0
        return [res], np.abs(res)

    def newton_step(u, res, idx):
        factor = np.select([mode[idx] == "away", mode[idx] == "over"], [1.0, -4.0], -0.5)
        return [factor * res[0]], mode[idx] == "flag"

    return residual, newton_step


def test_damped_newton_codes_each_element_on_its_own():
    residual, newton_step = _unit_root_problem(["half", "flag", "away", "half"])
    (u,), code = _damped_newton(residual, newton_step, [[1.0, 0.0, 0.0, 0.0]], 1e-9,
                                max_iter=10)
    np.testing.assert_array_equal(code, [0, 1, 2, 3])
    np.testing.assert_array_equal(u, [1.0, 0.0, 0.0, 1.0 - 2.0**-10])


@pytest.mark.parametrize("max_iter", [1, HODOGRAPH_PASS_MAX_ITER])
def test_damped_newton_takes_max_iter_sweeps(max_iter):
    residual, newton_step = _unit_root_problem(["half"])
    (u,), code = _damped_newton(residual, newton_step, [[0.0]], 1e-9, max_iter=max_iter)
    assert code[0] == 3
    assert u[0] == 1.0 - 2.0**-max_iter


def test_damped_newton_last_sweep_reaching_tol_converges():
    # 30 half steps from 0 leave |u - 1| = 2^-30 = 9.3e-10, under tol
    residual, newton_step = _unit_root_problem(["half"])
    (u,), code = _damped_newton(residual, newton_step, [[0.0]], 1e-9, max_iter=30)
    assert code[0] == 0
    assert u[0] == 1.0 - 2.0**-30


def test_damped_newton_default_budget_converges_a_slow_element():
    residual, newton_step = _unit_root_problem(["half"])
    (u,), code = _damped_newton(residual, newton_step, [[0.0]], 1e-9)
    assert code[0] == 0
    assert abs(u[0] - 1.0) <= 1e-9


def _damped_newton_reference(residual, newton_step, unknowns, tol, max_iter=NEWTON_MAX_ITER):
    """The array damped Newton as it was before it packed its active set.

    Transcribed unchanged: every sweep gathers the unknowns and residuals of
    the active elements from the full arrays, and every trial scatters its
    winners back into them.  _damped_newton must reproduce its unknowns bit
    for bit, its codes, and its calls of residual and newton_step.
    """
    u = [np.array(a, dtype=float) for a in unknowns]
    act = np.arange(u[0].size)
    res, err = residual(u, act)
    code = np.zeros(act.size, dtype=int)
    for _ in range(max_iter):
        act = act[~(err[act] <= tol)]
        if act.size == 0:
            return u, code
        step, code[act] = newton_step([a[act] for a in u], [r[act] for r in res], act)
        ok = code[act] == 0
        act, step = act[ok], [s[ok] for s in step]
        left, lam = np.arange(act.size), 1.0
        for _h in range(exact.NEWTON_MAX_HALVINGS + 1):
            idx = act[left]
            trial = [a[idx] + lam * s[left] for a, s in zip(u, step)]
            res_t, err_t = residual(trial, idx)
            won = err_t < err[idx]
            for old, new in zip(u + res + [err], trial + res_t + [err_t]):
                old[idx[won]] = new[won]
            left, lam = left[~won], 0.5 * lam
            if left.size == 0:
                break
        code[act[left]] = 2
        act = act[code[act] == 0]
    code[act[~(err[act] <= tol)]] = 3
    return u, code


def _counted(fn, calls):
    """fn, appending the size of its last positional argument to calls on each call."""
    def wrapper(*args, **kwargs):
        calls.append(np.size(args[-1]))
        return fn(*args, **kwargs)
    return wrapper


def _same_bits(got, ref):
    return [np.asarray(a).tobytes() for a in got] == [np.asarray(a).tobytes() for a in ref]


def _engines_agree(residual, newton_step, unknowns, tol, max_iter):
    """Run both engines; require the same bits, codes and call sequences."""
    runs = []
    for engine in (_damped_newton, _damped_newton_reference):
        calls_r, calls_n = [], []
        u, code = engine(_counted(residual, calls_r), _counted(newton_step, calls_n),
                         unknowns, tol, max_iter)
        runs.append((u, code, calls_r, calls_n))
    (u, code, *calls), (u_ref, code_ref, *calls_ref) = runs
    assert _same_bits(u, u_ref)
    np.testing.assert_array_equal(code, code_ref)
    assert calls == calls_ref
    return code


@pytest.mark.parametrize("max_iter", [1, 10, 100])
def test_packed_newton_matches_the_reference_on_unit_roots(max_iter):
    rng = np.random.default_rng(max_iter)
    codes = []
    for n in rng.integers(1, 60, size=40):
        mode = rng.choice(["half", "flag", "away", "over"], size=n,
                          p=rng.dirichlet(np.ones(4)))
        # distances from the root of 1e-12 to 1e3, some none, some NaN
        start = 1.0 + rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 3, n)
        start[rng.random(n) < 0.1] = 1.0
        start[rng.random(n) < 0.05] = np.nan
        residual, newton_step = _unit_root_problem(mode)
        codes.append(_engines_agree(residual, newton_step, [start], 1e-9, max_iter))
    # every outcome occurs: converged, flagged, damping exhausted, out of sweeps
    assert set(np.concatenate(codes)) == ({0, 1, 2} if max_iter == 100 else {0, 1, 2, 3})


def _hodograph_engine_cases(rng):
    """Every fourth case of HODOGRAPH_CASES as one array solve, each point
    seeded at its own perturbation of the case's seed, and one mix on
    HODOGRAPH_FAMILY of points seeded at their root, on the fold theta = 0
    or near their root."""
    for hd, beta, X, tau, (theta0, rho0) in HODOGRAPH_CASES[::4]:
        X, tau = (a.ravel() for a in np.meshgrid(X, tau, indexing="ij"))
        perturb = 10.0 ** rng.uniform(-3, 0)
        rho = rho0 + perturb * rng.standard_normal(X.size)
        yield (hd, beta, X, tau, theta0 + perturb * rng.standard_normal(X.size),
               np.where(rho == 0.0, rho0, rho))
    theta, rho = rng.uniform(0.3, 1.5, 60), rng.uniform(0.6, 1.5, 60)
    X, tau = hodograph_forward(HODOGRAPH_FAMILY, 1.0, theta, rho)
    kind = np.arange(60) % 3
    yield (HODOGRAPH_FAMILY, 1.0, X, tau,
           np.choose(kind, [theta, 0.0, theta + rng.normal(0.0, 0.3, 60)]),
           np.choose(kind, [rho, rho, rho + rng.normal(0.0, 0.1, 60)]))


@pytest.mark.parametrize("max_iter", [1, 10, 100])
def test_packed_newton_matches_the_reference_on_hodograph_solves(monkeypatch, max_iter):
    codes = []
    for k, case in enumerate(_hodograph_engine_cases(np.random.default_rng(max_iter))):
        out = []
        for engine in (_damped_newton, _damped_newton_reference):
            monkeypatch.setattr(exact, "_damped_newton", engine)
            calls = []
            monkeypatch.setattr(exact, "hodograph_forward", _counted(hodograph_forward, calls))
            monkeypatch.setattr(exact, "hodograph_jacobian", _counted(hodograph_jacobian, calls))
            with np.errstate(all="ignore"):
                out.append((*_hodograph_solve(*case, max_iter=max_iter), calls))
        (u, code, calls), (u_ref, code_ref, calls_ref) = out
        assert _same_bits(u, u_ref), k
        np.testing.assert_array_equal(code, code_ref)
        assert calls == calls_ref, k
        codes.append(code)
    # in one sweep, no damping runs out
    assert set(np.concatenate(codes)) == ({0, 1, 3} if max_iter == 1 else {0, 1, 2, 3})


# seeded here, the root (theta, rho) = (0.8, 1.2) of the rho^2 hodograph takes
# more sweeps than an array pass gets, but fewer than the full budget
SLOW_SEED = (0.1, 0.1)


def _slow_hodograph_point():
    hd = HodographData(phase_fn=linear_profile(1.0),
                       radial_fn=poly_profile([0.0, 0.0, 1.0]))
    return hd, *hodograph_forward(hd, 1.0, 0.8, 1.2)


def test_hodograph_pass_budget_stops_a_slow_point():
    hd, X, tau = _slow_hodograph_point()
    _, code = _hodograph_solve(hd, 1.0, X, tau, *SLOW_SEED, max_iter=HODOGRAPH_PASS_MAX_ITER)
    assert code[0] == 3
    (theta, rho), code = _hodograph_solve(hd, 1.0, X, tau, *SLOW_SEED, max_iter=NEWTON_MAX_ITER)
    assert code[0] == 0
    assert theta[0] == pytest.approx(0.8, abs=1e-9)
    assert rho[0] == pytest.approx(1.2, abs=1e-9)


def test_sample_hodograph_solves_a_slow_first_point_at_the_full_budget():
    hd, X, tau = _slow_hodograph_point()
    rho, theta = sample_hodograph(hd, 1.0, [X], [tau], SLOW_SEED)
    assert theta[0, 0] == pytest.approx(0.8, abs=1e-9)
    assert rho[0, 0] == pytest.approx(1.2, abs=1e-9)


def test_sample_hodograph_from_a_slow_seed_marches_nothing(monkeypatch):
    # from SLOW_SEED the first point of this window takes more sweeps than a
    # pass gets; pass 1 solves column 0 from the seed at the full budget, so
    # no chain fails and the rectangle costs its three array solves
    X = np.linspace(-0.55, -0.45, 6)
    tau = np.linspace(-1.7, -1.3, 6)
    ref = _march_reference(HODOGRAPH_FAMILY, 1.0, X, tau, SLOW_SEED)
    budgets = _count_hodograph_solves(monkeypatch)
    got = sample_hodograph(HODOGRAPH_FAMILY, 1.0, X, tau, SLOW_SEED)
    assert budgets == [NEWTON_MAX_ITER, HODOGRAPH_PASS_MAX_ITER, HODOGRAPH_PASS_MAX_ITER]
    _assert_same_outcome(got, ref, "slow seed")


def _counting_profile(profile, counts, label):
    """profile, counting the calls of its f, df and d2f under label + name."""
    def counted(name):
        fn = getattr(profile, name)

        def wrapper(s):
            counts[label + name] = counts.get(label + name, 0) + 1
            return fn(s)
        return wrapper
    return dataclasses.replace(profile, **{name: counted(name) for name in ("f", "df", "d2f")})


def test_sample_hodograph_calls_the_forward_map_through_the_module(monkeypatch):
    # the traced benchmark counts Newton sweeps and forward evaluations by
    # wrapping these two module attributes; on the shipped window the solver
    # makes the same calls as the solver before its active set was packed
    config = json.loads((CONFIGS / "hodograph.json").read_text())
    forward, jacobian = [], []
    monkeypatch.setattr(exact, "hodograph_forward", _counted(hodograph_forward, forward))
    monkeypatch.setattr(exact, "hodograph_jacobian", _counted(hodograph_jacobian, jacobian))
    counts = {}
    hd = HodographData(_counting_profile(profile_from_config(config["phase"]), counts, "s."),
                       _counting_profile(profile_from_config(config["radial"]), counts, "r."))
    X, tau = (np.linspace(config[a]["min"], config[a]["max"], config[a]["n"]) for a in ("X", "tau"))
    sample_hodograph(hd, config["beta"], X, tau, config["seed"])
    assert (len(forward), len(jacobian)) == (14, 11)
    # each sweep evaluates each profile quantity once: the Jacobian takes
    # s(theta) and r'(rho) from the forward call at its iterate, so it
    # evaluates only s'(theta) and r''(rho)
    assert counts == {"s.f": 14, "r.f": 14, "r.df": 14, "s.df": 11, "r.d2f": 11}


def test_hodograph_solve_spreads_a_scalar_profile_value_over_the_points():
    # r'(rho) = 0.5 returned as a scalar rides in res beside the iterate as
    # an array, so the solve matches the one with an array-valued r'
    radial = ProfileFunction(lambda r: 0.5 * r, df=lambda r: 0.5, d2f=lambda r: 0.0)
    rng = np.random.default_rng(7)
    theta, rho = rng.uniform(0.3, 1.5, 20), rng.uniform(0.6, 1.5, 20)
    out = []
    for hd in (HodographData(linear_profile(1.0), radial),
               HodographData(linear_profile(1.0), linear_profile(0.5))):
        X, tau = hodograph_forward(hd, 1.0, theta, rho)
        out.append(_hodograph_solve(hd, 1.0, X, tau, theta + 0.05, rho - 0.05))
    (u, code), (u_ref, code_ref) = out
    assert _same_bits(u, u_ref)
    np.testing.assert_array_equal(code, code_ref)
    assert not code.any()


# ---------------------------------------------------------------------------
# level-set waves


def test_overdetermined_sum_squares_circle():
    f = sum_squares_flux()
    prof = sine_profile(0.5, 1.0)
    x = np.linspace(0.0, 6.0, 25)
    U, V = eval_overdetermined(f, 2.0, prof, x, 0.3, v_bracket=(1e-8, 10.0))
    np.testing.assert_allclose(U * U + V * V, 2.0, rtol=1e-12)
    np.testing.assert_allclose(U, prof(x + math.sqrt(2.0) * 0.3), atol=1e-14)


def test_overdetermined_product_flux_hyperbola():
    f = product_flux()
    prof = sine_profile(0.3, 1.0, offset=1.0)  # keep U away from 0
    U, V = eval_overdetermined(f, 2.0, prof, np.linspace(0.0, 3.0, 11), 0.0,
                               direction=-1)
    np.testing.assert_allclose(U * V, 2.0, rtol=1e-12)


def test_overdetermined_rejects_bad_level():
    with pytest.raises(ValueError):
        eval_overdetermined(product_flux(), -1.0, const_profile(1.0), 0.0, 0.0)


# ---------------------------------------------------------------------------
# separable solutions


def test_separable_linear_material_is_cosh():
    # P = 1: phi'' = phi, phi(0) = 1, phi'(0) = 0 -> cosh t
    t = np.linspace(0.0, 1.0, 101)
    sol = eval_separable(poly_flux([[1.0]]), 1.0, 1.0, 0.0, t, substeps=4)
    assert sol.phi[-1] == pytest.approx(math.cosh(1.0), abs=1e-8)
    assert sol.dphi[-1] == pytest.approx(math.sinh(1.0), abs=1e-8)


def test_separable_zero_wavenumber_free_motion():
    t = np.linspace(0.0, 2.0, 21)
    sol = eval_separable(product_flux(), 0.0, 0.5, 0.25, t)
    np.testing.assert_allclose(sol.phi, 0.5 + 0.25 * t, atol=1e-13)


def test_separable_field_assembly():
    t = np.linspace(0.0, 0.5, 11)
    x = np.linspace(-1.0, 1.0, 9)
    sol = eval_separable(product_flux(), 0.8, 1.0, 0.0, t)
    u = sol.u_field(x)
    v = sol.v_field(x)
    assert u.shape == (11, 9)
    np.testing.assert_allclose(u * v, (sol.phi**2)[:, None] * np.ones_like(x), rtol=1e-13)


def test_separable_first_integral_drift():
    t = np.linspace(0.0, 1.0, 201)
    sol = eval_separable(product_flux(), 1.0, 1.0, 0.0, t, substeps=2)
    E = sol.first_integral(lambda y: y**2 / 2.0)  # W' = g for g(y) = y
    assert np.max(np.abs(E - E[0])) < 1e-8


@pytest.mark.parametrize("flux", [ratio_flux(), sum_squares_flux()], ids=lambda f: f.name)
def test_separable_rejects_non_product_flux(flux):
    # the fixed sample pairs refuse both, and the message names the flux
    with pytest.raises(ValueError, match=rf"^flux '{flux.name}' is not of product form: "):
        eval_separable(flux, 1.0, 1.0, 0.0, np.linspace(0.0, 1.0, 5))

