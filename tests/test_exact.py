"""Exact solution families and their defining identities."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearwaves.constitutive import (
    cubic_modulus,
    power_modulus,
    product_flux,
    ratio_flux,
    sum_squares_flux,
)
from shearwaves.errors import NoConvergence, SingularJacobian
from shearwaves.exact import (
    HODOGRAPH_PASS_MAX_ITER,
    NEWTON_MAX_ITER,
    CarrollWave,
    HodographData,
    _damped_newton,
    _hodograph_continue,
    _hodograph_solve,
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
from shearwaves.profiles import const_profile, linear_profile, poly_profile, sine_profile


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
    assert w.period == pytest.approx(2.0 * math.pi / w.omega)


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


def test_simple_wave_branch_guess():
    beta = 0.4
    prof = sine_profile(0.2, 1.0, offset=1.0)
    r_cont = eval_simple_wave(beta, prof, 0.3, 1.0)
    r_seed = eval_simple_wave(beta, prof, 0.3, 1.0, rho_guess=r_cont + 1e-3)
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
            eval_simple_wave(beta, prof, X[0], t, rho_guess=prof(t))
        except NoConvergence:
            direct_fails += 1
    assert direct_fails > 0
    rho = sample_simple_wave(beta, prof, X, tau)
    np.testing.assert_array_equal(rho[0], [eval_simple_wave(beta, prof, X[0], t) for t in tau])
    np.testing.assert_array_equal(
        rho[1], [eval_simple_wave(beta, prof, X[1], t, rho_guess=r) for t, r in zip(tau, rho[0])])


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
        assert J[0, col] == pytest.approx((Xp - Xm) / (2 * h), rel=2e-6, abs=1e-8)
        assert J[1, col] == pytest.approx((tp - tm) / (2 * h), rel=2e-6, abs=1e-8)


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


# ---------------------------------------------------------------------------
# Newton sweep budgets


def _unit_root_problem(mode):
    """Residual and Newton step of the scalar equations u = 1, one per element.

    The step of a "half" element covers half the distance to the root, an
    "away" element steps away from it, and a "flag" element cannot step.
    """
    mode = np.asarray(mode)

    def residual(u, idx):
        res = u[0] - 1.0
        return [res], np.abs(res)

    def newton_step(u, res, idx):
        return [np.where(mode[idx] == "away", 1.0, -0.5) * res[0]], mode[idx] == "flag"

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


# seeded here, the root (theta, rho) = (0.8, 1.2) of the rho^2 hodograph takes
# more sweeps than an array pass gets, but fewer than the full budget
SLOW_SEED = (0.1, 0.1)


def _slow_hodograph_point():
    hd = HodographData(phase_fn=linear_profile(1.0),
                       radial_fn=poly_profile([0.0, 0.0, 1.0]))
    return hd, *hodograph_forward(hd, 1.0, 0.8, 1.2)


def test_hodograph_pass_budget_stops_a_slow_point():
    hd, X, tau = _slow_hodograph_point()
    _, code = _hodograph_solve(hd, 1.0, X, tau, *SLOW_SEED, check=False,
                               max_iter=HODOGRAPH_PASS_MAX_ITER)
    assert code[0] == 3
    (theta, rho), code = _hodograph_solve(hd, 1.0, X, tau, *SLOW_SEED, check=False,
                                          max_iter=NEWTON_MAX_ITER)
    assert code[0] == 0
    assert theta[0] == pytest.approx(0.8, abs=1e-9)
    assert rho[0] == pytest.approx(1.2, abs=1e-9)


def test_hodograph_continue_marches_a_point_over_the_pass_budget():
    hd, X, tau = _slow_hodograph_point()
    theta, rho, failure = _hodograph_continue(hd, 1.0, np.array([[X]]), np.array([[tau]]),
                                              (np.array([SLOW_SEED[0]]),
                                               np.array([SLOW_SEED[1]])))
    assert failure is None
    assert theta[0, 0] == pytest.approx(0.8, abs=1e-9)
    assert rho[0, 0] == pytest.approx(1.2, abs=1e-9)


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
    # g = 1: phi'' = phi, phi(0) = 1, phi'(0) = 0 -> cosh t
    t = np.linspace(0.0, 1.0, 101)
    sol = eval_separable(lambda s: np.ones_like(np.asarray(s, dtype=float)),
                         1.0, 1.0, 0.0, t, substeps=4)
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


def test_separable_rejects_non_product_flux():
    with pytest.raises(ValueError):
        eval_separable(ratio_flux(), 1.0, 1.0, 0.0, np.linspace(0.0, 1.0, 5))

