"""Moduli, flux families, the nonlinearity coefficient, and level-set solves."""
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearwaves.analysis import construct_temple_flux
from shearwaves.constitutive import (
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
from shearwaves.errors import NoConvergence, NonPositiveModulus
from shearwaves.profiles import (ProfileFunction, linear_profile, poly_profile,
                                 profile_from_config, sine_profile)


# ---------------------------------------------------------------------------
# moduli


def test_mooney_rivlin_is_constant():
    m = mooney_rivlin(2.0, rho=4.0)
    s = np.linspace(0.0, 5.0, 11)
    np.testing.assert_array_equal(eval_Q(m, s), np.full_like(s, 2.0))
    np.testing.assert_array_equal(m.qtilde(s), np.full_like(s, 0.5))
    assert m.q(0.0) == 2.0
    assert m.q.deriv(0.0) == 0.0


def test_cubic_modulus_slope():
    m = cubic_modulus(1.0, 0.5)
    assert m.q(0.0) == 1.0
    assert m.q.deriv(0.0) == 0.5
    assert eval_Q(m, 2.0) == 2.0
    assert m.q.deriv(17.0) == 0.5
    assert m.q.deriv2(17.0) == 0.0


def test_power_modulus_derivative():
    m = power_modulus(2.0, 3.0)
    s = np.linspace(0.0, 2.0, 9)
    np.testing.assert_allclose(m.q.deriv(s), 6.0 * (1.0 + s) ** 2)
    np.testing.assert_allclose(m.q.deriv2(s), 12.0 * (1.0 + s))


def test_poly_modulus_and_config():
    m = modulus_from_config({"kind": "poly", "coeffs": [1.0, 0.0, 0.25], "rho": 2.0})
    assert eval_Q(m, 2.0) == pytest.approx(2.0)
    assert m.rho == 2.0
    assert m.qtilde(2.0) == pytest.approx(1.0)


def test_eval_q_guards():
    m = cubic_modulus(1.0, -1.0)  # goes non-positive at s = 1
    with pytest.raises(NonPositiveModulus):
        eval_Q(m, 2.0)
    with pytest.raises(ValueError):
        eval_Q(m, -0.5)


@pytest.mark.parametrize("s", [2.0, np.array([0.5, 2.0])])
def test_eval_q_error_names_a_plain_float(s):
    with pytest.raises(NonPositiveModulus) as info:
        eval_Q(cubic_modulus(1.0, -0.5), s)
    assert "Q(2.0)" in str(info.value)
    assert "np.float64" not in str(info.value)


def test_eval_q_broadcasts_a_constant_modulus():
    s = np.array([1.0, 2.0])
    with pytest.raises(NonPositiveModulus) as info:
        eval_Q(ShearModulus(ProfileFunction(lambda s: -1.0)), s)
    assert "Q(1.0)" in str(info.value)
    out = eval_Q(ShearModulus(ProfileFunction(lambda s: 1.0)), s)
    assert isinstance(out, np.ndarray)
    np.testing.assert_array_equal(out, [1.0, 1.0])
    assert eval_Q(ShearModulus(ProfileFunction(lambda s: 1.0)), 2.0) == 1.0
    assert isinstance(eval_Q(ShearModulus(ProfileFunction(lambda s: 1.0)), 2.0), float)


def test_eval_q_lets_nan_through_but_flags_the_finite_points():
    m = cubic_modulus(1.0, -0.5)
    assert np.isnan(eval_Q(m, np.array([np.nan, 1.0]))[0])
    with pytest.raises(NonPositiveModulus) as info:
        eval_Q(m, np.array([np.nan, 3.0]))
    assert "Q(3.0)" in str(info.value)
    with pytest.raises(ValueError):
        eval_Q(m, np.array([np.nan, -0.5]))


def test_negative_rho_rejected():
    with pytest.raises(ValueError):
        ShearModulus(ProfileFunction(lambda s: 1.0 + s), rho=-1.0)


# ---------------------------------------------------------------------------
# flux families


U, V = np.meshgrid(np.linspace(0.3, 2.0, 7), np.linspace(0.4, 1.8, 7), indexing="ij")


def _fd(fun, u, v, du, dv, h=1e-6):
    return (fun(u + h * du, v + h * dv) - fun(u - h * du, v - h * dv)) / (2.0 * h)


@pytest.mark.parametrize(
    "f",
    [
        product_flux(),
        ratio_flux(),
        poly_flux([[1.0, 0.5], [0.25, -0.3]]),
        sum_squares_flux(0.7),
        modulus_flux(cubic_modulus(1.0, 0.5)),
    ],
    ids=lambda f: f.name,
)
def test_flux_partials_match_finite_differences(f):
    np.testing.assert_allclose(f.p_u(U, V), _fd(f.p, U, V, 1.0, 0.0), rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(f.p_v(U, V), _fd(f.p, U, V, 0.0, 1.0), rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(f.p_uu(U, V), _fd(f.p_u, U, V, 1.0, 0.0), rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(f.p_uv(U, V), _fd(f.p_u, U, V, 0.0, 1.0), rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(f.p_vv(U, V), _fd(f.p_v, U, V, 0.0, 1.0), rtol=1e-5, atol=1e-5)


def test_missing_partial_is_a_type_error_naming_it():
    # a flux given with first partials only serves every caller that never asks for more
    f = TempleFlux(p=lambda u, v: u * v, pu=lambda u, v: v, pv=lambda u, v: u, name="uv")
    assert (f.p_u(2.0, 3.0), f.p_v(2.0, 3.0)) == (3.0, 2.0)
    for axes in ("uu", "uv", "vv"):
        with pytest.raises(TypeError, match=f"flux 'uv' has no analytic partial p{axes}$"):
            getattr(f, "p_" + axes)(U, V)
    with pytest.raises(TypeError, match="flux 'custom' has no analytic partial pu$"):
        TempleFlux(p=lambda u, v: u * v).p_u(U, V)


def zero_padded_partial_coeffs(c):
    """poly_flux's coefficient arrays as first written: every derivative
    zero-padded back to the shape of c, row by row with np.arange."""
    cu = np.zeros_like(c)
    if c.shape[0] > 1:
        cu[:-1, :] = c[1:, :] * np.arange(1, c.shape[0])[:, None]
    cv = np.zeros_like(c)
    if c.shape[1] > 1:
        cv[:, :-1] = c[:, 1:] * np.arange(1, c.shape[1])[None, :]
    cuu = np.zeros_like(c)
    if c.shape[0] > 1:
        cuu[:-1, :] = cu[1:, :] * np.arange(1, c.shape[0])[:, None]
    cvv = np.zeros_like(c)
    if c.shape[1] > 1:
        cvv[:, :-1] = cv[:, 1:] * np.arange(1, c.shape[1])[None, :]
    cuv = np.zeros_like(c)
    if c.shape[1] > 1:
        cuv[:, :-1] = cu[:, 1:] * np.arange(1, c.shape[1])[None, :]
    return c, cu, cv, cuu, cuv, cvv


def test_poly_flux_partials_match_zero_padded_coefficients_bit_for_bit():
    # polyder drops the top row where the padded arrays keep a zero row; on
    # finite points the values agree to the bit, signed zeros included
    rng = np.random.default_rng(5)
    pv2 = np.polynomial.polynomial.polyval2d
    names = ("p", "p_u", "p_v", "p_uu", "p_uv", "p_vv")
    for _ in range(300):
        shape = tuple(rng.integers(1, 5, size=2))
        c = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        c[rng.random(shape) < 0.3] = 0.0
        c[rng.random(shape) < 0.15] = -0.0
        f = poly_flux(c)
        u, v = rng.normal(scale=3.0, size=(2, 50))
        u[:3], v[:3] = [0.0, -0.0, 1.0], [-0.0, 0.0, -1.0]
        for name, coeffs in zip(names, zero_padded_partial_coeffs(c)):
            for uu, vv in ((u, v), (0.5, -0.0)):
                want, got = pv2(uu, vv, coeffs), getattr(f, name)(uu, vv)
                assert np.array_equal(got, want) and np.shape(got) == np.shape(want), name
                assert np.array_equal(np.signbit(got), np.signbit(want)), name


def polyder_partial_coeffs(c):
    """poly_flux's coefficient arrays as they were built on np.polynomial:
    polyder along each axis, with +0 for a constant's derivative."""
    polyder = np.polynomial.polynomial.polyder
    der = lambda a, axis: polyder(a, axis=axis) if a.shape[axis] > 1 else np.zeros_like(a)
    cu, cv = der(c, 0), der(c, 1)
    return c, cu, cv, der(cu, 0), der(cu, 1), der(cv, 1)


def _bits(x):
    """The float64 bits of x, with every NaN the same."""
    x = np.array(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).view(np.uint64)


def test_poly_flux_is_polyval2d_bit_for_bit():
    # Horner in u over the rows, then in v: polyval2d's own operation order,
    # on arrays and scalars, signed zeros and non-finite points included
    rng = np.random.default_rng(11)
    pv2 = np.polynomial.polynomial.polyval2d
    names = ("p", "p_u", "p_v", "p_uu", "p_uv", "p_vv")
    special = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324, 1e300]
    for _ in range(500):
        shape = tuple(rng.integers(1, 6, size=2))
        c = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        c[rng.random(shape) < 0.2] = 0.0
        c[rng.random(shape) < 0.1] = -0.0
        f = poly_flux(c)
        u, v = rng.normal(scale=3.0, size=(2, 2, 7))
        u.flat[:3], v.flat[:3] = rng.choice(special, 3), rng.choice(special, 3)
        for uu, vv in ((u, v), (float(u[0, 0]), float(v[0, 0])), (float(u[1, 2]), -0.0)):
            for name, coeffs in zip(names, polyder_partial_coeffs(c)):
                with np.errstate(all="ignore"):
                    got, want = getattr(f, name)(uu, vv), pv2(uu, vv, coeffs)
                assert np.shape(got) == np.shape(want), name
                assert np.array_equal(_bits(got), _bits(want)), (name, c, uu, vv)


@pytest.mark.parametrize("shape", [(0, 2), (2, 0), (0, 0)])
def test_poly_flux_without_coefficients_is_refused_at_construction(shape):
    # refused when built, not at its first evaluation
    with pytest.raises(ValueError, match=r"a poly flux needs .* at least one coefficient, "
                                         r"got coeffs = "):
        poly_flux(np.zeros(shape))


def test_poly_flux_with_rows_of_unequal_length_is_refused_at_construction():
    with pytest.raises(ValueError, match=r"a poly flux needs .*, its rows of equal length, .* "
                                         r"got coeffs = \[\[0\.0, 1\.0\], \[1e\+300\]\]$"):
        poly_flux([[0.0, 1.0], [1e300]])


@pytest.mark.parametrize("coeffs", [[[0.0], [0.0], [1e308]], [[0.0, 0.0, 0.0, 4e307]],
                                    [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 6e307]]])
def test_poly_flux_whose_derivative_overflows_is_refused_at_construction(coeffs):
    # j * c[j] overflows in the coefficients of P_u, of P_vv, and of P_uv alone: refused
    # when built, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"a derivative coefficient of coeffs = "
                                                + re.escape(repr(coeffs)) + " is not finite"):
            poly_flux(coeffs)


def _central(g, u, v, axis):
    """Central difference of g along u (axis 0) or v (axis 1), step 1e-6 * max(1, |x|);
    its error is up to about 6e-10 relative on these samples."""
    if axis == 0:
        h = 1e-6 * np.maximum(1.0, np.abs(u))
        return (g(u + h, v) - g(u - h, v)) / (2.0 * h)
    h = 1e-6 * np.maximum(1.0, np.abs(v))
    return (g(u, v + h) - g(u, v - h)) / (2.0 * h)


def _constructed_pair():
    return construct_temple_flux(poly_profile([1.0, 0.5, 0.2]), sine_profile(0.3, 1.0),
                                 linear_profile(0.4), product_flux())


@pytest.mark.parametrize(
    "f",
    [
        modulus_flux(mooney_rivlin(2.0)),
        modulus_flux(cubic_modulus(1.0, 0.4, rho=1.3)),
        modulus_flux(power_modulus(1.1, 2.5)),
        modulus_flux(poly_modulus([1.0, 0.3, 0.1], rho=0.7)),
        _constructed_pair().A,
        _constructed_pair().B,
    ],
    ids=["mooney_rivlin", "cubic", "power", "poly", "pair_A", "pair_B"],
)
def test_analytic_second_partials_match_differences_of_the_analytic_first_partials(f):
    for u, v in ((U, V), (0.83, 1.27)):
        for got, want in ((f.p_uu(u, v), _central(f.pu, u, v, 0)),
                          (f.p_uv(u, v), _central(f.pu, u, v, 1)),
                          (f.p_uv(u, v), _central(f.pv, u, v, 0)),
                          (f.p_vv(u, v), _central(f.pv, u, v, 1))):
            assert np.shape(got) == np.shape(u)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


def test_sum_squares_values():
    f = sum_squares_flux()
    assert f.p(1.0, 2.0) == pytest.approx(5.0)
    assert f.p_u(1.0, 2.0) == pytest.approx(2.0)
    assert f.p_v(1.0, 2.0) == pytest.approx(4.0)


def test_flux_config_kinds():
    for cfg in (
        {"kind": "product"},
        {"kind": "ratio"},
        {"kind": "poly", "coeffs": [[0.0, 1.0]]},
        {"kind": "sum_squares"},
        {"kind": "modulus", "modulus": {"kind": "mooney_rivlin", "mu": 2.0}},
    ):
        f = flux_from_config(cfg)
        assert np.isfinite(f.p(1.0, 1.0))
    with pytest.raises(KeyError):
        flux_from_config({"kind": "exotic"})


@pytest.mark.parametrize("what, from_config, cfg, key", [
    ("profile", profile_from_config, {"kind": "sine", "amp": 1.0}, "freq"),
    ("modulus", modulus_from_config, {"kind": "power", "mu": 1.0}, "n"),
    ("flux", flux_from_config, {"kind": "modulus"}, "modulus"),
])
def test_block_key_errors_name_the_key(what, from_config, cfg, key):
    # the block's keys are its builder's keywords: a missing or an unknown one
    # is Python's TypeError naming it; an unknown kind is a KeyError
    with pytest.raises(TypeError, match=f"missing 1 required .* argument: '{key}'"):
        from_config(cfg)
    with pytest.raises(TypeError, match="unexpected keyword argument 'spare'"):
        from_config({**cfg, key: 1.0, "spare": 1.0})
    with pytest.raises(KeyError, match=f"unknown {what} kind: 'exotic'"):
        from_config({**cfg, "kind": "exotic"})


# ---------------------------------------------------------------------------
# level-set solving


def test_level_set_product_flux_closed_form():
    f = product_flux()
    v = solve_level_set(f, 2.0, 0.5, (0.1, 10.0))
    assert v == pytest.approx(4.0, abs=1e-10)


@given(
    a=st.floats(0.5, 3.0),
    u=st.floats(0.3, 2.0),
)
@settings(max_examples=100, deadline=None)
def test_level_set_round_trip(a, u):
    f = sum_squares_flux()
    # solvable iff a > u^2; shrink a toward the solvable range
    target = u * u + a
    v = solve_level_set(f, target, u, (1e-8, 10.0))
    assert abs(f.p(u, v) - target) <= 1e-12 * max(1.0, abs(target))


@pytest.mark.parametrize("flux, level, u", [
    pytest.param(sum_squares_flux, 100.0, 0.5, id="same-sign"),
    # P(0, 0) = 0/0: a NaN at a bracket end is no sign change either
    pytest.param(ratio_flux, 1.0, 0.0, id="nan-end"),
])
def test_level_set_requires_sign_change(flux, level, u):
    with np.errstate(invalid="ignore"), pytest.raises(NoConvergence, match="no sign change"):
        solve_level_set(flux(), level, u, (0.0, 1.0))


def test_level_set_array_matches_scalar_solves():
    # P = u/v from the bracket midpoint v = 5: the first Newton step lands
    # at 10 - 50/u, outside the bracket for u < 5, so those elements bisect
    # while the others take Newton steps
    f = ratio_flux()
    u = np.linspace(0.5, 8.0, 16).reshape(4, 4)
    v = solve_level_set(f, 2.0, u, (1e-8, 10.0))
    assert v.shape == u.shape
    scalar = [solve_level_set(f, 2.0, float(x), (1e-8, 10.0)) for x in u.ravel()]
    assert all(isinstance(x, float) for x in scalar)
    np.testing.assert_array_equal(v.ravel(), scalar)
    np.testing.assert_allclose(v, u / 2.0, rtol=1e-12)
