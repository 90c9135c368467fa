"""Profile builders: values, derivatives, config round-trips."""
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shearwaves.constitutive import poly_modulus
from shearwaves.profiles import (
    ProfileFunction,
    const_profile,
    linear_profile,
    poly_profile,
    profile_from_config,
    sine_profile,
)

S = np.linspace(-3.0, 3.0, 41)


def test_linear_values_and_derivs():
    p = linear_profile(2.5)
    np.testing.assert_allclose(p(S), 2.5 * S)
    np.testing.assert_allclose(p.deriv(S), 2.5)
    np.testing.assert_allclose(p.deriv2(S), 0.0)


def test_sine_derivatives_match_closed_form():
    p = sine_profile(1.3, 2.0, offset=0.4)
    np.testing.assert_allclose(p(S), 1.3 * np.sin(2.0 * S) + 0.4)
    np.testing.assert_allclose(p.deriv(S), 2.6 * np.cos(2.0 * S))
    np.testing.assert_allclose(p.deriv2(S), -5.2 * np.sin(2.0 * S))


def test_poly_matches_horner():
    p = poly_profile([1.0, -2.0, 0.5])
    np.testing.assert_allclose(p(S), 1.0 - 2.0 * S + 0.5 * S**2)
    np.testing.assert_allclose(p.deriv(S), -2.0 + S)
    np.testing.assert_allclose(p.deriv2(S), 0.5 * 2.0)


@pytest.mark.parametrize("build", [poly_profile, poly_modulus])
@pytest.mark.parametrize("coeffs", [[], [[1.0, 2.0]], 2.0])
def test_polynomial_without_a_flat_coefficient_list_is_refused_when_built(build, coeffs):
    with pytest.raises(ValueError, match=r"at least one coefficient, got coeffs = "
                                         + re.escape(repr(coeffs))):
        build(coeffs)


@pytest.mark.parametrize("build", [poly_profile, poly_modulus])
@pytest.mark.parametrize("coeffs", [[0.0, 0.0, 1e308], [0.0, 0.0, 0.0, 4e307]])
def test_polynomial_whose_derivative_overflows_is_refused_when_built(build, coeffs):
    # 2 * 1e308 overflows the first derivative's coefficients, 3 * 4e307 * 2
    # the second's: refused when built, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"a derivative coefficient of coeffs = "
                                                + re.escape(repr(coeffs)) + " is not finite"):
            build(coeffs)


def _polyval_profile(coeffs):
    """The poly profile as it was built on np.polynomial.polynomial.polyval."""
    pv, polyder = np.polynomial.polynomial.polyval, np.polynomial.polynomial.polyder
    c = np.asarray(coeffs, dtype=float)
    dc = polyder(c) if len(c) > 1 else np.array([0.0])
    d2c = polyder(dc) if len(dc) > 1 else np.array([0.0])
    return ProfileFunction(f=lambda s: pv(s, c), df=lambda s: pv(s, dc),
                           d2f=lambda s: pv(s, d2c), name="poly")


def _bits(v):
    """The float64 bits of v, with every NaN the same (its sign and payload are not kept)."""
    v = np.array(v, dtype=float)
    return np.where(np.isnan(v), np.nan, v).view(np.uint64)


SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                           2.2250738585072014e-308, -1e-310])
POINTS = SPECIAL | st.floats(allow_nan=True, allow_infinity=True)
COEFFS = st.lists(st.integers(-3, 3) | SPECIAL | st.floats(-1e3, 1e3), min_size=1, max_size=6)


@given(coeffs=COEFFS, point=POINTS, array=hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=5), elements=POINTS))
@settings(max_examples=300, deadline=None)
def test_poly_is_polyval_bit_for_bit(coeffs, point, array):
    p, ref = poly_profile(coeffs), _polyval_profile(coeffs)
    with np.errstate(all="ignore"):
        for s in (point, np.array(point), array):
            for got, want in ((p(s), ref(s)), (p.deriv(s), ref.deriv(s)),
                              (p.deriv2(s), ref.deriv2(s)), (p.f(s), ref.f(s))):
                assert type(got) is type(want) or np.ndim(got) == np.ndim(want) == 0
                np.testing.assert_array_equal(_bits(got), _bits(want))


def test_const_is_flat():
    p = const_profile(7.0)
    assert p(0.3) == 7.0
    assert p.deriv(0.3) == 0.0
    np.testing.assert_array_equal(p(S), np.full_like(S, 7.0))


def test_scalar_in_scalar_out():
    p = sine_profile(1.0, 1.0)
    assert isinstance(p(0.5), float)
    assert isinstance(p.deriv(0.5), float)
    assert isinstance(poly_profile([2.0])(1.0), float)


def test_missing_derivative_is_a_type_error_naming_it():
    # a profile with df only serves every caller that never asks for f''
    p = ProfileFunction(f=lambda s: s * s, df=lambda s: 2.0 * s, name="square")
    assert p.deriv(1.5) == 3.0
    np.testing.assert_array_equal(p.deriv(S), 2.0 * S)
    with pytest.raises(TypeError, match="profile 'square' has no analytic derivative d2f"):
        p.deriv2(1.5)
    with pytest.raises(TypeError, match="profile 'custom' has no analytic derivative df"):
        ProfileFunction(f=np.sin).deriv(S)


@pytest.mark.parametrize(
    "cfg",
    [
        {"kind": "linear", "k": 1.5},
        {"kind": "sine", "amp": 1.0, "freq": 0.5},
        {"kind": "sine", "amp": 1.0, "freq": 0.5, "offset": -1.0},
        {"kind": "poly", "coeffs": [0.0, 1.0, 2.0]},
        {"kind": "const", "c": 3.0},
    ],
)
def test_config_round_trip(cfg):
    p = profile_from_config(cfg)
    assert p.name == cfg["kind"]
    assert np.all(np.isfinite(p(S)))


def test_unknown_kind_rejected():
    with pytest.raises(KeyError):
        profile_from_config({"kind": "spline"})


def _former_linear_profile(k):
    """linear_profile as it was written out by hand, before it became the poly profile [0, k]."""
    k = float(k)
    return ProfileFunction(
        f=lambda s: k * s,
        df=lambda s: k * np.ones_like(np.asarray(s, dtype=float)),
        d2f=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        name="linear",
    )


# zero, tiny, moderate and huge finite points of both signs, -0.0 among them
EXTREMES = np.array([sign * x for x in (0.0, 5e-324, 1e-300, 2.5, 1e154, 1e308)
                     for sign in (1.0, -1.0)])


@pytest.mark.parametrize("k", [1.0, -2.5, 0.0, -0.0, 5e-324, -1e-300, 1e154, -1e308])
def test_linear_is_the_former_closure_but_for_signed_zeros(k):
    p, ref = linear_profile(k), _former_linear_profile(k)
    assert p.name == "linear"
    with np.errstate(over="ignore"):  # k * s overflows to inf in both
        for s in (*EXTREMES, EXTREMES, EXTREMES.reshape(3, 4)):
            for got, want in ((p(s), ref(s)), (p.deriv(s), ref.deriv(s)),
                              (p.deriv2(s), ref.deriv2(s))):
                assert type(got) is type(want) and np.shape(got) == np.shape(want)
                np.testing.assert_array_equal(got, want)  # bit for bit, but -0.0 == 0.0


def test_linear_follows_polyval_at_signed_zeros_and_infinities():
    # Horner's last step adds the constant coefficient 0, so a k*s of -0.0 comes out
    # +0.0; an infinite s meets s * 0 on the way, so it gives NaN where k*s is infinite
    p, ref = linear_profile(-1.0), _former_linear_profile(-1.0)
    assert np.signbit(ref(0.0)) and not np.signbit(p(0.0))
    for s in (np.inf, -np.inf, np.array([np.inf, -np.inf])):
        with np.errstate(invalid="ignore"):
            assert np.isnan(p(s)).all() and np.isinf(ref(s)).all()
