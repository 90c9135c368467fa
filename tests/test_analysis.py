"""Eigenstructure, classification flags, and compatibility."""
import collections
import math
import warnings

import numpy as np
import pytest

from shearwaves import analysis
from shearwaves.analysis import (
    classify,
    compatibility_residuals,
    construct_temple_flux,
    temple_eigen,
)
from shearwaves.constitutive import (
    TempleFlux,
    cubic_modulus,
    modulus_flux,
    mooney_rivlin,
    poly_flux,
    poly_modulus,
    power_modulus,
    product_flux,
    ratio_flux,
    sum_squares_flux,
)
from shearwaves.errors import SingularJacobian
from shearwaves.profiles import const_profile, linear_profile, poly_profile, sine_profile


def _lattice(lo=0.5, hi=1.5, n=5):
    g = np.linspace(lo, hi, n)
    uu, vv = np.meshgrid(g, g, indexing="ij")
    return np.column_stack([uu.ravel(), vv.ravel()])


# ---------------------------------------------------------------------------
# eigenstructure


def test_eigen_sum_squares_reference_point():
    rep = temple_eigen(sum_squares_flux(), 1.0, 1.0)
    assert rep.lambda1 == pytest.approx(6.0)
    assert rep.lambda2 == pytest.approx(2.0)
    assert rep.d1 == pytest.approx((1.0, 1.0))
    assert rep.d2 == pytest.approx((1.0, -1.0))
    assert rep.grad1_dot_d1 == pytest.approx(12.0)
    assert abs(rep.grad2_dot_d2) < 1e-14


def test_eigen_ratio_flux_speeds_coincide():
    rep = temple_eigen(ratio_flux(), 1.0, 2.0)
    assert rep.lambda1 == pytest.approx(0.5)
    assert rep.lambda2 == pytest.approx(0.5)


def test_eigen_degenerate_directions():
    with pytest.raises(SingularJacobian, match="d2 undefined"):
        temple_eigen(modulus_flux(mooney_rivlin(2.0)), 1.0, 1.0)  # P_v = 0
    # P = u^2 + v^2 keeps P_v = 2v away from zero on the axis u = 0
    with pytest.raises(SingularJacobian, match=r"d1 = \(1, v/u\) undefined") as info:
        temple_eigen(sum_squares_flux(), [[1.0, 0.0], [0.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]])
    # the first failing state in row-major order
    assert info.value.coordinate == (0.0, 2.0)
    assert "at (u, v) = (0.0, 2.0)" in str(info.value)


def test_eigen_refuses_states_outside_the_flux_domain():
    # v^2 underflows to 0 at v = 1e-300, so the ratio flux's P_v, P_uv and P_vv
    # are not finite there; that is refused, without a numpy warning, ahead of
    # the earlier state (0, 1), where u = 0 and P_v = 0
    u, v = [[0.0, 1.0], [0.5, 1.0]], [[1.0, 1.0], [1e-300, 1.0]]
    for args, point in [((u, v), (0.5, 1e-300)), ((0.5, 1e-300), (0.5, 1e-300))]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularJacobian, match="P or a partial of P is not finite") as info:
                temple_eigen(ratio_flux(), *args)
        assert info.value.coordinate == point


@pytest.mark.parametrize("coeffs, point", [
    # P = 1e308 v: grad1 = (0, 2e308) overflows everywhere, lambda1 = 2e308 v where v > 0.9
    ([[0.0, 1e308]], (1.0, 0.5)),
    # P = 6e307 v: lambda1 and grad1 stay finite, grad1_dot_d1 = 1.2e308 v/u
    # overflows only where v/u > 1.5, first at the second state
    ([[0.0, 6e307]], (0.5, 1.0)),
], ids=["grad1", "grad1_dot_d1"])
def test_eigen_refuses_an_overflowing_lambda1(coeffs, point):
    u, v = [[1.0, 0.5], [0.5, 1.0]], [[0.5, 1.0], [1.0, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularJacobian, match="lambda1 or its gradient is not finite") as info:
            temple_eigen(poly_flux(coeffs), u, v)
    assert info.value.coordinate == point
    assert f"at (u, v) = {point}" in str(info.value)


@pytest.mark.parametrize("flux", [product_flux(), ratio_flux(), sum_squares_flux()],
                         ids=["product", "ratio", "sum_squares"])
def test_eigen_array_matches_scalar_calls(flux):
    pts = _lattice(0.4, 1.8, 7)
    rep = temple_eigen(flux, pts[:, 0], pts[:, 1])
    for i, (u, v) in enumerate(pts):
        one = temple_eigen(flux, u, v)
        for name in ("u", "v", "lambda1", "lambda2", "grad1_dot_d1", "grad2_dot_d2"):
            assert isinstance(getattr(one, name), float)
            assert getattr(one, name) == getattr(rep, name)[i]
        assert one.d1 == (rep.d1[0][i], rep.d1[1][i])
        assert one.d2 == (rep.d2[0][i], rep.d2[1][i])


def test_eigen_report_keeps_the_partials_it_evaluated():
    f = poly_flux([[0.5, 0.2, 0.1], [0.3, 0.4, 0.0], [0.7, 0.0, 0.0]])
    pts = _lattice(0.4, 1.8, 7)
    u, v = pts[:, 0], pts[:, 1]
    rep = temple_eigen(f, u, v)
    want = (f.p_u(u, v), f.p_v(u, v), f.p_uu(u, v), f.p_uv(u, v), f.p_vv(u, v))
    assert len(rep.partials) == 5
    for got, expected in zip(rep.partials, want):
        assert np.array_equal(got, expected)
    one = temple_eigen(f, 0.9, 1.1)
    assert [float(p) for p in one.partials] == [float(g(0.9, 1.1)) for g in
                                                 (f.p_u, f.p_v, f.p_uu, f.p_uv, f.p_vv)]


def test_classify_goes_through_temple_eigen(monkeypatch):
    # one eigen analysis, looked up in the module, so a wrapper there sees it
    calls = []
    original = analysis.temple_eigen

    def spy(f, u, v):
        calls.append(len(u))
        return original(f, u, v)

    monkeypatch.setattr(analysis, "temple_eigen", spy)
    classify(product_flux(), _lattice())
    assert calls == [25]


def test_exceptionality_identity_randomized():
    rng = np.random.default_rng(11)
    fluxes = [
        product_flux(),
        ratio_flux(),
        poly_flux([[0.5, 0.2], [0.3, 0.4]]),
        sum_squares_flux(1.3),
        modulus_flux(cubic_modulus(1.0, 0.5)),
    ]
    for f in fluxes:
        for _ in range(200):
            u = rng.uniform(0.3, 2.0)
            v = rng.uniform(0.3, 2.0)
            rep = temple_eigen(f, u, v)
            scale = max(1.0, abs(rep.lambda2))
            assert abs(rep.grad2_dot_d2) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# classification


def test_classify_product_flux():
    rep = classify(product_flux(), _lattice())
    assert rep.hamiltonian is True
    assert rep.equal_eigenvalues is False
    assert rep.completely_exceptional is False
    assert rep.decouples is True
    assert rep.n_samples == 25


def test_classify_ratio_flux_exceptional():
    rep = classify(ratio_flux(), _lattice())
    assert rep.equal_eigenvalues is True
    assert rep.completely_exceptional is True
    # the default chart alpha = P is itself a function of u/v; the change of
    # variables degenerates and the decoupling flag stays open
    assert rep.decouples is None


def test_classify_sum_squares_not_hamiltonian():
    rep = classify(sum_squares_flux(), _lattice())
    assert rep.hamiltonian is False
    assert rep.residuals["hamiltonian"] > 1e-4


def test_classify_explicit_singular_chart_raises():
    chart = ratio_flux()
    with pytest.raises(SingularJacobian, match="change of variables is singular"):
        classify(ratio_flux(), _lattice(), alpha=chart)


def test_classify_chart_that_overflows():
    # alpha = 1e300 u (or P = 1e290 v + 1e300 u as the default chart): at
    # v = 1e-10 the chart's alpha_u u / v^2 overflows, where it used to read as
    # a singular change of variables; the explicit chart is refused, the
    # default one leaves the decoupling flag indeterminate, both without a warning
    samples = [(1.0, 1.0), (0.5, 1e-10), (1.0, 1e-10)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularJacobian, match=r"\(alpha, u/v\) chart is not finite") as info:
            classify(product_flux(), samples, alpha=poly_flux([[0.0], [1e300]]))
        assert info.value.coordinate == (0.5, 1e-10)
        rep = classify(poly_flux([[0.0, 1e290], [1e300, 0.0]]), samples)
    assert rep.decouples is None and math.isnan(rep.residuals["decouples"])


def test_decoupling_residual_that_overflows_is_refused():
    # the chart is regular at both samples, but at the second the residual's
    # alpha_uu u = 4e308 overflows
    one = np.ones(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularJacobian, match=r"\(alpha, u/v\) chart is not finite") as info:
            analysis._decoupling_residual(np.array([1.0, 4.0]), one, one, one,
                                          np.full(2, 1e308), 0.0 * one, 0.0 * one)
    assert info.value.coordinate == (4.0, 1.0)


@pytest.mark.parametrize("m", [cubic_modulus(1.0, 0.5), power_modulus(1.0, 1.5),
                               poly_modulus([1.0, 0.5, 0.2])], ids=lambda m: m.q.name)
def test_classify_modulus_flux_decouples_to_rounding(m):
    # P = Q(u^2 + v^2) is a function of one chart variable, so it decouples
    # exactly; on the samples of scripts/configs/classify.json its analytic
    # second partials leave a residual of rounding size (1.4e-14 for power),
    # where second partials differenced with a step of 1e-6 left up to 3.3e-9
    rep = classify(modulus_flux(m), _lattice(0.5, 2.0, 21))
    assert (rep.equal_eigenvalues, rep.completely_exceptional, rep.hamiltonian,
            rep.decouples) == (False, False, False, True)
    assert rep.residuals["decouples"] <= 1e-12


def test_classify_rejects_axis_samples():
    with pytest.raises(SingularJacobian, match="axis u = 0 or v = 0"):
        classify(product_flux(), [(0.0, 1.0)])


@pytest.fixture
def partial_calls(monkeypatch):
    """Counts of TempleFlux._partial calls, keyed by (flux name, axes)."""
    calls = collections.Counter()
    partial = TempleFlux._partial

    def spy(self, axes, u, v):
        calls[self.name, axes] += 1
        return partial(self, axes, u, v)

    monkeypatch.setattr(TempleFlux, "_partial", spy)
    return calls


def test_classify_evaluates_each_partial_once(partial_calls):
    every = ("u", "v", "uu", "uv", "vv")
    # the product flux's own chart is regular, so its decoupling residual runs
    classify(product_flux(), _lattice())
    assert dict(partial_calls) == {("product", axes): 1 for axes in every}
    partial_calls.clear()
    classify(product_flux(), _lattice(), alpha=sum_squares_flux())
    assert dict(partial_calls) == {**{("product", axes): 1 for axes in every},
                                   **{("sum_squares", axes): 1 for axes in every}}


# ---------------------------------------------------------------------------
# compatibility residuals


def _field(fun, fu, fv):
    return TempleFlux(p=fun, pu=fu, pv=fv)


def test_compatibility_linear_pair_is_exact():
    A = _field(lambda u, v: u, lambda u, v: 1.0 + 0.0 * u, lambda u, v: 0.0 * u)
    B = _field(lambda u, v: v, lambda u, v: 0.0 * u, lambda u, v: 1.0 + 0.0 * u)
    phi = _field(lambda u, v: u * v, lambda u, v: v, lambda u, v: u)
    g4, g5 = compatibility_residuals(A, B, phi, [1.0, 1.5], [2.0, 0.7])
    np.testing.assert_allclose(g4, 0.0, atol=1e-14)
    assert g5 == pytest.approx(0.0, abs=1e-14)


def test_compatibility_squares_reference_value():
    # A = u^2, B = v^2 against the line phi = u + v: the residual at (1, 2)
    # is (A_u - B_v) = 2u - 2v = -2
    A = _field(lambda u, v: u**2, lambda u, v: 2.0 * u, lambda u, v: 0.0 * u)
    B = _field(lambda u, v: v**2, lambda u, v: 0.0 * u, lambda u, v: 2.0 * v)
    phi = _field(lambda u, v: u + v, lambda u, v: 1.0 + 0.0 * u, lambda u, v: 1.0 + 0.0 * u)
    g4, _ = compatibility_residuals(A, B, phi, 1.0, 2.0)
    assert g4 == pytest.approx(-2.0)


def test_compatibility_degenerate_constraint():
    A = _field(lambda u, v: u, lambda u, v: 1.0, lambda u, v: 0.0)
    phi = _field(lambda u, v: u, lambda u, v: 1.0, lambda u, v: 0.0)  # phi_v = 0
    with pytest.raises(SingularJacobian, match="not a v-graph") as info:
        compatibility_residuals(A, A, phi, [2.0, 1.0], 1.0)
    assert info.value.coordinate == (2.0, 1.0)


def test_constructed_pair_passes_compatibility():
    phi = _field(lambda u, v: u * u + v * v, lambda u, v: 2.0 * u, lambda u, v: 2.0 * v)
    ident = linear_profile(1.0)
    pair = construct_temple_flux(ident, ident, ident, phi)
    pts = _lattice(0.4, 1.8, 7)
    g4, _ = compatibility_residuals(pair.A, pair.B, pair.phi, pts[:, 0], pts[:, 1])
    assert np.max(np.abs(g4)) <= 1e-10


def test_constructed_pair_randomized_weights():
    rng = np.random.default_rng(3)
    phi = _field(lambda u, v: u * v, lambda u, v: v, lambda u, v: u)
    for _ in range(5):
        H = poly_profile(rng.uniform(-1.0, 1.0, size=3))
        Phi = poly_profile(rng.uniform(-1.0, 1.0, size=3))
        Psi = poly_profile(rng.uniform(-1.0, 1.0, size=3))
        pair = construct_temple_flux(H, Phi, Psi, phi)
        u = rng.uniform(0.3, 2.0, size=100)
        v = rng.uniform(0.3, 2.0, size=100)
        g4, _ = compatibility_residuals(pair.A, pair.B, pair.phi, u, v)
        assert np.max(np.abs(g4)) <= 1e-10


def test_constructed_pair_with_large_weights_builds():
    # g4 cancels identically; at weights of 1e6 its rounding alone is about
    # 5e-10, so an absolute bound of 1e-10 would reject this correct pair
    H, Phi = linear_profile(1e6), sine_profile(1e6, 1.0)
    pair = construct_temple_flux(H, Phi, const_profile(0.0), product_flux())
    pts = _lattice(0.6, 1.4, 5)
    u, v = pts[:, 0], pts[:, 1]
    g4, _ = compatibility_residuals(pair.A, pair.B, pair.phi, u, v)
    Au, Av, Bu, Bv = (getattr(f, "p_" + axis)(u, v) for f in (pair.A, pair.B) for axis in "uv")
    # phi = u v: phi_u = v, phi_v = u
    scale = np.abs(Bu * u * u) + np.abs((Au - Bv) * v * u) + np.abs(Av * v * v)
    assert np.all(np.abs(g4) <= 1e-14 * scale)


def test_constructed_pair_evaluates_each_phi_partial_once_per_call(partial_calls):
    phi = TempleFlux(p=lambda u, v: u * v, pu=lambda u, v: v, pv=lambda u, v: u,
                     puu=lambda u, v: 0.0 * u, puv=lambda u, v: 1.0 + 0.0 * u,
                     pvv=lambda u, v: 0.0 * u, name="phi")
    H, Phi, Psi = poly_profile([1.0, 0.5]), poly_profile([0.0, 0.3]), poly_profile([0.2, 0.1])
    pair = construct_temple_flux(H, Phi, Psi, phi)
    u, v = np.array([0.7, 1.3]), np.array([0.9, 1.1])
    partial_calls.clear()
    for field in (pair.A, pair.B):
        field.p_u(u, v)
        field.p_v(u, v)
    assert partial_calls["phi", "u"] == partial_calls["phi", "v"] == 2
    # the chain rule for A = H(phi) u + Phi(phi)
    s = u * v
    np.testing.assert_allclose(pair.A.p_u(u, v), H.deriv(s) * v * u + Phi.deriv(s) * v + H(s),
                               rtol=1e-8)
    np.testing.assert_allclose(pair.A.p_v(u, v), H.deriv(s) * u * u + Phi.deriv(s) * u,
                               rtol=1e-8)
    # a second partial reads phi_a, phi_b and phi_ab once each, and phi_u once for A_uu
    partial_calls.clear()
    second = {axes: getattr(pair.A, "p_" + axes)(u, v) for axes in ("uu", "uv", "vv")}
    assert {axes: n for (name, axes), n in partial_calls.items() if name == "phi"} == {
        "u": 2, "v": 2, "uu": 1, "uv": 1, "vv": 1}
    # A = u + 0.5 u^2 v + 0.3 u v
    np.testing.assert_allclose(second["uu"], v, rtol=1e-14)
    np.testing.assert_allclose(second["uv"], u + 0.3, rtol=1e-14)
    np.testing.assert_allclose(second["vv"], 0.0, atol=1e-14)
