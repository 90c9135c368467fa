"""The finite-volume kernel: pinned trajectories and coefficient evaluations per step.

The reference values in data/fv_kernel_reference.json were recorded with the
earlier kernel, which evaluated flux and wave speed through separate
closures.  Their initial data use sin and cos, whose last bits depend on the
host, so they are compared to 1e-13.  Regenerate them with
``PYTHONPATH=src python tests/test_fv_kernel.py`` only when a change to the
schemes is meant to move the trajectories.

A transcription of that earlier kernel (separate flux and flux_speed
closures, three coefficient evaluations per MUSCL step, dt set outside the
steppers) is kept below as a second reference: on any host the kernel must
reproduce it bit for bit, errors included.  Its scalar law writes the cube
as (w * w) * w, as the kernel now does; the earlier w**3 is kept too, and
the kernel stays within rounding of it.
"""
import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearwaves.constitutive import ShearModulus, cubic_modulus, eval_Q
from shearwaves.errors import (
    BlowupDetected,
    HyperbolicityLoss,
    NoConvergence,
    NonPositiveModulus,
    ShearWaveError,
)
from shearwaves.exact import CarrollWave, FullState, StrainState, carroll_full_state
from shearwaves.profiles import ProfileFunction, derivative
from shearwaves.simulate import (
    STEP_FLOOR_FACTOR,
    STEPPERS,
    Grid1D,
    SimulationConfig,
    cfl_step,
    evolve_asymptotic,
    evolve_full,
    evolve_scalar,
)

TWO_PI = 2.0 * math.pi
REFERENCE = Path(__file__).parent / "data" / "fv_kernel_reference.json"
CASES = [(system, scheme, boundary)
         for system in ("full", "asymptotic", "scalar")
         for scheme in ("lax_friedrichs", "muscl_minmod")
         for boundary in ("periodic", "outflow")]


def run_case(system, scheme, boundary):
    """A few dozen steps of one system; each start has a jump so the limiter acts."""
    if system == "full":
        grid = Grid1D(n=32, a=0.0, b=TWO_PI, boundary=boundary)
        x = grid.centers
        m = cubic_modulus(1.0, 0.4)
        U, V, M, N = carroll_full_state(CarrollWave.from_modulus(m, 0.7, 1.0), x, 0.0)
        init = FullState(U + 0.2 * (x > 3.0), V, M, N)
        return evolve_full(m, grid, init, SimulationConfig(end=1.5, scheme=scheme))
    if system == "asymptotic":
        grid = Grid1D(n=48, a=0.0, b=TWO_PI, boundary=boundary)
        x = grid.centers
        init = StrainState(0.5 + 0.3 * np.sin(x), 0.3 * np.cos(2.0 * x) + 0.1 * (x > 2.0))
        return evolve_asymptotic(0.8, grid, init,
                                 SimulationConfig(end=0.8, scheme=scheme, blowup_factor=1e6))
    grid = Grid1D(n=64, a=0.0, b=TWO_PI, boundary=boundary)
    rho0 = 0.6 + 0.4 * np.sin(grid.centers)
    return evolve_scalar(-1.0, grid, rho0, SimulationConfig(end=0.3, scheme=scheme))


def _key(case):
    return "-".join(case)


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("case", CASES, ids=_key)
def test_trajectory_matches_recorded_reference(case, reference):
    ref = reference[_key(case)]
    tr = run_case(*case)
    assert 20 <= len(tr.step_coords) <= 60
    for name, got in (("final", tr.final), ("step_max_speed", tr.step_max_speed)):
        want = np.array(ref[name])
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max(),
                                   err_msg=name)


@pytest.mark.parametrize("scheme, analytic_dq, per_step", [
    pytest.param("lax_friedrichs", True, 1, id="lax_friedrichs-1"),
    pytest.param("muscl_minmod", True, 2, id="muscl_minmod-2"),
    pytest.param("lax_friedrichs", False, 3, id="lax_friedrichs-fd-3"),
    pytest.param("muscl_minmod", False, 6, id="muscl_minmod-fd-6"),
])
def test_modulus_evaluations_per_step(scheme, analytic_dq, per_step):
    # LF: once on the cells; MUSCL: the cells with the stacked predictor
    # faces, then the stacked interface states.  Without dq each Q' is a
    # central difference, two more Q calls wherever wave speeds are bounded
    # (the cells, and for MUSCL the interface states); rho = 1.3 takes the
    # divide in Qt = Q/rho and the 1.2 speed safety factor.
    calls = []

    def q(s):
        calls.append(np.shape(s))
        return 1.0 + 0.4 * s

    if analytic_dq:
        m = ShearModulus(ProfileFunction(q, df=lambda s: 0.4 * np.ones_like(s)))
    else:
        m = ShearModulus(ProfileFunction(q), rho=1.3)
    grid = Grid1D(n=32, a=0.0, b=TWO_PI)
    init = FullState(*carroll_full_state(CarrollWave.from_modulus(m, 0.5, 1.0), grid.centers, 0.0))
    calls.clear()
    tr = evolve_full(m, grid, init, SimulationConfig(end=0.5, scheme=scheme))
    assert len(tr.step_coords) > 0
    assert len(calls) == per_step * len(tr.step_coords)


# ---------------------------------------------------------------------------
# the earlier kernel, transcribed operation for operation


def ref_pad(w, ng, boundary):
    if boundary == "periodic":
        return np.concatenate([w[:, -ng:], w, w[:, :ng]], axis=1)
    left = np.repeat(w[:, :1], ng, axis=1)
    right = np.repeat(w[:, -1:], ng, axis=1)
    return np.concatenate([left, w, right], axis=1)


def ref_minmod(a, b):
    return np.where(a * b <= 0.0, 0.0, np.where(np.abs(a) < np.abs(b), a, b))


def ref_rusanov(w, f, c, left, right):
    alpha = np.maximum(c[:, left], c[:, right])
    return 0.5 * (f[:, left] + f[:, right]) - 0.5 * alpha * (w[:, right] - w[:, left])


def ref_step_lf(w, f, c, dt, h, boundary, law):
    wp, fp, cp = (ref_pad(x, 1, boundary) for x in (w, f, c))
    F = ref_rusanov(wp, fp, cp, np.s_[:-1], np.s_[1:])
    return w - (dt / h) * (F[:, 1:] - F[:, :-1])


def ref_step_muscl(w, f, c, dt, h, boundary, law):
    wp = ref_pad(w, 2, boundary)
    dm = wp[:, 1:-1] - wp[:, :-2]
    dp = wp[:, 2:] - wp[:, 1:-1]
    slope = ref_minmod(dm, dp)
    wc = wp[:, 1:-1]
    wl = wc - 0.5 * slope
    wr = wc + 0.5 * slope
    m = wc.shape[1]
    fr_fl = law["flux"](np.concatenate([wr, wl], axis=1))
    shift = -(dt / (2.0 * h)) * (fr_fl[:, :m] - fr_fl[:, m:])
    wl = wl + shift
    wr = wr + shift
    k = m - 1
    ab = np.concatenate([wr[:, :-1], wl[:, 1:]], axis=1)
    f_ab, c_ab = law["flux_speed"](ab)
    F = ref_rusanov(ab, f_ab, c_ab, np.s_[:k], np.s_[k:])
    return w - (dt / h) * (F[:, 1:] - F[:, :-1])


def ref_max_gradient(w, h):
    if w.shape[1] < 2:
        return 0.0
    return float(np.abs(w[:, 1:] - w[:, :-1]).max()) / h


def ref_evolve(w0, grid, config, law):
    """The earlier _evolve loop; returns the compared Trajectory fields as a dict."""
    w = np.array(w0, dtype=float)
    h = grid.h
    end = config.end
    stepper = ref_step_lf if config.scheme == "lax_friedrichs" else ref_step_muscl
    g0 = max(ref_max_gradient(w, h), 1e-8)
    step_floor = STEP_FLOOR_FACTOR * (grid.b - grid.a)
    coords, states = [0.0], [w.copy()]
    step_coords, step_speed, step_grad = [], [], []
    blowup_at = None
    t = 0.0
    n_steps = 0
    while t < end - 1e-14 * max(1.0, abs(end)):
        f, c = law["flux_speed"](w)
        amax = float(c.max())
        dt = cfl_step(amax, h, config.cfl, end - t)
        w = stepper(w, f, c, dt, h, grid.boundary, law)
        if not np.isfinite(w).all():
            raise BlowupDetected(f"non-finite state at coordinate {t + dt!r}", coordinate=t + dt)
        t += dt
        n_steps += 1
        g = ref_max_gradient(w, h)
        step_coords.append(t)
        step_speed.append(amax)
        step_grad.append(g)
        tripped = g > config.blowup_factor * g0 or dt < step_floor
        if tripped and blowup_at is None:
            blowup_at = t
            if law["raise_on_blowup"]:
                raise BlowupDetected(
                    f"gradient monitor tripped at coordinate {t!r} "
                    f"(gradient {g:.3e} vs initial {g0:.3e}, step {dt:.3e})",
                    coordinate=t,
                )
        if config.snapshot_stride > 0 and n_steps % config.snapshot_stride == 0 and t < end:
            coords.append(t)
            states.append(w.copy())
        if n_steps >= config.max_steps:
            raise NoConvergence(f"exceeded max_steps = {config.max_steps} at coordinate {t!r}")
    if coords[-1] != t:
        coords.append(t)
        states.append(w.copy())
    return {"coords": np.array(coords), "states": np.array(states),
            "step_coords": np.array(step_coords), "step_max_speed": np.array(step_speed),
            "step_max_gradient": np.array(step_grad), "blowup_coordinate": blowup_at}


def ref_strain_sq(w):
    U, V = w[:1], w[1:2]
    return U * U + V * V


def ref_full_law(m, dq):
    """The earlier full-system closures; dq is Q' as the modulus computed it then."""
    safety = 1.2 if dq is None else 1.0

    def qtilde(s):
        return eval_Q(m, s) / m.rho

    def dqtilde(s):
        return derivative(m.q.f, dq, s) / m.rho

    def flux(w):
        qt = qtilde(ref_strain_sq(w))
        return -np.concatenate([w[2:], qt * w[:2]])

    def flux_speed(w):
        s = ref_strain_sq(w)
        qt = qtilde(s)
        fast = qt + 2.0 * s * dqtilde(s)
        if np.fmin.reduce(qt, axis=None) <= 0.0 or np.fmin.reduce(fast, axis=None) <= 0.0:
            raise HyperbolicityLoss(
                f"squared wave speed went non-positive (min {min(np.min(qt), np.min(fast)):.3e})"
            )
        return -np.concatenate([w[2:], qt * w[:2]]), safety * np.sqrt(np.maximum(qt, fast))

    return {"flux": flux, "flux_speed": flux_speed, "raise_on_blowup": True}


def ref_asymptotic_law(beta):
    def flux(w):
        return -beta * (ref_strain_sq(w) * w)

    def flux_speed(w):
        s = ref_strain_sq(w)
        return -beta * (s * w), 3.0 * abs(beta) * s

    return {"flux": flux, "flux_speed": flux_speed, "raise_on_blowup": True}


def ref_scalar_law(beta):
    def flux(w):
        return -beta * ((w * w) * w)

    def flux_speed(w):
        return flux(w), 3.0 * abs(beta) * (w * w)

    return {"flux": flux, "flux_speed": flux_speed, "raise_on_blowup": False}


def ref_scalar_law_pow(beta):
    """The scalar law as the earlier kernel wrote it, with w**3."""
    def flux(w):
        return -beta * w**3

    def flux_speed(w):
        return flux(w), 3.0 * abs(beta) * w * w

    return {"flux": flux, "flux_speed": flux_speed, "raise_on_blowup": False}


def cubic_pair(mu0, mu1):
    """cubic_modulus(mu0, mu1) and its Q' written as the earlier code wrote it."""
    return cubic_modulus(mu0, mu1), lambda s: mu1 * np.ones_like(np.asarray(s, dtype=float))


def fd_pair():
    """A modulus with no analytic Q' and rho != 1: the 1.2 safety factor and the divides."""
    return ShearModulus(ProfileFunction(lambda s: 1.0 + 0.3 * s + 0.1 * s * s), rho=1.3), None


def both_kernels(system, w0, grid, config, beta=None, pair=None):
    """(kernel result, earlier-kernel result); an error becomes (type, message, coordinate)."""
    def outcome(run):
        try:
            return run()
        except ShearWaveError as exc:
            return type(exc), str(exc), exc.coordinate

    if system == "full":
        m, dq = pair
        new = partial(evolve_full, m, grid, FullState(*w0), config)
        law = ref_full_law(m, dq)
    elif system == "asymptotic":
        new = partial(evolve_asymptotic, beta, grid, StrainState(*w0), config)
        law = ref_asymptotic_law(beta)
    else:
        new = partial(evolve_scalar, beta, grid, w0[0], config)
        law = ref_scalar_law(beta)
    return outcome(new), outcome(partial(ref_evolve, w0, grid, config, law))


IDENTITY_CASES = [(system, scheme, boundary, n)
                  for system in ("full", "full_fd", "asymptotic", "scalar")
                  for scheme in ("lax_friedrichs", "muscl_minmod")
                  for boundary in ("periodic", "outflow")
                  for n in (8, 33, 64, 257)]


@pytest.mark.parametrize("case", IDENTITY_CASES, ids=lambda c: "-".join(map(str, c)))
def test_kernel_reproduces_earlier_kernel_bit_for_bit(case):
    system, scheme, boundary, n = case
    rng = np.random.default_rng(n)
    grid = Grid1D(n=n, a=0.0, b=TWO_PI, boundary=boundary)
    # about 30 steps at every n; random data keeps the limiter busy
    config = SimulationConfig(end=10.0 * grid.h, scheme=scheme, snapshot_stride=7,
                              blowup_factor=1e6)
    if system.startswith("full"):
        w0 = rng.uniform(-0.5, 0.5, size=(4, n))
        new, ref = both_kernels("full", w0, grid, config,
                                pair=fd_pair() if system == "full_fd" else cubic_pair(1.0, 0.4))
    elif system == "asymptotic":
        new, ref = both_kernels(system, rng.uniform(0.2, 0.7, size=(2, n)), grid, config, beta=0.8)
    else:
        new, ref = both_kernels(system, rng.uniform(0.3, 0.8, size=(1, n)), grid, config, beta=-1.0)
    assert not isinstance(ref, tuple), ref
    assert len(ref["step_coords"]) >= 20
    for name in ("coords", "states", "step_coords", "step_max_speed", "step_max_gradient"):
        assert np.array_equal(getattr(new, name), ref[name]), name
    assert new.blowup_coordinate == ref["blowup_coordinate"]


@pytest.mark.parametrize("case", [c for c in IDENTITY_CASES if c[0] == "scalar"],
                         ids=lambda c: "-".join(map(str, c)))
def test_scalar_kernel_stays_within_rounding_of_pow_flux(case):
    # the scalar flux moved from w**3 to (w * w) * w; on the scalar identity
    # cases the states of the two differ by at most 5.6e-16
    _, scheme, boundary, n = case
    rng = np.random.default_rng(n)
    grid = Grid1D(n=n, a=0.0, b=TWO_PI, boundary=boundary)
    config = SimulationConfig(end=10.0 * grid.h, scheme=scheme, snapshot_stride=7,
                              blowup_factor=1e6)
    w0 = rng.uniform(0.3, 0.8, size=(1, n))
    new = evolve_scalar(-1.0, grid, w0[0], config)
    old = ref_evolve(w0, grid, config, ref_scalar_law_pow(-1.0))
    assert new.states.shape == old["states"].shape
    assert np.max(np.abs(new.states - old["states"])) <= 2e-15


def plateau(x, base, top):
    """Piecewise-constant data: every minmod slope is 0, so predictor faces equal cells."""
    u = np.full(len(x), base)
    u[len(x) // 3: len(x) // 2] = top
    return u


ERROR_CASES = ["non_positive_modulus", "hyperbolicity_loss", "non_finite_state",
               "gradient_monitor", "max_steps"]


def error_case(name, x):
    """(expected error, system, initial state, law arguments, run arguments) on centers x."""
    zero = np.zeros_like(x)
    wave = np.stack([0.6 + 0.4 * np.sin(x), 0.2 * np.cos(x)])
    if name == "non_positive_modulus":
        # Q = 1 - s is negative on the plateau cells
        w0 = np.stack([plateau(x, 0.3, 1.2), zero, zero, zero])
        return NonPositiveModulus, "full", w0, {"pair": cubic_pair(1.0, -1.0)}, {}
    if name == "hyperbolicity_loss":
        # Q = 1 - s > 0 but Q + 2sQ' = 1 - 3s < 0 on the plateau cells
        w0 = np.stack([plateau(x, 0.3, 0.7), zero, zero, zero])
        return HyperbolicityLoss, "full", w0, {"pair": cubic_pair(1.0, -1.0)}, {}
    if name == "non_finite_state":
        # the flux overflows to inf, so the update is inf - inf
        return BlowupDetected, "scalar", 1e103 * (1.0 + 0.5 * wave[:1]), {"beta": 1.0}, {}
    if name == "gradient_monitor":
        return BlowupDetected, "asymptotic", wave, {"beta": 1.0}, {"blowup_factor": 1.5}
    return NoConvergence, "asymptotic", wave, {"beta": 1.0}, {"max_steps": 3}


@pytest.mark.parametrize("scheme", ["lax_friedrichs", "muscl_minmod"])
@pytest.mark.parametrize("name", ERROR_CASES)
def test_kernel_raises_as_earlier_kernel(name, scheme):
    grid = Grid1D(n=64, a=0.0, b=TWO_PI)
    error, system, w0, law_args, run_args = error_case(name, grid.centers)
    config = SimulationConfig(end=5.0, scheme=scheme, **run_args)
    with np.errstate(all="ignore"):
        new, ref = both_kernels(system, w0, grid, config, **law_args)
    assert isinstance(new, tuple) and new[0] is error, new
    if name in ("non_positive_modulus", "hyperbolicity_loss"):
        # the earlier kernel named no coordinate; the plateau fails the first step, from 0
        assert new[:2] == ref[:2] and ref[2] is None and new[2] == 0.0
    elif name == "max_steps":
        # the earlier kernel named the coordinate of the third step in its message only
        assert new[:2] == ref[:2] and ref[2] is None
        assert new[2] == float(ref[1].rsplit(" ", 1)[1])
    else:
        assert new == ref


def test_predictor_face_modulus_is_checked_before_cell_hyperbolicity():
    # The one change of error precedence: the cells and the predictor faces
    # share one Q evaluation, so a face with Q <= 0 now raises before a cell
    # whose fast speed is imaginary.  Q = (1 - 2s)^2 - 0.01 is negative for
    # s in (0.45, 0.55); cell 3 (s = 0.4) has Q > 0 but Q + 2sQ' < 0, and its
    # right face reaches s = 0.495.
    m = ShearModulus(ProfileFunction(lambda s: (1.0 - 2.0 * s) ** 2 - 0.01,
                                     df=lambda s: -4.0 * (1.0 - 2.0 * s)))
    U = np.sqrt([0.09, 0.09, 0.09, 0.4, 0.6, 0.6, 0.6, 0.6])
    w0 = np.stack([U, 0 * U, 0 * U, 0 * U])
    grid = Grid1D(n=8, a=0.0, b=1.0, boundary="outflow")
    new, ref = both_kernels("full", w0, grid, SimulationConfig(end=0.1, scheme="muscl_minmod"),
                            pair=(m, m.q.df))
    assert ref[0] is HyperbolicityLoss
    assert new[0] is NonPositiveModulus
    assert "Q(0.4949" in new[1]


# ---------------------------------------------------------------------------
# symmetries of the kernel (ROADMAP 7a): the material is isotropic and both
# schemes are in conservation form, so these maps of the data commute with them

SYM_N = 96
SCHEMES = tuple(STEPPERS)
BOUNDARIES = ("periodic", "outflow")


def coefficients(rows):
    """Four coefficients a row for smooth_rows."""
    return st.lists(st.floats(-0.3, 0.3, allow_nan=False), min_size=4 * rows, max_size=4 * rows)


def smooth_rows(coeffs, x):
    """One smooth field per four coefficients: a base value plus modes 1 to 3."""
    return np.stack([base + a * np.sin(x + p) + b * np.cos(2.0 * x) + 0.1 * np.sin(3.0 * x)
                     for base, a, b, p in np.reshape(coeffs, (-1, 4))])


def full_states(w0, scheme, boundary):
    grid = Grid1D(n=SYM_N, a=0.0, b=TWO_PI, boundary=boundary)
    return evolve_full(cubic_modulus(1.0, 0.5), grid, FullState(*w0),
                       SimulationConfig(end=0.7, scheme=scheme)).states


def rotate(w, angle):
    """Turn (U, V) and (M, N) by angle; the fields are axis -2 of w."""
    c, s = math.cos(angle), math.sin(angle)
    U, V, M, N = np.moveaxis(w, -2, 0)
    return np.stack([c * U - s * V, s * U + c * V, c * M - s * N, s * M + c * N], axis=-2)


def quarter_turn(w):
    """(U, V, M, N) -> (-V, U, -N, M), the rotation by 90 degrees without rounding."""
    U, V, M, N = np.moveaxis(w, -2, 0)
    return np.stack([-V, U, -N, M], axis=-2)


def swap(w):
    """U <-> V together with M <-> N."""
    return w[..., [1, 0, 3, 2], :]


def reflect(w):
    """x -> -x, which turns the velocities (M, N) around."""
    return w[..., ::-1] * np.array([[1.0], [1.0], [-1.0], [-1.0]])


@settings(max_examples=6, deadline=None)
@given(coeffs=coefficients(4), shift=st.integers(1, SYM_N - 1))
def test_full_kernel_commutes_with_exact_symmetries(coeffs, shift):
    w0 = smooth_rows(coeffs, Grid1D(n=SYM_N, a=0.0, b=TWO_PI).centers)
    for scheme in SCHEMES:
        for boundary in BOUNDARIES:
            states = full_states(w0, scheme, boundary)
            for g in (quarter_turn, swap, reflect):
                assert np.array_equal(full_states(g(w0), scheme, boundary), g(states)), g.__name__
            if boundary == "periodic":
                assert np.array_equal(full_states(np.roll(w0, shift, axis=1), scheme, boundary),
                                      np.roll(states, shift, axis=-1))


@settings(max_examples=6, deadline=None)
@given(coeffs=coefficients(2))
def test_asymptotic_kernel_commutes_with_quarter_turn(coeffs):
    for scheme in SCHEMES:
        for boundary in BOUNDARIES:
            grid = Grid1D(n=SYM_N, a=0.0, b=TWO_PI, boundary=boundary)
            U, V = smooth_rows(coeffs, grid.centers)
            config = SimulationConfig(end=0.3, scheme=scheme, blowup_factor=1e6)
            states = evolve_asymptotic(0.8, grid, StrainState(U, V), config).states
            turned = evolve_asymptotic(0.8, grid, StrainState(-V, U), config).states
            assert np.array_equal(turned, np.stack([-states[:, 1], states[:, 0]], axis=1))


@settings(max_examples=6, deadline=None)
@given(coeffs=coefficients(4))
def test_lax_friedrichs_commutes_with_any_rotation_to_rounding(coeffs):
    w0 = smooth_rows(coeffs, Grid1D(n=SYM_N, a=0.0, b=TWO_PI).centers)
    for boundary in BOUNDARIES:
        states = full_states(w0, "lax_friedrichs", boundary)
        turned = full_states(rotate(w0, 0.7), "lax_friedrichs", boundary)
        assert np.max(np.abs(turned - rotate(states, 0.7))) <= 1e-13


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_muscl_departs_from_rotation_known_defect(boundary):
    # The componentwise minmod limiter is not rotation-equivariant: on this
    # data the departure is 5.6e-3 (periodic) and 5.7e-3 (outflow).  ROADMAP
    # 7b limits vectors instead; this test then fails, and is to become a
    # bound to rounding, as for Lax-Friedrichs above.
    coeffs = np.random.default_rng(7).uniform(-0.3, 0.3, 16)
    w0 = smooth_rows(coeffs, Grid1D(n=SYM_N, a=0.0, b=TWO_PI).centers)
    states = full_states(w0, "muscl_minmod", boundary)
    turned = full_states(rotate(w0, 0.7), "muscl_minmod", boundary)
    assert np.max(np.abs(turned - rotate(states, 0.7))) > 1e-4


@settings(max_examples=6, deadline=None)
@given(coeffs=coefficients(1))
def test_scalar_kernel_is_odd_bit_for_bit(coeffs):
    for scheme in SCHEMES:
        for boundary in BOUNDARIES:
            grid = Grid1D(n=SYM_N, a=0.0, b=TWO_PI, boundary=boundary)
            rho0 = smooth_rows(coeffs, grid.centers)[0]
            config = SimulationConfig(end=0.3, scheme=scheme)
            states = evolve_scalar(-1.0, grid, rho0, config).states
            flipped = evolve_scalar(-1.0, grid, -rho0, config).states
            assert np.array_equal(flipped, -states)


if __name__ == "__main__":
    out = {}
    for case in CASES:
        tr = run_case(*case)
        out[_key(case)] = {"final": tr.final.tolist(), "step_max_speed": tr.step_max_speed.tolist()}
    lines = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in out.items())
    REFERENCE.write_text("{\n" + lines + "\n}\n")
    print(f"wrote {REFERENCE}")
