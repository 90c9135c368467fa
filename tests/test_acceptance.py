"""Ten end-to-end acceptance checks, one per numbered criterion.

Each test prints a single ``criterion NN: PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output of a failing run) and then asserts.
Runtime caps are part of the checks.
"""
import json
import math
import time

import numpy as np

from shearwaves import (
    AngleSquaredControl,
    BlowupDetected,
    CarrollWave,
    ConservationSpec,
    FieldSample,
    FullState,
    Grid1D,
    HodographData,
    NeitherOrientationDecays,
    PerturbedRadialControl,
    SimulationConfig,
    StrainState,
    SymmetrySpec,
    breaking_estimate,
    carroll_dispersion,
    carroll_full_state,
    commutator_residual,
    conservation_residual,
    cubic_modulus,
    eval_asymptotic_linear,
    eval_separable,
    evolve_asymptotic,
    evolve_full,
    evolve_scalar,
    linearized_symmetry_residual,
    modulus_flux,
    mooney_rivlin,
    poly_flux,
    poly_modulus,
    power_modulus,
    product_flux,
    ratio_flux,
    residual_asymptotic,
    residual_full,
    sample_hodograph,
    sum_squares_flux,
    temple_eigen,
)
from shearwaves.cli import main
from shearwaves.profiles import (
    ProfileFunction,
    const_profile,
    linear_profile,
    poly_profile,
    sine_profile,
)

TWO_PI = 2.0 * math.pi
LEVELS = (33, 65, 129)


def _report(num: int, ok: bool, note: str):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {note}"
    print(line, flush=True)
    assert ok, line


def _pair_order(coarse: float, fine: float) -> float:
    if fine == 0.0:
        return math.inf
    return math.log2(coarse / fine)


# ---------------------------------------------------------------------------
# shared field builders


def _constant_amplitude_samples(beta, amp, prof, levels=LEVELS):
    out = []
    for n in levels:
        X = np.linspace(0.0, 1.0, n)
        tau = np.linspace(0.0, TWO_PI, n)
        C, P = np.meshgrid(X, tau, indexing="ij")
        theta = np.asarray(prof(beta * amp * amp * C + P), dtype=float)
        out.append(FieldSample(X, tau, {"theta": theta,
                                        "rho": np.full_like(theta, amp)}))
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


def _random_jets(rng, n=100):
    return np.column_stack([
        rng.uniform(0.0, TWO_PI, n),
        rng.uniform(0.5, 1.5, n),
        rng.uniform(-1.0, 1.0, n),
        rng.uniform(-1.0, 1.0, n),
        rng.uniform(-1.0, 1.0, n),
        rng.uniform(-1.0, 1.0, n),
    ])


def _bracket_scale(spec, beta, jets):
    phi_th, phi_rh = spec.characteristic(jets[:, 0], jets[:, 1],
                                         jets[:, 2], jets[:, 3])
    return max(1.0, float(np.max(np.abs(phi_th))), float(np.max(np.abs(phi_rh))),
               abs(beta) * float(np.max(jets[:, 1] ** 2)))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_dispersion_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(100):
        dens = rng.uniform(0.3, 4.0)
        amp = rng.uniform(0.2, 3.0)
        k = rng.uniform(0.1, 5.0)
        s = amp * amp
        fam = i % 4
        if fam == 0:
            mu = rng.uniform(0.2, 5.0)
            m, q_ref = mooney_rivlin(mu, rho=dens), mu
        elif fam == 1:
            mu0, mu1 = rng.uniform(0.2, 3.0), rng.uniform(0.0, 2.0)
            m, q_ref = cubic_modulus(mu0, mu1, rho=dens), mu0 + mu1 * s
        elif fam == 2:
            mu, p = rng.uniform(0.2, 3.0), rng.uniform(-0.8, 2.0)
            m, q_ref = power_modulus(mu, p, rho=dens), mu * (1.0 + s) ** p
        else:
            c0, c1, c2 = rng.uniform(0.1, 2.0, 3)
            m = poly_modulus([c0, c1, c2], rho=dens)
            q_ref = c0 + c1 * s + c2 * s * s
        omega = carroll_dispersion(m, amp, k)
        worst = max(worst, abs(dens * omega**2 - k * k * q_ref) / (k * k * q_ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, ok, f"max relative defect {worst:.2e} over 100 draws, {elapsed:.2f}s")


def test_criterion_02_carroll_exactness():
    t0 = time.perf_counter()
    m = cubic_modulus(1.0, 0.5)
    wave = CarrollWave.from_modulus(m, 1.0, 1.0)
    period = TWO_PI / wave.omega
    errs = []
    for n in (256, 512):
        grid = Grid1D(n=n, a=0.0, b=TWO_PI)
        state = FullState(*carroll_full_state(wave, grid.centers, 0.0))
        traj = evolve_full(m, grid, state,
                           SimulationConfig(end=period, scheme="muscl_minmod"))
        ref = np.stack(carroll_full_state(wave, grid.centers, period))
        errs.append(float(np.max(np.abs(traj.final - ref))))
    order = _pair_order(errs[0], errs[1])
    elapsed = time.perf_counter() - t0
    ok = abs(order - 2.0) <= 0.3 and errs[1] < 1e-3 and elapsed < 30.0
    _report(2, ok, f"Linf order {order:.2f}, err@512 {errs[1]:.2e}, {elapsed:.1f}s")


def test_criterion_03_linear_degeneracy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    fluxes = [
        product_flux(),
        ratio_flux(),
        sum_squares_flux(),
        poly_flux(rng.uniform(0.2, 1.0, (3, 3))),
        modulus_flux(cubic_modulus(1.0, 0.5)),
    ]
    worst = 0.0
    per_family = 200
    for f in fluxes:
        u = rng.uniform(0.3, 2.0, per_family)
        v = rng.uniform(0.3, 2.0, per_family)
        for uu, vv in zip(u, v):
            eig = temple_eigen(f, uu, vv)
            scale = max(1.0, abs(eig.lambda2))
            worst = max(worst, abs(eig.grad2_dot_d2) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(3, ok, f"max |grad(lambda2).d2| {worst:.2e} over 1000 states, {elapsed:.2f}s")


def test_criterion_04_constant_amplitude_propagation():
    t0 = time.perf_counter()
    beta, amp = 0.5, 1.0
    prof = sine_profile(1.0, 1.0)
    length = TWO_PI
    crossing = length / (3.0 * beta * amp * amp)
    x_end = 5.0 * crossing
    grid = Grid1D(n=512, a=0.0, b=length)
    U0, V0 = eval_asymptotic_linear(beta, amp, prof, 0.0, grid.centers)
    traj = evolve_asymptotic(beta, grid, StrainState(U0, V0),
                             SimulationConfig(end=x_end, scheme="muscl_minmod"))
    ref = np.stack(eval_asymptotic_linear(beta, amp, prof, x_end, grid.centers))
    scheme_err = float(np.max(np.abs(traj.final - ref)))
    amp_dev = float(np.max(np.abs(traj.final[0] ** 2 + traj.final[1] ** 2 - amp * amp)))

    xstar = breaking_estimate(beta, prof, np.linspace(0.0, TWO_PI, 4097))
    U0p = np.asarray(prof(grid.centers), dtype=float)
    blew_at = None
    try:
        evolve_asymptotic(beta, grid, StrainState(U0p, np.zeros_like(U0p)),
                          SimulationConfig(end=2.0 * xstar, scheme="muscl_minmod"))
    except BlowupDetected as exc:
        blew_at = exc.coordinate
    elapsed = time.perf_counter() - t0
    ok = (amp_dev <= 5.0 * scheme_err
          and blew_at is not None and blew_at < 2.0 * xstar
          and elapsed < 60.0)
    _report(4, ok, f"amp dev {amp_dev:.2e} vs 5x err {5 * scheme_err:.2e}; "
                   f"plane blowup at {blew_at} < {2 * xstar:.3f}, {elapsed:.1f}s")


def test_criterion_05_breaking_time_match():
    t0 = time.perf_counter()
    prof = ProfileFunction(f=lambda tau: 1.0 + 0.2 * np.sin(tau),
                           df=lambda tau: 0.2 * np.cos(tau),
                           name="1+0.2sin")
    beta = 1.0
    xstar = breaking_estimate(beta, prof, np.linspace(0.0, TWO_PI, 4097))
    grid = Grid1D(n=1024, a=0.0, b=TWO_PI)
    traj = evolve_scalar(beta, grid, np.asarray(prof(grid.centers), dtype=float),
                         SimulationConfig(end=1.5 * xstar, scheme="muscl_minmod"))
    blowup = traj.blowup_coordinate
    deviation = abs(blowup - xstar) / xstar if blowup is not None else math.inf
    elapsed = time.perf_counter() - t0
    ok = blowup is not None and deviation <= 0.10 and elapsed < 30.0
    _report(5, ok, f"estimate {xstar:.4f} vs numerical {blowup}, "
                   f"deviation {100 * deviation:.1f}%, {elapsed:.1f}s")


def test_criterion_06_hodograph_residual():
    t0 = time.perf_counter()
    report = residual_asymptotic(_hodograph_samples(), 1.0, order_target=1.8)
    elapsed = time.perf_counter() - t0
    ok = report.order >= 1.8 and report.passed and elapsed < 30.0
    _report(6, ok, f"decay order {report.order:.2f} over three refinements, {elapsed:.1f}s")


def test_criterion_07_conservation_and_commutator():
    t0 = time.perf_counter()
    beta, amp = 0.5, 1.0
    samples = _constant_amplitude_samples(beta, amp, sine_profile(1.0, 1.0))
    spec_const = ConservationSpec(amp_weight=const_profile(0.0),
                                  angle_weight=const_profile(1.0))
    spec_theta = ConservationSpec(amp_weight=const_profile(0.0),
                                  angle_weight=linear_profile(1.0))
    rep_const = conservation_residual(samples, beta, spec_const, order_target=1.8)
    rep_theta = conservation_residual(samples, beta, spec_theta, order_target=1.8)

    rng = np.random.default_rng(41)
    jets = _random_jets(rng, 100)
    worst_ratio = 0.0
    for _ in range(5):
        spec = SymmetrySpec(phase_fn=poly_profile(rng.uniform(-1.0, 1.0, 4)),
                            radial_fn=poly_profile(rng.uniform(-1.0, 1.0, 4)))
        b = rng.uniform(0.2, 2.0)
        worst = commutator_residual(spec, b, jets)
        worst_ratio = max(worst_ratio, worst / (1e-10 * _bracket_scale(spec, b, jets)))
    elapsed = time.perf_counter() - t0
    ok = (rep_const.order >= 1.8 and rep_theta.order >= 1.8
          and worst_ratio <= 1.0 and elapsed < 10.0)
    _report(7, ok, f"conservation orders {rep_const.order:.2f}/{rep_theta.order:.2f}, "
                   f"bracket at {worst_ratio:.2e} of tolerance, {elapsed:.1f}s")


def test_criterion_08_separable_consistency():
    t0 = time.perf_counter()
    f = product_flux()
    t_grid = np.linspace(0.0, 1.0, 201)
    sol = eval_separable(f, 1.0, 1.0, 0.0, t_grid, substeps=2)
    energy = sol.first_integral(lambda s: s * s / 2.0)
    drift = float(np.max(np.abs(energy - energy[0])))

    errs = []
    for n in LEVELS:
        t = np.linspace(0.0, 1.0, n)
        x = np.linspace(-0.5, 0.5, n)
        lvl = eval_separable(f, 1.0, 1.0, 0.0, t, substeps=8)
        u = lvl.u_field(x)
        v = lvl.v_field(x)
        ht, hx = t[1] - t[0], x[1] - x[0]
        worst = 0.0
        for w in (u, v):
            pw = (u * v) * w
            r = ((w[2:, 1:-1] - 2.0 * w[1:-1, 1:-1] + w[:-2, 1:-1]) / ht**2
                 - (pw[1:-1, 2:] - 2.0 * pw[1:-1, 1:-1] + pw[1:-1, :-2]) / hx**2)
            worst = max(worst, float(np.max(np.abs(r))))
        errs.append(worst)
    order = _pair_order(errs[0], errs[-1]) / (len(errs) - 1)
    elapsed = time.perf_counter() - t0
    ok = drift <= 1e-8 and order >= 1.8 and elapsed < 10.0
    _report(8, ok, f"first-integral drift {drift:.2e}, wave-form residual order "
                   f"{order:.2f}, {elapsed:.1f}s")


def test_criterion_09_negative_controls(tmp_path):
    t0 = time.perf_counter()
    checks = {}

    # residual_full on white noise
    rng = np.random.default_rng(3)
    noise = [FieldSample(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n),
                         {k: rng.standard_normal((n, n)) for k in ("U", "V", "M", "N")})
             for n in LEVELS]
    checks["full"] = residual_full(noise, cubic_modulus(1.0, 0.5)).order <= 0.5

    # residual_asymptotic on a constant-amplitude non-solution
    bad = []
    for n in LEVELS:
        X = np.linspace(0.0, 1.0, n)
        tau = np.linspace(0.0, TWO_PI, n)
        _, P = np.meshgrid(X, tau, indexing="ij")
        bad.append(FieldSample(X, tau, {"theta": np.sin(2.0 * P),
                                        "rho": np.ones_like(P)}))
    checks["asymptotic"] = residual_asymptotic(bad, 0.5).order <= 0.5

    # conservation on the same non-solution: neither orientation decays
    spec = ConservationSpec(amp_weight=const_profile(0.0),
                            angle_weight=linear_profile(1.0))
    try:
        conservation_residual(bad, 0.5, spec)
        checks["conservation"] = False
    except NeitherOrientationDecays:
        checks["conservation"] = True

    # linearized residual with the angle component replaced by theta_tau^2
    hodo = _hodograph_samples()
    base = SymmetrySpec(phase_fn=linear_profile(1.0),
                        radial_fn=poly_profile([0.0, 0.0, 1.0]))
    checks["linearized"] = linearized_symmetry_residual(
        hodo, 1.0, AngleSquaredControl(base)).order <= 0.5

    # bracket with the radial component rescaled
    jets = _random_jets(np.random.default_rng(4), 100)
    worst = commutator_residual(PerturbedRadialControl(base), 1.0, jets)
    checks["commutator"] = worst > 1e-10 * _bracket_scale(base, 1.0, jets)

    # the CLI exits 1 on every negative-control study
    rect = {"coord": {"min": 0.0, "max": 1.0}, "point": {"min": 0.0, "max": TWO_PI}}
    sym = {"phase": {"kind": "linear", "k": 1.0},
           "radial": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}}
    hodo_sol = {"kind": "hodograph", "phase": sym["phase"], "radial": sym["radial"],
                "seed": [0.5, 1.0]}
    hodo_rect = {"coord": {"min": -0.55, "max": -0.45},
                 "point": {"min": -1.7, "max": -1.3}}
    configs = {
        "full": {"study": "full", "rectangle": rect, "levels": [33, 65],
                 "solution": {"kind": "carroll",
                              "modulus": {"kind": "cubic", "mu0": 1.0, "mu1": 0.5},
                              "amplitude": 1.0, "wavenumber": 1.0}},
        "asymptotic": {"study": "asymptotic", "beta": 0.5,
                       "rectangle": rect, "levels": [33, 65]},
        "conservation": {"study": "conservation", "beta": 0.5,
                         "rectangle": rect, "levels": [33, 65],
                         "conservation": {"amp_weight": {"kind": "const", "c": 0.0},
                                          "angle_weight": {"kind": "linear", "k": 1.0}}},
        "linearized_symmetry": {"study": "linearized_symmetry", "beta": 1.0,
                                "solution": hodo_sol, "rectangle": hodo_rect,
                                "levels": [33, 65], "symmetry": sym},
        "commutator": {"study": "commutator", "beta": 1.0, "symmetry": sym},
    }
    for name, cfg in configs.items():
        cfg.update({"command": "verify", "negative_control": True})
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        code = main(["verify", "--config", str(path),
                     "--out", str(tmp_path / f"out_{name}"), "--quiet"])
        checks[f"cli_{name}"] = code == 1

    elapsed = time.perf_counter() - t0
    failed = sorted(k for k, v in checks.items() if not v)
    ok = not failed and elapsed < 10.0
    _report(9, ok, f"{len(checks)} control checks"
                   + (f", failed: {failed}" if failed else "") + f", {elapsed:.1f}s")


def test_criterion_10_constant_modulus_linearity():
    t0 = time.perf_counter()
    mu, dens = 2.0, 1.0
    m = mooney_rivlin(mu, rho=dens)
    c = math.sqrt(mu / dens)
    pairs = (
        (lambda y: np.sin(y), lambda y: 0.3 * np.cos(2.0 * y)),
        (lambda y: 0.5 * np.cos(y), lambda y: 0.2 * np.sin(3.0 * y)),
    )

    def superposition(x, t):
        out = []
        for strain0, velocity0 in pairs:
            plus = velocity0(x + c * t) + c * strain0(x + c * t)
            minus = velocity0(x - c * t) - c * strain0(x - c * t)
            out.append(((plus - minus) / (2.0 * c), (plus + minus) / 2.0))
        (U, M), (V, N) = out
        return np.stack([U, V, M, N])

    errs_l2 = []
    err_inf = None
    for n in (128, 256):
        grid = Grid1D(n=n, a=0.0, b=TWO_PI)
        x = grid.centers
        state = FullState(pairs[0][0](x), pairs[1][0](x),
                          pairs[0][1](x), pairs[1][1](x))
        traj = evolve_full(m, grid, state,
                           SimulationConfig(end=1.0, scheme="muscl_minmod"))
        diff = traj.final - superposition(x, 1.0)
        errs_l2.append(float(np.sqrt(np.mean(diff**2))))
        err_inf = float(np.max(np.abs(diff)))
    order = _pair_order(errs_l2[0], errs_l2[1])
    elapsed = time.perf_counter() - t0
    ok = order >= 1.5 and err_inf < 1e-3 and elapsed < 30.0
    _report(10, ok, f"L2 order {order:.2f}, Linf err@256 {err_inf:.2e}, {elapsed:.1f}s")
