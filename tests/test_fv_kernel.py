"""The finite-volume kernel: pinned trajectories and coefficient evaluations per step.

The reference values in data/fv_kernel_reference.json were recorded with the
earlier kernel, which evaluated flux and wave speed through separate
closures.  Regenerate them with ``PYTHONPATH=src python tests/test_fv_kernel.py``
only when a change to the schemes is meant to move the trajectories.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from shearwaves.constitutive import ShearModulus, cubic_modulus
from shearwaves.exact import CarrollWave, FullState, StrainState, carroll_full_state
from shearwaves.simulate import (
    Grid1D,
    SimulationConfig,
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


@pytest.mark.parametrize("scheme, per_step", [("lax_friedrichs", 1), ("muscl_minmod", 3)])
def test_modulus_evaluations_per_step(scheme, per_step):
    # LF: once on the cells; MUSCL: cells, stacked predictor faces, stacked
    # interface states.  dq is given so Q' costs no extra Q calls.
    calls = []

    def q(s):
        calls.append(np.shape(s))
        return 1.0 + 0.4 * s

    m = ShearModulus(q=q, dq=lambda s: 0.4 * np.ones_like(s))
    grid = Grid1D(n=32, a=0.0, b=TWO_PI)
    init = FullState(*carroll_full_state(CarrollWave.from_modulus(m, 0.5, 1.0), grid.centers, 0.0))
    calls.clear()
    tr = evolve_full(m, grid, init, SimulationConfig(end=0.5, scheme=scheme))
    assert len(tr.step_coords) > 0
    assert len(calls) == per_step * len(tr.step_coords)


if __name__ == "__main__":
    out = {}
    for case in CASES:
        tr = run_case(*case)
        out[_key(case)] = {"final": tr.final.tolist(), "step_max_speed": tr.step_max_speed.tolist()}
    lines = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in out.items())
    REFERENCE.write_text("{\n" + lines + "\n}\n")
    print(f"wrote {REFERENCE}")
