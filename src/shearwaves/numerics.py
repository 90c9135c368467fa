"""Fixed-step RK4 integration."""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import BlowupDetected


def rk4_integrate(rhs: Callable, t_grid, y0, substeps: int = 1) -> np.ndarray:
    """Integrate y' = rhs(t, y) over t_grid with fixed-step RK4.

    Returns the state at every grid point, shape (len(t_grid), len(y0)).
    Each grid interval is split into `substeps` equal RK4 steps.  Raises
    BlowupDetected, with the grid point as its coordinate, if the state goes
    non-finite there.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    y = np.array(y0, dtype=float)
    out = np.empty((len(t_grid), y.size))
    out[0] = y
    for i in range(len(t_grid) - 1):
        dt = (t_grid[i + 1] - t_grid[i]) / substeps
        t = t_grid[i]
        # overflow is caught by the finiteness check after the step
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(substeps):
                k1 = np.asarray(rhs(t, y))
                k2 = np.asarray(rhs(t + 0.5 * dt, y + 0.5 * dt * k1))
                k3 = np.asarray(rhs(t + 0.5 * dt, y + 0.5 * dt * k2))
                k4 = np.asarray(rhs(t + dt, y + dt * k3))
                y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t += dt
        if not np.all(np.isfinite(y)):
            t_end = float(t_grid[i + 1])
            raise BlowupDetected(f"state went non-finite near t = {t_end!r}", coordinate=t_end)
        out[i + 1] = y
    return out

