"""Fixed-step integration primitives and time-gridded signals.

All integrations take classical RK4 steps on a uniform grid through the one
driver ``ekf.integrate``, which sits in ``ekf.py`` because the benchmark's
set-up probe (perfbench/probe.py) stops a run by replacing
``ekfcert.ekf.rk4_step``. Virtual copies are rows of the filter run's own
RK4 state. A run stores the outputs it reads at its RK4 stages once per
distinct stage time (``stage_table``); the variational validator reads that
table next to the run's gains, which ``interp`` (linear, clamped ends)
carries onto the stage times.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .model import MAX_COUNT, _array, _scalars


def _step_count(horizon: float, step: float) -> int:
    """n = round(horizon/step), at least 1, of every grid: at most MAX_COUNT (a ratio that
    overflows included), else a ConfigurationError naming both values read by _scalar."""
    horizon, step = _scalars(horizon=horizon, step=step).values()
    if horizon / step > MAX_COUNT + 0.5:   # round() to even keeps 1000000.5 at 10**6
        raise ConfigurationError(f"horizon / step must be at most {MAX_COUNT} steps, got "
                                 f"horizon {horizon!r} and step {step!r}")
    return max(1, int(round(horizon / step)))


def time_grid(horizon: float, step: float) -> np.ndarray:
    """Uniform grid [0, horizon] of n = round(horizon/step) <= MAX_COUNT steps (``_step_count``):
    the realized step is horizon/n, so the grid always lands exactly on the horizon."""
    n = _step_count(horizon, step)
    return np.linspace(0.0, float(horizon), n + 1)


def rk4_step(rhs: Callable[[float, np.ndarray], np.ndarray],
             t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One classical Runge-Kutta step of size h for y' = rhs(t, y)."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# stage-table row of each rk4_step stage, counted from row 2k of step k
_STAGE_ROWS = (0, 1, 1, 2)


def stage_table(grid: np.ndarray) -> tuple[np.ndarray, Callable[[float], tuple[int, int]]]:
    """The 2m - 1 distinct RK4 stage times on ``grid`` and a reader of stage calls.

    Row 2k is the node t_k and row 2k+1 the midpoint t_k + h_k/2, with
    h_k = t_{k+1} - t_k as ``integrate`` forms it, so stages 1 to 4 of step k
    read rows 2k, 2k+1, 2k+1 and 2k+2 (t_k + h_k equals t_{k+1} exactly on
    ``time_grid`` grids). The reader maps the successive right-hand-side
    calls of one RK4 run on ``grid`` to (stage, row), stage 0 to 3. It
    checks each call's time against its row's, so a stepping scheme that
    does not match raises instead of reading a wrong row.
    """
    times = np.empty(2 * len(grid) - 1)
    times[0::2] = grid
    times[1::2] = grid[:-1] + 0.5 * (grid[1:] - grid[:-1])
    calls = itertools.count()

    def read(t: float) -> tuple[int, int]:
        j = next(calls)
        stage = j & 3
        row = 2 * (j >> 2) + _STAGE_ROWS[stage]
        if t != times[row]:
            raise RuntimeError(f"RK4 stage {stage + 1} at t={float(t)!r} does not match "
                               f"stage-table row {row} at t={float(times[row])!r}")
        return stage, row

    return times, read


@dataclass
class TimeSeries:
    """Values sampled on an increasing time grid, linearly interpolated.

    ``values`` has shape (len(times), ...); any trailing shape is allowed,
    so the same container holds state vectors, output vectors, covariance
    matrices and gain matrices. Both are numeric (model._array) and finite.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times, self.values = _array(self.times, "times"), _array(self.values, "values")
        if self.times.ndim != 1 or len(self.times) < 1:
            raise ConfigurationError("times must be a nonempty 1-d array")
        if not np.isfinite(self.times).all():
            raise ConfigurationError("times must be finite")
        if self.values.ndim < 1 or len(self.values) != len(self.times):
            raise ConfigurationError("values must have one entry per time")
        if not np.isfinite(self.values).all():
            raise ConfigurationError("values must be finite")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ConfigurationError("times must be strictly increasing")

    def at(self, t: float) -> np.ndarray:
        """Linear interpolation at t, clamped to the grid range."""
        return interp(self.times, self.values, t)


def interp(times: np.ndarray, values: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """Linear interpolation at t, a time or a 1-d array of times, clamped to
    the grid range; inputs are not checked. An array of times stacks the
    values at each, bit for bit."""
    ts = np.reshape(t, -1)
    if len(times) == 1:   # a constant
        v = values[np.zeros(len(ts), dtype=int)]
    else:
        i = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, len(times) - 2)
        w = np.clip((ts - times[i]) / (times[i + 1] - times[i]), 0.0, 1.0)
        w = w.reshape(-1, *(1,) * (values.ndim - 1))
        v = (1.0 - w) * values[i] + w * values[i + 1]
    return v if np.ndim(t) else v[0]
