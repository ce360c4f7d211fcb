"""Fixed-step integration primitives and time-gridded signals.

All integrations take classical RK4 steps on a uniform grid through the one
driver ``ekf.integrate``, which sits in ``ekf.py`` because the benchmark's
set-up probe (perfbench/probe.py) stops a run by replacing
``ekfcert.ekf.rk4_step``. Node series are re-evaluated between grid points
by ``interp``: linear interpolation with clamped ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError


def time_grid(horizon: float, step: float) -> np.ndarray:
    """Uniform grid [0, horizon] with the step count rounded to an integer.

    The realized step is horizon/n with n = round(horizon/step), so the grid
    always lands exactly on the horizon.
    """
    if not horizon > 0.0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    if not step > 0.0:
        raise ConfigurationError(f"step must be positive, got {step}")
    n = max(1, int(round(horizon / step)))
    return np.linspace(0.0, float(horizon), n + 1)


def rk4_step(rhs: Callable[[float, np.ndarray], np.ndarray],
             t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One classical Runge-Kutta step of size h for y' = rhs(t, y)."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass
class TimeSeries:
    """Values sampled on an increasing time grid, linearly interpolated.

    ``values`` has shape (len(times), ...); any trailing shape is allowed,
    so the same container holds state vectors, output vectors, covariance
    matrices and gain matrices.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or len(self.times) < 1:
            raise ConfigurationError("times must be a nonempty 1-d array")
        if len(self.values) != len(self.times):
            raise ConfigurationError("values must have one entry per time")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ConfigurationError("times must be strictly increasing")

    def at(self, t: float) -> np.ndarray:
        """Linear interpolation at t, clamped to the grid range."""
        return interp(self.times, self.values, t)


def interp(times: np.ndarray, values: np.ndarray, t: float) -> np.ndarray:
    """Linear interpolation at t, clamped to the grid range; inputs are not checked."""
    if len(times) == 1:
        return values[0]
    i = int(np.searchsorted(times, t, side="right")) - 1
    i = min(max(i, 0), len(times) - 2)
    t0, t1 = times[i], times[i + 1]
    w = (t - t0) / (t1 - t0)
    w = min(max(w, 0.0), 1.0)
    return (1.0 - w) * values[i] + w * values[i + 1]


def as_signal(source) -> Callable[[float], np.ndarray]:
    """Adapt a TimeSeries or a plain callable t -> value to a callable."""
    if isinstance(source, TimeSeries):
        return source.at
    if callable(source):
        return source
    raise ConfigurationError(
        f"expected a TimeSeries or a callable signal, got {type(source).__name__}")
