"""Continuous-time extended Kalman filter driven by a measurement signal.

The estimate and the Riccati covariance are integrated jointly with a
fixed-step fourth-order Runge-Kutta scheme:

    dxhat/dt = f(xhat, t) - K(t) (h(xhat, t) - y(t)),   K = P C^T R^{-1}
    dP/dt    = A P + P A^T + Q - P C^T R^{-1} C P + 2 N + 2 beta P

with A, C the Jacobians of f and h along the estimate. The 2N and 2 beta P
terms are optional inflation of the covariance flow; both default to off.
The covariance is re-symmetrized after every step and checked for positive
definiteness, since every guarantee downstream is conditioned on uniform
bounds p_lo I <= P(t) <= p_hi I holding along the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, CovarianceBoundViolation, DivergenceError
from .model import SystemModel, eval_jacobians
from .ode import TimeSeries, as_signal, interp, rk4_step, time_grid

# states beyond this magnitude are treated as numerical blow-up
DIVERGENCE_LIMIT = 1e12

Flow = Callable[[float, np.ndarray], np.ndarray]


def integrate(rhs: Flow, y0: np.ndarray, grid: np.ndarray, guard: Flow) -> np.ndarray:
    """The package's one RK4 driver; returns the (len(grid), len(y0)) nodes.

    ``guard(t, y)`` checks each new node, raises on failure and returns the
    node to store and continue from. ``rk4_step`` must stay a global of this
    module: perfbench/probe.py replaces it to stop a run at its first step.
    """
    nodes = np.empty((len(grid), len(y0)))
    nodes[0] = y = y0
    for k in range(len(grid) - 1):
        y = guard(grid[k + 1], rk4_step(rhs, grid[k], y, grid[k + 1] - grid[k]))
        nodes[k + 1] = y
    return nodes


def divergence_guard(what: str) -> Flow:
    """Guard that raises DivergenceError naming ``what`` and the node time
    at a non-finite node or one of norm above DIVERGENCE_LIMIT."""
    def guard(t: float, y: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(y)) or np.linalg.norm(y) > DIVERGENCE_LIMIT:
            raise DivergenceError(f"{what} diverged at t={t:.6g}", time=float(t))
        return y
    return guard


def _check_spd(M: np.ndarray, name: str, dim: int, allow_zero: bool = False) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != (dim, dim):
        raise ConfigurationError(f"{name} must have shape ({dim}, {dim}), got {M.shape}")
    if not np.allclose(M, M.T, rtol=1e-10, atol=1e-12):
        raise ConfigurationError(f"{name} must be symmetric")
    lam = np.linalg.eigvalsh(M)
    if allow_zero:
        if lam[0] < -1e-12 * max(1.0, lam[-1]):
            raise ConfigurationError(f"{name} must be positive semidefinite, "
                                     f"min eigenvalue {lam[0]:.3e}")
    elif lam[0] <= 0.0:
        raise ConfigurationError(f"{name} must be positive definite, "
                                 f"min eigenvalue {lam[0]:.3e}")
    return 0.5 * (M + M.T)


@dataclass
class FilterConfig:
    """Everything needed to run one filter: plant, noise weights, horizon.

    Parameters
    ----------
    model : SystemModel
        Plant whose state is estimated.
    Q : (n, n) array
        Process noise weight, symmetric positive definite. Its smallest
        eigenvalue is the q_lo entering every certificate.
    R : (p, p) array
        Measurement noise weight, symmetric positive definite.
    P0 : (n, n) array
        Initial covariance, symmetric positive definite.
    x0 : (n,) array
        Initial estimate.
    horizon : float
        Integration horizon T > 0; the run covers [0, T].
    step : float, optional
        Fixed integrator step. Defaults to horizon / 2000.
    beta : float
        Rate of the exponential covariance inflation term 2 beta P.
    N : (n, n) array, optional
        Constant additive inflation, symmetric positive semidefinite.
        Omitted means zero.
    """

    model: SystemModel
    Q: np.ndarray
    R: np.ndarray
    P0: np.ndarray
    x0: np.ndarray
    horizon: float
    step: float | None = None
    beta: float = 0.0
    N: np.ndarray | None = None

    def __post_init__(self):
        n, p = self.model.state_dim, self.model.output_dim
        self.Q = _check_spd(self.Q, "Q", n)
        self.R = _check_spd(self.R, "R", p)
        self.P0 = _check_spd(self.P0, "P0", n)
        self.x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if self.x0.shape != (n,):
            raise ConfigurationError(f"x0 must have shape ({n},), got {self.x0.shape}")
        if not self.horizon > 0.0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if self.step is None:
            self.step = self.horizon / 2000.0
        if not 0.0 < self.step <= self.horizon:
            raise ConfigurationError(f"step must lie in (0, horizon], got {self.step}")
        if self.beta < 0.0:
            raise ConfigurationError(f"beta must be nonnegative, got {self.beta}")
        if self.N is None:
            self.N = np.zeros((n, n))
        else:
            self.N = _check_spd(self.N, "N", n, allow_zero=True)

    @property
    def q_lo(self) -> float:
        return float(np.linalg.eigvalsh(self.Q)[0])

    @property
    def r_lo(self) -> float:
        return float(np.linalg.eigvalsh(self.R)[0])

    @property
    def n_lo(self) -> float:
        return float(np.linalg.eigvalsh(self.N)[0])


def kalman_gain(P: np.ndarray, C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Gain K = P C^T R^{-1}, computed via a linear solve instead of inverting R."""
    return np.linalg.solve(R, C @ P).T


def riccati_rhs(P: np.ndarray, A: np.ndarray, C: np.ndarray, Q: np.ndarray,
                R: np.ndarray, N: np.ndarray | None = None,
                beta: float = 0.0) -> np.ndarray:
    """Right-hand side of the (optionally inflated) Riccati flow, symmetrized."""
    PCt = P @ C.T
    dP = A @ P + P @ A.T + Q - PCt @ np.linalg.solve(R, PCt.T)
    if N is not None:
        dP = dP + 2.0 * N
    if beta != 0.0:
        dP = dP + 2.0 * beta * P
    return 0.5 * (dP + dP.T)


@dataclass
class FilterTrajectory:
    """A completed filter run: node values plus interpolating accessors.

    ``states`` has shape (m, n) and ``covariances`` (m, n, n) over the m
    grid nodes in ``times``. The originating configuration and measurement
    signal are kept so downstream consumers (virtual system, certifier)
    can re-derive gains and innovations without re-integrating.
    """

    times: np.ndarray
    states: np.ndarray
    covariances: np.ndarray
    gains: np.ndarray
    config: FilterConfig
    measurement_signal: Callable[[float], np.ndarray]
    p_lo: float
    p_hi: float

    def state_at(self, t: float) -> np.ndarray:
        return interp(self.times, self.states, t)

    def cov_at(self, t: float) -> np.ndarray:
        return interp(self.times, self.covariances, t)

    def gain_at(self, t: float) -> np.ndarray:
        return interp(self.times, self.gains, t)


def integrate_ekf(config: FilterConfig,
                  measurements: TimeSeries | Callable[[float], np.ndarray]) -> FilterTrajectory:
    """Run the filter over [0, horizon] against the given measurement signal.

    Parameters
    ----------
    config : FilterConfig
    measurements : TimeSeries or callable t -> (p,) array
        Measured output. A TimeSeries is interpolated linearly between its
        nodes; a callable is evaluated exactly at the integrator stages.

    Returns
    -------
    FilterTrajectory

    Raises
    ------
    DivergenceError
        If the estimate leaves the ball of radius 1e12 or becomes
        non-finite; the exception carries the first offending time.
    CovarianceBoundViolation
        If the integrated covariance loses positive definiteness; the
        exception carries the first offending time.
    """
    y = as_signal(measurements)
    model = config.model
    n = model.state_dim
    grid = time_grid(config.horizon, config.step)

    def rhs(t: float, stacked: np.ndarray) -> np.ndarray:
        xhat = stacked[:n]
        P = stacked[n:].reshape(n, n)
        P = 0.5 * (P + P.T)
        A, C = eval_jacobians(model, xhat, t)
        K = kalman_gain(P, C, config.R)
        dx = model.f(xhat, t) - K @ (model.h(xhat, t) - y(t))
        dP = riccati_rhs(P, A, C, config.Q, config.R, config.N, config.beta)
        return np.concatenate([dx, dP.ravel()])

    estimate_guard = divergence_guard("estimate")

    def guard(t: float, stacked: np.ndarray) -> np.ndarray:
        xhat = stacked[:n]
        P = stacked[n:].reshape(n, n)
        P = 0.5 * (P + P.T)
        estimate_guard(t, xhat)
        if not np.all(np.isfinite(P)):
            raise DivergenceError(f"covariance diverged at t={t:.6g}", time=float(t))
        try:
            np.linalg.cholesky(P)
        except np.linalg.LinAlgError:
            raise CovarianceBoundViolation(
                f"covariance lost positive definiteness at t={t:.6g}",
                time=float(t)) from None
        return np.concatenate([xhat, P.ravel()])

    m = len(grid)
    nodes = integrate(rhs, np.concatenate([config.x0, config.P0.ravel()]), grid, guard)
    states = nodes[:, :n]
    covs = nodes[:, n:].reshape(m, n, n)

    gains = np.empty((m, n, model.output_dim))
    for k in range(m):
        _, C = eval_jacobians(model, states[k], float(grid[k]))
        gains[k] = kalman_gain(covs[k], C, config.R)

    eigs = np.linalg.eigvalsh(covs)
    p_lo = float(eigs[:, 0].min())
    p_hi = float(eigs[:, -1].max())
    return FilterTrajectory(times=grid, states=states, covariances=covs,
                            gains=gains, config=config, measurement_signal=y,
                            p_lo=p_lo, p_hi=p_hi)


def covariance_bounds_report(traj: FilterTrajectory) -> dict:
    """Empirical covariance bounds over the run's grid nodes.

    Returns a dict with the observed eigenvalue range of P(t), the
    conditioning ratio p_hi / p_lo, and where the extremes occurred. These
    are grid-level observations, not a proof that the bounds hold between
    nodes.
    """
    eigs = np.linalg.eigvalsh(traj.covariances)
    lo_idx = int(np.argmin(eigs[:, 0]))
    hi_idx = int(np.argmax(eigs[:, -1]))
    p_lo = float(eigs[lo_idx, 0])
    p_hi = float(eigs[hi_idx, -1])
    return {
        "p_lo": p_lo,
        "p_hi": p_hi,
        "ratio": p_hi / p_lo if p_lo > 0.0 else float("inf"),
        "positive_definite": bool(p_lo > 0.0),
        "t_at_p_lo": float(traj.times[lo_idx]),
        "t_at_p_hi": float(traj.times[hi_idx]),
        "q_lo": traj.config.q_lo,
        "r_lo": traj.config.r_lo,
    }
