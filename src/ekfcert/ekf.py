"""Continuous-time extended Kalman filter driven by a measurement signal.

The estimate and the Riccati covariance are integrated jointly with a
fixed-step fourth-order Runge-Kutta scheme:

    dxhat/dt = f(xhat, t) - K(t) (h(xhat, t) - y(t)),   K = P C^T R^{-1}
    dP/dt    = A P + P A^T + Q - P C^T R^{-1} C P + 2 N + 2 beta P

with A, C the Jacobians of f and h along the estimate. The 2N and 2 beta P
terms are optional inflation of the covariance flow; both default to off.
R is constant, so a run forms R^{-1} once, with 2N and 2 beta, and every
RK4 stage applies it as a matrix product in the gain and the Riccati term.
P stays exactly symmetric (its start and the Riccati right-hand side are
symmetrized) and is checked for positive definiteness after every step,
since every guarantee downstream is conditioned on uniform bounds
p_lo I <= P(t) <= p_hi I holding along the run.

A stage calls each model callback once (model._jacobian_stage). With
analytic Jacobians and a finite state it checks A and C for finiteness only
when its (n + 1, n) derivative is not finite, which a non-finite entry of
either makes it, so it fails as eval_jacobians would. A node gets the
estimate's divergence guard, a finiteness check of P and a Cholesky
factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, CovarianceBoundViolation, DivergenceError
from .model import SystemModel, _finite, _jacobian_stage, _state, eval_jacobians
from .ode import TimeSeries, interp, rk4_step, stage_table, time_grid

# states beyond this magnitude are treated as numerical blow-up
DIVERGENCE_LIMIT = 1e12

Flow = Callable[[float, np.ndarray], np.ndarray]


def integrate(rhs: Flow, y0: np.ndarray, grid: np.ndarray, guard: Flow) -> np.ndarray:
    """The package's one RK4 driver; returns the (len(grid), *y0.shape) nodes.

    ``guard(t, y)`` checks each new node, raises on failure and returns the
    node to store and continue from. ``rk4_step`` must stay a global of this
    module: perfbench/probe.py replaces it to stop a run at its first step.
    Overflow warnings are off: the guards report non-finite values as failures.
    """
    nodes = np.empty((len(grid), *y0.shape))
    nodes[0] = y = y0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(grid) - 1):
            y = guard(grid[k + 1], rk4_step(rhs, grid[k], y, grid[k + 1] - grid[k]))
            nodes[k + 1] = y
    return nodes


def divergence_guard(what: str) -> Flow:
    """Guard that raises DivergenceError naming ``what`` and the node time
    at a non-finite node or one of norm above DIVERGENCE_LIMIT. Each row of
    a stacked (B, n) node is checked on its own, as it would be alone. A node
    passes on one check when its sum of squares is at most DIVERGENCE_LIMIT^2
    / 4 (no row can then exceed the limit, whatever the rounding)."""
    def guard(t: float, y: np.ndarray) -> np.ndarray:
        if not np.vdot(y, y) <= 0.25 * DIVERGENCE_LIMIT ** 2:
            for row in (y,) if y.ndim == 1 else y:
                if not np.isfinite(row).all() or np.linalg.norm(row) > DIVERGENCE_LIMIT:
                    raise DivergenceError(f"{what} diverged at t={t:.6g}", time=float(t))
        return y
    return guard


def _check_spd(M: np.ndarray, name: str, dim: int, allow_zero: bool = False) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != (dim, dim):
        raise ConfigurationError(f"{name} must have shape ({dim}, {dim}), got {M.shape}")
    if not np.isfinite(M).all():
        raise ConfigurationError(f"{name} must be finite, got {M.tolist()}")
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
        Process noise weight, finite symmetric positive definite. Its smallest
        eigenvalue is the q_lo entering every certificate.
    R : (p, p) array
        Measurement noise weight, finite symmetric positive definite.
    P0 : (n, n) array
        Initial covariance, finite symmetric positive definite.
    x0 : (n,) array
        Initial estimate, finite.
    horizon : float
        Integration horizon T > 0; the run covers [0, T].
    step : float, optional
        Fixed integrator step. Defaults to horizon / 2000.
    beta : float
        Rate of the exponential covariance inflation term 2 beta P.
    N : (n, n) array, optional
        Constant additive inflation, finite symmetric positive semidefinite.
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
        self.x0 = _state(self.x0, n, "x0")
        if not 0.0 < self.horizon < math.inf:
            raise ConfigurationError(f"horizon must be positive and finite, got {self.horizon}")
        if self.step is None:
            self.step = self.horizon / 2000.0
        if not 0.0 < self.step <= self.horizon:
            raise ConfigurationError(f"step must lie in (0, horizon], got {self.step}")
        if not 0.0 <= self.beta < math.inf:
            raise ConfigurationError(f"beta must be nonnegative and finite, got {self.beta}")
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


def _gain(P: np.ndarray, C: np.ndarray, Rinv: np.ndarray) -> np.ndarray:
    """K = P C^T R^{-1} = (R^{-1} (C P))^T, for one (P, C) pair or for stacks of them."""
    return (Rinv @ (C @ P)).swapaxes(-1, -2)


def _riccati(P: np.ndarray, A: np.ndarray, C: np.ndarray, Q: np.ndarray,
             Rinv: np.ndarray, N2: np.ndarray | None, beta2: float) -> np.ndarray:
    """A P + P A^T + Q - (P C^T) R^{-1} (P C^T)^T [+ 2N] [+ 2 beta P], symmetrized;
    takes R^{-1}, 2N (or None) and 2 beta."""
    PCt = P @ C.T
    dP = A @ P + P @ A.T + Q - PCt @ (Rinv @ PCt.T)
    if N2 is not None:
        dP = dP + N2
    if beta2 != 0.0:
        dP = dP + beta2 * P
    return 0.5 * (dP + dP.T)


def kalman_gain(P: np.ndarray, C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Gain K = P C^T R^{-1}, for one (P, C) pair or for stacks of them; inverts R
    on each call (a filter run inverts it once)."""
    return _gain(P, C, np.linalg.inv(R))


def riccati_rhs(P: np.ndarray, A: np.ndarray, C: np.ndarray, Q: np.ndarray,
                R: np.ndarray, N: np.ndarray | None = None,
                beta: float = 0.0) -> np.ndarray:
    """Right-hand side of the (optionally inflated) Riccati flow, symmetrized;
    inverts R on each call (a filter run inverts it once)."""
    return _riccati(P, A, C, Q, np.linalg.inv(R), None if N is None else 2.0 * N,
                    2.0 * beta)


@dataclass
class FilterTrajectory:
    """A completed filter run: node values, gains and the measured outputs it read.

    ``states`` has shape (m, n), ``covariances`` (m, n, n) and ``gains``
    (m, n, p) over the m grid nodes in ``times``; the first two are views of
    the integrated (m, n + 1, n) rows [xhat; P]. ``stage_outputs`` (2m - 1, p)
    holds the measured output y at the distinct RK4 stage times of the run,
    in the rows of ``ode.stage_table(times)``. The configuration is kept so
    downstream consumers (virtual system, certifier) can re-derive gains and
    innovations without re-integrating.
    """

    times: np.ndarray
    states: np.ndarray
    covariances: np.ndarray
    gains: np.ndarray
    config: FilterConfig
    stage_outputs: np.ndarray
    p_lo: float
    p_hi: float


def integrate_ekf(config: FilterConfig,
                  measurements: TimeSeries | Callable[[float], np.ndarray]) -> FilterTrajectory:
    """Run the filter over [0, horizon] against the given measurement signal.

    Parameters
    ----------
    config : FilterConfig
    measurements : TimeSeries or callable t -> (p,) array
        Measured output (a scalar is accepted when p = 1). A TimeSeries is
        interpolated linearly between its nodes, at every stage time before
        the run; a callable is evaluated exactly at the integrator stages,
        once per distinct stage time, so it must depend on t only.

    Returns
    -------
    FilterTrajectory

    Raises
    ------
    ConfigurationError
        If a measurement does not have p entries.
    DivergenceError
        If the estimate leaves the ball of radius 1e12 or becomes
        non-finite; the exception carries the first offending time.
    CovarianceBoundViolation
        If the integrated covariance loses positive definiteness; the
        exception carries the first offending time.
    """
    model = config.model
    n, p = model.state_dim, model.output_dim
    grid = time_grid(config.horizon, config.step)
    stage_times, read_stage = stage_table(grid)
    if isinstance(measurements, TimeSeries):
        shape = measurements.values.shape[1:]
        if math.prod(shape) != p:
            raise ConfigurationError(f"measurement at t=0 has shape {shape}, expected ({p},)")
        # interp stacks the bits of measurements.at at each stage time
        outputs = interp(measurements.times, measurements.values, stage_times).reshape(-1, p)
        filled = len(outputs) - 1   # the last stage-table row whose output has been read
    elif callable(measurements):
        outputs = np.empty((len(stage_times), p))
        filled = -1
    else:
        raise ConfigurationError(
            f"expected a TimeSeries or a callable signal, got {type(measurements).__name__}")
    gains = np.empty((len(grid), n, p))
    Q, Rinv, N2, beta2 = config.Q, np.linalg.inv(config.R), 2.0 * config.N, 2.0 * config.beta

    def rhs(t: float, state: np.ndarray) -> np.ndarray:
        nonlocal filled
        stage, row = read_stage(t)
        if row > filled:
            y_t = np.asarray(measurements(t), dtype=float)
            if y_t.size != p:
                raise ConfigurationError(f"measurement at t={t:.6g} has shape "
                                         f"{y_t.shape}, expected ({p},)")
            outputs[row] = y_t.reshape(p)
            filled = row
        P = state[1:]

        def derivative(A, C, f, h):
            K = _gain(P, C, Rinv)
            if stage == 0:   # a step's first stage runs at its node's state
                gains[row >> 1] = K
            dx = f - K @ (h - outputs[row])
            return np.concatenate((dx[None], _riccati(P, A, C, Q, Rinv, N2, beta2)))

        return _jacobian_stage(model, state[0], t, state, derivative)

    estimate_guard = divergence_guard("estimate")

    def guard(t: float, state: np.ndarray) -> np.ndarray:
        estimate_guard(t, state[0])
        # the full check only for a P whose squares overflow or are not finite
        if not (_finite(state[1:]) or np.isfinite(state[1:]).all()):
            raise DivergenceError(f"covariance diverged at t={t:.6g}", time=float(t))
        try:
            np.linalg.cholesky(state[1:])
        except np.linalg.LinAlgError:
            raise CovarianceBoundViolation(
                f"covariance lost positive definiteness at t={t:.6g}",
                time=float(t)) from None
        return state

    # the state is the rows [xhat; P] of one (n + 1, n) array
    nodes = integrate(rhs, np.vstack((config.x0, config.P0)), grid, guard)
    states, covs = nodes[:, 0], nodes[:, 1:]

    _, C = eval_jacobians(model, states[-1], grid[-1])
    gains[-1] = _gain(covs[-1], C, Rinv)
    eigs = np.linalg.eigvalsh(covs)
    return FilterTrajectory(times=grid, states=states, covariances=covs,
                            gains=gains, config=config, stage_outputs=outputs,
                            p_lo=float(eigs[:, 0].min()), p_hi=float(eigs[:, -1].max()))


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
