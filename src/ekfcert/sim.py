"""Trajectory experiments that exercise a filter run and its certificate.

The virtual system dz/dt = f(z,t) - K(t)(h(z,t) - y(t)) has both the true
state and the filter estimate as particular solutions, so every statement
about the filter's convergence is a statement about pairs of its
trajectories. This module integrates the truth, re-integrates virtual
copies under the filter's frozen gain schedule, measures weighted and
Euclidean inter-trajectory distances, fits decay rates, and checks the
certified error envelope and disturbance ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .contraction import ContractionCertificate, contraction_matrix
from .ekf import FilterTrajectory, divergence_guard, integrate
from .errors import ConfigurationError, PreconditionError
from .model import SystemModel, eval_jacobians
from .ode import TimeSeries, as_signal, time_grid

# absolute slack when comparing a near-zero steady radius against a zero ball
BALL_TOL = 1e-8


@dataclass
class Disturbance:
    """Additive state disturbance b(x, t) with a declared uniform bound.

    ``b_max`` must dominate ||b(x,t)|| at every point a run evaluates;
    violations observed during integration raise PreconditionError.
    """

    b: Callable[[np.ndarray, float], np.ndarray]
    b_max: float

    def __post_init__(self):
        if self.b_max < 0.0:
            raise ConfigurationError(f"b_max must be nonnegative, got {self.b_max}")


@dataclass
class ExperimentRun:
    """Record of one trajectory experiment.

    ``virtual_trajs`` holds the integrated virtual states, one (m, n)
    array per trajectory. ``weighted_dist`` is the squared weighted
    distance d^T P(t)^{-1} d per grid node between the designated pair
    (the two twins, or the virtual state and the estimate);
    ``euclid_dist`` is the plain norm ||d||. ``fitted_rate`` is the
    least-squares exponential rate of the weighted series. ``info``
    carries experiment-specific scalars (pass flags, radii, margins).
    """

    times: np.ndarray
    virtual_trajs: list
    weighted_dist: np.ndarray | None
    euclid_dist: np.ndarray | None
    fitted_rate: float
    info: dict = field(default_factory=dict)


@dataclass
class EnvelopeReport:
    """Pointwise comparison of the estimation error against its envelope."""

    times: np.ndarray
    error: np.ndarray
    envelope: np.ndarray
    margins: np.ndarray
    worst_margin: float
    worst_time: float
    initial_error: float
    within_basin: bool
    passed: bool
    gamma: float
    factor: float


def fit_exponential_rate(times: np.ndarray, values: np.ndarray,
                         window: tuple = (0.1, 0.9),
                         floor: float = 1e-12) -> float:
    """Least-squares exponential decay rate of a positive series.

    Fits log(values) ~ a - rate * t over the window [w0*T, w1*T], skipping
    entries at or below ``floor`` (numerical zeros whose log would swamp
    the fit). Returns NaN when fewer than two usable points remain.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    T = times[-1]
    mask = (times >= window[0] * T) & (times <= window[1] * T) & (values > floor)
    if mask.sum() < 2:
        return float("nan")
    slope = np.polyfit(times[mask], np.log(values[mask]), 1)[0]
    return float(-slope)


def integrate_truth(model: SystemModel, x0: np.ndarray, horizon: float,
                    step: float) -> tuple[TimeSeries, Callable[[float], np.ndarray]]:
    """Integrate dx/dt = f(x, t) and expose the measured output as a signal.

    Returns the state trajectory and a callable y(t) = h(x(t), t) where
    x(t) interpolates the trajectory linearly; for linear output maps the
    signal is exactly the interpolated output.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    grid = time_grid(horizon, step)
    states = integrate(lambda t, s: model.f(s, t), x0, grid, divergence_guard("truth"))
    traj = TimeSeries(grid, states)

    def y(t: float) -> np.ndarray:
        return model.h(traj.at(t), t)

    return traj, y


def integrate_virtual(model: SystemModel, gain_schedule, measurements,
                      z0: np.ndarray, horizon: float, step: float,
                      disturbance: Disturbance | None = None) -> TimeSeries:
    """Integrate the virtual system under a frozen gain schedule.

    dz/dt = f(z,t) - K(t)(h(z,t) - y(t)) [+ b(z,t)], with K and y
    interpolated between their grid nodes when given as series. The truth
    and the filter estimate are particular solutions of the undisturbed
    flow.
    """
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    gain = as_signal(gain_schedule)
    y = as_signal(measurements)
    b_worst = 0.0

    def rhs(t: float, z: np.ndarray) -> np.ndarray:
        K = np.asarray(gain(t), dtype=float).reshape(model.state_dim, model.output_dim)
        dz = model.f(z, t) - K @ (model.h(z, t) - y(t))
        if disturbance is not None:
            bv = np.asarray(disturbance.b(z, t), dtype=float).reshape(-1)
            nonlocal b_worst
            b_worst = max(b_worst, float(np.linalg.norm(bv)))
            dz = dz + bv
        return dz

    grid = time_grid(horizon, step)
    states = integrate(rhs, z0, grid, divergence_guard("virtual state"))
    if disturbance is not None and b_worst > disturbance.b_max * (1.0 + 1e-9) + 1e-300:
        raise PreconditionError(
            f"disturbance bound violated: observed {b_worst:.6g} > b_max {disturbance.b_max:.6g}")
    return TimeSeries(grid, states)


def _covariances_on(traj: FilterTrajectory, times: np.ndarray) -> np.ndarray:
    if len(times) == len(traj.times) and np.array_equal(times, traj.times):
        return traj.covariances
    return np.stack([traj.cov_at(float(t)) for t in times])


def _weighted_sq(covs: np.ndarray, delta: np.ndarray) -> np.ndarray:
    sol = np.linalg.solve(covs, delta[:, :, None])[:, :, 0]
    return np.einsum("ij,ij->i", delta, sol)


def _in_weighted_basin(traj: FilterTrajectory, z0: np.ndarray,
                       cert: ContractionCertificate) -> bool:
    d = np.asarray(z0, dtype=float).reshape(-1) - traj.states[0]
    w = float(d @ np.linalg.solve(traj.covariances[0], d))
    if not math.isfinite(cert.rho):
        return True
    return w <= cert.rho ** 2 / cert.p_hi * (1.0 + 1e-12)


def twin_decay(model: SystemModel, filter_run: FilterTrajectory,
               z1_0: np.ndarray, z2_0: np.ndarray,
               horizon: float | None = None, *,
               certificate: ContractionCertificate | None = None) -> ExperimentRun:
    """Two virtual trajectories under the filter's gain; distance decay.

    Both twins use the gain schedule and measurement signal of the
    completed filter run. The weighted squared distance
    (z1-z2)^T P(t)^{-1} (z1-z2) should decay at rate 2 gamma inside the
    certified region; its fitted rate is returned in the run. When a
    certificate is supplied, membership of both initial points in the
    weighted basin (d^T P(0)^{-1} d <= rho^2/p_hi) is recorded in
    info["within_basin"]; an outside start is flagged, not fatal.
    """
    if horizon is None:
        horizon = float(filter_run.times[-1])
    step = filter_run.config.step
    z1 = integrate_virtual(model, filter_run.gain_at, filter_run.measurement_signal,
                           z1_0, horizon, step)
    z2 = integrate_virtual(model, filter_run.gain_at, filter_run.measurement_signal,
                           z2_0, horizon, step)
    covs = _covariances_on(filter_run, z1.times)
    delta = z1.values - z2.values
    weighted = _weighted_sq(covs, delta)
    euclid = np.linalg.norm(delta, axis=1)
    rate = fit_exponential_rate(z1.times, weighted)
    info: dict = {
        "fitted_rate_weighted": rate,
        "fitted_rate_euclid": fit_exponential_rate(z1.times, euclid),
    }
    if certificate is not None:
        inside = (_in_weighted_basin(filter_run, z1_0, certificate)
                  and _in_weighted_basin(filter_run, z2_0, certificate))
        info["within_basin"] = inside
        info["gamma"] = certificate.gamma
        # decade-fit slack of 10% on the certified rate 2 gamma
        info["rate_pass"] = bool(math.isnan(rate) or rate >= 2.0 * certificate.gamma * 0.9)
    return ExperimentRun(times=z1.times, virtual_trajs=[z1.values, z2.values],
                         weighted_dist=weighted, euclid_dist=euclid,
                         fitted_rate=rate, info=info)


def envelope_check(filter_run: FilterTrajectory, truth: TimeSeries,
                   certificate: ContractionCertificate) -> EnvelopeReport:
    """Compare ||xhat(t) - x(t)|| against its certified exponential envelope.

    The envelope is envelope_factor * ||e(0)|| * exp(-gamma t). The
    initial error must lie inside basin_euclid for the certificate to
    apply; membership is reported, and the check proceeds either way.
    """
    times = filter_run.times
    truth_states = np.stack([truth.at(float(t)) for t in times])
    err = np.linalg.norm(filter_run.states - truth_states, axis=1)
    e0 = float(err[0])
    env = certificate.envelope_factor * e0 * np.exp(-certificate.gamma * times)
    margins = env - err
    worst = int(np.argmin(margins))
    within = e0 <= certificate.basin_euclid * (1.0 + 1e-12)
    return EnvelopeReport(
        times=times, error=err, envelope=env, margins=margins,
        worst_margin=float(margins[worst]), worst_time=float(times[worst]),
        initial_error=e0, within_basin=bool(within),
        passed=bool(within and margins[worst] >= 0.0),
        gamma=certificate.gamma, factor=certificate.envelope_factor)


def perturbed_run(model: SystemModel, filter_run: FilterTrajectory,
                  disturbance: Disturbance, z0: np.ndarray,
                  horizon: float | None = None, *,
                  certificate: ContractionCertificate | None = None,
                  gamma: float | None = None) -> ExperimentRun:
    """Virtual trajectory with additive disturbance; steady-state ball.

    Integrates dz/dt = f - K(h - y) + b(z,t) and reports the supremum of
    ||z - xhat|| over the trailing third of the horizon, compared against
    two candidate ball radii: sqrt(p_hi/p_lo) * gamma * b_max and
    sqrt(p_hi/p_lo) * b_max / gamma. Only the second (the standard
    gain/rate form) drives the pass flag; both are reported.
    """
    if horizon is None:
        horizon = float(filter_run.times[-1])
    if gamma is None:
        gamma = (certificate.gamma if certificate is not None
                 else filter_run.config.q_lo / (4.0 * filter_run.p_hi))
    if gamma <= 0.0:
        raise ConfigurationError(f"gamma must be positive, got {gamma}")
    z = integrate_virtual(model, filter_run.gain_at, filter_run.measurement_signal,
                          z0, horizon, filter_run.config.step, disturbance=disturbance)
    xhat = np.stack([filter_run.state_at(float(t)) for t in z.times])
    delta = z.values - xhat
    euclid = np.linalg.norm(delta, axis=1)
    covs = _covariances_on(filter_run, z.times)
    weighted = _weighted_sq(covs, delta)

    tail = z.times >= (2.0 / 3.0) * z.times[-1]
    steady = float(euclid[tail].max())
    factor = math.sqrt(filter_run.p_hi / filter_run.p_lo)
    ball_standard = factor * disturbance.b_max / gamma
    ball_printed = factor * disturbance.b_max * gamma
    info = {
        "steady_radius": steady,
        "ball_standard": ball_standard,
        "ball_printed": ball_printed,
        "within_standard": bool(steady <= ball_standard + BALL_TOL),
        "within_printed": bool(steady <= ball_printed + BALL_TOL),
        "b_max": disturbance.b_max,
        "gamma": gamma,
        "factor": factor,
    }
    return ExperimentRun(times=z.times, virtual_trajs=[z.values],
                         weighted_dist=weighted, euclid_dist=euclid,
                         fitted_rate=fit_exponential_rate(z.times, weighted),
                         info=info)


def variational_validator(model: SystemModel, filter_run: FilterTrajectory,
                          z0: np.ndarray, horizon: float | None = None, *,
                          step: float | None = None,
                          dz0: np.ndarray | None = None) -> float:
    """Consistency of d/dt(dz^T P^{-1} dz) with dz^T P^{-1} M P^{-1} dz.

    Propagates a variational state along the linearized virtual flow
    dz' = (A(z,t) - K(t) C(z,t)) dz, differentiates the weighted squared
    length numerically in time, and compares it at every interior grid
    node against the quadratic form of the contraction matrix. Returns
    the maximum absolute deviation relative to the largest magnitude of
    the quadratic form (the two sides agree up to O(step^2)).
    """
    if horizon is None:
        horizon = float(filter_run.times[-1])
    if step is None:
        step = filter_run.config.step
    n = model.state_dim
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    if dz0 is None:
        dz0 = np.ones(n) / math.sqrt(n)
    else:
        dz0 = np.asarray(dz0, dtype=float).reshape(-1)
    K = filter_run.gain_at
    y = filter_run.measurement_signal

    def rhs(t: float, s: np.ndarray) -> np.ndarray:
        z, dz = s[:n], s[n:]
        A, C = eval_jacobians(model, z, t)
        Kt = K(t)
        dzdot = (A - Kt @ C) @ dz
        zdot = model.f(z, t) - Kt @ (model.h(z, t) - y(t))
        return np.concatenate([zdot, dzdot])

    grid = time_grid(horizon, step)
    m = len(grid)
    nodes = integrate(rhs, np.concatenate([z0, dz0]), grid,
                      divergence_guard("variational state"))
    zs, dzs = nodes[:, :n], nodes[:, n:]

    Q, R = filter_run.config.Q, filter_run.config.R
    covs = _covariances_on(filter_run, grid)
    w = _weighted_sq(covs, dzs)
    quad = np.empty(m)
    for k in range(m):
        M = contraction_matrix(model, zs[k], filter_run.state_at(float(grid[k])),
                               covs[k], Q, R, float(grid[k]))
        sk = np.linalg.solve(covs[k], dzs[k])
        quad[k] = sk @ (M @ sk)

    h = grid[1] - grid[0]
    dw = (w[2:] - w[:-2]) / (2.0 * h)
    diff = np.abs(dw - quad[1:-1])
    scale = max(float(np.abs(quad[1:-1]).max()), 1e-30)
    return float(diff.max() / scale)
