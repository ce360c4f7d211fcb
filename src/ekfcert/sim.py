"""Trajectory experiments that exercise a filter run and its certificate.

The virtual system dz/dt = f(z,t) - K(t)(h(z,t) - y(t)) has both the true
state and the filter estimate as particular solutions, so every statement
about the filter's convergence is a statement about pairs of its
trajectories. This module integrates the truth, integrates virtual copies
as rows of one RK4 run on the filter's grid under its gain schedule,
measures weighted and Euclidean inter-trajectory distances, fits decay
rates, and checks the certified error envelope and disturbance ball.

The validator's RK4 stage checks Jacobians as the filter's does
(model._jacobian_stage). A truth or virtual stage whose state fails
model._finite returns a NaN derivative without calling a callback, so no
callback sees a non-finite state and the node guard names the failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .contraction import ContractionCertificate, _contraction_matrices, _rate
from .ekf import FilterTrajectory, _product, divergence_guard, integrate
from .errors import ConfigurationError, PreconditionError
from .model import SystemModel, _call, _finite, _jacobian_stage, _stacked_jacobians, _state
from .ode import TimeSeries, interp, stage_table, time_grid

# absolute slack when comparing a near-zero steady radius against a zero ball
BALL_TOL = 1e-8
FIT_WINDOW = (0.1, 0.9)   # fractions of the horizon fit_exponential_rate fits over
FIT_FLOOR = 1e-12         # numerical zero: the log of smaller values would swamp the fit
RATE_SLACK = 0.9          # twin_decay passes a fitted rate >= RATE_SLACK * 2 gamma


@dataclass
class Disturbance:
    """Additive state disturbance b(x, t), an (n,) array, with a declared uniform bound.

    ``b_max`` must dominate ||b(x,t)|| at every point a run evaluates;
    violations observed during integration raise PreconditionError.
    """

    b: Callable[[np.ndarray, float], np.ndarray]
    b_max: float

    def __post_init__(self):
        if not 0.0 <= self.b_max < math.inf:
            raise ConfigurationError(f"b_max must be nonnegative and finite, got {self.b_max}")


@dataclass
class ExperimentRun:
    """Record of one trajectory experiment on the filter run's grid.

    ``weighted_dist`` is the squared weighted distance d^T P(t)^{-1} d per
    grid node between the designated pair (the two twins, or the virtual
    state and the estimate); ``euclid_dist`` is the plain norm ||d||.
    ``fitted_rate`` is the least-squares exponential rate of the weighted
    series. ``info`` carries experiment-specific scalars (pass flags, radii,
    margins).
    """

    times: np.ndarray
    weighted_dist: np.ndarray
    euclid_dist: np.ndarray
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


def fit_exponential_rate(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares exponential decay rate of a positive series.

    Fits log(values) ~ a - rate * t over the window FIT_WINDOW of the
    horizon T, skipping entries at or below FIT_FLOOR. Returns NaN when
    fewer than two usable points remain.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    T = times[-1]
    mask = ((times >= FIT_WINDOW[0] * T) & (times <= FIT_WINDOW[1] * T)
            & (values > FIT_FLOOR))
    if mask.sum() < 2:
        return float("nan")
    slope = np.polyfit(times[mask], np.log(values[mask]), 1)[0]
    return float(-slope)


def integrate_truth(model: SystemModel, x0: np.ndarray, horizon: float,
                    step: float) -> tuple[TimeSeries, Callable[[float], np.ndarray]]:
    """Integrate dx/dt = f(x, t) and expose the measured output as a signal.

    Returns the state trajectory and a callable y(t) = h(x(t), t) where
    x(t) interpolates the trajectory linearly; for linear output maps the
    signal is exactly the interpolated output. The interpolated states at the
    RK4 stage times of the grid are tabled once and y reads the row after the
    last one read when t is its time, as a filter run reads them; other times
    interpolate, with the same bits (``interp`` stacks those of its scalar form).
    """
    x0 = _state(x0, model.state_dim, "x0")
    grid = time_grid(horizon, step)
    states = integrate(lambda t, s: model.f(s, t) if _finite(s) else np.full_like(s, np.nan),
                       x0, grid, divergence_guard("truth"))
    traj = TimeSeries(grid, states)
    times = stage_table(grid)[0]
    table = np.empty((len(times), model.state_dim))
    for a in range(0, len(times), 256):   # in blocks: no temporary as large as the table
        table[a:a + 256] = interp(grid, states, times[a:a + 256])

    after = 0   # the table row after the last one read

    def y(t: float) -> np.ndarray:
        nonlocal after
        if after < len(times) and times[after] == t:
            after += 1
            return model.h(table[after - 1], t)
        return model.h(traj.at(t), t)

    return traj, y


def _stage_inputs(filter_run: FilterTrajectory) -> Callable[[float], tuple]:
    """Reader of (K, y) at successive RK4 stages on the filter run's grid: the
    gains interpolated onto the stage times in one call (per run, since
    ``filter_run.gains`` may have changed) and the outputs the filter read there."""
    times, read_stage = stage_table(filter_run.times)
    gains = interp(filter_run.times, filter_run.gains, times)
    outputs = filter_run.stage_outputs

    def at(t: float) -> tuple[np.ndarray, np.ndarray]:
        row = read_stage(t)[1]
        return gains[row], outputs[row]

    return at


def integrate_virtual(model: SystemModel, filter_run: FilterTrajectory, starts,
                      disturbance: Disturbance | None = None) -> np.ndarray:
    """Integrate virtual copies of the filter, one per state of the B >= 1 ``starts``.

    dz/dt = f(z,t) - K(t)(h(z,t) - y(t)) [+ b(z,t)], with the gains and
    measured outputs of the completed filter run at its RK4 stage times
    (the measurement is not evaluated again), as one RK4 run on its grid;
    returns the (m, B, n) nodes. Each row is checked by the divergence
    guard on its own, so a run stops where its first row would fail alone.
    The truth and the filter estimate are particular solutions of the
    undisturbed flow.
    """
    n = model.state_dim
    Z0 = np.array([_state(z, n, f"starts[{b}]")
                   for b, z in enumerate(starts if np.iterable(starts) else [])])
    if not len(Z0):
        raise ConfigurationError(f"starts must hold at least one state, got {starts!r}")
    b_worst = 0.0
    stage_inputs = _stage_inputs(filter_run)
    dot = _product(n)

    def rhs(t: float, Z: np.ndarray) -> np.ndarray:
        K, y = stage_inputs(t)
        if not _finite(Z):
            return np.full_like(Z, np.nan)
        # each row runs the operations of a single copy
        dZ = [model.f(z, t) - dot(K, model.h(z, t) - y) for z in Z]
        if disturbance is not None:
            nonlocal b_worst
            for b, z in enumerate(Z):
                bv = _call(disturbance.b, z, t, z.shape, "disturbance")
                b_worst = max(b_worst, float(np.linalg.norm(bv)))
                dZ[b] = dZ[b] + bv
        return np.array(dZ)

    nodes = integrate(rhs, Z0, filter_run.times, divergence_guard("virtual state"))
    if disturbance is not None and b_worst > disturbance.b_max * (1.0 + 1e-9) + 1e-300:
        raise PreconditionError(
            f"disturbance bound violated: observed {b_worst:.6g} > b_max {disturbance.b_max:.6g}")
    return nodes


def _weighted_sq(covs: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted squared lengths delta_k^T P_k^{-1} delta_k and the solves P_k^{-1} delta_k."""
    sol = np.linalg.solve(covs, delta[:, :, None])[:, :, 0]
    return np.einsum("ij,ij->i", delta, sol), sol


def twin_decay(model: SystemModel, filter_run: FilterTrajectory,
               z1_0: np.ndarray, z2_0: np.ndarray, *,
               certificate: ContractionCertificate | None = None) -> ExperimentRun:
    """Two virtual trajectories under the filter's gain; distance decay.

    The twins are the two rows of one virtual run on the filter's grid. The
    weighted squared distance (z1-z2)^T P(t)^{-1} (z1-z2) should decay at
    rate 2 gamma inside the certified region; its fitted rate is returned
    in the run. When a certificate is supplied, membership of both initial
    points in the weighted basin (d^T P(0)^{-1} d <= rho^2/p_hi) is
    recorded in info["within_basin"]; an outside start is flagged, not
    fatal.
    """
    z1_0, z2_0 = _state(z1_0, model.state_dim, "z1_0"), _state(z2_0, model.state_dim, "z2_0")
    times = filter_run.times
    Z = integrate_virtual(model, filter_run, [z1_0, z2_0])
    delta = Z[:, 0] - Z[:, 1]
    weighted, _ = _weighted_sq(filter_run.covariances, delta)
    euclid = np.linalg.norm(delta, axis=1)
    rate = fit_exponential_rate(times, weighted)
    info: dict = {
        "fitted_rate_weighted": rate,
        "fitted_rate_euclid": fit_exponential_rate(times, euclid),
    }
    if certificate is not None:
        w = _weighted_sq(filter_run.covariances[[0, 0]], Z[0] - filter_run.states[0])[0]
        info["within_basin"] = not math.isfinite(certificate.rho) or bool(
            (w <= certificate.rho ** 2 / certificate.p_hi * (1.0 + 1e-12)).all())
        info["gamma"] = certificate.gamma
        info["rate_pass"] = (None if math.isnan(rate)   # no signal
                             else bool(rate >= 2.0 * certificate.gamma * RATE_SLACK))
    return ExperimentRun(times=times, weighted_dist=weighted, euclid_dist=euclid,
                         fitted_rate=rate, info=info)


def envelope_check(filter_run: FilterTrajectory, truth: TimeSeries,
                   certificate: ContractionCertificate) -> EnvelopeReport:
    """Compare ||xhat(t) - x(t)|| against its certified exponential envelope.

    The envelope is envelope_factor * ||e(0)|| * exp(-gamma t). The
    initial error must lie inside basin_euclid for the certificate to
    apply; membership is reported, and the check proceeds either way. The
    truth must be sampled on the filter run's grid.
    """
    times = filter_run.times
    if not np.array_equal(truth.times, times):
        raise ConfigurationError("the truth series must lie on the filter run's grid")
    err = np.linalg.norm(filter_run.states - truth.values, axis=1)
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
                  disturbance: Disturbance, z0: np.ndarray, *,
                  gamma: float | None = None) -> ExperimentRun:
    """Virtual trajectory with additive disturbance; steady-state ball.

    Integrates dz/dt = f - K(h - y) + b(z,t) and reports the supremum of
    ||z - xhat|| over the trailing third of the horizon, compared against
    two candidate ball radii: sqrt(p_hi/p_lo) * gamma * b_max and
    sqrt(p_hi/p_lo) * b_max / gamma. Only the second (the standard
    gain/rate form) drives the pass flag; both are reported. ``gamma``
    defaults to q_lo / (4 p_hi); the ball divides by it, so it must lie in
    (0, q_lo / (2 p_hi)]. The run is one virtual row on the filter's grid.
    """
    if gamma is not None and not gamma > 0.0:
        raise ConfigurationError(f"gamma must be positive, got {gamma}")
    gamma = _rate(gamma, filter_run.config.q_lo, filter_run.p_hi)
    z0 = _state(z0, model.state_dim, "z0")
    times = filter_run.times
    z = integrate_virtual(model, filter_run, [z0], disturbance)[:, 0]
    delta = z - filter_run.states
    euclid = np.linalg.norm(delta, axis=1)
    weighted, _ = _weighted_sq(filter_run.covariances, delta)

    tail = times >= (2.0 / 3.0) * times[-1]
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
    return ExperimentRun(times=times, weighted_dist=weighted, euclid_dist=euclid,
                         fitted_rate=fit_exponential_rate(times, weighted),
                         info=info)


def variational_validator(model: SystemModel, filter_run: FilterTrajectory,
                          z0: np.ndarray, *, dz0: np.ndarray | None = None) -> float:
    """Consistency of d/dt(dz^T P^{-1} dz) with dz^T P^{-1} M P^{-1} dz.

    Propagates a variational state along the linearized virtual flow
    dz' = (A(z,t) - K(t) C(z,t)) dz next to its virtual row z on the
    filter's grid, differentiates the weighted squared length numerically
    in time, and compares it at every interior grid node against the
    quadratic form of the contraction matrix. Returns
    the maximum absolute deviation relative to the largest magnitude of
    the quadratic form (the two sides agree up to O(step^2)).
    One stacked solve S = P^{-1} dz serves both dz^T S and the form S^T M S.
    """
    n = model.state_dim
    z0 = _state(z0, n, "z0")
    dz0 = np.ones(n) / math.sqrt(n) if dz0 is None else _state(dz0, n, "dz0")
    stage_inputs = _stage_inputs(filter_run)
    dot = _product(n)

    def rhs(t: float, s: np.ndarray) -> np.ndarray:
        z, dz = s[:n], s[n:]
        K, y = stage_inputs(t)
        return _jacobian_stage(model, z, t, s, lambda A, C, f, h: np.concatenate(
            [f - dot(K, h - y), dot(A - dot(K, C), dz)]))

    grid = filter_run.times
    nodes = integrate(rhs, np.concatenate([z0, dz0]), grid,
                      divergence_guard("variational state"))
    zs, dzs = nodes[:, :n], nodes[:, n:]

    covs = filter_run.covariances
    w, S = _weighted_sq(covs, dzs)
    Az, Cz = _stacked_jacobians(model, zs, grid)
    Ah, Ch = _stacked_jacobians(model, filter_run.states, grid)
    M = _contraction_matrices(Ah, Ch, Az, Cz, covs, filter_run.config.Q, filter_run.config.R)
    # a stacked matmul, not einsum, keeps each node's rounding that of S_k @ (M_k @ S_k)
    quad = (S[:, None, :] @ (M @ S[:, :, None]))[:, 0, 0]

    h = grid[1] - grid[0]
    dw = (w[2:] - w[:-2]) / (2.0 * h)
    diff = np.abs(dw - quad[1:-1])
    scale = max(float(np.abs(quad[1:-1]).max()), 1e-30)
    return float(diff.max() / scale)
