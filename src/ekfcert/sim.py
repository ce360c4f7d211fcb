"""Trajectory experiments that exercise a filter run and its certificate.

The virtual system dz/dt = f(z,t) - K(t)(h(z,t) - y(t)) has both the true
state and the filter estimate as particular solutions, so every statement
about the filter's convergence is a statement about pairs of its
trajectories. A filter run on a truth start (``integrate_ekf(config,
x0=..., starts=...)``) integrates the truth and the virtual copies as rows
of its own state, under each stage's own gain and output; the experiments
here read those rows. On a finished run without them, ``integrate_virtual``
integrates copies as rows of one RK4 run on the filter's grid under its
gains interpolated onto the stage times, an O(h^2) approximation. The
module measures weighted and Euclidean inter-trajectory distances, fits
decay rates, and checks the certified error envelope and disturbance ball.

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
from .ekf import (FilterTrajectory, _product, _starts, _virtual_flow, divergence_guard,
                  integrate)
from .errors import ConfigurationError
from .model import (SystemModel, _finite, _jacobian_stage, _scalar, _stacked_jacobians,
                    _state)
from .ode import TimeSeries, interp, stage_table, time_grid

# absolute slack when comparing a near-zero steady radius against a zero ball
BALL_TOL = 1e-8
FIT_WINDOW = (0.1, 0.9)   # fractions of the horizon fit_exponential_rate fits over
FIT_FLOOR = 1e-12         # numerical zero: the log of smaller values would swamp the fit
RATE_SLACK = 0.9          # twin_decay passes a fitted rate >= RATE_SLACK * 2 gamma
BALL_RATE_RULE = "positive and finite"   # perturbed_run's gamma: its ball divides by it


@dataclass
class Disturbance:
    """Additive state disturbance b(x, t), an (n,) array, with a declared uniform bound.

    ``b_max`` must dominate ||b(x,t)|| at every point a run evaluates;
    violations observed during integration raise PreconditionError.
    """

    b: Callable[[np.ndarray, float], np.ndarray]
    b_max: float

    def __post_init__(self):
        self.b_max = _scalar(self.b_max, "b_max")


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
                    step: float) -> TimeSeries:
    """Integrate dx/dt = f(x, t) alone; the nodes equal the truth row of a filter
    run from the same start on the same grid bit for bit (``integrate_ekf(config,
    x0=x0)``, which also reads the measured output from it)."""
    x0 = _state(x0, model.state_dim, "x0")
    grid = time_grid(horizon, step)
    states = integrate(lambda t, s: model.f(s, t) if _finite(s) else np.full_like(s, np.nan),
                       x0, grid, divergence_guard("truth"))
    return TimeSeries(grid, states)


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
    """Integrate virtual copies of a finished filter run, one per state of the B >= 1
    ``starts``.

    dz/dt = f(z,t) - K(t)(h(z,t) - y(t)) [+ b(z,t)], with the run's gains
    interpolated onto its RK4 stage times and the outputs it read there
    (the measurement is not evaluated again), as one RK4 run on its grid;
    returns the (m, B, n) nodes. The interpolated gains make this an O(h^2)
    approximation of the rows a filter run integrates itself (its
    ``starts``). Each row is checked by the divergence guard on its own, so
    a run stops where its first row would fail alone.
    """
    Z0 = _starts(starts, model.state_dim)
    stage_inputs = _stage_inputs(filter_run)
    rows, check = _virtual_flow(model, disturbance, _product(model.state_dim))
    nodes = integrate(lambda t, Z: rows(t, Z, *stage_inputs(t), np.empty_like(Z)), Z0,
                      filter_run.times, divergence_guard("virtual state"))
    check()
    return nodes


def _virtual_rows(model: SystemModel, filter_run: FilterTrajectory, starts: list,
                  disturbance: Disturbance | None = None) -> np.ndarray:
    """The (m, B, n) virtual rows from ``starts``: the run's own rows when it integrated
    exactly these starts under this disturbance, else ``integrate_virtual`` on it."""
    if (filter_run.virtual is not None and filter_run.disturbance is disturbance
            and filter_run.virtual[0].tobytes() == np.asarray(starts).tobytes()):
        return filter_run.virtual
    return integrate_virtual(model, filter_run, starts, disturbance)


def _weighted_sq(covs: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted squared lengths delta_k^T P_k^{-1} delta_k and the solves P_k^{-1} delta_k."""
    sol = np.linalg.solve(covs, delta[:, :, None])[:, :, 0]
    return np.einsum("ij,ij->i", delta, sol), sol


def twin_decay(model: SystemModel, filter_run: FilterTrajectory,
               z1_0: np.ndarray, z2_0: np.ndarray, *,
               certificate: ContractionCertificate | None = None) -> ExperimentRun:
    """Two virtual trajectories under the filter's gain; distance decay.

    The twins are two virtual rows: the run's own when it integrated exactly
    these two starts (``integrate_ekf(..., starts=[z1_0, z2_0])``), else the
    rows of ``integrate_virtual`` on it. The weighted squared distance (z1-z2)^T P(t)^{-1} (z1-z2) should decay at
    rate 2 gamma inside the certified region; its fitted rate is returned
    in the run. When a certificate is supplied, membership of both initial
    points in the weighted basin (d^T P(0)^{-1} d <= rho^2/p_hi) is
    recorded in info["within_basin"]; an outside start is flagged, not
    fatal.
    """
    z1_0, z2_0 = _state(z1_0, model.state_dim, "z1_0"), _state(z2_0, model.state_dim, "z2_0")
    times = filter_run.times
    Z = _virtual_rows(model, filter_run, [z1_0, z2_0])
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


def envelope_check(filter_run: FilterTrajectory,
                   certificate: ContractionCertificate) -> EnvelopeReport:
    """Compare ||xhat(t) - x(t)|| against its certified exponential envelope.

    The truth x is the run's own truth row, so the run must have been made
    on a truth start (``integrate_ekf(config, x0=...)``). The envelope is
    envelope_factor * ||e(0)|| * exp(-gamma t). The initial error must lie
    inside basin_euclid for the certificate to apply; membership is
    reported, and the check proceeds either way.
    """
    if filter_run.truth is None:
        raise ConfigurationError("envelope_check needs a filter run on a truth start x0")
    times = filter_run.times
    err = np.linalg.norm(filter_run.states - filter_run.truth, axis=1)
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
    (0, q_lo / (2 p_hi)]. The disturbed copy is one virtual row: the run's
    own when it integrated exactly [z0] under this disturbance, else the row
    of ``integrate_virtual`` on it.
    """
    gamma = _rate(gamma, filter_run.config.q_lo, filter_run.p_hi, BALL_RATE_RULE)
    z0 = _state(z0, model.state_dim, "z0")
    times = filter_run.times
    z = _virtual_rows(model, filter_run, [z0], disturbance)[:, 0]
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
    The virtual row reads the run's gains interpolated onto the stage times
    and its ``stage_outputs``, as ``integrate_virtual`` does.
    """
    n = model.state_dim
    z0 = _state(z0, n, "z0")
    dz0 = np.ones(n) / math.sqrt(n) if dz0 is None else _state(dz0, n, "dz0")
    stage_inputs = _stage_inputs(filter_run)
    dot = _product(n)

    def rhs(t: float, s: np.ndarray) -> np.ndarray:
        z, dz = s[:n], s[n:]
        K, y = stage_inputs(t)
        return _jacobian_stage(model, z, t, _finite(s), lambda A, C, f, h: np.concatenate(
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
