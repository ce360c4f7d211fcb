"""Trajectory experiments that exercise a filter run and its certificate.

The virtual system dz/dt = f(z,t) - K(t)(h(z,t) - y(t)) has both the true
state and the filter estimate as particular solutions, so every statement
about the filter's convergence is a statement about pairs of its
trajectories. A filter run integrates the truth and the virtual copies as
rows of its own state, under each stage's own gain and output
(``integrate_ekf(config, x0=..., starts=..., disturbance=...)``); the
experiments here read those rows and refuse a run without them. The module
measures weighted and Euclidean inter-trajectory distances, fits decay
rates, and checks the certified error envelope and disturbance ball.

``variational_validator`` alone integrates on a finished run: its (z, dz)
pair reads the run's gains interpolated onto the RK4 stage times and the
outputs the run read there, an O(h^2) approximation. Its RK4 stage reads A
and C as the filter's does (model._stage_jacobians), then calls f and h, so
a non-finite Jacobian or stage state raises ModelEvaluationError at the
stage's time before f or h is called. A step's first stage runs at its node,
which the guard has passed, so it reads its state as finite, and its A and C
serve the contraction matrix there; after the run A and C are evaluated only
at the last node and, as one stack, at the filter's. At n = p = 1 the stage
forms f - K (h - y) and (A - K C) dz on Python floats, as the filter's stage
does (ekf._scalar_flow, ekf._scalar_tangent), with the bits of ndarray.dot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .contraction import ContractionCertificate, _contraction_matrices, _rate
from .ekf import (FilterTrajectory, TimeSeries, _scalar_flow, _scalar_tangent, divergence_guard,
                  integrate, interp, stage_table, time_grid)
from .errors import ConfigurationError
from .model import (SystemModel, _call, _finite, _scalar, _stacked_jacobians, _stage_jacobians,
                    _state)

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


def _weighted_sq(covs: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted squared lengths delta_k^T P_k^{-1} delta_k and the solves P_k^{-1} delta_k."""
    sol = np.linalg.solve(covs, delta[:, :, None])[:, :, 0]
    return np.einsum("ij,ij->i", delta, sol), sol


def _run_rows(filter_run: FilterTrajectory, caller: str, count: int, call: str) -> np.ndarray:
    """The run's (m, count, n) virtual rows, or a ConfigurationError naming the
    ``caller``, the ``call`` that makes such a run and how many rows this one has."""
    rows = 0 if filter_run.virtual is None else filter_run.virtual.shape[1]
    if rows != count:
        raise ConfigurationError(f"{caller} needs a filter run with {count} virtual "
                                 f"row{'s' * (count > 1)} ({call}), got {rows}")
    return filter_run.virtual


def _distance_run(filter_run: FilterTrajectory, delta: np.ndarray) -> ExperimentRun:
    """The ExperimentRun of the differences ``delta`` (m, n) on the run's grid: their weighted
    squared and Euclidean lengths and the weighted series' fitted rate, with an empty info."""
    weighted, _ = _weighted_sq(filter_run.covariances, delta)
    return ExperimentRun(times=filter_run.times, weighted_dist=weighted,
                         euclid_dist=np.linalg.norm(delta, axis=1),
                         fitted_rate=fit_exponential_rate(filter_run.times, weighted))


def twin_decay(filter_run: FilterTrajectory, *,
               certificate: ContractionCertificate | None = None) -> ExperimentRun:
    """Two virtual trajectories under the filter's gain; distance decay.

    The twins are the run's two virtual rows (``integrate_ekf(...,
    starts=[z1_0, z2_0])``). The weighted squared distance (z1-z2)^T
    P(t)^{-1} (z1-z2) should decay at rate 2 gamma inside the certified
    region; its fitted rate is returned in the run. When a certificate is
    supplied, membership of both initial points in the weighted basin
    (d^T P(0)^{-1} d <= rho^2/p_hi) is recorded in info["within_basin"]; an
    outside start is flagged, not fatal.
    """
    Z = _run_rows(filter_run, "twin_decay", 2, "integrate_ekf(..., starts=[z1_0, z2_0])")
    run = _distance_run(filter_run, Z[:, 0] - Z[:, 1])
    rate, info = run.fitted_rate, run.info
    info["fitted_rate_euclid"] = fit_exponential_rate(run.times, run.euclid_dist)
    if certificate is not None:
        w = _weighted_sq(filter_run.covariances[[0, 0]], Z[0] - filter_run.states[0])[0]
        info["within_basin"] = not math.isfinite(certificate.rho) or bool(
            (w <= certificate.rho ** 2 / certificate.p_hi * (1.0 + 1e-12)).all())
        info["rate_pass"] = (None if math.isnan(rate)   # no signal
                             else bool(rate >= 2.0 * certificate.gamma * RATE_SLACK))
    return run


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
        passed=bool(within and margins[worst] >= 0.0))


def perturbed_run(filter_run: FilterTrajectory, *,
                  gamma: float | None = None) -> ExperimentRun:
    """Virtual trajectory with additive disturbance; steady-state ball.

    The disturbed copy dz/dt = f - K(h - y) + b(z,t) is the run's one
    virtual row under its disturbance (``integrate_ekf(..., starts=[z0],
    disturbance=...)``). Reports the supremum of ||z - xhat|| over the
    trailing third of the horizon, compared against two candidate ball
    radii: sqrt(p_hi/p_lo) * gamma * b_max and sqrt(p_hi/p_lo) * b_max /
    gamma. Only the second (the standard gain/rate form) drives the pass
    flag; both are reported. ``gamma`` defaults to q_lo / (4 p_hi); the ball
    divides by it, so it must lie in (0, q_lo / (2 p_hi)].
    """
    call = "integrate_ekf(..., starts=[z0], disturbance=...)"
    z = _run_rows(filter_run, "perturbed_run", 1, call)[:, 0]
    disturbance = filter_run.disturbance
    if disturbance is None:
        raise ConfigurationError(
            f"perturbed_run needs a filter run with a disturbance ({call}), got none")
    gamma = _rate(gamma, filter_run.config.q_lo, filter_run.p_hi, BALL_RATE_RULE)
    run = _distance_run(filter_run, z - filter_run.states)
    steady = float(run.euclid_dist[run.times >= (2.0 / 3.0) * run.times[-1]].max())
    factor = math.sqrt(filter_run.p_hi / filter_run.p_lo)
    ball_standard = factor * disturbance.b_max / gamma
    ball_printed = factor * disturbance.b_max * gamma
    run.info.update(
        steady_radius=steady, ball_standard=ball_standard, ball_printed=ball_printed,
        within_standard=bool(steady <= ball_standard + BALL_TOL),
        within_printed=bool(steady <= ball_printed + BALL_TOL),
        b_max=disturbance.b_max, gamma=gamma, factor=factor)
    return run


def variational_validator(model: SystemModel, filter_run: FilterTrajectory,
                          z0: np.ndarray, *, dz0: np.ndarray | None = None) -> float:
    """Consistency of d/dt(dz^T P^{-1} dz) with dz^T P^{-1} (M - 2N - 2 beta P) P^{-1} dz.

    Propagates a variational state along the linearized virtual flow
    dz' = (A(z,t) - K(t) C(z,t)) dz next to its virtual row z on the
    filter's grid, differentiates the weighted squared length numerically
    in time, and compares it at every interior grid node against the
    quadratic form of the contraction matrix less the run's own
    inflation 2N + 2 beta P, which the flow of P carries (zero on an
    uninflated run). Returns the maximum absolute deviation relative to
    the largest magnitude of the quadratic form (the two sides agree up
    to O(step^2)).
    One stacked solve S = P^{-1} dz serves both dz^T S and the form S^T M S.
    The virtual row reads the run's gains interpolated onto the stage times
    and its ``stage_outputs``; at n = p = 1 the stage reads each as a
    Python float and runs on floats with the bits of ndarray.dot. M
    reads A and C at (z_k, t_k) from step k's first stage, at the last node
    and the filter's nodes from evaluations after the run.
    """
    n, p = model.state_dim, model.output_dim
    z0 = _state(z0, n, "z0")
    dz0 = np.ones(n) / math.sqrt(n) if dz0 is None else _state(dz0, n, "dz0")
    grid = filter_run.times
    times, read_stage = stage_table(grid)   # the gains per call, since the run's may change
    gains, outputs = interp(grid, filter_run.gains, times), filter_run.stage_outputs
    scalar = n == p == 1   # a one-state, one-output stage runs on Python floats
    Az, Cz = np.empty((len(grid), n, n)), np.empty((len(grid), p, n))

    def rhs(t: float, s: np.ndarray) -> np.ndarray:
        z, dz = s[:n], s[n:]
        stage, row = read_stage(t)
        A, C = _stage_jacobians(model, z, t, stage == 0 or _finite(s))   # a node is finite
        if stage == 0:
            Az[row >> 1], Cz[row >> 1] = A, C
        if scalar:
            k = gains.item(row)
            return np.array([_scalar_flow(model, z, t, k, outputs.item(row)),
                             _scalar_tangent(A.item(), k, C.item(), dz.item())])
        K, y = gains[row], outputs[row]
        return np.concatenate([_call(model.dynamics, z, t, (n,), "dynamics")
                               - K.dot(_call(model.output, z, t, (p,), "output") - y),
                               (A - K.dot(C)).dot(dz)])

    nodes = integrate(rhs, np.concatenate([z0, dz0]), grid,
                      divergence_guard("variational state"))
    zs, dzs = nodes[:, :n], nodes[:, n:]
    Az[-1:], Cz[-1:] = _stacked_jacobians(model, zs[-1:], grid[-1])

    covs = filter_run.covariances
    w, S = _weighted_sq(covs, dzs)
    Ah, Ch = _stacked_jacobians(model, filter_run.states, grid)
    config = filter_run.config
    M = (_contraction_matrices(Ah, Ch, Az, Cz, covs, config.Q, config.R)
         - 2.0 * config.N - 2.0 * config.beta * covs)
    # a stacked matmul, not einsum, keeps each node's rounding that of S_k @ (M_k @ S_k)
    quad = (S[:, None, :] @ (M @ S[:, :, None]))[:, 0, 0]

    h = grid[1] - grid[0]
    dw = (w[2:] - w[:-2]) / (2.0 * h)
    diff = np.abs(dw - quad[1:-1])
    scale = max(float(np.abs(quad[1:-1]).max()), 1e-30)
    return float(diff.max() / scale)
