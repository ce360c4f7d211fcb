"""Continuous-time extended Kalman filter, run on measured data or on a simulated truth.

The estimate and the Riccati covariance are integrated jointly with a
fixed-step fourth-order Runge-Kutta scheme:

    dxhat/dt = f(xhat, t) - K(t) (h(xhat, t) - y(t)),   K = P C^T R^{-1}
    dP/dt    = A P + P A^T + Q - P C^T R^{-1} C P + 2 N + 2 beta P

with A, C the Jacobians of f and h along the estimate. The 2N and 2 beta P
terms are optional inflation of the covariance flow; both default to off.
R is constant, so a run forms R^{-1} once, with 2N and 2 beta, and every
RK4 stage applies it as a matrix product in the gain and the Riccati term;
a zero 2N is added to Q once instead, which gives the stage's bits. Every
2-D stage product is ndarray.dot: half the cost of @ with its bits, but a
product of two single entries keeps an exact zero's sign, which @ makes
+0.0, and where a NaN or an inf meets an exact zero in a (1, 1)(1, k),
(k, 1)(1, 1) or (k, 1)(1,) product, k >= 2, it gives 0 and @ NaN. At
n = p = 1 every stage product is of two single entries, which .dot returns
as their IEEE product, so that run reads Q, R^{-1} and 2N, and each stage
A, C, P, y and each callback result, once with .item() and runs the same
operations, in the same operand order, on Python floats (the float forms of
_gain, _riccati and the flows below): the bits of .dot without a numpy call
per operation. P stays exactly symmetric (its start and the Riccati
right-hand side are symmetrized) and every node's P is checked for positive
definiteness, since every guarantee downstream is conditioned on uniform
bounds p_lo I <= P(t) <= p_hi I holding along the run.

A run on a simulated truth integrates one state, the rows
[xhat; P; x; z_1 ... z_B]: each RK4 stage reads y = h(x, t) at the truth
row's own stage state and applies its gain K to the estimate and to every
virtual row dz/dt = f(z, t) - K (h(z, t) - y) [+ b(z, t)], of which the
truth and the estimate are particular solutions. _virtual_flow codes that
system once, for them and the validator, and _tangent_flow its (A - K C) dz.

Every integration of the package takes classical RK4 steps (``rk4_step``)
on a uniform grid (``time_grid``) through the one driver ``integrate``; the
run stores the outputs it reads at its RK4 stages once per distinct stage
time (``stage_table``), which the variational validator reads next to the
run's gains, carried onto the stage times by ``interp`` (linear, clamped
ends). A measured signal is a callable of t or a ``TimeSeries``, values on
a time grid that ``interp`` reads the same way.

A stage is straight-line code. After reading y it reads A and C at the
estimate (model._stage_jacobians), forms K, calls f and h there, then the
virtual rows' f and h, each result read by model._call, and writes every
row's derivative into one array. With analytic Jacobians and a finite
state, A and C are the callbacks' own results once both pass a finiteness
check; any other stage takes the checked one-row stack, so a non-finite
Jacobian raises ModelEvaluationError at the stage's time before f or h is
called. Truth or virtual rows that are not finite get a NaN derivative
without a callback; a non-finite truth makes the whole stage NaN, so the
node guard names it. A step's first stage runs at the start, whose rows are
read finite, or at a node the guard has passed, so it skips the check.

A node of sum of squares at most DIVERGENCE_LIMIT^2 / 4 has every row
finite and inside the limit and passes on that one check; any other gets
the guard of the truth, then of the estimate, a finiteness check of P, P's
definiteness (its smallest eigenvalue is positive, FilterConfig's rule for
P0) and the guard of each virtual row. One closing block, after a finished
run or before an Exception raised within it propagates, checks the stored
nodes with one batched eigvalsh, which also gives p_lo and p_hi, and then
the measurements read; a BaseException that is not an Exception propagates
without it. The disturbance bound is checked last, on the root of the
largest b.b of any stage.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (ConfigurationError, CovarianceBoundViolation, DivergenceError,
                     PreconditionError)
from .model import (MAX_COUNT, SystemModel, _array, _call, _finite, _scalar, _scalars,
                    _stacked_jacobians, _stage_jacobians, _state, _states, _times)

# states beyond this magnitude are treated as numerical blow-up
DIVERGENCE_LIMIT = 1e12

Flow = Callable[[float, np.ndarray], np.ndarray]


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


def rk4_step(rhs: Flow, t: float, y: np.ndarray, h: float) -> np.ndarray:
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

    def at(self, t: float | np.ndarray) -> np.ndarray:
        """Linear interpolation at t, read by model._times, clamped to the grid range."""
        return interp(self.times, self.values, _times(t, "t"))


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


def integrate(rhs: Flow, y0: np.ndarray, grid: np.ndarray, guard: Flow,
              nodes: np.ndarray | None = None) -> np.ndarray:
    """The package's one RK4 driver; returns the (len(grid), *y0.shape) nodes.

    ``guard(t, y)`` checks each new node, raises on failure and returns the
    node to store and continue from. The nodes are stored in ``nodes`` when
    it is given, so a caller can read those stored before a failure.
    ``rk4_step`` must stay a global of this module: perfbench/probe.py
    replaces it to stop a run at its first step. Overflow warnings are off:
    the guards report non-finite values as failures.
    """
    nodes = np.empty((len(grid), *y0.shape)) if nodes is None else nodes
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


def _check_spd(M: np.ndarray, name: str, dim: int, allow_zero: bool = False,
               rows: int | None = None, symmetric: bool = True) -> tuple[np.ndarray, float]:
    """The weight ``M`` symmetrized and its smallest eigenvalue, after model._array and the
    shape, finiteness, symmetry (if ``symmetric``) and definiteness checks; ``rows`` at once."""
    M = _array(M, name)
    shape = (dim, dim) if rows is None else (rows, dim, dim)
    if M.shape != shape:
        raise ConfigurationError(f"{name} must have shape {shape}, got {M.shape}")
    if not np.isfinite(M).all():
        k = np.argmin(np.isfinite(M).reshape(-1, dim * dim).all(axis=1))   # the first bad one
        raise ConfigurationError(f"{name}{'' if rows is None else f'[{k}]'} must be finite, "
                                 f"got {M.reshape(-1, dim, dim)[k].tolist()}")
    Mt = M.swapaxes(-1, -2)
    with np.errstate(over="ignore"):   # finite entries may sum or differ past the float range
        if symmetric and not (abs(M - Mt) <= 1e-12 + 1e-10 * abs(Mt)).all():   # np.allclose
            raise ConfigurationError(f"{name} must be symmetric")
        S = 0.5 * (M + Mt) if symmetric else 0.5 * M + 0.5 * Mt
    M = S if np.isfinite(S).all() else np.where(np.isfinite(S), S, 0.5 * M + 0.5 * Mt)
    lam = np.linalg.eigvalsh(M).reshape(-1, dim)
    lo = lam[:, 0].min(initial=math.inf)   # inf for an empty stack
    if (lo < -1e-12 * max(1.0, lam[:, -1].max())) if allow_zero else lo <= 0.0:
        raise ConfigurationError(f"{name} must be positive {'semi' if allow_zero else ''}"
                                 f"definite, min eigenvalue {lo:.3e}")
    return M, float(lo)


def _definite(times, P: np.ndarray) -> np.ndarray:
    """The eigenvalues, ascending, of the covariance stack P (k, n, n) at the nodes ``times``,
    from one eigvalsh; a CovarianceBoundViolation at the first node whose smallest is not
    positive."""
    eigs = np.linalg.eigvalsh(P)
    lost = np.flatnonzero(eigs[:, 0] <= 0.0)
    if len(lost):
        t = times[lost[0]]
        raise CovarianceBoundViolation(f"covariance lost positive definiteness at t={t:.6g}",
                                       time=float(t))
    return eigs


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
        Integration horizon T, positive and finite; the run covers [0, T].
    step : float, optional
        Fixed integrator step in (0, T], at most 10**6 steps to T. Defaults to horizon / 2000.
    beta : float
        Rate of the exponential covariance inflation term 2 beta P,
        nonnegative and finite.
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
    q_lo: float = field(init=False)   # smallest eigenvalues of Q and R
    r_lo: float = field(init=False)

    def __post_init__(self):
        n, p = self.model.state_dim, self.model.output_dim
        self.Q, self.q_lo = _check_spd(self.Q, "Q", n)
        self.R, self.r_lo = _check_spd(self.R, "R", p)
        self.P0 = _check_spd(self.P0, "P0", n)[0]
        self.x0 = _state(self.x0, n, "x0")
        self.horizon, self.beta = _scalars(horizon=self.horizon, beta=self.beta).values()
        self.step = self.horizon / 2000.0 if self.step is None else _scalar(self.step, "step")
        if self.step > self.horizon:
            raise ConfigurationError(
                f"step must be at most horizon = {self.horizon!r}, got {self.step!r}")
        _step_count(self.horizon, self.step)   # the grid's rule, before any run allocates it
        self.N = (np.zeros((n, n)) if self.N is None
                  else _check_spd(self.N, "N", n, allow_zero=True)[0])


def _gain(P, C, Rinv, scalar: bool = False):
    """K = P C^T R^{-1} = (R^{-1} (C P))^T for one (P, C) pair, through ndarray.dot; on
    Python floats with ``scalar`` (n = p = 1), with the bits of the .dot form."""
    return Rinv * (C * P) if scalar else Rinv.dot(C.dot(P)).T


def _riccati(P, A, C, Q, Rinv, N2, beta2: float, scalar: bool = False):
    """A P + P A^T + Q - (P C^T) R^{-1} (P C^T)^T [+ 2N] [+ 2 beta P], symmetrized, through
    ndarray.dot, or on Python floats with ``scalar`` in the same operand order, with the
    bits of the .dot form; takes R^{-1}, 2N (or None) and 2 beta."""
    if scalar:
        PCt, AP = P * C, A * P
        dP = AP + AP + Q - PCt * (Rinv * PCt)
    else:   # P is exactly symmetric, so P A^T = (A P)^T bit for bit
        PCt, AP = P.dot(C.T), A.dot(P)
        dP = AP + AP.T + Q - PCt.dot(Rinv.dot(PCt.T))
    if N2 is not None:
        dP = dP + N2
    if beta2 != 0.0:
        dP = dP + beta2 * P
    return 0.5 * (dP + dP) if scalar else 0.5 * (dP + dP.T)


def _virtual_flow(model: SystemModel, z: np.ndarray, t: float, K, y, scalar: bool):
    """The virtual system f(z, t) - K (h(z, t) - y), f called first: the derivative of the
    estimate, of every virtual row and of the validator's z. With ``scalar`` (n = p = 1) K
    and y are Python floats and so is the result, with the bits of the .dot form."""
    f = _call(model.dynamics, z, t, (model.state_dim,), "dynamics")
    h = _call(model.output, z, t, (model.output_dim,), "output")
    return f.item() - K * (h.item() - y) if scalar else f - K.dot(h - y)


def _tangent_flow(A, K, C, dz, scalar: bool):
    """Its linearization (A - K C) dz, on Python floats with ``scalar``, with .dot's bits."""
    return (A - K * C) * dz if scalar else (A - K.dot(C)).dot(dz)


def riccati_rhs(P: np.ndarray, A: np.ndarray, C: np.ndarray, Q: np.ndarray,
                R: np.ndarray, N: np.ndarray | None = None,
                beta: float = 0.0) -> np.ndarray:
    """Right-hand side of the (optionally inflated) Riccati flow at the symmetric part of P,
    symmetrized, with ``beta`` and ``N`` read as FilterConfig reads them; inverts R on each
    call (a run inverts it once). P, A, C, Q and R are numeric (model._array) of shapes
    (n, n), (n, n), (p, n), (n, n) and (p, p), n >= 1 from P and p >= 1 from C, and R is
    finite with a positive definite symmetric part, else a ConfigurationError naming the
    argument; Q and R are used as given. Through ndarray.dot, a NaN or inf that meets an
    exact zero in P C^T (n = 1, p >= 2) or in R^{-1} (P C^T)^T (p = 1, n >= 2) gives 0."""
    P, A, C, Q, R = (_array(a, name) for a, name in zip((P, A, C, Q, R), "PACQR"))
    n, p = (len(a) if a.ndim else 1 for a in (P, C))
    for a, name, text in ((P, "P", "(n, n), n"), (C, "C", "(p, n), p")):
        if a.ndim and not len(a):
            raise ConfigurationError(f"{name} must have shape {text} >= 1, got {a.shape}")
    for a, name, shape in zip((P, A, C, Q), "PACQ", ((n, n), (n, n), (p, n), (n, n))):
        if a.shape != shape:
            raise ConfigurationError(f"{name} must have shape {shape}, got {a.shape}")
    _check_spd(R, "R", p, symmetric=False)   # R itself is used as given
    N2 = None if N is None else 2.0 * _check_spd(N, "N", n, allow_zero=True)[0]
    return _riccati(0.5 * (P + P.T), A, C, Q, np.linalg.inv(R), N2, 2.0 * _scalar(beta, "beta"))


@dataclass
class FilterTrajectory:
    """A completed filter run: node values, gains and the outputs it read.

    ``states`` has shape (m, n), ``covariances`` (m, n, n) and ``gains``
    (m, n, p) over the m grid nodes in ``times``; the first two are views of
    the integrated rows [xhat; P]. ``truth`` (m, n) holds the truth nodes of
    a run on a truth start, ``virtual`` (m, B, n) the nodes of the virtual
    rows from its ``starts`` and ``disturbance`` the disturbance (a
    ``sim.Disturbance``) they carried; each is None when the run had none.
    These rows are the only virtual copies there are: the experiments of
    ``sim`` read them and refuse a run without the rows they need.

    ``stage_outputs`` (2m - 1, p) holds the output y at the distinct RK4
    stage times of the run, in the rows of ``stage_table(times)``. A run
    on measured data reads one y per stage time. A run on a truth start
    reads y at each stage from the truth's own stage state: a node row holds
    y at the truth node, but stages 2 and 3 of a step read two different
    truth states at the same midpoint time, and a midpoint row keeps the
    stage 3 value. ``variational_validator``, which reads this table with
    the gains interpolated onto the stage times, is therefore an O(h^2)
    approximation of such a run's own stages.

    ``p_lo`` and ``p_hi`` are the smallest and largest eigenvalues of P over
    the nodes, first reached at ``t_at_p_lo`` and ``t_at_p_hi``; a run that
    returns has p_lo > 0, since a node whose P is not definite raises. The
    configuration is kept for the certifier and the experiments, which read
    the model and the noise weights from it.
    """

    times: np.ndarray
    states: np.ndarray
    covariances: np.ndarray
    gains: np.ndarray
    config: FilterConfig
    stage_outputs: np.ndarray
    p_lo: float
    p_hi: float
    t_at_p_lo: float
    t_at_p_hi: float
    truth: np.ndarray | None = None
    virtual: np.ndarray | None = None
    disturbance: object | None = None


def integrate_ekf(config: FilterConfig,
                  measurements: TimeSeries | Callable[[float], np.ndarray] | None = None, *,
                  x0: np.ndarray | None = None, starts=None,
                  disturbance=None) -> FilterTrajectory:
    """Run the filter over [0, horizon] on measured data or on a simulated truth.

    Parameters
    ----------
    config : FilterConfig
    measurements : TimeSeries or callable t -> (p,) array, optional
        Measured output (a scalar is accepted when p = 1), evaluated exactly
        at the integrator stages, once per distinct stage time, so it must
        depend on t only. A TimeSeries gives the values of ``series.at``,
        linearly interpolated between its nodes. Give it or ``x0``, not both.
    x0 : (n,) array, optional
        True initial state. The truth dx/dt = f(x, t) is then a row of the
        run's one RK4 state, and each stage reads y = h(x, t) at the truth's
        own stage state (``FilterTrajectory.truth`` holds its nodes).
    starts : sequence of (n,) arrays, optional
        Starts of B >= 1 virtual copies, integrated as further rows under
        each stage's own gain and output (``FilterTrajectory.virtual``).
    disturbance : Disturbance, optional
        Additive b(z, t) on every virtual row, none on the truth or the
        estimate; its bound ``b_max`` must hold at every stage.

    Returns
    -------
    FilterTrajectory

    Raises
    ------
    ConfigurationError
        If a measurement does not have p entries, or a start is not a state; at the
        first measurement read that is not finite, checked as the covariance is below.
    DivergenceError
        If the truth, the estimate or a virtual row leaves the ball of radius
        1e12 or becomes non-finite, checked in that order at each node; the
        exception carries the first offending time.
    CovarianceBoundViolation
        If the integrated covariance loses positive definiteness (its
        smallest eigenvalue is not positive) at a node; the exception carries
        the first such time. It takes precedence over any later failure: the
        stored nodes are checked as one stack after the run and before any
        other Exception raised within it propagates, so a run that fails here
        may have called its callbacks past that node.
    PreconditionError
        If the disturbance exceeded its declared bound, checked after the
        covariance.
    """
    model = config.model
    n, p = model.state_dim, model.output_dim
    if (measurements is None) == (x0 is None):
        raise ConfigurationError("integrate_ekf takes either measurements or a truth start x0")
    grid = time_grid(config.horizon, config.step)
    stage_times, read_stage = stage_table(grid)
    if x0 is not None:
        x0 = _state(x0, n, "x0")
    elif isinstance(measurements, TimeSeries):   # stage times are grid values, already read
        measurements = functools.partial(interp, measurements.times, measurements.values)
    elif not callable(measurements):
        raise ConfigurationError(
            f"expected a TimeSeries or a callable signal, got {type(measurements).__name__}")
    # the rows [xhat; P; x; z_1 ... z_B] of one state, without the absent ones
    rows = [config.x0[None], config.P0] + ([] if x0 is None else [x0[None]])
    Z = n + 1 + (x0 is not None)   # the first virtual row
    if starts is not None:
        rows.append(_states(starts, n, "starts"))
    state0 = np.vstack(rows)
    virtual = range(Z, len(state0))   # the virtual rows' indices
    outputs = np.empty((len(stage_times), p))
    filled = -1   # the last stage-table row whose output has been read
    gains = np.empty((len(grid), n, p))
    Q, Rinv, N2, beta2 = config.Q, np.linalg.inv(config.R), 2.0 * config.N, 2.0 * config.beta
    if not N2.any():   # a zero 2N added to Q once gives a stage's bits (dP is -0.0 only where Q is)
        Q, N2 = Q + N2, None
    scalar = n == p == 1   # a one-state, one-output stage runs on Python floats
    if scalar:
        Q, Rinv, N2 = Q.item(), Rinv.item(), N2 if N2 is None else N2.item()
    b_sq = 0.0   # the largest ||b||^2 seen
    nodes = np.empty((len(grid), *state0.shape))
    stored = 1   # the nodes stored so far, the start included

    def rhs(t: float, state: np.ndarray) -> np.ndarray:
        nonlocal filled, b_sq
        stage, row = read_stage(t)
        finite = stage == 0 or _finite(state)   # a node is finite; one check for every row
        out = np.empty_like(state)
        if x0 is not None:   # y from the truth row's own stage state
            x = state[n + 1]
            if not (finite or _finite(x)):   # no callback sees it; the guard names the truth
                outputs[row] = np.nan
                return np.full_like(state, np.nan)
            out[n + 1] = _call(model.dynamics, x, t, (n,), "dynamics")
            outputs[row] = _call(model.output, x, t, (p,), "output")
        elif row > filled:
            y_t = np.asarray(measurements(t), dtype=float)
            if y_t.size != p:
                raise ConfigurationError(f"measurement at t={t:.6g} has shape "
                                         f"{y_t.shape}, expected ({p},)")
            outputs[row] = y_t.reshape(p)
            filled = row
        y, xhat, P = outputs[row], state[0], state[1:n + 1]
        A, C = _stage_jacobians(model, xhat, t, finite)
        if scalar:
            y, P, A, C = y.item(), P.item(), A.item(), C.item()
        K = _gain(P, C, Rinv, scalar)
        out[1:n + 1] = _riccati(P, A, C, Q, Rinv, N2, beta2, scalar)
        if stage == 0:   # a step's first stage runs at its node's state
            gains[row >> 1] = K
        out[0] = _virtual_flow(model, xhat, t, K, y, scalar)
        if not (finite or _finite(state[Z:])):   # no callback sees a non-finite state
            out[Z:] = np.nan
            return out
        # each virtual row runs the operations of a single copy, under this stage's gain
        for b in virtual:
            z = state[b]
            out[b] = _virtual_flow(model, z, t, K, y, scalar)
            if disturbance is not None:   # ||b|| = sqrt(b.b), taken once after the run
                bv = _call(disturbance.b, z, t, (n,), "disturbance")
                b_sq = max(b_sq, float(np.vdot(bv, bv)))
                out[b] = out[b] + bv
        return out

    truth_guard, estimate_guard, virtual_guard = map(
        divergence_guard, ("truth", "estimate", "virtual state"))

    def guard(t: float, state: np.ndarray) -> np.ndarray:
        nonlocal stored
        # norm <= DIVERGENCE_LIMIT / 2: every row finite and inside it; P is checked after the run
        if not np.vdot(state, state) <= 0.25 * DIVERGENCE_LIMIT ** 2:
            if x0 is not None:
                truth_guard(t, state[n + 1])
            estimate_guard(t, state[0])
            P = state[1:n + 1]
            if not np.isfinite(P).all():
                raise DivergenceError(f"covariance diverged at t={t:.6g}", time=float(t))
            _definite((t,), P[None])
            if virtual:
                virtual_guard(t, state[Z:])
        stored += 1
        return state

    try:
        integrate(rhs, state0, grid, guard, nodes)
        failure = None
    except Exception as exc:   # a BaseException (KeyboardInterrupt) skips the closing checks
        failure = exc
    # the stored nodes' P, then the measurements read, come before any failure within the run
    eigs = _definite(grid, nodes[:stored, 1:n + 1])
    bad = np.flatnonzero(~np.isfinite(outputs[:filled + 1]).all(axis=1))
    if len(bad):
        raise ConfigurationError(f"measurement at t={stage_times[bad[0]]:.6g} must be "
                                 f"finite, got {outputs[bad[0]].tolist()}")
    if failure is not None:
        raise failure
    states, covs = nodes[:, 0], nodes[:, 1:n + 1]
    b_worst = math.sqrt(b_sq)
    if disturbance is not None and b_worst > disturbance.b_max * (1.0 + 1e-9) + 1e-300:
        raise PreconditionError(f"disturbance bound violated: observed {b_worst:.6g} "
                                f"> b_max {disturbance.b_max:.6g}")
    C = _stacked_jacobians(model, states[-1:], grid[-1])[1][0]
    gains[-1] = _gain(covs[-1], C, Rinv, scalar)
    if x0 is not None:   # a node row holds y at the truth node, as stage 1 leaves the others
        outputs[-1] = model.h(nodes[-1, n + 1], grid[-1])
    lo, hi = int(np.argmin(eigs[:, 0])), int(np.argmax(eigs[:, -1]))
    return FilterTrajectory(times=grid, states=states, covariances=covs,
                            gains=gains, config=config, stage_outputs=outputs,
                            p_lo=float(eigs[lo, 0]), p_hi=float(eigs[hi, -1]),
                            t_at_p_lo=float(grid[lo]), t_at_p_hi=float(grid[hi]),
                            truth=None if x0 is None else nodes[:, n + 1],
                            virtual=None if starts is None else nodes[:, Z:],
                            disturbance=disturbance)
