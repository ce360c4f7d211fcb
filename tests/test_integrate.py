"""The shared RK4 driver, its divergence guard and the one interpolator.

The ``_ref_*`` functions are the per-integrator RK4 loops, guards and
interpolators the package used before every flow went through
``ekf.integrate``, and ``_ref_ekf_virtual``, the filter loop with one
virtual row. They are kept as references: each new integrator must
reproduce its reference bit for bit.
"""

import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ekfcert as ek
import ekfcert.ekf
from ekfcert import sim
from ekfcert.contraction import _contraction_matrices
from ekfcert.ekf import interp, stage_table
from ekfcert.model import _call, _finite, _stacked_jacobians, _stage_jacobians, eval_jacobians

from conftest import random_spd

LIMIT = 1e12


# ---------------------------------------------------------------- references

def _ref_interp_path(times, values, t):
    i = np.searchsorted(times, t)
    if i <= 0:
        return values[0].copy()
    if i >= len(times):
        return values[-1].copy()
    w = (t - times[i - 1]) / (times[i] - times[i - 1])
    return (1.0 - w) * values[i - 1] + w * values[i]


def _ref_series_at(times, values, t):
    if len(times) == 1:
        return values[0]
    i = int(np.searchsorted(times, t, side="right")) - 1
    i = min(max(i, 0), len(times) - 2)
    t0, t1 = times[i], times[i + 1]
    w = (t - t0) / (t1 - t0)
    w = min(max(w, 0.0), 1.0)
    return (1.0 - w) * values[i] + w * values[i + 1]


def _ref_truth(model, x0, horizon, step):
    grid = ek.time_grid(horizon, step)
    states = np.empty((len(grid), model.state_dim))
    states[0] = x0
    x = x0
    for k in range(len(grid) - 1):
        x = ek.rk4_step(lambda t, s: model.f(s, t), grid[k], x, grid[k + 1] - grid[k])
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > LIMIT:
            raise ek.DivergenceError(f"truth diverged at t={grid[k + 1]:.6g}",
                                     time=float(grid[k + 1]))
        states[k + 1] = x
    return grid, states


def _ref_solve_gain(P, C, R):
    return np.linalg.solve(R, C @ P).T


def _ref_solve_riccati(P, A, C, Q, R, N, beta):
    PCt = P @ C.T
    dP = A @ P + P @ A.T + Q - PCt @ np.linalg.solve(R, PCt.T)
    if N is not None:
        dP = dP + 2.0 * N
    if beta != 0.0:
        dP = dP + 2.0 * beta * P
    return 0.5 * (dP + dP.T)


def _ref_ekf(config, y):
    """The flat-state filter loop, applying R^{-1} by a linear solve per use."""
    model = config.model
    n = model.state_dim
    grid = ek.time_grid(config.horizon, config.step)

    def rhs(t, stacked):
        xhat = stacked[:n]
        P = stacked[n:].reshape(n, n)
        P = 0.5 * (P + P.T)
        A, C = eval_jacobians(model, xhat, t)
        K = _ref_solve_gain(P, C, config.R)
        dx = model.f(xhat, t) - K @ (model.h(xhat, t) - y(t))
        dP = _ref_solve_riccati(P, A, C, config.Q, config.R, config.N, config.beta)
        return np.concatenate([dx, dP.ravel()])

    m = len(grid)
    states = np.empty((m, n))
    covs = np.empty((m, n, n))
    states[0] = config.x0
    covs[0] = config.P0
    stacked = np.concatenate([config.x0, config.P0.ravel()])
    for k in range(m - 1):
        stacked = ek.rk4_step(rhs, grid[k], stacked, grid[k + 1] - grid[k])
        xhat = stacked[:n]
        P = stacked[n:].reshape(n, n)
        P = 0.5 * (P + P.T)
        t_next = grid[k + 1]
        if not np.all(np.isfinite(xhat)) or np.linalg.norm(xhat) > LIMIT:
            raise ek.DivergenceError(f"estimate diverged at t={t_next:.6g}",
                                     time=float(t_next))
        if not np.all(np.isfinite(P)):
            raise ek.DivergenceError(f"covariance diverged at t={t_next:.6g}",
                                     time=float(t_next))
        try:
            np.linalg.cholesky(P)
        except np.linalg.LinAlgError:
            raise ek.CovarianceBoundViolation(
                f"covariance lost positive definiteness at t={t_next:.6g}",
                time=float(t_next)) from None
        stacked = np.concatenate([xhat, P.ravel()])
        states[k + 1] = xhat
        covs[k + 1] = P
    gains = np.empty((m, n, model.output_dim))
    for k in range(m):
        _, C = eval_jacobians(model, states[k], float(grid[k]))
        gains[k] = _ref_solve_gain(covs[k], C, config.R)
    eigs = np.linalg.eigvalsh(covs)
    return states, covs, gains, float(eigs[:, 0].min()), float(eigs[:, -1].max())


def _cholesky_fails(P):
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return True
    return False


def _eigen_lost(P):
    return np.linalg.eigvalsh(P)[0] <= 0.0


def _ref_ekf_virtual(config, y, z0, disturbance=None, lost=_cholesky_fails):
    """The flat-state loop of [xhat; P; z]: one virtual row under each stage's
    gain K = (R^{-1} (C P))^T and output, every 2-D stage product through @,
    guarded as the filter guards its rows, P lost where ``lost(P)``. Returns the
    nodes of xhat, P and z and the largest ||b|| seen."""
    model = config.model
    n = model.state_dim
    grid = ek.time_grid(config.horizon, config.step)
    Rinv = np.linalg.inv(config.R)
    b_worst = 0.0

    def rhs(t, stacked):
        nonlocal b_worst
        xhat, P, z = stacked[:n], stacked[n:n + n * n].reshape(n, n), stacked[n + n * n:]
        A, C = eval_jacobians(model, xhat, t)
        K = (Rinv @ (C @ P)).T
        PCt = P @ C.T
        dP = A @ P + P @ A.T + config.Q - PCt @ (Rinv @ PCt.T) + 2.0 * config.N
        if config.beta != 0.0:
            dP = dP + 2.0 * config.beta * P
        head = [model.f(xhat, t) - K @ (model.h(xhat, t) - y(t)), (0.5 * (dP + dP.T)).ravel()]
        if not np.all(np.isfinite(z)):   # no callback sees a non-finite state
            return np.concatenate(head + [np.full(n, np.nan)])
        dz = model.f(z, t) - K @ (model.h(z, t) - y(t))
        if disturbance is not None:
            bv = np.asarray(disturbance.b(z, t), dtype=float).reshape(-1)
            b_worst = max(b_worst, float(np.linalg.norm(bv)))
            dz = dz + bv
        return np.concatenate(head + [dz])

    m = len(grid)
    nodes = np.empty((m, n + n * n + n))
    nodes[0] = stacked = np.concatenate([config.x0, config.P0.ravel(), z0])
    for k in range(m - 1):
        stacked = ek.rk4_step(rhs, grid[k], stacked, grid[k + 1] - grid[k])
        t_next = grid[k + 1]
        xhat, P, z = stacked[:n], stacked[n:n + n * n].reshape(n, n), stacked[n + n * n:]
        if not np.all(np.isfinite(xhat)) or np.linalg.norm(xhat) > LIMIT:
            raise ek.DivergenceError(f"estimate diverged at t={t_next:.6g}",
                                     time=float(t_next))
        if not np.all(np.isfinite(P)):
            raise ek.DivergenceError(f"covariance diverged at t={t_next:.6g}",
                                     time=float(t_next))
        if lost(P):
            raise ek.CovarianceBoundViolation(
                f"covariance lost positive definiteness at t={t_next:.6g}",
                time=float(t_next))
        if not np.all(np.isfinite(z)) or np.linalg.norm(z) > LIMIT:
            raise ek.DivergenceError(f"virtual state diverged at t={t_next:.6g}",
                                     time=float(t_next))
        nodes[k + 1] = stacked
    return (nodes[:, :n], nodes[:, n:n + n * n].reshape(m, n, n), nodes[:, n + n * n:],
            b_worst)


def _ref_validator(model, run, y, z0, step, dz0=None):
    """Finiteness-only guard, and every accessor through ``_ref_interp_path``."""
    n = model.state_dim
    times = run.times
    K = lambda t: _ref_interp_path(times, run.gains.reshape(len(times), -1),
                                   t).reshape(n, model.output_dim)
    dz0 = np.ones(n) / math.sqrt(n) if dz0 is None else dz0

    def rhs(t, s):
        z, dz = s[:n], s[n:]
        A, C = eval_jacobians(model, z, t)
        Kt = K(t)
        return np.concatenate([model.f(z, t) - Kt @ (model.h(z, t) - y(t)),
                               (A - Kt @ C) @ dz])

    grid = ek.time_grid(float(times[-1]), step)
    m = len(grid)
    zs = np.empty((m, n))
    dzs = np.empty((m, n))
    zs[0], dzs[0] = z0, dz0
    s = np.concatenate([z0, dz0])
    for k in range(m - 1):
        s = ek.rk4_step(rhs, grid[k], s, grid[k + 1] - grid[k])
        if not np.all(np.isfinite(s)):
            raise ek.DivergenceError(f"variational state diverged at t={grid[k + 1]:.6g}",
                                     time=float(grid[k + 1]))
        zs[k + 1], dzs[k + 1] = s[:n], s[n:]

    if np.array_equal(grid, times):
        covs = run.covariances
    else:
        covs = np.stack([_ref_interp_path(times, run.covariances.reshape(len(times), -1),
                                          float(t)).reshape(n, n) for t in grid])
    sol = np.linalg.solve(covs, dzs[:, :, None])[:, :, 0]
    w = np.einsum("ij,ij->i", dzs, sol)
    quad = np.empty(m)
    for k in range(m):
        xhat = _ref_interp_path(times, run.states, float(grid[k]))
        M = ek.contraction_matrix(model, zs[k], xhat, covs[k], run.config.Q,
                                  run.config.R, float(grid[k]))
        sk = np.linalg.solve(covs[k], dzs[k])
        quad[k] = sk @ (M @ sk)
    h = grid[1] - grid[0]
    dw = (w[2:] - w[:-2]) / (2.0 * h)
    scale = max(float(np.abs(quad[1:-1]).max()), 1e-30)
    return float(np.abs(dw - quad[1:-1]).max() / scale)


def _ref_variational_validator(model, run, z0, dz0=None):
    """The validator with its node Jacobians evaluated after the run, as one
    stack at all of its nodes, and its stage inputs read through a closure
    over the stage table, as it stood before its steps' first stages
    supplied them."""
    n, p = model.state_dim, model.output_dim
    dz0 = np.ones(n) / math.sqrt(n) if dz0 is None else dz0
    times, read_stage = stage_table(run.times)
    gains = interp(run.times, run.gains, times)

    def stage_inputs(t):
        row = read_stage(t)[1]
        return gains[row], run.stage_outputs[row]

    def rhs(t, s):
        z, dz = s[:n], s[n:]
        K, y = stage_inputs(t)
        A, C = _stage_jacobians(model, z, t, _finite(s))
        return np.concatenate([_call(model.dynamics, z, t, (n,), "dynamics")
                               - K.dot(_call(model.output, z, t, (p,), "output") - y),
                               (A - K.dot(C)).dot(dz)])

    grid = run.times
    nodes = ek.ekf.integrate(rhs, np.concatenate([z0, dz0]), grid,
                             ek.ekf.divergence_guard("variational state"))
    zs, dzs = nodes[:, :n], nodes[:, n:]
    w, S = sim._weighted_sq(run.covariances, dzs)
    Az, Cz = _stacked_jacobians(model, zs, grid)
    Ah, Ch = _stacked_jacobians(model, run.states, grid)
    M = _contraction_matrices(Ah, Ch, Az, Cz, run.covariances, run.config.Q, run.config.R)
    quad = (S[:, None, :] @ (M @ S[:, :, None]))[:, 0, 0]
    h = grid[1] - grid[0]
    dw = (w[2:] - w[:-2]) / (2.0 * h)
    scale = max(float(np.abs(quad[1:-1]).max()), 1e-30)
    return float(np.abs(dw - quad[1:-1]).max() / scale)


# ------------------------------------------------------------------- rigs

def _dense_output_plant():
    """Two states and one output y = x0 + 0.37 x1: with both entries of C
    nonzero, C P and (P C^T)^T may round differently, so the gain and the
    Riccati term must each keep their own solve."""
    return ek.SystemModel(
        state_dim=2, output_dim=1,
        dynamics=lambda x, t: np.array([x[1], -x[0] - 0.3 * x[1] + 0.2 * x[0] ** 3]),
        output=lambda x, t: np.array([x[0] + 0.37 * x[1]]),
        jacobian_A=lambda x, t: np.array([[0.0, 1.0], [-1.0 + 0.6 * x[0] ** 2, -0.3]]),
        jacobian_C=lambda x, t: np.array([[1.0, 0.37]]))


RIGS = {
    "vanderpol-pos": dict(plant=lambda: ek.make("vanderpol-pos", mu=0.15).model,
                          x0=[0.34, 0.2], xhat0=[0.3, 0.2], z0=[0.28, 0.19],
                          horizon=3.0, step=0.01),
    "cubic-scalar": dict(plant=lambda: ek.make("cubic-scalar", eps=0.1).model,
                         x0=[0.3], xhat0=[0.0], z0=[-0.2], horizon=3.0, step=0.01),
    "dense-output": dict(plant=_dense_output_plant, x0=[0.34, 0.2], xhat0=[0.3, 0.2],
                         z0=[0.28, 0.19], horizon=3.0, step=0.01,
                         P0=[[1.0, 0.3], [0.3, 0.8]]),
}


@pytest.fixture(scope="module", params=sorted(RIGS))
def rig(request):
    spec = RIGS[request.param]
    model = spec["plant"]()
    n = model.state_dim
    x0 = np.array(spec["x0"])
    truth = ek.integrate_truth(model, x0, spec["horizon"], spec["step"])
    y = lambda t: model.h(truth.at(t), t)   # a measured signal: the interpolated output
    fc = ek.FilterConfig(model=model, Q=np.eye(n), R=np.eye(model.output_dim),
                         P0=np.array(spec.get("P0", np.eye(n))), x0=np.array(spec["xhat0"]),
                         horizon=spec["horizon"], step=spec["step"])
    return {"model": model, "x0": x0, "z0": np.array(spec["z0"]), "spec": spec,
            "truth": truth, "y": y, "fc": fc, "run": ek.integrate_ekf(fc, y)}


def _ref_gain(run):
    n, p = run.gains.shape[1:]
    return lambda t: _ref_interp_path(run.times, run.gains.reshape(len(run.times), -1),
                                      t).reshape(n, p)


# ------------------------------------------------------------ bit for bit

def test_truth_matches_reference_loop(rig):
    """On its own and as the truth row of a filter run."""
    grid, states = _ref_truth(rig["model"], rig["x0"], rig["spec"]["horizon"],
                              rig["spec"]["step"])
    assert np.array_equal(rig["truth"].times, grid)
    assert np.array_equal(rig["truth"].values, states)
    assert np.array_equal(ek.integrate_ekf(rig["fc"], x0=rig["x0"]).truth, states)


def _assert_filter_matches_reference_loop(rig, fc, run):
    model, truth = rig["model"], rig["truth"]
    y = lambda t: model.h(_ref_series_at(truth.times, truth.values, t), t)
    states, covs, gains, p_lo, p_hi = _ref_ekf(fc, y)
    assert np.array_equal(run.states, states)
    assert np.array_equal(run.covariances, covs)
    assert np.array_equal(run.gains, gains)
    assert (run.p_lo, run.p_hi) == (p_lo, p_hi)


def test_filter_matches_reference_loop(rig):
    _assert_filter_matches_reference_loop(rig, rig["fc"], rig["run"])


def test_filter_with_r_twice_the_identity_matches_reference_loop(rig):
    """R^{-1} = I / 2 applied as a product equals the solves exactly."""
    fc = dataclasses.replace(rig["fc"], R=2.0 * rig["fc"].R)
    _assert_filter_matches_reference_loop(rig, fc, ek.integrate_ekf(fc, rig["y"]))


@pytest.mark.parametrize("beta, N", [(0.25, 0.0), (0.0, 0.5), (0.25, 0.5)],
                         ids=["beta", "N", "beta-and-N"])
def test_an_inflated_filter_matches_reference_loop(rig, beta, N):
    """2N and 2 beta P in every stage: on Python floats at n = p = 1 (cubic-scalar), through
    ndarray.dot on the two-state rigs."""
    fc = dataclasses.replace(rig["fc"], beta=beta, N=N * np.eye(rig["model"].state_dim))
    _assert_filter_matches_reference_loop(rig, fc, ek.integrate_ekf(fc, rig["y"]))


def test_accessors_match_reference_interpolation(rig):
    run = rig["run"]
    m = len(run.times)
    mids = 0.5 * (run.times[1:] + run.times[:-1])
    probes = np.concatenate([run.times, mids[::7], [-1.0, run.times[-1] + 1.0]])
    for t in probes:
        t = float(t)
        assert np.array_equal(interp(run.times, run.states, t),
                              _ref_interp_path(run.times, run.states, t))
        assert np.array_equal(interp(run.times, run.covariances, t), _ref_interp_path(
            run.times, run.covariances.reshape(m, -1), t).reshape(run.covariances.shape[1:]))
        assert np.array_equal(interp(run.times, run.gains, t), _ref_gain(run)(t))


@pytest.mark.parametrize("shape", [(), (2,), (2, 3)])
def test_interp_at_one_time_equals_the_scalar_reference(shape):
    """A single time, inside, outside or on the nodes, or non-finite, gives
    the bits of ``_ref_series_at``, signed zeros and infinities included. A
    NaN is compared as NaN: when both terms of the sum are NaN, numpy's scalar
    and array additions return different operands, so its sign may differ."""
    rng = np.random.default_rng(5)
    times = np.array([0.0, 0.5, 1.25, 2.0])
    values = rng.standard_normal((len(times), *shape))
    values.flat[::3] = -0.0
    values.flat[1::5] = 0.0
    values.flat[-2:] = [np.inf, np.nan]
    probes = np.concatenate([times, 0.5 * (times[1:] + times[:-1]), rng.uniform(-1.0, 3.0, 40),
                             [-0.0, -1.0, 3.0, np.nan, np.inf, -np.inf]])
    with np.errstate(invalid="ignore"):
        for t, v in itertools.product(probes.tolist(), (values, values[:1])):
            ref, got = (np.asarray(fn(times[:len(v)], v, t)) for fn in (_ref_series_at, interp))
            assert got.shape == ref.shape
            assert np.where(np.isnan(got), np.nan, got).tobytes() == \
                np.where(np.isnan(ref), np.nan, ref).tobytes(), t


def test_series_at_reads_its_time_and_gives_the_bits_of_interp():
    """TimeSeries.at reads t by the time rule, one time or many, and interpolates at the
    times read with interp's bits: an int as its float, a list as its array."""
    series = ek.TimeSeries([0.0, 0.5, 2.0], [[1.0, -0.0], [2.0, 0.5], [-3.0, 0.0]])
    for t in (0.25, np.float64(0.7), 1, -1.0, 5, [0.1, 2.5], np.array([0.0, 0.5, 1.5])):
        expected = interp(series.times, series.values, np.asarray(t, dtype=float))
        assert series.at(t).tobytes() == expected.tobytes(), t


def test_interp_of_one_node_stacks_its_value_at_an_array_of_times():
    values = np.array([[0.5, -0.0]])
    got = interp(np.array([0.0]), values, np.array([-1.0, 0.0, 2.0]))
    assert got.shape == (3, 2)
    assert got.tobytes() == np.repeat(values, 3, axis=0).tobytes()
    assert interp(np.array([0.0]), values, 2.0).tobytes() == values[0].tobytes()


def test_a_timeseries_measurement_is_read_as_series_at(rig):
    """The filter reads a TimeSeries as the callable series.at: its stage
    outputs are the bits of series.at at the stage times, signed zeros
    included, and every flow is bit-equal to the run driven by series.at."""
    model, truth, fc = rig["model"], rig["truth"], rig["fc"]
    outputs = np.array([model.h(x, t) for t, x in zip(truth.times, truth.values)])
    outputs[::4] = -0.0
    times, _ = stage_table(truth.times)
    for series in (ek.TimeSeries(truth.times[::3], outputs[::3]),   # nodes between the stages
                   ek.TimeSeries(truth.times[:1], outputs[1:2])):    # one node: a constant
        expected = np.array([series.at(float(t)) for t in times])
        by_callable = ek.integrate_ekf(fc, series.at)
        run = ek.integrate_ekf(fc, series)
        assert run.stage_outputs.tobytes() == expected.tobytes()
        for name in ("states", "covariances", "gains", "stage_outputs"):
            assert getattr(run, name).tobytes() == getattr(by_callable, name).tobytes()


@pytest.mark.parametrize("disturbed", [False, True])
def test_virtual_row_matches_reference_loop(rig, disturbed):
    """A virtual row on measured data, with and without a disturbance, next to
    the estimate and P of the same run."""
    n = rig["model"].state_dim
    dist = None
    if disturbed:
        vec = np.full(n, 0.01)
        dist = ek.Disturbance(b=lambda z, t: vec * math.sin(2.0 * t),
                              b_max=float(np.linalg.norm(vec)))
    new = ek.integrate_ekf(rig["fc"], rig["y"], starts=[rig["z0"]], disturbance=dist)
    states, covs, zs, b_worst = _ref_ekf_virtual(rig["fc"], rig["y"], rig["z0"], dist)
    assert np.array_equal(new.states, states)
    assert np.array_equal(new.covariances, covs)
    assert np.array_equal(new.virtual[:, 0], zs)
    assert new.states.tobytes() == rig["run"].states.tobytes()
    assert b_worst > 0.0 if disturbed else b_worst == 0.0


def _three_state_two_output_filter():
    """A finite-difference plant with three states, two outputs and a
    non-diagonal R, its filter config and its measurement signal."""
    model = ek.SystemModel(
        state_dim=3, output_dim=2,
        dynamics=lambda x, t: np.array([x[1], -x[0] - 0.2 * x[1] + 0.1 * x[2] ** 2,
                                        -0.5 * x[2] + 0.3 * math.sin(x[0] + t)]),
        output=lambda x, t: np.array([x[0] + 0.1 * x[1] ** 2, x[0] * x[2]]))
    fc = ek.FilterConfig(model=model, Q=np.eye(3), R=np.array([[1.0, 0.3], [0.3, 0.5]]),
                         P0=np.eye(3) + 0.2, x0=np.array([0.5, -0.2, 0.3]),
                         horizon=2.0, step=0.01)
    return fc, lambda t: np.array([math.cos(t), 0.1 * t])


def test_gain_pass_matches_reference_loop():
    """Stacked gains equal the per-node loop (R^{-1} (C P))^T on the
    three-state, two-output rig."""
    fc, y = _three_state_two_output_filter()
    run = ek.integrate_ekf(fc, y)
    Rinv = np.linalg.inv(fc.R)
    gains = np.empty((len(run.times), 3, 2))
    for k in range(len(run.times)):
        _, C = eval_jacobians(fc.model, run.states[k], float(run.times[k]))
        gains[k] = (Rinv @ (C @ run.covariances[k])).T
    assert np.array_equal(run.gains, gains)


# largest |new - solve| / max |solve| per quantity; measured 1.6e-13 (states),
# 2.9e-13 (covariances) and 1.0e-11 (gains)
INVERSE_VS_SOLVE_BOUND = {"states": 1e-11, "covariances": 1e-11, "gains": 1e-9}


def test_filter_with_a_non_diagonal_r_stays_near_the_solve_loop():
    """Applying R^{-1} as a product rounds differently from a solve only in
    the last bits, bounded over 200 steps."""
    fc, y = _three_state_two_output_filter()
    run = ek.integrate_ekf(fc, y)
    states, covs, gains, _, _ = _ref_ekf(fc, y)
    for name, ref in (("states", states), ("covariances", covs), ("gains", gains)):
        gap = np.abs(getattr(run, name) - ref).max() / np.abs(ref).max()
        assert gap <= INVERSE_VS_SOLVE_BOUND[name], name


@pytest.mark.parametrize("refine", [1, 2])
def test_variational_validator_matches_reference_loop(rig, refine):
    """On the rig's filter run and on one with the step refined."""
    step = rig["spec"]["step"] / refine
    run = rig["run"] if refine == 1 else ek.integrate_ekf(
        dataclasses.replace(rig["fc"], step=step), rig["y"])
    new = ek.variational_validator(rig["model"], run, rig["z0"])
    assert new == _ref_validator(rig["model"], run, rig["y"], rig["z0"], step)


def _registry_run(model, horizon=3.0, step=0.01):
    """A joint run of ``model`` on the truth start 0.34 from the estimate 0.3
    in every entry, with unit weights, and that truth start."""
    n = model.state_dim
    fc = ek.FilterConfig(model=model, Q=np.eye(n), R=np.eye(model.output_dim), P0=np.eye(n),
                         x0=np.full(n, 0.3), horizon=horizon, step=step)
    x0 = np.full(n, 0.34)
    return ek.integrate_ekf(fc, x0=x0), x0


@pytest.mark.parametrize("start", ["truth", "seeded"])
@pytest.mark.parametrize("jacobians", ["analytic", "differences"])
@pytest.mark.parametrize("entry", ek.registry(), ids=lambda e: e.name)
def test_the_validator_reads_its_node_jacobians_from_its_first_stages(entry, jacobians, start):
    """Bit for bit against the stacked evaluation at every node, with analytic
    Jacobians and as a finite-difference twin, from the truth start and
    from a seeded one."""
    model = entry.model if jacobians == "analytic" else dataclasses.replace(
        entry.model, jacobian_A=None, jacobian_C=None)
    run, x0 = _registry_run(model)
    z0 = x0 if start == "truth" else x0 + 0.1 * np.random.default_rng(0).standard_normal(len(x0))
    new = ek.variational_validator(model, run, z0)
    assert new.hex() == _ref_variational_validator(model, run, z0).hex()


def test_a_non_finite_jacobian_at_the_last_node_alone_raises_at_the_horizon():
    """The last node is no step's first stage, so it is evaluated after the
    run: a jacobian_A that is NaN there, and only there, still raises
    ModelEvaluationError at t = T, as the stacked evaluation did."""
    model = ek.make("cubic-scalar").model
    run, z0 = _registry_run(model, horizon=0.5)
    T = run.times[-1]

    def faulty():
        """``model`` with jacobian_A NaN at its second call at T off the
        filter's last state: the first is the last step's fourth stage, at a
        stage state, and the second the validator's last node."""
        calls = [0]

        def jac_a(x, t):
            A = model.jacobian_A(x, t)
            calls[0] += t == T and not np.array_equal(x, run.states[-1])
            return np.full_like(A, np.nan) if calls[0] == 2 else A
        return dataclasses.replace(model, jacobian_A=jac_a)

    expected = _outcome(lambda: (_ref_variational_validator(faulty(), run, z0),))
    assert expected[0] is ek.ModelEvaluationError and expected[2] == T
    assert _outcome(lambda: (ek.variational_validator(faulty(), run, z0),)) == expected


# ------------------------------------------------------------ stage table

def _counting(fn, calls):
    def counted(*args):
        calls[0] += 1
        return fn(*args)
    return counted


def test_the_measurement_is_read_once_per_stage_time(rig):
    """The filter reads y at the 2m - 1 distinct stage times, with or without
    virtual rows, which read the same y; the experiments and the validator
    reuse what it read and never call the measurement."""
    model, calls = rig["model"], [0]
    n = model.state_dim
    dist = ek.Disturbance(b=lambda z, t: np.full(n, 0.01), b_max=0.01 * math.sqrt(n))
    runs = [ek.integrate_ekf(rig["fc"], _counting(rig["y"], calls), **rows)
            for rows in ({}, {"starts": [rig["z0"], rig["x0"]]},
                         {"starts": [rig["z0"]], "disturbance": dist})]
    m = len(runs[0].times)
    assert calls[0] == 3 * (2 * m - 1)
    times, _ = stage_table(runs[0].times)
    for row in range(0, 2 * m - 1, 37):
        assert np.array_equal(runs[0].stage_outputs[row], rig["y"](times[row]))
    calls[0] = 0
    ek.twin_decay(runs[1])
    ek.perturbed_run(runs[2])
    ek.variational_validator(model, runs[0], rig["z0"])
    assert calls[0] == 0


def test_the_filter_evaluates_jacobians_at_its_stages_and_last_node_only(rig, linalg_calls):
    """4 (m - 1) stage evaluations plus one at the last node: a step's first
    stage hands its gain to the run, so no separate gain pass remains. R is
    inverted once per run; no stage solves."""
    calls = [0]
    model = dataclasses.replace(rig["model"],
                                jacobian_A=_counting(rig["model"].jacobian_A, calls))
    run = ek.integrate_ekf(dataclasses.replace(rig["fc"], model=model), rig["y"])
    m = len(run.times)
    assert calls[0] == 4 * (m - 1) + 1
    assert (linalg_calls["solve"], linalg_calls["inv"]) == (0, 1)
    assert np.array_equal(run.gains, rig["run"].gains)


def test_stage_table_gains_equal_scalar_interpolation(rig):
    """Bit for bit, signed zeros included: the table the validator reads
    holds at each stage time, and at the row of each RK4 stage call, what
    the scalar reference ``_ref_series_at`` gives there."""
    run = rig["run"]
    gains = run.gains.copy()
    gains[::3, 0] = -0.0
    gains[1::7] = -0.0
    gains[-1] = -0.0
    times, _ = stage_table(run.times)
    table = interp(run.times, gains, times)
    assert table.shape == (len(times), *gains.shape[1:])
    for row, t in enumerate(times):
        assert table[row].tobytes() == _ref_series_at(run.times, gains, float(t)).tobytes()
    _, read = stage_table(run.times)
    for k in range(len(run.times) - 1):
        t, h = run.times[k], run.times[k + 1] - run.times[k]
        for ts in (t, t + 0.5 * h, t + 0.5 * h, t + h):
            row = read(ts)[1]
            assert table[row].tobytes() == _ref_series_at(run.times, gains, ts).tobytes()


@settings(max_examples=300, deadline=None)
@given(horizon=st.floats(1e-3, 1e4), steps=st.integers(1, 4000),
       jitter=st.floats(0.8, 1.2))
def test_a_full_step_lands_on_the_next_node(horizon, steps, jitter):
    """t_k + (t_{k+1} - t_k) == t_{k+1} on every ``time_grid`` grid, so the
    fourth RK4 stage of step k and the first of step k + 1 share a row."""
    grid = ek.time_grid(horizon, jitter * horizon / steps)
    assert np.array_equal(grid[:-1] + np.diff(grid), grid[1:])


def test_a_stage_time_off_its_row_raises(monkeypatch, scalar_rig):
    _, read = stage_table(ek.time_grid(1.0, 0.25))
    assert read(0.0) == (0, 0)
    assert read(0.125) == (1, 1)
    with pytest.raises(RuntimeError, match="RK4 stage 3 at t=0.25 does not match"):
        read(0.25)

    def heun_step(rhs, t, y, h):
        k1 = rhs(t, y)
        return y + 0.5 * h * (k1 + rhs(t + h, y + h * k1))

    monkeypatch.setattr(ekfcert.ekf, "rk4_step", heun_step)
    with pytest.raises(RuntimeError, match="RK4 stage 2"):
        ek.integrate_ekf(scalar_rig["fc"], x0=scalar_rig["x0"])
    with pytest.raises(RuntimeError, match="RK4 stage 2"):
        ek.variational_validator(scalar_rig["model"], scalar_rig["traj"], [0.1])


# ----------------------------------------------------------------- guards

def _blowup_model():
    """dx/dt = x^3 with a zero output: from x0 = 3 it blows up at t = 1/18."""
    return ek.SystemModel(state_dim=1, output_dim=1,
                          dynamics=lambda x, t: x ** 3,
                          output=lambda x, t: np.zeros(1),
                          jacobian_A=lambda x, t: np.array([[3.0 * x[0] ** 2]]),
                          jacobian_C=lambda x, t: np.zeros((1, 1)))


def _first_failing_node(rhs, y0, grid):
    """Time of the first RK4 node that is non-finite or beyond 1e12."""
    y = y0
    for k in range(len(grid) - 1):
        y = ek.rk4_step(rhs, grid[k], y, grid[k + 1] - grid[k])
        if not np.all(np.isfinite(y)) or np.linalg.norm(y) > LIMIT:
            return float(grid[k + 1])
    raise AssertionError("the reference run did not diverge")


def _zero_gain_run(horizon, step):
    """A finished filter run whose gains and measurements are all zero."""
    model = ek.make("scalar-riccati").model
    fc = ek.FilterConfig(model=model, Q=np.eye(1), R=np.eye(1), P0=np.eye(1),
                         x0=np.zeros(1), horizon=horizon, step=step)
    run = ek.integrate_ekf(fc, lambda t: np.zeros(1))
    run.gains[:] = 0.0
    return run


def _assert_divergence(info, what, t_fail):
    assert info.value.time == t_fail
    assert str(info.value) == f"{what} diverged at t={t_fail:.6g}"


@settings(max_examples=300, deadline=None)
@given(norms=st.lists(st.floats(0.45, 1.05), min_size=1, max_size=4), n=st.integers(1, 3),
       flat=st.booleans(), fault=st.sampled_from([None, np.nan, np.inf]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_divergence_guard_passes_a_node_as_its_per_row_checks(norms, n, flat, fault, seed):
    """Rows of norms near 1e12, some at exactly the limit, some past it or
    non-finite: the guard passes a node exactly when every row passes the
    reference checks, and otherwise names the node time."""
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((len(norms), n))
    Y *= (LIMIT * np.array(norms) / np.linalg.norm(Y, axis=1))[:, None]
    if fault is not None:
        Y.flat[rng.integers(Y.size)] = fault
    node = Y[0] if flat else Y
    passes = all(np.isfinite(r).all() and np.linalg.norm(r) <= LIMIT for r in np.atleast_2d(node))
    guard = ek.ekf.divergence_guard("node")
    with np.errstate(over="ignore", invalid="ignore"):
        if passes:
            assert guard(0.25, node) is node
        else:
            with pytest.raises(ek.DivergenceError) as info:
                guard(0.25, node)
            _assert_divergence(info, "node", 0.25)


def test_truth_guard_reports_first_failing_node():
    model, x0 = _blowup_model(), np.array([3.0])
    grid = ek.time_grid(0.2, 0.01)
    with np.errstate(over="ignore", invalid="ignore"):
        t_fail = _first_failing_node(lambda t, s: model.f(s, t), x0, grid)
        with pytest.raises(ek.DivergenceError) as info:
            ek.integrate_truth(model, x0, 0.2, 0.01)
    _assert_divergence(info, "truth", t_fail)


def test_virtual_guard_reports_first_failing_node():
    """The plant's C = 0 makes the gain exactly zero, and the estimate rests at
    the origin, so the row fails where dz/dt = z^3 alone does."""
    model, z0 = _blowup_model(), np.array([3.0])
    fc = ek.FilterConfig(model=model, Q=np.eye(1), R=np.eye(1), P0=np.eye(1),
                         x0=np.zeros(1), horizon=0.2, step=0.01)
    with np.errstate(over="ignore", invalid="ignore"):
        t_fail = _first_failing_node(lambda t, s: model.f(s, t), z0,
                                     ek.time_grid(0.2, 0.01))
        with pytest.raises(ek.DivergenceError) as info:
            ek.integrate_ekf(fc, lambda t: np.zeros(1), starts=[z0])
    _assert_divergence(info, "virtual state", t_fail)


def test_variational_guard_reports_first_failing_node():
    model, z0 = _blowup_model(), np.array([3.0])
    run = _zero_gain_run(0.2, 0.01)

    def rhs(t, s):
        return np.array([s[0] ** 3, 3.0 * s[0] ** 2 * s[1]])

    with np.errstate(over="ignore", invalid="ignore"):
        t_fail = _first_failing_node(rhs, np.array([3.0, 1.0]), run.times)
        with pytest.raises(ek.DivergenceError) as info:
            ek.variational_validator(model, run, z0)
    _assert_divergence(info, "variational state", t_fail)


def test_variational_guard_stops_finite_runs_beyond_the_limit():
    """dz/dt = 30 z reaches e^30 ~ 1e13 at t = 1 with every node finite.

    The finiteness-only guard the validator used before it shared the
    driver's guard let this run through; the shared guard stops it at the
    first node whose norm of (z, dz) exceeds 1e12.
    """
    model = ek.SystemModel(state_dim=1, output_dim=1,
                           dynamics=lambda x, t: 30.0 * x,
                           output=lambda x, t: np.zeros(1),
                           jacobian_A=lambda x, t: np.array([[30.0]]),
                           jacobian_C=lambda x, t: np.zeros((1, 1)))
    run = _zero_gain_run(1.0, 0.01)
    z0 = np.ones(1)
    assert math.isfinite(_ref_validator(model, run, lambda t: np.zeros(1), z0, 0.01))
    t_fail = _first_failing_node(lambda t, s: 30.0 * s, np.array([1.0, 1.0]), run.times)
    assert 0.9 < t_fail < 1.0
    with pytest.raises(ek.DivergenceError) as info:
        ek.variational_validator(model, run, z0)
    _assert_divergence(info, "variational state", t_fail)


def _unobserved_plant(rate, jacobian):
    """dx/dt = rate x with a zero output map and the declared Jacobian
    ``jacobian``: P then grows as exp(2 jacobian t) without a gain."""
    return ek.SystemModel(state_dim=1, output_dim=1,
                          dynamics=lambda x, t: rate * x,
                          output=lambda x, t: np.zeros(1),
                          jacobian_A=lambda x, t: np.array([[jacobian]]),
                          jacobian_C=lambda x, t: np.zeros((1, 1)))


@pytest.mark.parametrize("rate, jacobian, horizon, message", [
    (30.0, 30.0, 1.0, "estimate diverged at t=0.93"),     # e^30 > 1e12, every node finite
    (0.0, 1000.0, 1.0, "covariance diverged at t=0.78"),  # P overflows
    (0.0, 400.0, 1.0, None),                              # P ~ 1e247: its square overflows
])
def test_the_filter_guard_names_failures_as_the_reference_loop(rate, jacobian, horizon,
                                                                 message):
    """The one check per node sends every failing node, and a finite node
    whose squares overflow, through the per-part checks of the reference."""
    fc = ek.FilterConfig(model=_unobserved_plant(rate, jacobian), Q=np.eye(1),
                         R=np.eye(1), P0=np.eye(1), x0=np.ones(1), horizon=horizon,
                         step=0.01)
    y = lambda t: np.zeros(1)
    expected = _outcome(lambda: _ref_ekf(fc, y)[:3])
    new = _outcome(lambda: _filter_arrays(fc, y))
    assert new == expected
    if message is None:
        assert isinstance(new, list)
    else:
        assert new[:2] == (ek.DivergenceError, message)


# -------------------------------------------------------------- probe seam

class _FirstStep(Exception):
    pass


def test_every_integrator_steps_through_the_ekf_module_global(monkeypatch, scalar_rig):
    """perfbench/probe.py stops the benchmark's set-up probe by replacing
    ``ekfcert.ekf.rk4_step``; every integrator must take its first step
    through that name, before any node past the start is stored."""
    calls = []

    def stop(rhs, t, y, h):
        calls.append((t, y.copy()))
        raise _FirstStep

    monkeypatch.setattr(ekfcert.ekf, "rk4_step", stop)
    model, run, fc = scalar_rig["model"], scalar_rig["traj"], scalar_rig["fc"]
    starts = {
        "integrate_truth": (lambda: ek.integrate_truth(model, np.array([0.4]), 1.0, 0.01),
                            [0.4]),
        "integrate_ekf": (lambda: ek.integrate_ekf(fc, lambda t: np.array([0.4])),
                          [[0.5], [2.0]]),
        "joint run": (lambda: ek.integrate_ekf(fc, x0=[0.4], starts=[[0.1], [0.2]]),
                      [[0.5], [2.0], [0.4], [0.1], [0.2]]),
        "variational_validator": (lambda: ek.variational_validator(
            model, run, np.array([0.1])), [0.1, 1.0]),
    }
    for name, (call, y0) in starts.items():
        calls.clear()
        with pytest.raises(_FirstStep):
            call()
        assert len(calls) == 1, name
        assert calls[0][0] == 0.0, name
        assert np.array_equal(calls[0][1], y0), name


# -------------------------------------------------------- fast stage path

CALLBACKS = ("dynamics", "output", "jacobian_A", "jacobian_C")


def _checked_twin(model):
    """The plant with every callback returning a Python list: no result is a
    float64 array, so f, h and eval_jacobians convert and check every one."""
    def listed(fn):
        return lambda x, t: fn(x, t).tolist()

    return dataclasses.replace(model, **{name: listed(getattr(model, name))
                                         for name in CALLBACKS})


def _counted(model, counts):
    """The plant with each callback call counted in ``counts[name]``."""
    def counted(name, fn):
        def call(x, t):
            counts[name] += 1
            return fn(x, t)
        return call

    return dataclasses.replace(model, **{name: counted(name, getattr(model, name))
                                         for name in CALLBACKS})


def _every_flow(model, x0, xhat0, z0, horizon=3.0, step=0.01):
    """The run of truth, filter and twin rows, that of the perturbed row and the
    validator deviation on ``model``."""
    n = model.state_dim
    fc = ek.FilterConfig(model=model, Q=np.eye(n), R=np.eye(model.output_dim),
                         P0=np.eye(n), x0=xhat0, horizon=horizon, step=step)
    run = ek.integrate_ekf(fc, x0=x0, starts=[z0, x0])
    dist = ek.Disturbance(b=lambda z, t: np.full(n, 0.01 * math.sin(2.0 * t)),
                          b_max=0.01 * math.sqrt(n))
    perturbed = ek.integrate_ekf(fc, x0=x0, starts=[z0], disturbance=dist)
    return {"truth": run.truth, "states": run.states, "covariances": run.covariances,
            "gains": run.gains, "outputs": run.stage_outputs, "twins": run.virtual,
            "perturbed": perturbed.virtual,
            "deviation": np.array(ek.variational_validator(model, run, z0))}


@pytest.mark.parametrize("entry", ek.registry(), ids=lambda e: e.name)
def test_array_and_list_callbacks_give_the_same_flows_with_one_call_per_stage(entry):
    """Each registry plant and its checked twin give bit-equal outputs on
    every flow, and every callback runs once per RK4 stage and row on both:
    stages = 4 m on the m steps of the two runs, whose rows are the truth,
    the estimate and two or one virtual rows, and of the validator; h also
    once at each run's last truth node; the Jacobians also at each run's
    last node and, for the validator's deviation, at the filter's m + 1
    nodes and its own last node: its other nodes are the points of its
    steps' first stages, which already read A and C there."""
    n = entry.model.state_dim
    x0, xhat0, z0 = np.full(n, 0.34), np.full(n, 0.3), np.full(n, 0.28)
    fast_counts, slow_counts = dict.fromkeys(CALLBACKS, 0), dict.fromkeys(CALLBACKS, 0)
    fast = _every_flow(_counted(entry.model, fast_counts), x0, xhat0, z0)
    slow = _every_flow(_counted(_checked_twin(entry.model), slow_counts), x0, xhat0, z0)
    for name, value in fast.items():
        assert value.tobytes() == slow[name].tobytes(), name
    stages = 4 * 300
    expected = {"dynamics": 8 * stages, "output": 8 * stages + 2,
                "jacobian_A": 3 * stages + 2 + 301 + 1, "jacobian_C": 3 * stages + 2 + 301 + 1}
    assert fast_counts == slow_counts == expected


@pytest.mark.parametrize("entry", ek.registry(), ids=lambda e: e.name)
def test_the_joint_run_reads_y_from_the_truth_rows_own_stage(entry):
    """Bit for bit: y = h(x, t) at the truth node at every node row of the
    stage table and, at a midpoint row, at the truth's third RK4 stage state
    x_k + (h/2) f(x_k + (h/2) f(x_k, t_k), t_k + h/2)."""
    model = entry.model
    n = model.state_dim
    fc = ek.FilterConfig(model=model, Q=np.eye(n), R=np.eye(model.output_dim), P0=np.eye(n),
                         x0=np.full(n, 0.3), horizon=3.0, step=0.01)
    run = ek.integrate_ekf(fc, x0=np.full(n, 0.34))
    times, _ = stage_table(run.times)
    expected = np.empty_like(run.stage_outputs)
    for k, (t, x) in enumerate(zip(run.times, run.truth)):
        expected[2 * k] = model.h(x, t)
        if k + 1 < len(run.times):
            h = run.times[k + 1] - t
            mid = x + 0.5 * h * model.f(x + 0.5 * h * model.f(x, t), t + 0.5 * h)
            expected[2 * k + 1] = model.h(mid, times[2 * k + 1])
    assert run.stage_outputs.tobytes() == expected.tobytes()


FAULT_T = 0.25   # the faults start at the midpoint stage of the third step


@pytest.mark.parametrize("name", ["cubic-scalar", "vanderpol-pos"])
@pytest.mark.parametrize("row", ["truth", "virtual state"])
def test_a_start_whose_squares_overflow_is_read_finite_and_fails_at_the_first_node(name, row):
    """A truth or virtual start with a finite entry of 1e200: its sum of squares overflows,
    but every entry is finite, so the first stage calls the plant there, and the guard
    names the row at the first node, as when that stage gave the row NaN without a call."""
    seen, plant = [], ek.make(name).model
    n, p = plant.state_dim, plant.output_dim
    model = dataclasses.replace(plant, dynamics=_recorded(plant.dynamics, seen))
    fc = ek.FilterConfig(model=model, Q=np.eye(n), R=np.eye(p), P0=np.eye(n),
                         x0=np.full(n, 0.2), horizon=0.1, step=0.01)
    big = np.r_[1e200, np.full(n - 1, 0.2)]
    source = dict(x0=big) if row == "truth" else dict(x0=np.full(n, 0.3), starts=[big])
    assert _outcome(lambda: ek.integrate_ekf(fc, **source)) == (
        ek.DivergenceError, f"{row} diverged at t=0.01", 0.01)
    assert any(np.array_equal(x, big) for x in seen)


def _recorded(fn, seen):
    """``fn`` appending every state it receives to ``seen``, unless that is None."""
    def call(x, t):
        if seen is not None:
            seen.append(x.copy())
        return fn(x, t)
    return call


def _faulty_plant(callback, fault, seen=None):
    """dx/dt = -diag(1, 0.5) x with y = x, at rest from the origin; from t =
    FAULT_T on, ``callback`` returns ``fault`` of its result. P stays diagonal
    and the innovation zero, so a bad entry meets zeros wherever it can.
    Every state a callback receives is appended to ``seen``."""
    good = {"dynamics": lambda x, t: np.array([-x[0], -0.5 * x[1]]),
            "output": lambda x, t: x.copy(),
            "jacobian_A": lambda x, t: np.array([[-1.0, 0.0], [0.0, -0.5]]),
            "jacobian_C": lambda x, t: np.eye(2)}
    fn = good[callback]
    good[callback] = lambda x, t: fault(fn(x, t)) if t >= FAULT_T else fn(x, t)
    return ek.SystemModel(state_dim=2, output_dim=2,
                          **{name: _recorded(fn, seen) for name, fn in good.items()})


def _set_entry(index, value):
    def fault(v):
        v = v.copy()
        v[index] = value
        return v
    return fault


SHAPE_FAULTS = {
    "(n, 1)": lambda v: v.ravel()[:2].reshape(2, 1),
    "(n + 1,)": lambda v: np.append(v.ravel()[:2], 0.0),
    "scalar": lambda v: float(v.flat[0]),
}
FAULTS = (
    [(jac, f"{value} at {index}", _set_entry(index, value))
     for jac in ("jacobian_A", "jacobian_C") for value in (np.nan, np.inf)
     for index in [(0, 0), (0, 1), (1, 0), (1, 1)]]
    + [(func, f"{value} at {index}", _set_entry(index, value))
       for func in ("dynamics", "output") for value in (np.nan, np.inf) for index in (0, 1)]
    + [(func, shape, fault) for func in ("dynamics", "output", "jacobian_A", "jacobian_C")
       for shape, fault in SHAPE_FAULTS.items()])


def _filter_arrays(fc, y):
    run = ek.integrate_ekf(fc, y)
    return run.states, run.covariances, run.gains


def _virtual_arrays(fc, y, z0):
    run = ek.integrate_ekf(fc, y, starts=[z0])
    return run.states, run.covariances, run.virtual[:, 0]


def _outcome(fn):
    """The arrays fn() returns, or the type, message and time of what it raises."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return [np.asarray(v).tobytes() for v in fn()]
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "time", None))


@pytest.mark.parametrize("callback, what, fault", FAULTS,
                         ids=[f"{c}-{w}" for c, w, _ in FAULTS])
def test_a_faulty_callback_fails_as_on_the_checked_path(callback, what, fault):
    """Every flow stops with the type, message and time of the reference
    loops, which evaluate every stage on the checked path, or finishes with
    their values when the checked path accepts the result. No callback sees
    a non-finite state."""
    seen = []
    model, zero = _faulty_plant(callback, fault, seen), np.zeros(2)
    y = lambda t: np.zeros(2)
    fc = ek.FilterConfig(model=model, Q=np.eye(2), R=np.eye(2), P0=np.diag([1.0, 2.0]),
                         x0=zero, horizon=1.0, step=0.1)
    run = ek.integrate_ekf(dataclasses.replace(fc, model=_faulty_plant(callback, lambda v: v)), y)
    e0 = np.array([1.0, 0.0])   # dz keeps a zero entry along the diagonal flow
    flows = {
        "filter": (lambda: _filter_arrays(fc, y), lambda: _ref_ekf(fc, y)[:3]),
        "truth": (lambda: (ek.integrate_truth(model, zero, 1.0, 0.1).values,),
                  lambda: _ref_truth(model, zero, 1.0, 0.1)[1:]),
        "virtual": (lambda: _virtual_arrays(fc, y, e0),
                    lambda: _ref_ekf_virtual(fc, y, e0)[:3]),
        "validator": (lambda: (ek.variational_validator(model, run, zero, dz0=e0),),
                      lambda: (_ref_validator(model, run, y, zero, 0.1, e0),)),
    }
    for name, (new, ref) in flows.items():
        expected = _outcome(ref)
        seen.clear()
        assert _outcome(new) == expected, name
        assert np.isfinite(seen).all(), name
        if isinstance(expected, tuple) and expected[2] is not None:
            assert expected[2] >= FAULT_T, name


def test_truth_and_virtual_runs_stop_at_the_guard_without_a_non_finite_callback():
    """A dynamics that returns NaN from FAULT_T on, with callbacks and a
    disturbance that raise on a non-finite state: the truth, the virtual
    and the joint runs stop with the node guard's error at the end of the
    faulty step, calling none of them on the non-finite stage states within
    it; the joint run names its truth row, which it checks first. For the
    virtual rows alone the NaN comes only at a nonzero state, so the
    estimate, at rest at the origin, stays finite."""
    def strict(fn):
        def call(x, t):
            if not np.isfinite(x).all():
                raise RuntimeError("callback called with a non-finite state")
            return fn(x, t)
        return call

    def strict_plant(fault):
        plant = _faulty_plant("dynamics", fault)
        return dataclasses.replace(plant, dynamics=strict(plant.dynamics),
                                   output=strict(plant.output))

    model = strict_plant(lambda v: np.full_like(v, np.nan))
    off_rest = strict_plant(lambda v: np.full_like(v, np.nan) if v.any() else v)
    fc = ek.FilterConfig(model=off_rest, Q=np.eye(2), R=np.eye(2), P0=np.diag([1.0, 2.0]),
                         x0=np.zeros(2), horizon=1.0, step=0.1)
    y, e0 = (lambda t: np.zeros(2)), np.array([1.0, 0.0])
    dist = ek.Disturbance(b=strict(lambda z, t: np.zeros(2)), b_max=0.0)
    t = ek.time_grid(1.0, 0.1)[3]
    for what, flow in [
            ("truth", lambda: ek.integrate_truth(model, np.zeros(2), 1.0, 0.1)),
            ("virtual state", lambda: ek.integrate_ekf(fc, y, starts=[e0])),
            ("virtual state", lambda: ek.integrate_ekf(fc, y, starts=[e0] * 2,
                                                       disturbance=dist)),
            ("truth", lambda: ek.integrate_ekf(dataclasses.replace(fc, model=model),
                                               x0=np.zeros(2), starts=[np.zeros(2)],
                                               disturbance=dist))]:
        assert _outcome(flow) == (ek.DivergenceError, f"{what} diverged at t=0.3", t)


def test_a_callback_raising_after_a_bad_jacobian_fails_as_on_the_checked_path():
    """The checked path stops at the bad Jacobian before it calls f, so the
    fast path must not let f's own exception through."""
    def raising(x, t):
        if t >= FAULT_T:
            raise RuntimeError("dynamics undefined here")
        return np.array([-x[0], -0.5 * x[1]])

    model = dataclasses.replace(_faulty_plant("jacobian_A", _set_entry((0, 1), np.nan)),
                                dynamics=raising)
    fc = ek.FilterConfig(model=model, Q=np.eye(2), R=np.eye(2), P0=np.eye(2),
                         x0=np.zeros(2), horizon=1.0, step=0.1)
    y = lambda t: np.zeros(2)
    expected = _outcome(lambda: _ref_ekf(fc, y)[:3])
    assert expected[0] is ek.ModelEvaluationError
    assert _outcome(lambda: _filter_arrays(fc, y)) == expected


def _logged(model, log):
    """``model`` with each callback appending (name, t) to ``log`` before it runs."""
    def wrap(name, fn):
        def call(x, t):
            log.append((name, t))
            return fn(x, t)
        return call
    return dataclasses.replace(model, **{name: wrap(name, getattr(model, name)) for name in
                                         ("dynamics", "output", "jacobian_A", "jacobian_C")})


# the flows of a two-output plant at rest from the origin, of any state dimension
STAGE_FLOWS = {
    "measured": lambda fc, run: ek.integrate_ekf(fc, lambda t: np.zeros(2)),
    "truth": lambda fc, run: ek.integrate_ekf(fc, x0=np.zeros_like(fc.x0)),
    "virtual": lambda fc, run: ek.integrate_ekf(fc, lambda t: np.zeros(2),
                                                starts=[np.ones_like(fc.x0)]),
    "validator": lambda fc, run: ek.variational_validator(fc.model, run, np.zeros_like(fc.x0)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("jacobian", ["jacobian_A", "jacobian_C"])
@pytest.mark.parametrize("flow", STAGE_FLOWS)
def test_a_stage_reads_its_jacobians_before_it_calls_f_and_h(flow, jacobian, value):
    """A stage runs eval_jacobians, then f, then h. With a Jacobian that has a
    non-finite entry from FAULT_T on, the filter's estimate stage and the
    validator's stage raise ModelEvaluationError at the first stage time at
    or after FAULT_T, and call neither dynamics nor output after the faulty
    Jacobian call."""
    log = []
    model = _logged(_faulty_plant(jacobian, _set_entry((0, 1), value)), log)
    fc = ek.FilterConfig(model=model, Q=np.eye(2), R=np.eye(2), P0=np.diag([1.0, 2.0]),
                         x0=np.zeros(2), horizon=1.0, step=0.1)
    run = ek.integrate_ekf(dataclasses.replace(fc, model=_faulty_plant(jacobian, lambda v: v)),
                           lambda t: np.zeros(2))
    t_fault = run.times[2] + 0.5 * (run.times[3] - run.times[2])   # stage 2 of step 3
    with pytest.raises(ek.ModelEvaluationError) as info:
        STAGE_FLOWS[flow](fc, run)
    assert info.value.time == t_fault
    first = log.index((jacobian, t_fault))
    assert max(t for name, t in log[:first] if name == jacobian) < FAULT_T
    assert [name for name, _ in log[first:] if name in ("dynamics", "output")] == []


def _faulty_scalar_plant(callback, fault, outputs=2, seen=None):
    """The one-state twin of _faulty_plant: dx/dt = -x with y = (x, 0) and C = (1, 0)^T,
    or with one of ``outputs`` y = x and C = 1, at rest from the origin; from t = FAULT_T
    on, ``callback`` returns ``fault`` of its result. C's zero row meets P in C P and
    P C^T, the stage products where .dot and @ carry a non-finite entry differently.
    Every state a callback receives is appended to ``seen``."""
    good = {"dynamics": lambda x, t: -x,
            "output": lambda x, t: np.array([x[0], 0.0][:outputs]),
            "jacobian_A": lambda x, t: -np.ones((1, 1)),
            "jacobian_C": lambda x, t: np.array([[1.0], [0.0]][:outputs])}
    fn = good[callback]
    good[callback] = lambda x, t: fault(fn(x, t)) if t >= FAULT_T else fn(x, t)
    return ek.SystemModel(state_dim=1, output_dim=outputs,
                          **{name: _recorded(fn, seen) for name, fn in good.items()})


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("callback, index", [("jacobian_C", (0, 0)), ("jacobian_C", (1, 0)),
                                             ("output", 0), ("output", 1)])
@pytest.mark.parametrize("flow", STAGE_FLOWS)
def test_a_one_state_two_output_fault_fails_as_with_matmul_stages(flow, callback, index, value):
    """Every flow stops at the first faulty stage, t = FAULT_T, with the error the
    stages gave when their one-state products went through @: a bad C is named
    before any product, and a bad output makes the next stage's estimate
    non-finite. With K = (P, 0), an inf in the observed entry reaches it as -inf,
    unless the truth's own output subtracts it (inf - inf); anything else as NaN."""
    fc = ek.FilterConfig(model=_faulty_scalar_plant(callback, _set_entry(index, value)),
                         Q=np.eye(1), R=np.eye(2), P0=np.eye(1), x0=np.zeros(1),
                         horizon=1.0, step=0.1)
    run = ek.integrate_ekf(dataclasses.replace(fc, model=_faulty_scalar_plant(
        callback, lambda v: v)), lambda t: np.zeros(2))
    if callback == "jacobian_C":
        message = "Jacobian evaluation produced non-finite entries at t=0.25"
    else:
        entry = "-inf" if index == 0 and value == np.inf and flow != "truth" else "nan"
        message = f"state contains non-finite entries: [{entry}]"
    with np.errstate(invalid="ignore"), pytest.raises(ek.ModelEvaluationError) as info:
        STAGE_FLOWS[flow](fc, run)
    assert (str(info.value), info.value.time) == (message, FAULT_T)


def _truth_arrays(fc):
    run = ek.integrate_ekf(fc, x0=np.zeros_like(fc.x0))
    return run.states, run.covariances, run.gains


# a Jacobian's one entry from FAULT_T on: not finite, or finite with a square that overflows
SCALAR_FAULTS = [(jac, value) for jac in ("jacobian_A", "jacobian_C")
                 for value in (np.nan, np.inf, -np.inf, 1e200)]


@pytest.mark.parametrize("callback, value", SCALAR_FAULTS,
                         ids=[f"{c}-{v}" for c, v in SCALAR_FAULTS])
def test_a_one_state_one_output_jacobian_fault_fails_as_on_the_checked_path(callback, value):
    """The one-state, one-output stage decides A's and C's finiteness on their floats:
    every flow stops with the type, message and time of the reference loops, which
    evaluate every stage on the checked path, also for 1e200, a finite entry whose
    square overflows a sum of squares, which the stage uses as returned. The truth
    rests at the origin, so its run reads the measured run's y = 0. No callback sees
    a non-finite state."""
    seen = []
    model = _faulty_scalar_plant(callback, _set_entry((0, 0), value), outputs=1, seen=seen)
    zero, e0, y = np.zeros(1), np.ones(1), (lambda t: np.zeros(1))
    fc = ek.FilterConfig(model=model, Q=np.eye(1), R=np.eye(1), P0=np.eye(1), x0=zero,
                         horizon=1.0, step=0.1)
    run = ek.integrate_ekf(dataclasses.replace(
        fc, model=_faulty_scalar_plant(callback, lambda v: v, outputs=1)), y)
    flows = {
        "measured": (lambda: _filter_arrays(fc, y), lambda: _ref_ekf(fc, y)[:3]),
        "truth": (lambda: _truth_arrays(fc), lambda: _ref_ekf(fc, y)[:3]),
        "virtual": (lambda: _virtual_arrays(fc, y, e0),
                    lambda: _ref_ekf_virtual(fc, y, e0)[:3]),
        "validator": (lambda: (ek.variational_validator(model, run, zero, dz0=e0),),
                      lambda: (_ref_validator(model, run, y, zero, 0.1, e0),)),
    }
    for name, (new, ref) in flows.items():
        expected = _outcome(ref)
        seen.clear()
        assert _outcome(new) == expected, name
        assert np.isfinite(seen).all(), name
        if isinstance(expected, tuple):
            assert expected[2] >= FAULT_T, name


def test_a_one_state_validator_stage_with_only_dz_non_finite_calls_as_the_checked_path():
    """With A = 1e200 from FAULT_T on, dz overflows within the third step while z rests
    at the origin, so the step's last stage reads a finite z and an infinite dz. It
    calls A, C, f and h as the reference loop's checked stages do, at the same times
    and states, and the node guard names the variational state."""
    seen, log = [], []
    model = _logged(_faulty_scalar_plant("jacobian_A", _set_entry((0, 0), 1e200), outputs=1,
                                         seen=seen), log)
    zero, y = np.zeros(1), (lambda t: np.zeros(1))
    fc = ek.FilterConfig(model=_faulty_scalar_plant("jacobian_A", lambda v: v, outputs=1),
                         Q=np.eye(1), R=np.eye(1), P0=np.eye(1), x0=zero, horizon=1.0,
                         step=0.1)
    run = ek.integrate_ekf(fc, y)
    calls = []
    for flow in (lambda: (ek.variational_validator(model, run, zero),),
                 lambda: (_ref_validator(model, run, y, zero, 0.1),)):
        seen.clear()
        log.clear()
        calls.append((_outcome(flow), list(log), np.array(seen).tobytes()))
    t = run.times[3]
    assert calls[0] == calls[1]
    assert calls[0][0] == (ek.DivergenceError, "variational state diverged at t=0.3", t)
    assert log[-4:] == [(name, t) for name in ("jacobian_A", "jacobian_C", "dynamics",
                                               "output")]
    assert not np.array(seen).any()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_one_state_validator_stage_with_a_non_finite_z_fails_as_on_the_checked_path(value):
    """f returns ``value`` from FAULT_T on, so the third step's third stage reads a
    non-finite z: the validator raises with the reference loop's type, message and time
    before any callback sees that z."""
    seen = []
    model = _faulty_scalar_plant("dynamics", _set_entry(0, value), outputs=1, seen=seen)
    zero, y = np.zeros(1), (lambda t: np.zeros(1))
    fc = ek.FilterConfig(model=_faulty_scalar_plant("dynamics", lambda v: v, outputs=1),
                         Q=np.eye(1), R=np.eye(1), P0=np.eye(1), x0=zero, horizon=1.0,
                         step=0.1)
    run = ek.integrate_ekf(fc, y)
    expected = _outcome(lambda: (_ref_validator(model, run, y, zero, 0.1),))
    assert expected == (ek.ModelEvaluationError,
                        f"state contains non-finite entries: [{value}]", FAULT_T)
    seen.clear()
    assert _outcome(lambda: (ek.variational_validator(model, run, zero),)) == expected
    assert np.isfinite(seen).all()


# ------------------------------------------------ positive definiteness

def _overshooting_plant(dynamics=lambda x, t: np.zeros(1), jacobian=lambda x, t: np.zeros((1, 1)),
                        seen=None):
    """y = x with C = 1 and, by default, dx/dt = 0: from P0 = 2 with Q = R = 1
    and a step of 1, dP/dt = 1 - P^2 overshoots to P = -0.79 at t = 1 and -0.095
    at t = 2, then recovers towards 1, every node finite and small. ``seen``
    records the time of every jacobian_A call."""
    def jacobian_A(x, t):
        if seen is not None:
            seen.append(t)
        return jacobian(x, t)

    return ek.SystemModel(state_dim=1, output_dim=1, dynamics=dynamics,
                          output=lambda x, t: x.copy(), jacobian_A=jacobian_A,
                          jacobian_C=lambda x, t: np.ones((1, 1)))


def _overshooting_config(model, P0=2.0):
    return ek.FilterConfig(model=model, Q=np.eye(1), R=np.eye(1), P0=np.array([[P0]]),
                           x0=np.zeros(1), horizon=8.0, step=1.0)


LOST_AT_ONE = (ek.CovarianceBoundViolation, "covariance lost positive definiteness at t=1", 1.0)


def test_a_run_makes_one_eigen_solve_when_every_node_passes_on_one_check(monkeypatch):
    """One np.linalg.eigvalsh per run on the one-check path, whatever the node
    count, and no Cholesky factorization; a node past the one-check bound gets
    a solve of its own; a run that loses definiteness is named by its one
    solve over the nodes."""
    vdp = ek.make("vanderpol-pos").model
    fc = ek.FilterConfig(model=vdp, Q=np.eye(2), R=np.eye(1), P0=np.eye(2),
                         x0=[0.3, 0.2], horizon=10.0, step=0.005)
    huge = ek.FilterConfig(model=ek.make("scalar-riccati").model, Q=np.eye(1),
                           R=1e26 * np.eye(1), P0=1e13 * np.eye(1), x0=[0.1], horizon=1.0,
                           step=0.01)
    lost = _overshooting_config(_overshooting_plant())
    solves, factors = [0], [0]   # counted from here: the configs above make their own solves
    monkeypatch.setattr(np.linalg, "eigvalsh", _counting(np.linalg.eigvalsh, solves))
    monkeypatch.setattr(np.linalg, "cholesky", _counting(np.linalg.cholesky, factors))

    def counted(fn):
        solves[0] = factors[0] = 0
        return fn(), solves[0], factors[0]

    run, *made = counted(lambda: ek.integrate_ekf(fc, x0=[0.34, 0.2],
                                                  starts=[[0.1, 0.0], [0.3, 0.2]]))
    assert len(run.times) == 2001 and made == [1, 0]
    run, *made = counted(lambda: ek.integrate_ekf(huge, x0=[0.3]))
    assert len(run.times) == 101 and made == [100 + 1, 0]
    assert counted(lambda: _outcome(lambda: _filter_arrays(lost, lambda t: np.zeros(1)))) == (
        LOST_AT_ONE, 1, 0)


def test_definiteness_lost_before_a_callback_raises_is_the_first_failure():
    """P is not positive definite at t = 1; jacobian_A turns NaN at t = 4, where
    the run, which now factors its nodes after the steps, raises
    ModelEvaluationError. The covariance failure at t = 1 propagates, as in the
    reference loop, which stops at t = 1."""
    seen = []
    model = _overshooting_plant(
        jacobian=lambda x, t: np.full((1, 1), np.nan if t >= 4.0 else 0.0), seen=seen)
    fc, y = _overshooting_config(model), lambda t: np.zeros(1)
    expected = _outcome(lambda: _ref_ekf(fc, y)[:3])
    assert expected == LOST_AT_ONE
    seen.clear()
    assert _outcome(lambda: _filter_arrays(fc, y)) == expected
    assert max(seen) == 4.0   # the run went on to the callback's failure


class _Interrupt(BaseException):
    """Not an Exception, as KeyboardInterrupt and SystemExit are not."""


@pytest.mark.parametrize("at", [0.5, 4.0])
def test_a_base_exception_from_a_callback_propagates_as_itself(at):
    """The closing checks run after a finished run or an Exception only: a BaseException
    that jacobian_A raises mid-run propagates unchanged, also at t = 4, after the node at
    t = 1 whose P is not definite was stored, which would otherwise be the run's failure."""
    def jacobian(x, t):
        if t >= at:
            raise _Interrupt(t)
        return np.zeros((1, 1))

    seen = []
    fc = _overshooting_config(_overshooting_plant(jacobian=jacobian, seen=seen))
    with pytest.raises(_Interrupt) as raised:
        _filter_arrays(fc, lambda t: np.zeros(1))
    assert raised.value.args == (at,) and max(seen) == at
    assert raised.value.__context__ is None


@pytest.mark.parametrize("z0, z_fails_at", [(1e4, 1.0), (0.5, None)])
def test_definiteness_lost_at_a_node_comes_before_its_virtual_rows(z0, z_fails_at):
    """dx/dt = x^2 with the estimate at rest at 0: P is lost at t = 1. From
    1e4 the virtual row leaves the limit at the same node, which the checked
    path meets after P's factorization; from 0.5 it diverges later. Both runs
    fail as the reference loop does, at t = 1."""
    model = _overshooting_plant(dynamics=lambda x, t: x ** 2,
                                jacobian=lambda x, t: np.array([[2.0 * x[0]]]))
    fc, y = _overshooting_config(model), lambda t: np.zeros(1)
    z0 = np.array([z0])
    if z_fails_at is not None:   # the row alone, under the gain of a definite P, fails there
        fine = _outcome(lambda: _virtual_arrays(_overshooting_config(model, P0=1.0), y, z0))
        assert fine == (ek.DivergenceError, "virtual state diverged at t=1", z_fails_at)
    expected = _outcome(lambda: _ref_ekf_virtual(fc, y, z0)[:3])
    assert expected == LOST_AT_ONE
    assert _outcome(lambda: _virtual_arrays(fc, y, z0)) == expected


def test_definiteness_lost_comes_before_a_violated_disturbance_bound():
    """A disturbed run loses P at t = 1, recovers and runs to its end, where
    its disturbance, 1 from t = 6 on, breaks b_max = 0.5: the covariance
    failure at t = 1 is raised, not the PreconditionError of the same run
    from a definite P0."""
    seen = []

    def b(z, t):
        seen.append(t)
        return np.ones(1) if t >= 6.0 else np.zeros(1)

    dist, y, z0 = ek.Disturbance(b=b, b_max=0.5), lambda t: np.zeros(1), np.array([0.1])
    model = _overshooting_plant()
    with pytest.raises(ek.PreconditionError, match="disturbance bound violated"):
        ek.integrate_ekf(_overshooting_config(model, P0=1.0), y, starts=[z0], disturbance=dist)
    fc = _overshooting_config(model)
    expected = _outcome(lambda: _ref_ekf_virtual(fc, y, z0, dist)[:3])
    assert expected == LOST_AT_ONE
    seen.clear()
    assert _outcome(lambda: ek.integrate_ekf(fc, y, starts=[z0], disturbance=dist).states) == (
        expected)
    assert max(seen) == 8.0   # every step ran before the failure was named


@pytest.mark.parametrize("name", ["scalar-riccati", "cubic-scalar"])
def test_large_steps_fail_or_finish_as_the_per_node_reference(name):
    """Seeded draws of Q, P0 and the step (up to 2, where RK4 overshoots the
    Riccati flow): each run, with a virtual row, ends with the arrays or the
    failure type, message and time of the reference loop, which factors every
    node as it is made."""
    model = ek.make(name).model
    rng = np.random.default_rng(24)
    outcomes = collections.Counter()
    for _ in range(80):
        fc = ek.FilterConfig(model=model, Q=10.0 ** rng.uniform(-2, 1, (1, 1)), R=np.eye(1),
                             P0=10.0 ** rng.uniform(-1, 1.5, (1, 1)), x0=[0.2],
                             horizon=8.0, step=float(rng.uniform(0.2, 2.0)))
        y, z0 = (lambda t: np.array([0.3 * math.sin(t)])), rng.uniform(-0.5, 0.5, 1)
        expected = _outcome(lambda: _ref_ekf_virtual(fc, y, z0)[:3])
        assert _outcome(lambda: _virtual_arrays(fc, y, z0)) == expected
        outcomes[expected[0] if isinstance(expected, tuple) else "finished"] += 1
    assert outcomes["finished"] >= 10 and outcomes[ek.CovarianceBoundViolation] >= 10, outcomes


@pytest.mark.parametrize("entry", ek.registry(), ids=lambda e: e.name)
def test_a_large_step_run_raises_or_returns_a_positive_floor(entry):
    """Seeded draws of the step (up to 2), an SPD Q and P0 on each plant, each
    run with a virtual row: it raises or returns p_lo > 0, and it ends as the
    per-node reference loop that refuses a node whose smallest eigenvalue is
    not positive, so a lost covariance names that loop's first such node."""
    model = entry.model
    n, p = model.state_dim, model.output_dim
    rng = np.random.default_rng(30)
    y = lambda t: np.full(p, 0.3 * math.sin(t))
    outcomes = collections.Counter()
    for _ in range(80):
        fc = ek.FilterConfig(model=model, Q=10.0 ** rng.uniform(-2, 1) * random_spd(rng, n),
                             R=np.eye(p), P0=10.0 ** rng.uniform(-1, 1.5) * random_spd(rng, n),
                             x0=rng.uniform(-0.5, 0.5, n), horizon=8.0,
                             step=float(rng.uniform(0.2, 2.0)))
        z0 = rng.uniform(-0.5, 0.5, n)
        expected = _outcome(lambda: _ref_ekf_virtual(fc, y, z0, lost=_eigen_lost)[:3])
        outcome = _outcome(lambda: _virtual_arrays(fc, y, z0))
        assert outcome == expected
        if isinstance(outcome, list):
            assert ek.integrate_ekf(fc, y, starts=[z0]).p_lo > 0.0
        outcomes[outcome[0] if isinstance(outcome, tuple) else "finished"] += 1
    assert outcomes["finished"] >= 10 and outcomes[ek.CovarianceBoundViolation] >= 10, outcomes


@pytest.mark.parametrize("entry", ek.registry(), ids=lambda e: e.name)
def test_an_omitted_or_zero_inflation_gives_the_arrays_of_the_loop_that_adds_it(entry):
    """The run adds a zero 2N to Q once; the reference loop adds 2N at every
    stage. N omitted, N = 0 and N = -0 give its arrays bit for bit, also with
    -0.0 entries in Q."""
    model = entry.model
    n, p = model.state_dim, model.output_dim
    rng = np.random.default_rng(7)
    Q = np.where(np.eye(n) == 1.0, 1.0, -0.0)
    y = lambda t: np.full(p, 0.2 * math.cos(t))
    z0 = rng.uniform(-0.5, 0.5, n)
    for N in (None, np.zeros((n, n)), -np.zeros((n, n))):
        fc = ek.FilterConfig(model=model, Q=Q, R=np.eye(p), P0=random_spd(rng, n),
                             x0=rng.uniform(-0.5, 0.5, n), horizon=3.0, step=0.01, N=N)
        run = ek.integrate_ekf(fc, y, starts=[z0])
        states, covs, zs, _ = _ref_ekf_virtual(fc, y, z0)
        assert run.states.tobytes() == states.tobytes()
        assert run.covariances.tobytes() == covs.tobytes()
        assert run.virtual[:, 0].tobytes() == zs.tobytes()
