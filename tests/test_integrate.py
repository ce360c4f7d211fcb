"""The shared RK4 driver, its divergence guard and the one interpolator.

The ``_ref_*`` functions are the per-integrator RK4 loops, guards and
interpolators the package used before every flow went through
``ekf.integrate``. They are kept as references: each new integrator must
reproduce its reference bit for bit.
"""

import math

import numpy as np
import pytest

import ekfcert as ek
import ekfcert.ekf
from ekfcert.model import eval_jacobians

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


def _ref_virtual(model, K, y, z0, horizon, step, disturbance=None):
    b_worst = 0.0

    def rhs(t, z):
        dz = model.f(z, t) - K(t) @ (model.h(z, t) - y(t))
        if disturbance is not None:
            bv = np.asarray(disturbance.b(z, t), dtype=float).reshape(-1)
            nonlocal b_worst
            b_worst = max(b_worst, float(np.linalg.norm(bv)))
            dz = dz + bv
        return dz

    grid = ek.time_grid(horizon, step)
    states = np.empty((len(grid), model.state_dim))
    states[0] = z0
    z = z0
    for k in range(len(grid) - 1):
        z = ek.rk4_step(rhs, grid[k], z, grid[k + 1] - grid[k])
        if not np.all(np.isfinite(z)) or np.linalg.norm(z) > LIMIT:
            raise ek.DivergenceError(f"virtual state diverged at t={grid[k + 1]:.6g}",
                                     time=float(grid[k + 1]))
        states[k + 1] = z
    return states, b_worst


def _ref_ekf(config, y):
    model = config.model
    n = model.state_dim
    grid = ek.time_grid(config.horizon, config.step)

    def rhs(t, stacked):
        xhat = stacked[:n]
        P = stacked[n:].reshape(n, n)
        P = 0.5 * (P + P.T)
        A, C = eval_jacobians(model, xhat, t)
        K = ek.kalman_gain(P, C, config.R)
        dx = model.f(xhat, t) - K @ (model.h(xhat, t) - y(t))
        dP = ek.riccati_rhs(P, A, C, config.Q, config.R, config.N, config.beta)
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
        gains[k] = ek.kalman_gain(covs[k], C, config.R)
    eigs = np.linalg.eigvalsh(covs)
    return states, covs, gains, float(eigs[:, 0].min()), float(eigs[:, -1].max())


def _ref_validator(model, run, z0, step):
    """Finiteness-only guard, and every accessor through ``_ref_interp_path``."""
    n = model.state_dim
    times = run.times
    K = lambda t: _ref_interp_path(times, run.gains.reshape(len(times), -1),
                                   t).reshape(n, model.output_dim)
    y = run.measurement_signal
    dz0 = np.ones(n) / math.sqrt(n)

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


# ------------------------------------------------------------------- rigs

RIGS = {
    "vanderpol-pos": dict(params={"mu": 0.15}, x0=[0.34, 0.2], xhat0=[0.3, 0.2],
                          z0=[0.28, 0.19], horizon=3.0, step=0.01),
    "cubic-scalar": dict(params={"eps": 0.1}, x0=[0.3], xhat0=[0.0], z0=[-0.2],
                         horizon=3.0, step=0.01),
}


@pytest.fixture(scope="module", params=sorted(RIGS))
def rig(request):
    spec = RIGS[request.param]
    model = ek.make(request.param, **spec["params"]).model
    n = model.state_dim
    x0 = np.array(spec["x0"])
    truth, y = ek.integrate_truth(model, x0, spec["horizon"], spec["step"])
    fc = ek.FilterConfig(model=model, Q=np.eye(n), R=np.eye(model.output_dim),
                         P0=np.eye(n), x0=np.array(spec["xhat0"]),
                         horizon=spec["horizon"], step=spec["step"])
    return {"model": model, "x0": x0, "z0": np.array(spec["z0"]), "spec": spec,
            "truth": truth, "y": y, "fc": fc, "run": ek.integrate_ekf(fc, y)}


def _ref_gain(run):
    n, p = run.gains.shape[1:]
    return lambda t: _ref_interp_path(run.times, run.gains.reshape(len(run.times), -1),
                                      t).reshape(n, p)


# ------------------------------------------------------------ bit for bit

def test_truth_matches_reference_loop(rig):
    grid, states = _ref_truth(rig["model"], rig["x0"], rig["spec"]["horizon"],
                              rig["spec"]["step"])
    assert np.array_equal(rig["truth"].times, grid)
    assert np.array_equal(rig["truth"].values, states)
    for t in np.linspace(-0.1, rig["spec"]["horizon"] + 0.1, 57):
        ref = rig["model"].h(_ref_series_at(grid, states, t), t)
        assert np.array_equal(rig["y"](t), ref)


def test_filter_matches_reference_loop(rig):
    model, truth = rig["model"], rig["truth"]
    y = lambda t: model.h(_ref_series_at(truth.times, truth.values, t), t)
    states, covs, gains, p_lo, p_hi = _ref_ekf(rig["fc"], y)
    run = rig["run"]
    assert np.array_equal(run.states, states)
    assert np.array_equal(run.covariances, covs)
    assert np.array_equal(run.gains, gains)
    assert (run.p_lo, run.p_hi) == (p_lo, p_hi)


def test_accessors_match_reference_interpolation(rig):
    run = rig["run"]
    m = len(run.times)
    mids = 0.5 * (run.times[1:] + run.times[:-1])
    probes = np.concatenate([run.times, mids[::7], [-1.0, run.times[-1] + 1.0]])
    for t in probes:
        t = float(t)
        assert np.array_equal(run.state_at(t), _ref_interp_path(run.times, run.states, t))
        assert np.array_equal(run.cov_at(t), _ref_interp_path(
            run.times, run.covariances.reshape(m, -1), t).reshape(run.covariances.shape[1:]))
        assert np.array_equal(run.gain_at(t), _ref_gain(run)(t))


@pytest.mark.parametrize("disturbed", [False, True])
def test_virtual_matches_reference_loop(rig, disturbed):
    run, spec = rig["run"], rig["spec"]
    n = rig["model"].state_dim
    dist = None
    if disturbed:
        vec = np.full(n, 0.01)
        dist = ek.Disturbance(b=lambda z, t: vec * math.sin(2.0 * t),
                              b_max=float(np.linalg.norm(vec)))
    new = ek.integrate_virtual(rig["model"], run.gain_at, run.measurement_signal,
                               rig["z0"], spec["horizon"], spec["step"], disturbance=dist)
    states, b_worst = _ref_virtual(rig["model"], _ref_gain(run), run.measurement_signal,
                                   rig["z0"], spec["horizon"], spec["step"], dist)
    assert np.array_equal(new.values, states)
    assert b_worst > 0.0 if disturbed else b_worst == 0.0


@pytest.mark.parametrize("refine", [1, 2])
def test_variational_validator_matches_reference_loop(rig, refine):
    run = rig["run"]
    step = rig["spec"]["step"] / refine
    new = ek.variational_validator(rig["model"], run, rig["z0"], step=step)
    assert new == _ref_validator(rig["model"], run, rig["z0"], step)


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


def test_truth_guard_reports_first_failing_node():
    model, x0 = _blowup_model(), np.array([3.0])
    grid = ek.time_grid(0.2, 0.01)
    with np.errstate(over="ignore", invalid="ignore"):
        t_fail = _first_failing_node(lambda t, s: model.f(s, t), x0, grid)
        with pytest.raises(ek.DivergenceError) as info:
            ek.integrate_truth(model, x0, 0.2, 0.01)
    _assert_divergence(info, "truth", t_fail)


def test_virtual_guard_reports_first_failing_node():
    model, z0 = _blowup_model(), np.array([3.0])
    grid = ek.time_grid(0.2, 0.01)
    with np.errstate(over="ignore", invalid="ignore"):
        t_fail = _first_failing_node(lambda t, s: model.f(s, t), z0, grid)
        with pytest.raises(ek.DivergenceError) as info:
            ek.integrate_virtual(model, lambda t: np.zeros((1, 1)),
                                 lambda t: np.zeros(1), z0, 0.2, 0.01)
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
    assert math.isfinite(_ref_validator(model, run, z0, 0.01))
    t_fail = _first_failing_node(lambda t, s: 30.0 * s, np.array([1.0, 1.0]), run.times)
    assert 0.9 < t_fail < 1.0
    with pytest.raises(ek.DivergenceError) as info:
        ek.variational_validator(model, run, z0)
    _assert_divergence(info, "variational state", t_fail)


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
    model, run = scalar_rig["model"], scalar_rig["traj"]
    starts = {
        "integrate_truth": (lambda: ek.integrate_truth(model, np.array([0.4]), 1.0, 0.01),
                            [0.4]),
        "integrate_ekf": (lambda: ek.integrate_ekf(scalar_rig["fc"], scalar_rig["y"]),
                          [0.5, 2.0]),
        "integrate_virtual": (lambda: ek.integrate_virtual(
            model, run.gain_at, run.measurement_signal, np.array([0.1]), 1.0, 0.01), [0.1]),
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
