import dataclasses
import math
import re

import numpy as np
import pytest

import ekfcert as ek
from ekfcert import cli
from ekfcert.ekf import _definite, interp

from conftest import random_spd


def _const_y(value):
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    return lambda t: arr.copy()


def _reference_gain(P, C, R):
    """K = P C^T R^{-1}, inverting R on each call."""
    return (np.linalg.inv(R) @ (C @ P)).swapaxes(-1, -2)



class _FirstStep(Exception):
    pass


def test_every_run_takes_its_steps_through_the_exported_rk4_step(monkeypatch):
    """ekfcert.rk4_step is the global of ekf that integrate looks up at each step, so
    replacing ekf.rk4_step, as the benchmark's set-up probe does, stops every run at its
    first step: the filter's, the truth's alone and the validator's."""
    assert ek.rk4_step is ek.ekf.rk4_step
    model = ek.make("vanderpol-pos").model
    fc = ek.FilterConfig(model=model, Q=np.eye(2), R=np.eye(1), P0=np.eye(2),
                         x0=[0.3, 0.2], horizon=1.0, step=0.1)
    run = ek.integrate_ekf(fc, x0=[0.34, 0.2])

    def stop(*args):
        raise _FirstStep

    monkeypatch.setattr(ek.ekf, "rk4_step", stop)
    for call in (lambda: ek.integrate_ekf(fc, x0=[0.34, 0.2]),
                 lambda: ek.integrate_truth(model, [0.34, 0.2], 1.0, 0.1),
                 lambda: ek.variational_validator(model, run, [0.3, 0.2])):
        with pytest.raises(_FirstStep):
            call()

def test_kalman_gain_examples():
    """The filter's gain ekf._gain, which takes R^{-1}."""
    from ekfcert.ekf import _gain

    def gain(P, C, R):
        return _gain(P, C, np.linalg.inv(R))

    assert np.allclose(gain(np.eye(2), np.eye(2), np.eye(2)), np.eye(2))
    P = 2.0 * np.eye(2)
    C = np.array([[1.0, 0.0]])
    R = np.array([[0.5]])
    assert np.allclose(gain(P, C, R), np.array([[4.0], [0.0]]))
    assert np.all(gain(P, np.zeros((1, 2)), R) == 0.0)
    assert np.allclose(gain(np.array([[2.0]]), np.array([[3.0]]), np.array([[0.5]])), 12.0)


def test_riccati_rhs_examples():
    Q = np.diag([1.0, 2.0])
    R = np.eye(1)
    dP = ek.riccati_rhs(np.eye(2), np.zeros((2, 2)), np.zeros((1, 2)), Q, R)
    assert np.array_equal(dP, Q)
    # scalar equilibrium: q - p^2 / r = 0 at p = sqrt(q r)
    dp = ek.riccati_rhs(np.array([[2.0]]), np.zeros((1, 1)), np.ones((1, 1)),
                        np.array([[4.0]]), np.array([[1.0]]))
    assert abs(dp[0, 0]) < 1e-12
    dP_n = ek.riccati_rhs(np.eye(2), np.zeros((2, 2)), np.zeros((1, 2)), Q, R,
                          N=np.eye(2))
    assert np.array_equal(dP_n, Q + 2.0 * np.eye(2))
    dP_b = ek.riccati_rhs(np.eye(2), np.zeros((2, 2)), np.zeros((1, 2)), Q, R,
                          beta=0.5)
    assert np.array_equal(dP_b, Q + np.eye(2))


def test_equilibrium_run_is_stationary():
    model = ek.make("scalar-riccati").model
    fc = ek.FilterConfig(model=model, Q=np.eye(1), R=np.eye(1),
                         P0=np.eye(1), x0=np.array([0.4]), horizon=3.0)
    traj = ek.integrate_ekf(fc, _const_y(0.4))
    assert np.max(np.abs(traj.states - 0.4)) <= 1e-12
    assert np.max(np.abs(traj.covariances - 1.0)) <= 1e-12


def test_zero_output_gain_leaves_pure_flow():
    model = ek.SystemModel(
        state_dim=1, output_dim=1,
        dynamics=lambda x, t: -x,
        output=lambda x, t: np.zeros(1),
        jacobian_A=lambda x, t: -np.eye(1),
        jacobian_C=lambda x, t: np.zeros((1, 1)))
    q, p0 = 0.5, 2.0
    fc = ek.FilterConfig(model=model, Q=np.array([[q]]), R=np.eye(1),
                         P0=np.array([[p0]]), x0=np.array([1.0]), horizon=2.0)
    traj = ek.integrate_ekf(fc, _const_y(0.0))
    T = traj.times[-1]
    assert abs(traj.states[-1, 0] - np.exp(-T)) < 1e-9
    # with C = 0 the covariance follows dP/dt = -2P + q exactly
    p_exact = q / 2.0 + (p0 - q / 2.0) * np.exp(-2.0 * T)
    assert abs(traj.covariances[-1, 0, 0] - p_exact) < 1e-9
    assert np.all(traj.gains == 0.0)


def test_step_halving_shows_fourth_order():
    model = ek.make("scalar-riccati").model
    y = _const_y(0.4)
    finals = []
    for step in (2.0 / 250, 2.0 / 500, 2.0 / 1000):
        fc = ek.FilterConfig(model=model, Q=np.eye(1), R=np.eye(1),
                             P0=np.array([[2.0]]), x0=np.array([0.5]),
                             horizon=2.0, step=step)
        traj = ek.integrate_ekf(fc, y)
        finals.append(np.concatenate([traj.states[-1],
                                      traj.covariances[-1].ravel()]))
    d1 = np.linalg.norm(finals[0] - finals[1])
    d2 = np.linalg.norm(finals[1] - finals[2])
    assert d2 > 0.0
    assert 8.0 < d1 / d2 < 40.0


def test_covariance_stays_symmetric(scalar_rig):
    covs = scalar_rig["traj"].covariances
    assert np.array_equal(covs, covs.transpose(0, 2, 1))


def test_additive_inflation_dominates_baseline():
    entry = ek.make("ltv-linear")
    y = _const_y(0.0)
    base = ek.FilterConfig(model=entry.model, Q=np.eye(2), R=np.eye(1),
                           P0=np.eye(2), x0=np.array([1.0, 0.0]), horizon=4.0)
    inflated = ek.FilterConfig(model=entry.model, Q=np.eye(2), R=np.eye(1),
                               P0=np.eye(2), x0=np.array([1.0, 0.0]),
                               horizon=4.0, N=0.3 * np.eye(2))
    t0 = ek.integrate_ekf(base, y)
    t1 = ek.integrate_ekf(inflated, y)
    gaps = np.linalg.eigvalsh(t1.covariances - t0.covariances)
    assert gaps[:, 0].min() >= -1e-8


def test_exponential_inflation_dominates_baseline():
    model = ek.make("scalar-riccati").model
    y = _const_y(0.0)
    base = ek.FilterConfig(model=model, Q=np.eye(1), R=np.eye(1),
                           P0=np.array([[2.0]]), x0=np.zeros(1), horizon=4.0)
    inflated = ek.FilterConfig(model=model, Q=np.eye(1), R=np.eye(1),
                               P0=np.array([[2.0]]), x0=np.zeros(1),
                               horizon=4.0, beta=0.1)
    t0 = ek.integrate_ekf(base, y)
    t1 = ek.integrate_ekf(inflated, y)
    assert np.min(t1.covariances - t0.covariances) >= -1e-8


def test_stored_gains_match_recomputation(scalar_rig):
    traj = scalar_rig["traj"]
    cfg = traj.config
    for k in (0, len(traj.times) // 2, len(traj.times) - 1):
        _, C = ek.eval_jacobians(cfg.model, traj.states[k], float(traj.times[k]))
        K = _reference_gain(traj.covariances[k], C, cfg.R)
        assert np.array_equal(traj.gains[k], K)


def test_interpolators_hit_nodes_exactly(scalar_rig):
    traj = scalar_rig["traj"]
    k = len(traj.times) // 3
    t = float(traj.times[k])
    assert np.array_equal(interp(traj.times, traj.states, t), traj.states[k])
    assert np.array_equal(interp(traj.times, traj.covariances, t), traj.covariances[k])
    assert np.array_equal(interp(traj.times, traj.gains, t), traj.gains[k])


def test_covariance_loss_is_reported_with_time():
    # large step overshoots the Riccati decay and drives P negative
    model = ek.make("scalar-riccati").model
    fc = ek.FilterConfig(model=model, Q=np.array([[1e-12]]), R=np.eye(1),
                         P0=np.array([[10.0]]), x0=np.zeros(1),
                         horizon=1.0, step=0.2)
    with pytest.raises(ek.CovarianceBoundViolation) as info:
        ek.integrate_ekf(fc, _const_y(0.0))
    assert info.value.time == pytest.approx(0.2)


def test_divergence_is_reported_with_time():
    model = ek.SystemModel(
        state_dim=1, output_dim=1,
        dynamics=lambda x, t: x ** 3,
        output=lambda x, t: np.zeros(1),
        jacobian_A=lambda x, t: np.array([[3.0 * x[0] ** 2]]),
        jacobian_C=lambda x, t: np.zeros((1, 1)))
    fc = ek.FilterConfig(model=model, Q=np.eye(1), R=np.eye(1),
                         P0=np.eye(1), x0=np.array([3.0]),
                         horizon=1.0, step=0.01)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ek.DivergenceError) as info:
            ek.integrate_ekf(fc, _const_y(0.0))
    assert 0.0 < info.value.time <= 1.0


def test_config_validation():
    model = ek.make("scalar-riccati").model
    good = dict(model=model, Q=np.eye(1), R=np.eye(1), P0=np.eye(1),
                x0=np.zeros(1), horizon=1.0)
    ek.FilterConfig(**good)
    for override in (dict(Q=np.zeros((1, 1))),
                     dict(R=np.array([[-1.0]])),
                     dict(P0=np.eye(2)),
                     dict(x0=np.zeros(2)),
                     dict(horizon=-1.0),
                     dict(step=2.0),
                     dict(beta=-0.5),
                     dict(N=-np.eye(1))):
        with pytest.raises(ek.ConfigurationError):
            ek.FilterConfig(**{**good, **override})
    two = ek.make("ltv-linear").model
    with pytest.raises(ek.ConfigurationError):
        ek.FilterConfig(model=two, Q=np.array([[1.0, 0.5], [0.0, 1.0]]),
                        R=np.eye(1), P0=np.eye(2), x0=np.zeros(2), horizon=1.0)


def test_default_step_is_horizon_fraction():
    model = ek.make("scalar-riccati").model
    fc = ek.FilterConfig(model=model, Q=np.eye(1), R=np.eye(1), P0=np.eye(1),
                         x0=np.zeros(1), horizon=8.0)
    assert fc.step == pytest.approx(8.0 / 2000.0)


def test_timeseries_measurements_match_callable():
    # constant signal interpolates to rounding error, so both paths agree
    model = ek.make("scalar-riccati").model
    fc = ek.FilterConfig(model=model, Q=np.eye(1), R=np.eye(1),
                         P0=np.array([[2.0]]), x0=np.zeros(1), horizon=2.0)
    times = np.linspace(0.0, 2.0, 11)
    series = ek.TimeSeries(times, np.full((11, 1), 0.4))
    t_series = ek.integrate_ekf(fc, series)
    t_callable = ek.integrate_ekf(fc, _const_y(0.4))
    assert np.max(np.abs(t_series.states - t_callable.states)) < 1e-12
    assert np.max(np.abs(t_series.covariances - t_callable.covariances)) < 1e-12


@pytest.mark.parametrize("entry", ek.registry(), ids=lambda e: e.name)
def test_the_bounds_report_is_read_from_the_run_without_an_eigen_solve(entry, linalg_calls):
    """The run's one eigvalsh over its covariances gives p_lo, p_hi and their
    node times; the report summary.json carries equals, float for float, one
    recomputed from that stack and from Q and R."""
    n, p = entry.model.state_dim, entry.model.output_dim
    rng = np.random.default_rng(3)
    fc = ek.FilterConfig(model=entry.model, Q=random_spd(rng, n), R=random_spd(rng, p),
                         P0=random_spd(rng, n, 1.0, 3.0), x0=np.full(n, 0.3),
                         horizon=3.0, step=0.01)
    traj = ek.integrate_ekf(fc, x0=np.full(n, 0.34))
    linalg_calls.clear()
    report = cli._bounds_report(traj)
    assert linalg_calls["eigvalsh"] == 0
    eigs = np.linalg.eigvalsh(traj.covariances)
    lo, hi = int(np.argmin(eigs[:, 0])), int(np.argmax(eigs[:, -1]))
    p_lo, p_hi = float(eigs[lo, 0]), float(eigs[hi, -1])
    expected = {"p_lo": p_lo, "p_hi": p_hi, "ratio": p_hi / p_lo,
                "t_at_p_lo": float(traj.times[lo]), "t_at_p_hi": float(traj.times[hi]),
                "q_lo": float(np.linalg.eigvalsh(fc.Q)[0]),
                "r_lo": float(np.linalg.eigvalsh(fc.R)[0])}
    assert {k: (type(v), v) for k, v in report.items()} == {
        k: (type(v), v) for k, v in expected.items()}


def test_bounds_report_on_decaying_covariance(scalar_rig):
    traj = scalar_rig["traj"]
    rep = cli._bounds_report(traj)
    assert rep["t_at_p_hi"] == 0.0
    assert rep["t_at_p_lo"] == traj.times[-1]
    assert rep["p_hi"] == pytest.approx(2.0)
    assert rep["p_lo"] == pytest.approx(1.0, abs=1e-6)
    assert rep["ratio"] == pytest.approx(rep["p_hi"] / rep["p_lo"])
    assert rep["q_lo"] == 1.0 and rep["r_lo"] == 1.0


def test_covariance_stays_exactly_symmetric_without_resymmetrizing():
    # integrate_ekf relies on this: P0 is symmetrized once, riccati_rhs
    # returns an exactly symmetric dP, and RK4 combines stages elementwise
    rng = np.random.default_rng(5)
    P0 = np.array([[1.3, 0.4, 0.1], [0.4, 0.7, -0.2], [0.1, -0.2, 0.9]])
    Q = np.array([[1.0, 0.3, 0.0], [0.3, 0.6, 0.1], [0.0, 0.1, 0.8]])
    R = np.array([[0.7, 0.2], [0.2, 0.5]])
    N = 0.01 * np.eye(3)
    for _ in range(20):
        A, C = rng.standard_normal((3, 3)), rng.standard_normal((2, 3))
        dP = ek.riccati_rhs(P0, A, C, Q, R, N, 0.01)
        assert np.array_equal(dP, dP.T)
    model = ek.SystemModel(
        state_dim=3, output_dim=2,
        dynamics=lambda x, t: np.array([x[1], -x[0] - 0.3 * x[1] ** 3, -x[2] + x[0] * x[1]]),
        output=lambda x, t: np.array([x[0] + 0.1 * x[2] ** 2, np.sin(x[1])]))
    fc = ek.FilterConfig(model=model, Q=Q, R=R, P0=P0, x0=np.array([0.3, 0.2, -0.1]),
                         horizon=2.0, step=0.01, beta=0.01, N=N)
    covs = ek.integrate_ekf(fc, x0=np.array([0.4, 0.1, 0.0])).covariances
    assert np.array_equal(covs, covs.transpose(0, 2, 1))


def test_a_measurement_must_have_one_entry_per_output():
    model = ek.SystemModel(state_dim=2, output_dim=2,
                           dynamics=lambda x, t: -x, output=lambda x, t: x.copy())
    fc = ek.FilterConfig(model=model, Q=np.eye(2), R=np.eye(2), P0=np.eye(2),
                         x0=np.zeros(2), horizon=1.0, step=0.1)
    for value, shape in (([0.1], "(1,)"), ([0.1, 0.2, 0.3], "(3,)"), (0.1, "()")):
        with pytest.raises(ek.ConfigurationError, match=re.escape(
                f"measurement at t=0 has shape {shape}, expected (2,)")):
            ek.integrate_ekf(fc, lambda t: np.asarray(value))
    scalar = ek.make("scalar-riccati").model
    fc = ek.FilterConfig(model=scalar, Q=np.eye(1), R=np.eye(1), P0=np.eye(1),
                         x0=np.zeros(1), horizon=1.0, step=0.1)
    by_scalar = ek.integrate_ekf(fc, lambda t: 0.4)
    by_array = ek.integrate_ekf(fc, _const_y(0.4))
    assert np.array_equal(by_scalar.states, by_array.states)
    assert np.array_equal(by_scalar.stage_outputs, by_array.stage_outputs)
    with pytest.raises(ek.ConfigurationError, match="callable signal, got list"):
        ek.integrate_ekf(fc, [0.4])


@pytest.mark.parametrize("name, bad", [("cubic-scalar", math.nan), ("vanderpol-pos", math.inf),
                                       ("vanderpol-pos", -math.inf)])
def test_a_non_finite_measurement_is_a_configuration_error_at_its_time(name, bad):
    """The measured signal is input, not model output: its first non-finite value is named
    with its stage time, where the run itself fails one stage later on a non-finite state."""
    model = ek.make(name).model
    n = model.state_dim
    fc = ek.FilterConfig(model=model, Q=np.eye(n), R=np.eye(1), P0=np.eye(n), x0=np.zeros(n),
                         horizon=1.0, step=0.1)
    with pytest.raises(ek.ConfigurationError) as refused:
        ek.integrate_ekf(fc, lambda t: np.array([bad if t > 0.5 else 0.1]))
    assert str(refused.value) == f"measurement at t=0.55 must be finite, got [{bad}]"


def test_a_covariance_lost_before_a_non_finite_measurement_keeps_its_precedence():
    # Q ~ 0 with a large P0 drives P through zero at the first step, t = 0.2
    fc = ek.FilterConfig(model=ek.make("scalar-riccati").model, Q=[[1e-12]], R=np.eye(1),
                         P0=[[10.0]], x0=np.zeros(1), horizon=1.0, step=0.2)
    with pytest.raises(ek.CovarianceBoundViolation, match="at t=0.2$"):
        ek.integrate_ekf(fc, lambda t: np.array([math.nan if t > 0.5 else 0.1]))
    with pytest.raises(ek.ConfigurationError, match=re.escape("at t=0 must be finite, got [nan]")):
        ek.integrate_ekf(fc, lambda t: np.array([math.nan]))


@pytest.mark.parametrize("beta, shown", [(-1.0, "-1.0"), (math.nan, "nan"), ("x", "'x'")])
def test_riccati_rhs_reads_beta_as_filter_config_does(beta, shown):
    with pytest.raises(ek.ConfigurationError) as refused:
        ek.riccati_rhs(np.eye(1), np.zeros((1, 1)), np.ones((1, 1)), np.eye(1), np.eye(1),
                       beta=beta)
    assert str(refused.value) == f"beta must be nonnegative and finite, got {shown}"


@pytest.mark.parametrize("N, message", [
    (-np.eye(2), "N must be positive semidefinite, min eigenvalue -1.000e+00"),
    ([[0.0, 1.0], [0.0, 0.0]], "N must be symmetric"),
    (np.zeros((3, 3)), "N must have shape (2, 2), got (3, 3)"),
])
def test_riccati_rhs_reads_n_as_filter_config_does(N, message):
    with pytest.raises(ek.ConfigurationError) as refused:
        ek.riccati_rhs(np.eye(2), np.zeros((2, 2)), np.ones((1, 2)), np.eye(2), np.eye(1), N)
    assert str(refused.value) == message


@pytest.mark.parametrize("horizon, step, message", [
    (0.0, 0.1, "horizon must be positive"), (-1.0, 0.1, "horizon must be positive"),
    (float("nan"), 0.1, "horizon must be positive"), (1.0, 0.0, "step must be positive"),
    (1.0, -0.1, "step must be positive")])
def test_time_grid_rejects_bad_input(horizon, step, message):
    with pytest.raises(ek.ConfigurationError, match=message):
        ek.time_grid(horizon, step)


@pytest.mark.parametrize("times, values, message", [
    ([], np.zeros((0, 1)), "nonempty 1-d"),
    ([[0.0, 1.0]], np.zeros((1, 1)), "nonempty 1-d"),
    ([0.0, 1.0], np.zeros((3, 1)), "one entry per time"),
    ([0.0, 1.0, 1.0], np.zeros((3, 1)), "strictly increasing"),
    ([0.0, 2.0, 1.0], np.zeros((3, 1)), "strictly increasing")])
def test_timeseries_rejects_bad_input(times, values, message):
    with pytest.raises(ek.ConfigurationError, match=message):
        ek.TimeSeries(times, values)


def _scalar_config(**override):
    return ek.FilterConfig(**{**dict(model=ek.make("scalar-riccati").model, Q=np.eye(1),
                                     R=np.eye(1), P0=np.eye(1), x0=np.zeros(1),
                                     horizon=0.2, step=0.05), **override})


def _small_run():
    return ek.integrate_ekf(_scalar_config(), lambda t: np.zeros(1))


@pytest.mark.parametrize("make, message", [
    (lambda: ek.time_grid(math.inf, 0.1), "horizon must be positive and finite"),
    (lambda: _scalar_config(horizon=math.inf), "horizon must be positive and finite"),
    (lambda: _scalar_config(beta=math.nan), "beta must be nonnegative and finite"),
    (lambda: _scalar_config(beta=math.inf), "beta must be nonnegative and finite"),
    (lambda: ek.TimeSeries([0.0], 5.0), "one entry per time"),
    (lambda: ek.TimeSeries([math.nan], [[1.0]]), "times must be finite"),
    (lambda: ek.TimeSeries([0.0, math.inf], [[1.0], [2.0]]), "times must be finite"),
    (lambda: ek.HessianBounds(alpha=1.0, kappa_A=math.nan, kappa_C=0.0),
     "kappa_A must be nonnegative, got nan"),
    (lambda: ek.HessianBounds(alpha=1.0, kappa_A=0.0, kappa_C=math.nan),
     "kappa_C must be nonnegative, got nan"),
    (lambda: ek.estimate_hessian_bounds(ek.make("cubic-scalar").model, [np.zeros(1)], 0.0,
                                        1.0, safety=math.nan), "safety must be nonnegative"),
    (lambda: ek.zeta_plus(math.nan, 0.0, 1.0, 1.0, 1.0, 0.1), "kappa_A must be nonnegative"),
    (lambda: ek.zeta_plus(0.0, 0.0, math.nan, 1.0, 1.0, 0.1), "must be positive"),
    (lambda: ek.zeta_plus(0.1, 0.1, 1.0, 1.0, 1.0, math.nan),
     "gamma must be nonnegative and finite"),
    (lambda: ek.empirical_radius(ek.make("scalar-riccati").model, np.zeros(1), np.eye(1),
                                 np.eye(1), np.eye(1), math.nan, 0.0), "gamma must be"),
    (lambda: ek.compare_analyses(math.nan, 1.0, 1.0, 1.0, 1.0, 1.0), "p_lo must be positive"),
    (lambda: ek.compare_analyses(1.0, 1.0, 1.0, 1.0, -1.0, 1.0), "kappa_A must be nonnegative"),
    (lambda: ek.compare_analyses(1.0, 1.0, 1.0, 1.0, 1.0, math.nan),
     "kappa_C must be nonnegative"),
    (lambda: ek.compare_analyses(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -2.0), "c_hi must be positive"),
    (lambda: ek.compare_analyses(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, math.nan), "c_hi must be positive"),
    (lambda: _scalar_config(Q=np.array([[math.inf]])), "Q must be finite"),
    (lambda: _scalar_config(N=np.array([[math.inf]])), "N must be finite"),
    (lambda: _scalar_config(x0=np.array([math.nan])), "x0 must be finite"),
    (lambda: ek.integrate_truth(ek.make("scalar-riccati").model, np.array([math.nan]), 0.2, 0.05),
     "x0 must be finite"),
    (lambda: ek.integrate_ekf(_scalar_config(), lambda t: np.zeros(1),
                              starts=[[0.1], [math.inf]]), re.escape("starts[1] must be finite")),
    (lambda: ek.variational_validator(ek.make("scalar-riccati").model, _small_run(),
                                      np.array([math.nan])), "z0 must be finite"),
    (lambda: ek.Disturbance(b=lambda x, t: np.zeros(1), b_max=math.nan), "b_max must be"),
    (lambda: ek.Disturbance(b=lambda x, t: np.zeros(1), b_max=math.inf), "b_max must be"),
    (lambda: ek.perturbed_run(ek.integrate_ekf(
        _scalar_config(), lambda t: np.zeros(1), starts=[np.zeros(1)],
        disturbance=ek.Disturbance(b=lambda x, t: np.zeros(1), b_max=0.0)), gamma=math.nan),
     "gamma must be positive"),
])
def test_a_nan_or_infinite_input_is_rejected_where_it_enters(make, message):
    with pytest.raises(ek.ConfigurationError, match=message):
        make()


def test_an_infinite_radius_or_curvature_bound_stays_valid():
    run = _small_run()
    hess = ek.HessianBounds(alpha=math.inf, kappa_A=math.inf, kappa_C=math.inf)
    cert = ek.make_certificate(dataclasses.replace(run, p_lo=1.0, p_hi=1.0), hess)
    assert (cert.alpha, cert.zeta_plus, cert.rho) == (math.inf, 0.0, 0.0)


def _signed(rng, shape):
    """Normal draws with exact +0.0 and -0.0 entries mixed in."""
    x = rng.standard_normal(shape)
    x[rng.random(shape) < 0.3] = 0.0
    x[rng.random(shape) < 0.3] *= -1.0
    return x


def _sign_keeping_matmul(a, b):
    """a @ b, except that a product of one entry each is their IEEE product, whose
    exact zero keeps its sign; @ adds it to +0.0."""
    if a.size == 1 and b.size == 1:
        return (a * b).reshape(a.shape[:-1] + b.shape[1:])
    return a @ b


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_stage_products_give_the_bits_of_matmul(n, p):
    # operands laid out as the stages hold them: P an exactly symmetric view of the
    # [x; P] state rows (P0 and every dP are symmetrized, so every RK4 stage's P is),
    # dz of the [z; dz] validator state, K and y rows of the run's tables; at n = 1 the
    # (1, 1) products A P, K (h - y) at p = 1 and (A - K C) dz keep an exact zero's sign
    from ekfcert.ekf import _gain, _riccati
    rng = np.random.default_rng(1000 * n + p)
    ref = _sign_keeping_matmul if n == 1 else np.matmul
    for _ in range(200):
        state, s = _signed(rng, (n + 1, n)), _signed(rng, 2 * n)
        state[1:] = 0.5 * (state[1:] + state[1:].T)
        P, dz = state[1:], s[n:]
        assert (P == P.T).all()
        A, C, Q, N2 = (_signed(rng, shape) for shape in [(n, n), (p, n), (n, n), (n, n)])
        Rinv = _signed(rng, (p, p))
        K, y = _signed(rng, (3, n, p))[1], _signed(rng, (3, p))[1]
        f, h = _signed(rng, n), _signed(rng, p)
        beta2 = float(rng.choice([0.0, 0.3]))
        PCt = ref(P, C.T)
        dP = ref(A, P) + ref(P, A.T) + Q - ref(PCt, ref(Rinv, PCt.T)) + N2
        if beta2:
            dP = dP + beta2 * P
        assert _riccati(P, A, C, Q, Rinv, N2, beta2).tobytes() == (
            0.5 * (dP + dP.T)).tobytes()
        assert _gain(P, C, Rinv).tobytes() == ref(Rinv, ref(C, P)).T.tobytes()
        assert (f - K.dot(h - y)).tobytes() == (f - ref(K, h - y)).tobytes()
        assert (A - K.dot(C)).dot(dz).tobytes() == ref(A - ref(K, C), dz).tobytes()


def _one_entry(rng, shape):
    """Draws for one-entry operands: normals, half of them scaled by 10^-160 ... 10^160
    so that products overflow or underflow, with exact zeros and subnormals mixed in,
    each of either sign."""
    x = rng.standard_normal(shape) * 10.0 ** np.where(rng.random(shape) < 0.5, 0,
                                                      rng.integers(-160, 161, shape))
    kind = rng.random(shape)
    x = np.where(kind < 0.15, 0.0, x)
    x = np.where((kind >= 0.15) & (kind < 0.25), rng.integers(1, 2 ** 40, shape) * 5e-324, x)
    return np.where(rng.random(shape) < 0.5, -x, x)


def test_one_state_float_stages_give_the_bits_of_the_dot_stages():
    """At n = p = 1 a stage runs on Python floats: _scalar_stage for _gain and _riccati
    (with and without 2N and 2 beta), _scalar_flow for f - K.dot(h - y) and
    _scalar_tangent for the validator's (A - K.dot(C)).dot(dz). Each gives the .dot kernel's bits, a zero's sign
    included, on seeded draws with subnormals, products that overflow, and an infinite or
    NaN P. Any reassociated product in a float kernel changes some of these bits."""
    from types import SimpleNamespace

    from ekfcert.ekf import _gain, _riccati, _scalar_flow, _scalar_stage, _scalar_tangent
    rng = np.random.default_rng(31)
    draws = 2000
    p, a, c, q, rinv, n2, beta2, k, y, f, h, z, dz = _one_entry(rng, (13, draws))
    bad = rng.random(draws) < 0.1
    p[bad] = rng.choice([math.inf, -math.inf, math.nan], bad.sum())
    p[:50], a[:50] = 1.0, rng.uniform(0.3, 0.9, 50) * 1e308   # A P + P A^T overflows alone

    def bits(x):
        return np.asarray(x, dtype=float).reshape(-1).view(np.int64).tolist()

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for i in range(draws):
            v = [x[i].item() for x in (p, a, c, q, rinv, n2, beta2, k, y, f, h, z, dz)]
            P, A, C, Q, Rinv, N2, K = (np.array([[x]]) for x in v[:6] + v[7:8])
            for n2_i, beta2_i in [(None, 0.0), (v[5], 0.0), (None, v[6]), (v[5], v[6])]:
                gain, dP = _scalar_stage(v[0], v[1], v[2], v[3], v[4], n2_i, beta2_i)
                assert bits(gain) == bits(_gain(P, C, Rinv)), v
                assert bits(dP) == bits(_riccati(P, A, C, Q, Rinv, None if n2_i is None else N2,
                                                 beta2_i)), (v, n2_i, beta2_i)
            model = SimpleNamespace(dynamics=lambda x, t: np.array([v[9]]),
                                    output=lambda x, t: np.array([v[10]]))
            Z = np.array([v[11]])
            assert (bits(_scalar_flow(model, Z, 0.0, v[7], v[8]))
                    == bits(np.array([v[9]]) - K.dot(np.array([v[10]]) - np.array([v[8]])))), v
            assert (bits(_scalar_tangent(v[1], v[7], v[2], v[12]))
                    == bits((A - K.dot(C)).dot(np.array([v[12]])))), v


def _non_finite(rng, shape):
    """_signed draws with NaN, inf and -inf entries mixed in."""
    x = _signed(rng, shape)
    x[rng.random(shape) < 0.15] = math.nan
    x[rng.random(shape) < 0.1] = math.inf
    x[rng.random(shape) < 0.3] *= -1.0
    return x


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dot_and_matmul_carry_non_finite_entries_alike_except_in_three_shapes(k):
    """.dot and @ give the same values, NaN and infinities included, on the
    one-state stage shapes of A P, (A - K C) dz, K (h - y), K C,
    (P C^T)(R^{-1} C P) and R^{-1} C P with p = k, and on (k, 1)(1, k). At
    k >= 2 they differ on (1, 1)(1, k), (k, 1)(1, 1) and (k, 1)(1,): a NaN or
    an infinity that meets an exact zero gives 0 from .dot and NaN from @.
    These are P C^T and C P at n = 1, p = k, and R^{-1} C P, R^{-1} (P C^T)^T
    and K (h - y) at n = k, p = 1."""
    rng = np.random.default_rng(70 + k)
    agree = [((1, 1), (1, 1)), ((1, 1), (1,)), ((1, k), (k,)), ((1, k), (k, 1)),
             ((k, k), (k, 1)), ((k, 1), (1, k))]
    differ = [((1, 1), (1, k)), ((k, 1), (1, 1)), ((k, 1), (1,))] if k > 1 else []
    mismatched = dict.fromkeys(differ, 0)
    with np.errstate(invalid="ignore"):
        for _ in range(1000):
            for a, b in agree + differ:
                x, y = _non_finite(rng, a), _non_finite(rng, b)
                dot, mat = x.dot(y), x @ y
                same = (dot == mat) | (np.isnan(dot) & np.isnan(mat))
                if (a, b) in mismatched:
                    assert (dot[~same] == 0.0).all() and np.isnan(mat[~same]).all()
                    mismatched[a, b] += not same.all()
                else:
                    assert same.all(), (a, b)
    assert all(count > 0 for count in mismatched.values()), mismatched


@pytest.mark.parametrize("n", [2, 3, 5])
def test_riccati_rhs_reads_the_symmetric_part_of_p(n):
    from ekfcert.ekf import _riccati
    rng = np.random.default_rng(n)
    for _ in range(50):
        P, A, Q, G = (_signed(rng, (n, n)) for _ in range(4))
        N = 0.5 * (G.dot(G.T) + G.dot(G.T).T)   # symmetric and semidefinite, as riccati_rhs reads N
        C, R = _signed(rng, (2, n)), np.eye(2) + 0.1 * _signed(rng, (2, 2))
        S = 0.5 * (P + P.T)
        assert (ek.riccati_rhs(P, A, C, Q, R, N, 0.3).tobytes()
                == ek.riccati_rhs(S, A, C, Q, R, N, 0.3).tobytes())
        # an exactly symmetric P enters unchanged: the stages' own formula, bit for bit
        assert (ek.riccati_rhs(S, A, C, Q, R, N, 0.3).tobytes()
                == _riccati(S, A, C, Q, np.linalg.inv(R), 2.0 * N, 0.6).tobytes())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [1, 2])
def test_a_zero_inflation_folds_into_q_bit_for_bit(n, p):
    """A run whose 2N is zero (either sign) passes Q + 2N and no 2N to every
    stage: the same bits as adding the zero 2N to each stage's dP. Operands are
    mostly signed zeros, with non-finite entries of P in some draws."""
    from ekfcert.ekf import _riccati
    rng = np.random.default_rng(10 * n + p)

    def sparse(shape):
        return rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -1.5, 0.5], size=shape)

    for draw in range(400):
        S, Qs = sparse((n, n)), _signed(rng, (n, n))
        P, Q = 0.5 * (S + S.T), 0.5 * (Qs + Qs.T)
        if draw % 4 == 0:
            P.flat[rng.integers(n * n)] = rng.choice([math.inf, -math.inf, math.nan])
        A, C, Rinv = sparse((n, n)), sparse((p, n)), sparse((p, p))
        N2 = rng.choice([0.0, -0.0], size=(n, n))
        N2 = 0.5 * (N2 + N2.T)
        beta2 = float(rng.choice([0.0, 0.3]))
        with np.errstate(invalid="ignore"):
            assert (_riccati(P, A, C, Q + N2, Rinv, None, beta2).tobytes()
                    == _riccati(P, A, C, Q, Rinv, N2, beta2).tobytes())


def _near_singular(rng, n, m):
    """m symmetric (n, n) matrices with n - 1 eigenvalues in [0.5, 2] and one
    within 4 eps of zero, of either sign: the verdict turns on rounding."""
    V = np.linalg.qr(rng.standard_normal((m, n, n)))[0]
    lam = rng.uniform(0.5, 2.0, (m, n))
    lam[:, 0] = rng.uniform(-4.0, 4.0, m) * np.finfo(float).eps
    M = (V * lam[:, None, :]) @ V.swapaxes(1, 2)
    return 0.5 * (M + M.swapaxes(1, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_stacked_eigen_solve_gives_each_matrix_the_bits_of_its_own(n):
    """integrate_ekf decides definiteness from one eigvalsh over a strided stack
    of a node array: a matrix inserted anywhere among definite ones gets from
    the stack the eigenvalues of its own solve, bit for bit, so the stack is
    refused, at that node, exactly when its own smallest eigenvalue is not
    positive."""
    rng = np.random.default_rng(n)
    for _ in range(4):
        M = _near_singular(rng, n, 48)
        alone = np.array([np.linalg.eigvalsh(P) for P in M])
        lost = alone[:, 0] <= 0.0
        assert 8 <= lost.sum() <= 40
        good = M[~lost]
        for i in range(len(M)):
            at = int(rng.integers(len(good) + 1))
            nodes = np.zeros((len(good) + 1, n + 2, n))   # [xhat; P; z] rows, as a run holds them
            nodes[:, 1:n + 1] = np.insert(good, at, M[i], axis=0)
            stack, times = nodes[:, 1:n + 1], np.arange(len(nodes), dtype=float)
            expected = np.insert(alone[~lost], at, alone[i], axis=0)
            assert np.linalg.eigvalsh(stack).tobytes() == expected.tobytes()
            if lost[i]:
                with pytest.raises(ek.CovarianceBoundViolation) as info:
                    _definite(times, stack)
                assert info.value.time == at
            else:
                assert _definite(times, stack).tobytes() == expected.tobytes()
