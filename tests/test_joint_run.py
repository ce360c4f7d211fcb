"""The truth, the filter and the virtual rows integrated as one RK4 state.

The truth and the estimate are particular solutions of the virtual system
dz/dt = f(z, t) - K(t) (h(z, t) - y(t)). A filter run on a truth start reads
y from the truth row's own RK4 stages and applies each stage's gain to the
virtual rows, so the identity holds bit for bit, and the estimate converges
at the integrator's fourth order instead of the second order an
interpolated truth gives.
"""

import math

import numpy as np
import pytest

import ekfcert as ek


def _config(model, xhat0, horizon, steps, **extra):
    n = model.state_dim
    return ek.FilterConfig(model=model, Q=np.eye(n), R=np.eye(model.output_dim),
                           P0=np.eye(n), x0=np.asarray(xhat0, dtype=float), horizon=horizon,
                           step=horizon / steps, **extra)


@pytest.mark.parametrize("entry", ek.registry(), ids=lambda e: e.name)
def test_rows_started_at_the_estimate_and_the_truth_follow_them_bit_for_bit(entry):
    model = entry.model
    n = model.state_dim
    xhat0, x0 = np.linspace(0.3, -0.1, n), np.linspace(0.34, 0.2, n)
    run = ek.integrate_ekf(_config(model, xhat0, 6.0, 2000), x0=x0,
                           starts=[xhat0, x0, np.full(n, 0.1)])
    assert run.virtual.shape == (2001, 3, n)
    assert run.virtual[:, 0].tobytes() == run.states.tobytes()
    assert run.virtual[:, 1].tobytes() == run.truth.tobytes()
    assert not np.array_equal(run.virtual[:, 2], run.states)


@pytest.mark.parametrize("name, x0, xhat0", [("cubic-scalar", [0.3], [0.0]),
                                             ("ltv-linear", [0.8, -0.2], [1.0, 0.0])])
def test_the_final_estimate_error_falls_at_fourth_order(name, x0, xhat0):
    """Against a run 64 times finer, the final estimate error shrinks at
    least 12 times per halving of the step (16 at fourth order; an
    interpolated truth gives 4)."""
    model = ek.make(name).model

    def final(steps):
        return ek.integrate_ekf(_config(model, xhat0, 4.0, steps), x0=x0).states[-1]

    ref = final(6400)
    errors = [float(np.linalg.norm(final(steps) - ref)) for steps in (25, 50, 100)]
    assert errors[0] / errors[1] >= 12.0 and errors[1] / errors[2] >= 12.0, errors


def _blowup_plant(seen):
    """dx/dt = (x_0^2, 0) with y = 0 and C = 0, so the gain is exactly zero: from
    x_0 = a > 0 a row blows up at t = 1/a. Every state a callback gets is recorded."""
    def recorded(fn):
        def call(x, t):
            seen.append(np.array(x))
            return fn(x, t)
        return call

    return ek.SystemModel(state_dim=2, output_dim=1,
                          dynamics=recorded(lambda x, t: np.array([x[0] ** 2, 0.0])),
                          output=recorded(lambda x, t: np.zeros(1)),
                          jacobian_A=recorded(lambda x, t: np.array([[2.0 * x[0], 0.0],
                                                                     [0.0, 0.0]])),
                          jacobian_C=recorded(lambda x, t: np.zeros((1, 2))))


def _failure(fn):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            fn()
    except ek.RunFailure as exc:
        return type(exc), str(exc), exc.time
    raise AssertionError("the run did not fail")


def test_a_diverging_truth_is_named_at_its_own_time_under_a_zero_gain():
    """The truth blows up at t = 1 while the estimate rests at the origin under
    K = 0: the run stops where the truth alone does, naming it, and no callback
    sees a non-finite state, though K (h - y) is exactly zero at every stage."""
    seen = []
    model = _blowup_plant(seen)
    fc = _config(model, [0.0, 0.0], 2.0, 200)
    alone = _failure(lambda: ek.integrate_truth(model, [1.0, 0.0], 2.0, fc.step))
    assert alone[:2] == (ek.DivergenceError, f"truth diverged at t={alone[2]:.6g}")
    assert 1.0 <= alone[2] < 1.1
    seen.clear()
    assert _failure(lambda: ek.integrate_ekf(fc, x0=[1.0, 0.0], starts=[[0.5, 0.0]])) == alone
    assert np.isfinite(seen).all()
    assert not ek.integrate_ekf(fc, lambda t: np.zeros(1)).gains.any()


def test_a_filter_failure_before_the_truths_stops_the_run_at_the_filters_time():
    """The estimate from x_0 = 4 blows up near t = 1/4, the truth from 1 near
    t = 1: the run fails as the filter does alone, before the truth."""
    model = _blowup_plant([])
    fc = _config(model, [4.0, 0.0], 2.0, 200)
    alone = _failure(lambda: ek.integrate_ekf(fc, lambda t: np.zeros(1)))
    assert alone[2] < 0.3
    assert _failure(lambda: ek.integrate_ekf(fc, x0=[1.0, 0.0])) == alone


def test_a_diverging_virtual_row_stops_the_run_after_the_truth_and_the_filter():
    """A row from 2 blows up near t = 1/2; the truth and the estimate stay at rest."""
    model = _blowup_plant([])
    fc = _config(model, [0.0, 0.0], 2.0, 200)
    failure = _failure(lambda: ek.integrate_ekf(fc, x0=[0.0, 0.0], starts=[[0.1, 0.0],
                                                                           [2.0, 0.0]]))
    assert failure[:2] == (ek.DivergenceError, f"virtual state diverged at t={failure[2]:.6g}")
    assert 0.5 <= failure[2] < 0.6


def test_a_run_takes_measurements_or_a_truth_start_and_checks_its_rows():
    model = ek.make("vanderpol-pos").model
    fc = _config(model, [0.3, 0.2], 0.2, 4)
    for kwargs in ({}, {"measurements": lambda t: np.zeros(1), "x0": [0.3, 0.2]}):
        with pytest.raises(ek.ConfigurationError, match="either measurements or a truth start"):
            ek.integrate_ekf(fc, **kwargs)
    with pytest.raises(ek.ConfigurationError, match="starts must hold at least one state"):
        ek.integrate_ekf(fc, x0=[0.3, 0.2], starts=[])
    loud = ek.Disturbance(b=lambda z, t: np.full(2, 0.1), b_max=0.01)
    with pytest.raises(ek.PreconditionError, match="disturbance bound violated"):
        ek.integrate_ekf(fc, x0=[0.3, 0.2], starts=[[0.3, 0.2]], disturbance=loud)
    run = ek.integrate_ekf(fc, lambda t: np.zeros(1), starts=[[0.3, 0.2]])
    assert run.truth is None and run.virtual.shape == (5, 1, 2)
    assert math.isfinite(run.p_lo)
