import dataclasses
import math
import re

import numpy as np
import pytest
from conftest import rerun

import ekfcert as ek
from ekfcert import sim
from ekfcert.contraction import _contraction_matrices
from ekfcert.ekf import interp, stage_table
from ekfcert.model import _stacked_jacobians


@pytest.fixture(scope="module")
def equilibrium_rig():
    """Scalar rig pinned at the Riccati equilibrium: K = 1 and xhat = truth,
    both exactly, so virtual-system experiments have bit-exact references."""
    entry = ek.make("scalar-riccati")
    horizon = 12.0
    fc = ek.FilterConfig(model=entry.model, Q=np.eye(1), R=np.eye(1),
                         P0=np.eye(1), x0=np.array([0.4]), horizon=horizon)
    x0 = np.array([0.4])
    return {"fc": fc, "x0": x0, "traj": ek.integrate_ekf(fc, x0=x0)}


def _flat_cert(traj, alpha=10.0):
    return ek.make_certificate(traj, ek.HessianBounds(alpha=alpha, kappa_A=0.0,
                                                      kappa_C=0.0))


def test_truth_constant_field():
    model = ek.make("scalar-riccati").model
    traj = ek.integrate_truth(model, np.array([0.4]), 2.0, 0.01)
    assert np.all(traj.values == 0.4)
    fc = ek.FilterConfig(model=model, Q=np.eye(1), R=np.eye(1), P0=np.eye(1),
                         x0=np.zeros(1), horizon=2.0, step=0.01)
    assert np.all(ek.integrate_ekf(fc, x0=np.array([0.4])).stage_outputs == 0.4)


def test_truth_linear_decay():
    model = ek.SystemModel(state_dim=1, output_dim=1,
                           dynamics=lambda x, t: -x,
                           output=lambda x, t: x.copy())
    traj = ek.integrate_truth(model, np.ones(1), 1.0, 1.0 / 2000)
    assert abs(traj.values[-1, 0] - math.exp(-1.0)) < 1e-6


def test_the_run_reads_y_at_the_truth_nodes_from_the_truth_row():
    entry = ek.make("ltv-linear")
    fc = ek.FilterConfig(model=entry.model, Q=np.eye(2), R=np.eye(1), P0=np.eye(2),
                         x0=np.zeros(2), horizon=3.0, step=0.005)
    run = ek.integrate_ekf(fc, x0=np.array([1.0, 0.0]))
    assert np.array_equal(run.truth, ek.integrate_truth(entry.model, [1.0, 0.0], 3.0,
                                                        0.005).values)
    assert np.array_equal(run.stage_outputs[0::2, 0], run.truth[:, 0])


def test_truth_matches_closed_form_flow():
    entry = ek.make("cubic-scalar", eps=0.1)
    traj = ek.integrate_truth(entry.model, np.array([0.3]), 8.0, 0.004)
    exact = np.stack([entry.analytic["state"](float(t), [0.3]) for t in traj.times])
    scale = 1.0 + float(np.abs(exact).max())
    assert float(np.abs(traj.values - exact).max()) <= 1e-8 * scale


def test_a_row_started_at_the_estimate_follows_it(scalar_rig, cubic_rig):
    for rig in (scalar_rig, cubic_rig):
        traj = rerun(rig, [rig["fc"].x0])
        z = traj.virtual
        assert z.shape == (len(traj.times), 1, 1)
        scale = 1.0 + float(np.abs(traj.states).max())
        assert float(np.abs(z[:, 0] - traj.states).max()) <= 1e-4 * scale


def test_virtual_closed_form_at_equilibrium(equilibrium_rig):
    traj = rerun(equilibrium_rig, [[1.4]])
    z = traj.virtual
    # constant unit gain turns the virtual flow into dz = -(z - 0.4)
    k = len(traj.times) // 3
    assert abs((z[k, 0, 0] - 0.4) - math.exp(-float(traj.times[k]))) < 1e-9


def test_twin_identical_starts_stay_identical(scalar_rig):
    traj = rerun(scalar_rig, [[0.7], [0.7]])
    run = ek.twin_decay(traj)
    assert np.all(run.weighted_dist == 0.0)
    assert np.all(run.euclid_dist == 0.0)
    assert math.isnan(run.fitted_rate)
    assert run.times is traj.times


def test_twin_rate_matches_equilibrium_gain(scalar_rig):
    # twins contract at the settled gain K = 1; the weighted square at 2
    traj = rerun(scalar_rig, [[0.6], [0.3]])
    cert = _flat_cert(traj)
    run = ek.twin_decay(traj, certificate=cert)
    assert run.fitted_rate == pytest.approx(2.0, rel=0.05)
    assert run.fitted_rate == ek.fit_exponential_rate(run.times, run.weighted_dist)
    assert run.info["fitted_rate_euclid"] == pytest.approx(1.0, rel=0.05)
    assert run.info["within_basin"]
    assert run.info["rate_pass"]


def test_twin_outside_basin_is_flagged(scalar_rig):
    traj = rerun(scalar_rig, [[0.8], [0.5]])
    cert = _flat_cert(traj, alpha=0.01)
    run = ek.twin_decay(traj, certificate=cert)
    assert not run.info["within_basin"]


def test_twin_distance_sandwich():
    entry = ek.make("ltv-linear")
    fc = ek.FilterConfig(model=entry.model, Q=np.eye(2), R=np.eye(1),
                         P0=np.eye(2), x0=np.array([1.0, 0.0]), horizon=6.0)
    traj = ek.integrate_ekf(fc, x0=np.array([0.9, 0.1]), starts=[[1.5, 0.0], [0.5, 0.5]])
    run = ek.twin_decay(traj)
    lo = run.euclid_dist ** 2 / traj.p_hi
    hi = run.euclid_dist ** 2 / traj.p_lo
    slack = 1.0 + 1e-9
    assert np.all(run.weighted_dist <= hi * slack + 1e-300)
    assert np.all(run.weighted_dist * slack + 1e-300 >= lo)


def test_envelope_exact_tracking_passes(equilibrium_rig):
    traj = equilibrium_rig["traj"]
    rep = ek.envelope_check(traj, _flat_cert(traj))
    assert rep.initial_error == 0.0
    assert np.all(rep.error == 0.0)
    assert rep.worst_margin == 0.0
    assert rep.within_basin
    assert rep.passed


def test_envelope_margins_and_pass(scalar_rig):
    traj = scalar_rig["traj"]
    cert = _flat_cert(traj)
    rep = ek.envelope_check(traj, cert)
    assert rep.initial_error == pytest.approx(0.1)
    assert rep.margins[0] == pytest.approx((cert.envelope_factor - 1.0) * 0.1,
                                           rel=1e-9)
    # the envelope reads the certificate's own rate and overshoot factor
    assert np.array_equal(rep.envelope, cert.envelope_factor * rep.initial_error
                          * np.exp(-cert.gamma * rep.times))
    assert rep.within_basin
    assert rep.worst_margin > 0.0
    assert rep.passed


def test_envelope_fails_outside_basin(scalar_rig):
    traj = scalar_rig["traj"]
    cert = _flat_cert(traj, alpha=0.05)
    rep = ek.envelope_check(traj, cert)
    # e(0) = 0.1 sits outside basin_euclid = 0.05 sqrt(p_lo/p_hi)
    assert not rep.within_basin
    assert not rep.passed


def test_perturbed_zero_disturbance_stays_put(equilibrium_rig):
    dist = ek.Disturbance(b=lambda x, t: np.zeros(1), b_max=0.0)
    run = ek.perturbed_run(rerun(equilibrium_rig, [[0.4]], dist))
    assert run.info["steady_radius"] <= 1e-12
    assert run.info["within_standard"]
    assert run.info["within_printed"]
    assert run.info["ball_standard"] == 0.0


def test_perturbed_constant_offset_ball(equilibrium_rig):
    b = 0.01
    dist = ek.Disturbance(b=lambda x, t: np.array([b]), b_max=b)
    run = ek.perturbed_run(rerun(equilibrium_rig, [[0.4]], dist))
    # unit gain drives z toward truth + b, so the offset settles at b
    assert run.info["steady_radius"] == pytest.approx(b, rel=0.05)
    assert run.info["gamma"] == pytest.approx(0.25)
    assert run.info["factor"] == pytest.approx(1.0)
    assert run.info["ball_standard"] == pytest.approx(b / 0.25)
    assert run.info["ball_printed"] == pytest.approx(b * 0.25)
    assert run.info["within_standard"]
    assert not run.info["within_printed"]


def test_perturbed_respects_declared_bound(equilibrium_rig):
    dist = ek.Disturbance(b=lambda x, t: np.array([0.1]), b_max=0.05)
    with pytest.raises(ek.PreconditionError):
        rerun(equilibrium_rig, [[0.4]], dist)
    with pytest.raises(ek.ConfigurationError):
        ek.Disturbance(b=lambda x, t: np.zeros(1), b_max=-1.0)
    quiet = rerun(equilibrium_rig, [[0.4]], ek.Disturbance(b=lambda x, t: np.zeros(1),
                                                           b_max=0.0))
    with pytest.raises(ek.ConfigurationError):
        ek.perturbed_run(quiet, gamma=0.0)


def test_perturbed_uses_certificate_gamma(equilibrium_rig):
    dist = ek.Disturbance(b=lambda x, t: np.zeros(1), b_max=0.1)
    traj = rerun(equilibrium_rig, [[0.4]], dist)
    cert = _flat_cert(traj)
    run = ek.perturbed_run(traj, gamma=cert.gamma)
    assert run.info["gamma"] == cert.gamma
    run = ek.perturbed_run(traj, gamma=0.125)
    assert run.info["gamma"] == 0.125


def test_variational_consistency_small(scalar_rig):
    dev = ek.variational_validator(scalar_rig["model"], scalar_rig["traj"],
                                   np.array([0.7]))
    assert dev <= 5e-4


def test_variational_zero_direction(scalar_rig):
    dev = ek.variational_validator(scalar_rig["model"], scalar_rig["traj"],
                                   np.array([0.7]), dz0=np.zeros(1))
    assert dev == 0.0


def test_variational_validator_solve_count_is_independent_of_nodes(scalar_rig, linalg_calls):
    # one stacked solve for P^{-1} dz plus the two of the stacked contraction matrices
    fc = scalar_rig["fc"]
    for step in (0.024, 0.012):
        traj = ek.integrate_ekf(dataclasses.replace(fc, step=step), x0=scalar_rig["x0"])
        linalg_calls.clear()
        ek.variational_validator(scalar_rig["model"], traj, np.array([0.7]))
        assert linalg_calls["solve"] == 3, step


@pytest.mark.parametrize("plant, params, xhat0, truth, horizon, beta, N", [
    ("cubic-scalar", {"eps": 0.1}, [0.5], [0.8], 4.0, 0.25, None),
    ("cubic-scalar", {"eps": 0.1}, [0.5], [0.8], 4.0, 0.0, 0.5),
    ("cubic-scalar", {"eps": 0.1}, [0.5], [0.8], 4.0, 0.25, 0.5),
    ("vanderpol-pos", {"mu": 0.15}, [0.3, 0.2], [0.34, 0.2], 10.0, 0.25, None),
    ("vanderpol-pos", {"mu": 0.15}, [0.3, 0.2], [0.34, 0.2], 10.0, 0.0, 0.5),
])
def test_variational_validator_follows_the_inflated_flow(plant, params, xhat0, truth, horizon,
                                                         beta, N):
    """On an inflated run the weighted length follows s^T (M - 2N - 2 beta P) s; against
    s^T M s the cubic plant's deviation read 0.28 to 0.85. The bound is the benchmark's
    VARIATIONAL_LIMIT at T/4000."""
    model = ek.make(plant, **params).model
    n = model.state_dim
    fc = ek.FilterConfig(model=model, Q=np.eye(n), R=np.eye(1), P0=np.eye(n),
                         x0=np.array(xhat0), horizon=horizon, step=horizon / 4000,
                         beta=beta, N=None if N is None else N * np.eye(n))
    traj = ek.integrate_ekf(fc, x0=np.array(truth))
    assert ek.variational_validator(model, traj, np.array(truth)) <= 1e-4


def test_variational_deviation_shrinks_with_step():
    entry = ek.make("cubic-scalar", eps=0.1)
    devs = []
    for step in (4.0 / 1000, 4.0 / 2000):
        fc = ek.FilterConfig(model=entry.model, Q=np.eye(1), R=np.eye(1),
                             P0=np.eye(1), x0=np.array([0.0]), horizon=4.0,
                             step=step)
        y = lambda t: entry.analytic["state"](t, [0.3])
        traj = ek.integrate_ekf(fc, y)
        devs.append(ek.variational_validator(entry.model, traj, np.array([0.5])))
    assert devs[0] / devs[1] >= 3.0


def test_fit_rate_recovers_exact_decay():
    t = np.linspace(0.0, 5.0, 101)
    v = 3.0 * np.exp(-1.7 * t)
    assert ek.fit_exponential_rate(t, v) == pytest.approx(1.7, abs=1e-9)


def test_fit_rate_skips_floored_values():
    t = np.linspace(0.0, 5.0, 101)
    v = np.exp(-t)
    v[::2] = 0.0
    assert ek.fit_exponential_rate(t, v) == pytest.approx(1.0, abs=1e-9)


def test_fit_rate_degenerate_cases():
    t = np.linspace(0.0, 5.0, 101)
    assert math.isnan(ek.fit_exponential_rate(t, np.full(101, 1e-15)))
    v = np.full(101, 1e-15)
    v[50] = 1.0
    assert math.isnan(ek.fit_exponential_rate(t, v))


def test_fit_rate_window_excludes_edges():
    t = np.linspace(0.0, 10.0, 201)
    v = np.exp(-2.0 * t)
    v[t < 1.0] = 50.0
    v[t > 9.0] = 50.0
    assert ek.fit_exponential_rate(t, v) == pytest.approx(2.0, abs=1e-9)


def test_node_series_on_the_filter_grid_are_read_without_interpolation(
        scalar_rig, equilibrium_rig):
    traj = scalar_rig["traj"]
    report = ek.envelope_check(traj, _flat_cert(traj))
    assert np.array_equal(report.error, np.abs(traj.states - traj.truth)[:, 0])
    dist = ek.Disturbance(b=lambda x, t: np.full(1, 0.01), b_max=0.01)
    traj = rerun(equilibrium_rig, [[0.4]], dist)
    run = ek.perturbed_run(traj)
    assert np.array_equal(run.euclid_dist, np.abs(traj.virtual[:, 0] - traj.states)[:, 0])


def test_envelope_needs_a_run_on_a_truth_start(scalar_rig):
    measured = ek.integrate_ekf(scalar_rig["fc"], lambda t: np.array([0.4]))
    with pytest.raises(ek.ConfigurationError, match="needs a filter run on a truth start"):
        ek.envelope_check(measured, _flat_cert(measured))


def test_stacked_twin_run_equals_two_single_row_runs(scalar_rig, cubic_rig):
    for rig, starts in ((scalar_rig, [[0.8], [0.2]]), (cubic_rig, [[0.5], [-0.4]])):
        traj = rerun(rig, starts)
        both = traj.virtual
        for b, start in enumerate(starts):
            assert np.array_equal(both[:, b], rerun(rig, [start]).virtual[:, 0])
        run = ek.twin_decay(traj)
        assert np.array_equal(run.euclid_dist, np.abs(both[:, 0] - both[:, 1])[:, 0])


def _vdp_run(**rows):
    model = ek.make("vanderpol-pos").model
    config = ek.FilterConfig(model=model, Q=np.eye(2), R=np.eye(1), P0=np.eye(2),
                             x0=np.array([0.3, 0.2]), horizon=0.2, step=0.05)
    return model, ek.integrate_ekf(config, lambda t: np.array([0.3]), **rows)


def test_virtual_starts_must_match_the_state_dimension():
    model, traj = _vdp_run()
    for starts, message in [([0.1, 0.2], "starts[0] must have shape (2,), got (1,)"),
                            ([[0.1, 0.2, 0.3]], "starts[0] must have shape (2,), got (3,)"),
                            ([[0.3, 0.2, 0.1], [0.1, 0.1]], "starts[0] must have shape (2,)"),
                            ([[0.3, 0.2], [0.1]], "starts[1] must have shape (2,), got (1,)"),
                            ([[0.3, 0.2], "ab"], "starts[1] must be numeric, got 'ab'"),
                            ([], "starts must hold at least one state, got []"),
                            (0.5, "starts must hold at least one state, got 0.5")]:
        with pytest.raises(ek.ConfigurationError, match=re.escape(message)):
            _vdp_run(starts=starts)
    # a (1, 2, 1) stack is one start, flattened as x0 is
    assert np.array_equal(_vdp_run(starts=np.zeros((1, 2, 1)))[1].virtual,
                          _vdp_run(starts=np.zeros((1, 2)))[1].virtual)
    # the validator's start and tangent: not numpy's matmul error
    for z0, dz0, what in ((np.zeros(3), None, "z0"), (np.zeros(2), np.ones(3), "dz0")):
        with pytest.raises(ek.ConfigurationError,
                           match=re.escape(f"{what} must have shape (2,), got (3,)")):
            ek.variational_validator(model, traj, z0, dz0=dz0)


def test_perturbed_run_takes_the_rates_a_certificate_takes_but_zero():
    quiet = ek.Disturbance(b=lambda x, t: np.zeros(2), b_max=0.0)
    _, traj = _vdp_run(starts=[[0.3, 0.2]], disturbance=quiet)
    hess = ek.HessianBounds(alpha=1.0, kappa_A=0.0, kappa_C=0.0)
    cap = traj.config.q_lo / (2.0 * traj.p_hi)
    for gamma in (10.0, 1.5 * cap):
        with pytest.raises(ek.ConfigurationError, match=re.escape(
                f"gamma = {gamma!r} outside [0, q_lo/(2 p_hi)] = [0, {cap!r}]")) as refused:
            ek.perturbed_run(traj, gamma=gamma)
        with pytest.raises(ek.ConfigurationError) as certified:
            ek.make_certificate(traj, hess, gamma)
        assert str(refused.value) == str(certified.value)
    for gamma in (0.0, -1.0, math.nan, math.inf):   # the ball divides by a finite gamma
        with pytest.raises(ek.ConfigurationError, match="^gamma must be positive and finite"):
            ek.perturbed_run(traj, gamma=gamma)
    assert ek.perturbed_run(traj, gamma=cap).info["gamma"] == cap
    default = ek.perturbed_run(traj).info["gamma"]
    assert default == ek.make_certificate(traj, hess).gamma


def test_a_disturbance_must_return_one_entry_per_state():
    """A (1,) value is not broadcast over two states, and a (3,) one is
    rejected before it reaches the state."""
    model = ek.make("ltv-linear").model
    fc = ek.FilterConfig(model=model, Q=np.eye(2), R=np.eye(1), P0=np.eye(2),
                         x0=np.zeros(2), horizon=0.5, step=0.05)
    for value in ([0.01], [0.01, 0.01, 0.01]):
        dist = ek.Disturbance(b=lambda z, t: np.array(value), b_max=0.1)
        for source in ({"measurements": lambda t: np.zeros(1)}, {"x0": [0.1, 0.0]}):
            with pytest.raises(ek.ConfigurationError, match=re.escape(
                    f"disturbance returned shape ({len(value)},), expected (2,)")):
                ek.integrate_ekf(fc, starts=[[0.1, 0.2]], disturbance=dist, **source)


def _free_rows(rate, starts):
    """The virtual rows of dx/dt = rate * x (two states, zero output, C = 0, so the
    gain is exactly zero) from ``starts`` on [0, 1]; the estimate rests at the origin."""
    model = ek.SystemModel(state_dim=2, output_dim=1,
                           dynamics=lambda x, t: rate * x,
                           output=lambda x, t: np.zeros(1),
                           jacobian_A=lambda x, t: rate * np.eye(2),
                           jacobian_C=lambda x, t: np.zeros((1, 2)))
    fc = ek.FilterConfig(model=model, Q=np.eye(2), R=np.eye(1), P0=np.eye(2),
                         x0=np.zeros(2), horizon=1.0, step=0.01)
    run = ek.integrate_ekf(fc, lambda t: np.zeros(1), starts=starts)
    assert not run.gains.any()
    return run.virtual


def test_divergence_guard_checks_each_row_on_its_own():
    # two rows of norm 0.8e12 stack to a vector of norm 1.13e12, above the limit
    row = np.full(2, 0.8e12 / math.sqrt(2.0))
    assert np.linalg.norm(np.concatenate([row, row])) > ek.ekf.DIVERGENCE_LIMIT
    nodes = _free_rows(0.0, [row, row])
    assert np.all(nodes == row)


def test_a_diverging_row_stops_the_run_at_its_single_run_time():
    # growing as e^{40 t}, a row of norm 0.07 crosses 1e12 near t = 0.76 and
    # one of norm 1e-6 stays below it up to t = 1
    starts = [[1e-6, 0.0], [0.05, 0.05]]
    with pytest.raises(ek.DivergenceError) as single:
        _free_rows(40.0, [starts[1]])
    assert 0.0 < single.value.time < 1.0
    _free_rows(40.0, [starts[0]])
    for order in (starts, starts[::-1]):
        with pytest.raises(ek.DivergenceError) as info:
            _free_rows(40.0, order)
        assert info.value.time == single.value.time
        assert str(info.value) == f"virtual state diverged at t={single.value.time:.6g}"


def _matmul_run(fc, starts, y=None, x0=None):
    """integrate_ekf's arrays from an RK4 run of the rows [xhat; P; x; z_1 ...] with
    every 2-D stage product through @: the gain (R^{-1} (C P))^T, the Riccati term and
    each row's innovation. y is read at the truth row's own stage state when x0 is
    given, and a step's first stage keeps its gain."""
    model = fc.model
    n, p = model.state_dim, model.output_dim
    grid = ek.time_grid(fc.horizon, fc.step)
    times, read_stage = stage_table(grid)
    Rinv = np.linalg.inv(fc.R)
    outputs, gains = np.empty((len(times), p)), np.empty((len(grid), n, p))
    rows = [fc.x0[None], fc.P0] + ([] if x0 is None else [x0[None]])
    Z = n + len(rows) - 1   # the first virtual row

    def rhs(t, s):
        stage, row = read_stage(t)
        out = np.empty_like(s)
        if x0 is not None:
            out[n + 1] = model.f(s[n + 1], t)
        outputs[row] = y(t) if x0 is None else model.h(s[n + 1], t)
        P = s[1:n + 1]
        A, C = ek.eval_jacobians(model, s[0], t)
        K = (Rinv @ (C @ P)).T
        if stage == 0:
            gains[row >> 1] = K
        PCt = P @ C.T
        dP = A @ P + P @ A.T + fc.Q - PCt @ (Rinv @ PCt.T) + 2.0 * fc.N
        out[1:n + 1] = 0.5 * (dP + dP.T)
        for b in [0, *range(Z, len(s))]:
            out[b] = model.f(s[b], t) - K @ (model.h(s[b], t) - outputs[row])
        return out

    nodes = ek.ekf.integrate(rhs, np.vstack(rows + [np.array(starts)]), grid, lambda t, s: s)
    C = ek.eval_jacobians(model, nodes[-1, 0], grid[-1])[1]
    gains[-1] = (Rinv @ (C @ nodes[-1, 1:n + 1])).T
    if x0 is not None:
        outputs[-1] = model.h(nodes[-1, n + 1], grid[-1])
    return nodes[:, 0], nodes[:, 1:n + 1], gains, outputs, nodes[:, n + 1], nodes[:, Z:]


def _matmul_validator(model, run, z0):
    """variational_validator's deviation from a tangent integrated with its stage
    products through @."""
    n = model.state_dim
    times, read_stage = stage_table(run.times)
    gains = interp(run.times, run.gains, times)

    def rhs(t, s):
        row = read_stage(t)[1]
        z, dz, K = s[:n], s[n:], gains[row]
        A, C = ek.eval_jacobians(model, z, t)
        return np.concatenate([model.f(z, t) - K @ (model.h(z, t) - run.stage_outputs[row]),
                               (A - K @ C) @ dz])

    nodes = ek.ekf.integrate(rhs, np.concatenate([z0, np.ones(n) / math.sqrt(n)]), run.times,
                             lambda t, s: s)
    w, S = sim._weighted_sq(run.covariances, nodes[:, n:])
    M = _contraction_matrices(*_stacked_jacobians(model, run.states, run.times),
                              *_stacked_jacobians(model, nodes[:, :n], run.times),
                              run.covariances, run.config.Q, run.config.R)
    M = M - 2.0 * run.config.N - 2.0 * run.config.beta * run.covariances
    quad = (S[:, None, :] @ (M @ S[:, :, None]))[:, 0, 0]
    dw = (w[2:] - w[:-2]) / (2.0 * (run.times[1] - run.times[0]))
    return np.abs(dw - quad[1:-1]).max() / max(float(np.abs(quad[1:-1]).max()), 1e-30)


@pytest.mark.parametrize("name", ["cubic-scalar", "ltv-linear", "scalar-riccati", "vanderpol-pos"])
def test_whole_runs_give_the_bits_of_matmul_stages(name):
    # zero, -0.0 and nonzero starts under a zero measurement, against references that
    # run every 2-D stage product through @; at n = 1 the sign an exact-zero (1, 1)
    # product keeps reaches no stored bit on these runs
    model = ek.make(name).model
    n, p = model.state_dim, model.output_dim
    starts = [np.zeros(n), np.full(n, -0.0), np.linspace(0.3, -0.2, n)]
    zero = lambda t: np.zeros(p)
    for x0 in starts:
        fc = ek.FilterConfig(model=model, Q=np.eye(n), R=np.eye(p), P0=np.eye(n),
                             x0=x0, horizon=0.5, step=0.01)
        traj = ek.integrate_ekf(fc, zero, starts=starts)
        ref = _matmul_run(fc, starts, y=zero)
        got = (traj.states, traj.covariances, traj.gains, traj.stage_outputs, traj.virtual)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in ref[:4] + ref[5:]]
        assert (np.float64(ek.variational_validator(model, traj, x0)).tobytes()
                == np.float64(_matmul_validator(model, traj, x0)).tobytes())
        joint = ek.integrate_ekf(fc, x0=x0[::-1], starts=starts)
        got = (joint.states, joint.covariances, joint.gains, joint.stage_outputs, joint.truth,
               joint.virtual)
        assert [a.tobytes() for a in got] == [
            a.tobytes() for a in _matmul_run(fc, starts, x0=x0[::-1])]


def test_experiments_read_the_rows_of_the_run_that_integrated_them():
    """twin_decay reads a run's two virtual rows and perturbed_run its one
    disturbed row, with the disturbance's b_max."""
    model = ek.make("vanderpol-pos").model
    fc = ek.FilterConfig(model=model, Q=np.eye(2), R=np.eye(1), P0=np.eye(2),
                         x0=np.array([0.3, 0.2]), horizon=1.0, step=0.01)
    z1, z2 = np.array([0.33, 0.2]), np.array([0.28, 0.21])
    dist = ek.Disturbance(b=lambda z, t: np.full(2, 0.01), b_max=0.02)
    twins = ek.integrate_ekf(fc, x0=[0.34, 0.2], starts=[z1, z2])
    disturbed = ek.integrate_ekf(fc, x0=[0.34, 0.2], starts=[z1], disturbance=dist)
    run = ek.twin_decay(twins)
    assert np.array_equal(run.euclid_dist, np.linalg.norm(
        twins.virtual[:, 0] - twins.virtual[:, 1], axis=1))
    run = ek.perturbed_run(disturbed)
    assert np.array_equal(run.euclid_dist, np.linalg.norm(
        disturbed.virtual[:, 0] - disturbed.states, axis=1))
    assert run.info["b_max"] == 0.02
    assert run.info["ball_standard"] == run.info["factor"] * 0.02 / run.info["gamma"]


def test_experiments_refuse_a_run_without_their_rows():
    """A run without exactly two virtual rows is refused by twin_decay, and one
    without exactly one disturbed virtual row by perturbed_run, each saying
    what is missing."""
    dist = ek.Disturbance(b=lambda z, t: np.zeros(2), b_max=0.0)
    runs = {0: _vdp_run()[1], 1: _vdp_run(starts=[[0.3, 0.2]], disturbance=dist)[1],
            3: _vdp_run(starts=[[0.3, 0.2]] * 3)[1]}
    for rows, run in runs.items():
        with pytest.raises(ek.ConfigurationError, match=re.escape(
                "twin_decay needs a filter run with 2 virtual rows (integrate_ekf(..., "
                f"starts=[z1_0, z2_0])), got {rows}")):
            ek.twin_decay(run)
    call = "(integrate_ekf(..., starts=[z0], disturbance=...))"
    for rows, run in [(0, runs[0]), (2, _vdp_run(starts=[[0.3, 0.2]] * 2,
                                                 disturbance=dist)[1])]:
        with pytest.raises(ek.ConfigurationError, match=re.escape(
                f"perturbed_run needs a filter run with 1 virtual row {call}, got {rows}")):
            ek.perturbed_run(run)
    with pytest.raises(ek.ConfigurationError, match=re.escape(
            f"perturbed_run needs a filter run with a disturbance {call}, got none")):
        ek.perturbed_run(_vdp_run(starts=[[0.3, 0.2]])[1])
