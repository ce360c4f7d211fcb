import dataclasses
import math
import re

import numpy as np
import pytest

import ekfcert as ek
from ekfcert.ode import stage_table


@pytest.fixture(scope="module")
def equilibrium_rig():
    """Scalar rig pinned at the Riccati equilibrium: K = 1 and xhat = truth,
    both exactly, so virtual-system experiments have bit-exact references."""
    entry = ek.make("scalar-riccati")
    horizon = 12.0
    fc = ek.FilterConfig(model=entry.model, Q=np.eye(1), R=np.eye(1),
                         P0=np.eye(1), x0=np.array([0.4]), horizon=horizon)
    truth, y = ek.integrate_truth(entry.model, np.array([0.4]), horizon, fc.step)
    traj = ek.integrate_ekf(fc, y)
    return {"model": entry.model, "fc": fc, "truth": truth, "y": y, "traj": traj}


def _flat_cert(traj, alpha=10.0):
    rep = ek.covariance_bounds_report(traj)
    return ek.make_certificate(rep, ek.HessianBounds(alpha=alpha, kappa_A=0.0,
                                                     kappa_C=0.0))


def test_truth_constant_field():
    model = ek.make("scalar-riccati").model
    traj, y = ek.integrate_truth(model, np.array([0.4]), 2.0, 0.01)
    assert np.all(traj.values == 0.4)
    assert y(1.234)[0] == 0.4


def test_truth_linear_decay():
    model = ek.SystemModel(state_dim=1, output_dim=1,
                           dynamics=lambda x, t: -x,
                           output=lambda x, t: x.copy())
    traj, _ = ek.integrate_truth(model, np.ones(1), 1.0, 1.0 / 2000)
    assert abs(traj.values[-1, 0] - math.exp(-1.0)) < 1e-6


def test_truth_output_signal_is_measured_state():
    entry = ek.make("ltv-linear")
    traj, y = ek.integrate_truth(entry.model, np.array([1.0, 0.0]), 3.0, 0.005)
    for t in (0.0, 0.73, 3.0):
        assert y(t)[0] == traj.at(t)[0]


def test_truth_matches_closed_form_flow():
    entry = ek.make("cubic-scalar", eps=0.1)
    traj, _ = ek.integrate_truth(entry.model, np.array([0.3]), 8.0, 0.004)
    exact = np.stack([entry.analytic["state"](float(t), [0.3]) for t in traj.times])
    scale = 1.0 + float(np.abs(exact).max())
    assert float(np.abs(traj.values - exact).max()) <= 1e-8 * scale


def test_estimate_solves_virtual_flow(scalar_rig, cubic_rig):
    for rig in (scalar_rig, cubic_rig):
        traj = rig["traj"]
        z = ek.integrate_virtual(rig["model"], traj, [traj.states[0]])
        assert z.shape == (len(traj.times), 1, 1)
        scale = 1.0 + float(np.abs(traj.states).max())
        assert float(np.abs(z[:, 0] - traj.states).max()) <= 1e-4 * scale


def test_virtual_closed_form_at_equilibrium(equilibrium_rig):
    traj = equilibrium_rig["traj"]
    z = ek.integrate_virtual(equilibrium_rig["model"], traj, [[1.4]])
    # constant unit gain turns the virtual flow into dz = -(z - 0.4)
    k = len(traj.times) // 3
    assert abs((z[k, 0, 0] - 0.4) - math.exp(-float(traj.times[k]))) < 1e-9


def test_twin_identical_starts_stay_identical(scalar_rig):
    run = ek.twin_decay(scalar_rig["model"], scalar_rig["traj"],
                        np.array([0.7]), np.array([0.7]))
    assert np.all(run.weighted_dist == 0.0)
    assert np.all(run.euclid_dist == 0.0)
    assert math.isnan(run.fitted_rate)
    assert run.times is scalar_rig["traj"].times


def test_twin_rate_matches_equilibrium_gain(scalar_rig):
    # twins contract at the settled gain K = 1; the weighted square at 2
    traj = scalar_rig["traj"]
    cert = _flat_cert(traj)
    run = ek.twin_decay(scalar_rig["model"], traj, np.array([0.6]),
                        np.array([0.3]), certificate=cert)
    assert run.fitted_rate == pytest.approx(2.0, rel=0.05)
    assert run.info["fitted_rate_weighted"] == run.fitted_rate
    assert run.info["fitted_rate_euclid"] == pytest.approx(1.0, rel=0.05)
    assert run.info["within_basin"]
    assert run.info["rate_pass"]
    assert run.info["gamma"] == cert.gamma


def test_twin_outside_basin_is_flagged(scalar_rig):
    traj = scalar_rig["traj"]
    cert = _flat_cert(traj, alpha=0.01)
    run = ek.twin_decay(scalar_rig["model"], traj, np.array([0.8]),
                        np.array([0.5]), certificate=cert)
    assert not run.info["within_basin"]


def test_twin_distance_sandwich():
    entry = ek.make("ltv-linear")
    fc = ek.FilterConfig(model=entry.model, Q=np.eye(2), R=np.eye(1),
                         P0=np.eye(2), x0=np.array([1.0, 0.0]), horizon=6.0)
    truth, y = ek.integrate_truth(entry.model, np.array([0.9, 0.1]), 6.0, fc.step)
    traj = ek.integrate_ekf(fc, y)
    run = ek.twin_decay(entry.model, traj, np.array([1.5, 0.0]),
                        np.array([0.5, 0.5]))
    lo = run.euclid_dist ** 2 / traj.p_hi
    hi = run.euclid_dist ** 2 / traj.p_lo
    slack = 1.0 + 1e-9
    assert np.all(run.weighted_dist <= hi * slack + 1e-300)
    assert np.all(run.weighted_dist * slack + 1e-300 >= lo)


def test_envelope_exact_tracking_passes(equilibrium_rig):
    traj = equilibrium_rig["traj"]
    rep = ek.envelope_check(traj, equilibrium_rig["truth"], _flat_cert(traj))
    assert rep.initial_error == 0.0
    assert np.all(rep.error == 0.0)
    assert rep.worst_margin == 0.0
    assert rep.within_basin
    assert rep.passed


def test_envelope_margins_and_pass(scalar_rig):
    traj = scalar_rig["traj"]
    cert = _flat_cert(traj)
    rep = ek.envelope_check(traj, scalar_rig["truth"], cert)
    assert rep.initial_error == pytest.approx(0.1)
    assert rep.margins[0] == pytest.approx((cert.envelope_factor - 1.0) * 0.1,
                                           rel=1e-9)
    assert rep.gamma == cert.gamma
    assert rep.factor == cert.envelope_factor
    assert rep.within_basin
    assert rep.worst_margin > 0.0
    assert rep.passed


def test_envelope_fails_outside_basin(scalar_rig):
    traj = scalar_rig["traj"]
    cert = _flat_cert(traj, alpha=0.05)
    rep = ek.envelope_check(traj, scalar_rig["truth"], cert)
    # e(0) = 0.1 sits outside basin_euclid = 0.05 sqrt(p_lo/p_hi)
    assert not rep.within_basin
    assert not rep.passed


def test_perturbed_zero_disturbance_stays_put(equilibrium_rig):
    traj = equilibrium_rig["traj"]
    dist = ek.Disturbance(b=lambda x, t: np.zeros(1), b_max=0.0)
    run = ek.perturbed_run(equilibrium_rig["model"], traj, dist, np.array([0.4]))
    assert run.info["steady_radius"] <= 1e-12
    assert run.info["within_standard"]
    assert run.info["within_printed"]
    assert run.info["ball_standard"] == 0.0


def test_perturbed_constant_offset_ball(equilibrium_rig):
    traj = equilibrium_rig["traj"]
    b = 0.01
    dist = ek.Disturbance(b=lambda x, t: np.array([b]), b_max=b)
    run = ek.perturbed_run(equilibrium_rig["model"], traj, dist, np.array([0.4]))
    # unit gain drives z toward truth + b, so the offset settles at b
    assert run.info["steady_radius"] == pytest.approx(b, rel=0.05)
    assert run.info["gamma"] == pytest.approx(0.25)
    assert run.info["factor"] == pytest.approx(1.0)
    assert run.info["ball_standard"] == pytest.approx(b / 0.25)
    assert run.info["ball_printed"] == pytest.approx(b * 0.25)
    assert run.info["within_standard"]
    assert not run.info["within_printed"]


def test_perturbed_respects_declared_bound(equilibrium_rig):
    traj = equilibrium_rig["traj"]
    dist = ek.Disturbance(b=lambda x, t: np.array([0.1]), b_max=0.05)
    with pytest.raises(ek.PreconditionError):
        ek.perturbed_run(equilibrium_rig["model"], traj, dist, np.array([0.4]))
    with pytest.raises(ek.ConfigurationError):
        ek.Disturbance(b=lambda x, t: np.zeros(1), b_max=-1.0)
    with pytest.raises(ek.ConfigurationError):
        ek.perturbed_run(equilibrium_rig["model"], traj,
                         ek.Disturbance(b=lambda x, t: np.zeros(1), b_max=0.0),
                         np.array([0.4]), gamma=0.0)


def test_perturbed_uses_certificate_gamma(equilibrium_rig):
    traj = equilibrium_rig["traj"]
    cert = _flat_cert(traj)
    dist = ek.Disturbance(b=lambda x, t: np.zeros(1), b_max=0.1)
    run = ek.perturbed_run(equilibrium_rig["model"], traj, dist,
                           np.array([0.4]), gamma=cert.gamma)
    assert run.info["gamma"] == cert.gamma
    run = ek.perturbed_run(equilibrium_rig["model"], traj, dist,
                           np.array([0.4]), gamma=0.125)
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
        traj = ek.integrate_ekf(dataclasses.replace(fc, step=step), scalar_rig["y"])
        linalg_calls.clear()
        ek.variational_validator(scalar_rig["model"], traj, np.array([0.7]))
        assert linalg_calls["solve"] == 3, step


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
    traj, truth = scalar_rig["traj"], scalar_rig["truth"]
    report = ek.envelope_check(traj, truth, _flat_cert(traj))
    assert np.array_equal(report.error, np.abs(traj.states - truth.values)[:, 0])
    traj = equilibrium_rig["traj"]
    dist = ek.Disturbance(b=lambda x, t: np.full(1, 0.01), b_max=0.01)
    run = ek.perturbed_run(equilibrium_rig["model"], traj, dist, np.array([0.4]))
    z = ek.integrate_virtual(equilibrium_rig["model"], traj, [[0.4]], dist)[:, 0]
    assert np.array_equal(run.euclid_dist, np.abs(z - traj.states)[:, 0])


def test_envelope_rejects_truth_off_the_filter_grid(scalar_rig):
    traj, truth = scalar_rig["traj"], scalar_rig["truth"]
    cert = _flat_cert(traj)
    for times in (truth.times[:-1], truth.times * (1.0 + 1e-12)):
        other = ek.TimeSeries(times, truth.values[:len(times)])
        with pytest.raises(ek.ConfigurationError, match="filter run's grid"):
            ek.envelope_check(traj, other, cert)


def test_stacked_twin_run_equals_two_single_row_runs(scalar_rig, cubic_rig):
    for rig, starts in ((scalar_rig, [[0.8], [0.2]]), (cubic_rig, [[0.5], [-0.4]])):
        model, traj = rig["model"], rig["traj"]
        both = ek.integrate_virtual(model, traj, starts)
        for b, start in enumerate(starts):
            assert np.array_equal(both[:, b], ek.integrate_virtual(model, traj, [start])[:, 0])
        run = ek.twin_decay(model, traj, np.array(starts[0]), np.array(starts[1]))
        assert np.array_equal(run.euclid_dist, np.abs(both[:, 0] - both[:, 1])[:, 0])


def _vdp_run():
    model = ek.make("vanderpol-pos").model
    config = ek.FilterConfig(model=model, Q=np.eye(2), R=np.eye(1), P0=np.eye(2),
                             x0=np.array([0.3, 0.2]), horizon=0.2, step=0.05)
    return model, ek.integrate_ekf(config, lambda t: np.array([0.3]))


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
            ek.integrate_virtual(model, traj, starts)
    # a (1, 2, 1) stack is one start, flattened as x0 is
    assert np.array_equal(ek.integrate_virtual(model, traj, np.zeros((1, 2, 1))),
                          ek.integrate_virtual(model, traj, np.zeros((1, 2))))
    with pytest.raises(ek.ConfigurationError):
        ek.twin_decay(model, traj, np.zeros(3), np.zeros(3))
    # the validator's start and tangent: not numpy's matmul error
    for z0, dz0, what in ((np.zeros(3), None, "z0"), (np.zeros(2), np.ones(3), "dz0")):
        with pytest.raises(ek.ConfigurationError,
                           match=re.escape(f"{what} must have shape (2,), got (3,)")):
            ek.variational_validator(model, traj, z0, dz0=dz0)


def test_perturbed_run_takes_the_rates_a_certificate_takes_but_zero():
    model, traj = _vdp_run()
    quiet = ek.Disturbance(b=lambda x, t: np.zeros(2), b_max=0.0)
    bounds = ek.covariance_bounds_report(traj)
    hess = ek.HessianBounds(alpha=1.0, kappa_A=0.0, kappa_C=0.0)
    cap = traj.config.q_lo / (2.0 * traj.p_hi)
    for gamma in (10.0, math.inf, 1.5 * cap):
        with pytest.raises(ek.ConfigurationError, match=re.escape(
                f"gamma = {gamma:.6g} outside [0, q_lo/(2 p_hi)] = [0, {cap:.6g}]")) as refused:
            ek.perturbed_run(model, traj, quiet, traj.config.x0, gamma=gamma)
        with pytest.raises(ek.ConfigurationError) as certified:
            ek.make_certificate(bounds, hess, gamma)
        assert str(refused.value) == str(certified.value)
    for gamma in (0.0, -1.0, math.nan):   # the ball divides by gamma
        with pytest.raises(ek.ConfigurationError, match="gamma must be positive"):
            ek.perturbed_run(model, traj, quiet, traj.config.x0, gamma=gamma)
    assert ek.perturbed_run(model, traj, quiet, traj.config.x0, gamma=cap).info["gamma"] == cap
    default = ek.perturbed_run(model, traj, quiet, traj.config.x0).info["gamma"]
    assert default == ek.make_certificate(bounds, hess).gamma


def test_a_disturbance_must_return_one_entry_per_state():
    """A (1,) value is not broadcast over two states, and a (3,) one is
    rejected before it reaches the state."""
    model = ek.make("ltv-linear").model
    fc = ek.FilterConfig(model=model, Q=np.eye(2), R=np.eye(1), P0=np.eye(2),
                         x0=np.zeros(2), horizon=0.5, step=0.05)
    traj = ek.integrate_ekf(fc, lambda t: np.zeros(1))
    for value in ([0.01], [0.01, 0.01, 0.01]):
        dist = ek.Disturbance(b=lambda z, t: np.array(value), b_max=0.1)
        with pytest.raises(ek.ConfigurationError, match=re.escape(
                f"disturbance returned shape ({len(value)},), expected (2,)")):
            ek.integrate_virtual(model, traj, [[0.1, 0.2]], dist)
        with pytest.raises(ek.ConfigurationError):
            ek.perturbed_run(model, traj, dist, np.array([0.1, 0.2]))


def _free_rows_rig(rate):
    """Zero-gain run of dx/dt = rate * x (two states, zero output) on [0, 1]."""
    model = ek.SystemModel(state_dim=2, output_dim=1,
                           dynamics=lambda x, t: rate * x,
                           output=lambda x, t: np.zeros(1))
    fc = ek.FilterConfig(model=ek.make("scalar-riccati").model, Q=np.eye(1), R=np.eye(1),
                         P0=np.eye(1), x0=np.zeros(1), horizon=1.0, step=0.01)
    run = ek.integrate_ekf(fc, lambda t: np.zeros(1))
    run.gains = np.zeros((len(run.times), 2, 1))
    return model, run


def test_divergence_guard_checks_each_row_on_its_own():
    # two rows of norm 0.8e12 stack to a vector of norm 1.13e12, above the limit
    model, run = _free_rows_rig(0.0)
    row = np.full(2, 0.8e12 / math.sqrt(2.0))
    assert np.linalg.norm(np.concatenate([row, row])) > ek.ekf.DIVERGENCE_LIMIT
    nodes = ek.integrate_virtual(model, run, [row, row])
    assert np.all(nodes == row)


def test_a_diverging_row_stops_the_run_at_its_single_run_time():
    # growing as e^{40 t}, a row of norm 0.07 crosses 1e12 near t = 0.76 and
    # one of norm 1e-6 stays below it up to t = 1
    model, run = _free_rows_rig(40.0)
    starts = [[1e-6, 0.0], [0.05, 0.05]]
    with pytest.raises(ek.DivergenceError) as single:
        ek.integrate_virtual(model, run, [starts[1]])
    assert 0.0 < single.value.time < 1.0
    ek.integrate_virtual(model, run, [starts[0]])
    for order in (starts, starts[::-1]):
        with pytest.raises(ek.DivergenceError) as info:
            ek.integrate_virtual(model, run, order)
        assert info.value.time == single.value.time
        assert str(info.value) == f"virtual state diverged at t={single.value.time:.6g}"


@pytest.mark.parametrize("name", ["cubic-scalar", "ltv-linear", "scalar-riccati", "vanderpol-pos"])
def test_whole_runs_give_the_bits_of_matmul_stages(monkeypatch, name):
    # zero, -0.0 and nonzero starts under a zero measurement; the references
    # run every 2-D stage product through @
    from ekfcert import ekf, sim
    model = ek.make(name).model
    n, p = model.state_dim, model.output_dim
    starts = [np.zeros(n), np.full(n, -0.0), np.linspace(0.3, -0.2, n)]

    def runs():
        out = []
        for x0 in starts:
            fc = ek.FilterConfig(model=model, Q=np.eye(n), R=np.eye(p), P0=np.eye(n),
                                 x0=x0, horizon=0.5, step=0.01)
            traj = ek.integrate_ekf(fc, lambda t: np.zeros(p))
            out += [traj.states, traj.covariances, traj.gains, traj.stage_outputs,
                    ek.integrate_virtual(model, traj, starts),
                    np.array(ek.variational_validator(model, traj, x0))]
            truth, y = ek.integrate_truth(model, x0, 0.5, 0.01)
            out += [truth.values] + [y(t) for t in stage_table(truth.times)[0]]
        return [a.tobytes() for a in out]

    changed = runs()
    for module in (ekf, sim):
        monkeypatch.setattr(module, "_product", lambda n: np.matmul)
    assert changed == runs()


def test_truth_signal_reads_its_table_in_any_order(monkeypatch):
    model = ek.make("vanderpol-pos").model
    truth, y = ek.integrate_truth(model, np.array([0.3, -0.1]), 0.5, 0.01)
    times = stage_table(truth.times)[0]
    searches = []
    search = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a, **k: searches.append(a) or search(*a, **k))
    in_order = [y(t) for t in times]   # as a filter run reads it: no search
    assert searches == []
    for t, value in zip(times, in_order):
        assert value.tobytes() == model.h(truth.at(t), t).tobytes()
    # repeated, backwards, off the table and past both ends
    for t in list(times[:5]) + list(times[::-7]) + [0.0123, 0.25, 0.2501, -1.0, 2.0]:
        assert y(t).tobytes() == model.h(truth.at(t), t).tobytes()
