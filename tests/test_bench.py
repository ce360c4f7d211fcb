import math

import numpy as np
import pytest

import ekfcert as ek
from ekfcert import bench


def test_registry_lists_builtin_plants():
    names = [entry.name for entry in ek.registry()]
    assert names == sorted(names)
    assert set(names) == {"scalar-riccati", "ltv-linear", "vanderpol-pos",
                          "cubic-scalar"}


def test_make_rejects_unknown_and_bad_params():
    with pytest.raises(ek.ConfigurationError):
        ek.make("no-such-plant")
    with pytest.raises(ek.ConfigurationError):
        ek.make("vanderpol-pos", nu=2.0)
    with pytest.raises(ek.ConfigurationError):
        ek.make("scalar-riccati", mu=1.0)


def test_register_rejects_duplicates():
    try:
        ek.register("throwaway", lambda: ek.make("scalar-riccati"))
        with pytest.raises(ek.ConfigurationError):
            ek.register("throwaway", lambda: ek.make("scalar-riccati"))
    finally:
        bench._FACTORIES.pop("throwaway", None)


def test_scalar_equilibrium_balances_riccati_flow():
    entry = ek.make("scalar-riccati")
    A = np.zeros((1, 1))
    C = np.ones((1, 1))
    for q, r in ((1.0, 1.0), (2.0, 0.5), (4.0, 0.25)):
        p = entry.analytic["equilibrium_p"](q, r)
        dP = ek.riccati_rhs(np.array([[p]]), A, C, np.array([[q]]),
                            np.array([[r]]))
        assert abs(dP[0, 0]) <= 1e-10
        assert entry.analytic["equilibrium_gain"](q, r) == pytest.approx(p / r)


def test_cubic_equilibrium_balances_linearized_flow():
    entry = ek.make("cubic-scalar", eps=0.1)
    A = np.array([[-1.0]])
    C = np.ones((1, 1))
    for q, r in ((1.0, 1.0), (3.0, 0.5)):
        p = entry.analytic["equilibrium_p"](q, r)
        dP = ek.riccati_rhs(np.array([[p]]), A, C, np.array([[q]]),
                            np.array([[r]]))
        assert abs(dP[0, 0]) <= 1e-10


def test_vanderpol_curvature_bound_matches_sampling():
    entry = ek.make("vanderpol-pos", mu=0.15)
    alpha = 1.5
    exact = entry.analytic["kappa_A"](alpha)
    assert exact == pytest.approx(4.0 * 0.15 * alpha / math.sqrt(3.0))
    hb = ek.estimate_hessian_bounds(entry.model, [(np.zeros(2), 0.0)], alpha,
                                    safety=1.0, direction_samples=256)
    assert hb.kappa_A <= exact * (1.0 + 1e-9)
    assert hb.kappa_A >= 0.9 * exact
    assert entry.analytic["kappa_C"](alpha) == 0.0
    assert hb.kappa_C == 0.0


def test_cubic_curvature_bound_matches_sampling():
    entry = ek.make("cubic-scalar", eps=0.1)
    alpha = 2.0
    exact = entry.analytic["kappa_A"](alpha)
    assert exact == pytest.approx(1.2)
    hb = ek.estimate_hessian_bounds(entry.model, [(np.zeros(1), 0.0)], alpha,
                                    safety=1.0)
    assert abs(hb.kappa_A - exact) <= 0.1 * exact


def test_cubic_without_nonlinearity_has_flat_curvature():
    entry = ek.make("cubic-scalar", eps=0.0)
    assert entry.analytic["kappa_A"](5.0) == 0.0
    hb = ek.estimate_hessian_bounds(entry.model, [(np.zeros(1), 0.0)], 5.0,
                                    safety=1.0)
    assert hb.kappa_A <= 1e-10


def test_ltv_closed_form_state_matches_integration():
    entry = ek.make("ltv-linear", omega0=1.0, omega_mod=0.5, freq=1.0)
    x0 = np.array([0.8, -0.6])
    traj = ek.integrate_truth(entry.model, x0, 6.0, 0.002)
    exact = np.stack([entry.analytic["state"](float(t), x0) for t in traj.times])
    assert float(np.abs(traj.values - exact).max()) <= 1e-6
    # rotations preserve the norm, a cheap independent sanity check
    assert np.allclose(np.linalg.norm(exact, axis=1), np.linalg.norm(x0))


def test_cubic_closed_form_state_matches_integration():
    entry = ek.make("cubic-scalar", eps=0.2)
    x0 = np.array([0.5])
    traj = ek.integrate_truth(entry.model, x0, 6.0, 0.002)
    exact = np.stack([entry.analytic["state"](float(t), x0) for t in traj.times])
    assert float(np.abs(traj.values - exact).max()) <= 1e-9


def test_cubic_flow_handles_zero_start():
    entry = ek.make("cubic-scalar", eps=0.1)
    assert entry.analytic["state"](3.0, [0.0])[0] == 0.0


def test_scalar_error_rate_is_equilibrium_gain():
    entry = ek.make("scalar-riccati")
    assert entry.analytic["error_rate"](4.0, 1.0) == pytest.approx(2.0)
    assert np.all(entry.analytic["state"](7.0, [1.5, -2.0])
                  == np.array([1.5, -2.0]))
