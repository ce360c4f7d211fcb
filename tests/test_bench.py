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
    hb = ek.estimate_hessian_bounds(entry.model, [np.zeros(2)], 0.0, alpha,
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
    hb = ek.estimate_hessian_bounds(entry.model, [np.zeros(1)], 0.0, alpha,
                                    safety=1.0)
    assert abs(hb.kappa_A - exact) <= 0.1 * exact


def test_cubic_without_nonlinearity_has_flat_curvature():
    entry = ek.make("cubic-scalar", eps=0.0)
    assert entry.analytic["kappa_A"](5.0) == 0.0
    hb = ek.estimate_hessian_bounds(entry.model, [np.zeros(1)], 0.0, 5.0,
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


# every state-independent callback of the registry plants and the value it returned
# when it built a new array per call
CONSTANT_CALLBACKS = {
    ("scalar-riccati", "dynamics"): np.zeros(1),
    ("scalar-riccati", "jacobian_A"): np.zeros((1, 1)),
    ("scalar-riccati", "jacobian_C"): np.ones((1, 1)),
    ("ltv-linear", "jacobian_C"): np.array([[1.0, 0.0]]),
    ("vanderpol-pos", "jacobian_C"): np.array([[1.0, 0.0]]),
    ("cubic-scalar", "jacobian_C"): np.ones((1, 1)),
}


@pytest.mark.parametrize("name, callback", sorted(CONSTANT_CALLBACKS))
def test_a_constant_callback_returns_a_fresh_writable_copy(name, callback):
    """A copy of a constant built once per plant: a float64 array with the
    bits of the old per-call value, and one a caller may overwrite without
    changing what the next call returns."""
    model = ek.make(name).model
    fn, n = getattr(model, callback), model.state_dim
    first = fn(np.full(n, 0.3), 0.0)
    for x, t in ((np.full(n, -2.0), 1.5), (np.zeros(n), 0.0)):
        result = fn(x, t)
        assert type(result) is np.ndarray and result.dtype == np.float64
        assert result.flags.writeable and result.flags.owndata
        assert result.tobytes() == CONSTANT_CALLBACKS[name, callback].tobytes()
        assert result.shape == CONSTANT_CALLBACKS[name, callback].shape
        assert not np.shares_memory(result, first)
        result[...] = np.nan
    first[...] = 7.0
    assert fn(np.full(n, 0.3), 0.0).tobytes() == CONSTANT_CALLBACKS[name, callback].tobytes()


@pytest.mark.parametrize("entry", ek.registry(), ids=lambda e: e.name)
def test_every_other_registry_callback_depends_on_its_point(entry):
    """The table above lists every constant callback: each other one moves
    between two points."""
    n = entry.model.state_dim
    for callback in ("dynamics", "output", "jacobian_A", "jacobian_C"):
        if (entry.name, callback) not in CONSTANT_CALLBACKS:
            fn = getattr(entry.model, callback)
            assert not np.array_equal(fn(np.full(n, 0.3), 0.0), fn(np.full(n, -2.0), 1.5))
