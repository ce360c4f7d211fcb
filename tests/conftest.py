import collections
import math

import numpy as np
import pytest

import ekfcert as ek


def random_spd(rng: np.random.Generator, n: int, lo: float = 0.5,
               hi: float = 2.0) -> np.ndarray:
    """Random symmetric matrix with eigenvalues drawn from [lo, hi]."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(lo, hi, size=n)
    return Q @ np.diag(lam) @ Q.T


@pytest.fixture(scope="session")
def scalar_rig():
    """Scalar constant plant with direct measurement and unit weights.

    P0 starts off the equilibrium so the covariance transient is exercised;
    every closed form (P_inf = 1, K_inf = 1, error rate 1) is available.
    """
    entry = ek.make("scalar-riccati")
    horizon = 12.0
    fc = ek.FilterConfig(model=entry.model, Q=np.eye(1), R=np.eye(1),
                         P0=np.array([[2.0]]), x0=np.array([0.5]),
                         horizon=horizon)
    x0 = np.array([0.4])
    traj = ek.integrate_ekf(fc, x0=x0)
    return {"entry": entry, "model": entry.model, "fc": fc, "x0": x0, "traj": traj}


@pytest.fixture(scope="session")
def cubic_rig():
    """Weakly cubic scalar plant driven by its exact measurement signal."""
    entry = ek.make("cubic-scalar", eps=0.1)
    horizon = 8.0
    p_eq = entry.analytic["equilibrium_p"](1.0, 1.0)
    fc = ek.FilterConfig(model=entry.model, Q=np.eye(1), R=np.eye(1),
                         P0=np.array([[p_eq]]), x0=np.array([0.0]),
                         horizon=horizon)
    x0 = np.array([0.3])
    state = entry.analytic["state"]

    def y(t: float) -> np.ndarray:
        return state(t, x0)

    traj = ek.integrate_ekf(fc, y)
    return {"entry": entry, "model": entry.model, "fc": fc, "x0": x0,
            "state": state, "y": y, "traj": traj}


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counter of np.linalg calls by function name ("eigvalsh", "solve",
    "inv") while the test runs; clear it to restart the count."""
    calls = collections.Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("eigvalsh", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls
