"""Benchmark plants with known closed-form structure.

Each entry couples a SystemModel with whatever analytic data exists for
it (equilibrium covariance, exact state flow, curvature bounds), so tests
and the CLI can compare computed quantities against independent values.
Curvature bound callables take the ball radius and assume the ball is
centered at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .model import SystemModel


@dataclass
class BenchmarkEntry:
    name: str
    model: SystemModel
    analytic: dict = field(default_factory=dict)


def _scalar_riccati() -> BenchmarkEntry:
    """Constant scalar plant with direct measurement; every filter quantity
    has a closed form."""
    zero, zero_jac, one = np.zeros(1), np.zeros((1, 1)), np.ones((1, 1))
    model = SystemModel(
        state_dim=1, output_dim=1,
        dynamics=lambda x, t: zero.copy(),
        output=lambda x, t: x.copy(),
        jacobian_A=lambda x, t: zero_jac.copy(),
        jacobian_C=lambda x, t: one.copy())
    analytic = {
        # for dx/dt = 0, y = x: dP/dt = q - P^2/r has equilibrium sqrt(qr)
        "equilibrium_p": lambda q, r: math.sqrt(q * r),
        "equilibrium_gain": lambda q, r: math.sqrt(q / r),
        "error_rate": lambda q, r: math.sqrt(q / r),
        "state": lambda t, x0: np.asarray(x0, dtype=float).copy(),
        "kappa_A": lambda alpha: 0.0,
        "kappa_C": lambda alpha: 0.0,
    }
    return BenchmarkEntry(name="scalar-riccati", model=model, analytic=analytic)


def _ltv_linear(omega0: float = 1.0, omega_mod: float = 0.5,
                freq: float = 1.0) -> BenchmarkEntry:
    """Time-varying linear rotation with position output; exact flow available."""
    def a(t: float) -> float:
        return omega0 + omega_mod * math.sin(freq * t)

    def dyn(x, t):
        return np.array([a(t) * x[1], -a(t) * x[0]])

    def jac_a(x, t):
        return np.array([[0.0, a(t)], [-a(t), 0.0]])

    C = np.array([[1.0, 0.0]])
    model = SystemModel(
        state_dim=2, output_dim=1,
        dynamics=dyn,
        output=lambda x, t: C.dot(x),
        jacobian_A=jac_a,
        jacobian_C=lambda x, t: C.copy())

    def theta(t: float) -> float:
        return omega0 * t + omega_mod * (1.0 - math.cos(freq * t)) / freq

    def state(t: float, x0) -> np.ndarray:
        # skew-symmetric drift rotates the state by the integrated angle
        th = theta(t)
        c, s = math.cos(th), math.sin(th)
        x0 = np.asarray(x0, dtype=float)
        return np.array([c * x0[0] + s * x0[1], -s * x0[0] + c * x0[1]])

    analytic = {
        "state": state,
        "kappa_A": lambda alpha: 0.0,
        "kappa_C": lambda alpha: 0.0,
    }
    return BenchmarkEntry(name="ltv-linear", model=model, analytic=analytic)


def _vanderpol_pos(mu: float = 0.15) -> BenchmarkEntry:
    """Oscillator with linear position output; output curvature vanishes identically."""
    def dyn(x, t):
        return np.array([x[1], mu * (1.0 - x[0] ** 2) * x[1] - x[0]])

    def jac_a(x, t):
        return np.array([[0.0, 1.0],
                         [-2.0 * mu * x[0] * x[1] - 1.0, mu * (1.0 - x[0] ** 2)]])

    C = np.array([[1.0, 0.0]])
    model = SystemModel(
        state_dim=2, output_dim=1,
        dynamics=dyn,
        output=lambda x, t: C.dot(x),
        jacobian_A=jac_a,
        jacobian_C=lambda x, t: C.copy())
    analytic = {
        # max over the radius-alpha circle of the one nonzero Hessian slice
        # [[-2 mu x2, -2 mu x1], [-2 mu x1, 0]] peaks at 4 mu alpha / sqrt(3)
        "kappa_A": lambda alpha: 4.0 * mu * alpha / math.sqrt(3.0),
        "kappa_C": lambda alpha: 0.0,
    }
    return BenchmarkEntry(name="vanderpol-pos", model=model, analytic=analytic)


def _cubic_scalar(eps: float = 0.1) -> BenchmarkEntry:
    """Scalar plant with cubic nonlinearity and direct measurement; curvature
    bound 6*eps*alpha."""
    def dyn(x, t):
        return -x + eps * x ** 3

    one = np.ones((1, 1))
    model = SystemModel(
        state_dim=1, output_dim=1,
        dynamics=dyn,
        output=lambda x, t: x.copy(),
        jacobian_A=lambda x, t: np.array([[-1.0 + 3.0 * eps * x[0] ** 2]]),
        jacobian_C=lambda x, t: one.copy())
    def state(t: float, x0) -> np.ndarray:
        # Bernoulli substitution u = x^-2 turns the flow into u' = 2u - 2 eps
        x0 = float(np.asarray(x0, dtype=float).reshape(-1)[0])
        if x0 == 0.0:
            return np.zeros(1)
        u = eps + (x0 ** -2 - eps) * math.exp(2.0 * t)
        return np.array([math.copysign(1.0 / math.sqrt(u), x0)])

    analytic = {
        # f'' = 6 eps x, so the bound over |x| <= alpha is linear in alpha
        "kappa_A": lambda alpha: 6.0 * eps * alpha,
        "kappa_C": lambda alpha: 0.0,
        # linearization at the origin has A = -1: q - 2P - P^2/r = 0
        "equilibrium_p": lambda q, r: -r + math.sqrt(r * r + q * r),
        "state": state,
    }
    return BenchmarkEntry(name="cubic-scalar", model=model, analytic=analytic)


_FACTORIES = {
    "scalar-riccati": _scalar_riccati,
    "ltv-linear": _ltv_linear,
    "vanderpol-pos": _vanderpol_pos,
    "cubic-scalar": _cubic_scalar,
}


def register(name: str, factory) -> None:
    """Add a user-defined benchmark factory; overwriting is rejected."""
    if name in _FACTORIES:
        raise ConfigurationError(f"benchmark {name!r} already registered")
    _FACTORIES[name] = factory


def make(name: str, **params) -> BenchmarkEntry:
    """Instantiate a benchmark by name with factory-specific parameters."""
    if name not in _FACTORIES:
        known = ", ".join(sorted(_FACTORIES))
        raise ConfigurationError(f"unknown benchmark {name!r}; known: {known}")
    try:
        return _FACTORIES[name](**params)
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for benchmark {name!r}: {exc}") from None


def registry() -> list:
    """All built-in benchmarks with default parameters."""
    return [make(name) for name in sorted(_FACTORIES)]
