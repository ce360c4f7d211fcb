"""Nonlinear plant models, Jacobians and second-derivative norm bounds.

A :class:`SystemModel` bundles the drift field f(x, t) and the output map
h(x, t) together with optional analytic Jacobians. When a Jacobian callback
is absent it is replaced by central finite differences. The module also
estimates uniform bounds on the second-derivative tensors of f and h over a
ball around an estimate path; those bounds feed the analytic region radius
of the certifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ModelEvaluationError

EPS = np.finfo(float).eps
CBRT_EPS = EPS ** (1.0 / 3.0)     # near-optimal step for first-order central differences
QUARTIC_EPS = EPS ** 0.25         # near-optimal step for direct second differences


@dataclass
class SystemModel:
    """A deterministic plant dx/dt = f(x, t) with measured output y = h(x, t).

    Parameters
    ----------
    state_dim, output_dim : int
        Dimensions n and p of the state and output vectors.
    dynamics : callable (x, t) -> (n,) array
        Drift field f. Must be evaluable for every finite state an
        experiment supplies.
    output : callable (x, t) -> (p,) array
        Output map h.
    jacobian_A : callable (x, t) -> (n, n) array, optional
        Analytic Jacobian of f with respect to x. Finite differences are
        used when omitted.
    jacobian_C : callable (x, t) -> (p, n) array, optional
        Analytic Jacobian of h with respect to x.
    fd_step : float, optional
        Override for the finite-difference step. Default is
        cbrt(eps) * max(1, ||x||), chosen per evaluation point.
    name : str
        Identifier used by the benchmark registry and the CLI.
    """

    state_dim: int
    output_dim: int
    dynamics: Callable[[np.ndarray, float], np.ndarray]
    output: Callable[[np.ndarray, float], np.ndarray]
    jacobian_A: Callable[[np.ndarray, float], np.ndarray] | None = None
    jacobian_C: Callable[[np.ndarray, float], np.ndarray] | None = None
    fd_step: float | None = None
    name: str = ""

    def __post_init__(self):
        if self.state_dim < 1 or self.output_dim < 1:
            raise ConfigurationError("state_dim and output_dim must be positive")

    def f(self, x: np.ndarray, t: float) -> np.ndarray:
        y = np.asarray(self.dynamics(np.asarray(x, dtype=float), t), dtype=float).reshape(-1)
        if y.shape != (self.state_dim,):
            raise ConfigurationError(
                f"dynamics returned shape {y.shape}, expected ({self.state_dim},)")
        return y

    def h(self, x: np.ndarray, t: float) -> np.ndarray:
        y = np.asarray(self.output(np.asarray(x, dtype=float), t), dtype=float).reshape(-1)
        if y.shape != (self.output_dim,):
            raise ConfigurationError(
                f"output returned shape {y.shape}, expected ({self.output_dim},)")
        return y


@dataclass
class HessianBounds:
    """Uniform norm bounds on the second derivatives of f and h.

    ``kappa_A`` bounds the tensor norm of d2f/dx2 and ``kappa_C`` that of
    d2h/dx2, both over the ball of radius ``alpha`` around the estimate
    path. The tensor norm is the one induced by the Euclidean vector norm.
    ``sampled`` marks bounds produced by the sampling estimator, which are
    empirical maxima and not certified suprema; analytic values supplied by
    the user should leave it False.
    """

    alpha: float
    kappa_A: float
    kappa_C: float
    sampled: bool = False

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ConfigurationError(f"alpha must be positive, got {self.alpha}")
        if self.kappa_A < 0.0 or self.kappa_C < 0.0:
            raise ConfigurationError("kappa bounds must be nonnegative")


def _default_step(x: np.ndarray, base: float) -> float:
    return base * max(1.0, float(np.linalg.norm(x)))


def _fd_jacobian(func: Callable[[np.ndarray, float], np.ndarray],
                 x: np.ndarray, t: float, out_dim: int, step: float) -> np.ndarray:
    n = len(x)
    J = np.empty((out_dim, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        J[:, i] = (func(x + e, t) - func(x - e, t)) / (2.0 * step)
    return J


def eval_jacobians(model: SystemModel, x: np.ndarray, t: float,
                   fd_step: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians (A, C) of the drift and output maps at (x, t).

    Analytic callbacks are used when the model provides them; otherwise
    central finite differences with step ``fd_step`` (default
    cbrt(eps) * max(1, ||x||)).

    Raises
    ------
    ModelEvaluationError
        If either Jacobian contains a non-finite entry.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise ModelEvaluationError(f"state contains non-finite entries: {x}")
    step = fd_step if fd_step is not None else model.fd_step
    if step is None:
        step = _default_step(x, CBRT_EPS)

    if model.jacobian_A is not None:
        A = np.asarray(model.jacobian_A(x, t), dtype=float).reshape(model.state_dim,
                                                                    model.state_dim)
    else:
        A = _fd_jacobian(model.f, x, t, model.state_dim, step)
    if model.jacobian_C is not None:
        C = np.asarray(model.jacobian_C(x, t), dtype=float).reshape(model.output_dim,
                                                                    model.state_dim)
    else:
        C = _fd_jacobian(model.h, x, t, model.output_dim, step)

    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(C))):
        raise ModelEvaluationError(f"Jacobian evaluation produced non-finite entries at t={t}")
    return A, C


def tilde_matrices(model: SystemModel, z: np.ndarray, xhat: np.ndarray,
                   t: float) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian offsets (A(z,t) - A(xhat,t), C(z,t) - C(xhat,t)).

    These offsets vanish identically for linear systems and are
    antisymmetric under swapping the two evaluation points.
    """
    Az, Cz = eval_jacobians(model, z, t)
    Ah, Ch = eval_jacobians(model, xhat, t)
    return Az - Ah, Cz - Ch


def _hessian_from_jacobian(jac: Callable[[np.ndarray, float], np.ndarray],
                           x: np.ndarray, t: float, out_dim: int,
                           step: float) -> np.ndarray:
    """Second-derivative tensor by central differences of an analytic Jacobian.

    Exact (bit-for-bit zero) for state-independent Jacobians, which keeps
    linear systems at kappa = 0.
    """
    n = len(x)
    H = np.empty((out_dim, n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        Jp = np.asarray(jac(x + e, t), dtype=float).reshape(out_dim, n)
        Jm = np.asarray(jac(x - e, t), dtype=float).reshape(out_dim, n)
        H[:, i, :] = (Jp - Jm) / (2.0 * step)
    return 0.5 * (H + H.transpose(0, 2, 1))


def _hessian_from_values(func: Callable[[np.ndarray, float], np.ndarray],
                         x: np.ndarray, t: float, out_dim: int,
                         step: float) -> np.ndarray:
    """Second-derivative tensor by direct second differences of f or h."""
    n = len(x)
    H = np.empty((out_dim, n, n))
    f0 = func(x, t)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        H[:, i, i] = (func(x + ei, t) - 2.0 * f0 + func(x - ei, t)) / step ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = step
            mixed = (func(x + ei + ej, t) - func(x + ei - ej, t)
                     - func(x - ei + ej, t) + func(x - ei - ej, t)) / (4.0 * step ** 2)
            H[:, i, j] = mixed
            H[:, j, i] = mixed
    return H


def hessian_tensor(model: SystemModel, x: np.ndarray, t: float,
                   which: str) -> np.ndarray:
    """Second-derivative tensor of f ('dynamics') or h ('output') at (x, t).

    Shape (m, n, n) where m is the dimension of the differentiated map.
    Differentiates the analytic Jacobian when the model carries one,
    otherwise falls back to second differences of the map itself.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if which == "dynamics":
        jac, func, out_dim = model.jacobian_A, model.f, model.state_dim
    elif which == "output":
        jac, func, out_dim = model.jacobian_C, model.h, model.output_dim
    else:
        raise ConfigurationError(f"unknown map selector {which!r}")
    if jac is not None:
        H = _hessian_from_jacobian(jac, x, t, out_dim, _default_step(x, CBRT_EPS))
    else:
        H = _hessian_from_values(func, x, t, out_dim, _default_step(x, QUARTIC_EPS))
    if not np.all(np.isfinite(H)):
        raise ModelEvaluationError(f"Hessian sample non-finite at t={t}")
    return H


def _tensor_norms(H: np.ndarray, output_directions: np.ndarray) -> np.ndarray:
    """Sampled tensor norms of a stack of (m, n, n) tensors, shape (N,).

    All N x d contractions sum_k w_k H[k] are formed by one stacked matrix
    product, whose per-direction rounding matches ``np.tensordot(w, H[i],
    axes=1)`` bit for bit, and their spectra come from one stacked
    ``eigvalsh``.
    """
    N, m, n, _ = H.shape
    W = np.asarray(output_directions, dtype=float).reshape(-1, 1, m)
    S = (W @ H.reshape(N, 1, m, n * n)).reshape(N, len(W), n, n)
    if S.size == 0:
        return np.zeros(N)
    S = 0.5 * (S + S.swapaxes(-1, -2))
    return np.abs(np.linalg.eigvalsh(S)).max(axis=(1, 2))


def tensor_norm(H: np.ndarray, output_directions: np.ndarray) -> float:
    """Euclidean-induced norm of a (m, n, n) bilinear tensor, sampled.

    The exact norm is max over unit output directions w of the spectral
    norm of sum_k w_k H[k]; here the maximum runs over the supplied sample
    of directions only, so the value is a lower approximation. For m = 1
    the coordinate directions make it exact. All directions are evaluated
    at once: one stacked product forms the symmetrized matrices and one
    batched ``eigvalsh`` takes their spectra.
    """
    return float(_tensor_norms(np.asarray(H, dtype=float)[None], output_directions)[0])


def _unit_directions(dim: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Signed coordinate axes plus ``samples`` random unit vectors."""
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    if dim == 1 or samples <= 0:
        return axes
    raw = rng.standard_normal((samples, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return np.vstack([axes, raw / norms])


def estimate_hessian_bounds(model: SystemModel,
                            center_path: Sequence[tuple[np.ndarray, float]],
                            radius: float,
                            *,
                            safety: float = 1.1,
                            radial_samples: int = 5,
                            direction_samples: int = 32,
                            output_direction_samples: int = 32,
                            max_centers: int = 25,
                            seed: int = 0) -> HessianBounds:
    """Sampled suprema of the second-derivative tensor norms over a tube.

    Evaluates the Hessians of f and h on a grid of points within ``radius``
    of the given (state, time) path, takes the largest sampled tensor norm
    and inflates it by ``safety``. The result is an empirical bound, not a
    certified supremum; callers with analytic bounds should construct
    :class:`HessianBounds` directly.

    Parameters
    ----------
    center_path : sequence of (x, t)
        Points the ball is centered on; long paths are subsampled at the
        stride len(center_path) // max_centers. The tensor norms of all
        sample points around one center are taken in one batched call.
    radius : float
        Ball radius alpha. Must be positive and finite.
    safety : float
        Multiplicative inflation applied to the sampled maxima.
    """
    if not np.isfinite(radius) or radius <= 0.0:
        raise ConfigurationError(f"sampling radius must be positive and finite, got {radius}")
    if len(center_path) == 0:
        raise ConfigurationError("center_path must contain at least one point")
    if max_centers < 1:
        raise ConfigurationError(f"max_centers must be positive, got {max_centers}")
    rng = np.random.default_rng(seed)

    n, p = model.state_dim, model.output_dim
    state_dirs = _unit_directions(n, direction_samples, rng)
    out_dirs_f = _unit_directions(n, output_direction_samples, rng)
    out_dirs_h = _unit_directions(p, output_direction_samples, rng)

    stride = max(1, len(center_path) // max_centers)
    centers = list(center_path)[::stride]
    radii = np.linspace(0.0, radius, radial_samples)

    kappa_a = 0.0
    kappa_c = 0.0
    for xc, t in centers:
        xc = np.asarray(xc, dtype=float).reshape(-1)
        points = [x for r in radii
                  for x in ([xc] if r == 0.0 else [xc + r * u for u in state_dirs])]
        Hf, Hh = [], []
        for x in points:
            Hf.append(hessian_tensor(model, x, t, "dynamics"))
            Hh.append(hessian_tensor(model, x, t, "output"))
        # batched per centre, not per path, so memory stays flat in the path length
        kappa_a = max(kappa_a, float(_tensor_norms(np.array(Hf), out_dirs_f).max()))
        kappa_c = max(kappa_c, float(_tensor_norms(np.array(Hh), out_dirs_h).max()))
    return HessianBounds(alpha=radius, kappa_A=safety * kappa_a,
                         kappa_C=safety * kappa_c, sampled=True)
