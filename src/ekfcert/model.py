"""Nonlinear plant models, Jacobians and second-derivative norm bounds.

A :class:`SystemModel` bundles the drift field f(x, t) and the output map
h(x, t) together with optional analytic Jacobians. When a Jacobian callback
is absent it is replaced by central finite differences. The module also
estimates uniform bounds on the second-derivative tensors of f and h over a
ball around an estimate path; those bounds feed the analytic region radius
of the certifier.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, ModelEvaluationError

EPS = np.finfo(float).eps
CBRT_EPS = EPS ** (1.0 / 3.0)     # near-optimal step for first-order central differences
QUARTIC_EPS = EPS ** 0.25         # near-optimal step for direct second differences
RADIAL_SAMPLES = 5                # radii from 0 to the tube radius in estimate_hessian_bounds
HESSIAN_NON_FINITE = "Hessian sample non-finite at t={t}"
MAX_COUNT = 10 ** 6               # the cap of a capped count rule, and of a grid's step count


_FLOAT64 = np.dtype(float)


def _call(func: Callable, x, t: float, shape: tuple, what: str) -> np.ndarray:
    """``func(x, t)``, a callback result or measured value, as a float64 ndarray of ``shape``:
    itself when it is one, else read by _array and reshaped; another number of entries is
    a ConfigurationError. ``what`` names it, its {t} field formatted only then."""
    v = func(x, t)
    if type(v) is np.ndarray and v.dtype is _FLOAT64 and v.shape == shape:
        return v
    v = _array(v, what, t)
    if v.size == math.prod(shape):
        return v.reshape(shape)
    raise ConfigurationError(what.format(t=t) + f" returned shape {(v.size,)}, expected {shape}")


@dataclass
class SystemModel:
    """A deterministic plant dx/dt = f(x, t) with measured output y = h(x, t).

    Each callback takes one state and one time and returns the shape stated
    below. Every result, single or stacked, is read by _call: a float64
    ndarray of that shape is used as returned, any other is read by the
    numeric rule (_array) and reshaped, and another number of entries is a
    ConfigurationError naming the callback. Stacked evaluation calls a
    callback once per point, in row order.

    Parameters
    ----------
    state_dim, output_dim : int
        Dimensions n and p of the state and output vectors.
    dynamics : callable (x, t) -> (n,) array
        Drift field f. Must be evaluable for every finite state an
        experiment supplies; no flow hands it a non-finite state.
    output : callable (x, t) -> (p,) array
        Output map h.
    jacobian_A : callable (x, t) -> (n, n) array, optional
        Analytic Jacobian of f with respect to x. Central finite differences
        with step cbrt(eps) * max(1, ||x||) are used when omitted.
    jacobian_C : callable (x, t) -> (p, n) array, optional
        Analytic Jacobian of h with respect to x.
    """

    state_dim: int
    output_dim: int
    dynamics: Callable[[np.ndarray, float], np.ndarray]
    output: Callable[[np.ndarray, float], np.ndarray]
    jacobian_A: Callable[[np.ndarray, float], np.ndarray] | None = None
    jacobian_C: Callable[[np.ndarray, float], np.ndarray] | None = None

    def __post_init__(self):
        self.state_dim, self.output_dim = _scalars(state_dim=self.state_dim,
                                                   output_dim=self.output_dim).values()

    def f(self, x: np.ndarray, t: float) -> np.ndarray:
        return _call(self.dynamics, np.asarray(x, dtype=float), t, (self.state_dim,), "dynamics")

    def h(self, x: np.ndarray, t: float) -> np.ndarray:
        return _call(self.output, np.asarray(x, dtype=float), t, (self.output_dim,), "output")


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
        self.alpha, self.kappa_A, self.kappa_C = _scalars(
            alpha=self.alpha, kappa_A=self.kappa_A, kappa_C=self.kappa_C).values()


def _evaluate(func: Callable[[np.ndarray, float], np.ndarray], points: np.ndarray,
              times: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    """func at every point of the (N, ..., n) ``points``, those of row i at
    times[i], once per point in row order, into a preallocated (N, ..., *shape)
    array. Every result is read by _call."""
    per_row = math.prod(points.shape[1:-1])
    out = np.empty((len(points) * per_row, *shape))
    for k, x in enumerate(points.reshape(-1, points.shape[-1])):
        out[k] = _call(func, x, times[k // per_row], shape, what)
    return out.reshape(*points.shape[:-1], *shape)


def _step_scale(X: np.ndarray) -> np.ndarray:
    """max(1, ||x||) per row: the finite-difference step per unit base. The
    stacked dot rounds ||x|| as np.linalg.norm(x) does for each row;
    np.linalg.norm(X, axis=1) does not."""
    return np.maximum(1.0, np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0]))


def _central_differences(func, X: np.ndarray, times: np.ndarray, steps: np.ndarray,
                         shape: tuple, what: str) -> np.ndarray:
    """(func(x + s e_i, t) - func(x - s e_i, t)) / (2 s) per row x and step s,
    shape (N, shape[0], n, *shape[1:]): the index i sits on axis 2."""
    n = X.shape[1]
    E = np.eye(n)
    V = _evaluate(func, X[:, None, :] + steps[:, None, None] * np.concatenate((E, -E)),
                  times, shape, what)
    return ((V[:, :n] - V[:, n:]).T / (2.0 * steps)).T.swapaxes(1, 2)


def _second_differences(func, X: np.ndarray, times: np.ndarray, steps: np.ndarray,
                        out_dim: int, what: str) -> np.ndarray:
    """Second-derivative tensors (N, out_dim, n, n) by direct second differences."""
    n = X.shape[1]
    E, (I, J) = np.eye(n), np.nonzero(np.triu(np.ones((n, n), dtype=bool), 1))
    mixed = np.stack([E[I] + E[J], E[I] - E[J], -E[I] + E[J], -E[I] - E[J]], axis=1)
    # the offset -0.0 keeps the centre bit-equal to x, and signed zeros keep every
    # point bit-equal to a per-point loop's x + e, x - e, x + ei - ej, ...
    offsets = np.vstack([-np.zeros((1, n)), E, -E, mixed.reshape(-1, n)])
    V = _evaluate(func, X[:, None, :] + steps[:, None, None] * offsets, times, (out_dim,), what)
    # Python's float power: s * s rounds differently for about 1 in 2 400 steps
    sq = np.array([s ** 2 for s in steps.tolist()])[:, None, None]
    H = np.empty((len(X), out_dim, n, n))
    D, M = V[:, 1:2 * n + 1], V[:, 2 * n + 1:]
    H[:, :, range(n), range(n)] = ((D[:, :n] - 2.0 * V[:, :1] + D[:, n:]) / sq).swapaxes(1, 2)
    H[:, :, I, J] = H[:, :, J, I] = (
        (M[:, 0::4] - M[:, 1::4] - M[:, 2::4] + M[:, 3::4]) / (4.0 * sq)).swapaxes(1, 2)
    return H


def _stacked(points, times, evaluate, message: str | None, state_message: str) -> tuple:
    """``evaluate(X, T)`` on the leading finite rows X of ``points`` and their
    times (one time or one per row), without overflow warnings. The first row
    whose state is non-finite, or whose values are when a ``message`` is given,
    raises ModelEvaluationError."""
    X = np.asarray(points, dtype=float)
    T = np.broadcast_to(times, len(X))   # a view: no per-row objects for long stacks
    good = len(X) if np.isfinite(X).all() else int(np.isfinite(X).all(axis=1).argmin())
    Xg = X[:good]
    with np.errstate(over="ignore", invalid="ignore"):
        stacks = evaluate(Xg, T[:good])
    if good < len(X) or message and not all(np.isfinite(S).all() for S in stacks):
        k = next((k for k in range(good if message else 0)
                  if not all(np.isfinite(S[k]).all() for S in stacks)), good)
        text = message if k < good else state_message
        raise ModelEvaluationError(text.format(x=X[k], t=T[k]), time=float(T[k]))
    return stacks


def eval_jacobians(model: SystemModel, x: np.ndarray,
                   t: float) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians (A, C) of the drift and output maps at (x, t), a one-row
    _stacked_jacobians: the analytic callbacks when the model provides them,
    otherwise central finite differences with step cbrt(eps) * max(1, ||x||).

    Raises
    ------
    ConfigurationError
        If x is not a numeric state of the model's (n,) shape (_state) or t not a
        finite real number (_scalar), read before anything is evaluated.
    ModelEvaluationError
        If x or either Jacobian contains a non-finite entry.
    """
    x = _state(x, model.state_dim, "x", finite=False)
    return tuple(J[0] for J in _stacked_jacobians(model, x[None], _scalar(t, "t")))


# the rule of every scalar argument of the package, by name, which _scalar applies;
# a rule that does not say "finite" or "integer" allows +inf
_RULES = {
    **dict.fromkeys(["horizon", "step", "radius", "p_lo", "p_hi", "q_lo", "r_lo"],
                    "positive and finite"),
    **dict.fromkeys(["beta", "b_max", "gamma", "safety"], "nonnegative and finite"),
    **dict.fromkeys(["alpha", "c_hi"], "positive"),
    **dict.fromkeys(["kappa_A", "kappa_C"], "nonnegative"),
    **dict.fromkeys(["state_dim", "output_dim"], "a positive integer"),
    **dict.fromkeys(["t", "times"], "finite"),
    "seed": "a nonnegative integer",
    "max_centers": f"a positive integer at most {MAX_COUNT}",
    **dict.fromkeys(["direction_samples", "output_direction_samples", "radius_times"],
                    f"a nonnegative integer at most {MAX_COUNT}"),
}
SIGN_FREE_RULE = "finite"   # of the CLI's numbers that no library argument reads


def _scalar(value, what: str, rule: str | None = None):
    """The scalar argument ``what`` under ``rule`` (default ``_RULES[what]``), read at every
    entry point: a real number, not a boolean or a string, that is positive or nonnegative
    (of either sign under SIGN_FREE_RULE), finite unless the rule allows +inf, whole for an
    integer rule and at most MAX_COUNT for a capped one, returned as a float (an int for an
    integer rule); else a ConfigurationError "<what> must be <rule>, got <value>". A real
    number is what _real accepts with no dimension, so a 0-d array of a real, non-boolean
    dtype reads as its one entry."""
    rule = rule or _RULES[what]
    real = not isinstance(value, (list, tuple)) and _real(value) and not np.ndim(value)
    try:
        x = float(value) if real else math.nan
    except OverflowError:   # an int beyond the float range
        x = math.inf if value > 0 else -math.inf
    integer = "integer" in rule
    if not ((x >= 0.0 if "nonnegative" in rule else x > 0.0 if "positive" in rule else True)
            and ((isinstance(value, numbers.Integral) or x.is_integer()) if integer
                 else math.isfinite(x) or not rule.endswith("finite"))
            and (x <= MAX_COUNT or not rule.endswith(f"at most {MAX_COUNT}"))):
        raise ConfigurationError(f"{what} must be {rule}, got {value if real else repr(value)}")
    return int(value) if integer else x


def _scalars(**values) -> dict:
    """Each keyword value read by _scalar under its name's rule, in order."""
    return {what: _scalar(value, what) for what, value in values.items()}


def _real(value) -> bool:
    """Whether each entry of ``value``, at any depth, is a real number and not a boolean."""
    if isinstance(value, (list, tuple)):
        return all(map(_real, value))
    return (not isinstance(value, bool) if isinstance(value, numbers.Real)
            else np.asarray(value).dtype.kind in "iuf")


def _array(value, what: str, t=None) -> np.ndarray:
    """The array argument ``what`` as a float ndarray, by the package's one numeric rule:
    every entry _real, rows of equal length, no int beyond the float range; else a
    ConfigurationError "<what> must be numeric, got <value>", {t} in what formatted with t.
    The caller checks the rest."""
    try:
        if _real(value):
            return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):   # ragged rows, huge ints
        pass
    raise ConfigurationError(what.format(t=t) + f" must be numeric, got {value!r}")


def _state(value, n: int | None, what: str, rows: int | str | None = None,
           finite: bool = True) -> np.ndarray:
    """The state vector ``what`` as a float (n,) array, flattened (of any length for an n
    of None), or with ``rows`` the stack of states ``what`` as a (rows, n) array, where a
    string ``rows`` names a free row count, read at every entry point; a value that _array
    refuses, another shape or, unless ``finite`` is False, a non-finite entry is a
    ConfigurationError."""
    x = _array(value, what)
    if rows is None:
        x, shape, text = x.reshape(-1), (n or x.size,), f"({n},)"
    else:
        shape = (len(x) if isinstance(rows, str) and x.ndim == 2 else rows, n)
        text = f"({rows}, {n})"
    if x.shape != shape:
        raise ConfigurationError(f"{what} must have shape {text}, got {x.shape}")
    if finite and not np.isfinite(x).all():
        raise ConfigurationError(f"{what} must be finite, got {x.tolist()}")
    return x


def _states(values, n: int, what: str) -> np.ndarray:
    """The states in ``values``, each read by _state as ``what[i]``, as a (B, n) array; a
    ``values`` that is not np.iterable or holds no state is a ConfigurationError."""
    states = [_state(x, n, f"{what}[{i}]")
              for i, x in enumerate(values if np.iterable(values) else [])]
    if not states:
        raise ConfigurationError(f"{what} must hold at least one state, got {values!r}")
    return np.array(states)


def _times(value, what: str):
    """The time argument ``what`` of an entry point that takes one time or many: one time
    read by _scalar, or a sequence or array of times read as a state of any length, so
    every entry is checked before any is used."""
    return (_state(value, None, what) if isinstance(value, (list, tuple)) or np.ndim(value)
            else _scalar(value, what))


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, from its sum of squares: squares
    that overflow read as non-finite too, which only costs the full check. A
    one-state, one-output stage decides its A and C on floats instead."""
    return math.isfinite(np.vdot(a, a))


def _stage_jacobians(model: SystemModel, x: np.ndarray, t: float,
                     finite: bool) -> tuple[np.ndarray, np.ndarray]:
    """eval_jacobians(model, x, t) for an RK4 stage whose state is known ``finite``.
    With analytic Jacobians and a finite state it returns the raw callback results,
    one call each, when both are finite: by math.isfinite on their one entry each at
    n = p = 1, else by _finite. Anything else takes the checked one-row stack, which
    gives the same values or raises."""
    if finite and model.jacobian_A is not None and model.jacobian_C is not None:
        n, p = model.state_dim, model.output_dim
        A = _call(model.jacobian_A, x, t, (n, n), "jacobian_A")
        C = _call(model.jacobian_C, x, t, (p, n), "jacobian_C")
        if (math.isfinite(A.item()) and math.isfinite(C.item()) if n == p == 1
                else _finite(A) and _finite(C)):
            return A, C
    return tuple(J[0] for J in _stacked_jacobians(model, x[None], t))


def _stacked_jacobians(model: SystemModel, points: np.ndarray, times,
                       checked: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """eval_jacobians at each row of the (N, n) ``points`` and its time (one
    time or N), as (N, n, n) and (N, p, n) stacks: one pass over the
    callbacks, then steps, differences and checks once per stack. Analytic
    Jacobians see the rows themselves; only finite differences take steps.
    Unless ``checked``, non-finite Jacobians are returned as they are; a
    non-finite state raises either way."""
    n, p = model.state_dim, model.output_dim

    def evaluate(X, T):
        if model.jacobian_A is None or model.jacobian_C is None:
            steps = CBRT_EPS * _step_scale(X)
        return tuple(_evaluate(getattr(model, jac), X, T, (m, n), jac)
                     if getattr(model, jac) is not None
                     else _central_differences(getattr(model, func), X, T, steps, (m,), func)
                     for jac, func, m in [("jacobian_A", "dynamics", n),
                                          ("jacobian_C", "output", p)])
    return _stacked(points, times, evaluate,
                    "Jacobian evaluation produced non-finite entries at t={t}" if checked else None,
                    "state contains non-finite entries: {x}")


def _stacked_hessians(model: SystemModel, points: np.ndarray, t: float,
                      which: str) -> np.ndarray:
    """hessian_tensor at each row of the (N, n) ``points`` at time t, as an
    (N, m, n, n) stack; callbacks, steps and checks as in _stacked_jacobians."""
    if which not in ("dynamics", "output"):
        raise ConfigurationError(f"unknown map selector {which!r}")
    jac_name, out_dim = (("jacobian_A", model.state_dim) if which == "dynamics"
                         else ("jacobian_C", model.output_dim))
    jac, func = getattr(model, jac_name), getattr(model, which)

    def evaluate(X, T):
        scale = _step_scale(X)
        if jac is None:
            return (_second_differences(func, X, T, QUARTIC_EPS * scale, out_dim, which),)
        # central differences of an analytic Jacobian are exact (bit-for-bit
        # zero) for state-independent Jacobians, which keeps linear systems
        # at kappa = 0
        H = _central_differences(jac, X, T, CBRT_EPS * scale, (out_dim, model.state_dim),
                                 jac_name)
        return (0.5 * (H + H.swapaxes(-1, -2)),)
    return _stacked(points, t, evaluate, HESSIAN_NON_FINITE, HESSIAN_NON_FINITE)[0]


def hessian_tensor(model: SystemModel, x: np.ndarray, t: float,
                   which: str) -> np.ndarray:
    """Second-derivative tensor of f ('dynamics') or h ('output') at (x, t).

    Shape (m, n, n) where m is the dimension of the differentiated map.
    Differentiates the analytic Jacobian when the model carries one,
    otherwise takes second differences of the map itself; a one-row stack. x and t are
    read as eval_jacobians reads them.
    """
    return _stacked_hessians(model, _state(x, model.state_dim, "x", finite=False)[None],
                             _scalar(t, "t"), which)[0]


def _contraction_norms(H: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Spectral norms of the symmetrized contractions sum_k W[j, k] H[i, k] of a
    stack of (m, n, n) tensors H by the (d, m) rows W, shape (N, d).

    All N x d contractions are formed by one stacked matrix product, whose
    per-direction rounding matches ``np.tensordot(w, H[i], axes=1)`` bit for
    bit, and their spectra come from one stacked ``eigvalsh``; an empty stack
    makes no call. A contraction that overflows reads NaN, without a warning.
    """
    N, m, n, _ = H.shape
    with np.errstate(over="ignore", invalid="ignore"):
        S = (W.reshape(-1, 1, m) @ H.reshape(N, 1, m, n * n)).reshape(N, len(W), n, n)
        if S.size == 0:
            return np.zeros((N, len(W)))
        S += S.swapaxes(-1, -2)
    S *= 0.5
    lam = np.linalg.eigvalsh(S)
    # a sorted spectrum's largest |lambda| is -lam[0] or lam[-1]; abs only turns -0.0 into 0.0
    return np.abs(np.maximum(-lam[..., 0], lam[..., -1]))


def _tensor_norms(H: np.ndarray, output_directions: np.ndarray) -> np.ndarray:
    """Sampled tensor norms of a stack of (m, n, n) tensors, shape (N,): the
    largest _contraction_norms of each, 0.0 without directions."""
    return _contraction_norms(H, output_directions).max(axis=1, initial=0.0)


# The screen of _screened_max, derived in its docstring: the relative slack of
# an upper value, the absolute slack for products and halvings that underflow,
# and the largest bound under which a contraction cannot overflow.
SCREEN_SLACK = 2.0 ** -30
SCREEN_FLOOR = 2.0 ** -1000
SCREEN_CEILING = 2.0 ** 1020


def _screened_max(H: np.ndarray, W: np.ndarray, best: float) -> float:
    """``max(best, _tensor_norms(H, W).max())`` bit for bit (NaN if any norm is
    NaN), solving only the directions that can raise it.

    H is an (N, m, n, n) stack symmetric in its last two axes, as every
    Hessian stack is, and the rows of W start with the 2m signed axes
    (``_unit_directions``). The axis rows are solved first; ``best`` takes
    their maximum. A point's other rows are solved only when
    ``not (U * (1 + SCREEN_SLACK) * |w|max + SCREEN_FLOOR <= min(best,
    SCREEN_CEILING))``, where U = hypot over k of the point's computed
    ``a_k = ||H_k||_2`` (the rows +e_k) and |w|max is the largest computed
    norm of the other rows. The floor is dropped for a point whose tensor is
    all zeros. A NaN or infinite U keeps its point.

    Why a pruned row w cannot raise ``best`` (u = eps / 2, A_k = H_k exact,
    R = sqrt(sum_k ||A_k||_2^2)):

    - Cauchy-Schwarz: ||sum_k w_k A_k||_2 <= sum_k |w_k| ||A_k||_2 <= ||w|| R.
    - Forming the contraction T and symmetrizing it rounds each entry by at
      most gamma_{m+1} sum_k |w_k| |A_k[i, j]| (a dot product of length m in
      any order, with or without fused multiply-adds, then one add) plus
      (m + 1) 2^-1075 for products and halvings that underflow. With
      ||A||_F <= sqrt(n) ||A||_2 and Cauchy-Schwarz again, the computed T^
      has ||T^ - T||_2 <= sqrt(n) gamma_{m+1} ||w|| R + n (m + 1) 2^-1074.
    - ``eigvalsh`` is backward stable: its eigenvalues are exact for T^ + F
      with ||F||_2 <= c_n u ||T^||_2 (LAPACK scales a matrix of tiny or huge
      norm first, so this holds for subnormal entries too). By Weyl the
      value read is at most (1 + c_n u) ||T^||_2.
    - For w = e_k the product and the symmetrization are exact (0 * a is
      +-0, a + a and its half are exact while 2a is finite), so a_k >=
      (1 - c_n u) ||A_k||_2; hypot, the norms of W and the products of the
      bound round by a few u each.

    Together the value of w is at most U (1 + s) |w|max + f with s of order
    (2 c_n + sqrt(n) (m + 1) + 2m + 6) u and f of order n (m + 1) 2^-1074.
    SCREEN_SLACK = 2^-30 covers c_n up to 2^20 for m, n up to 2^10, far above
    LAPACK's modest growth in n, and SCREEN_FLOOR = 2^-1000 covers f, and the
    bound's own rounding below the normal range, for n (m + 1) up to 2^70.
    A pruned row is therefore at most ``best``, a value actually sampled,
    so the maximum keeps every bit. An all-zero tensor contracts to +-0 in
    every direction, whose spectrum reads 0 <= best, so it needs no floor.
    Below SCREEN_CEILING no entry of a pruned contraction nor its
    symmetrization overflows, so a pruned row would not have read NaN either.
    """
    m = H.shape[1]
    axes = _contraction_norms(H, W[:2 * m])
    best = float(np.max(axes, initial=best))
    rest = W[2 * m:]
    if len(rest) and not math.isnan(best):
        bound = (np.hypot.reduce(axes[:, :m], axis=1) * (1.0 + SCREEN_SLACK)
                 * np.linalg.norm(rest, axis=1).max()
                 + SCREEN_FLOOR * H.any(axis=(1, 2, 3)))
        keep = ~(bound <= min(best, SCREEN_CEILING))
        if keep.any():
            best = float(np.max(_contraction_norms(H[keep], rest), initial=best))
    return best


def tensor_norm(H: np.ndarray, output_directions: np.ndarray) -> float:
    """Euclidean-induced norm of a (m, n, n) bilinear tensor, sampled.

    The exact norm is max over unit output directions w of the spectral
    norm of sum_k w_k H[k]; here the maximum runs over the supplied sample
    of directions only, so the value is a lower approximation. For m = 1
    the coordinate directions make it exact. All directions are evaluated
    at once: one stacked product forms the symmetrized matrices and one
    batched ``eigvalsh`` takes their spectra. ``H`` is a numeric (_array)
    (m, n, n) stack, m, n >= 1, and ``output_directions`` a (d, m) stack of
    finite numbers, else a ConfigurationError; d = 0 gives 0.0. A contraction
    that overflows gives NaN.
    """
    H = _array(H, "H")
    if H.ndim != 3 or H.shape[1] != H.shape[2] or not H.size:
        raise ConfigurationError(f"H must have shape (m, n, n), m, n >= 1, got {H.shape}")
    W = _state(output_directions, H.shape[0], "output_directions", rows="d")
    return float(_tensor_norms(H[None], W)[0])


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
                            states: Iterable[np.ndarray],
                            times: Sequence[float] | float,
                            radius: float,
                            *,
                            safety: float = 1.1,
                            direction_samples: int = 32,
                            output_direction_samples: int = 32,
                            max_centers: int = 25,
                            seed: int = 0) -> HessianBounds:
    """Sampled suprema of the second-derivative tensor norms over a tube.

    Evaluates the Hessians of f and h on a grid of points within ``radius``
    of the path ``states`` at ``times`` (each centre plus RADIAL_SAMPLES - 1
    evenly spaced shells of sampled directions), takes the largest sampled
    tensor norm and inflates it by ``safety``. The result is an empirical bound, not a
    certified supremum; callers with analytic bounds should construct
    :class:`HessianBounds` directly.

    Per centre and map, the signed output axes are solved at every point in one
    batched ``eigvalsh``; their norms give each point an upper value U over all
    its contractions (Cauchy-Schwarz), and a second batched call solves the other
    sampled directions only at the points whose U can exceed the running maximum
    (``_screened_max``). So a centre takes at most two calls per map, and the
    maximum, hence the result, is that of solving every direction.

    Parameters
    ----------
    states : iterable of (n,) states, such as an (m, n) array
        The path the balls are centred on; a long path is subsampled at the
        stride len(states) // max_centers, and only the kept states are read,
        as states[k]; any other iterable (a generator, dict values) is read
        into a list first. The Hessians of all sample points around one centre
        are evaluated as one stack per map.
    times : sequence of m times, or one time for every state
        The time of each state, finite; every entry is read before any is used.
    radius : float
        Ball radius alpha. Must be positive and finite.
    safety : float
        Multiplicative inflation applied to the sampled maxima, nonnegative and finite.

    Raises
    ------
    ModelEvaluationError
        "Hessian sample non-finite at t=..." when a sampled Hessian, or a norm
        taken from it (its contraction overflows), is not finite.
    """
    radius, safety, direction_samples, output_direction_samples, max_centers, seed = (
        _scalars(radius=radius, safety=safety, direction_samples=direction_samples,
                 output_direction_samples=output_direction_samples, max_centers=max_centers,
                 seed=seed).values())
    if np.iterable(states) and not isinstance(states, (Sequence, np.ndarray)):
        states = list(states)   # a generator or dict values; a sequence is read lazily
    if not (np.iterable(states) and len(states)):   # the rule of _states
        raise ConfigurationError(f"states must hold at least one state, got {states!r}")
    times = _times(times, "times")
    if np.ndim(times) and len(times) != len(states):
        raise ConfigurationError(
            f"times must hold one time per state, got {len(times)} for {len(states)} states")
    rng = np.random.default_rng(seed)

    n, p = model.state_dim, model.output_dim
    state_dirs = _unit_directions(n, direction_samples, rng)
    out_dirs_f = _unit_directions(n, output_direction_samples, rng)
    out_dirs_h = _unit_directions(p, output_direction_samples, rng)
    radii = np.linspace(0.0, radius, RADIAL_SAMPLES)

    kappa_a = 0.0
    kappa_c = 0.0
    for k in range(0, len(states), max(1, len(states) // max_centers)):
        xc, t = _state(states[k], n, f"states[{k}]"), times[k] if np.ndim(times) else times
        points = np.vstack([xc] + [xc + r * state_dirs for r in radii[1:]])
        # one stacked evaluation per centre and map, so memory stays flat in the path length
        Hf, Hh = (_stacked_hessians(model, points, t, which) for which in ("dynamics", "output"))
        kappa_a = _screened_max(Hf, out_dirs_f, kappa_a)
        kappa_c = _screened_max(Hh, out_dirs_h, kappa_c)
        if not (math.isfinite(kappa_a) and math.isfinite(kappa_c)):
            raise ModelEvaluationError(HESSIAN_NON_FINITE.format(t=t), time=float(t))
    return HessianBounds(alpha=radius, kappa_A=safety * kappa_a,
                         kappa_C=safety * kappa_c, sampled=True)
