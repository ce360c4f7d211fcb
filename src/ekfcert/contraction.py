"""Contraction certification for the filter: rates, radii, certificates.

Central object is the symmetric matrix

    M = P Atil^T + Atil P + P Ctil^T R^{-1} Ctil P - P C^T R^{-1} C P - Q

where Atil and Ctil are the Jacobian offsets between a probe state z and
the estimate, and C is the output Jacobian at z. Trajectories of the
virtual system contract toward each other at rate gamma wherever
M + 2 gamma P is negative semidefinite. This module evaluates that
condition, searches for the largest verified radius around the estimate,
computes the closed-form radius from second-derivative bounds and packages
the results into a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ekf import FilterTrajectory, _check_spd
from .errors import ConfigurationError, PreconditionError
from .model import (HessianBounds, SystemModel, _array, _scalar, _scalars, _stacked_jacobians,
                    _state, _states, _times, _unit_directions)

# slack allowed when deciding lambda_max(S) <= 0 in floating point
PSD_TOL_SCALE = 1e-9
RADIUS_MAX = 1e6          # empirical_radius bisects over [0, RADIUS_MAX] ...
RADIUS_REL_TOL = 1e-6     # ... down to a bracket width of RADIUS_REL_TOL * r ...
RADIUS_BLOCK_ROWS = 1024  # ... in lock step over nodes of at most this many probes together
OUTPUT_CHECK_TIMES = 50   # filter nodes linear_output_check visits at most


def _symmetric_spectra(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of the symmetric part of one (n, n) matrix or of each of a stack, from
    one ``eigvalsh``, and whether that part is finite; eigvalsh may read a NaN matrix as
    semidefinite ([[nan, 0], [0, -1]] as [0, -0]), so a part that is not is solved as zeros."""
    S = 0.5 * (S + S.swapaxes(-1, -2))
    finite = np.isfinite(S).all(axis=(-2, -1))
    return np.linalg.eigvalsh(np.where(finite[..., None, None], S, 0.0)), finite


def _contracting(M: np.ndarray, P: np.ndarray, gamma: float) -> np.ndarray:
    """Verdict lambda_max(S) <= PSD_TOL_SCALE * (1 + ||S||_2) for S = M + 2 gamma P (one
    (n, n) matrix or a stack; ||S||_2 of the symmetrized S is max |lambda|), False where S
    is not finite, as it is where a sum overflows, which warns nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        lam, finite = _symmetric_spectra(M + 2.0 * gamma * P)
    return (lam[..., -1] <= PSD_TOL_SCALE * (1.0 + np.abs(lam).max(axis=-1))) & finite


@dataclass
class ContractionCertificate:
    """Region and rate for which filter convergence is certified.

    ``basin_euclid`` is the Euclidean radius of certified initial errors,
    ``rho`` the radius in which the differential inequality was
    established, and ``envelope_factor`` the overshoot constant of the
    error envelope envelope_factor * ||e(0)|| * exp(-gamma t). The p
    bounds are observations at the grid nodes of the filter run, so the
    certificate is conditional on them holding between the nodes too, not a
    proof.
    """

    gamma: float
    zeta_plus: float
    rho: float
    p_lo: float
    p_hi: float
    q_lo: float
    r_lo: float
    alpha: float
    kappa_A: float
    kappa_C: float
    basin_euclid: float
    envelope_factor: float
    kappa_sampled: bool = False


def _contraction_matrices(Ah: np.ndarray, Ch: np.ndarray, Az: np.ndarray,
                          Cz: np.ndarray, P: np.ndarray, Q: np.ndarray,
                          R: np.ndarray) -> np.ndarray:
    """M for probe Jacobians (Az, Cz), single or stacked, against (Ah, Ch); overflow unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        Atil = Az - Ah
        Ctil = Cz - Ch
        CtP = Ctil @ P
        CzP = Cz @ P
        M = (P @ Atil.swapaxes(-1, -2) + Atil @ P
             + CtP.swapaxes(-1, -2) @ np.linalg.solve(R, CtP)
             - CzP.swapaxes(-1, -2) @ np.linalg.solve(R, CzP)
             - Q)
        return 0.5 * (M + M.swapaxes(-1, -2))


def contraction_matrix(model: SystemModel, z: np.ndarray, xhat: np.ndarray,
                       P: np.ndarray, Q: np.ndarray, R: np.ndarray,
                       t: float) -> np.ndarray:
    """The matrix M governing d/dt of the weighted squared distance.

    Along the linearized virtual flow of an uninflated filter, d/dt
    (dz^T P^{-1} dz) equals dz^T P^{-1} M P^{-1} dz with this M; inflation
    (beta, N) would subtract 2N + 2 beta P, which M leaves out. Negative
    semidefiniteness of M + 2 gamma P on a region therefore certifies
    contraction at rate gamma there. The result is exactly symmetrized. P, Q
    and R are read as FilterConfig reads its weights, and t as a finite time.
    """
    n, p = model.state_dim, model.output_dim
    z, xhat, t = _state(z, n, "z"), _state(xhat, n, "xhat"), _scalar(t, "t")
    P, Q, R = _check_spd(P, "P", n)[0], _check_spd(Q, "Q", n)[0], _check_spd(R, "R", p)[0]
    (Az, Ah), (Cz, Ch) = _stacked_jacobians(model, np.vstack([z, xhat]), t)
    return _contraction_matrices(Ah, Ch, Az, Cz, P, Q, R)


def check_contraction_inequality(model: SystemModel, z: np.ndarray, xhat: np.ndarray,
                                 P: np.ndarray, Q: np.ndarray, R: np.ndarray,
                                 gamma: float, t: float) -> bool:
    """True iff M + 2 gamma P is negative semidefinite at the probe point.

    This is the pointwise contraction inequality of the uninflated flow (see
    contraction_matrix); gamma is nonnegative and finite; a non-finite M + 2 gamma P fails.
    """
    gamma = _scalar(gamma, "gamma")
    P = _check_spd(P, "P", model.state_dim)[0]   # M + 2 gamma P takes the checked P
    return bool(_contracting(contraction_matrix(model, z, xhat, P, Q, R, t), P, gamma))


def empirical_radius(model: SystemModel, xhat: np.ndarray, P: np.ndarray,
                     Q: np.ndarray, R: np.ndarray, gamma: float, t,
                     direction_samples: int = 64, *, seed: int = 0):
    """Largest sampled radius around each estimate on which the inequality holds.

    ``xhat`` (k, n), ``P`` (k, n, n) and times ``t`` (k,) are k nodes, and the
    result is an array of their k radii; a state ``xhat`` with one time ``t``
    is one node, whose radius is returned as a float.

    For each node, bisects over the radius, testing the contraction
    inequality at xhat + r u for the signed coordinate axes plus
    ``direction_samples`` seeded random unit directions (the axes alone in
    one dimension, where they are the only unit vectors). The value is a
    sampled over-approximation of the true radius: the inequality is only
    verified on the probed directions, and the search assumes the pass set
    is an interval. Returns RADIUS_MAX when even that radius passes (linear
    systems) and 0.0 when the center itself fails.

    The nodes are searched in lock step, in blocks of at most
    RADIUS_BLOCK_ROWS probes per radius (one node at least). The Jacobians
    at the centres are evaluated once, in one stack; they also decide the
    centres. Each bisection step makes at most two stacked evaluations: one
    retest of each node's direction that failed at its previous failing
    step, then one evaluation of every direction, in order, for the nodes
    whose retest passed or that have none. Each decides its probes with one
    batched ``solve`` against R and one batched ``eigvalsh``. Every node
    tests the radii, and gets the verdicts, of a search of its own.

    A probe whose Jacobians or M + 2 gamma P are not finite fails, since the
    inequality cannot be verified there; non-finite Jacobians at a centre
    raise :class:`ModelEvaluationError`. P, Q and R are read as FilterConfig
    reads its weights, the k covariances P as one stack with one eigvalsh, and
    every time of ``t`` as finite before any is used.
    """
    gamma, direction_samples, seed = _scalars(gamma=gamma, direction_samples=direction_samples,
                                              seed=seed).values()
    n, t = model.state_dim, _times(t, "t")
    T = np.reshape(t, -1)
    rows = None if np.ndim(t) == 0 else len(T)
    X = _state(xhat, n, "xhat", rows).reshape(len(T), n)
    P = _check_spd(P, "P", n, rows=rows)[0].reshape(len(T), n, n)
    Q, R = _check_spd(Q, "Q", n)[0], _check_spd(R, "R", model.output_dim)[0]
    dirs = _unit_directions(n, direction_samples, np.random.default_rng(seed))
    block = max(1, RADIUS_BLOCK_ROWS // len(dirs))
    radii = np.empty(len(T))
    for i in range(0, len(T), block):
        radii[i:i + block] = _lock_step_radii(model, X[i:i + block], P[i:i + block], Q, R,
                                              gamma, T[i:i + block], dirs)
    return radii if np.ndim(t) else float(radii[0])


def _lock_step_radii(model: SystemModel, X: np.ndarray, P: np.ndarray, Q: np.ndarray,
                     R: np.ndarray, gamma: float, T: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """empirical_radius of the nodes (X, P, T), one bisection for all of them."""
    n, k = X.shape[1], len(X)
    Ah, Ch = _stacked_jacobians(model, X, T)

    def verdicts(nodes, Az, Cz):
        """Whether M + 2 gamma P is finite and negative semidefinite at each probe of the
        ``nodes`` (a mask), from its Jacobians (g, m, ., n); shape (g, m)."""
        Pk = P[nodes][:, None]
        return _contracting(_contraction_matrices(Ah[nodes][:, None], Ch[nodes][:, None],
                                                  Az, Cz, Pk, Q, R), Pk, gamma)

    def passes(nodes, Z):
        """verdicts at the probe points Z (g, m, n) of the ``nodes``."""
        g, m, _ = Z.shape
        times = np.broadcast_to(T[nodes][:, None], (g, m)).reshape(-1)
        Az, Cz = _stacked_jacobians(model, Z.reshape(-1, n), times, checked=False)
        return verdicts(nodes, Az.reshape(g, m, n, n), Cz.reshape(g, m, -1, n))

    lo, hi = np.zeros(k), np.full(k, RADIUS_MAX)
    hi[~verdicts(np.ones(k, dtype=bool), Ah[:, None], Ch[:, None])[:, 0]] = 0.0
    failed = np.full(k, -1)   # each node's last failed direction, -1 for none
    for step in range(201):   # RADIUS_MAX, then at most 200 midpoints
        live = hi - lo > RADIUS_REL_TOL * np.maximum(lo, 1e-12)
        if not live.any():
            break
        r = 0.5 * (lo + hi) if step else np.full(k, RADIUS_MAX)
        full = live.copy()
        again = live & (failed >= 0)
        if again.any():
            full[again] = passes(again, (X[again] + r[again][:, None]
                                         * dirs[failed[again]])[:, None])[:, 0]
        held = np.zeros(k, dtype=bool)
        if full.any():
            ok = passes(full, X[full][:, None] + r[full][:, None, None] * dirs)
            held[full] = ok.all(axis=1)
            failed[full & ~held] = ok.argmin(axis=1)[~held[full]]
        lo[held] = r[held]
        hi[live & ~held] = r[live & ~held]
    return lo


def zeta_plus(kappa_A: float, kappa_C: float, p_hi: float, q_lo: float,
              r_lo: float, gamma: float) -> float:
    """Positive root of (p_hi^2/r_lo) kC^2 z^2 + 2 p_hi kA z = q_lo - 2 gamma p_hi.

    The root is the analytic contraction-region radius. Degenerate cases:
    kappa_C = 0 reduces to the linear equation, kappa_A = 0 to a pure
    square root, and both zero means the inequality holds at every radius,
    returned as +inf; so is a root whose denominator underflows to 0. With
    both kappas positive, a zero right-hand side (gamma at its cap) has the
    root 0, an infinite kappa_C included. The bounds are read as
    make_certificate reads them, and gamma under its cap.
    """
    p_hi, q_lo, r_lo, kappa_A, kappa_C = _spectral_bounds(
        p_hi=p_hi, q_lo=q_lo, r_lo=r_lo, kappa_A=kappa_A, kappa_C=kappa_C).values()
    slack = max(q_lo - 2.0 * _rate(gamma, q_lo, p_hi) * p_hi, 0.0)
    if kappa_C == 0.0:
        return _over(slack, 2.0 * p_hi * kappa_A)
    if kappa_A == 0.0:
        return _over(math.sqrt(slack * r_lo), p_hi * kappa_C)
    if slack == 0.0:   # not _over(0, NaN): a = inf makes 4 a slack NaN
        return 0.0
    a = (p_hi ** 2 / r_lo) * kappa_C ** 2
    b = 2.0 * p_hi * kappa_A
    # the root (-b + sqrt(b^2 + 4 a slack)) / (2a) without its cancellation for small a
    return _over(2.0 * slack, b + math.sqrt(b * b + 4.0 * a * slack))


def _spectral_bounds(**bounds) -> dict:
    """The given bounds (p_lo, p_hi, q_lo, r_lo, kappa_A, kappa_C, each optional) read by
    _scalar, in order, with p_hi at least p_lo when both are given."""
    bounds = _scalars(**bounds)
    if "p_lo" in bounds and bounds["p_hi"] < bounds["p_lo"]:
        raise ConfigurationError(
            f"p_hi must be >= p_lo, got p_lo={bounds['p_lo']} and p_hi={bounds['p_hi']}")
    return bounds


def _rate(gamma: float | None, q_lo: float, p_hi: float, rule: str | None = None) -> float:
    """gamma read by _scalar (under ``rule`` if given), q_lo / (4 p_hi) if None; above
    the cap q_lo / (2 p_hi) a ConfigurationError. The one cap on every rate."""
    cap = q_lo / (2.0 * p_hi)
    gamma = q_lo / (4.0 * p_hi) if gamma is None else _scalar(gamma, "gamma", rule)
    if gamma > cap * (1.0 + 1e-12):
        raise ConfigurationError(f"gamma = {gamma!r} outside [0, q_lo/(2 p_hi)] = [0, {cap!r}]")
    return gamma


def make_certificate(run: FilterTrajectory, hess: HessianBounds,
                     gamma: float | None = None) -> ContractionCertificate:
    """Assemble a certificate from a filter run and curvature bounds.

    Parameters
    ----------
    run : FilterTrajectory
        The filter run, whose covariance bounds p_lo, p_hi over its nodes and
        whose config's q_lo, r_lo enter the certificate.
    hess : HessianBounds
        Curvature bounds kappa_A, kappa_C valid on the radius-alpha ball.
    gamma : float, optional
        Requested rate. Defaults to q_lo / (4 p_hi); values above the cap
        q_lo / (2 p_hi) are rejected.

    Raises
    ------
    ConfigurationError
        If a bound is not positive and finite (a run from integrate_ekf has
        p_lo > 0; a hand-built one may not), p_hi < p_lo or gamma out of range.
    """
    p_lo, p_hi, q_lo, r_lo = _spectral_bounds(p_lo=run.p_lo, p_hi=run.p_hi,
                                              q_lo=run.config.q_lo, r_lo=run.config.r_lo).values()
    gamma = _rate(gamma, q_lo, p_hi)
    zeta = zeta_plus(hess.kappa_A, hess.kappa_C, p_hi, q_lo, r_lo, gamma)
    rho = min(hess.alpha, zeta)
    return ContractionCertificate(
        gamma=gamma, zeta_plus=zeta, rho=rho, p_lo=p_lo, p_hi=p_hi, q_lo=q_lo, r_lo=r_lo,
        alpha=hess.alpha, kappa_A=hess.kappa_A, kappa_C=hess.kappa_C,
        basin_euclid=rho * math.sqrt(p_lo / p_hi), envelope_factor=math.sqrt(p_hi / p_lo),
        kappa_sampled=hess.sampled)


def linear_output_check(run: FilterTrajectory, sample_states, gamma: float) -> dict:
    """Linear-output contraction test over sampled states and times.

    For a linear output map the inequality reduces to
    lambda_max(Atil P + P Atil^T) <= q_lo - 2 gamma p_hi. The check
    runs the run's own model over every state in ``sample_states`` against
    up to OUTPUT_CHECK_TIMES nodes of the run and reports the worst margin
    (threshold minus left side; negative means failure) and its first node;
    a left side that is not finite fails with margin NaN.

    Raises
    ------
    ConfigurationError
        If ``sample_states`` holds no state or the run no node: nothing would be checked.
    PreconditionError
        If the output Jacobian varies across the sampled states, i.e. the
        output map is not linear.
    ModelEvaluationError
        If an estimate (checked first) or, at the first failing node, a Jacobian is not finite.
    """
    gamma = _scalar(gamma, "gamma")
    model = run.config.model
    threshold = run.config.q_lo - 2.0 * gamma * run.p_hi
    idx = np.unique(np.linspace(0, len(run.times) - 1,
                                min(OUTPUT_CHECK_TIMES, len(run.times))).astype(int))
    states = _states(sample_states, model.state_dim, "sample_states")
    if len(idx) == 0:
        raise ConfigurationError("run must hold at least one node: nothing would be checked")

    # the estimates, whose first non-finite one raises here, then the (node, state) pairs
    X, T, m = run.states[idx], run.times[idx], len(states)
    Ah, Ch = _stacked_jacobians(model, X, T, checked=False)
    Az, Cz = (J.reshape(len(X), m, *J.shape[1:]) for J in _stacked_jacobians(
        model, np.tile(states, (len(X), 1)), np.repeat(T, m), checked=False))
    bad = ~np.isfinite(np.hstack([J.reshape(len(X), -1) for J in (Ah, Ch, Az, Cz)])).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        varies = (np.linalg.norm(Cz - Ch[:, None], axis=(2, 3))
                  > PSD_TOL_SCALE * (1.0 + np.linalg.norm(Ch, axis=(1, 2)))[:, None]).any(axis=1)
        Atil, P = Az - Ah[:, None], run.covariances[idx][:, None]
        lam, finite = _symmetric_spectra(Atil @ P + P @ Atil.swapaxes(-1, -2))
    failed = np.flatnonzero(bad | varies)
    if len(failed):   # that node evaluated alone and checked raises as a node loop did
        k = failed[0]
        _stacked_jacobians(model, np.vstack([X[k], states]), T[k])
        raise PreconditionError("output map is not linear: output Jacobian varies across states")
    margins = np.where(finite, threshold - lam[..., -1], np.nan).min(axis=1)
    k = int(np.argmin(margins))   # the first NaN margin, if any
    worst, worst_time = float(margins[k]), float(T[k])
    tol = PSD_TOL_SCALE * (1.0 + abs(threshold))
    return {
        "passed": bool(worst >= -tol),
        "worst_margin": worst,
        "worst_time": worst_time,
        "threshold": threshold,
        "gamma": gamma,
        "states_sampled": len(states),
        "times_sampled": int(len(idx)),
    }


def compare_analyses(p_lo: float, p_hi: float, q_lo: float, r_lo: float,
                     kappa_A: float, kappa_C: float,
                     c_hi: float | None = None) -> dict:
    """Side-by-side rate and basin formulas of the two analysis routes.

    The Lyapunov row needs an output-Jacobian bound ``c_hi`` for its
    kappa_A = 0 basin; when c_hi is omitted that cell is None. The
    second row never uses c_hi. Zero kappa entries yield +inf basins. The
    Lyapunov rate q_lo p_lo / (4 p_hi^2) and the kappa_A = 0 basins are
    formed from the ratios q_lo/p_hi, p_lo/p_hi and r_lo/p_hi, so tiny or
    huge bounds of a similar scale neither underflow nor overflow them. A
    rate whose true value lies beyond the float range (it reads 0 or inf)
    is None, and so is its ratio. The bounds are read as make_certificate reads them,
    and c_hi when given as positive (+inf included). Ratio cells divide row
    two by row one.
    """
    p_lo, p_hi, q_lo, r_lo, kappa_A, kappa_C = _spectral_bounds(
        p_lo=p_lo, p_hi=p_hi, q_lo=q_lo, r_lo=r_lo, kappa_A=kappa_A, kappa_C=kappa_C).values()
    c_hi = c_hi if c_hi is None else _scalar(c_hi, "c_hi")

    rate = (q_lo / p_hi) * (p_lo / p_hi) / 4.0
    lyap = {
        "rate": rate if 0.0 < rate < math.inf else None,
        "basin_kappa_C0": _over((p_lo / p_hi) * q_lo, 4.0 * kappa_A * p_hi),
        "basin_kappa_A0": (_over((q_lo / p_hi) * (r_lo / p_hi), 4.0 * c_hi * kappa_C)
                           if c_hi is not None else None),
    }
    contr = {
        "rate": q_lo / (4.0 * p_hi),
        "basin_kappa_C0": _over(math.sqrt(p_lo / p_hi) * q_lo, 4.0 * kappa_A * p_hi),
        "basin_kappa_A0": _over(math.sqrt(q_lo / p_hi) * math.sqrt(p_lo / p_hi)
                                * math.sqrt(r_lo / p_hi), kappa_C * math.sqrt(2.0)),
    }
    ratios = {key: None if lyap[key] is None else _safe_ratio(contr[key], lyap[key])
              for key in lyap}
    return {"lyapunov": lyap, "contraction": contr, "ratio": ratios}


def _over(num: float, den: float) -> float:
    """num / den, or +inf when den is not positive (a zero or underflowed bound)."""
    return num / den if den > 0.0 else float("inf")


def _safe_ratio(a: float, b: float) -> float:
    if math.isinf(a) and math.isinf(b):
        return float("nan")
    return a / b if b != 0.0 else float("inf")


def inflation_rate_gain(M: np.ndarray, P: np.ndarray, N: np.ndarray,
                        gamma: float) -> bool:
    """Check that additive covariance inflation raises the rate by n_lo/p_hi.

    Given M + 2 gamma P <= 0 (enforced as a precondition, which a matrix
    that is not finite fails), verifies (M - 2N) + 2 (gamma + n_lo/p_hi) P
    <= 0 with n_lo = lambda_min(N) and p_hi = lambda_max(P). M is numeric of an
    (n, n) shape, n >= 1, and P and N are read as FilterConfig reads P0 and N, positive
    definite and semidefinite; else a ConfigurationError naming the argument.
    """
    M = _array(M, "M")
    n = len(M) if M.ndim else 1
    if M.shape != (n, n) or not n:
        raise ConfigurationError(f"M must have shape {(n, n) if n else '(n, n), n >= 1'}, "
                                 f"got {M.shape}")
    P, (N, n_lo) = _check_spd(P, "P", n)[0], _check_spd(N, "N", n, allow_zero=True)
    gamma = _scalar(gamma, "gamma")
    if not _contracting(M, P, gamma):
        raise PreconditionError("M + 2 gamma P is not negative semidefinite")
    p_hi = float(np.linalg.eigvalsh(P)[-1])
    return bool(_contracting(M - 2.0 * N, P, gamma + n_lo / p_hi))
