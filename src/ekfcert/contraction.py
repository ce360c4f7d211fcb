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

from .ekf import FilterTrajectory
from .errors import ConfigurationError, PreconditionError
from .model import (HessianBounds, SystemModel, _scalar, _scalars, _stacked_jacobians, _state,
                    _unit_directions, eval_jacobians)

# slack allowed when deciding lambda_max(S) <= 0 in floating point
PSD_TOL_SCALE = 1e-9
RADIUS_MAX = 1e6          # empirical_radius bisects over [0, RADIUS_MAX] ...
RADIUS_REL_TOL = 1e-6     # ... down to a bracket width of RADIUS_REL_TOL * r
OUTPUT_CHECK_TIMES = 50   # filter nodes linear_output_check visits at most


def _negative_semidefinite(S: np.ndarray) -> np.ndarray:
    """Verdict lambda_max(S) <= tol for one (n, n) matrix or a stack of them.

    The slack is PSD_TOL_SCALE * (1 + ||S||_2); for the symmetrized S the
    spectral norm is max |lambda|, read off the same ``eigvalsh`` call.
    """
    S = 0.5 * (S + S.swapaxes(-1, -2))
    lam = np.linalg.eigvalsh(S)
    return lam[..., -1] <= PSD_TOL_SCALE * (1.0 + np.abs(lam).max(axis=-1))


@dataclass
class ContractionCertificate:
    """Region and rate for which filter convergence is certified.

    ``basin_euclid`` is the Euclidean radius of certified initial errors,
    ``rho`` the radius in which the differential inequality was
    established, and ``envelope_factor`` the overshoot constant of the
    error envelope envelope_factor * ||e(0)|| * exp(-gamma t). The p
    bounds are observations at the grid nodes of the filter run, so the
    certificate is conditional on them holding between the nodes too, not a
    proof; ``grid_verified`` is always True.
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
    grid_verified: bool = True
    kappa_sampled: bool = False


def _contraction_matrices(Ah: np.ndarray, Ch: np.ndarray, Az: np.ndarray,
                          Cz: np.ndarray, P: np.ndarray, Q: np.ndarray,
                          R: np.ndarray) -> np.ndarray:
    """M for probe Jacobians (Az, Cz), single or stacked, against (Ah, Ch)."""
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

    Along the linearized virtual flow, d/dt (dz^T P^{-1} dz) equals
    dz^T P^{-1} M P^{-1} dz with this M. Negative semidefiniteness of
    M + 2 gamma P on a region therefore certifies contraction at rate
    gamma there. The result is exactly symmetrized.
    """
    Az, Cz = eval_jacobians(model, _state(z, model.state_dim, "z"), t)
    Ah, Ch = eval_jacobians(model, _state(xhat, model.state_dim, "xhat"), t)
    return _contraction_matrices(Ah, Ch, Az, Cz, P, Q, R)


def check_contraction_inequality(model: SystemModel, z: np.ndarray, xhat: np.ndarray,
                                 P: np.ndarray, Q: np.ndarray, R: np.ndarray,
                                 gamma: float, t: float) -> bool:
    """True iff M + 2 gamma P is negative semidefinite at the probe point.

    This is the pointwise contraction inequality; gamma must be
    nonnegative and finite.
    """
    gamma = _scalar(gamma, "gamma")
    M = contraction_matrix(model, z, xhat, P, Q, R, t)
    return bool(_negative_semidefinite(M + 2.0 * gamma * P))


def empirical_radius(model: SystemModel, xhat: np.ndarray, P: np.ndarray,
                     Q: np.ndarray, R: np.ndarray, gamma: float, t: float,
                     direction_samples: int = 64, *, seed: int = 0) -> float:
    """Largest sampled radius around xhat on which the inequality holds.

    Bisects over the radius, testing the contraction inequality at
    xhat + r u for the signed coordinate axes plus ``direction_samples``
    seeded random unit directions (the axes alone in one dimension, where
    they are the only unit vectors). The value is a sampled
    over-approximation of the true radius: the inequality is only verified
    on the probed directions, and the search assumes the pass set is an
    interval. Returns RADIUS_MAX when even that radius passes
    (linear systems) and 0.0 when the center itself fails.

    The Jacobians at xhat are evaluated once. Each bisection step first
    retests the direction that failed at the previous failing step and
    stops there if it fails again; otherwise it evaluates the probe
    Jacobians of every direction, in order, and decides all of them with
    one batched ``solve`` against R and one batched ``eigvalsh``. A probe
    whose Jacobian evaluation raises :class:`ModelEvaluationError` may
    therefore surface at a step where a per-probe loop would already have
    stopped at an earlier failing direction.
    """
    gamma, direction_samples, seed = _scalars(gamma=gamma, direction_samples=direction_samples,
                                              seed=seed).values()
    xhat = _state(xhat, model.state_dim, "xhat")
    rng = np.random.default_rng(seed)
    dirs = _unit_directions(len(xhat), direction_samples, rng)
    Ah, Ch = eval_jacobians(model, xhat, t)

    def passes(points: np.ndarray) -> np.ndarray:
        Az, Cz = _stacked_jacobians(model, points, t)
        M = _contraction_matrices(Ah, Ch, Az, Cz, P, Q, R)
        return _negative_semidefinite(M + 2.0 * gamma * P)

    last_failed = None

    def holds(r: float) -> bool:
        nonlocal last_failed
        if last_failed is not None and not passes(xhat + r * dirs[[last_failed]])[0]:
            return False
        ok = passes(xhat + r * dirs)
        if ok.all():
            return True
        last_failed = int(np.argmin(ok))
        return False

    if not passes(xhat[None])[0]:
        return 0.0
    if holds(RADIUS_MAX):
        return RADIUS_MAX
    lo, hi = 0.0, RADIUS_MAX
    for _ in range(200):
        if hi - lo <= RADIUS_REL_TOL * max(lo, 1e-12):
            break
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
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
        If a bound is not finite, if p_lo <= 0 (no certificate without a
        positive covariance floor), p_hi < p_lo or gamma out of range.
    """
    if run.p_lo <= 0.0:
        raise ConfigurationError(
            f"certification refused: covariance floor p_lo = {run.p_lo:.3e} is not positive")
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
    (threshold minus left side; negative means failure).

    Raises
    ------
    PreconditionError
        If the output Jacobian varies across the sampled states, i.e. the
        output map is not linear.
    """
    gamma = _scalar(gamma, "gamma")
    model = run.config.model
    threshold = run.config.q_lo - 2.0 * gamma * run.p_hi
    idx = np.unique(np.linspace(0, len(run.times) - 1,
                                min(OUTPUT_CHECK_TIMES, len(run.times))).astype(int))
    states = np.array([_state(x, model.state_dim, f"sample_states[{i}]")
                       for i, x in enumerate(sample_states)]).reshape(-1, model.state_dim)

    worst = float("inf")
    worst_time = None
    for k in idx:
        t = float(run.times[k])
        P = run.covariances[k]
        Ah, Ch = eval_jacobians(model, run.states[k], t)
        Az, Cz = _stacked_jacobians(model, states, t)
        Ctil_norms = np.linalg.norm(Cz - Ch, axis=(1, 2))
        if np.any(Ctil_norms > PSD_TOL_SCALE * (1.0 + np.linalg.norm(Ch))):
            raise PreconditionError(
                "output map is not linear: output Jacobian varies across states")
        Atil = Az - Ah
        S = Atil @ P + P @ Atil.swapaxes(-1, -2)
        lam_max = np.linalg.eigvalsh(0.5 * (S + S.swapaxes(-1, -2)))[:, -1]
        margin = float((threshold - lam_max).min(initial=np.inf))
        if margin < worst:
            worst, worst_time = margin, t
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
    ratios = {
        "rate": contr["rate"] / lyap["rate"] if lyap["rate"] is not None else None,
        "basin_kappa_C0": _safe_ratio(contr["basin_kappa_C0"], lyap["basin_kappa_C0"]),
        "basin_kappa_A0": (_safe_ratio(contr["basin_kappa_A0"], lyap["basin_kappa_A0"])
                           if lyap["basin_kappa_A0"] is not None else None),
    }
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

    Given M + 2 gamma P <= 0 (enforced as a precondition), verifies
    (M - 2N) + 2 (gamma + n_lo/p_hi) P <= 0 with n_lo = lambda_min(N) and
    p_hi = lambda_max(P).
    """
    M, P, N = (np.asarray(a, dtype=float) for a in (M, P, N))
    gamma = _scalar(gamma, "gamma")
    if not _negative_semidefinite(M + 2.0 * gamma * P):
        raise PreconditionError("M + 2 gamma P is not negative semidefinite")
    n_lo = float(np.linalg.eigvalsh(0.5 * (N + N.T))[0])
    p_hi = float(np.linalg.eigvalsh(0.5 * (P + P.T))[-1])
    S = (M - 2.0 * N) + 2.0 * (gamma + n_lo / p_hi) * P
    return bool(_negative_semidefinite(S))
