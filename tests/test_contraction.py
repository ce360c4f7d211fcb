import copy
import dataclasses
import decimal
import math
import re

import numpy as np
import pytest
from conftest import random_spd
from hypothesis import given, settings
from hypothesis import strategies as st

import ekfcert as ek
from ekfcert import contraction


def _cubic_model(eps=0.1):
    return ek.make("cubic-scalar", eps=eps).model


def _flow_only_model():
    # linear drift, identically zero output map: the gain never acts
    return ek.SystemModel(
        state_dim=1, output_dim=1,
        dynamics=lambda x, t: -x,
        output=lambda x, t: np.zeros(1),
        jacobian_A=lambda x, t: -np.eye(1),
        jacobian_C=lambda x, t: np.zeros((1, 1)))


def test_contraction_matrix_at_center():
    model = ek.make("scalar-riccati").model
    M = ek.contraction_matrix(model, np.zeros(1), np.zeros(1),
                              np.eye(1), np.eye(1), np.eye(1), 0.0)
    assert M[0, 0] == pytest.approx(-2.0, abs=1e-14)


def test_contraction_matrix_has_no_offset_terms_at_the_estimate():
    """z = xhat: Atil = Ctil = 0 bit for bit, so M = -P C^T R^-1 C P - Q, for
    exactly symmetric P and Q (the entry point reads each as its symmetric part)."""
    model = ek.make("vanderpol-pos").model
    rng = np.random.default_rng(7)
    P, Q = (0.5 * (M + M.T) for M in (random_spd(rng, 2), random_spd(rng, 2)))
    R = np.array([[0.7]])
    x = np.array([0.7, -0.2])
    _, C = ek.eval_jacobians(model, x, 0.0)
    CP = C @ P
    expected = -(CP.T @ np.linalg.solve(R, CP)) - Q
    assert np.array_equal(ek.contraction_matrix(model, x, x, P, Q, R, 0.0),
                          0.5 * (expected + expected.T))


VDP_XHAT = np.array([0.3, 0.2])
# entry point -> its call on vanderpol-pos at VDP_XHAT with the weights P, Q, R
WEIGHT_READERS = {
    "empirical_radius": lambda m, P, Q, R: ek.empirical_radius(
        m, VDP_XHAT, P, Q, R, 0.1, 0.0, direction_samples=2),
    "empirical_radius-nodes": lambda m, P, Q, R: ek.empirical_radius(
        m, np.tile(VDP_XHAT, (3, 1)), P, Q, R, 0.1, [0.0, 0.5, 1.0], direction_samples=2),
    "contraction_matrix": lambda m, P, Q, R: ek.contraction_matrix(
        m, VDP_XHAT + 0.1, VDP_XHAT, P, Q, R, 0.0),
    "check_contraction_inequality": lambda m, P, Q, R: ek.check_contraction_inequality(
        m, VDP_XHAT + 0.1, VDP_XHAT, P, Q, R, 0.1, 0.0),
}
ONE_LOST = np.stack([np.eye(2), np.diag([1.0, -1e-3]), np.eye(2)])   # node 1 indefinite
# (entry point, argument, value, message); every other weight is an identity
BAD_WEIGHTS = [
    ("empirical_radius", "P", np.eye(3), "P must have shape (2, 2), got (3, 3)"),
    ("empirical_radius", "P", np.full((2, 2), np.nan), "P must be finite"),
    ("empirical_radius", "P", np.array([[1.0, 2.0], [0.0, 1.0]]), "P must be symmetric"),
    ("empirical_radius", "Q", -np.eye(2), "Q must be positive definite"),
    ("empirical_radius", "R", np.eye(2), "R must have shape (1, 1), got (2, 2)"),
    ("empirical_radius-nodes", "P", np.eye(2), "P must have shape (3, 2, 2), got (2, 2)"),
    ("empirical_radius-nodes", "P", np.stack([np.eye(2), np.eye(2), np.full((2, 2), np.inf)]),
     "P[2] must be finite, got [[inf, inf], [inf, inf]]"),
    ("empirical_radius-nodes", "P", ONE_LOST,
     "P must be positive definite, min eigenvalue -1.000e-03"),
    ("empirical_radius-nodes", "P", np.stack([np.eye(2), np.eye(2), [[1.0, 2.0], [0.0, 1.0]]]),
     "P must be symmetric"),
    ("contraction_matrix", "Q", np.eye(3), "Q must have shape (2, 2), got (3, 3)"),
    ("contraction_matrix", "Q", np.array([[1.0, np.nan], [np.nan, 1.0]]), "Q must be finite"),
    ("contraction_matrix", "P", np.array([[1.0, 0.5], [0.4, 1.0]]), "P must be symmetric"),
    ("check_contraction_inequality", "R", np.zeros((1, 1)),
     "R must be positive definite, min eigenvalue 0.000e+00"),
    ("check_contraction_inequality", "P", np.diag([1.0, 0.0]), "P must be positive definite"),
]


@pytest.mark.parametrize("entry, name, value, message", BAD_WEIGHTS,
                         ids=[f"{e}-{n}-{i}" for i, (e, n, _, _) in enumerate(BAD_WEIGHTS)])
def test_a_bad_weight_is_a_configuration_error_naming_it(entry, name, value, message,
                                                         linalg_calls):
    """The certifier reads P, Q and R as FilterConfig reads its weights, before any
    model call; empirical_radius reads the covariances of its nodes as one stack,
    with one eigen-solve at most, not one per node."""
    weights = {"P": np.eye(2), "Q": np.eye(2), "R": np.eye(1), name: value}
    linalg_calls.clear()
    with pytest.raises(ek.ConfigurationError, match=re.escape(message)):
        WEIGHT_READERS[entry](ek.make("vanderpol-pos").model, **weights)
    if entry.endswith("-nodes"):   # P, the first weight read, is refused
        assert linalg_calls["eigvalsh"] <= 1


def test_contraction_matrix_linear_system_any_probe():
    model = ek.make("ltv-linear").model
    rng = np.random.default_rng(5)
    P = random_spd(rng, 2)
    Q = random_spd(rng, 2)
    R = np.array([[0.7]])
    z = rng.uniform(-3, 3, size=2)
    xh = rng.uniform(-3, 3, size=2)
    M = ek.contraction_matrix(model, z, xh, P, Q, R, 0.9)
    _, C = ek.eval_jacobians(model, z, 0.9)
    CP = C @ P
    expected = -CP.T @ np.linalg.solve(R, CP) - Q
    assert np.allclose(M, 0.5 * (expected + expected.T), atol=1e-12)


def test_contraction_matrix_cubic_hand_value():
    model = ek.SystemModel(
        state_dim=1, output_dim=1,
        dynamics=lambda x, t: x ** 3,
        output=lambda x, t: x.copy(),
        jacobian_A=lambda x, t: np.array([[3.0 * x[0] ** 2]]),
        jacobian_C=lambda x, t: np.ones((1, 1)))
    # Atil = 3 z^2 = 0.03, Ctil = 0: M = 2 P Atil - P^2/r - q = 0.06 - 2
    M = ek.contraction_matrix(model, np.array([0.1]), np.zeros(1),
                              np.eye(1), np.eye(1), np.eye(1), 0.0)
    assert abs(M[0, 0] - (-1.94)) < 1e-12


def test_contraction_matrix_matches_jacobian_assembly():
    rng = np.random.default_rng(11)
    model = ek.make("vanderpol-pos").model
    for _ in range(25):
        z = rng.uniform(-2, 2, size=2)
        xh = rng.uniform(-2, 2, size=2)
        P = random_spd(rng, 2)
        Q = random_spd(rng, 2)
        R = np.array([[rng.uniform(0.5, 2.0)]])
        t = float(rng.uniform(0, 3))
        M = ek.contraction_matrix(model, z, xh, P, Q, R, t)
        Az, Cz = ek.eval_jacobians(model, z, t)
        Ah, Ch = ek.eval_jacobians(model, xh, t)
        Atil, Ctil = Az - Ah, Cz - Ch
        raw = (P @ Atil.T + Atil @ P
               + P @ Ctil.T @ np.linalg.solve(R, Ctil @ P)
               - P @ Cz.T @ np.linalg.solve(R, Cz @ P) - Q)
        assert np.allclose(M, 0.5 * (raw + raw.T), atol=1e-11)


def test_inequality_scalar_example():
    model = ek.make("scalar-riccati").model
    args = (np.zeros(1), np.zeros(1), np.eye(1), np.eye(1), np.eye(1))
    assert ek.check_contraction_inequality(model, *args, 0.25, 0.0)
    with pytest.raises(ek.ConfigurationError):
        ek.check_contraction_inequality(model, *args, -0.1, 0.0)


def test_inequality_boundary_rate():
    # with zero output M = -Q, so the cap rate q/(2 p) sits exactly on the edge
    model = _flow_only_model()
    P = np.array([[2.0]])
    Q = np.eye(1)
    R = np.eye(1)
    z = np.array([0.7])
    xh = np.array([-0.4])
    assert ek.check_contraction_inequality(model, z, xh, P, Q, R, 0.25, 0.0)
    assert not ek.check_contraction_inequality(model, z, xh, P, Q, R, 0.3, 0.0)


def test_inequality_equivalent_to_congruence_form():
    # M + 2 gamma P <= 0 iff the P-congruence has top eigenvalue <= -2 gamma
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        P = random_spd(rng, n)
        W = rng.standard_normal((n, n))
        M = 0.5 * (W + W.T)
        gamma = float(rng.uniform(0.0, 1.0))
        S = M + 2.0 * gamma * P
        top = float(np.linalg.eigvalsh(S)[-1])
        if abs(top) < 1e-6:
            continue
        lam, V = np.linalg.eigh(P)
        P_inv_sqrt = V @ np.diag(lam ** -0.5) @ V.T
        G = P_inv_sqrt @ M @ P_inv_sqrt
        top_g = float(np.linalg.eigvalsh(0.5 * (G + G.T))[-1])
        assert (top <= 0.0) == (top_g <= -2.0 * gamma + 1e-12 * max(1.0, abs(top_g)))


def test_empirical_radius_linear_hits_cap():
    model = ek.make("ltv-linear").model
    r = ek.empirical_radius(model, np.zeros(2), np.eye(2), np.eye(2),
                            np.eye(1), 0.25, 0.0)
    assert r == 1e6


def test_empirical_radius_cubic_closed_form():
    model = ek.SystemModel(
        state_dim=1, output_dim=1,
        dynamics=lambda x, t: x ** 3,
        output=lambda x, t: x.copy(),
        jacobian_A=lambda x, t: np.array([[3.0 * x[0] ** 2]]),
        jacobian_C=lambda x, t: np.ones((1, 1)))
    # M = 6 z^2 - 2 at gamma = 0, so the inequality fails beyond 1/sqrt(3)
    r = ek.empirical_radius(model, np.zeros(1), np.eye(1), np.eye(1),
                            np.eye(1), 0.0, 0.0)
    assert r == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-3)


def test_empirical_radius_zero_when_center_fails():
    model = ek.make("scalar-riccati").model
    r = ek.empirical_radius(model, np.zeros(1), np.eye(1), np.eye(1),
                            np.eye(1), 5.0, 0.0)
    assert r == 0.0


def test_empirical_radius_deterministic():
    model = _cubic_model()
    args = (np.zeros(1), np.eye(1), np.eye(1), np.eye(1), 0.1, 0.0)
    assert ek.empirical_radius(model, *args) == ek.empirical_radius(model, *args)


def test_zeta_plus_closed_forms():
    assert ek.zeta_plus(1.0, 0.0, 1.0, 1.0, 1.0, 0.25) == pytest.approx(0.25)
    assert ek.zeta_plus(0.0, 1.0, 1.0, 1.0, 1.0, 0.25) == pytest.approx(math.sqrt(0.5))
    assert ek.zeta_plus(1.0, 1.0, 1.0, 2.0, 1.0, 0.0) == pytest.approx(math.sqrt(3.0) - 1.0)
    assert ek.zeta_plus(0.0, 0.0, 1.0, 1.0, 1.0, 0.1) == float("inf")


def test_zeta_plus_root_residual_and_monotonicity():
    rng = np.random.default_rng(23)
    for _ in range(100):
        ka = float(rng.uniform(0.05, 2.0))
        kc = float(rng.uniform(0.05, 2.0))
        p_hi = float(rng.uniform(0.5, 3.0))
        q_lo = float(rng.uniform(0.2, 2.0))
        r_lo = float(rng.uniform(0.2, 2.0))
        cap = q_lo / (2.0 * p_hi)
        g1 = float(rng.uniform(0.0, 0.5 * cap))
        g2 = float(rng.uniform(0.5 * cap, 0.99 * cap))
        z1 = ek.zeta_plus(ka, kc, p_hi, q_lo, r_lo, g1)
        z2 = ek.zeta_plus(ka, kc, p_hi, q_lo, r_lo, g2)
        slack = q_lo - 2.0 * g1 * p_hi
        residual = (p_hi ** 2 / r_lo) * kc ** 2 * z1 ** 2 + 2.0 * p_hi * ka * z1 - slack
        assert abs(residual) <= 1e-10 * (1.0 + slack)
        assert z2 <= z1 + 1e-14


def test_zeta_plus_rejects_out_of_range_gamma():
    with pytest.raises(ek.ConfigurationError):
        ek.zeta_plus(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ek.ConfigurationError):
        ek.zeta_plus(1.0, 1.0, -1.0, 1.0, 1.0, 0.1)


@pytest.fixture(scope="module")
def small_run():
    """A short run on the scalar plant, whose bounds the certificate tests set."""
    fc = ek.FilterConfig(model=ek.make("scalar-riccati").model, Q=np.eye(1), R=np.eye(1),
                         P0=np.eye(1), x0=np.zeros(1), horizon=0.1, step=0.05)
    return ek.integrate_ekf(fc, lambda t: np.zeros(1))


def _bounds(run, p_lo, p_hi, q_lo=1.0, r_lo=1.0):
    """``run`` with covariance bounds p_lo, p_hi and a config with Q = q_lo I, R = r_lo I."""
    config = dataclasses.replace(run.config, Q=q_lo * np.eye(1), R=r_lo * np.eye(1))
    return dataclasses.replace(run, p_lo=p_lo, p_hi=p_hi, config=config)


_KAPPA = st.one_of(st.just(0.0), st.floats(1e-12, 1e3))
_WEIGHT = st.floats(1e-3, 1e3)


@settings(max_examples=300, deadline=None)
@given(ka=_KAPPA, kc=_KAPPA, p_hi=_WEIGHT, q_lo=_WEIGHT, r_lo=_WEIGHT,
       g1=st.floats(0.0, 1.0), g2=st.floats(0.0, 1.0), grow=st.floats(1.0, 100.0))
def test_zeta_plus_solves_its_quadratic_and_is_monotone(ka, kc, p_hi, q_lo, r_lo,
                                                        g1, g2, grow):
    """The root of (p_hi^2/r_lo) kC^2 z^2 + 2 p_hi kA z = q_lo - 2 gamma p_hi,
    non-increasing in gamma and in each kappa."""
    cap = q_lo / (2.0 * p_hi)
    g1, g2 = sorted((g1 * cap, g2 * cap))
    z = ek.zeta_plus(ka, kc, p_hi, q_lo, r_lo, g1)
    if ka == 0.0 and kc == 0.0:
        assert z == math.inf
        return
    slack = max(q_lo - 2.0 * g1 * p_hi, 0.0)
    quad, lin = (p_hi ** 2 / r_lo) * kc ** 2 * z ** 2, 2.0 * p_hi * ka * z
    assert z >= 0.0
    assert abs(quad + lin - slack) <= 1e-12 * slack
    tol = 1.0 + 1e-12
    assert ek.zeta_plus(ka, kc, p_hi, q_lo, r_lo, g2) <= z * tol
    assert ek.zeta_plus(ka * grow, kc, p_hi, q_lo, r_lo, g1) <= z * tol
    assert ek.zeta_plus(ka, kc * grow, p_hi, q_lo, r_lo, g1) <= z * tol


def test_zeta_plus_keeps_its_precision_for_a_small_output_curvature():
    """kappa_C = 1e-6 barely bends the linear root slack / (2 p_hi kappa_A) =
    0.4; the textbook quadratic formula lost four digits to cancellation here."""
    z = ek.zeta_plus(1.0, 1e-6, 1.0, 1.0, 1.0, 0.1)
    assert z == pytest.approx(0.4 - 8e-14, rel=1e-14)
    assert ek.zeta_plus(1.0, 1e-170, 1.0, 1.0, 1.0, 0.1) == 0.4


@pytest.mark.parametrize("kappa_A, kappa_C", [(0.0, 0.0), (0.0, 1e-320), (1e-320, 0.0),
                                              (1e-320, 1e-320)])
def test_zeta_plus_is_infinite_when_its_denominator_underflows(kappa_A, kappa_C):
    """p_hi * kappa underflows to 0: the root is +inf, as for kappas exactly 0."""
    assert ek.zeta_plus(kappa_A, kappa_C, 1e-5, 1.0, 1.0, 0.0) == math.inf


def test_zeta_plus_is_zero_at_the_rate_cap_for_an_infinite_output_curvature(small_run):
    """At gamma = q_lo / (2 p_hi) the equation's right-hand side is 0, so is its root,
    whatever the kappas: inf * 0 in the discriminant must not read as +inf."""
    assert ek.zeta_plus(1.0, math.inf, 1.0, 1.0, 1.0, 0.5) == 0.0
    assert ek.zeta_plus(math.inf, math.inf, 1.0, 1.0, 1.0, 0.5) == 0.0
    assert ek.zeta_plus(1.0, math.inf, 1.0, 1.0, 1.0, 0.25) == 0.0   # an infinite a
    cert = ek.make_certificate(_bounds(small_run, 1.0, 1.0),
                               ek.HessianBounds(alpha=1.0, kappa_A=1.0, kappa_C=math.inf),
                               gamma=0.5)
    assert cert.zeta_plus == cert.rho == cert.basin_euclid == 0.0


def _spd(seed: int, n: int) -> np.ndarray:
    return random_spd(np.random.default_rng(seed), n, lo=0.1, hi=5.0)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["vanderpol-pos", "cubic-scalar", "ltv-linear",
                             "scalar-riccati"]),
       seed=st.integers(0, 2 ** 32 - 1), t=st.floats(0.0, 10.0))
def test_contraction_matrix_is_symmetric(name, seed, t):
    model = ek.make(name).model
    n, p = model.state_dim, model.output_dim
    rng = np.random.default_rng(seed)
    z, xhat = rng.uniform(-3.0, 3.0, size=(2, n))
    M = ek.contraction_matrix(model, z, xhat, _spd(seed, n), _spd(seed + 1, n),
                              _spd(seed + 2, p), t)
    assert np.array_equal(M, M.T)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["ltv-linear", "scalar-riccati"]),
       seed=st.integers(0, 2 ** 32 - 1), t=st.floats(0.0, 10.0))
def test_contraction_matrix_offsets_vanish_on_linear_plants(name, seed, t):
    """Linear dynamics and output: Atil = Ctil = 0, so M is the same at every
    probe state, bit for bit."""
    model = ek.make(name).model
    n, p = model.state_dim, model.output_dim
    rng = np.random.default_rng(seed)
    z, xhat = rng.uniform(-1e3, 1e3, size=(2, n))
    P, Q, R = _spd(seed, n), _spd(seed + 1, n), _spd(seed + 2, p)
    assert np.array_equal(ek.contraction_matrix(model, z, xhat, P, Q, R, t),
                          ek.contraction_matrix(model, xhat, xhat, P, Q, R, t))


@settings(max_examples=300, deadline=None)
@given(p_lo=_WEIGHT, spread=st.floats(1.0, 1e3), q_lo=_WEIGHT, r_lo=_WEIGHT,
       over=st.floats(1.0 + 1e-9, 1e3), under=st.floats(0.0, 1.0))
def test_make_certificate_rejects_gamma_above_its_cap(small_run, p_lo, spread, q_lo, r_lo,
                                                       over, under):
    run = _bounds(small_run, p_lo, p_lo * spread, q_lo, r_lo)
    hess = ek.HessianBounds(alpha=1.0, kappa_A=1.0, kappa_C=1.0)
    cap = q_lo / (2.0 * run.p_hi)
    with pytest.raises(ek.ConfigurationError, match="outside"):
        ek.make_certificate(run, hess, gamma=over * cap)
    assert ek.make_certificate(run, hess, gamma=under * cap).gamma == under * cap


def test_the_gamma_cap_message_tells_a_refused_gamma_from_its_cap(small_run):
    run, cap = _bounds(small_run, 1.0, 1.0), 0.5
    hess = ek.HessianBounds(alpha=1.0, kappa_A=1.0, kappa_C=1.0)
    for refuse in (lambda g: ek.make_certificate(run, hess, g),
                   lambda g: ek.zeta_plus(1.0, 1.0, 1.0, 1.0, 1.0, g)):
        with pytest.raises(ek.ConfigurationError) as refused:
            refuse(cap * (1.0 + 1e-11))
        shown = re.fullmatch(r"gamma = (\S+) outside \[0, q_lo/\(2 p_hi\)\] = \[0, (\S+)\]",
                             str(refused.value))
        assert shown and float(shown[1]) == cap * (1.0 + 1e-11) and float(shown[2]) == cap
    # zeta_plus applies make_certificate's cap, not a wider slack of its own
    assert ek.zeta_plus(1.0, 1.0, 1.0, 1.0, 1.0, cap * (1.0 + 1e-13)) == 0.0


def test_make_certificate_unit_example(small_run):
    cert = ek.make_certificate(_bounds(small_run, 1.0, 1.0),
                               ek.HessianBounds(alpha=10.0, kappa_A=1.0, kappa_C=0.0))
    assert cert.gamma == pytest.approx(0.25)
    assert cert.zeta_plus == pytest.approx(0.25)
    assert cert.rho == pytest.approx(0.25)
    assert cert.basin_euclid == pytest.approx(0.25)
    assert cert.envelope_factor == pytest.approx(1.0)
    assert not cert.kappa_sampled
    d = dataclasses.asdict(cert)
    assert d["rho"] == cert.rho and d["gamma"] == cert.gamma


def test_make_certificate_conditioning_factor(small_run):
    cert = ek.make_certificate(_bounds(small_run, 1.0, 4.0),
                               ek.HessianBounds(alpha=10.0, kappa_A=1.0, kappa_C=0.0))
    assert cert.gamma == pytest.approx(1.0 / 16.0)
    assert cert.envelope_factor == pytest.approx(2.0)
    assert cert.basin_euclid == pytest.approx(cert.rho * 0.5)


def test_make_certificate_alpha_clamps_rho(small_run):
    cert = ek.make_certificate(_bounds(small_run, 1.0, 1.0),
                               ek.HessianBounds(alpha=0.1, kappa_A=1.0, kappa_C=0.0))
    assert cert.zeta_plus == pytest.approx(0.25)
    assert cert.rho == pytest.approx(0.1)


def test_make_certificate_rejects_bad_inputs(small_run):
    hess = ek.HessianBounds(alpha=1.0, kappa_A=1.0, kappa_C=0.0)
    with pytest.raises(ek.ConfigurationError, match="p_lo must be positive and finite, got 0.0"):
        ek.make_certificate(_bounds(small_run, 0.0, 1.0), hess)
    with pytest.raises(ek.ConfigurationError):
        ek.make_certificate(_bounds(small_run, 1.0, 1.0), hess, gamma=0.6)
    assert ek.make_certificate(_bounds(small_run, 1.0, 1.0, r_lo=2.0), hess).r_lo == 2.0


@pytest.fixture(scope="module")
def ltv_traj():
    entry = ek.make("ltv-linear")
    fc = ek.FilterConfig(model=entry.model, Q=np.eye(2), R=np.eye(1),
                         P0=np.eye(2), x0=np.array([1.0, 0.0]), horizon=4.0)
    return ek.integrate_ekf(fc, x0=np.array([0.8, -0.2]))


def test_linear_output_check_passes_for_linear_dynamics(ltv_traj):
    gamma = ltv_traj.config.q_lo / (4.0 * ltv_traj.p_hi)
    states = [np.array([3.0, -1.0]), np.array([-2.0, 5.0])]
    rep = ek.linear_output_check(ltv_traj, states, gamma)
    assert rep["passed"]
    # Atil vanishes identically, so the worst margin is the threshold itself
    assert rep["worst_margin"] == rep["threshold"]
    assert rep["states_sampled"] == 2
    assert rep["times_sampled"] == 50


def test_linear_output_check_fails_above_cap(ltv_traj):
    gamma = 1.05 * ltv_traj.config.q_lo / (2.0 * ltv_traj.p_hi)
    rep = ek.linear_output_check(ltv_traj, [np.array([1.0, 1.0])], gamma)
    assert not rep["passed"]
    assert rep["worst_margin"] < 0.0


def test_linear_output_check_rejects_nonlinear_output():
    model = ek.SystemModel(
        state_dim=1, output_dim=1,
        dynamics=lambda x, t: -x,
        output=lambda x, t: x ** 2,
        jacobian_A=lambda x, t: -np.eye(1),
        jacobian_C=lambda x, t: np.array([[2.0 * x[0]]]))
    fc = ek.FilterConfig(model=model, Q=np.eye(1), R=np.eye(1), P0=np.eye(1),
                         x0=np.array([0.5]), horizon=1.0, step=0.01)
    traj = ek.integrate_ekf(fc, lambda t: np.zeros(1))
    with pytest.raises(ek.PreconditionError):
        ek.linear_output_check(traj, [np.array([1.5])], 0.1)


@pytest.mark.parametrize("nodes", [[7], [3, 7], list(range(41))])
def test_linear_output_check_fails_a_node_whose_product_is_not_finite(ltv_traj, nodes):
    """A hand-built run with non-finite covariances: A is linear, so Atil = 0 and
    S = 0 P + P 0 is NaN there. The first such node is the worst, with margin NaN."""
    covariances = ltv_traj.covariances.copy()
    covariances[nodes, 0, 0] = math.inf
    run = dataclasses.replace(ltv_traj, times=ltv_traj.times[:41], states=ltv_traj.states[:41],
                              covariances=covariances[:41])
    rep = ek.linear_output_check(run, [np.array([3.0, -1.0])], 0.01)
    assert rep["passed"] is False
    assert math.isnan(rep["worst_margin"])
    assert rep["worst_time"] == run.times[nodes[0]]
    assert rep["times_sampled"] == 41


def test_linear_output_check_refuses_a_run_without_nodes(ltv_traj):
    empty = dataclasses.replace(ltv_traj, times=ltv_traj.times[:0], states=ltv_traj.states[:0],
                                covariances=ltv_traj.covariances[:0])
    with pytest.raises(ek.ConfigurationError, match="^run must hold at least one node"):
        ek.linear_output_check(empty, [np.array([3.0, -1.0])], 0.01)


def _failing_output_model(nonlinear_at, non_finite_at):
    """h = x on a one-state plant, but its Jacobian callback varies with the state at the
    node index ``nonlinear_at`` (t = 0.1 k) and is NaN at ``non_finite_at``."""
    def jacobian_C(x, t):
        k = round(10 * t)
        return np.array([[x[0] if k == nonlinear_at else math.nan if k == non_finite_at
                          else 1.0]])
    return ek.SystemModel(state_dim=1, output_dim=1, dynamics=lambda x, t: -x,
                          output=lambda x, t: x, jacobian_A=lambda x, t: -np.eye(1),
                          jacobian_C=jacobian_C)


@pytest.mark.parametrize("nonlinear_at, non_finite_at, estimate_at, error, message", [
    (3, 6, None, ek.PreconditionError, "output map is not linear"),
    (6, 3, None, ek.ModelEvaluationError,
     "Jacobian evaluation produced non-finite entries at t=0.3"),
    # a non-finite estimate is found before any node is checked
    (3, None, 6, ek.ModelEvaluationError, "state contains non-finite entries"),
    (6, None, 3, ek.ModelEvaluationError, "state contains non-finite entries"),
    (None, 6, 3, ek.ModelEvaluationError, "state contains non-finite entries"),
    (None, None, 0, ek.ModelEvaluationError, "state contains non-finite entries"),
])
def test_linear_output_check_raises_the_failure_of_its_first_failing_node(
        nonlinear_at, non_finite_at, estimate_at, error, message):
    """The first non-finite estimate raises first; else the nodes are checked node by
    node, and the first with a non-finite Jacobian or a varying output Jacobian raises."""
    model = _failing_output_model(-1, -1)
    fc = ek.FilterConfig(model=model, Q=np.eye(1), R=np.eye(1), P0=np.eye(1),
                         x0=np.array([0.5]), horizon=1.0, step=0.1)
    run = ek.integrate_ekf(fc, lambda t: np.zeros(1))
    config = copy.copy(run.config)
    config.model = _failing_output_model(nonlinear_at, non_finite_at)
    states = run.states.copy()
    if estimate_at is not None:
        states[estimate_at] = math.nan
    run = dataclasses.replace(run, config=config, states=states)
    with pytest.raises(error, match=message) as raised:
        ek.linear_output_check(run, [np.array([1.5]), np.array([-0.5])], 0.1)
    if error is ek.ModelEvaluationError:
        assert raised.value.time == run.times[min(k for k in (non_finite_at, estimate_at)
                                                  if k is not None)]


def _ref_linear_output_check(model, traj, sample_states, gamma):
    """The per-node, per-state loop linear_output_check ran before it stacked
    the sample states: (worst margin, its time)."""
    threshold = traj.config.q_lo - 2.0 * gamma * traj.p_hi
    idx = np.unique(np.linspace(0, len(traj.times) - 1,
                                min(50, len(traj.times))).astype(int))
    worst, worst_time = float("inf"), None
    for k in idx:
        t = float(traj.times[k])
        P = traj.covariances[k]
        for z in sample_states:
            Atil = (ek.eval_jacobians(model, z, t)[0]
                    - ek.eval_jacobians(model, traj.states[k], t)[0])
            S = Atil @ P + P @ Atil.T
            margin = threshold - float(np.linalg.eigvalsh(0.5 * (S + S.T))[-1])
            if margin < worst:
                worst, worst_time = margin, t
    return worst, worst_time


LINEAR_OUTPUT_RIGS = {
    "vanderpol-pos": dict(Q=np.eye(2), P0=np.eye(2), x0=[0.34, 0.2], xhat0=[0.3, 0.2]),
    "ltv-linear": dict(Q=np.array([[1.0, 0.2], [0.2, 0.5]]),
                       P0=np.array([[1.0, 0.3], [0.3, 0.8]]),
                       x0=[0.3, 0.1], xhat0=[0.5, -0.2]),
    "cubic-scalar": dict(Q=np.eye(1), P0=np.array([[0.5]]), x0=[0.3], xhat0=[0.0]),
}


@pytest.mark.parametrize("name", sorted(LINEAR_OUTPUT_RIGS))
def test_linear_output_check_matches_per_state_loop(name):
    spec = LINEAR_OUTPUT_RIGS[name]
    model = ek.make(name).model
    fc = ek.FilterConfig(model=model, Q=spec["Q"], R=np.array([[0.7]]), P0=spec["P0"],
                         x0=np.array(spec["xhat0"]), horizon=3.0, step=0.01)
    traj = ek.integrate_ekf(fc, x0=np.array(spec["x0"]))
    gamma = fc.q_lo / (4.0 * traj.p_hi)
    rng = np.random.default_rng(11)
    states = list(traj.states[0] + rng.uniform(-0.8, 0.8, size=(7, model.state_dim)))
    rep = ek.linear_output_check(traj, states, gamma)
    assert (rep["worst_margin"], rep["worst_time"]) == _ref_linear_output_check(
        model, traj, states, gamma)
    assert rep["states_sampled"] == 7


def test_compare_analyses_unit_parameters():
    out = ek.compare_analyses(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, c_hi=1.0)
    assert out["lyapunov"]["rate"] == pytest.approx(0.25)
    assert out["contraction"]["rate"] == pytest.approx(0.25)
    assert out["ratio"]["rate"] == pytest.approx(1.0)
    assert out["lyapunov"]["basin_kappa_C0"] == pytest.approx(0.25)
    assert out["contraction"]["basin_kappa_C0"] == pytest.approx(0.25)
    assert out["lyapunov"]["basin_kappa_A0"] == pytest.approx(0.25)
    assert out["contraction"]["basin_kappa_A0"] == pytest.approx(1.0 / math.sqrt(2.0))


def test_compare_analyses_conditioning_gap():
    out = ek.compare_analyses(1.0, 2.0, 1.0, 1.0, 1.0, 1.0, c_hi=1.0)
    assert out["lyapunov"]["rate"] == pytest.approx(1.0 / 16.0)
    assert out["contraction"]["rate"] == pytest.approx(1.0 / 8.0)
    assert out["ratio"]["rate"] == pytest.approx(2.0)
    assert out["ratio"]["basin_kappa_C0"] == pytest.approx(math.sqrt(2.0))


def test_compare_analyses_degenerate_cells():
    out = ek.compare_analyses(1.0, 1.0, 1.0, 1.0, 0.0, 1.0, c_hi=1.0)
    assert out["lyapunov"]["basin_kappa_C0"] == float("inf")
    assert out["contraction"]["basin_kappa_C0"] == float("inf")
    assert math.isnan(out["ratio"]["basin_kappa_C0"])
    out = ek.compare_analyses(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert out["lyapunov"]["basin_kappa_A0"] is None
    assert out["ratio"]["basin_kappa_A0"] is None
    with pytest.raises(ek.ConfigurationError):
        ek.compare_analyses(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def test_compare_analyses_reads_an_underflowed_lyapunov_rate_as_unavailable():
    """A Lyapunov rate whose true value leaves the float range reads as
    unavailable: no ZeroDivisionError and no OverflowError."""
    out = ek.compare_analyses(1e-100, 1e100, 1e-100, 1.0, 1.0, 1.0)   # 2.5e-401
    assert out["lyapunov"]["rate"] is None and out["ratio"]["rate"] is None
    assert out["contraction"]["rate"] == pytest.approx(2.5e-201, rel=1e-15)
    out = ek.compare_analyses(1e-170, 1e-170, 1e300, 1.0, 1.0, 1.0)   # 2.5e469
    assert out["lyapunov"]["rate"] is None and out["ratio"]["rate"] is None
    # q_lo p_lo and 4 p_hi^2 underflow to 0 here, but the rate 0.25 is in range
    out = ek.compare_analyses(1e-200, 1e-200, 1e-200, 1.0, 1.0, 1.0)
    assert out["lyapunov"]["rate"] == 0.25 and out["ratio"]["rate"] == 1.0
    assert out["contraction"]["rate"] == 0.25
    assert out["ratio"]["basin_kappa_C0"] == 1.0


@pytest.mark.parametrize("p_lo, p_hi, q_lo, r_lo", [
    (1e-200, 1e-200, 1e-200, 1.0),   # q_lo p_lo r_lo and p_hi^2 underflow
    (1e-100, 1e-100, 1e-100, 1.0),
    (1.0, 1.0, 1.0, 1.0),
    (0.5, 2.0, 1e200, 1e200),         # q_lo r_lo overflows
    (1e100, 1e100, 1e100, 1.0),
    (1e200, 1e200, 1e200, 1.0),       # p_hi^2 overflows
])
def test_compare_analyses_kappa_a0_basins_follow_their_closed_forms(p_lo, p_hi, q_lo, r_lo):
    """Against exact arithmetic at kappa_C = 1.5 and c_hi = 0.5: the contraction
    basin sqrt(q_lo p_lo r_lo) / (kappa_C p_hi^1.5 sqrt 2) and the Lyapunov one
    q_lo r_lo / (4 c_hi kappa_C p_hi^2), also where their products would
    underflow or overflow (a true value beyond the float range reads inf); and
    the Lyapunov rate q_lo p_lo / (4 p_hi^2), whose ratio cell is p_hi / p_lo."""
    out = ek.compare_analyses(p_lo, p_hi, q_lo, r_lo, 1.0, 1.5, c_hi=0.5)
    with decimal.localcontext(decimal.Context(prec=40)):
        p, P, q, r, two = (decimal.Decimal(v) for v in (p_lo, p_hi, q_lo, r_lo, 2))
        contraction = float((q * p * r).sqrt() / (decimal.Decimal(1.5) * P * P.sqrt()
                                                  * two.sqrt()))
        lyapunov = float(q * r / (4 * decimal.Decimal(0.5) * decimal.Decimal(1.5) * P * P))
        rate, rate_ratio = float(q * p / (4 * P * P)), float(P / p)
    assert out["lyapunov"]["rate"] == pytest.approx(rate, rel=1e-15)
    assert out["ratio"]["rate"] == pytest.approx(rate_ratio, rel=1e-15)
    assert out["contraction"]["basin_kappa_A0"] == pytest.approx(contraction, rel=1e-12)
    assert out["lyapunov"]["basin_kappa_A0"] == pytest.approx(lyapunov, rel=1e-12)
    assert out["ratio"]["basin_kappa_A0"] == pytest.approx(contraction / lyapunov, rel=1e-12)


def test_compare_analyses_rejects_p_hi_below_p_lo_as_make_certificate_does(small_run):
    message = r"^p_hi must be >= p_lo, got p_lo=3\.0 and p_hi=1\.0$"
    with pytest.raises(ek.ConfigurationError, match=message):
        ek.compare_analyses(3.0, 1.0, 1.0, 1.0, 1.0, 1.0, c_hi=1.0)
    with pytest.raises(ek.ConfigurationError, match=message):
        ek.make_certificate(_bounds(small_run, 3.0, 1.0),
                            ek.HessianBounds(alpha=1.0, kappa_A=1.0, kappa_C=1.0))
    assert ek.compare_analyses(2.0, 2.0, 1.0, 1.0, 1.0, 1.0)["ratio"]["rate"] == 1.0


def test_inflation_rate_gain_equality_slack():
    P = 2.0 * np.eye(2)
    gamma = 0.3
    M = -2.0 * gamma * P
    N = 0.5 * np.eye(2)
    assert ek.inflation_rate_gain(M, P, N, gamma)
    assert ek.inflation_rate_gain(M, P, np.zeros((2, 2)), gamma)


def test_inflation_rate_gain_requires_precondition():
    with pytest.raises(ek.PreconditionError):
        ek.inflation_rate_gain(np.eye(2), np.eye(2), np.eye(2), 1.0)


def test_inflation_rate_gain_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        P = random_spd(rng, n)
        gamma = float(rng.uniform(0.0, 1.0))
        W = rng.standard_normal((n, n)) * rng.uniform(0.0, 2.0)
        M = -2.0 * gamma * P - W @ W.T
        N = random_spd(rng, n, lo=0.0, hi=1.5)
        assert ek.inflation_rate_gain(M, P, N, gamma)


def _overflowing_plant():
    """n = 2, p = 1: f = (0.5e300 x0^2, 0) and h = 1e160 x0, whose contraction matrix at
    z = (1, 0) against xhat = 0 with P = diag(1e10, 1) overflows to [[nan, 0], [0, -1]]."""
    return ek.SystemModel(
        state_dim=2, output_dim=1,
        dynamics=lambda x, t: np.array([0.5e300 * x[0] ** 2, 0.0]),
        output=lambda x, t: np.array([1e160 * x[0]]),
        jacobian_A=lambda x, t: np.array([[1e300 * x[0], 0.0], [0.0, 0.0]]),
        jacobian_C=lambda x, t: np.array([[1e160, 0.0]]))


def test_an_overflowed_contraction_matrix_certifies_nothing():
    model, z, xhat = _overflowing_plant(), np.array([1.0, 0.0]), np.zeros(2)
    P = np.diag([1e10, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        M = ek.contraction_matrix(model, z, xhat, P, np.eye(2), np.eye(1), 0.0)
        holds = ek.check_contraction_inequality(model, z, xhat, P, np.eye(2), np.eye(1), 0.1, 0.0)
    assert np.isnan(M[0, 0]) and M[1, 1] == -1.0
    assert np.linalg.eigvalsh(M)[-1] <= 0.0   # what eigvalsh alone would certify
    assert holds is False
    with pytest.raises(ek.PreconditionError, match="not negative semidefinite"):
        ek.inflation_rate_gain(np.array([[math.nan, 0.0], [0.0, -1.0]]), np.eye(2),
                               0.1 * np.eye(2), 0.1)


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_a_matrix_that_is_not_finite_fails_the_semidefinite_verdict(entry):
    S = np.array([[-1.0, 0.0], [0.0, entry]])
    assert list(contraction._negative_semidefinite(np.stack([S, -np.eye(2)]))) == [False, True]


def test_single_stage_identity_of_the_riccati_flow_and_the_contraction_matrix():
    """The paper's identity at one stage: with K = P C(xhat)^T R^{-1}, dP/dt the
    (inflated) Riccati right-hand side, dz' = (A(z) - K C(z)) dz and s = P^{-1} dz,
    2 s^T dz' - s^T dP/dt s = s^T (M - 2N - 2 beta P) s. ekf._riccati and
    contraction._contraction_matrices code the two sides independently."""
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(500):
        n, p = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        P, Q, R = (random_spd(rng, k) for k in (n, n, p))
        P = 0.5 * (P + P.T)
        B = rng.standard_normal((n, int(rng.integers(0, n + 1))))
        N = 0.5 * (B @ B.T)
        beta = float(rng.uniform(0.0, 1.0))
        Ah, Az = rng.standard_normal((2, n, n))
        Ch, Cz = rng.standard_normal((2, p, n))
        dz = rng.standard_normal(n)
        Rinv = np.linalg.inv(R)
        K = ek.ekf._gain(P, Ch, Rinv)
        dP = ek.ekf._riccati(P, Ah, Ch, Q, Rinv, 2.0 * N if N.any() else None, 2.0 * beta)
        M = ek.contraction._contraction_matrices(Ah, Ch, Az, Cz, P, Q, R)
        s = np.linalg.solve(P, dz)
        terms = (2.0 * s @ ((Az - K @ Cz) @ dz), s @ dP @ s, s @ M @ s, 2.0 * s @ N @ s,
                 2.0 * beta * s @ P @ s)
        gap = abs(terms[0] - terms[1] - (terms[2] - terms[3] - terms[4]))
        worst = max(worst, gap / max(map(abs, terms)))
    assert worst <= 1e-9


def test_offset_term_bounds():
    # the two spectral bounds that turn curvature into the radius polynomial
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        P = random_spd(rng, n)
        R = random_spd(rng, p)
        At = rng.standard_normal((n, n))
        Ct = rng.standard_normal((p, n))
        p_hi = float(np.linalg.eigvalsh(P)[-1])
        r_lo = float(np.linalg.eigvalsh(R)[0])
        S1 = At @ P + P @ At.T
        lhs1 = float(np.linalg.eigvalsh(0.5 * (S1 + S1.T))[-1])
        assert lhs1 <= 2.0 * p_hi * np.linalg.norm(At, 2) + 1e-10
        CtP = Ct @ P
        S2 = CtP.T @ np.linalg.solve(R, CtP)
        lhs2 = float(np.linalg.eigvalsh(0.5 * (S2 + S2.T))[-1])
        assert lhs2 <= (p_hi ** 2 / r_lo) * np.linalg.norm(Ct, 2) ** 2 + 1e-10


def test_certified_radius_implies_inequality(cubic_rig):
    # kappa_A valid on the unit tube around the estimate path, which stays
    # inside |x| <= 0.3: sup |f''| there is 6 eps (1 + 0.3)
    traj = cubic_rig["traj"]
    model = cubic_rig["model"]
    reach = float(np.max(np.abs(traj.states)))
    kappa = 6.0 * 0.1 * (1.0 + reach)
    cert = ek.make_certificate(traj, ek.HessianBounds(alpha=1.0, kappa_A=kappa, kappa_C=0.0))
    assert 0.0 < cert.rho <= 1.0
    rng = np.random.default_rng(41)
    cfg = traj.config
    for _ in range(50):
        k = int(rng.integers(0, len(traj.times)))
        t = float(traj.times[k])
        xhat = traj.states[k]
        r = float(rng.uniform(0.0, 0.999 * cert.rho))
        z = xhat + r * np.sign(rng.standard_normal()) * np.ones(1)
        assert ek.check_contraction_inequality(model, z, xhat,
                                               traj.covariances[k],
                                               cfg.Q, cfg.R, cert.gamma, t)


def _radius_loop(model, xhat, P, Q, R, gamma, t, direction_samples=64, seed=0):
    """Per-probe reference bisection: every probe checked on its own, in order."""
    dim = len(xhat)
    dirs = np.vstack([np.eye(dim), -np.eye(dim)])
    if direction_samples > 0:
        raw = np.random.default_rng(seed).standard_normal((direction_samples, dim))
        dirs = np.vstack([dirs, raw / np.linalg.norm(raw, axis=1, keepdims=True)])

    def verified(z):
        try:
            return ek.check_contraction_inequality(model, z, xhat, P, Q, R, gamma, t)
        except ek.ModelEvaluationError:   # non-finite Jacobians: not verified there
            return False

    def holds(r):
        return all(verified(xhat + r * u) for u in dirs)

    if not ek.check_contraction_inequality(model, xhat, xhat, P, Q, R, gamma, t):
        return 0.0
    lo, hi = 0.0, 1e6
    if holds(hi):
        return hi
    while hi - lo > 1e-6 * max(lo, 1e-12):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


@pytest.fixture(scope="module")
def vdp_run():
    entry = ek.make("vanderpol-pos", mu=0.15)
    fc = ek.FilterConfig(model=entry.model, Q=np.eye(2), R=np.eye(1), P0=np.eye(2),
                         x0=np.array([0.3, 0.2]), horizon=4.0, step=0.01)
    traj = ek.integrate_ekf(fc, x0=np.array([0.34, 0.2]))
    return traj, traj.config.q_lo / (4.0 * traj.p_hi)


@pytest.mark.parametrize("k", [0, 200, 400])
def test_empirical_radius_matches_per_probe_loop_vanderpol(vdp_run, k):
    traj, gamma = vdp_run
    cfg = traj.config
    args = (cfg.model, traj.states[k], traj.covariances[k], cfg.Q, cfg.R, gamma,
            float(traj.times[k]))
    r = ek.empirical_radius(*args, seed=3)
    assert 0.0 < r < 1e6
    assert r == _radius_loop(*args, seed=3)


@pytest.mark.parametrize("samples", [0, 64])
def test_empirical_radius_matches_per_probe_loop_scalar(samples):
    # in 1-D the reference adds `samples` random +-1 probes the axes already cover
    args = (_cubic_model(), np.array([0.2]), np.array([[0.8]]), np.eye(1), np.eye(1),
            0.1, 0.0, samples)
    r = ek.empirical_radius(*args)
    assert 0.0 < r < 1e6
    assert r == _radius_loop(*args)


def test_empirical_radius_eigvalsh_calls_independent_of_directions(vdp_run, linalg_calls):
    traj, gamma = vdp_run
    cfg = traj.config
    nine = np.linspace(0, len(traj.times) - 1, 9).astype(int)
    for samples in (8, 64):
        for k in (100, nine):
            linalg_calls.clear()
            r = ek.empirical_radius(cfg.model, traj.states[k], traj.covariances[k],
                                    cfg.Q, cfg.R, gamma, traj.times[k], direction_samples=samples)
            # the centres, then at most two batched calls per radius tested, for all
            # nodes together: r_max and each bisection step down to width rel_tol * r
            steps = math.ceil(math.log2(1e6 / (1e-6 * np.min(r)))) + 1
            assert linalg_calls["eigvalsh"] <= 1 + 2 * (1 + steps)


@pytest.mark.parametrize("samples", [0, 8, 64])
def test_empirical_radius_of_a_stack_equals_its_one_node_calls(vdp_run, samples):
    """Nodes searched in lock step test the radii, and get the verdicts, of their own
    searches: every radius keeps its bits, whether its centre fails (a tenfold P) or not."""
    traj, gamma = vdp_run
    cfg = traj.config
    calls = []
    model = dataclasses.replace(
        cfg.model, jacobian_A=lambda x, t: calls.append(t) or cfg.model.jacobian_A(x, t))
    idx = np.linspace(0, len(traj.times) - 1, 9).astype(int)
    P = traj.covariances[idx] * np.where(np.arange(9) % 3 == 1, 10.0, 1.0)[:, None, None]
    radii = ek.empirical_radius(model, traj.states[idx], P, cfg.Q, cfg.R, gamma,
                                traj.times[idx], direction_samples=samples, seed=2)
    stacked_calls, calls[:] = sorted(calls), []
    one = [ek.empirical_radius(model, traj.states[k], P[i], cfg.Q, cfg.R, gamma,
                               float(traj.times[k]), direction_samples=samples, seed=2)
           for i, k in enumerate(idx)]
    assert all(type(r) is float for r in one)
    assert radii.tolist() == one
    # the same probes at the same node times: the retests follow each node's own failures
    assert stacked_calls == sorted(calls)
    assert 0.0 in one and all(0.0 < r < 1e6 for r in one[::3])


def test_empirical_radius_stacks_at_most_a_block_of_probes(vdp_run, monkeypatch):
    """200 nodes of 12 probes each go through in blocks, so memory stays flat in the
    number of nodes."""
    traj, gamma = vdp_run
    cfg = traj.config
    rows = []
    stacked = contraction._stacked_jacobians

    def recording(model, points, times, **checked):
        rows.append(len(points))
        return stacked(model, points, times, **checked)

    monkeypatch.setattr(contraction, "_stacked_jacobians", recording)
    idx = np.arange(200)
    radii = ek.empirical_radius(cfg.model, traj.states[idx], traj.covariances[idx], cfg.Q,
                                cfg.R, gamma, traj.times[idx], direction_samples=8)
    assert radii.shape == (200,) and np.all(radii > 0.0)
    assert max(rows) <= contraction.RADIUS_BLOCK_ROWS < 200 * 12


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "finite-differences"])
def test_empirical_radius_fails_probes_whose_jacobians_overflow(analytic):
    """f = -x + 0.01 e^x: the Jacobians overflow at the first probe, r = RADIUS_MAX, which
    fails there instead of aborting the search; a centre's own overflow still raises."""
    model = ek.SystemModel(state_dim=1, output_dim=1,
                           dynamics=lambda x, t: -x + 0.01 * np.exp(x),
                           output=lambda x, t: x.copy(),
                           jacobian_A=(lambda x, t: -1.0 + 0.01 * np.exp(x)) if analytic else None)
    args = (model, np.zeros(1), np.eye(1), np.eye(1), np.eye(1), 0.1, 0.0)
    r = ek.empirical_radius(*args)
    assert 0.0 < r < 1e6
    assert r == _radius_loop(*args)
    with pytest.raises(ek.ModelEvaluationError, match="non-finite"):
        ek.empirical_radius(model, np.array([800.0]), *args[2:])
