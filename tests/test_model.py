import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ekfcert as ek
from ekfcert.model import (CBRT_EPS, QUARTIC_EPS, _contraction_norms, _screened_max,
                           _stacked_hessians, _stacked_jacobians, _tensor_norms,
                           _unit_directions)


def _scalar_model(f, h=None, jac_a=None, jac_c=None):
    return ek.SystemModel(
        state_dim=1, output_dim=1,
        dynamics=lambda x, t: np.atleast_1d(f(x[0])),
        output=(lambda x, t: np.atleast_1d(h(x[0]))) if h else (lambda x, t: x.copy()),
        jacobian_A=jac_a, jacobian_C=jac_c)


def test_jacobian_of_square_map():
    m = _scalar_model(lambda x: x * x)
    A, _ = ek.eval_jacobians(m, np.array([1.0]), 0.0)
    assert abs(A[0, 0] - 2.0) < 1e-8


def test_linear_jacobian_exact_on_analytic_path():
    M = np.array([[0.3, -1.2], [2.0, 0.7]])
    model = ek.SystemModel(
        state_dim=2, output_dim=2,
        dynamics=lambda x, t: M @ x,
        output=lambda x, t: x.copy(),
        jacobian_A=lambda x, t: M.copy(),
        jacobian_C=lambda x, t: np.eye(2))
    A, C = ek.eval_jacobians(model, np.array([3.0, -4.0]), 1.5)
    assert np.array_equal(A, M)
    assert np.array_equal(C, np.eye(2))


def test_sine_fd_matches_cosine():
    m = _scalar_model(np.sin)
    A, _ = ek.eval_jacobians(m, np.array([0.0]), 0.0)
    assert abs(A[0, 0] - 1.0) < 1e-8


def test_analytic_jacobians_agree_with_finite_differences():
    rng = np.random.default_rng(7)
    for entry in ek.registry():
        model = entry.model
        bare = ek.SystemModel(state_dim=model.state_dim, output_dim=model.output_dim,
                              dynamics=model.dynamics, output=model.output)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=model.state_dim)
            t = float(rng.uniform(0.0, 5.0))
            step = CBRT_EPS * max(1.0, float(np.linalg.norm(x)))
            A, C = ek.eval_jacobians(model, x, t)
            A_fd, C_fd = ek.eval_jacobians(bare, x, t)
            assert np.linalg.norm(A - A_fd) <= 10.0 * step
            assert np.linalg.norm(C - C_fd) <= 10.0 * step


def test_tilde_matrices_vanish_for_linear_dynamics():
    """Linear plant: Atil = Ctil = 0 bit for bit at distant points, so the
    contraction matrix is the offset-free -(C P)^T R^-1 C P - Q exactly."""
    model = ek.make("ltv-linear").model
    P, Q, R = np.array([[2.0, 0.3], [0.3, 1.0]]), np.eye(2), np.array([[0.7]])
    z, xh = np.array([5.0, 1.0]), np.array([-2.0, 0.3])
    _, C = ek.eval_jacobians(model, xh, 1.2)
    CP = C @ P
    expected = -(CP.T @ np.linalg.solve(R, CP)) - Q
    assert np.array_equal(ek.contraction_matrix(model, z, xh, P, Q, R, 1.2),
                          0.5 * (expected + expected.T))


def test_tilde_matrices_cubic_hand_value():
    m = _scalar_model(lambda x: x ** 3,
                      jac_a=lambda x, t: np.array([[3.0 * x[0] ** 2]]),
                      jac_c=lambda x, t: np.ones((1, 1)))
    # P = R = 1, Q = 0, Ctil = 0: M = 2 Atil - 1, with Atil = 3 z^2 - 0 = 3
    M = ek.contraction_matrix(m, np.array([1.0]), np.array([0.0]),
                              np.eye(1), np.zeros((1, 1)), np.eye(1), 0.0)
    At = 0.5 * (M[0, 0] + 1.0)
    assert abs(At - 3.0) < 1e-12


def test_hessian_tensor_vanderpol_entries():
    mu = 0.15
    entry = ek.make("vanderpol-pos", mu=mu)
    H = ek.hessian_tensor(entry.model, np.array([1.0, 2.0]), 0.0, "dynamics")
    expected = np.array([[-2 * mu * 2.0, -2 * mu * 1.0], [-2 * mu * 1.0, 0.0]])
    assert np.allclose(H[0], 0.0, atol=1e-9)
    assert np.allclose(H[1], expected, atol=1e-7)


def test_hessian_bounds_zero_for_linear_systems():
    for name in ("scalar-riccati", "ltv-linear"):
        model = ek.make(name).model
        hb = ek.estimate_hessian_bounds(
            model, [np.zeros(model.state_dim)], 0.0, 1.0)
        assert hb.kappa_A == 0.0
        assert hb.kappa_C == 0.0
        assert hb.sampled


def test_hessian_bounds_sine_ball():
    # sup of |sin| over [-pi/2, pi/2] is 1, attained at the edges
    m = _scalar_model(np.sin)
    hb = ek.estimate_hessian_bounds(m, [np.zeros(1)], 0.0, np.pi / 2,
                                    safety=1.0)
    assert abs(hb.kappa_A - 1.0) < 0.03
    assert hb.kappa_C < 1e-6


def test_hessian_bounds_cubic_matches_closed_form():
    entry = ek.make("cubic-scalar", eps=0.1)
    hb = ek.estimate_hessian_bounds(entry.model, [np.zeros(1)], 0.0, 2.0,
                                    safety=1.0)
    exact = entry.analytic["kappa_A"](2.0)
    assert abs(hb.kappa_A - exact) <= 0.1 * exact
    assert hb.kappa_C == 0.0


def test_hessian_bounds_monotone_in_radius():
    model = ek.make("cubic-scalar", eps=0.1).model
    small = ek.estimate_hessian_bounds(model, [np.zeros(1)], 0.0, 0.5)
    large = ek.estimate_hessian_bounds(model, [np.zeros(1)], 0.0, 1.0)
    assert small.kappa_A <= large.kappa_A


def test_tensor_norm_single_output_exact():
    H = np.array([[[2.0, 1.0], [1.0, -3.0]]])
    dirs = np.array([[1.0], [-1.0]])
    expected = np.abs(np.linalg.eigvalsh(H[0])).max()
    assert abs(ek.tensor_norm(H, dirs) - expected) < 1e-12


def test_model_validation_errors():
    with pytest.raises(ek.ConfigurationError):
        ek.SystemModel(state_dim=0, output_dim=1,
                       dynamics=lambda x, t: x, output=lambda x, t: x)
    bad = _scalar_model(lambda x: np.nan)
    with pytest.raises(ek.ModelEvaluationError):
        ek.eval_jacobians(bad, np.array([1.0]), 0.0)
    with pytest.raises(ek.ModelEvaluationError):
        ek.eval_jacobians(_scalar_model(lambda x: x), np.array([np.inf]), 0.0)


def test_hessian_bounds_rejects_bad_radius():
    model = ek.make("cubic-scalar").model
    with pytest.raises(ek.ConfigurationError):
        ek.estimate_hessian_bounds(model, [np.zeros(1)], 0.0, 0.0)
    with pytest.raises(ek.ConfigurationError, match="^states must hold at least one state$"):
        ek.estimate_hessian_bounds(model, [], [], 1.0)
    with pytest.raises(ek.ConfigurationError,
                       match="^times must hold one time per state, got 1 for 2 states$"):
        ek.estimate_hessian_bounds(model, np.zeros((2, 1)), [0.0], 1.0)


def _tensor_norm_loop(H, dirs):
    """Per-direction reference: one contraction and one eigvalsh per w."""
    best = 0.0
    for w in dirs:
        S = np.tensordot(w, H, axes=1)
        S = 0.5 * (S + S.T)
        best = max(best, float(np.abs(np.linalg.eigvalsh(S)).max()))
    return best


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 4), n=st.integers(1, 4), d=st.integers(0, 40),
       scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2 ** 32 - 1))
def test_tensor_norm_matches_per_direction_loop(m, n, d, scale, seed):
    rng = np.random.default_rng(seed)
    H = scale * rng.standard_normal((m, n, n))
    dirs = rng.standard_normal((d, m))
    assert ek.tensor_norm(H, dirs) == _tensor_norm_loop(H, dirs)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 3), n=st.integers(1, 4), d=st.integers(1, 20),
       spectrum=st.sampled_from(["mixed", "positive", "negative", "zero"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_tensor_norms_read_the_ends_of_each_spectrum(m, n, d, spectrum, seed):
    """max(-lambda_min, lambda_max) of a sorted spectrum is abs(lambda).max() bit for bit,
    zero spectra included: a negative weight on a zero tensor gives lambda = -0.0."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((4, m, n, n))
    H = {"mixed": B[0], "positive": B[0] @ B[0].swapaxes(1, 2) + np.eye(n),
         "negative": -(B[0] @ B[0].swapaxes(1, 2)), "zero": np.zeros((m, n, n))}[spectrum]
    H = np.stack([H, B[1]])
    dirs = rng.standard_normal((d, m))
    if spectrum in ("positive", "negative"):   # nonnegative weights keep the sign of a spectrum
        dirs = np.abs(dirs)
    S = (dirs.reshape(-1, 1, m) @ H.reshape(2, 1, m, n * n)).reshape(2, d, n, n)
    reference = np.abs(np.linalg.eigvalsh(0.5 * (S + S.swapaxes(-1, -2)))).max(axis=(1, 2))
    assert _tensor_norms(H, dirs).tobytes() == reference.tobytes()


def _bare(model):
    """``model`` without its Jacobian callbacks: finite differences throughout."""
    return ek.SystemModel(state_dim=model.state_dim, output_dim=model.output_dim,
                          dynamics=model.dynamics, output=model.output)


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "finite-differences"])
@pytest.mark.parametrize("name", [entry.name for entry in ek.registry()])
def test_hessian_bounds_match_per_point_loop(name, analytic):
    model = ek.make(name).model if analytic else _bare(ek.make(name).model)
    n, p = model.state_dim, model.output_dim
    path = [(np.linspace(0.3, -0.2, n), 0.0), (np.linspace(-0.5, 1.0, n), 1.0),
            (np.linspace(1.2, 0.4, n), 2.5)]
    hb = ek.estimate_hessian_bounds(model, *zip(*path), 0.5, seed=4)
    rng = np.random.default_rng(4)
    state_dirs = _unit_directions(n, 32, rng)
    out_f = _unit_directions(n, 32, rng)
    out_h = _unit_directions(p, 32, rng)
    ka = kc = 0.0
    for xc, t in path:
        for r in np.linspace(0.0, 0.5, 5):
            for x in [xc] if r == 0.0 else [xc + r * u for u in state_dirs]:
                ka = max(ka, _tensor_norm_loop(ek.hessian_tensor(model, x, t, "dynamics"), out_f))
                kc = max(kc, _tensor_norm_loop(ek.hessian_tensor(model, x, t, "output"), out_h))
    assert (hb.kappa_A, hb.kappa_C) == (1.1 * ka, 1.1 * kc)


def test_hessian_bounds_eigvalsh_calls_independent_of_directions(linalg_calls):
    """At most two calls per centre and map for any number of directions: the axis rows
    of every point, then the other directions of the points whose upper value can raise
    the maximum; without random directions there is no second call."""
    model = ek.make("vanderpol-pos", mu=0.15).model
    path = [(np.array([0.3, 0.2]), 0.1 * k) for k in range(3)]
    for samples in (0, 8, 64):
        linalg_calls.clear()
        ek.estimate_hessian_bounds(model, *zip(*path), 0.5, output_direction_samples=samples)
        assert linalg_calls["eigvalsh"] <= 2 * 2 * len(path)
        if samples == 0:
            assert linalg_calls["eigvalsh"] == 2 * len(path)


def test_an_all_zero_hessian_solves_its_axis_rows_only(linalg_calls):
    """ltv-linear has f linear, so every Hessian is all zeros: its points are pruned
    whatever the running maximum, 0.0 included, and each centre makes one call per map."""
    model = ek.make("ltv-linear").model
    hb = ek.estimate_hessian_bounds(model, np.zeros((3, 2)), [0.0, 1.0, 2.0], 0.5)
    assert (hb.kappa_A, hb.kappa_C) == (0.0, 0.0)
    assert linalg_calls["eigvalsh"] == 2 * 3


def _symmetric_stack(rng, N, m, n, scale, zero, dominant):
    """An (N, m, n, n) stack symmetric in its last two axes, scaled by ``scale``, with
    slice ``zero`` of every tensor all zeros and slice ``dominant`` 1e3 times larger."""
    B = rng.standard_normal((N, m, n, n))
    H = (B + B.swapaxes(-1, -2)) * scale
    if zero is not None:
        H[:, zero % m] = 0.0
    if dominant is not None:
        H[:, dominant % m] *= 1e3
    return H


@settings(max_examples=400, deadline=None)
@given(m=st.integers(1, 4), n=st.integers(1, 4), N=st.integers(0, 12),
       samples=st.integers(0, 40), log_scale=st.floats(-323.0, 300.0),
       zero=st.none() | st.integers(0, 3), dominant=st.none() | st.integers(0, 3),
       zero_points=st.integers(0, 12), carried=st.sampled_from([None, 0.0, 0.5, 0.999, 1.0, 2.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_screened_maximum_equals_the_maximum_over_every_direction(
        m, n, N, samples, log_scale, zero, dominant, zero_points, carried, seed):
    """_screened_max(H, W, best) is max(best, _tensor_norms(H, W).max()) bit for bit: scales
    from subnormal to 1e300, zero and dominant slices, all-zero points, and a carried-in
    running maximum below, at or above the stack's own (a fraction of it)."""
    rng = np.random.default_rng(seed)
    H = _symmetric_stack(rng, N, m, n, 10.0 ** log_scale, zero, dominant)
    H[:zero_points] = 0.0
    W = _unit_directions(m, samples, rng)
    full = float(_tensor_norms(H, W).max(initial=0.0))
    best = 0.0 if carried is None else carried * full
    screened = _screened_max(H, W, best)
    assert (screened, np.signbit(screened)) == (max(best, full), np.signbit(max(best, full)))


def test_the_screen_slack_covers_a_contraction_rounded_above_its_upper_value():
    """n = 1 and w = c / ||c||: the computed contraction c . w reads one ulp above
    hypot(c) ||w||, so a running maximum equal to that product must not prune w."""
    c = np.array([-0.1321048632913019, 0.6404226504432821, 0.10490011715303971,
                  -0.535669373161111])
    w = c / np.linalg.norm(c)
    H, W = c.reshape(1, 4, 1, 1), np.vstack([np.eye(4), -np.eye(4), w])
    best = float(np.hypot.reduce(np.abs(c)) * np.linalg.norm(w))
    full = float(_tensor_norms(H, W).max())
    assert best < full
    assert _screened_max(H, W, best) == full


def test_the_screen_floor_covers_products_that_underflow():
    """Both slices hold the smallest subnormal: hypot rounds the upper value down to it,
    while the diagonal contraction rounds each product up and reads twice as much."""
    H = np.full((1, 2, 1, 1), 5e-324)
    W = np.vstack([np.eye(2), -np.eye(2), [[np.sqrt(0.5), np.sqrt(0.5)]]])
    assert _tensor_norms(H, W).max() == 1e-323
    assert _screened_max(H, W, 0.0) == 1e-323


def test_the_screen_keeps_a_point_whose_contractions_would_overflow():
    """A point is pruned only below SCREEN_CEILING. Here the first tensor's norm, 1.6e308,
    is above the second's upper value 9.05e307, but the second's diagonal contraction
    overflows as it is symmetrized, so the full maximum reads NaN, and so does the screen."""
    W = np.vstack([np.eye(2), -np.eye(2), [[np.sqrt(0.5), np.sqrt(0.5)]]])
    high = np.zeros((2, 2, 2))
    high[0] = 8e307
    low = np.zeros((2, 2, 2))
    low[:, 0, 0] = 6.4e307
    H = np.stack([high, low])
    assert _contraction_norms(H, W[:4]).max() > 1.5e308
    assert math.isnan(_tensor_norms(H, W).max())
    assert math.isnan(_screened_max(H, W, 0.0))


def test_hessian_bounds_of_an_overflowing_contraction_raise():
    """f = 6e307 (x0^2, x1^2) by finite differences: every Hessian entry is finite, but
    symmetrizing its contraction overflows, so the sampled norm is not finite."""
    model = _overflow_plant()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message, time = _failure(lambda: ek.estimate_hessian_bounds(
            model, np.zeros((3, 2)), [0.25, 0.5, 1.0], 0.5))
        assert (message, time) == ("Hessian sample non-finite at t=0.25", 0.25)
        H = ek.hessian_tensor(model, np.zeros(2), 0.0, "dynamics")
        assert np.isfinite(H).all()
        assert math.isnan(ek.tensor_norm(H, np.vstack([np.eye(2), -np.eye(2)])))


@pytest.mark.parametrize("directions, shape", [
    (np.ones((4, 2)), "(4, 2)"), (np.ones(3), "(3,)"), (np.ones((2, 4, 1)), "(2, 4, 1)"),
    (np.ones(4), "(4,)")])
def test_tensor_norm_reads_its_directions_as_a_stack_of_output_width(directions, shape):
    H = np.ones((4, 2, 2))
    with pytest.raises(ek.ConfigurationError,
                       match=re.escape(f"output_directions must have shape (d, 4), got {shape}")):
        ek.tensor_norm(H, directions)


@pytest.mark.parametrize("directions, message", [
    ([[1.0, np.nan]], "output_directions must be finite, got [[1.0, nan]]"),
    ([["a", "b"]], "output_directions must be numeric"),
    ([[1.0, 0.0], [1.0]], "output_directions must be numeric")])
def test_tensor_norm_rejects_directions_that_are_not_finite_numbers(directions, message):
    with pytest.raises(ek.ConfigurationError, match=re.escape(message)):
        ek.tensor_norm(np.ones((2, 2, 2)), directions)


def test_tensor_norm_of_no_directions_is_zero():
    assert ek.tensor_norm(np.ones((3, 2, 2)), np.empty((0, 3))) == 0.0


def _old_fd_jacobian(func, x, t, out_dim, step):
    n = len(x)
    J = np.empty((out_dim, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        J[:, i] = (func(x + e, t) - func(x - e, t)) / (2.0 * step)
    return J


def _old_hessian_from_jacobian(jac, x, t, out_dim, step):
    n = len(x)
    H = np.empty((out_dim, n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        Jp = np.asarray(jac(x + e, t), dtype=float).reshape(out_dim, n)
        Jm = np.asarray(jac(x - e, t), dtype=float).reshape(out_dim, n)
        H[:, i, :] = (Jp - Jm) / (2.0 * step)
    return 0.5 * (H + H.transpose(0, 2, 1))


def _ad_hoc_plant(analytic: bool) -> ek.SystemModel:
    def f(x, t):
        return np.array([x[1] * x[2], np.sin(x[0]) - t * x[2], x[0] ** 3])

    def h(x, t):
        return np.array([x[0] * x[1], np.exp(0.1 * x[2])])

    def jac_a(x, t):
        return np.array([[0.0, x[2], x[1]], [np.cos(x[0]), 0.0, -t],
                         [3.0 * x[0] ** 2, 0.0, 0.0]])

    def jac_c(x, t):
        return np.array([[x[1], x[0], 0.0], [0.0, 0.0, 0.1 * np.exp(0.1 * x[2])]])

    return ek.SystemModel(state_dim=3, output_dim=2, dynamics=f, output=h,
                          jacobian_A=jac_a if analytic else None,
                          jacobian_C=jac_c if analytic else None)


def test_central_differences_match_the_former_per_map_loops():
    rng = np.random.default_rng(11)
    plants = ([e.model for e in ek.registry()]
              + [_ad_hoc_plant(analytic=True), _ad_hoc_plant(analytic=False)])
    for model in plants:
        n, p = model.state_dim, model.output_dim
        bare = ek.SystemModel(state_dim=n, output_dim=p, dynamics=model.dynamics,
                              output=model.output)
        for _ in range(200):
            x = rng.uniform(-2.0, 2.0, size=n)
            t = float(rng.uniform(0.0, 5.0))
            step = CBRT_EPS * max(1.0, float(np.linalg.norm(x)))
            A, C = ek.eval_jacobians(bare, x, t)
            assert np.array_equal(A, _old_fd_jacobian(bare.f, x, t, n, step))
            assert np.array_equal(C, _old_fd_jacobian(bare.h, x, t, p, step))
            if model.jacobian_A is not None:
                assert np.array_equal(
                    ek.hessian_tensor(model, x, t, "dynamics"),
                    _old_hessian_from_jacobian(model.jacobian_A, x, t, n, step))
                assert np.array_equal(
                    ek.hessian_tensor(model, x, t, "output"),
                    _old_hessian_from_jacobian(model.jacobian_C, x, t, p, step))


# Per-point reference paths: inline copies of eval_jacobians and hessian_tensor
# as they were before stacked evaluation, one callback round per point.

def _ref_step(x, base):
    return base * max(1.0, float(np.linalg.norm(x)))


def _ref_central_differences(g, x, t, step):
    columns = []
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = step
        columns.append((g(x + e, t) - g(x - e, t)) / (2.0 * step))
    return np.stack(columns, axis=1)


def _ref_eval_jacobians(model, x, t):
    x = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise ek.ModelEvaluationError(f"state contains non-finite entries: {x}", time=float(t))
    step = _ref_step(x, CBRT_EPS)
    n, p = model.state_dim, model.output_dim
    if model.jacobian_A is not None:
        A = np.asarray(model.jacobian_A(x, t), dtype=float).reshape(n, n)
    else:
        A = _ref_central_differences(model.f, x, t, step)
    if model.jacobian_C is not None:
        C = np.asarray(model.jacobian_C(x, t), dtype=float).reshape(p, n)
    else:
        C = _ref_central_differences(model.h, x, t, step)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(C))):
        raise ek.ModelEvaluationError(
            f"Jacobian evaluation produced non-finite entries at t={t}", time=float(t))
    return A, C


def _ref_hessian_tensor(model, x, t, which):
    x = np.asarray(x, dtype=float).reshape(-1)
    n = len(x)
    if which == "dynamics":
        jac, func, m = model.jacobian_A, model.f, model.state_dim
    else:
        jac, func, m = model.jacobian_C, model.h, model.output_dim
    if jac is not None:
        H = _ref_central_differences(
            lambda z, s: np.asarray(jac(z, s), dtype=float).reshape(m, n),
            x, t, _ref_step(x, CBRT_EPS))
        return 0.5 * (H + H.transpose(0, 2, 1))
    step = _ref_step(x, QUARTIC_EPS)
    H = np.empty((m, n, n))
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


def _oracle_plants():
    """Registry plants, their finite-difference-only twins with the default
    step, and the two 3-state ad-hoc plants (analytic; FD-only)."""
    plants = [e.model for e in ek.registry()]
    bare = [ek.SystemModel(state_dim=m.state_dim, output_dim=m.output_dim,
                           dynamics=m.dynamics, output=m.output) for m in plants]
    return plants + bare + [_ad_hoc_plant(analytic=True), _ad_hoc_plant(analytic=False)]


def _oracle_points(rng, n, count):
    # norms spread over [1e-2, 1e2], so the step rule max(1, ||x||) takes both branches
    X = rng.standard_normal((count, n))
    X *= (10.0 ** rng.uniform(-2.0, 2.0, (count, 1))) / np.linalg.norm(X, axis=1, keepdims=True)
    X[0] = 0.0
    X[1, 0] = -0.0
    return X


def test_stacked_jacobians_match_the_per_point_path():
    rng = np.random.default_rng(21)
    for model in _oracle_plants():
        X = _oracle_points(rng, model.state_dim, 150)
        times = rng.uniform(0.0, 5.0, len(X))
        A, C = _stacked_jacobians(model, X, times)
        for k, x in enumerate(X):
            A_ref, C_ref = _ref_eval_jacobians(model, x, float(times[k]))
            assert np.array_equal(A[k], A_ref) and np.array_equal(C[k], C_ref)
            A1, C1 = ek.eval_jacobians(model, x, float(times[k]))
            assert np.array_equal(A1, A_ref) and np.array_equal(C1, C_ref)


def test_analytic_jacobian_stacks_take_no_finite_difference_steps(monkeypatch):
    """Analytic callbacks get the rows themselves: no norms, steps or offset
    points are formed, and the results still equal the per-point path."""
    def no_steps(X):
        raise AssertionError("finite-difference step scale computed")

    monkeypatch.setattr(ek.model, "_step_scale", no_steps)
    rng = np.random.default_rng(23)
    for model in [e.model for e in ek.registry()] + [_ad_hoc_plant(analytic=True)]:
        X = _oracle_points(rng, model.state_dim, 40)
        A, C = _stacked_jacobians(model, X, 0.7)
        for k, x in enumerate(X):
            A_ref, C_ref = _ref_eval_jacobians(model, x, 0.7)
            assert np.array_equal(A[k], A_ref) and np.array_equal(C[k], C_ref)
    bare = ek.SystemModel(state_dim=model.state_dim, output_dim=model.output_dim,
                          dynamics=model.dynamics, output=model.output)
    with pytest.raises(AssertionError, match="step scale"):
        _stacked_jacobians(bare, X, 0.7)


def test_stacked_hessians_match_the_per_point_path():
    rng = np.random.default_rng(22)
    for model in _oracle_plants():
        X = _oracle_points(rng, model.state_dim, 150)
        for which in ("dynamics", "output"):
            H = _stacked_hessians(model, X, 1.3, which)
            for k, x in enumerate(X):
                H_ref = _ref_hessian_tensor(model, x, 1.3, which)
                assert np.array_equal(H[k], H_ref)
                assert np.array_equal(ek.hessian_tensor(model, x, 1.3, which), H_ref)


def test_hessian_bounds_of_finite_difference_plant_match_per_point_loop():
    model = _ad_hoc_plant(analytic=False)
    path = [(np.array([0.3, -0.2, 0.5]), 0.0), (np.array([1.5, 0.4, -2.0]), 0.7)]
    hb = ek.estimate_hessian_bounds(model, *zip(*path), 0.5, direction_samples=8,
                                    output_direction_samples=8, seed=3)
    rng = np.random.default_rng(3)
    state_dirs = _unit_directions(3, 8, rng)
    out_f = _unit_directions(3, 8, rng)
    out_h = _unit_directions(2, 8, rng)
    ka = kc = 0.0
    for xc, t in path:
        for r in np.linspace(0.0, 0.5, 5):
            for x in [xc] if r == 0.0 else [xc + r * u for u in state_dirs]:
                ka = max(ka, _tensor_norm_loop(_ref_hessian_tensor(model, x, t, "dynamics"), out_f))
                kc = max(kc, _tensor_norm_loop(_ref_hessian_tensor(model, x, t, "output"), out_h))
    assert (hb.kappa_A, hb.kappa_C) == (1.1 * ka, 1.1 * kc)


def _overflow_plant():
    """f = 6e307 (x0^2, x1^2), h = x0, by finite differences: at the origin the state
    stays put, and every Hessian entry is 1.2e308."""
    return ek.SystemModel(state_dim=2, output_dim=1, dynamics=lambda x, t: 6e307 * x * x,
                          output=lambda x, t: x[:1].copy())


def _recording_plant(seen, analytic=True):
    """2-state plant whose Jacobian is non-finite for x[0] > 50; every state a
    callback receives is appended to ``seen``."""
    def dyn(x, t):
        seen.append(x.copy())
        return np.array([x[1], np.inf if x[0] > 50.0 else -x[0]])

    def jac_a(x, t):
        seen.append(x.copy())
        return np.array([[0.0, 1.0], [np.nan if x[0] > 50.0 else -1.0, 0.0]])

    return ek.SystemModel(state_dim=2, output_dim=1, dynamics=dyn,
                          output=lambda x, t: x[:1].copy(),
                          jacobian_A=jac_a if analytic else None,
                          jacobian_C=lambda x, t: np.array([[1.0, 0.0]]))


def _failure(fn):
    with pytest.raises(ek.ModelEvaluationError) as info:
        fn()
    return str(info.value), info.value.time


@pytest.mark.parametrize("analytic", [True, False])
@pytest.mark.parametrize("bad_jacobian_row, bad_state_row", [(2, 5), (5, 2)])
def test_stacked_jacobians_fail_at_the_first_row_like_the_per_point_loop(
        analytic, bad_jacobian_row, bad_state_row):
    X = np.tile([0.5, -0.3], (8, 1))
    X[bad_jacobian_row, 0] = 60.0
    X[bad_state_row, 1] = np.nan
    times = 0.1 * np.arange(8)
    seen = []
    model = _recording_plant(seen, analytic)

    def loop():
        with np.errstate(over="ignore", invalid="ignore"):
            for x, t in zip(X, times):
                _ref_eval_jacobians(model, x, float(t))

    expected = _failure(loop)
    seen.clear()
    assert _failure(lambda: _stacked_jacobians(model, X, times)) == expected
    assert seen and np.isfinite(seen).all()
    first = min(bad_jacobian_row, bad_state_row)
    assert expected[1] == times[first]


def test_stacked_hessians_fail_at_the_first_non_finite_row():
    seen = []
    model = _recording_plant(seen, analytic=False)
    X = np.tile([0.5, -0.3], (6, 1))
    X[1, 0] = 60.0
    X[3, 1] = np.inf
    message, time = _failure(lambda: _stacked_hessians(model, X, 0.4, "dynamics"))
    assert (message, time) == ("Hessian sample non-finite at t=0.4", 0.4)
    assert seen and np.isfinite(seen).all()
    seen.clear()
    assert _failure(lambda: ek.hessian_tensor(model, X[3], 0.4, "dynamics")) == (message, time)
    assert seen == []


@pytest.mark.parametrize("result, used_as_returned", [
    (np.array([0.5, -1.0]), True),
    ([0.5, -1.0], False),
    (np.array([[0.5], [-1.0]]), False),
    (np.array([0.5, -1.0], dtype=np.float32), False),
    (np.array([1, -1]), False),
])
def test_f_and_h_use_a_float64_result_of_the_declared_shape_as_returned(result,
                                                                        used_as_returned):
    """f and h hand back the callback's own float64 (n,) array and convert
    any other result of n entries to one."""
    model = ek.SystemModel(state_dim=2, output_dim=2, dynamics=lambda x, t: result,
                           output=lambda x, t: result)
    for y in (model.f(np.zeros(2), 0.0), model.h(np.zeros(2), 0.0)):
        assert (y is result) == used_as_returned
        assert y.dtype == np.float64 and y.shape == (2,)
        assert np.array_equal(y, np.asarray(result, dtype=float).reshape(-1))


@pytest.mark.parametrize("result", [np.zeros(3), np.zeros(1), np.zeros((2, 2))])
def test_f_and_h_reject_a_float64_result_of_another_size(result):
    """A float64 array of another size is not taken as returned."""
    model = ek.SystemModel(state_dim=2, output_dim=2, dynamics=lambda x, t: result,
                           output=lambda x, t: result)
    shape = rf"\({result.size},\), expected \(2,\)"
    with pytest.raises(ek.ConfigurationError, match="dynamics returned shape " + shape):
        model.f(np.zeros(2), 0.0)
    with pytest.raises(ek.ConfigurationError, match="output returned shape " + shape):
        model.h(np.zeros(2), 0.0)


def _wrong_jacobian_cases():
    """vanderpol-pos (n = 2, p = 1) with one Jacobian callback of the wrong
    size, and every entry point that reads it."""
    vdp = ek.make("vanderpol-pos").model
    x, eye = np.array([0.3, 0.2]), np.eye(2)
    fc = ek.FilterConfig(model=vdp, Q=eye, R=np.eye(1), P0=eye, x0=x, horizon=1.0, step=0.1)
    run = ek.integrate_ekf(fc, lambda t: np.zeros(1))
    calls = {
        "eval_jacobians": lambda m, which: ek.eval_jacobians(m, x, 0.0),
        "integrate_ekf": lambda m, which: ek.integrate_ekf(
            dataclasses.replace(fc, model=m), lambda t: np.zeros(1)),
        "variational_validator": lambda m, which: ek.variational_validator(m, run, x),
        "_stacked_jacobians": lambda m, which: _stacked_jacobians(m, np.tile(x, (3, 1)), 0.0),
        "hessian_tensor": lambda m, which: ek.hessian_tensor(m, x, 0.0, which),
        "empirical_radius": lambda m, which: ek.empirical_radius(
            m, x, eye, eye, np.eye(1), 0.1, 0.0),
    }
    faults = [("jacobian_A", np.array([0.0, 1.0]), "dynamics", r"\(2,\), expected \(2, 2\)"),
              ("jacobian_C", np.zeros(3), "output", r"\(3,\), expected \(1, 2\)")]
    return [pytest.param(dataclasses.replace(vdp, **{name: lambda x, t, v=value: v}), which,
                         call, f"{name} returned shape {shape}", id=f"{name}-{label}")
            for name, value, which, shape in faults for label, call in calls.items()]


@pytest.mark.parametrize("model, which, call, message", _wrong_jacobian_cases())
def test_a_jacobian_of_another_size_is_a_configuration_error(model, which, call, message):
    """Every reader of an analytic Jacobian names the callback and both shapes,
    on the one-point, stage and stacked paths alike."""
    with pytest.raises(ek.ConfigurationError, match=message):
        call(model, which)


@pytest.mark.parametrize("which", ["dynamics", "output"])
def test_finite_differences_of_a_map_of_another_size_name_the_map(which):
    """The stacked finite-difference paths read a map's results as f and h do."""
    model = ek.SystemModel(state_dim=2, output_dim=2, **{
        "dynamics": lambda x, t: x.copy(), "output": lambda x, t: x.copy(),
        which: lambda x, t: np.zeros(3)})
    message = rf"{which} returned shape \(3,\), expected \(2,\)"
    for call in (lambda: ek.eval_jacobians(model, np.ones(2), 0.0),
                 lambda: ek.hessian_tensor(model, np.ones(2), 0.0, which)):
        with pytest.raises(ek.ConfigurationError, match=message):
            call()


@pytest.mark.parametrize("call", [
    lambda m, x: ek.eval_jacobians(m, x, 0.4),
    lambda m, x: _stacked_jacobians(m, np.vstack((x, -x, 2.0 * x)), 0.4),
    lambda m, x: tuple(ek.hessian_tensor(m, x, 0.4, which) for which in ("dynamics", "output")),
], ids=["eval_jacobians", "_stacked_jacobians", "hessian_tensor"])
def test_a_finite_difference_plant_returning_columns_equals_its_flat_twin(call):
    """Every result of a stack is read by the one reader, so maps returning
    (n, 1) and (p, 1) columns give the bits of their (n,) and (p,) twins."""
    vdp = ek.make("vanderpol-pos").model
    flat = ek.SystemModel(state_dim=2, output_dim=1, dynamics=vdp.dynamics, output=vdp.output)
    column = ek.SystemModel(state_dim=2, output_dim=1,
                            dynamics=lambda x, t: vdp.dynamics(x, t).reshape(-1, 1),
                            output=lambda x, t: vdp.output(x, t).reshape(-1, 1))
    x = np.array([0.3, 0.2])
    for got, want in zip(call(column, x), call(flat, x)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("call", [
    lambda m: _stacked_jacobians(m, np.array([[0.3, 0.2], [-0.3, 0.2]]), 0.0),
    lambda m: ek.hessian_tensor(m, np.array([0.0, 0.2]), 0.0, "dynamics"),
    lambda m: ek.empirical_radius(m, np.array([0.3, 0.2]), np.eye(2), np.eye(2), np.eye(1),
                                  0.1, 0.0),
], ids=["_stacked_jacobians", "hessian_tensor", "empirical_radius"])
def test_a_later_result_of_another_size_is_a_configuration_error(call):
    """A jacobian_A that returns (2, 2) for x[0] >= 0 and (2,) after: the later
    rows of a stack are read as the first, not broadcast into (2, 2)."""
    vdp = ek.make("vanderpol-pos").model
    mixed = dataclasses.replace(
        vdp, jacobian_A=lambda x, t: np.array([1.0, 0.0]) if x[0] < 0.0 else np.eye(2))
    with pytest.raises(ek.ConfigurationError,
                       match=r"^jacobian_A returned shape \(2,\), expected \(2, 2\)$"):
        call(mixed)
