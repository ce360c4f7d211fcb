import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ekfcert as ek
from ekfcert.model import CBRT_EPS, _unit_directions


def _scalar_model(f, h=None, jac_a=None, jac_c=None, fd_step=None):
    return ek.SystemModel(
        state_dim=1, output_dim=1,
        dynamics=lambda x, t: np.atleast_1d(f(x[0])),
        output=(lambda x, t: np.atleast_1d(h(x[0]))) if h else (lambda x, t: x.copy()),
        jacobian_A=jac_a, jacobian_C=jac_c, fd_step=fd_step)


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
    m = _scalar_model(np.sin, fd_step=1e-5)
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


def test_tilde_matrices_vanish_at_identical_points():
    model = ek.make("vanderpol-pos").model
    x = np.array([0.7, -0.2])
    At, Ct = ek.tilde_matrices(model, x, x, 0.0)
    assert np.all(At == 0.0)
    assert np.all(Ct == 0.0)


def test_tilde_matrices_vanish_for_linear_dynamics():
    model = ek.make("ltv-linear").model
    At, Ct = ek.tilde_matrices(model, np.array([5.0, 1.0]),
                               np.array([-2.0, 0.3]), 1.2)
    assert np.all(At == 0.0)
    assert np.all(Ct == 0.0)


def test_tilde_matrices_cubic_hand_value():
    m = _scalar_model(lambda x: x ** 3,
                      jac_a=lambda x, t: np.array([[3.0 * x[0] ** 2]]),
                      jac_c=lambda x, t: np.ones((1, 1)))
    At, _ = ek.tilde_matrices(m, np.array([1.0]), np.array([0.0]), 0.0)
    assert abs(At[0, 0] - 3.0) < 1e-12


def test_tilde_matrices_antisymmetric():
    model = ek.make("vanderpol-pos").model
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.uniform(-2, 2, size=2)
        xh = rng.uniform(-2, 2, size=2)
        A1, C1 = ek.tilde_matrices(model, z, xh, 0.4)
        A2, C2 = ek.tilde_matrices(model, xh, z, 0.4)
        assert np.array_equal(A1, -A2)
        assert np.array_equal(C1, -C2)


def test_hessian_tensor_vanderpol_entries():
    entry = ek.make("vanderpol-pos", mu=0.15)
    H = ek.hessian_tensor(entry.model, np.array([1.0, 2.0]), 0.0, "dynamics")
    mu = entry.params["mu"]
    expected = np.array([[-2 * mu * 2.0, -2 * mu * 1.0], [-2 * mu * 1.0, 0.0]])
    assert np.allclose(H[0], 0.0, atol=1e-9)
    assert np.allclose(H[1], expected, atol=1e-7)


def test_hessian_bounds_zero_for_linear_systems():
    for name in ("scalar-riccati", "ltv-linear"):
        model = ek.make(name).model
        hb = ek.estimate_hessian_bounds(
            model, [(np.zeros(model.state_dim), 0.0)], 1.0)
        assert hb.kappa_A == 0.0
        assert hb.kappa_C == 0.0
        assert hb.sampled


def test_hessian_bounds_sine_ball():
    # sup of |sin| over [-pi/2, pi/2] is 1, attained at the edges
    m = _scalar_model(np.sin)
    hb = ek.estimate_hessian_bounds(m, [(np.zeros(1), 0.0)], np.pi / 2,
                                    safety=1.0)
    assert abs(hb.kappa_A - 1.0) < 0.03
    assert hb.kappa_C < 1e-6


def test_hessian_bounds_cubic_matches_closed_form():
    entry = ek.make("cubic-scalar", eps=0.1)
    hb = ek.estimate_hessian_bounds(entry.model, [(np.zeros(1), 0.0)], 2.0,
                                    safety=1.0)
    exact = entry.analytic["kappa_A"](2.0)
    assert abs(hb.kappa_A - exact) <= 0.1 * exact
    assert hb.kappa_C == 0.0


def test_hessian_bounds_monotone_in_radius():
    model = ek.make("cubic-scalar", eps=0.1).model
    small = ek.estimate_hessian_bounds(model, [(np.zeros(1), 0.0)], 0.5)
    large = ek.estimate_hessian_bounds(model, [(np.zeros(1), 0.0)], 1.0)
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
        ek.estimate_hessian_bounds(model, [(np.zeros(1), 0.0)], 0.0)
    with pytest.raises(ek.ConfigurationError):
        ek.estimate_hessian_bounds(model, [], 1.0)


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


def test_hessian_bounds_match_per_point_loop():
    model = ek.make("vanderpol-pos", mu=0.15).model
    path = [(np.array([0.3, 0.2]), 0.0), (np.array([-0.5, 1.0]), 1.0)]
    hb = ek.estimate_hessian_bounds(model, path, 0.5, seed=4)
    rng = np.random.default_rng(4)
    state_dirs = _unit_directions(2, 32, rng)
    out_f = _unit_directions(2, 32, rng)
    out_h = _unit_directions(1, 32, rng)
    ka = kc = 0.0
    for xc, t in path:
        for r in np.linspace(0.0, 0.5, 5):
            for x in [xc] if r == 0.0 else [xc + r * u for u in state_dirs]:
                ka = max(ka, _tensor_norm_loop(ek.hessian_tensor(model, x, t, "dynamics"), out_f))
                kc = max(kc, _tensor_norm_loop(ek.hessian_tensor(model, x, t, "output"), out_h))
    assert (hb.kappa_A, hb.kappa_C) == (1.1 * ka, 1.1 * kc)


def test_hessian_bounds_eigvalsh_calls_independent_of_directions(eigvalsh_calls):
    model = ek.make("vanderpol-pos", mu=0.15).model
    path = [(np.array([0.3, 0.2]), 0.1 * k) for k in range(3)]
    counts = []
    for samples in (8, 64):
        eigvalsh_calls[0] = 0
        ek.estimate_hessian_bounds(model, path, 0.5, output_direction_samples=samples)
        counts.append(eigvalsh_calls[0])
    # one stacked call per centre for f and one for h
    assert counts == [2 * len(path), 2 * len(path)]


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
                          jacobian_C=jac_c if analytic else None,
                          fd_step=None if analytic else 1e-5)


def test_central_differences_match_the_former_per_map_loops():
    rng = np.random.default_rng(11)
    plants = ([e.model for e in ek.registry()]
              + [_ad_hoc_plant(analytic=True), _ad_hoc_plant(analytic=False)])
    for model in plants:
        n, p = model.state_dim, model.output_dim
        bare = ek.SystemModel(state_dim=n, output_dim=p, dynamics=model.dynamics,
                              output=model.output, fd_step=model.fd_step)
        for _ in range(200):
            x = rng.uniform(-2.0, 2.0, size=n)
            t = float(rng.uniform(0.0, 5.0))
            step = CBRT_EPS * max(1.0, float(np.linalg.norm(x)))
            fd_step = step if bare.fd_step is None else bare.fd_step
            A, C = ek.eval_jacobians(bare, x, t)
            assert np.array_equal(A, _old_fd_jacobian(bare.f, x, t, n, fd_step))
            assert np.array_equal(C, _old_fd_jacobian(bare.h, x, t, p, fd_step))
            if model.jacobian_A is not None:
                assert np.array_equal(
                    ek.hessian_tensor(model, x, t, "dynamics"),
                    _old_hessian_from_jacobian(model.jacobian_A, x, t, n, step))
                assert np.array_equal(
                    ek.hessian_tensor(model, x, t, "output"),
                    _old_hessian_from_jacobian(model.jacobian_C, x, t, p, step))
