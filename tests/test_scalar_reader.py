"""Every public entry point reads its scalar arguments through one reader.

A bound, rate, radius, count or seed that breaks its rule (NaN, an infinity
where the rule wants a finite value, a negative, a zero where it wants a
positive value, a fraction where it wants a whole number, a boolean or a
string) is a ConfigurationError that names the argument. The boundary values
of each rule are accepted: 0 where it is nonnegative, +inf where README
allows it (alpha, the kappas and c_hi).
"""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ekfcert as ek
from ekfcert.model import MAX_COUNT, SIGN_FREE_RULE, _scalar

MODEL = ek.make("vanderpol-pos").model   # n = 2, linear output
LTV = ek.make("ltv-linear").model        # n = 2, its plant reads the time
N = MODEL.state_dim
P, Q, R = np.array([[1.0, 0.2], [0.2, 0.8]]), np.eye(2), np.eye(1)
GOOD = np.array([0.3, 0.2])
RUN = ek.integrate_ekf(ek.FilterConfig(model=MODEL, Q=Q, R=R, P0=P, x0=GOOD,
                                       horizon=0.2, step=0.05), lambda t: np.array([0.3]))
QUIET = ek.Disturbance(b=lambda x, t: np.zeros(N), b_max=0.0)
DISTURBED = ek.integrate_ekf(RUN.config, lambda t: np.array([0.3]), starts=[GOOD],
                             disturbance=QUIET)
BOUNDS = {"p_lo": 0.5, "p_hi": 1.0, "q_lo": 1.0, "r_lo": 1.0}
HESS = ek.HessianBounds(alpha=1.0, kappa_A=1.0, kappa_C=1.0)
SPECTRAL = dict(BOUNDS, kappa_A=1.0, kappa_C=1.0)
BOUNDED = dataclasses.replace(RUN, p_lo=0.5, p_hi=1.0)   # q_lo = r_lo = 1 from Q and R
SERIES = ek.TimeSeries([0.0, 1.0], [[1.0], [2.0]])

POS_FIN, NONNEG_FIN = "positive and finite", "nonnegative and finite"
POS, NONNEG = "positive", "nonnegative"   # +inf included
FIN = "finite"   # of either sign: every time
POS_INT, NONNEG_INT = "a positive integer", "a nonnegative integer"
POS_COUNT, NONNEG_COUNT = (f"{rule} at most {MAX_COUNT}" for rule in (POS_INT, NONNEG_INT))
INTS = {POS_INT, NONNEG_INT, POS_COUNT, NONNEG_COUNT}
RULES = {POS_FIN, NONNEG_FIN, POS, NONNEG, FIN} | INTS


def _config(**override):
    return ek.FilterConfig(**{**dict(model=MODEL, Q=Q, R=R, P0=P, x0=GOOD, horizon=0.2,
                                     step=0.05), **override})


def _hessian_bounds(**override):
    return ek.estimate_hessian_bounds(MODEL, [GOOD], 0.0, **{
        **dict(radius=0.1, direction_samples=2, output_direction_samples=2), **override})


def _certificate(name, value, gamma=None):
    """make_certificate on BOUNDED with the bound ``name`` set to ``value``: p_lo and p_hi are
    fields of the run, q_lo and r_lo of its config, set on a copy since FilterConfig derives
    them from Q and R."""
    if name in ("q_lo", "r_lo"):
        config = copy.copy(RUN.config)
        setattr(config, name, value)
        return ek.make_certificate(dataclasses.replace(BOUNDED, config=config), HESS, gamma)
    return ek.make_certificate(dataclasses.replace(BOUNDED, **{name: value}), HESS, gamma)


def _radius(**override):
    return ek.empirical_radius(MODEL, GOOD, P, Q, R, **{
        **dict(gamma=0.1, t=0.0, direction_samples=2), **override})


# (entry point, argument, its rule, call with the value v at that argument)
ENTRY_POINTS = [
    ("time_grid", "horizon", POS_FIN, lambda v: ek.time_grid(v, 0.05)),
    ("time_grid", "step", POS_FIN, lambda v: ek.time_grid(1.0, v)),
    ("FilterConfig", "horizon", POS_FIN, lambda v: _config(horizon=v, step=None)),
    ("FilterConfig", "step", POS_FIN, lambda v: _config(step=v)),
    ("FilterConfig", "beta", NONNEG_FIN, lambda v: _config(beta=v)),
    ("riccati_rhs", "beta", NONNEG_FIN, lambda v: ek.riccati_rhs(P, -np.eye(2), np.ones((1, 2)),
                                                                 Q, R, beta=v)),
    ("integrate_truth", "horizon", POS_FIN, lambda v: ek.integrate_truth(MODEL, GOOD, v, 0.05)),
    ("integrate_truth", "step", POS_FIN, lambda v: ek.integrate_truth(MODEL, GOOD, 0.2, v)),
    ("SystemModel", "state_dim", POS_INT,
     lambda v: ek.SystemModel(v, 1, MODEL.dynamics, MODEL.output)),
    ("SystemModel", "output_dim", POS_INT,
     lambda v: ek.SystemModel(2, v, MODEL.dynamics, MODEL.output)),
    ("HessianBounds", "alpha", POS, lambda v: ek.HessianBounds(alpha=v, kappa_A=1.0, kappa_C=1.0)),
    ("HessianBounds", "kappa_A", NONNEG,
     lambda v: ek.HessianBounds(alpha=1.0, kappa_A=v, kappa_C=1.0)),
    ("HessianBounds", "kappa_C", NONNEG,
     lambda v: ek.HessianBounds(alpha=1.0, kappa_A=1.0, kappa_C=v)),
    ("estimate_hessian_bounds", "radius", POS_FIN, lambda v: _hessian_bounds(radius=v)),
    ("estimate_hessian_bounds", "safety", NONNEG_FIN, lambda v: _hessian_bounds(safety=v)),
    ("estimate_hessian_bounds", "direction_samples", NONNEG_COUNT,
     lambda v: _hessian_bounds(direction_samples=v)),
    ("estimate_hessian_bounds", "output_direction_samples", NONNEG_COUNT,
     lambda v: _hessian_bounds(output_direction_samples=v)),
    ("estimate_hessian_bounds", "max_centers", POS_COUNT,
     lambda v: _hessian_bounds(max_centers=v)),
    ("estimate_hessian_bounds", "seed", NONNEG_INT, lambda v: _hessian_bounds(seed=v)),
    ("empirical_radius", "gamma", NONNEG_FIN, lambda v: _radius(gamma=v)),
    ("empirical_radius", "direction_samples", NONNEG_COUNT,
     lambda v: _radius(direction_samples=v)),
    ("empirical_radius", "seed", NONNEG_INT, lambda v: _radius(seed=v)),
    ("check_contraction_inequality", "gamma", NONNEG_FIN,
     lambda v: ek.check_contraction_inequality(MODEL, GOOD, GOOD, P, Q, R, v, 0.0)),
    ("linear_output_check", "gamma", NONNEG_FIN,
     lambda v: ek.linear_output_check(RUN, [GOOD], v)),
    ("inflation_rate_gain", "gamma", NONNEG_FIN,
     lambda v: ek.inflation_rate_gain(-np.eye(2), P, 0.1 * np.eye(2), v)),
    *[("zeta_plus", name, rule, lambda v, i=i: ek.zeta_plus(
        *[v if j == i else a for j, a in enumerate((1.0, 1.0, 1.0, 1.0, 1.0, 0.1))]))
      for i, (name, rule) in enumerate([("kappa_A", NONNEG), ("kappa_C", NONNEG),
                                        ("p_hi", POS_FIN), ("q_lo", POS_FIN),
                                        ("r_lo", POS_FIN), ("gamma", NONNEG_FIN)])],
    *[("make_certificate", name, POS_FIN, lambda v, name=name: _certificate(name, v))
      for name in BOUNDS],
    ("make_certificate", "gamma", NONNEG_FIN, lambda v: ek.make_certificate(BOUNDED, HESS, v)),
    *[("compare_analyses", name, rule,
       lambda v, name=name: ek.compare_analyses(**dict(SPECTRAL, **{name: v})))
      for name, rule in [("p_lo", POS_FIN), ("p_hi", POS_FIN), ("q_lo", POS_FIN),
                         ("r_lo", POS_FIN), ("kappa_A", NONNEG), ("kappa_C", NONNEG)]],
    ("compare_analyses", "c_hi", POS, lambda v: ek.compare_analyses(**SPECTRAL, c_hi=v)),
    ("Disturbance", "b_max", NONNEG_FIN, lambda v: ek.Disturbance(b=QUIET.b, b_max=v)),
    ("perturbed_run", "gamma", POS_FIN,
     lambda v: ek.perturbed_run(DISTURBED, gamma=v)),
    ("eval_jacobians", "t", FIN, lambda v: ek.eval_jacobians(LTV, GOOD, v)),
    ("TimeSeries.at", "t", FIN, lambda v: SERIES.at(v)),
    ("hessian_tensor", "t", FIN, lambda v: ek.hessian_tensor(LTV, GOOD, v, "dynamics")),
    ("contraction_matrix", "t", FIN,
     lambda v: ek.contraction_matrix(LTV, GOOD, GOOD, P, Q, R, v)),
    ("check_contraction_inequality", "t", FIN,
     lambda v: ek.check_contraction_inequality(LTV, GOOD, GOOD, P, Q, R, 0.1, v)),
    ("empirical_radius", "t", FIN, lambda v: _radius(t=v)),
    ("estimate_hessian_bounds", "times", FIN, lambda v: ek.estimate_hessian_bounds(
        LTV, [GOOD], v, 0.1, direction_samples=2, output_direction_samples=2)),
]
IDS = [f"{entry}-{name}" for entry, name, _, _ in ENTRY_POINTS]

# (values, the rules they break)
BAD = [
    (st.just(math.nan), RULES),
    (st.just(-math.inf), RULES),
    (st.just(math.inf), {POS_FIN, NONNEG_FIN, FIN} | INTS),
    (st.floats(-1e6, -1e-6) | st.integers(-10 ** 6, -1), RULES - {FIN}),
    (st.sampled_from([0, 0.0]), {POS_FIN, POS, POS_INT, POS_COUNT}),
    (st.floats(0.01, 100.0).filter(lambda x: not x.is_integer()), INTS),
    (st.just(True), RULES),
    (st.just("1"), RULES),
]


def _breaking(rule):
    return st.one_of([values for values, breaks in BAD if rule in breaks])


@pytest.mark.parametrize("entry, name, rule, call", ENTRY_POINTS, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_scalar_that_breaks_its_rule_is_a_configuration_error_naming_it(entry, name, rule,
                                                                           call, data):
    value = data.draw(_breaking(rule))
    with pytest.raises(ek.ConfigurationError) as refused:
        call(value)
    shown = repr(value) if isinstance(value, str) else str(value)
    assert str(refused.value) == f"{name} must be {rule}, got {shown}"


BOUNDARY = [(entry, name, call, value) for entry, name, rule, call in ENTRY_POINTS
            for value in ([0, 0.0] if rule.startswith(("nonnegative", "a nonnegative")) else [])
            + ([math.inf] if rule in (POS, NONNEG) else [])
            + ([-2.5, 0, 1e300] if rule == FIN else [])]


@pytest.mark.parametrize("entry, name, call, value", BOUNDARY,
                         ids=[f"{e}-{n}-{v}" for e, n, _, v in BOUNDARY])
def test_the_boundary_of_each_rule_is_accepted(entry, name, call, value):
    call(value)


@pytest.mark.parametrize("call, message", [
    (lambda: _certificate("p_lo", math.nan), "p_lo must be positive and finite, got nan"),
    (lambda: _certificate("r_lo", math.inf), "r_lo must be positive and finite, got inf"),
    (lambda: _certificate("p_hi", math.inf), "p_hi must be positive and finite, got inf"),
    (lambda: _radius(seed=-1), "seed must be a nonnegative integer, got -1"),
    (lambda: _hessian_bounds(seed=-1), "seed must be a nonnegative integer, got -1"),
    (lambda: _hessian_bounds(max_centers=2.5),
     "max_centers must be a positive integer at most 1000000, got 2.5"),
    (lambda: _hessian_bounds(max_centers=math.nan),
     "max_centers must be a positive integer at most 1000000, got nan"),
    (lambda: _hessian_bounds(direction_samples=-3),
     "direction_samples must be a nonnegative integer at most 1000000, got -3"),
    (lambda: _radius(gamma=math.inf), "gamma must be nonnegative and finite, got inf"),
    (lambda: ek.check_contraction_inequality(MODEL, GOOD, GOOD, P, Q, R, math.inf, 0.0),
     "gamma must be nonnegative and finite, got inf"),
    (lambda: ek.inflation_rate_gain(-np.eye(2), P, np.eye(2), -1.0),
     "gamma must be nonnegative and finite, got -1.0"),
    (lambda: ek.time_grid(1.0, math.inf), "step must be positive and finite, got inf"),
    (lambda: ek.time_grid(10 ** 400, 0.1),
     f"horizon must be positive and finite, got {10 ** 400}"),
    (lambda: ek.hessian_tensor(MODEL, GOOD, 0.0, "bad"), "unknown map selector 'bad'"),
    (lambda: ek.zeta_plus(0.0, 0.0, 1.0, 1.0, 1.0, 0.5 + 1e-11),
     "gamma = 0.50000000001 outside [0, q_lo/(2 p_hi)] = [0, 0.5]"),
    # a time the plant reads: a string or None ended in the plant, True ran as 1 and NaN
    # blamed the Jacobian
    *[(lambda t=t: ek.eval_jacobians(LTV, GOOD, t), f"t must be finite, got {shown}")
      for t, shown in [("x", "'x'"), (None, "None"), (True, "True"), (math.nan, "nan")]],
    (lambda: ek.hessian_tensor(LTV, GOOD, None, "output"), "t must be finite, got None"),
    (lambda: ek.contraction_matrix(LTV, GOOD, GOOD, P, Q, R, "x"), "t must be finite, got 'x'"),
    # a time series read at a time: a string or None ended in numpy, NaN gave [nan], and
    # inf and True read as times
    *[(lambda t=t: SERIES.at(t), f"t must be finite, got {shown}")
      for t, shown in [("x", "'x'"), (None, "None"), (math.nan, "nan"), (math.inf, "inf"),
                       (True, "True")]],
    # many times: every entry is read, and a bad one names the argument with its values
    (lambda: ek.estimate_hessian_bounds(LTV, [GOOD] * 3, [0.0, 0.1, math.nan], 0.1),
     "times must be finite, got [0.0, 0.1, nan]"),
    (lambda: ek.estimate_hessian_bounds(LTV, [GOOD] * 2, [0.0, True], 0.1),
     "times must be numeric, got [0.0, True]"),
    (lambda: ek.empirical_radius(LTV, [GOOD] * 2, [P] * 2, Q, R, 0.1, [0.0, -math.inf]),
     "t must be finite, got [0.0, -inf]"),
    (lambda: ek.empirical_radius(LTV, [GOOD] * 2, [P] * 2, Q, R, 0.1, ["0", "1"]),
     "t must be numeric, got ['0', '1']"),
    (lambda: SERIES.at([0.5, math.nan]), "t must be finite, got [0.5, nan]"),
    (lambda: SERIES.at([0.5, True]), "t must be numeric, got [0.5, True]"),
])
def test_each_reproduced_gap_is_refused_naming_its_argument(call, message):
    with pytest.raises(ek.ConfigurationError) as refused:
        call()
    assert str(refused.value) == message


@pytest.mark.parametrize("entry, name, rule, call", ENTRY_POINTS, ids=IDS)
def test_a_zero_dimensional_array_is_read_as_its_one_entry(entry, name, rule, call):
    """A 0-d array of a real, non-boolean dtype is its entry, so NaN is refused as NaN is;
    a 0-d boolean or string array is refused."""
    for value in (math.nan, True, "1"):
        with pytest.raises(ek.ConfigurationError) as refused:
            call(np.array(value))
        shown = value if isinstance(value, float) else repr(np.array(value))
        assert str(refused.value) == f"{name} must be {rule}, got {shown}"


@pytest.mark.parametrize("entry, name, call, value", BOUNDARY,
                         ids=[f"{e}-{n}-{v}" for e, n, _, v in BOUNDARY])
def test_the_boundary_of_each_rule_is_accepted_as_a_zero_dimensional_array(entry, name, call,
                                                                           value):
    call(np.array(value))


def test_a_zero_dimensional_array_gives_the_results_of_its_entry():
    """They raised "t must be finite, got array(0.5)" and "horizon must be positive and
    finite, got array(0.2)", though their one entry meets the rule."""
    assert SERIES.at(np.array(0.5)).tolist() == SERIES.at(0.5).tolist() == [1.5]
    assert all(np.array_equal(a, b) for a, b in zip(ek.eval_jacobians(LTV, GOOD, np.array(0.5)),
                                                    ek.eval_jacobians(LTV, GOOD, 0.5)))
    config = _config(horizon=np.array(0.2, dtype=np.float32), step=np.array(0.05))
    assert (config.horizon, config.step) == (float(np.float32(0.2)), 0.05)
    assert type(config.horizon) is float
    assert _scalar(np.array(3, dtype=np.uint8), "seed") == 3
    assert type(_scalar(np.array(3, dtype=np.uint8), "seed")) is int


def test_an_integral_count_reads_as_the_integer():
    assert (_hessian_bounds(max_centers=2.0, seed=3.0).kappa_A
            == _hessian_bounds(max_centers=2, seed=3).kappa_A)
    assert _radius(direction_samples=4.0, seed=np.int64(2)) == _radius(direction_samples=4, seed=2)


def _unreachable(*args, **kwargs):
    raise AssertionError("the allocation was reached")


@pytest.mark.parametrize("name, call", [
    ("direction_samples", lambda v: _hessian_bounds(direction_samples=v)),
    ("output_direction_samples", lambda v: _hessian_bounds(output_direction_samples=v)),
    ("max_centers", lambda v: _hessian_bounds(max_centers=v)),
    ("direction_samples", lambda v: _radius(direction_samples=v)),
])
@pytest.mark.parametrize("value", [MAX_COUNT + 1, 1e300, 10 ** 400])
def test_a_count_above_its_cap_is_refused_before_the_directions_are_drawn(monkeypatch, name,
                                                                          call, value):
    monkeypatch.setattr(np.random, "default_rng", _unreachable)
    with pytest.raises(ek.ConfigurationError) as refused:
        call(value)
    assert str(refused.value) == f"{name} must be {_RULES_OF[name]}, got {value}"


_RULES_OF = {"direction_samples": NONNEG_COUNT, "output_direction_samples": NONNEG_COUNT,
             "max_centers": POS_COUNT}


@pytest.mark.parametrize("name", ["direction_samples", "output_direction_samples",
                                  "max_centers", "radius_times"])
def test_a_count_at_its_cap_is_accepted(name):
    assert _scalar(MAX_COUNT, name) == _scalar(float(MAX_COUNT), name) == MAX_COUNT


@pytest.mark.parametrize("call", [
    lambda horizon, step: ek.time_grid(horizon, step),
    lambda horizon, step: _config(horizon=horizon, step=step),
    lambda horizon, step: ek.integrate_truth(MODEL, GOOD, horizon, step),
], ids=["time_grid", "FilterConfig", "integrate_truth"])
@pytest.mark.parametrize("horizon, step", [
    (1e10, 5e-324),   # horizon / step overflows to inf
    (0.1, 0.1 / (MAX_COUNT + 1)),
])
def test_a_grid_of_more_than_max_count_steps_is_refused_before_it_is_allocated(
        monkeypatch, call, horizon, step):
    monkeypatch.setattr(np, "linspace", _unreachable)
    with pytest.raises(ek.ConfigurationError) as refused:
        call(horizon, step)
    assert str(refused.value) == (f"horizon / step must be at most {MAX_COUNT} steps, "
                                  f"got horizon {horizon!r} and step {step!r}")


def test_a_grid_of_max_count_steps_is_accepted():
    assert _config(horizon=0.1, step=0.1 / MAX_COUNT).step == 0.1 / MAX_COUNT
    assert len(ek.time_grid(0.1, 0.1 / MAX_COUNT)) == MAX_COUNT + 1


@settings(max_examples=50, deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10 ** 300, 10 ** 300))
def test_the_sign_free_rule_takes_any_finite_number(value):
    assert _scalar(value, "system.params.eps", SIGN_FREE_RULE) == float(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400, True,
                                   "0.1", [0.1], None, 1 + 0j])
def test_the_sign_free_rule_refuses_what_is_not_a_finite_real_number(value):
    with pytest.raises(ek.ConfigurationError) as refused:
        _scalar(value, "perturb.freq", SIGN_FREE_RULE)
    shown = str(value) if isinstance(value, (int, float)) else repr(value)
    assert str(refused.value) == f"perturb.freq must be finite, got {shown}"


def test_every_time_is_read_before_any_is_used():
    """A bad last time is refused before the plant sees the first."""
    def unreachable(x, t):
        raise AssertionError("a callback was reached")
    model = ek.SystemModel(2, 1, unreachable, unreachable, unreachable, unreachable)
    with pytest.raises(ek.ConfigurationError,
                       match=r"^times must be finite, got \[0\.0, 0\.1, nan\]$"):
        ek.estimate_hessian_bounds(model, [GOOD] * 3, [0.0, 0.1, math.nan], 0.1)
    with pytest.raises(ek.ConfigurationError, match=r"^t must be finite, got \[0\.0, nan\]$"):
        ek.empirical_radius(model, [GOOD] * 2, [P] * 2, Q, R, 0.1, [0.0, math.nan])
