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
from ekfcert.model import MAX_COUNT, _scalar

MODEL = ek.make("vanderpol-pos").model   # n = 2, linear output
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

POS_FIN, NONNEG_FIN = "positive and finite", "nonnegative and finite"
POS, NONNEG = "positive", "nonnegative"   # +inf included
POS_INT, NONNEG_INT = "a positive integer", "a nonnegative integer"
POS_COUNT, NONNEG_COUNT = (f"{rule} at most {MAX_COUNT}" for rule in (POS_INT, NONNEG_INT))
INTS = {POS_INT, NONNEG_INT, POS_COUNT, NONNEG_COUNT}
RULES = {POS_FIN, NONNEG_FIN, POS, NONNEG} | INTS


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
]
IDS = [f"{entry}-{name}" for entry, name, _, _ in ENTRY_POINTS]

# (values, the rules they break)
BAD = [
    (st.just(math.nan), RULES),
    (st.just(-math.inf), RULES),
    (st.just(math.inf), {POS_FIN, NONNEG_FIN} | INTS),
    (st.floats(-1e6, -1e-6) | st.integers(-10 ** 6, -1), RULES),
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
            + ([math.inf] if rule in (POS, NONNEG) else [])]


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
])
def test_each_reproduced_gap_is_refused_naming_its_argument(call, message):
    with pytest.raises(ek.ConfigurationError) as refused:
        call()
    assert str(refused.value) == message


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
