"""Every public entry point reads its state vectors and arrays through one reader.

A wrong length, a NaN or infinite entry, a string, a boolean at any depth or
ragged rows is a ConfigurationError that names the argument, and an (n, 1)
column reads as the (n,) vector it holds, with bit-equal results. Every other
array argument (weights, time series, inflation matrices, tensors) takes the
same numeric rule.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ekfcert as ek

MODEL = ek.make("vanderpol-pos").model   # n = 2, linear output
N = MODEL.state_dim
P, Q, R = np.array([[1.0, 0.2], [0.2, 0.8]]), np.eye(2), np.eye(1)
GOOD = np.array([0.3, 0.2])
RUN = ek.integrate_ekf(ek.FilterConfig(model=MODEL, Q=Q, R=R, P0=P, x0=GOOD,
                                       horizon=0.2, step=0.05), lambda t: np.array([0.3]))


# (entry point, argument name in the message, call with the value v at that argument);
# each call returns arrays or floats to compare bit for bit
ENTRY_POINTS = [
    ("FilterConfig", "x0", lambda v: ek.FilterConfig(
        model=MODEL, Q=Q, R=R, P0=P, x0=v, horizon=0.2).x0),
    ("integrate_truth", "x0", lambda v: ek.integrate_truth(MODEL, v, 0.2, 0.05).values),
    ("integrate_ekf", "x0", lambda v: ek.integrate_ekf(RUN.config, x0=v).truth),
    ("integrate_ekf", "starts[1]",
     lambda v: ek.integrate_ekf(RUN.config, x0=GOOD, starts=[GOOD, v]).virtual),
    ("integrate_ekf", "starts[0]",
     lambda v: ek.integrate_ekf(RUN.config, lambda t: np.array([0.3]), starts=[v]).virtual),
    ("variational_validator", "z0", lambda v: ek.variational_validator(MODEL, RUN, v)),
    ("variational_validator", "dz0",
     lambda v: ek.variational_validator(MODEL, RUN, GOOD, dz0=v)),
    ("empirical_radius", "xhat",
     lambda v: ek.empirical_radius(MODEL, v, P, Q, R, 0.1, 0.0, direction_samples=2)),
    ("contraction_matrix", "z", lambda v: ek.contraction_matrix(MODEL, v, GOOD, P, Q, R, 0.0)),
    ("contraction_matrix", "xhat",
     lambda v: ek.contraction_matrix(MODEL, GOOD, v, P, Q, R, 0.0)),
    ("check_contraction_inequality", "z",
     lambda v: ek.check_contraction_inequality(MODEL, v, GOOD, P, Q, R, 0.1, 0.0)),
    ("check_contraction_inequality", "xhat",
     lambda v: ek.check_contraction_inequality(MODEL, GOOD, v, P, Q, R, 0.1, 0.0)),
    ("linear_output_check", "sample_states[1]",
     lambda v: ek.linear_output_check(RUN, [GOOD, v], 0.1)["worst_margin"]),
    ("estimate_hessian_bounds", "states[1]", lambda v: ek.estimate_hessian_bounds(
        MODEL, [GOOD, v], [0.0, 0.1], 0.1, direction_samples=2,
        output_direction_samples=2).kappa_A),
]
IDS = [f"{entry}-{name}" for entry, name, _ in ENTRY_POINTS]

finite = st.floats(-1.0, 1.0)
wrong_length = st.integers(0, 5).filter(lambda k: k != N).flatmap(
    lambda k: st.tuples(st.lists(finite, min_size=k, max_size=k),
                        st.just(re.escape(f"must have shape ({N},), got ({k},)"))))
non_finite = st.tuples(st.lists(finite, min_size=N, max_size=N),
                       st.sampled_from([math.nan, math.inf, -math.inf]),
                       st.integers(0, N - 1)).map(
    lambda a: (a[0][:a[2]] + [a[1]] + a[0][a[2] + 1:], "must be finite"))
text = st.tuples(st.text(max_size=4), st.just("must be numeric"))
# a real number in every place but one, at any depth: booleans hide in a float array
not_real = st.tuples(st.lists(finite, min_size=N, max_size=N),
                     st.sampled_from([True, False, "1", 1 + 0j, None, 10 ** 400]),
                     st.integers(0, N - 1), st.booleans()).map(
    lambda a: (a[0][:a[2]] + [[a[1]] if a[3] else a[1]] + a[0][a[2] + 1:], "must be numeric"))
ragged = st.tuples(st.lists(st.lists(finite, min_size=1, max_size=3), min_size=2, max_size=3)
                   .filter(lambda rows: len({len(r) for r in rows}) > 1),
                   st.just("must be numeric"))


@pytest.mark.parametrize("entry, name, call", ENTRY_POINTS, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(bad=st.one_of(wrong_length, non_finite, text, not_real, ragged))
def test_a_bad_state_is_a_configuration_error_naming_its_argument(entry, name, call, bad):
    value, message = bad
    with pytest.raises(ek.ConfigurationError, match=rf"^{re.escape(name)} {message}"):
        call(value)


def _bits(result):
    if isinstance(result, tuple):
        return tuple(_bits(r) for r in result)
    return np.asarray(result).tobytes()


@pytest.mark.parametrize("entry, name, call", ENTRY_POINTS, ids=IDS)
@settings(max_examples=5, deadline=None)
@given(x=st.lists(st.floats(-0.5, 0.5), min_size=N, max_size=N))
def test_a_column_reads_as_the_vector_it_holds(entry, name, call, x):
    x = np.array(x)
    assert _bits(call(x.reshape(N, 1))) == _bits(call(x))


@pytest.mark.parametrize("call, message", [
    # the plant ignores a third entry: no radius is computed for it
    (lambda: ek.empirical_radius(MODEL, [0.3, 0.2, 0.1], P, Q, R, 0.1, 0.0),
     "xhat must have shape (2,), got (3,)"),
    # k times make xhat a stack of k states, read as (k, n) without flattening
    (lambda: ek.empirical_radius(MODEL, np.zeros((2, 3)), [P, P], Q, R, 0.1, [0.0, 0.1]),
     "xhat must have shape (2, 2), got (2, 3)"),
    (lambda: ek.contraction_matrix(MODEL, [0.3, 0.2, 0.1], GOOD, P, Q, R, 0.0),
     "z must have shape (2,), got (3,)"),
    # a (2, 3) array is two 3-entry states, not three 2-entry ones
    (lambda: ek.linear_output_check(RUN, np.zeros((2, 3)), 0.1),
     "sample_states[0] must have shape (2,), got (3,)"),
    # no state to check is no pass
    (lambda: ek.linear_output_check(RUN, [], 0.1),
     "sample_states must hold at least one state, got []"),
    (lambda: ek.estimate_hessian_bounds(MODEL, [[0.3, 0.2, 0.1]], 0.0, 0.1),
     "states[0] must have shape (2,), got (3,)"),
    (lambda: ek.integrate_ekf(RUN.config, x0=GOOD, starts=[[0.3, 0.2], [[0.3, 0.2], [0.1]]]),
     "starts[1] must be numeric, got [[0.3, 0.2], [0.1]]"),
    (lambda: ek.FilterConfig(model=MODEL, Q=Q, R=R, P0=P, x0="ab", horizon=1.0),
     "x0 must be numeric, got 'ab'"),
    (lambda: ek.FilterConfig(model=MODEL, Q=Q, R=R, P0=P, x0=[True, 1.0], horizon=1.0),
     "x0 must be numeric, got [True, 1.0]"),
])
def test_each_entry_point_refuses_a_state_of_another_shape(call, message):
    with pytest.raises(ek.ConfigurationError, match=f"^{re.escape(message)}$"):
        call()


def _config(**override):
    return ek.FilterConfig(**{**dict(model=MODEL, Q=Q, R=R, P0=P, x0=GOOD, horizon=0.2),
                              **override})


def _swap(args, i, v):
    """``args`` with v at position i."""
    return [v if j == i else a for j, a in enumerate(args)]


I2 = [[1, 0], [0, 1]]
# (entry point, argument name in the message, call with the array v at that argument, an
# integer value that the call accepts)
ARRAYS = [
    *[("FilterConfig", name, lambda v, name=name: _config(**{name: v}), good)
      for name, good in [("Q", I2), ("R", [[1]]), ("P0", [[2, 0], [0, 1]]),
                         ("N", [[1, 0], [0, 0]])]],
    *[(entry, name, lambda v, call=call, i=i: call(*_swap((P, Q, R), i, v)), good)
      for entry, call in [
          ("contraction_matrix",
           lambda p, q, r: ek.contraction_matrix(MODEL, GOOD, GOOD, p, q, r, 0.0)),
          ("check_contraction_inequality",
           lambda p, q, r: ek.check_contraction_inequality(MODEL, GOOD, GOOD, p, q, r, 0.1, 0.0)),
          ("empirical_radius",
           lambda p, q, r: ek.empirical_radius(MODEL, GOOD, p, q, r, 0.1, 0.0,
                                               direction_samples=2))]
      for i, (name, good) in enumerate([("P", [[2, 0], [0, 1]]), ("Q", I2), ("R", [[3]])])],
    ("TimeSeries", "times", lambda v: _series(ek.TimeSeries(v, [[1.0], [2.0]])), [0, 1]),
    ("TimeSeries", "values", lambda v: _series(ek.TimeSeries([0.0, 1.0], v)), [[1], [2]]),
    *[("inflation_rate_gain", name,
       lambda v, i=i: ek.inflation_rate_gain(*_swap((-np.eye(2), P, 0.1 * np.eye(2)), i, v), 0.1),
       good)
      for i, (name, good) in enumerate([("M", [[-1, 0], [0, -1]]), ("P", I2), ("N", I2)])],
    ("tensor_norm", "H", lambda v: ek.tensor_norm(v, np.eye(1)), [[[0, 1], [1, 0]]]),
    *[("riccati_rhs", name,
       lambda v, i=i: ek.riccati_rhs(*_swap((P, -np.eye(2), np.ones((1, 2)), Q, R), i, v)), good)
      for i, (name, good) in enumerate([("P", [[2, 0], [0, 1]]), ("A", [[-1, 0], [0, -1]]),
                                        ("C", [[1, 1]]), ("Q", I2), ("R", [[3]])])],
    ("riccati_rhs", "N", lambda v: ek.riccati_rhs(P, -np.eye(2), np.ones((1, 2)), Q, R, v), I2),
]
ARRAY_IDS = [f"{entry}-{name}" for entry, name, _, _ in ARRAYS]
# values that are not arrays of real numbers, whatever their shape
NOT_NUMERIC = [[True, 1.0], [[1.0, 0.0], [0.0, True]], [[True]], [["1"]], "1", [[1 + 0j]],
               [[None]], None, [[1.0], [1.0, 2.0]], [[10 ** 400]], {"a": 1.0}]


def _series(series):
    return series.times, series.values


def _fields(config):
    return tuple(getattr(config, key) for key in ("Q", "R", "P0", "N", "q_lo", "r_lo"))


# an N of None is an omitted N, no inflation, except in inflation_rate_gain
REFUSED = [pytest.param(entry, name, call, value, id=f"{entry}-{name}-{k}")
           for entry, name, call, _ in ARRAYS for k, value in enumerate(NOT_NUMERIC)
           if not (value is None and name == "N" and entry != "inflation_rate_gain")]


@pytest.mark.parametrize("entry, name, call, value", REFUSED)
def test_an_array_that_is_not_numeric_is_a_configuration_error_naming_its_argument(
        entry, name, call, value):
    with pytest.raises(ek.ConfigurationError) as refused:
        call(value)
    assert str(refused.value) == f"{name} must be numeric, got {value!r}"


@pytest.mark.parametrize("entry, name, call, good", ARRAYS, ids=ARRAY_IDS)
def test_every_array_argument_reads_integers_as_their_floats(entry, name, call, good):
    def bits(result):
        return _bits(_fields(result) if isinstance(result, ek.FilterConfig) else result)
    assert bits(call(good)) == bits(call(np.array(good, dtype=float)))


@pytest.mark.parametrize("call, message", [
    (lambda: ek.tensor_norm(np.eye(2), np.eye(2)), "H must have shape (m, n, n), got (2, 2)"),
    (lambda: ek.tensor_norm(np.zeros((1, 2, 3)), np.eye(1)),
     "H must have shape (m, n, n), got (1, 2, 3)"),
    # n is M's: M, P and N share one (n, n) shape
    (lambda: ek.inflation_rate_gain(-np.eye(2), np.eye(3), np.eye(2), 0.1),
     "P must have shape (2, 2), got (3, 3)"),
    (lambda: ek.inflation_rate_gain(-np.eye(2), P, np.eye(3), 0.1),
     "N must have shape (2, 2), got (3, 3)"),
    (lambda: ek.inflation_rate_gain(-np.ones((2, 3)), P, np.eye(2), 0.1),
     "M must have shape (2, 2), got (2, 3)"),
    (lambda: ek.inflation_rate_gain(-1.0, 1.0, 1.0, 0.1), "M must have shape (1, 1), got ()"),
    # n is P's and p is C's
    (lambda: ek.riccati_rhs(np.ones((2, 3)), -np.eye(2), np.ones((1, 2)), Q, R),
     "P must have shape (2, 2), got (2, 3)"),
    (lambda: ek.riccati_rhs(P, -np.eye(3), np.ones((1, 2)), Q, R),
     "A must have shape (2, 2), got (3, 3)"),
    (lambda: ek.riccati_rhs(P, -np.eye(2), np.ones((2, 3)), Q, R),
     "C must have shape (2, 2), got (2, 3)"),
    (lambda: ek.riccati_rhs(P, -np.eye(2), np.ones((1, 2)), np.eye(1), R),
     "Q must have shape (2, 2), got (1, 1)"),
    (lambda: ek.riccati_rhs(P, -np.eye(2), np.ones((1, 2)), Q, np.eye(2)),
     "R must have shape (1, 1), got (2, 2)"),
    (lambda: ek.riccati_rhs(1.0, -1.0, 1.0, 1.0, 1.0), "P must have shape (1, 1), got ()"),
])
def test_each_array_argument_refuses_another_shape(call, message):
    with pytest.raises(ek.ConfigurationError) as refused:
        call()
    assert str(refused.value) == message


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_riccati_rhs_refuses_a_non_finite_r(r):
    """R is inverted, so a non-finite entry would give a NaN dP without a word."""
    with pytest.raises(ek.ConfigurationError) as refused:
        ek.riccati_rhs(P, -np.eye(2), np.ones((1, 2)), Q, [[r]])
    assert str(refused.value) == f"R must be finite, got [[{r}]]"


@pytest.mark.parametrize("call, message", [
    (lambda: ek.TimeSeries([0.0, 1.0], [[1.0], [math.nan]]), "values must be finite"),
    (lambda: ek.TimeSeries([0.0, 1.0], [[1.0], [-math.inf]]), "values must be finite"),
    (lambda: ek.TimeSeries(["0", "1"], ["1", "2"]), "times must be numeric, got ['0', '1']"),
])
def test_a_time_series_is_numeric_and_finite(call, message):
    with pytest.raises(ek.ConfigurationError) as refused:
        call()
    assert str(refused.value) == message
