"""Every public entry point reads its state vectors through one reader.

A wrong length, a NaN or infinite entry, a string or ragged rows is a
ConfigurationError that names the argument, and an (n, 1) column reads as
the (n,) vector it holds, with bit-equal results.
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
    ("estimate_hessian_bounds", "center_path[1]", lambda v: ek.estimate_hessian_bounds(
        MODEL, [(GOOD, 0.0), (v, 0.1)], 0.1, direction_samples=2,
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
ragged = st.tuples(st.lists(st.lists(finite, min_size=1, max_size=3), min_size=2, max_size=3)
                   .filter(lambda rows: len({len(r) for r in rows}) > 1),
                   st.just("must be numeric"))


@pytest.mark.parametrize("entry, name, call", ENTRY_POINTS, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(bad=st.one_of(wrong_length, non_finite, text, ragged))
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
    (lambda: ek.contraction_matrix(MODEL, [0.3, 0.2, 0.1], GOOD, P, Q, R, 0.0),
     "z must have shape (2,), got (3,)"),
    # a (2, 3) array is two 3-entry states, not three 2-entry ones
    (lambda: ek.linear_output_check(RUN, np.zeros((2, 3)), 0.1),
     "sample_states[0] must have shape (2,), got (3,)"),
    (lambda: ek.estimate_hessian_bounds(MODEL, [([0.3, 0.2, 0.1], 0.0)], 0.1),
     "center_path[0] must have shape (2,), got (3,)"),
    (lambda: ek.integrate_ekf(RUN.config, x0=GOOD, starts=[[0.3, 0.2], [[0.3, 0.2], [0.1]]]),
     "starts[1] must be numeric, got [[0.3, 0.2], [0.1]]"),
    (lambda: ek.FilterConfig(model=MODEL, Q=Q, R=R, P0=P, x0="ab", horizon=1.0),
     "x0 must be numeric, got 'ab'"),
])
def test_each_entry_point_refuses_a_state_of_another_shape(call, message):
    with pytest.raises(ek.ConfigurationError, match=f"^{re.escape(message)}$"):
        call()
