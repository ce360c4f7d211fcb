import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ekfcert as ek
from ekfcert import bench, cli, model
from ekfcert.cli import main
from ekfcert.model import MAX_COUNT
from ekfcert.sim import BALL_RATE_RULE


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def scalar_cfg(**extra):
    cfg = {
        "system": {"name": "scalar-riccati"},
        "filter": {"Q": [[1.0]], "R": [[1.0]], "P0": [[2.0]], "xhat0": [0.5]},
        "truth": {"x0": [0.4]},
        "horizon": 6.0,
        "hessian": {"kappa_A": 0.0, "kappa_C": 0.0, "alpha": 10.0},
    }
    cfg.update(extra)
    return cfg


def cubic_cfg(**extra):
    cfg = {
        "system": {"name": "cubic-scalar", "params": {"eps": 0.1}},
        "filter": {"Q": [[1.0]], "R": [[1.0]], "P0": [[0.5]], "xhat0": [0.0]},
        "truth": {"x0": [0.3]},
        "horizon": 6.0,
        "hessian": {"kappa_A": 0.78, "kappa_C": 0.0, "alpha": 1.0},
        "direction_samples": 16,
    }
    cfg.update(extra)
    return cfg


def vdp_cfg(**extra):
    cfg = {
        "system": {"name": "vanderpol-pos"},
        "filter": {"Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]],
                   "P0": [[1.0, 0.0], [0.0, 1.0]], "xhat0": [0.3, 0.2]},
        "truth": {"x0": [0.34, 0.2]},
        "horizon": 1.0,
    }
    cfg.update(extra)
    return cfg


def read_summary(out):
    with open(out / "summary.json") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def test_simulate_scalar(tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", write_cfg(tmp_path, scalar_cfg()),
               "--out", str(out)])
    assert rc == 0
    summary = read_summary(out)
    assert summary["status"] == "ok"
    assert summary["report"]["p_hi"] == pytest.approx(2.0)
    assert summary["report"]["p_lo"] == pytest.approx(1.0, abs=1e-3)
    assert summary["config"]["horizon"] == 6.0
    header, data = read_csv(out / "trajectory.csv")
    assert header == ["t", "xhat_0", "P_00", "K_00"]
    assert data.shape == (2001, 4)
    assert data[0, 1] == 0.5 and data[0, 2] == 2.0
    assert data[-1, 0] == 6.0


def test_simulate_embeds_full_precision(tmp_path):
    out = tmp_path / "out"
    main(["simulate", "--config", write_cfg(tmp_path, scalar_cfg()),
          "--out", str(out)])
    _, data = read_csv(out / "trajectory.csv")
    # 17 significant digits round-trip doubles exactly
    text = (out / "trajectory.csv").read_text().splitlines()[1].split(",")
    assert float(text[2]) == data[0, 2] == 2.0


def test_simulate_rejects_bad_covariance(tmp_path):
    cfg = scalar_cfg()
    cfg["filter"]["P0"] = [[-1.0]]
    rc = main(["simulate", "--config", write_cfg(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_simulate_reports_covariance_loss(tmp_path):
    cfg = scalar_cfg(horizon=1.0, step=0.2)
    cfg["filter"]["Q"] = [[1e-12]]
    cfg["filter"]["P0"] = [[10.0]]
    out = tmp_path / "out"
    rc = main(["simulate", "--config", write_cfg(tmp_path, cfg),
               "--out", str(out)])
    assert rc == 1
    summary = read_summary(out)
    assert summary["status"] == "failed"
    assert summary["failure_time"] == pytest.approx(0.2)


def test_config_error_paths(tmp_path):
    missing = scalar_cfg()
    del missing["filter"]["Q"]
    no_horizon = scalar_cfg()
    del no_horizon["horizon"]
    unknown = scalar_cfg()
    unknown["system"]["name"] = "no-such-plant"
    for cfg in (missing, no_horizon, unknown):
        rc = main(["simulate", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
    assert main(["simulate", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "out")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path / "out")]) == 2
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path / "out")]) == 2


def test_wrong_length_truth_start_is_a_configuration_error(tmp_path, capsys):
    cfg = vdp_cfg(truth={"x0": [0.34, 0.2, 0.1]})
    rc = main(["simulate", "--config", write_cfg(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "configuration error: truth.x0 must have shape (2,), got (3,)\n")


@pytest.mark.parametrize("vector", [[0.01], [0.01, 0.01, 0.01]])
def test_perturb_vector_must_have_one_entry_per_state(tmp_path, capsys, vector):
    cfg = vdp_cfg(perturb={"type": "const", "vector": vector})
    rc = main(["perturb", "--config", write_cfg(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"configuration error: perturb.vector must have shape (2,), got ({len(vector)},)\n")


def test_a_registered_plant_with_a_wrong_sized_jacobian_is_a_configuration_error(
        tmp_path, capsys):
    def factory():
        entry = ek.make("vanderpol-pos")
        entry.model.jacobian_A = lambda x, t: np.array([0.0, 1.0])
        return entry

    ek.register("flat-jacobian-vdp", factory)
    try:
        cfg = vdp_cfg(system={"name": "flat-jacobian-vdp"})
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    finally:
        bench._FACTORIES.pop("flat-jacobian-vdp", None)
    assert capsys.readouterr().err == (
        "configuration error: jacobian_A returned shape (2,), expected (2, 2)\n")
    assert not (out / "summary.json").exists()


def test_ragged_twin_starts_are_a_configuration_error(tmp_path, capsys):
    cfg = vdp_cfg(hessian={"kappa_A": 0.5, "kappa_C": 0.0},
                  twin={"z1_0": [0.3, 0.2, 0.1], "z2_0": [0.1, 0.1]})
    out = tmp_path / "out"
    assert main(["twin", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: z1_0 must have shape (2,), got (3,)\n")
    assert not (out / "summary.json").exists()


def _sampled_cfg(**extra):
    return cubic_cfg(hessian={"radius": 0.5}, **extra)


def _sin_perturb_cfg(**extra):
    return scalar_cfg(perturb={"type": "sin", "vector": [0.01]}, **extra)


def _compare_cfg(**extra):
    cfg = {"compare": {"p_lo": 1.0, "p_hi": 1.0, "q_lo": 1.0, "r_lo": 1.0,
                       "kappa_A": 1.0, "kappa_C": 1.0, "c_hi": 1.0}}
    cfg.update(extra)
    return cfg


# (command, config, key, the name its library reader gives it, that reader's rule or None for
# the name's rule in model._RULES)
@pytest.mark.parametrize("command, make_cfg, key, name, rule", [
    ("simulate", scalar_cfg, "horizon", "horizon", None),
    ("simulate", scalar_cfg, "step", "step", None),
    ("simulate", scalar_cfg, "filter.beta", "beta", None),
    ("certify", scalar_cfg, "gamma", "gamma", None),
    ("perturb", scalar_cfg, "gamma", "gamma", BALL_RATE_RULE),
    ("certify", scalar_cfg, "seed", "seed", None),
    ("certify", _sampled_cfg, "seed", "seed", None),
    ("certify", scalar_cfg, "radius_times", "radius_times", None),
    ("certify", scalar_cfg, "direction_samples", "direction_samples", None),
    ("certify", scalar_cfg, "hessian.kappa_A", "kappa_A", None),
    ("certify", scalar_cfg, "hessian.kappa_C", "kappa_C", None),
    ("certify", scalar_cfg, "hessian.alpha", "alpha", None),
    ("certify", _sampled_cfg, "hessian.radius", "radius", None),
    ("certify", _sampled_cfg, "hessian.safety", "safety", None),
    ("certify", _sampled_cfg, "hessian.centers", "hessian.centers",
     model._RULES["max_centers"]),
    ("perturb", _sin_perturb_cfg, "perturb.freq", "perturb.freq", model.SIGN_FREE_RULE),
    ("simulate", cubic_cfg, "system.params.eps", "system.params.eps", model.SIGN_FREE_RULE),
] + [("compare", _compare_cfg, f"compare.{key}", key, None)
     for key in ("p_lo", "p_hi", "q_lo", "r_lo", "kappa_A", "kappa_C", "c_hi")])
def test_a_non_numeric_config_value_is_a_configuration_error(tmp_path, capsys,
                                                              command, make_cfg, key, name, rule):
    """The library reader of the value's argument refuses it, in its own words."""
    cfg = make_cfg(horizon=1.0)
    *sections, field = key.split(".")
    node = cfg
    for section in sections:
        node = node[section]
    node[field] = "abc"
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {name} must be {rule or model._RULES[name]}, got 'abc'\n")
    assert not (out / "summary.json").exists()


def _scalar_filter(**extra):
    return dict(scalar_cfg()["filter"], **extra)


@pytest.mark.parametrize("command, cfg, message", [
    ("envelope", scalar_cfg(horizon=1.0, hessian={"kappa_A": math.nan, "kappa_C": 0.0}),
     "kappa_A must be nonnegative, got nan"),
    ("certify", cubic_cfg(horizon=1.0, hessian={"radius": 0.5, "safety": math.nan}),
     "safety must be nonnegative and finite, got nan"),
    ("simulate", scalar_cfg(horizon=math.inf), "horizon must be positive and finite, got inf"),
    ("simulate", scalar_cfg(horizon=1.0, filter=_scalar_filter(beta=math.nan)),
     "beta must be nonnegative and finite, got nan"),
    ("simulate", scalar_cfg(horizon=1.0, filter=_scalar_filter(beta=math.inf)),
     "beta must be nonnegative and finite, got inf"),
    ("perturb", scalar_cfg(horizon=1.0, gamma=math.nan),
     "gamma must be positive and finite, got nan"),
    ("perturb", scalar_cfg(horizon=1.0, gamma=math.inf),
     "gamma must be positive and finite, got inf"),
    ("perturb", scalar_cfg(horizon=1.0, perturb={"vector": [math.nan]}),
     "perturb.vector must be finite, got [nan]"),
    ("simulate", scalar_cfg(horizon=1.0, system={"name": "scalar-riccati", "params": [1, 2]}),
     "config field system.params must be an object"),
    ("simulate", scalar_cfg(horizon=1.0, system={"name": ["vanderpol-pos"]}),
     "config field system.name must be a string"),
    ("simulate", scalar_cfg(horizon=1.0, system={"name": "cubic-scalar", "params": {"eps": "x"}}),
     "system.params.eps must be finite, got 'x'"),
    ("simulate", scalar_cfg(horizon=1.0, system={"name": "cubic-scalar",
                                                 "params": {"eps": -math.inf}}),
     "system.params.eps must be finite, got -inf"),
    ("simulate", scalar_cfg(horizon=1.0, filter=_scalar_filter(xhat0=[math.nan])),
     "filter.xhat0 must be finite, got [nan]"),
    ("simulate", scalar_cfg(horizon=1.0, filter=_scalar_filter(Q=[[math.inf]])),
     "Q must be finite, got [[inf]]"),
    ("simulate", scalar_cfg(horizon=1.0, filter=_scalar_filter(Q=None)),
     "config needs filter.Q"),
    ("simulate", scalar_cfg(horizon=1.0, truth={"x0": [math.nan]}),
     "truth.x0 must be finite, got [nan]"),
    ("twin", scalar_cfg(horizon=1.0, twin={"z1_0": [math.nan], "z2_0": [0.1]}),
     "z1_0 must be finite, got [nan]"),
    ("perturb", scalar_cfg(horizon=1.0, perturb={"type": "sin", "vector": [0.01],
                                                 "freq": math.inf}),
     "perturb.freq must be finite, got inf"),
    ("compare", {"compare": dict(_compare_cfg()["compare"], kappa_A=-1.0)},
     "kappa_A must be nonnegative, got -1.0"),
    ("compare", {"compare": dict(_compare_cfg()["compare"], c_hi=-2.0)},
     "c_hi must be positive, got -2.0"),
    ("compare", {"compare": dict(_compare_cfg()["compare"], p_lo=3.0)},
     "p_hi must be >= p_lo, got p_lo=3.0 and p_hi=1.0"),
    ("compare", {"compare": dict(_compare_cfg()["compare"], p_hi=math.inf)},
     "p_hi must be positive and finite, got inf"),
    ("compare", {"compare": dict(_compare_cfg()["compare"], r_lo=math.inf)},
     "r_lo must be positive and finite, got inf"),
])
def test_a_nan_or_infinite_config_value_is_a_configuration_error(tmp_path, capsys, command,
                                                                  cfg, message):
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (out / "summary.json").exists()


COUNT_FIELDS = [
    (scalar_cfg, "radius_times"),
    (scalar_cfg, "direction_samples"),
    (scalar_cfg, "seed"),
    (_sampled_cfg, "seed"),
    (_sampled_cfg, "hessian.centers"),
]


def _certify_with(tmp_path, make_cfg, key, value, out):
    cfg = make_cfg(horizon=1.0, radius_times=3)
    *sections, field = key.split(".")
    node = cfg
    for name in sections:
        node = node[name]
    node[field] = value
    return main(["certify", "--config", write_cfg(tmp_path, cfg, f"{out.name}.json"),
                 "--out", str(out)])


@pytest.mark.parametrize("make_cfg, key", COUNT_FIELDS)
def test_a_fractional_count_is_a_configuration_error(tmp_path, capsys, make_cfg, key):
    out = tmp_path / "out"
    assert _certify_with(tmp_path, make_cfg, key, 2.7, out) == 2
    rule = model._RULES["max_centers" if key == "hessian.centers" else key]
    assert capsys.readouterr().err == f"configuration error: {key} must be {rule}, got 2.7\n"
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("make_cfg, key", COUNT_FIELDS)
def test_an_integral_float_count_runs_as_the_integer(tmp_path, make_cfg, key):
    as_int, as_float = tmp_path / "int", tmp_path / "float"
    assert _certify_with(tmp_path, make_cfg, key, 2, as_int) == 0
    assert _certify_with(tmp_path, make_cfg, key, 2.0, as_float) == 0
    assert (as_int / "radius.csv").read_bytes() == (as_float / "radius.csv").read_bytes()


@pytest.mark.parametrize("command", ["certify", "twin"])
@pytest.mark.parametrize("from_flag", [False, True])
def test_a_negative_seed_is_a_configuration_error(tmp_path, capsys, command, from_flag):
    cfg = _sampled_cfg(horizon=1.0, twin={"z1_0": [0.1], "z2_0": [-0.1]})
    if not from_flag:
        cfg["seed"] = -1
    out = tmp_path / "out"
    argv = [command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
    assert main(argv + (["--seed", "-1"] if from_flag else [])) == 2
    assert capsys.readouterr().err == (
        "configuration error: seed must be a nonnegative integer, got -1\n")
    assert not (out / "summary.json").exists()


def test_negative_radius_times_is_a_configuration_error(tmp_path, capsys):
    rc = main(["certify", "--config", write_cfg(tmp_path, scalar_cfg(radius_times=-1)),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "configuration error: radius_times must be a nonnegative integer at most 1000000, "
        "got -1\n")


def _unreachable(*args, **kwargs):
    raise AssertionError("the run was reached")


COUNT_RULE = f"a nonnegative integer at most {MAX_COUNT}"


@pytest.mark.parametrize("key, value, message", [
    ("radius_times", 1e300, f"radius_times must be {COUNT_RULE}, got 1e+300"),
    ("radius_times", MAX_COUNT + 1, f"radius_times must be {COUNT_RULE}, got 1000001"),
    ("direction_samples", 10 ** 9, f"direction_samples must be {COUNT_RULE}, got 1000000000"),
    ("direction_samples", -1, f"direction_samples must be {COUNT_RULE}, got -1"),
])
def test_a_count_out_of_its_bounds_is_a_configuration_error_before_the_run(
        tmp_path, capsys, monkeypatch, key, value, message):
    """The counts are read before the plant is built, so nothing is allocated."""
    monkeypatch.setattr(bench, "make", _unreachable)
    out = tmp_path / "out"
    assert main(["certify", "--config", write_cfg(tmp_path, scalar_cfg(**{key: value})),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: {message}\n"
    assert captured.out == ""
    assert not (out / "summary.json").exists()


def test_too_many_hessian_centers_is_a_configuration_error(tmp_path, capsys):
    cfg = _sampled_cfg(horizon=1.0)
    cfg["hessian"]["centers"] = MAX_COUNT + 1
    out = tmp_path / "out"
    assert main(["certify", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("configuration error: hessian.centers must be "
                                       "a positive integer at most 1000000, got 1000001\n")
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command, cfg, horizon, step", [
    ("simulate", "certify_cubic", 2.0, 1e-15),   # a 14.2 PiB grid without the check
    *[(command, "readme", 0.1, 0.1 / (MAX_COUNT + 1))
      for command in ("simulate", "certify", "twin", "perturb", "envelope")],
    ("simulate", "readme", 1e10, 5e-324),   # horizon / step overflows to inf
])
def test_a_grid_of_more_than_max_count_steps_is_a_configuration_error_before_the_run(
        tmp_path, capsys, monkeypatch, command, cfg, horizon, step):
    monkeypatch.setattr(cli, "integrate_ekf", _unreachable)
    cfg = dict(json.loads(SMALL_CERTIFY.read_text()) if cfg == "certify_cubic" else README_CFG,
               horizon=horizon, step=step)
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: horizon / step must be at most 1000000 steps, "
        f"got horizon {horizon!r} and step {step!r}\n")
    assert not (out / "summary.json").exists()


def test_a_grid_of_max_count_steps_reaches_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "integrate_ekf", _unreachable)
    cfg = dict(README_CFG, horizon=0.1, step=0.1 / MAX_COUNT)
    with pytest.raises(AssertionError, match="the run was reached"):
        main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")])


def test_an_output_directory_that_cannot_be_created_is_a_configuration_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    for out in (afile, afile / "below"):
        assert main(["simulate", "--config", write_cfg(tmp_path, scalar_cfg(horizon=1.0)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot create output directory {out}: ")
        assert err.count("\n") == 1
    assert afile.read_text() == ""


def test_an_output_file_that_cannot_be_written_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "summary.json").mkdir(parents=True)
    assert main(["simulate", "--config", write_cfg(tmp_path, scalar_cfg(horizon=1.0)),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: cannot write {out / 'summary.json'}: ")
    assert captured.err.count("\n") == 1
    assert "wrote" not in captured.out
    assert (out / "trajectory.csv").is_file()   # written before the summary failed


def _with(make_cfg, key, value, **extra):
    cfg = make_cfg(horizon=1.0, **extra)
    *sections, field = key.split(".")
    node = cfg
    for name in sections:
        node = node.setdefault(name, {})
    node[field] = value
    return cfg


def _kappa_free():
    return scalar_cfg(horizon=1.0, hessian={}, twin=_SCALAR_TWINS)


_SCALAR_TWINS = {"z1_0": [0.3], "z2_0": [0.1]}


@pytest.mark.parametrize("command, cfg, message", [
    ("certify", _with(_sampled_cfg, "hessian.centers", 10 ** 7),
     "hessian.centers must be a positive integer at most 1000000, got 10000000"),
    *[(command, _kappa_free(), "config needs hessian.radius (or explicit hessian.kappa_A/kappa_C)")
      for command in ("certify", "twin", "envelope")],
    # one declared kappa needs the other, even beside a sampling radius
    *[(command, _with(scalar_cfg, "hessian", {given: 100, "radius": 0.5}, twin=_SCALAR_TWINS),
       f"config needs hessian.{missing}")
      for command in ("certify", "twin", "envelope")
      for given, missing in (("kappa_A", "kappa_C"), ("kappa_C", "kappa_A"))],
    # a declared alpha belongs to declared kappas; beside a sampling radius it would be ignored
    *[(command, _with(scalar_cfg, "hessian", {"radius": 0.5, "alpha": alpha},
                      twin=_SCALAR_TWINS),
       "hessian.alpha needs explicit hessian.kappa_A/kappa_C; a sampled radius is its own alpha")
      for command in ("certify", "twin", "envelope") for alpha in (100, 0.5, math.inf)],
    # the sampling keys belong to sampled bounds; beside declared kappas they would be ignored
    *[(command, _with(scalar_cfg, "hessian", {"kappa_A": 0, "kappa_C": 0, **sampling},
                      twin=_SCALAR_TWINS),
       f"hessian.{next(iter(sampling))} belongs to sampled bounds; "
       "explicit hessian.kappa_A/kappa_C are not sampled")
      for command in ("certify", "twin", "envelope")
      for sampling in ({"radius": -1, "safety": -5, "centers": 0}, {"radius": 0.5},
                       {"safety": 1.1}, {"centers": 25})],
    ("certify", _with(_sampled_cfg, "hessian.safety", "x"),
     "safety must be nonnegative and finite, got 'x'"),
    *[(command, _with(scalar_cfg, "gamma", "x", twin=_SCALAR_TWINS),
       f"gamma must be {'positive' if command == 'perturb' else 'nonnegative'} and finite, "
       "got 'x'")
      for command in ("certify", "twin", "perturb", "envelope")],
    ("twin", _with(scalar_cfg, "twin.z1_0", "x", twin={"z2_0": [0.1]}),
     "z1_0 must be numeric, got 'x'"),
    ("perturb", _with(scalar_cfg, "perturb.type", "ramp"), "unknown perturb.type 'ramp'"),
    ("perturb", _with(_sin_perturb_cfg, "perturb.freq", math.inf),
     "perturb.freq must be finite, got inf"),
    ("perturb", _with(scalar_cfg, "perturb.z0", "x"), "z0 must be numeric, got 'x'"),
    ("perturb", _with(scalar_cfg, "perturb.vector", [True]),
     "perturb.vector must be numeric, got [True]"),
    *[("certify", _with(_sampled_cfg, "hessian.radius", radius),
       f"radius must be positive and finite, got {radius}")
      for radius in (-1, 0, math.inf)],
    ("certify", _with(_sampled_cfg, "hessian.centers", 0),
     "hessian.centers must be a positive integer at most 1000000, got 0"),
    *[("certify", _with(_sampled_cfg, "hessian.safety", safety),
       f"safety must be nonnegative and finite, got {safety}")
      for safety in (-1, math.inf)],
    *[(command, _with(scalar_cfg, "gamma", gamma, twin=_SCALAR_TWINS),
       f"gamma must be {'positive' if command == 'perturb' else 'nonnegative'} and finite, "
       f"got {gamma}")
      for command in ("certify", "twin", "perturb", "envelope") for gamma in (-1, math.inf)],
])
def test_every_config_value_is_read_before_the_first_integration(tmp_path, capsys, monkeypatch,
                                                                command, cfg, message):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started before the config was read")

    monkeypatch.setattr(cli, "integrate_ekf", no_run)
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (out / "summary.json").exists()


def test_perturb_refuses_a_rate_above_the_certificate_cap_as_twin_does(tmp_path, capsys):
    cfg = vdp_cfg(gamma=10, hessian={"kappa_A": 0.5, "kappa_C": 0.0},
                  twin={"z1_0": [0.3, 0.2], "z2_0": [0.1, 0.1]})
    path = write_cfg(tmp_path, cfg)
    errors = []
    for command in ("twin", "perturb"):
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == 2, command
        errors.append(capsys.readouterr().err)
        assert not (out / "summary.json").exists()
    assert errors[0] == errors[1]
    assert re.fullmatch(r"configuration error: gamma = 10\.0 outside \[0, q_lo/\(2 p_hi\)\] = "
                        r"\[0, [0-9.e-]+\]\n", errors[1])


def test_certify_with_an_underflowing_output_curvature_has_an_infinite_zeta_plus(tmp_path):
    """p_hi * kappa_C underflows to 0, so the analytic radius is +inf."""
    cfg = scalar_cfg(horizon=1.0, hessian={"kappa_A": 0.0, "kappa_C": 5e-324})
    cfg["filter"]["Q"] = [[0.01]]
    cfg["filter"]["P0"] = [[0.1]]
    out = tmp_path / "out"
    assert main(["certify", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    cert = read_summary(out)["certificate"]
    assert cert["zeta_plus"] == cert["rho"] == "inf"
    header, data = read_csv(out / "radius.csv")
    assert header == ["t", "r_empirical", "zeta_plus"]
    assert np.all(data[:, 2] == np.inf)


def _strict_json(path):
    """summary.json parsed with NaN and Infinity literals refused."""
    def refuse(name):
        raise ValueError(f"non-standard JSON literal {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_twin_with_identical_starts_writes_nan_rates_as_strings(tmp_path, capsys):
    """Twins that never separate give no rate: no signal, which is not a pass."""
    cfg = scalar_cfg(horizon=2.0, twin={"z1_0": [0.8], "z2_0": [0.8]})
    out = tmp_path / "out"
    assert main(["twin", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    assert "within_basin=True pass=False (no signal)\n" in capsys.readouterr().out
    summary = _strict_json(out / "summary.json")
    assert summary["fitted_rate"] == "nan"
    assert summary["info"]["fitted_rate_euclid"] == "nan"
    assert summary["info"]["rate_pass"] is None and summary["passed"] is False
    _, data = read_csv(out / "twin.csv")
    assert np.all(data[:, 1:] == 0.0)


def test_twin_with_an_unbounded_certificate_is_within_the_basin(tmp_path):
    """Zero kappas and no alpha certify every radius: rho is +inf, so any
    pair of starts lies in the basin."""
    cfg = {"system": {"name": "ltv-linear"},
           "filter": {"Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]],
                      "P0": [[1.0, 0.0], [0.0, 1.0]], "xhat0": [0.5, -0.2]},
           "truth": {"x0": [0.3, 0.1]},
           "horizon": 2.0,
           "hessian": {"kappa_A": 0.0, "kappa_C": 0.0},
           "twin": {"z1_0": [50.0, -40.0], "z2_0": [-30.0, 20.0]}}
    out = tmp_path / "out"
    assert main(["twin", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    summary = _strict_json(out / "summary.json")
    assert summary["certificate"]["alpha"] == summary["certificate"]["rho"] == "inf"
    assert summary["info"]["within_basin"] is True


def test_twin_runs_are_deterministic(tmp_path):
    cfg = scalar_cfg(twin={"z1_0": [0.8], "z2_0": [0.3]})
    path = write_cfg(tmp_path, cfg)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["twin", "--config", path, "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "twin.csv").read_bytes() == (outs[1] / "twin.csv").read_bytes()
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
    summary = read_summary(outs[0])
    assert summary["passed"]
    assert summary["info"]["within_basin"]
    assert summary["fitted_rate"] == pytest.approx(2.0, rel=0.1)
    header, data = read_csv(outs[0] / "twin.csv")
    assert header == ["t", "dist_w", "dist_e"]
    assert data[0, 2] == pytest.approx(0.5)


def test_certify_cubic_with_declared_curvature(tmp_path):
    out = tmp_path / "out"
    rc = main(["certify", "--config", write_cfg(tmp_path, cubic_cfg()),
               "--out", str(out)])
    assert rc == 0
    summary = read_summary(out)
    cert = summary["certificate"]
    p_hi = summary["report"]["p_hi"]
    gamma = summary["report"]["q_lo"] / (4.0 * p_hi)
    assert cert["gamma"] == pytest.approx(gamma)
    expected_zeta = (1.0 - 2.0 * gamma * p_hi) / (2.0 * p_hi * 0.78)
    assert cert["zeta_plus"] == pytest.approx(expected_zeta)
    assert cert["rho"] == pytest.approx(min(1.0, expected_zeta))
    assert not cert["kappa_sampled"]
    header, data = read_csv(out / "radius.csv")
    assert header == ["t", "r_empirical", "zeta_plus"]
    assert data.shape[0] == 9
    assert np.all(data[:, 2] == pytest.approx(cert["zeta_plus"]))


@pytest.mark.parametrize("samples", [0, 1])
def test_certify_with_no_radius_node_or_one(tmp_path, samples):
    """radius_times 0 and 1 are the empty and the one-node stack of the radius search: a
    header-only radius.csv, or the radius at t = 0 of a one-node empirical_radius call."""
    cfg = cubic_cfg(horizon=1.0, radius_times=samples)
    out = tmp_path / "out"
    assert main(["certify", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    series = read_summary(out)["radius_series"]
    rows = (out / "radius.csv").read_text().splitlines()
    assert rows[0] == "t,r_empirical,zeta_plus"
    assert len(rows) - 1 == len(series) == samples
    if samples:
        gamma = read_summary(out)["certificate"]["gamma"]
        r = ek.empirical_radius(ek.make("cubic-scalar", eps=0.1).model, [0.0], [[0.5]],
                                [[1.0]], [[1.0]], gamma, 0.0, 16)
        assert series == [{"t": 0.0, "r_empirical": r}]


def test_certify_sampled_curvature(tmp_path):
    cfg = cubic_cfg()
    cfg["hessian"] = {"radius": 1.0, "safety": 1.0, "centers": 10}
    out = tmp_path / "out"
    rc = main(["certify", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    cert = read_summary(out)["certificate"]
    assert cert["kappa_sampled"]
    # estimate path stays in |x| <= 0.3, so sup of 6 eps |x| over the
    # unit tube lies between 0.6 and 0.78
    assert 0.6 <= cert["kappa_A"] <= 0.79


@pytest.mark.parametrize("hessian", [{"kappa_A": 0.78, "kappa_C": 0.0, "alpha": 1.0},
                                     {"radius": 1.0, "safety": 1.0, "centers": 10}],
                         ids=["declared", "sampled"])
def test_the_certificate_of_certify_is_make_certificate_of_the_run(tmp_path, hessian):
    """summary.json's certificate is make_certificate of the run integrate_ekf makes from
    the same config, under its declared or sampled curvature bounds."""
    cfg = cubic_cfg(hessian=hessian, horizon=2.0, radius_times=2)
    out = tmp_path / "out"
    assert main(["certify", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    fc = ek.FilterConfig(model=ek.make("cubic-scalar", eps=0.1).model, Q=[[1.0]], R=[[1.0]],
                         P0=[[0.5]], x0=[0.0], horizon=2.0)
    run = ek.integrate_ekf(fc, x0=[0.3])
    hess = ek.HessianBounds(**hessian) if "alpha" in hessian else ek.estimate_hessian_bounds(
        fc.model, run.states, run.times, 1.0, safety=1.0, max_centers=10)
    cert = dataclasses.asdict(ek.make_certificate(run, hess))
    assert read_summary(out)["certificate"] == cli._jsonable(cert)


def test_certify_sampled_curvature_uses_requested_centers(tmp_path, monkeypatch):
    times = set()
    stacked_hessians = model._stacked_hessians

    def recording(m, points, t, which):
        times.add(t)
        return stacked_hessians(m, points, t, which)

    monkeypatch.setattr(model, "_stacked_hessians", recording)
    cfg = cubic_cfg()
    cfg["hessian"] = {"radius": 1.0, "centers": 50}
    rc = main(["certify", "--config", write_cfg(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    # 2001 filter nodes at stride 2001 // 50 = 40
    assert len(times) == 51
    cfg["hessian"]["centers"] = 0
    assert main(["certify", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 2


def test_certify_rejects_gamma_above_cap(tmp_path):
    rc = main(["certify", "--config", write_cfg(tmp_path, cubic_cfg(gamma=10.0)),
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_compare_unit_parameters(tmp_path, capsys):
    cfg = {"compare": {"p_lo": 1.0, "p_hi": 1.0, "q_lo": 1.0, "r_lo": 1.0,
                       "kappa_A": 1.0, "kappa_C": 1.0, "c_hi": 1.0}}
    out = tmp_path / "out"
    rc = main(["compare", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    table = read_summary(out)["table"]
    assert table["ratio"]["rate"] == pytest.approx(1.0)
    assert table["lyapunov"]["rate"] == pytest.approx(0.25)
    text = capsys.readouterr().out
    assert "lyapunov" in text and "contraction" in text and "ratio" in text


def test_compare_prints_an_underflowed_rate_as_unavailable(tmp_path, capsys):
    cfg = {"compare": {"p_lo": 1e-100, "p_hi": 1e100, "q_lo": 1e-100, "r_lo": 1.0,
                       "kappa_A": 1.0, "kappa_C": 1.0, "c_hi": 1.0}}
    out = tmp_path / "out"
    assert main(["compare", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    table = read_summary(out)["table"]
    assert table["lyapunov"]["rate"] is None and table["ratio"]["rate"] is None
    rate_line = next(line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("rate "))
    assert rate_line.split()[1:] == ["unavailable", "2.5e-201", "unavailable"]


def test_compare_without_output_bound(tmp_path, capsys):
    cfg = {"compare": {"p_lo": 1.0, "p_hi": 2.0, "q_lo": 1.0, "r_lo": 1.0,
                       "kappa_A": 1.0, "kappa_C": 1.0}}
    out = tmp_path / "out"
    rc = main(["compare", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    table = read_summary(out)["table"]
    assert table["lyapunov"]["basin_kappa_A0"] is None
    assert table["ratio"]["basin_kappa_A0"] is None
    assert "unavailable" in capsys.readouterr().out
    del cfg["compare"]["kappa_A"]
    assert main(["compare", "--config", write_cfg(tmp_path, cfg, "c2.json"),
                 "--out", str(out)]) == 2


def test_envelope_scalar(tmp_path):
    out = tmp_path / "out"
    rc = main(["envelope", "--config", write_cfg(tmp_path, scalar_cfg()),
               "--out", str(out)])
    assert rc == 0
    summary = read_summary(out)
    assert summary["passed"] and summary["within_basin"]
    assert summary["initial_error"] == pytest.approx(0.1)
    assert summary["worst_margin"] > 0.0
    header, data = read_csv(out / "envelope.csv")
    assert header == ["t", "error", "envelope", "margin"]
    assert np.all(data[:, 3] >= 0.0)


def test_perturb_scalar(tmp_path):
    cfg = scalar_cfg(perturb={"type": "const", "vector": [0.01], "z0": [0.4]})
    out = tmp_path / "out"
    rc = main(["perturb", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    info = read_summary(out)["info"]
    assert info["within_standard"]
    assert not info["within_printed"]
    assert info["steady_radius"] == pytest.approx(0.01, rel=0.1)
    assert info["b_max"] == pytest.approx(0.01)
    header, _ = read_csv(out / "perturb.csv")
    assert header == ["t", "dist_w", "dist_e"]


def test_perturb_sinusoidal_and_bad_type(tmp_path):
    cfg = scalar_cfg(perturb={"type": "sin", "vector": [0.02], "freq": 2.0})
    rc = main(["perturb", "--config", write_cfg(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    cfg = scalar_cfg(perturb={"type": "ramp", "vector": [0.02]})
    rc = main(["perturb", "--config", write_cfg(tmp_path, cfg, "c2.json"),
               "--out", str(tmp_path / "out2")])
    assert rc == 2


def test_the_seed_override_is_embedded(tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", write_cfg(tmp_path, scalar_cfg(seed=3)),
               "--out", str(out), "--seed", "7"])
    assert rc == 0
    assert read_summary(out)["config"]["seed"] == 7


@pytest.mark.parametrize("flag", ["--gamma", "--beta", "--inflation-n"])
def test_the_removed_override_flags_are_usage_errors(tmp_path, capsys, flag):
    """gamma, filter.beta and filter.N are read from the config only."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", write_cfg(tmp_path, scalar_cfg()), "--out", str(out),
              flag, "0.1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 0.1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(cli._HANDLERS))
def test_every_command_takes_only_the_config_the_output_directory_and_the_seed(command):
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    options = {o for a in sub.choices[command]._actions for o in a.option_strings}
    assert options == {"-h", "--help", "--config", "--out", "--seed"}


@pytest.mark.parametrize("section, message", [
    ([1], "config section 'filter' must be an object"),
    ("Q", "config section 'filter' must be an object"),
    (None, "config needs filter.Q"),
])
def test_a_filter_section_that_is_not_an_object_is_a_configuration_error(
        tmp_path, capsys, section, message):
    out = tmp_path / "out"
    argv = ["simulate", "--config", write_cfg(tmp_path, scalar_cfg(filter=section)),
            "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command, make_cfg, key, value, message", [
    ("simulate", scalar_cfg, "horizon", "1e0", "horizon must be positive and finite, got '1e0'"),
    ("simulate", scalar_cfg, "step", True, "step must be positive and finite, got True"),
    ("simulate", scalar_cfg, "filter.beta", False,
     "beta must be nonnegative and finite, got False"),
    ("certify", scalar_cfg, "seed", True, "seed must be a nonnegative integer, got True"),
    ("certify", scalar_cfg, "radius_times", "3", f"radius_times must be {COUNT_RULE}, got '3'"),
    ("certify", _sampled_cfg, "hessian.centers", True,
     "hessian.centers must be a positive integer at most 1000000, got True"),
    ("simulate", scalar_cfg, "filter.P0", [[True]], "P0 must be numeric, got [[True]]"),
    ("simulate", scalar_cfg, "filter.Q", [["2"]], "Q must be numeric, got [['2']]"),
    ("simulate", scalar_cfg, "filter.R", "1.0", "R must be numeric, got '1.0'"),
    ("simulate", scalar_cfg, "filter.R", [[1.0], [1.0, 2.0]],
     "R must be numeric, got [[1.0], [1.0, 2.0]]"),
    ("simulate", scalar_cfg, "filter.xhat0", [True], "filter.xhat0 must be numeric, got [True]"),
    ("simulate", vdp_cfg, "filter.xhat0", [True, 0.2],
     "filter.xhat0 must be numeric, got [True, 0.2]"),
    ("simulate", scalar_cfg, "truth.x0", ["0.4"], "truth.x0 must be numeric, got ['0.4']"),
    ("simulate", scalar_cfg, "filter.Q", [[1.0], [1.0, 2.0]],
     "Q must be numeric, got [[1.0], [1.0, 2.0]]"),
    ("simulate", scalar_cfg, "filter.Q", [[10 ** 400]], f"Q must be numeric, got [[{10 ** 400}]]"),
    ("certify", scalar_cfg, "radius_times", math.inf,
     f"radius_times must be {COUNT_RULE}, got inf"),
    ("simulate", scalar_cfg, "horizon", 10 ** 400,
     f"horizon must be positive and finite, got {10 ** 400}"),
    ("simulate", cubic_cfg, "system.params.eps", True,
     "system.params.eps must be finite, got True"),
    ("simulate", cubic_cfg, "system.params.eps", "0.1",
     "system.params.eps must be finite, got '0.1'"),
])
def test_a_string_or_boolean_number_is_a_configuration_error(tmp_path, capsys, monkeypatch,
                                                             command, make_cfg, key, value,
                                                             message):
    monkeypatch.setattr(cli, "integrate_ekf", _unreachable)
    cfg = make_cfg(horizon=1.0)
    *sections, field = key.split(".")
    node = cfg
    for name in sections:
        node = node[name]
    node[field] = value
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("text, message", [
    ("1e400", "perturb.freq must be finite, got inf"),   # JSON reads the literal as inf
    ('"2"', "perturb.freq must be finite, got '2'"),
])
def test_a_perturb_frequency_that_is_not_a_finite_number_is_refused_before_the_run(
        tmp_path, capsys, monkeypatch, text, message):
    monkeypatch.setattr(cli, "integrate_ekf", _unreachable)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_sin_perturb_cfg(horizon=1.0)).replace(
        '"type": "sin"', f'"type": "sin", "freq": {text}'))
    out = tmp_path / "out"
    assert main(["perturb", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (out / "summary.json").exists()


def test_a_plant_parameter_of_either_sign_reaches_the_plant(tmp_path, monkeypatch):
    """The plant parameters have no sign rule: the registry's factory gets the float."""
    made, make = [], bench.make

    def recording(name, **params):
        made.append(params)
        return make(name, **params)

    monkeypatch.setattr(bench, "make", recording)
    cfg = cubic_cfg(horizon=0.1, step=0.01, system={"name": "cubic-scalar", "params": {"eps": -1}})
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert made == [{"eps": -1.0}] and type(made[0]["eps"]) is float


TRAJECTORY_COMMANDS = ["simulate", "certify", "twin", "perturb", "envelope"]


def test_every_trajectory_command_writes_the_failure_summary(tmp_path, capsys):
    # Q ~ 0 with a large P0 drives P through zero at the first step
    cfg = scalar_cfg(horizon=1.0, step=0.2, twin={"z1_0": [0.8], "z2_0": [0.3]})
    cfg["filter"]["Q"] = [[1e-12]]
    cfg["filter"]["P0"] = [[10.0]]
    path = write_cfg(tmp_path, cfg)
    keys = set()
    for cmd in TRAJECTORY_COMMANDS:
        out = tmp_path / cmd
        assert main([cmd, "--config", path, "--out", str(out)]) == 1, cmd
        assert sorted(p.name for p in out.iterdir()) == ["summary.json"], cmd
        summary = read_summary(out)
        keys.add(tuple(sorted(summary)))
        assert summary["command"] == cmd
        assert summary["status"] == "failed"
        assert summary["failure_time"] == pytest.approx(0.2)
        assert "positive definiteness" in summary["failure"]
        assert capsys.readouterr().err.startswith(f"{cmd}: failed at t=0.2: ")
    assert keys == {("command", "config", "failure", "failure_time", "status")}


def test_non_finite_model_output_writes_the_failure_summary(tmp_path, capsys):
    # from xhat0 = 1e8 the cubic drift overflows the Jacobian within the
    # first RK4 step, at its last stage t = 0.05
    cfg = cubic_cfg(horizon=2.0, step=0.05, twin={"z1_0": [0.1], "z2_0": [-0.1]})
    cfg["filter"]["xhat0"] = [1e8]
    path = write_cfg(tmp_path, cfg)
    for cmd in TRAJECTORY_COMMANDS:
        out = tmp_path / cmd
        with np.errstate(over="ignore", invalid="ignore"):
            assert main([cmd, "--config", path, "--out", str(out)]) == 1, cmd
        assert sorted(p.name for p in out.iterdir()) == ["summary.json"], cmd
        summary = read_summary(out)
        assert summary["status"] == "failed"
        assert summary["failure_time"] == 0.05
        assert "non-finite" in summary["failure"]
        assert capsys.readouterr().err.startswith(f"{cmd}: failed at t=0.05: ")


# the ekfcert.cli globals the benchmark's tracing wraps in spans; every one stays
# bound, and every one but integrate_truth, whose run is a row of integrate_ekf's, is called
TRACED_CLI_NAMES = ["integrate_truth", "integrate_ekf", "estimate_hessian_bounds",
                    "empirical_radius", "twin_decay", "perturbed_run", "envelope_check"]


def test_commands_call_the_traced_module_globals(tmp_path, monkeypatch):
    calls = dict.fromkeys(TRACED_CLI_NAMES, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in TRACED_CLI_NAMES:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    cfg = cubic_cfg(horizon=1.0, step=0.01, radius_times=2, direction_samples=2,
                    twin={"z1_0": [0.3], "z2_0": [-0.2]},
                    perturb={"type": "const", "vector": [0.01]})
    declared = write_cfg(tmp_path, cfg)
    cfg["hessian"] = {"radius": 0.5, "centers": 2}
    sampled = write_cfg(tmp_path, cfg, "sampled.json")
    for cmd, path in [("simulate", declared), ("certify", sampled), ("twin", declared),
                      ("perturb", declared), ("envelope", declared)]:
        assert main([cmd, "--config", path, "--out", str(tmp_path / cmd)]) == 0, cmd
    assert calls.pop("integrate_truth") == 0
    assert all(calls.values()), calls


def test_failed_runs_print_one_stderr_line_and_no_warnings(tmp_path, capsys):
    # the overflow of test_non_finite_model_output_writes_the_failure_summary,
    # without a caller-side np.errstate: the library scopes its own
    cfg = cubic_cfg(horizon=2.0, step=0.05, twin={"z1_0": [0.1], "z2_0": [-0.1]})
    cfg["filter"]["xhat0"] = [1e8]
    path = write_cfg(tmp_path, cfg)
    for cmd in TRAJECTORY_COMMANDS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([cmd, "--config", path, "--out", str(tmp_path / cmd)]) == 1, cmd
        assert [str(w.message) for w in caught] == [], cmd
        assert capsys.readouterr().err.splitlines() == [
            f"{cmd}: failed at t=0.05: Jacobian evaluation produced non-finite entries at t=0.05"]


# the config example of the README, on a short horizon
README_CFG = {
    "system": {"name": "cubic-scalar", "params": {"eps": 0.1}},
    "filter": {"Q": [[1.0]], "R": [[1.0]], "P0": [[0.5]], "xhat0": [0.0]},
    "truth": {"x0": [0.3]},
    "horizon": 0.1,
    "step": 0.01,
    "hessian": {"kappa_A": 0.78, "kappa_C": 0.0, "alpha": 1.0},
    "twin": {"z1_0": [0.3], "z2_0": [-0.2]},
    "perturb": {"type": "const", "vector": [0.01]},
}


def _leaves(node, path=()):
    """The key paths of every number and string in a JSON tree."""
    if not isinstance(node, (dict, list)):
        return [path]
    items = node.items() if isinstance(node, dict) else enumerate(node)
    return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(sorted(cli._HANDLERS)), path=st.sampled_from(_leaves(README_CFG)),
       value=st.sampled_from([math.nan, math.inf, -math.inf, -1, "abc", [1.0, 2.0], {"a": 1.0}]))
def test_any_bad_config_leaf_ends_in_an_exit_code_and_one_configuration_line(command, path,
                                                                              value):
    """main returns 0, 1 or 2 and raises nothing, and exit 2 writes exactly one
    "configuration error:" line, whichever leaf of the README config is bad."""
    cfg = copy.deepcopy(README_CFG)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        with open(f"{tmp}/cfg.json", "w") as fh:
            json.dump(cfg, fh)
        rc = main([command, "--config", f"{tmp}/cfg.json", "--out", f"{tmp}/out"])
    assert rc in (0, 1, 2)
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error: "), lines


# the small sampled certify config that CI also runs on an install without extras
SMALL_CERTIFY = Path(__file__).resolve().parent / "data" / "certify_cubic.json"
# numpy's compiled extensions register these two beside the numpy package
NUMPY_HELPERS = ("_cython_", "cython_runtime")


def test_the_runtime_loads_only_the_standard_library_numpy_and_ekfcert(tmp_path):
    """Importing ekfcert and its CLI and running certify in a fresh interpreter adds
    no module to sys.modules from outside the standard library, numpy and ekfcert."""
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              "import ekfcert, ekfcert.cli\n"
              "argv = ['certify', '--config', sys.argv[1], '--out', sys.argv[2]]\n"
              "code = ekfcert.cli.main(argv)\n"
              "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n")
    src = str(Path(ek.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, str(SMALL_CERTIFY), str(tmp_path)],
                          capture_output=True, text=True, env=env, check=True)
    code, added = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    allowed = sys.stdlib_module_names | {"numpy", "ekfcert"}
    assert [name for name in added if name.split(".")[0] not in allowed
            and not name.startswith(NUMPY_HELPERS)] == []
    assert {"numpy", "ekfcert.cli"} <= set(added)


# a small sampled certify config on a two-state plant, whose curvature screen prunes
SMALL_CERTIFY_VDP = Path(__file__).resolve().parent / "data" / "certify_vdp.json"


def _count_solved_matrices(monkeypatch):
    """Counters, by output width m, of the matrices eigvalsh solves inside _screened_max,
    of the matrices its axis rows take, and of those that every direction would take."""
    solved, axes, full, width = Counter(), Counter(), Counter(), [None]
    eigvalsh, screened = np.linalg.eigvalsh, model._screened_max

    def counting(a, *args, **kwargs):
        solved[width[0]] += math.prod(np.shape(a)[:-2])
        return eigvalsh(a, *args, **kwargs)

    def labelled(H, W, best):
        N, m = H.shape[:2]
        width[0] = m
        axes[m] += N * 2 * m
        full[m] += N * len(W)
        try:
            return screened(H, W, best)
        finally:
            width[0] = None

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(model, "_screened_max", labelled)
    return solved, axes, full


def test_the_curvature_screen_solves_under_an_eighth_of_the_matrices_on_the_certify_config(
        tmp_path, monkeypatch):
    """The benchmark's certify config (26 centres of 145 points, 36 directions for f):
    f's axis rows take 15 080 of the 135 720 matrices, and of the other directions only
    those of a few points are solved; h (p = 1) has axis rows only."""
    cfg = vdp_cfg(system={"name": "vanderpol-pos", "params": {"mu": 0.15}}, horizon=10.0,
                  hessian={"radius": 0.5})
    solved, axes, full = _count_solved_matrices(monkeypatch)
    assert main(["certify", "--config", write_cfg(tmp_path, cfg), "--out",
                 str(tmp_path / "out")]) == 0
    assert (full[2], axes[2]) == (135_720, 15_080)
    assert axes[2] <= solved[2] < 16_000
    assert solved[1] == axes[1] == full[1] == 7_540


def test_the_small_vanderpol_certify_config_certifies_and_prunes(tmp_path, monkeypatch):
    """The two-state config that CI also certifies on an install without extras exits 0,
    and its screen solves fewer matrices than every direction would take."""
    solved, axes, full = _count_solved_matrices(monkeypatch)
    assert main(["certify", "--config", str(SMALL_CERTIFY_VDP), "--out",
                 str(tmp_path / "out")]) == 0
    assert read_summary(tmp_path / "out")["status"] == "ok"
    assert axes[2] <= solved[2] < full[2]


# a one-state config with twin and perturb sections, whose virtual rows and disturbance CI
# also runs on an install without extras
TRAJECTORIES_CUBIC = Path(__file__).resolve().parent / "data" / "trajectories_cubic.json"


@pytest.mark.parametrize("command", ["twin", "perturb"])
def test_the_one_state_trajectories_config_passes_twin_and_perturb(tmp_path, command):
    out = tmp_path / "out"
    assert main([command, "--config", str(TRAJECTORIES_CUBIC), "--out", str(out)]) == 0
    assert read_summary(out)["status"] == "ok"


def test_certify_with_an_overflowing_curvature_sample_fails_at_its_time(tmp_path, capsys):
    """f = 6e307 (x0^2, x1^2) by finite differences, run from the origin, where it stays:
    the Hessians are finite, their sampled norm is not, so certify fails at the first
    centre instead of certifying with kappa_A = 0."""
    def factory():
        return bench.BenchmarkEntry(
            name="overflow-curvature",
            model=ek.SystemModel(state_dim=2, output_dim=1,
                                 dynamics=lambda x, t: 6e307 * x * x,
                                 output=lambda x, t: x[:1].copy()))

    ek.register("overflow-curvature", factory)
    try:
        cfg = vdp_cfg(system={"name": "overflow-curvature"}, hessian={"radius": 0.5},
                      filter={"Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]],
                              "P0": [[1.0, 0.0], [0.0, 1.0]], "xhat0": [0.0, 0.0]},
                      truth={"x0": [0.0, 0.0]})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["certify", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    finally:
        bench._FACTORIES.pop("overflow-curvature", None)
    assert rc == 1
    summary = read_summary(out)
    assert (summary["status"], summary["failure"], summary["failure_time"]) == (
        "failed", "Hessian sample non-finite at t=0.0", 0.0)
    assert "certify: failed at t=0: Hessian sample non-finite at t=0.0" in capsys.readouterr().err
