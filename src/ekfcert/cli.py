"""Batch command-line front-end: simulate, certify, compare, twin, perturb, envelope.

Every command reads one JSON config file, runs deterministically (fixed-step
integration, seeded sampling), writes CSV traces plus a summary JSON that
embeds the resolved config, and signals its result through the exit code:
0 all checks passed, 1 a check or the run failed, 2 the configuration was
invalid. A run that diverges, loses positive definiteness or meets
non-finite model output still writes summary.json, with status "failed".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import bench
from .contraction import compare_analyses, empirical_radius, make_certificate
from .ekf import FilterConfig, FilterTrajectory, integrate_ekf
from .errors import ConfigurationError, PreconditionError, RunFailure
from .model import (_RULES, SIGN_FREE_RULE, HessianBounds, _scalar, _scalars, _state,
                    estimate_hessian_bounds)
# integrate_truth is not called here, but stays bound: perfbench/tracing.py wraps it by name
from .sim import (BALL_RATE_RULE, RATE_SLACK, Disturbance, envelope_check,
                  integrate_truth, perturbed_run, twin_decay)

FLOAT_FMT = "%.17g"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ekfcert",
        description="Extended Kalman filter runs with contraction-based "
                    "convergence certificates")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _HANDLERS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default="ekfcert_out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the sampling seed")
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be a JSON object")
    return cfg


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else str(f)   # "nan", "inf" or "-inf"
    return obj


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, columns: dict) -> None:
    """One column per entry of ``columns``, headed by its key, in order."""
    values = [np.asarray(c, dtype=float) for c in columns.values()]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*values):
            fh.write(",".join(FLOAT_FMT % v for v in row) + "\n")


_REQUIRED = object()


def _read(cfg: dict, path: str, kind: type | None = None, default=_REQUIRED):
    """The config value at the dotted ``path``, the one navigator of the config. An absent
    key or a JSON null reads as ``default``, else "config needs <path>"; a section so read
    is {}. A ``kind`` of str or dict must be one. Numbers and arrays are returned as given:
    the library reader of their argument (_scalar, _state or ekf._check_spd) judges them."""
    *sections, key = path.split(".")
    node = cfg
    for name in sections:
        node = {} if node.get(name) is None else node[name]
        if not isinstance(node, dict):
            raise ConfigurationError(f"config section {name!r} must be an object")
    value = node.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigurationError(f"config needs {path}")
        return default
    if kind is not None and not isinstance(value, kind):
        raise ConfigurationError(
            f"config field {path} must be {'a string' if kind is str else 'an object'}")
    return value


def _prepare_run(cfg: dict, starts: dict | None = None,
                 disturbance: Callable[[int], Disturbance] | None = None):
    """The registry name of the configured system and its one filter run on the truth start
    (named by its config key, as ``filter.xhat0`` is), with virtual rows from ``starts`` (name
    -> start, each read as a state of that name) under the disturbance ``disturbance(n)``."""
    name = _read(cfg, "system.name", str)
    params = {key: _scalar(_read(cfg, f"system.params.{key}"), f"system.params.{key}",
                           SIGN_FREE_RULE) for key in _read(cfg, "system.params", dict, {})}
    entry = bench.make(name, **params)
    n = entry.model.state_dim
    fconfig = FilterConfig(
        model=entry.model, Q=_read(cfg, "filter.Q"), R=_read(cfg, "filter.R"),
        P0=_read(cfg, "filter.P0"), x0=_state(_read(cfg, "filter.xhat0"), n, "filter.xhat0"),
        horizon=_read(cfg, "horizon"), step=_read(cfg, "step", default=None),
        beta=_read(cfg, "filter.beta", default=0.0), N=_read(cfg, "filter.N", default=None))
    x0 = _state(_read(cfg, "truth.x0", default=fconfig.x0), n, "truth.x0")
    rows = None if starts is None else [_state(z, n, name) for name, z in starts.items()]
    return entry.name, integrate_ekf(fconfig, x0=x0, starts=rows,
                                     disturbance=None if disturbance is None else disturbance(n))


def _gamma(cfg: dict, rule: str | None = None) -> float | None:
    """The config's gamma or None, checked before the run but for its cap, which needs it."""
    gamma = _read(cfg, "gamma", default=None)
    return gamma if gamma is None else _scalar(gamma, "gamma", rule)


def _certified_run(cfg: dict, starts: dict | None = None) -> tuple:
    """_prepare_run's filter run and its certificate, from declared curvature bounds (both
    kappas) or sampled ones; hessian.*, gamma and seed are read and checked first."""
    declared = any(_read(cfg, f"hessian.{key}", default=None) is not None
                   for key in ("kappa_A", "kappa_C"))
    hess = HessianBounds(kappa_A=_read(cfg, "hessian.kappa_A"),
                         kappa_C=_read(cfg, "hessian.kappa_C"),
                         alpha=_read(cfg, "hessian.alpha", default=math.inf)) if declared else None
    for key in ("radius", "safety", "centers") if declared else ():
        if _read(cfg, f"hessian.{key}", default=None) is not None:
            raise ConfigurationError(f"hessian.{key} belongs to sampled bounds; "
                                     "explicit hessian.kappa_A/kappa_C are not sampled")
    if hess is None:
        radius = _read(cfg, "hessian.radius", default=None)
        if radius is None:
            raise ConfigurationError(
                "config needs hessian.radius (or explicit hessian.kappa_A/kappa_C)")
        if _read(cfg, "hessian.alpha", default=None) is not None:
            raise ConfigurationError("hessian.alpha needs explicit hessian.kappa_A/kappa_C; "
                                     "a sampled radius is its own alpha")
        options = _scalars(
            radius=radius, safety=_read(cfg, "hessian.safety", default=1.1),
            max_centers=_scalar(_read(cfg, "hessian.centers", default=25), "hessian.centers",
                                _RULES["max_centers"]), seed=_read(cfg, "seed", default=0))
    gamma = _gamma(cfg)
    _, run = _prepare_run(cfg, starts)
    hess = hess or estimate_hessian_bounds(run.config.model, run.states, run.times, **options)
    return run, make_certificate(run, hess, gamma)


def _bounds_report(run: FilterTrajectory) -> dict:
    """The covariance bounds of ``run`` that simulate and certify write: p_lo and p_hi over
    its nodes (observations at the nodes, not a proof between them), their ratio and node
    times, and the q_lo and r_lo of its config."""
    return {"p_lo": run.p_lo, "p_hi": run.p_hi, "ratio": run.p_hi / run.p_lo,
            "t_at_p_lo": run.t_at_p_lo, "t_at_p_hi": run.t_at_p_hi,
            "q_lo": run.config.q_lo, "r_lo": run.config.r_lo}


def _trajectory_columns(traj: FilterTrajectory) -> dict:
    n = traj.config.model.state_dim
    p = traj.config.model.output_dim
    return {"t": traj.times,
            **{f"xhat_{i}": traj.states[:, i] for i in range(n)},
            **{f"P_{i}{j}": traj.covariances[:, i, j] for i in range(n) for j in range(i, n)},
            **{f"K_{i}{j}": traj.gains[:, i, j] for i in range(n) for j in range(p)}}


def cmd_simulate(cfg: dict) -> tuple[dict, bool, dict | None]:
    system, run = _prepare_run(cfg)
    print(f"simulate: p_lo={run.p_lo:.6g} p_hi={run.p_hi:.6g} q_lo={run.config.q_lo:.6g}")
    return {"report": _bounds_report(run), "system": system}, True, _trajectory_columns(run)


def cmd_certify(cfg: dict) -> tuple[dict, bool, dict | None]:
    samples, seed, directions = (_scalar(_read(cfg, key, default=default), key) for key, default
                                 in (("radius_times", 9), ("seed", 0), ("direction_samples", 64)))
    traj, cert = _certified_run(cfg)
    idx = np.unique(np.linspace(0, len(traj.times) - 1, samples).astype(int))
    radii = empirical_radius(traj.config.model, traj.states[idx], traj.covariances[idx],
                             traj.config.Q, traj.config.R, cert.gamma, traj.times[idx],
                             direction_samples=directions, seed=seed)
    print(f"certify: gamma={cert.gamma:.6g} zeta_plus={cert.zeta_plus:.6g} "
          f"rho={cert.rho:.6g} basin_euclid={cert.basin_euclid:.6g}")
    fields = {
        "certificate": dataclasses.asdict(cert),
        "report": _bounds_report(traj),
        "radius_series": [{"t": float(traj.times[k]), "r_empirical": float(r)}
                          for k, r in zip(idx, radii)]}
    return fields, True, {"t": traj.times[idx], "r_empirical": radii,
                          "zeta_plus": np.full(len(idx), cert.zeta_plus)}


def cmd_compare(cfg: dict) -> tuple[dict, bool, dict | None]:
    values = [_read(cfg, f"compare.{key}")
              for key in ("p_lo", "p_hi", "q_lo", "r_lo", "kappa_A", "kappa_C")]
    rows = compare_analyses(*values, _read(cfg, "compare.c_hi", default=None))
    labels = {"rate": "rate", "basin_kappa_C0": "basin (kappa_C = 0)",
              "basin_kappa_A0": "basin (kappa_A = 0)"}

    def cell(v) -> str:
        return "unavailable" if v is None else ("%.6g" % v)

    print(f"{'quantity':<22}{'lyapunov':>16}{'contraction':>16}{'ratio':>16}")
    for key, label in labels.items():
        print(f"{label:<22}{cell(rows['lyapunov'][key]):>16}"
              f"{cell(rows['contraction'][key]):>16}{cell(rows['ratio'][key]):>16}")
    return {"table": rows}, True, None


def cmd_twin(cfg: dict) -> tuple[dict, bool, dict | None]:
    starts = {name: _read(cfg, f"twin.{name}") for name in ("z1_0", "z2_0")}
    traj, cert = _certified_run(cfg, starts)
    run = twin_decay(traj, certificate=cert)
    # the rate guarantee only binds when both starts are inside the basin; a NaN
    # rate (rate_pass None: twins that never separate) is no signal, not a pass
    passed = run.info["rate_pass"] is True or not run.info["within_basin"]
    print(f"twin: fitted_rate={run.fitted_rate:.6g} threshold="
          f"{2.0 * cert.gamma * RATE_SLACK:.6g} within_basin={run.info['within_basin']} "
          f"pass={passed}" + (" (no signal)" if run.info["rate_pass"] is None else ""))
    fields = {"certificate": dataclasses.asdict(cert), "info": run.info,
              "fitted_rate": run.fitted_rate, "passed": passed}
    return fields, passed, {"t": run.times, "dist_w": run.weighted_dist,
                            "dist_e": run.euclid_dist}


def cmd_perturb(cfg: dict) -> tuple[dict, bool, dict | None]:
    vec = _read(cfg, "perturb.vector", default=None)
    kind = _read(cfg, "perturb.type", str, "const")
    if kind not in ("const", "sin"):
        raise ConfigurationError(f"unknown perturb.type {kind!r}")
    freq = (_scalar(_read(cfg, "perturb.freq", default=1.0), "perturb.freq", SIGN_FREE_RULE)
            if kind == "sin" else 0.0)
    # the disturbed copy starts at the estimate's start unless perturb.z0 is given
    z0 = _read(cfg, "perturb.z0", default=_read(cfg, "filter.xhat0"))
    gamma = _gamma(cfg, BALL_RATE_RULE)

    def disturbance(n: int) -> Disturbance:
        b = np.zeros(n) if vec is None else _state(vec, n, "perturb.vector")
        return Disturbance(b=(lambda x, t: b) if kind == "const"
                           else (lambda x, t: b * math.sin(freq * t)),
                           b_max=float(np.linalg.norm(b)))

    _, traj = _prepare_run(cfg, {"z0": z0}, disturbance)
    run = perturbed_run(traj, gamma=gamma)
    passed = run.info["within_standard"]
    print(f"perturb: steady_radius={run.info['steady_radius']:.6g} "
          f"ball_standard={run.info['ball_standard']:.6g} "
          f"ball_printed={run.info['ball_printed']:.6g} pass={passed}")
    return {"info": run.info, "passed": passed}, passed, {
        "t": run.times, "dist_w": run.weighted_dist, "dist_e": run.euclid_dist}


def cmd_envelope(cfg: dict) -> tuple[dict, bool, dict | None]:
    traj, cert = _certified_run(cfg)
    report = envelope_check(traj, cert)
    print(f"envelope: worst_margin={report.worst_margin:.6g} at "
          f"t={report.worst_time:.6g} within_basin={report.within_basin} "
          f"pass={report.passed}")
    fields = {"certificate": dataclasses.asdict(cert),
              "worst_margin": report.worst_margin, "worst_time": report.worst_time,
              "initial_error": report.initial_error,
              "within_basin": report.within_basin, "passed": report.passed}
    return fields, report.passed, {"t": report.times, "error": report.error,
                                   "envelope": report.envelope,
                                   "margin": report.margins}


# command -> (handler, CSV file name, help text), in the order --help lists them. A handler
# runs its computation, prints its one result line and returns (summary fields, passed, CSV
# columns or None).
_HANDLERS = {
    "simulate": (cmd_simulate, "trajectory.csv", "run truth + filter, report covariance bounds"),
    "certify": (cmd_certify, "radius.csv", "emit a contraction certificate and radius series"),
    "compare": (cmd_compare, None, "tabulate rate/basin formulas of the two analyses"),
    "twin": (cmd_twin, "twin.csv", "decay of two virtual trajectories under the filter gain"),
    "perturb": (cmd_perturb, "perturb.csv", "disturbed virtual trajectory vs the certified ball"),
    "envelope": (cmd_envelope, "envelope.csv", "estimation error vs its certified envelope"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, csv_name, _ = _HANDLERS[args.command]
    try:
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"cannot create output directory {out}: {exc}") from None
        try:
            fields, passed, columns = handler(cfg)
            fields["status"] = "ok"
        except RunFailure as exc:
            # a failed run writes summary.json only, with the failure and its time
            print(f"{args.command}: failed at t={exc.time:.6g}: {exc}", file=sys.stderr)
            fields = {"status": "failed", "failure": str(exc), "failure_time": exc.time}
            passed, columns = False, None
        files = [] if columns is None else [(out / csv_name, _write_csv, columns)]
        files.append((out / "summary.json", _write_json,
                      {"command": args.command, "config": cfg, **fields}))
        for path, write, content in files:
            try:
                write(path, content)
            except OSError as exc:
                raise ConfigurationError(f"cannot write {path}: {exc}") from None
        print("wrote " + " and ".join(str(path) for path, _, _ in files))
        return 0 if passed else 1
    except (ConfigurationError, PreconditionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
