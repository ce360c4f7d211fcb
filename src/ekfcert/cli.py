"""Batch command-line front-end: simulate, certify, compare, twin, perturb, envelope.

Every command reads one JSON config file, runs deterministically (fixed-step
integration, seeded sampling), writes CSV traces plus a summary JSON that
embeds the resolved config, and signals its result through the exit code:
0 all checks passed, 1 a check failed, 2 the configuration was invalid.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bench
from .contraction import (ContractionCertificate, compare_analyses,
                          empirical_radius, make_certificate)
from .ekf import FilterConfig, FilterTrajectory, covariance_bounds_report, integrate_ekf
from .errors import (ConfigurationError, CovarianceBoundViolation,
                     DivergenceError, EkfCertError, PreconditionError)
from .model import HessianBounds, estimate_hessian_bounds
from .sim import (Disturbance, envelope_check, integrate_truth, perturbed_run,
                  twin_decay)

FLOAT_FMT = "%.17g"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ekfcert",
        description="Extended Kalman filter runs with contraction-based "
                    "convergence certificates")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("simulate", "run truth + filter, report covariance bounds"),
            ("certify", "emit a contraction certificate and radius series"),
            ("compare", "tabulate rate/basin formulas of the two analyses"),
            ("twin", "decay of two virtual trajectories under the filter gain"),
            ("perturb", "disturbed virtual trajectory vs the certified ball"),
            ("envelope", "estimation error vs its certified envelope")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default="ekfcert_out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the sampling seed")
        p.add_argument("--gamma", type=float, default=None,
                       help="override the contraction rate")
        p.add_argument("--beta", type=float, default=None,
                       help="override the exponential covariance inflation rate")
        p.add_argument("--inflation-n", default=None, metavar="PATH",
                       help="whitespace-separated matrix file for the additive "
                            "covariance inflation N")
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


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> None:
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.gamma is not None:
        cfg["gamma"] = args.gamma
    if args.beta is not None:
        cfg.setdefault("filter", {})["beta"] = args.beta
    if args.inflation_n is not None:
        try:
            N = np.loadtxt(args.inflation_n, ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"cannot read inflation matrix {args.inflation_n}: {exc}") from None
        cfg.setdefault("filter", {})["N"] = N.tolist()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    return obj


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list, columns: list) -> None:
    columns = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(FLOAT_FMT % v for v in row) + "\n")


def _matrix(value, name: str) -> np.ndarray:
    if value is None:
        raise ConfigurationError(f"config field {name} is required")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"config field {name} is not numeric: {exc}") from None


def _section(cfg: dict, name: str) -> dict:
    value = cfg.get(name)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigurationError(f"config section {name!r} must be an object")
    return value


def _prepare_run(cfg: dict):
    sys_cfg = _section(cfg, "system")
    if "name" not in sys_cfg:
        raise ConfigurationError("config needs system.name")
    entry = bench.make(sys_cfg["name"], **sys_cfg.get("params", {}))
    fil = _section(cfg, "filter")
    for key in ("Q", "R", "P0", "xhat0"):
        if key not in fil:
            raise ConfigurationError(f"config needs filter.{key}")
    if "horizon" not in cfg:
        raise ConfigurationError("config needs horizon")
    N = fil.get("N")
    fconfig = FilterConfig(
        model=entry.model,
        Q=_matrix(fil["Q"], "filter.Q"),
        R=_matrix(fil["R"], "filter.R"),
        P0=_matrix(fil["P0"], "filter.P0"),
        x0=_matrix(fil["xhat0"], "filter.xhat0").reshape(-1),
        horizon=float(cfg["horizon"]),
        step=None if cfg.get("step") is None else float(cfg["step"]),
        beta=float(fil.get("beta", 0.0)),
        N=None if N is None else _matrix(N, "filter.N"))
    x0 = _matrix(_section(cfg, "truth").get("x0", fil["xhat0"]), "truth.x0").reshape(-1)
    truth, y = integrate_truth(entry.model, x0, fconfig.horizon, fconfig.step)
    traj = integrate_ekf(fconfig, y)
    return entry, fconfig, truth, traj


def _hessian_bounds(cfg: dict, entry, traj: FilterTrajectory) -> HessianBounds:
    hes = _section(cfg, "hessian")
    if hes.get("kappa_A") is not None and hes.get("kappa_C") is not None:
        alpha = float(hes.get("alpha", "inf"))
        return HessianBounds(alpha=alpha, kappa_A=float(hes["kappa_A"]),
                             kappa_C=float(hes["kappa_C"]), sampled=False)
    if hes.get("radius") is None:
        raise ConfigurationError(
            "config needs hessian.radius (or explicit hessian.kappa_A/kappa_C)")
    path = [(traj.states[k], float(traj.times[k])) for k in range(len(traj.times))]
    return estimate_hessian_bounds(
        entry.model, path, float(hes["radius"]),
        safety=float(hes.get("safety", 1.1)),
        max_centers=int(hes.get("centers", 25)),
        seed=int(cfg.get("seed", 0)))


def _certificate(cfg: dict, entry, traj: FilterTrajectory) -> ContractionCertificate:
    report = covariance_bounds_report(traj)
    hess = _hessian_bounds(cfg, entry, traj)
    gamma = cfg.get("gamma")
    return make_certificate(report, hess, None if gamma is None else float(gamma))


def _trajectory_csv(path: Path, traj: FilterTrajectory) -> None:
    n = traj.config.model.state_dim
    p = traj.config.model.output_dim
    header = ["t"]
    columns = [traj.times]
    for i in range(n):
        header.append(f"xhat_{i}")
        columns.append(traj.states[:, i])
    for i in range(n):
        for j in range(i, n):
            header.append(f"P_{i}{j}")
            columns.append(traj.covariances[:, i, j])
    for i in range(n):
        for j in range(p):
            header.append(f"K_{i}{j}")
            columns.append(traj.gains[:, i, j])
    _write_csv(path, header, columns)


def cmd_simulate(cfg: dict, out: Path) -> int:
    try:
        entry, fconfig, truth, traj = _prepare_run(cfg)
    except (DivergenceError, CovarianceBoundViolation) as exc:
        _write_json(out / "summary.json", {
            "command": "simulate", "config": cfg, "status": "failed",
            "failure": str(exc), "failure_time": exc.time})
        print(f"simulate: failed at t={exc.time:.6g}: {exc}", file=sys.stderr)
        return 1
    report = covariance_bounds_report(traj)
    _trajectory_csv(out / "trajectory.csv", traj)
    _write_json(out / "summary.json", {
        "command": "simulate", "config": cfg, "status": "ok",
        "report": report, "system": entry.name})
    print(f"simulate: p_lo={report['p_lo']:.6g} p_hi={report['p_hi']:.6g} "
          f"q_lo={report['q_lo']:.6g}")
    print(f"wrote {out / 'trajectory.csv'} and {out / 'summary.json'}")
    return 0 if report["positive_definite"] else 1


def cmd_certify(cfg: dict, out: Path) -> int:
    entry, fconfig, truth, traj = _prepare_run(cfg)
    cert = _certificate(cfg, entry, traj)
    seed = int(cfg.get("seed", 0))
    samples = int(cfg.get("radius_times", 9))
    idx = np.unique(np.linspace(0, len(traj.times) - 1, samples).astype(int))
    radii = [empirical_radius(entry.model, traj.states[k], traj.covariances[k],
                              fconfig.Q, fconfig.R, cert.gamma, float(traj.times[k]),
                              direction_samples=int(cfg.get("direction_samples", 64)),
                              seed=seed)
             for k in idx]
    _write_csv(out / "radius.csv", ["t", "r_empirical", "zeta_plus"],
               [traj.times[idx], radii, np.full(len(idx), cert.zeta_plus)])
    _write_json(out / "summary.json", {
        "command": "certify", "config": cfg, "status": "ok",
        "certificate": cert.as_dict(),
        "report": covariance_bounds_report(traj),
        "radius_series": [{"t": float(traj.times[k]), "r_empirical": float(r)}
                          for k, r in zip(idx, radii)]})
    print(f"certify: gamma={cert.gamma:.6g} zeta_plus={cert.zeta_plus:.6g} "
          f"rho={cert.rho:.6g} basin_euclid={cert.basin_euclid:.6g}")
    print(f"wrote {out / 'radius.csv'} and {out / 'summary.json'}")
    return 0


def cmd_compare(cfg: dict, out: Path) -> int:
    comp = _section(cfg, "compare")
    for key in ("p_lo", "p_hi", "q_lo", "r_lo", "kappa_A", "kappa_C"):
        if key not in comp:
            raise ConfigurationError(f"config needs compare.{key}")
    c_hi = comp.get("c_hi")
    rows = compare_analyses(float(comp["p_lo"]), float(comp["p_hi"]),
                            float(comp["q_lo"]), float(comp["r_lo"]),
                            float(comp["kappa_A"]), float(comp["kappa_C"]),
                            None if c_hi is None else float(c_hi))
    labels = {"rate": "rate", "basin_kappa_C0": "basin (kappa_C = 0)",
              "basin_kappa_A0": "basin (kappa_A = 0)"}

    def cell(v) -> str:
        return "unavailable" if v is None else ("%.6g" % v)

    print(f"{'quantity':<22}{'lyapunov':>16}{'contraction':>16}{'ratio':>16}")
    for key, label in labels.items():
        print(f"{label:<22}{cell(rows['lyapunov'][key]):>16}"
              f"{cell(rows['contraction'][key]):>16}{cell(rows['ratio'][key]):>16}")
    _write_json(out / "summary.json", {
        "command": "compare", "config": cfg, "status": "ok", "table": rows})
    print(f"wrote {out / 'summary.json'}")
    return 0


def cmd_twin(cfg: dict, out: Path) -> int:
    entry, fconfig, truth, traj = _prepare_run(cfg)
    cert = _certificate(cfg, entry, traj)
    twin_cfg = _section(cfg, "twin")
    for key in ("z1_0", "z2_0"):
        if key not in twin_cfg:
            raise ConfigurationError(f"config needs twin.{key}")
    run = twin_decay(entry.model, traj,
                     _matrix(twin_cfg["z1_0"], "twin.z1_0").reshape(-1),
                     _matrix(twin_cfg["z2_0"], "twin.z2_0").reshape(-1),
                     certificate=cert)
    _write_csv(out / "twin.csv", ["t", "dist_w", "dist_e"],
               [run.times, run.weighted_dist, run.euclid_dist])
    # the rate guarantee only binds when both starts are inside the basin
    passed = run.info["rate_pass"] or not run.info["within_basin"]
    _write_json(out / "summary.json", {
        "command": "twin", "config": cfg, "status": "ok",
        "certificate": cert.as_dict(), "info": run.info,
        "fitted_rate": run.fitted_rate, "passed": passed})
    print(f"twin: fitted_rate={run.fitted_rate:.6g} threshold="
          f"{2.0 * cert.gamma * 0.9:.6g} within_basin={run.info['within_basin']} "
          f"pass={passed}")
    print(f"wrote {out / 'twin.csv'} and {out / 'summary.json'}")
    return 0 if passed else 1


def cmd_perturb(cfg: dict, out: Path) -> int:
    entry, fconfig, truth, traj = _prepare_run(cfg)
    pert = _section(cfg, "perturb")
    vec = _matrix(pert.get("vector", np.zeros(entry.model.state_dim)),
                  "perturb.vector").reshape(-1)
    kind = pert.get("type", "const")
    if kind == "const":
        dist = Disturbance(b=lambda x, t: vec, b_max=float(np.linalg.norm(vec)))
    elif kind == "sin":
        freq = float(pert.get("freq", 1.0))
        dist = Disturbance(b=lambda x, t: vec * math.sin(freq * t),
                           b_max=float(np.linalg.norm(vec)))
    else:
        raise ConfigurationError(f"unknown perturb.type {kind!r}")
    z0 = _matrix(pert.get("z0", fconfig.x0), "perturb.z0").reshape(-1)
    gamma = cfg.get("gamma")
    run = perturbed_run(entry.model, traj, dist, z0,
                        gamma=None if gamma is None else float(gamma))
    _write_csv(out / "perturb.csv", ["t", "dist_w", "dist_e"],
               [run.times, run.weighted_dist, run.euclid_dist])
    passed = run.info["within_standard"]
    _write_json(out / "summary.json", {
        "command": "perturb", "config": cfg, "status": "ok",
        "info": run.info, "passed": passed})
    print(f"perturb: steady_radius={run.info['steady_radius']:.6g} "
          f"ball_standard={run.info['ball_standard']:.6g} "
          f"ball_printed={run.info['ball_printed']:.6g} pass={passed}")
    print(f"wrote {out / 'perturb.csv'} and {out / 'summary.json'}")
    return 0 if passed else 1


def cmd_envelope(cfg: dict, out: Path) -> int:
    entry, fconfig, truth, traj = _prepare_run(cfg)
    cert = _certificate(cfg, entry, traj)
    report = envelope_check(traj, truth, cert)
    _write_csv(out / "envelope.csv", ["t", "error", "envelope", "margin"],
               [report.times, report.error, report.envelope, report.margins])
    _write_json(out / "summary.json", {
        "command": "envelope", "config": cfg, "status": "ok",
        "certificate": cert.as_dict(),
        "worst_margin": report.worst_margin, "worst_time": report.worst_time,
        "initial_error": report.initial_error,
        "within_basin": report.within_basin, "passed": report.passed})
    print(f"envelope: worst_margin={report.worst_margin:.6g} at "
          f"t={report.worst_time:.6g} within_basin={report.within_basin} "
          f"pass={report.passed}")
    print(f"wrote {out / 'envelope.csv'} and {out / 'summary.json'}")
    return 0 if report.passed else 1


_HANDLERS = {
    "simulate": cmd_simulate,
    "certify": cmd_certify,
    "compare": cmd_compare,
    "twin": cmd_twin,
    "perturb": cmd_perturb,
    "envelope": cmd_envelope,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        _apply_overrides(cfg, args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _HANDLERS[args.command](cfg, out)
    except (ConfigurationError, PreconditionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, CovarianceBoundViolation) as exc:
        when = "" if exc.time is None else f" at t={exc.time:.6g}"
        print(f"run failed{when}: {exc}", file=sys.stderr)
        return 1
    except EkfCertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
