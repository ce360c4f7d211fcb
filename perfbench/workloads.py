"""Workload definitions: generated inputs, operations and output checks.

A workload is a fixed list of operations run back to back by one caller
(closed loop, no concurrency). A CLI operation calls ``ekfcert.cli.main``
in-process with a config file the benchmark generates; a library
operation calls the public API directly. Each operation is a timed
``call`` and an untimed ``collect`` that records the values and output
file hashes which the correctness gate compares against the stored
reference (``reference.json``) and against the first pass.

The workload seed feeds ``--seed`` of the CLI, which sets the kappa and
radius sampling directions; on the library workload it picks the second
validator start. Values whose name is listed in a workload's
``seeded`` set depend on the seed and are compared with the reference
only at the reference seed; every other value is compared at any seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

REFERENCE_SEED = 0
# relative tolerance of the reference comparison; bisection in
# empirical_radius stops at rel_tol 1e-6, so a reordering of floating-point
# sums may move r_empirical by up to that much but not by 1e-5
REL_TOL = 1e-5

VDP_SYSTEM = {"name": "vanderpol-pos", "params": {"mu": 0.15}}
VDP_BASE = {
    "filter": {"Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]],
               "P0": [[1.0, 0.0], [0.0, 1.0]], "xhat0": [0.3, 0.2]},
    "truth": {"x0": [0.34, 0.2]},
    "horizon": 10.0,
}
# analytic vanderpol-pos curvature bound 4 mu alpha / sqrt(3) at mu 0.15, alpha 0.5
VDP_KAPPA_A = 4.0 * 0.15 * 0.5 / math.sqrt(3.0)

CUBIC_EPS = 0.1
CUBIC_HORIZON = 4.0
CUBIC_STEPS = 4000
CUBIC_X0 = 0.3
# the tier-1 bound on the variational deviation at T/4000
VARIATIONAL_LIMIT = 1e-4


def api(wrap=None) -> SimpleNamespace:
    """The entry points operations call; ``wrap(span, fn)`` adds tracing."""
    import ekfcert as ek
    from ekfcert import cli

    if wrap is None:
        return SimpleNamespace(cli_main=cli.main, integrate_ekf=ek.integrate_ekf,
                               variational_validator=ek.variational_validator)
    return SimpleNamespace(
        cli_main=lambda argv: wrap(f"cli.{argv[0]}", cli.main)(argv),
        integrate_ekf=wrap("ekf.integrate_ekf", ek.integrate_ekf),
        variational_validator=wrap("sim.variational_validator",
                                   ek.variational_validator))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


class OpResult:
    """Outcome of one operation: checks failed, values and output hashes."""

    def __init__(self, name: str):
        self.name = name
        self.problems: list[str] = []
        self.values: dict[str, float] = {}
        self.files: dict[str, str] = {}
        self.raw = 0.0       # seconds inside the call
        self.latency = 0.0   # the same, host-scaled (see hostspeed.py)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


class CliWorkload:
    """Runs ``ekfcert <command> --config <cfg> --seed <seed>`` in-process.

    ``ops()`` yields (name, call, collect): ``call(lib)`` is the timed part,
    ``collect(result, returned)`` reads and records the outputs.
    """

    def __init__(self, name: str, plant: str, commands: list, config: dict,
                 seeded: set, files: set):
        self.name = name
        self.plant = plant
        self.commands = commands
        self.config = config
        self.seeded = seeded
        # output files other than summary.json whose bytes depend on the seed
        self.seeded_files = files

    def prepare(self, workdir: Path, seed: int, plant: str | None = None) -> None:
        """Write the generated config; ``plant`` renames the system (tracing)."""
        self.seed = seed
        cfg = json.loads(json.dumps(self.config))
        cfg["system"] = dict(cfg["system"], name=plant or self.plant)
        self.workdir = workdir
        self.config_path = _write_config(workdir / f"{self.name}.json", cfg)

    def ops(self):
        return [(cmd, self._call(cmd), self._collect(cmd)) for cmd in self.commands]

    def _call(self, cmd: str):
        def call(lib) -> int:
            argv = [cmd, "--config", str(self.config_path),
                    "--out", str(self.workdir / cmd), "--seed", str(self.seed)]
            with contextlib.redirect_stdout(io.StringIO()):
                return lib.cli_main(argv)
        return call

    def _collect(self, cmd: str):
        def collect(result: OpResult, code: int) -> None:
            out = self.workdir / cmd
            result.expect(code == 0, f"exit code {code}")
            summary = json.loads((out / "summary.json").read_text())
            result.expect(summary.get("status") == "ok",
                          f"status {summary.get('status')!r}")
            if "passed" in summary:
                result.expect(summary["passed"] is True, "passed is not true")
            for key, value in EXTRACT[cmd](summary).items():
                result.values[f"{cmd}.{key}"] = value
            for fname in ("summary.json", OUTPUT_CSV[cmd]):
                result.files[f"{cmd}/{fname}"] = sha256(out / fname)
        return collect

    def file_seeded(self, key: str) -> bool:
        # summary.json echoes the config, which holds the seed
        return key.endswith("summary.json") or key in self.seeded_files

    def micro_inputs(self):
        """(model, x0, P0, Q, R) of the generated config, for micro-timings."""
        import ekfcert as ek
        fil = self.config["filter"]
        model = ek.make(self.plant, **self.config["system"]["params"]).model
        return (model, fil["xhat0"],
                *(np.asarray(fil[k], dtype=float) for k in ("P0", "Q", "R")))


OUTPUT_CSV = {"simulate": "trajectory.csv", "certify": "radius.csv",
              "twin": "twin.csv", "perturb": "perturb.csv",
              "envelope": "envelope.csv"}

CERT_KEYS = ("p_lo", "p_hi", "gamma", "kappa_A", "zeta_plus", "rho")


def _certify_values(s: dict) -> dict:
    vals = {k: s["certificate"][k] for k in CERT_KEYS}
    for i, row in enumerate(s["radius_series"]):
        vals[f"r_empirical.{i}"] = row["r_empirical"]
    return vals


EXTRACT = {
    "simulate": lambda s: {"p_lo": s["report"]["p_lo"], "p_hi": s["report"]["p_hi"]},
    "certify": _certify_values,
    "twin": lambda s: {"fitted_rate": s["fitted_rate"],
                       **{k: s["certificate"][k] for k in CERT_KEYS}},
    "perturb": lambda s: {"steady_radius": s["info"]["steady_radius"]},
    "envelope": lambda s: {"worst_margin": s["worst_margin"],
                           **{k: s["certificate"][k] for k in CERT_KEYS}},
}


class VariationalWorkload:
    """Library run on cubic-scalar: integrate_ekf, then variational_validator.

    Mirrors the tier-1 variational test at T/4000: the filter is driven by
    the registry's closed-form measurement from x0 = 0.3, and the validator
    runs from the truth start and from a seeded start in [-0.6, 0.6].
    """

    name = "variational-cubic"
    plant = "cubic-scalar"
    seeded = {"validator_seeded.deviation"}

    def prepare(self, workdir: Path, seed: int, plant: str | None = None) -> None:
        import ekfcert as ek
        self.seed = seed
        self.entry = ek.make(plant or self.plant, eps=CUBIC_EPS)
        self.config = ek.FilterConfig(
            model=self.entry.model, Q=np.eye(1), R=np.eye(1),
            P0=np.array([[2.0]]), x0=np.array([0.5]),
            horizon=CUBIC_HORIZON, step=CUBIC_HORIZON / CUBIC_STEPS)
        state = self.entry.analytic["state"]
        x0 = np.array([CUBIC_X0])
        self.measurement = lambda t: state(t, x0)
        rng = np.random.default_rng(seed)
        self.starts = {"validator_truth": x0,
                       "validator_seeded": np.array([rng.uniform(-0.6, 0.6)])}

    def ops(self):
        return [("integrate_ekf", self._filter, self._filter_outputs)] + [
            (name, self._validator(name), self._deviation(name)) for name in self.starts]

    def _filter(self, lib):
        self.traj = None   # a failed run must not leave the last pass's result
        self.traj = lib.integrate_ekf(self.config, self.measurement)
        return self.traj

    @staticmethod
    def _filter_outputs(result: OpResult, tr) -> None:
        result.values.update({"integrate_ekf.p_lo": tr.p_lo,
                              "integrate_ekf.p_hi": tr.p_hi,
                              "integrate_ekf.xhat_end": float(tr.states[-1, 0])})
        digest = hashlib.sha256()
        for arr in (tr.states, tr.covariances, tr.gains):
            digest.update(np.ascontiguousarray(arr).tobytes())
        result.files["integrate_ekf/arrays"] = digest.hexdigest()

    def _validator(self, name: str):
        def call(lib) -> float:
            if self.traj is None:
                raise RuntimeError("integrate_ekf failed in this pass")
            return lib.variational_validator(self.entry.model, self.traj,
                                             self.starts[name])
        return call

    @staticmethod
    def _deviation(name: str):
        def collect(result: OpResult, dev: float) -> None:
            result.values[f"{name}.deviation"] = dev
            result.expect(dev <= VARIATIONAL_LIMIT,
                          f"deviation {dev:.3e} above {VARIATIONAL_LIMIT:g}")
        return collect

    def file_seeded(self, key: str) -> bool:
        return False

    def micro_inputs(self):
        import ekfcert as ek
        model = ek.make(self.plant, eps=CUBIC_EPS).model
        return model, [0.5], np.array([[2.0]]), np.eye(1), np.eye(1)


WORKLOADS = {
    "certify-vdp-sampled": CliWorkload(
        "certify-vdp-sampled", "vanderpol-pos", ["certify"],
        dict(VDP_BASE, system=VDP_SYSTEM, hessian={"radius": 0.5}),
        seeded={"certify.kappa_A", "certify.zeta_plus", "certify.rho"}
        | {f"certify.r_empirical.{i}" for i in range(9)},
        files={"certify/radius.csv"}),
    "trajectories-vdp-declared": CliWorkload(
        "trajectories-vdp-declared", "vanderpol-pos",
        ["simulate", "twin", "perturb", "envelope"],
        dict(VDP_BASE, system=VDP_SYSTEM,
             hessian={"kappa_A": VDP_KAPPA_A, "kappa_C": 0.0, "alpha": 0.5},
             twin={"z1_0": [0.33, 0.2], "z2_0": [0.28, 0.21]},
             perturb={"type": "sin", "vector": [0.01, 0.01], "z0": [0.3, 0.2]}),
        seeded=set(), files=set()),
    "variational-cubic": VariationalWorkload(),
}


class Checker:
    """Compares every operation's outputs with the reference and pass one.

    With ``reference`` None (while pinning a new reference) only finiteness
    and agreement with the first pass are checked.
    """

    def __init__(self, workload, reference: dict | None, seed: int):
        self.workload = workload
        self.reference = reference
        self.at_reference_seed = reference is not None and seed == reference["seed"]
        self.first: dict[str, OpResult] = {}
        self.identical_files = 0
        self.compared_files = 0

    def _pinned(self, seeded: bool) -> bool:
        return self.reference is not None and (self.at_reference_seed or not seeded)

    def check(self, result: OpResult, compare_files: bool) -> None:
        for key, value in result.values.items():
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                result.problems.append(f"{key} = {value!r} is not finite")
            elif self._pinned(key in self.workload.seeded):
                want = self.reference["values"].get(key)
                if want is None:
                    result.problems.append(f"{key} has no reference value")
                elif abs(value - want) > REL_TOL * abs(want):
                    result.problems.append(f"{key} = {value!r}, reference {want!r}")
        first = self.first.setdefault(result.name, result)
        if first is not result and first.values != result.values:
            result.problems.append("values differ from the first pass")
        if not compare_files:
            return
        for key, digest in result.files.items():
            if first is not result:
                if first.files.get(key) != digest:
                    result.problems.append(f"{key} bytes differ from the first pass")
            elif self._pinned(self.workload.file_seeded(key)):
                self.compared_files += 1
                self.identical_files += digest == self.reference["files"].get(key)


def reference_entry(results: list, seed: int) -> dict:
    """Reference record built from one untraced pass at ``seed``."""
    values, files = {}, {}
    for r in results:
        if r.problems:
            raise RuntimeError(f"{r.name}: {'; '.join(r.problems)}")
        values.update(r.values)
        files.update(r.files)
    return {"seed": seed, "values": values, "files": files}
