"""ekfcert benchmark: end-to-end timings, traced layer spans and work counts.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify-vdp-sampled --seed 0 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3      # every workload
    python3 perfbench/run.py --write-reference            # re-pin reference.json

One workload runs in this single-threaded process, closed loop: one caller
issues the workload's operations one after another, first one warm-up
pass, then passes until ``--seconds`` have elapsed. With ``--trace 0`` it
reports the end-to-end metrics (medians over passes); with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer spans,
work counts, micro-timings and the tracing overhead. Every metric is
printed by name with its unit, then the correctness verdict, and the last
line is one JSON object. Several workloads (a comma list or ``all``) each
run in a fresh child process.

Reported seconds are host-scaled (see hostspeed.py): this kind of shared
machine changes speed by up to 2x within a minute, so raw seconds are
printed too (``wall_raw_s`` and the run record) but not used as metrics.
"""

from __future__ import annotations

import os

# single-threaded BLAS, fixed before numpy is first imported
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 11     # cold starts per run; the first one fills caches
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   help="workload name, comma-separated names, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="run one pass of every workload at the reference seed "
                        "and store its values and output hashes")
    return p.parse_args(argv)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(np) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
    }


def spread(values: list) -> float:
    """Interquartile range over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def setup_times(name: str, workdir: Path, seed: int, speed) -> list:
    """Host-scaled cold-start seconds up to the first integration step.

    The scale comes from a kernel run here just before the start and from
    the kernels the probe runs on its own core right after the first step;
    nothing runs here while the probe starts, so nothing competes with it.
    """
    from hostspeed import factor
    times = []
    env = dict(os.environ, PYTHONPATH=str(HERE))
    for _ in range(SETUP_PROBES):
        before = speed.kernel()
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(workdir), str(seed)],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        first_step, kernels = proc.stdout.strip().splitlines()[-2:]
        scale = factor([before] + [float(k) for k in kernels.split()])
        times.append((float(first_step) - t0) * scale)
    return times[1:]


@contextlib.contextmanager
def scratch_dir(name: str):
    """A fresh directory for generated configs and outputs, removed on exit."""
    path = WORK / f"{name}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def run_pass(workload, lib, checker, speed, compare_files: bool) -> list:
    """One pass of the workload's operations, each timed, then checked."""
    from workloads import OpResult
    results = []
    for name, call, collect in workload.ops():
        result = OpResult(name)
        try:
            with speed.measure() as timing:
                returned = call(lib)
            collect(result, returned)
        except Exception as exc:  # an operation failure is recorded, not fatal
            result.problems.append(f"raised {type(exc).__name__}: {exc}")
        result.raw, result.latency = timing.raw, timing.scaled
        if not result.problems:
            checker.check(result, compare_files)
        results.append(result)
    return results


def pass_wall(results: list, scaled: bool = True) -> float:
    return sum(r.latency if scaled else r.raw for r in results)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import ekfcert as ek
    from ekfcert import cli
    from hostspeed import HostSpeed
    from tracing import Recorder, micro_timings
    from workloads import WORKLOADS, Checker, api

    if not Path(ek.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"ekfcert imported from {ek.__file__}, not from {SRC}")
    workload = WORKLOADS[name]
    reference = json.loads(REFERENCE.read_text())["workloads"][name]
    checker = Checker(workload, reference, seed)
    speed = HostSpeed()
    metrics = {}
    lines = []
    with scratch_dir(name) as workdir:
        setup = []
        if not trace:
            workload.prepare(workdir, seed)
            setup = setup_times(name, workdir, seed, speed)
            metrics["setup_s"] = (statistics.median(setup), "s")

        plain = api()
        rec = Recorder(lambda: speed.inside_s)
        counted = rec.register_counted_plant(ek, workload.plant) if trace else None
        traced_lib = api(rec.wrap)

        workload.prepare(workdir, seed)
        passes = [run_pass(workload, plain, checker, speed, True)]   # warm-up
        untraced, traced, layers, coverage = [], [], [], []
        t_begin = time.perf_counter()
        while (not untraced or (trace and not traced)
               or time.perf_counter() - t_begin < seconds):
            if trace and len(traced) < len(untraced):
                workload.prepare(workdir, seed, counted)
                rec.reset()
                with rec.patched(cli):
                    results = run_pass(workload, traced_lib, checker, speed, False)
                traced.append(results)
                raw = pass_wall(results, scaled=False)
                scale = pass_wall(results) / raw
                layers.append({k: v * scale if k.endswith("_s") else v
                               for k, v in rec.layer_metrics().items()})
                coverage.append(rec.covered_s() / raw)
                workload.prepare(workdir, seed)
            else:
                results = run_pass(workload, plain, checker, speed, True)
                untraced.append(results)
            passes.append(results)

    walls = [pass_wall(r) for r in untraced]
    raw_walls = [pass_wall(r, scaled=False) for r in untraced]
    if trace:
        for key in layers[0]:
            vals = [layer[key] for layer in layers]
            if key.endswith("_s"):
                metrics[key] = (statistics.median(vals), "s")
            else:
                if len(set(vals)) != 1:
                    lines.append(f"warning: count {key} varies across passes: {vals}")
                metrics[key] = (vals[0], "count")
        metrics["trace.span_coverage"] = (statistics.median(coverage), "ratio")
        metrics["trace.overhead_s"] = (
            statistics.median(pass_wall(r) for r in traced) - statistics.median(walls), "s")
        micro = micro_timings(ek, *workload.micro_inputs(), seed, speed)
        metrics.update((key, (us, "us")) for key, us in micro.items())
        metrics["check.identical_files"] = (checker.identical_files, "count")
    else:
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        lines.append(f"samples: wall_s {len(walls)} passes, setup_s {len(setup)} probes")
        lines.append(f"wall_raw_s {statistics.median(raw_walls):.6g} s (not host-scaled)")
        for op in [r.name for r in untraced[0]]:
            lat = [r.latency for res in untraced for r in res if r.name == op]
            lines.append(f"{op}_s {statistics.median(lat):.6g} s (median of {len(lat)})")

    ops = [r for res in passes for r in res]
    record = run_record(np)
    record.update(workload=name, seed=seed, trace=int(trace),
                  untraced_passes=len(untraced), traced_passes=len(traced),
                  wall_samples_s=walls, wall_spread=spread(walls),
                  raw_wall_samples_s=raw_walls, raw_wall_spread=spread(raw_walls),
                  kernel_runs=len(speed.samples),
                  kernel_median_s=statistics.median(speed.samples),
                  kernel_spread=spread(speed.samples), setup_samples_s=setup,
                  identical_files=checker.identical_files,
                  compared_files=checker.compared_files)
    return {"metrics": metrics, "lines": lines, "record": record,
            "attempted": len(ops), "failed": [r for r in ops if r.problems]}


def report(out: dict) -> None:
    for key, (value, unit) in out["metrics"].items():
        print(f"{key} {value:.6g} {unit}")
    for line in out["lines"]:
        print(line)
    print("record " + json.dumps(out["record"], sort_keys=True))
    for r in out["failed"]:
        print(f"FAILED {r.name}: {'; '.join(r.problems)}")
    attempted, failed = out["attempted"], len(out["failed"])
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(f"correct {'yes' if not failed else 'no'}")
    print(json.dumps({
        "correct": not failed, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }))


def write_reference() -> None:
    from hostspeed import HostSpeed
    from workloads import REFERENCE_SEED, WORKLOADS, Checker, api, reference_entry
    entries = {}
    for name, workload in WORKLOADS.items():
        with scratch_dir(name) as workdir:
            workload.prepare(workdir, REFERENCE_SEED)
            results = run_pass(workload, api(), Checker(workload, None, REFERENCE_SEED),
                               HostSpeed(), False)
            entries[name] = reference_entry(results, REFERENCE_SEED)
    REFERENCE.write_text(json.dumps({"workloads": entries}, indent=2, sort_keys=True)
                         + "\n")
    print(f"wrote {REFERENCE}")


def run_many(names: list, args) -> int:
    """Each workload in a fresh child process; a combined verdict at the end."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            return 1
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(f"== verdict: {'correct' if total['correct'] else 'INCORRECT'}")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ekfcert" / "__init__.py").is_file():
        print(f"error: no ekfcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    from workloads import WORKLOADS
    if args.write_reference:
        write_reference()
        return 0
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if len(names) > 1:
        return run_many(names, args)
    report(run_workload(names[0], args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
