"""Spans, work counters and micro-timings, all applied from outside ekfcert.

Tracing wraps the public entry points as ``ekfcert.cli`` binds them (or as
the library workload calls them) in spans, counts ``numpy.linalg`` calls
by patching the module attributes ekfcert looks up at call time, and
counts model callbacks through wrapped copies of the registry plants that
are registered with ``ekfcert.register``. Every count is attributed to the
innermost open span. Nothing is patched while tracing is off.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> attribute of ekfcert.cli that the span wraps
CLI_ENTRY_POINTS = {
    "sim.integrate_truth": "integrate_truth",
    "ekf.integrate_ekf": "integrate_ekf",
    "model.estimate_hessian_bounds": "estimate_hessian_bounds",
    "contraction.empirical_radius": "empirical_radius",
    "sim.twin_decay": "twin_decay",
    "sim.perturbed_run": "perturbed_run",
    "sim.envelope_check": "envelope_check",
}
LIBRARY_SPANS = list(CLI_ENTRY_POINTS) + ["sim.variational_validator"]
COMMANDS = ["simulate", "certify", "twin", "perturb", "envelope"]
COUNTERS = ["f_calls", "h_calls", "jac_calls", "eig_calls", "solve_calls"]
LINALG_COUNTERS = {"eigvalsh": "eig_calls", "solve": "solve_calls"}
COUNTED_SUFFIX = "+counted"


class Recorder:
    """In-memory span totals and counters for one traced pass.

    ``excluded()`` returns cumulative seconds to leave out of span times
    (the host-speed kernels that interrupt an operation).
    """

    def __init__(self, excluded):
        self.excluded = excluded
        self.reset()

    def reset(self) -> None:
        self.total = defaultdict(float)     # span -> seconds inside it
        self.self_time = defaultdict(float)  # span -> seconds minus child spans
        self.calls = Counter()
        self.counts = Counter()             # (span, counter) -> calls
        self._stack = []                    # [name, child seconds] frames

    def count(self, key: str) -> None:
        self.counts[(self._stack[-1][0] if self._stack else "", key)] += 1

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter() - self.excluded()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - self.excluded() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                self.calls[name] += 1
        return traced

    def counted(self, key: str, fn):
        def counting(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return counting

    def register_counted_plant(self, ek, base: str) -> str:
        """Register ``<base>+counted`` whose callbacks feed this recorder."""
        name = base + COUNTED_SUFFIX

        def factory(**params):
            entry = ek.make(base, **params)
            m = entry.model
            model = dataclasses.replace(
                m, dynamics=self.counted("f_calls", m.dynamics),
                output=self.counted("h_calls", m.output),
                jacobian_A=(None if m.jacobian_A is None
                            else self.counted("jac_calls", m.jacobian_A)))
            return dataclasses.replace(entry, model=model)

        ek.register(name, factory)
        return name

    @contextlib.contextmanager
    def patched(self, cli):
        """Wrap the entry points bound in ``cli`` and count numpy.linalg calls."""
        saved = [(cli, attr, getattr(cli, attr)) for attr in CLI_ENTRY_POINTS.values()]
        saved += [(np.linalg, attr, getattr(np.linalg, attr)) for attr in LINALG_COUNTERS]
        try:
            for span, attr in CLI_ENTRY_POINTS.items():
                setattr(cli, attr, self.wrap(span, getattr(cli, attr)))
            for attr, key in LINALG_COUNTERS.items():
                setattr(np.linalg, attr, self.counted(key, getattr(np.linalg, attr)))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def covered_s(self) -> float:
        """Seconds inside named spans: every library span plus CLI self time."""
        return (sum(self.self_time[f"cli.{c}"] for c in COMMANDS)
                + sum(self.total[span] for span in LIBRARY_SPANS))

    def layer_metrics(self) -> dict:
        """Span seconds, call counts and work counts of the finished pass."""
        out = {"cli.self_s": sum(self.self_time[f"cli.{c}"] for c in COMMANDS)}
        for c in COMMANDS:
            out[f"cli.{c}_s"] = self.total[f"cli.{c}"]
        for span in LIBRARY_SPANS:
            out[f"{span}_s"] = self.total[span]
        counts = Counter()
        for (span, key), n in self.counts.items():
            counts[("cli.self" if span.startswith("cli.") else span, key)] += n
        for span in LIBRARY_SPANS:
            out[f"{span}.calls"] = self.calls[span]
            for key in COUNTERS:
                out[f"{span}.{key}"] = counts[(span, key)]
        for key in LINALG_COUNTERS.values():
            out[f"cli.self.{key}"] = counts[("cli.self", key)]
        return out


def _per_call_us(fn, blocks: int = 5, block_s: float = 0.02) -> float:
    """Median over ``blocks`` timed blocks of the per-call time, in us."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t0
        if dt >= block_s:
            break
        n *= 2
    samples = [dt / n]
    for _ in range(blocks - 1):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def micro_timings(ek, model, x0, P0, Q, R, seed: int, speed) -> dict:
    """Host-scaled per-call times of the inner public functions on fixed inputs."""
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    A, C = ek.eval_jacobians(model, x0, 0.0)
    H = ek.hessian_tensor(model, x0, 0.0, "dynamics")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((32, n)) if n > 1 else np.empty((0, n))
    dirs = np.vstack([np.eye(n), -np.eye(n),
                      raw / np.linalg.norm(raw, axis=1, keepdims=True)])
    z = x0 + 0.1
    truth_rhs = lambda t, s: model.f(s, t)
    calls = {
        "ode.rk4_step_us": lambda: ek.rk4_step(truth_rhs, 0.0, x0, 0.005),
        "model.eval_jacobians_us": lambda: ek.eval_jacobians(model, x0, 0.0),
        "ekf.riccati_rhs_us": lambda: ek.riccati_rhs(P0, A, C, Q, R),
        "model.hessian_tensor_us": lambda: ek.hessian_tensor(model, x0, 0.0, "dynamics"),
        "model.tensor_norm_us": lambda: ek.tensor_norm(H, dirs),
        "contraction.contraction_matrix_us":
            lambda: ek.contraction_matrix(model, z, x0, P0, Q, R, 0.0),
    }
    out = {}
    for key, fn in calls.items():
        with speed.measure() as timing:
            us = _per_call_us(fn)
        out[key] = us * timing.scaled / timing.raw
    return out
