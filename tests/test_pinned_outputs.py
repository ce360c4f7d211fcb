"""The benchmark's pinned outputs, checked by the test suite.

Runs operations of perfbench/workloads.py once at the reference seed and
compares their outputs with perfbench/reference.json: the output file
hashes of the ``certify-vdp-sampled`` certify operation, of the four
``trajectories-vdp-declared`` operations and of the ``variational-cubic``
integrate_ekf operation, and the exact deviations of the two
``variational-cubic`` validator operations. A change that moves a single
bit of these outputs fails here and not only in the benchmark. Both files
are only read.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(workloads, tmp_path, workload: str, *names: str):
    """Run the named operations of the workload in order at the reference
    seed; returns the reference entry and the last operation's result."""
    reference = json.loads((PERFBENCH / "reference.json").read_text())["workloads"][workload]
    wl = workloads.WORKLOADS[workload]
    wl.prepare(tmp_path, reference["seed"])
    ops = {name: (call, collect) for name, call, collect in wl.ops()}
    for name in names:
        call, collect = ops[name]
        result = workloads.OpResult(name)
        collect(result, call(workloads.api()))
        assert result.problems == [], name
    return reference, result


@pytest.mark.parametrize("workload, op", [
    ("certify-vdp-sampled", "certify"),
    ("variational-cubic", "integrate_ekf"),
    *[("trajectories-vdp-declared", op) for op in ("simulate", "twin", "perturb", "envelope")],
])
def test_operation_reproduces_the_pinned_file_hashes(workloads, tmp_path, workload, op):
    reference, result = _run(workloads, tmp_path, workload, op)
    assert result.files and result.files == {
        key: digest for key, digest in reference["files"].items() if key.startswith(op + "/")}


@pytest.mark.parametrize("op", ["validator_truth", "validator_seeded"])
def test_validator_reproduces_the_pinned_deviation(workloads, tmp_path, op):
    # a validator operation reads the filter run of the integrate_ekf operation
    reference, result = _run(workloads, tmp_path, "variational-cubic", "integrate_ekf", op)
    key = f"{op}.deviation"
    assert result.values == {key: reference["values"][key]}
