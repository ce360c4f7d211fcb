"""The benchmark's pinned outputs, checked by the test suite.

Runs operations of perfbench/workloads.py once at the reference seed and
compares their outputs with pinned ones: the output file hashes of the
``certify-vdp-sampled`` certify operation and of the four
``trajectories-vdp-declared`` operations (pinned here, see PINNED_FILES),
the hash of the ``variational-cubic`` integrate_ekf arrays and the exact
deviations of its two validator operations (read from
perfbench/reference.json). A change that moves a single bit of these
outputs fails here and not only in the benchmark. Every operation's values
also pass the benchmark's own check against perfbench/reference.json
(``workloads.Checker``), so the suite fails wherever the benchmark would
report ``correct no``. Both perfbench files are only read.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Output hashes of the operations whose runs integrate the truth, the filter and the
# virtual rows as one RK4 state. Their values moved by at most 1.2e-6 relative from
# those in reference.json (within its REL_TOL), whose file hashes for these workloads
# predate the one-state run.
PINNED_FILES = {
    "certify-vdp-sampled": {
        "certify/summary.json": "31dda709915fe5d4598a4a4e73c0d333b54628d87fcdf9a76b43daee1ac3661a",
        "certify/radius.csv": "5cccd26ee82dfb12c579f1a497107bed022bd5d775cef6b092bfccd118ca39da",
    },
    "trajectories-vdp-declared": {
        "simulate/summary.json":
            "e50098a12a5d4d41eac861ac7f393fd69672584a856919ace5846adffdd9f10a",
        "simulate/trajectory.csv":
            "696411d3da053b8d2027051f93de1cb5bfbb9135a008cd299d5ac6ef0e48b8b0",
        "twin/summary.json": "4d481e88eae3d560c40498878831c3577f0ae411b0c692993c5040aaa4c64d4b",
        "twin/twin.csv": "2a1e203bfdefd67191195bf406abd72fb84cd82287b158b679f877908cb89af9",
        "perturb/summary.json":
            "660514efe447069c95bc35bb788106654bcd9f07a356ab0d438fe0f528a745e2",
        "perturb/perturb.csv": "a21b2de106bd56f7e8fb2c845baed36a71b37688946fd2c5cbef16eb4e3d814f",
        "envelope/summary.json":
            "92bd3d9d43b783d3f9442601ff1e64129a46a5f15aed4b0cc057eb5a09925c80",
        "envelope/envelope.csv":
            "013f5d3e32feaaf0aa4b9c0c2c892d4ddea8be1284ce0049c065317be3c51c80",
    },
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reference(workload: str) -> dict:
    return json.loads((PERFBENCH / "reference.json").read_text())["workloads"][workload]


def _run(workloads, tmp_path, workload: str, *names: str):
    """Run the named operations of the workload in order at the reference
    seed; returns the reference entry and the last operation's result."""
    reference = _reference(workload)
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
    pinned = PINNED_FILES.get(workload, reference["files"])
    assert result.files and result.files == {
        key: digest for key, digest in pinned.items() if key.startswith(op + "/")}


@pytest.mark.parametrize("op", ["validator_truth", "validator_seeded"])
def test_validator_reproduces_the_pinned_deviation(workloads, tmp_path, op):
    # a validator operation reads the filter run of the integrate_ekf operation
    reference, result = _run(workloads, tmp_path, "variational-cubic", "integrate_ekf", op)
    key = f"{op}.deviation"
    assert result.values == {key: reference["values"][key]}


@pytest.mark.parametrize("workload", ["certify-vdp-sampled", "trajectories-vdp-declared",
                                      "variational-cubic"])
def test_every_operation_passes_the_benchmark_value_check(workloads, tmp_path, workload):
    reference = _reference(workload)
    wl = workloads.WORKLOADS[workload]
    wl.prepare(tmp_path, reference["seed"])
    checker = workloads.Checker(wl, reference, reference["seed"])
    for name, call, collect in wl.ops():
        result = workloads.OpResult(name)
        collect(result, call(workloads.api()))
        checker.check(result, compare_files=True)
        assert result.values and result.problems == [], name
