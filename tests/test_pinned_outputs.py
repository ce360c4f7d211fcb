"""The benchmark's pinned output hashes, checked by the test suite.

Runs the ``certify-vdp-sampled`` certify operation and the
``variational-cubic`` integrate_ekf operation of perfbench/workloads.py once
at the reference seed and compares their output file hashes with
perfbench/reference.json, so a change that moves a single bit of these
outputs fails here and not only in the benchmark. Both files are only read.
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


@pytest.mark.parametrize("workload, op", [("certify-vdp-sampled", "certify"),
                                          ("variational-cubic", "integrate_ekf")])
def test_operation_reproduces_the_pinned_file_hashes(workloads, tmp_path, workload, op):
    reference = json.loads((PERFBENCH / "reference.json").read_text())["workloads"][workload]
    wl = workloads.WORKLOADS[workload]
    wl.prepare(tmp_path, reference["seed"])
    _, call, collect = next(o for o in wl.ops() if o[0] == op)
    result = workloads.OpResult(op)
    collect(result, call(workloads.api()))
    assert result.problems == []
    assert result.files and result.files == {
        key: digest for key, digest in reference["files"].items() if key.startswith(op + "/")}
