"""Set-up probe: one cold process, stopped at the workload's first RK4 step.

Usage: python3 perfbench/probe.py <workload> <workdir> <seed>

Imports ekfcert, builds the registry plant and parses the generated config
exactly as the workload's first operation does, then prints the
``time.monotonic()`` reading at the first integration step and exits. The
caller subtracts its own reading taken just before it started this process.
After that reading the probe times the host-speed kernel (hostspeed.py) a
few times on its own core and prints the samples on a second line.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = 5


class FirstStep(Exception):
    pass


def main() -> int:
    name, workdir, seed = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    import ekfcert.ekf
    import ekfcert.sim
    from workloads import WORKLOADS, api

    def stop(*args):
        raise FirstStep

    ekfcert.sim.rk4_step = stop
    ekfcert.ekf.rk4_step = stop
    workload = WORKLOADS[name]
    workload.prepare(workdir, seed)
    _, call, _ = workload.ops()[0]
    try:
        call(api())
    except FirstStep:
        first_step = time.monotonic()
        from hostspeed import kernel_s
        kernel_s()   # the first run pays for lazy numpy set-up
        print(repr(first_step))
        print(" ".join(repr(kernel_s()) for _ in range(KERNELS)))
        return 0
    print("probe: the first operation finished without an integration step",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
