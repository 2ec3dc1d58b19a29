"""Set-up time in a fresh interpreter: import qcoupler and build the configs.

    python3 perfbench/setup_probe.py <repo root> <workload> <seed>

Prints the elapsed seconds.  The workload's scenario documents are read
before the clock starts; the clock covers ``import qcoupler`` and turning
them into ``ScenarioConfig`` objects (``load_preset`` or
``parse_scenario``), as ``qcoupler run`` would.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (standard library only)


def main() -> int:
    root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sweeps = workloads.sweeps_for(workload, seed)
    sys.path.insert(0, os.path.join(root, "src"))
    start = time.perf_counter()
    import qcoupler
    workloads.build_configs(qcoupler, sweeps)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
