"""One set-up in a fresh interpreter: import, config validation and world
build, i.e. everything before a workload's first simulated round.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the seconds it took. run.py starts several of these and reports the
median as setup_s. Unlike the other times it is not scaled by the reference
kernel: import time does not follow that kernel's speed.
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports edgesense and numpy: part of set-up)

name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads.build_world(workloads.WORKLOADS[name], seed, workdir)
print(time.perf_counter() - t0)
