"""Time one cold set-up of a workload: imports, input generation, warm-up.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the seconds from the start of the imports (numpy and sinespec
included) to the end of the warm-up, measured inside this fresh
process.  ``run.py`` starts it several times and reports the median as
``setup_s``.
"""

import time

t0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

wl = workloads.make(sys.argv[1], int(sys.argv[2]), sys.argv[3], dict(os.environ), expect=False)
wl.prepare(0)
workloads.warm_up(wl.kinds)
print(repr(time.perf_counter() - t0))
