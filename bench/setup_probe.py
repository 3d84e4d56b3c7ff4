"""Times one cold set-up in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD

The timed span is what every CLI call pays before its first op: importing
``sgdcodec``, generating the workload's dataset and building the sigmoid
table on the first gradient.  Prints the span and, after it, the mean of
two calibration-kernel times, both in seconds.
"""

import os
import sys
import time

t0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (imports sgdcodec inside the timed span)

workloads.WORKLOADS[sys.argv[1]].prepare()
setup = time.perf_counter() - t0

import calibrate  # noqa: E402

kernel = (calibrate.kernel_seconds() + calibrate.kernel_seconds()) / 2
print(f"{setup!r} {kernel!r}")
