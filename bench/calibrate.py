"""Host-speed calibration for the benchmark's timings.

The benchmark host is shared: for tens of seconds at a time its CPU runs
the program about 1.5 times slower, so raw wall times of the same op move
by a quarter between 20 s runs.  ``kernel_seconds`` times a fixed piece of
exact dyadic ``Fraction`` arithmetic, the same kind of work the program
does, which slows down in step with it.  Each timing the benchmark reports
is ``raw * REFERENCE_S / kernel``: the time the work would take when the
kernel runs in ``REFERENCE_S``, its time on an uncontended host.  The
kernel uses only the standard library, so no change to the program can
move it.
"""

import time
from fractions import Fraction

REFERENCE_S = 0.0045


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i * 37 % 1024 - 512, 1 << 16) * Fraction(i % 64, 1 << 6)
        if acc > 1:
            acc -= 1
    return time.perf_counter() - start

