"""Machine-speed probe.

On the 2-core virtual machine where the baseline was measured, the CPU
switches between a base clock and a boosted clock about 1.5 times faster,
for stretches of seconds to minutes.  Python loops, small and large matrix
products all speed up by the same factor, so a run's raw timings depend on
the state the host happened to be in.  The benchmark runs this fixed piece
of work, which does not touch the library, after every operation, and
scales each operation's time by ``REFERENCE_S / probe time`` measured next
to it.  That expresses every time at the base clock.
"""

import time

import numpy as np

# probe time at the base clock of the machine the baseline was measured on
REFERENCE_S = 2.5e-3

_MATRIX = ((np.arange(64 * 64).reshape(64, 64) % 7) - 3) * (1.0 + 1.0j) / 8.0


def probe() -> float:
    """Seconds that the fixed reference work takes right now: a Python loop
    and small complex matrix products, the mix of the library's hot path."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    for _ in range(16):
        _MATRIX @ _MATRIX
    return time.perf_counter() - start
