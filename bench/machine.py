"""Machine-speed reference for normalising latencies on a shared host.

On a shared 2-core virtual machine the same command runs at one of two
speeds, about 2x apart, for tens of seconds at a time (measured: a 20-pair
wavelength sweep took 42 ms or 80 ms depending on the phase).  Bursts of
seconds come on top.  No run length averages that out, so every command
execution is paired with a fixed reference kernel timed right before and
right after it, and its latency is scaled to what it would have been with
the kernel at ``NOMINAL_S``:

    scaled = latency * NOMINAL_S / min(kernel before, kernel after)

The kernel never calls the program.  It does what the program's hot paths
do (2x2 complex ``numpy`` products, Python complex arithmetic, float
formatting), so its speed follows the machine's phases; a change to the
program changes the latency and not the kernel.
"""

from __future__ import annotations

import cmath
from time import perf_counter

import numpy as np

#: Kernel time (seconds) that scaled latencies refer to: its typical time in
#: the fast phase of a 2-core Linux VM (Python 3.11, numpy 2.4).
NOMINAL_S = 1.0e-3

_STEP = np.array([[1.0 + 0.01j, 0.02], [0.03, 1.0 - 0.01j]], dtype=complex)


def kernel_seconds() -> float:
    """Time one run of the fixed reference kernel."""
    t0 = perf_counter()
    m = np.eye(2, dtype=complex)
    acc = 0j
    for k in range(300):
        m = m @ _STEP
        acc += cmath.exp(1j * k * 1e-3) * m[0, 0]
    text = ",".join(f"{k * 1.5 + acc.real:.17g}" for k in range(100))
    if not text:  # keep the result alive
        raise RuntimeError("empty reference output")
    return perf_counter() - t0


class Scale:
    """Kernel timings around consecutive executions; ``around`` gives the
    factor for the execution that just ended."""

    def __init__(self):
        self._before = kernel_seconds()

    def around(self) -> float:
        after = kernel_seconds()
        factor = NOMINAL_S / min(self._before, after)
        self._before = after
        return factor
