"""Host-speed calibration: a fixed probe timed beside the program.

The benchmark shares a few cores of a host whose speed drifts: the same
pure-Python loop ran 20-50% slower for minutes at a time, on CPU time
as much as on wall time, so the drift is in the speed of the core and
not in time spent descheduled.  Each timing of the program is therefore
paired with probes timed right beside it, and reported scaled to the
speed at which one probe takes :data:`REFERENCE_S`:

    scaled = measured * REFERENCE_S / median(probe times)

The probe is a fixed mix of the work the simulator's host time is made
of — interpreter-level object, dict and list work around small numpy
matrix products, rounding and clipping — and calls nothing in
``src/``, so a change to the program moves the measured time and never
the probe.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Probe time [s] at the reference speed (the median probe time on the
#: 2-vCPU host the benchmark was built on, at its usual speed).
REFERENCE_S = 1.3e-3
#: Iterations of one probe.
ROUNDS = 60

_MATRIX = np.arange(64.0).reshape(8, 8) / 64.0


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def _work() -> float:
    table: dict[tuple[int, int], float] = {}
    total = 0.0
    for index in range(ROUNDS):
        column = _MATRIX[:, index % 8]
        codes = np.clip(np.round(_MATRIX @ column * 7.0), 0.0, 7.0)
        for cell in [_Cell(key, float(value)) for key, value in enumerate(codes)]:
            slot = (index % 5, cell.key)
            table[slot] = table.get(slot, 0.0) + cell.value
        total += sum(sorted(table.values())[:4])
    return total


def probe() -> float:
    """Host seconds one probe takes now."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def scale(probes) -> float:
    """Factor taking a time measured beside ``probes`` to the reference
    speed."""
    return REFERENCE_S / statistics.median(probes)
