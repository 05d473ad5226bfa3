"""Machine-speed probe: the benchmark's timings in reference seconds.

The shared VMs this benchmark runs on change speed in phases of tens of
seconds to minutes, and every explain timing moves with them.  A run
therefore times a fixed kernel (this file's code, never the program's)
between requests, and scales each request's time by how fast the kernel
ran around it:

    reference seconds = measured seconds * REFERENCE_S / probe seconds

so a timing reads as it would on a machine where the probe takes
``REFERENCE_S``.  The kernel mixes the two kinds of work the program
does: numpy passes over a table-sized array (masks, grouped sums, a
sort), and interpreted bookkeeping (tuples, dicts, float arithmetic).
A change to the program moves the request times and not the probe, so
it shows in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe seconds that define a reference second (about what the probe
#: takes on the 2-vCPU VM the benchmark was built on).
REFERENCE_S = 0.0025
#: Timings of the kernel per probe (about 50 ms in all); the probe is
#: their median.  A minimum would track the machine's fastest moments,
#: not the phase it is in.
REPEATS = 20
#: Least wall time between two probes in a timed loop.
INTERVAL_S = 1.0

_VALUES = np.random.default_rng(0).random(40_000)
_GROUPS = (_VALUES * 997).astype(np.int64) % 64


def _kernel() -> float:
    total = 0.0
    for low in (0.1, 0.3, 0.5, 0.7):
        mask = (_VALUES >= low) & (_VALUES < low + 0.2)
        total += np.bincount(_GROUPS[mask], weights=_VALUES[mask],
                             minlength=64).sum()
    total += float(np.sort(_VALUES[:16_000])[100])
    sums: dict[tuple[int, int], float] = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        sums[key] = sums.get(key, 0.0) + i * 0.5
    return total + sum(sums.values())


def probe() -> float:
    """Seconds the kernel takes now (the median of ``REPEATS``)."""
    timings = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


class Speed:
    """Probes taken during a run, and the scale they give each moment."""

    def __init__(self):
        self.stamps: list[float] = []
        self.probes: list[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        seconds = probe()
        self.stamps.append((start + time.perf_counter()) / 2)
        self.probes.append(seconds)
        return seconds

    def maybe_sample(self) -> None:
        """Probe if ``INTERVAL_S`` has passed since the last probe."""
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, stamp: float) -> float:
        """Reference seconds per measured second at ``stamp``: the probe
        interpolated between the samples around it."""
        return REFERENCE_S / float(np.interp(stamp, self.stamps, self.probes))

    def run_scale(self) -> float:
        """Reference seconds per measured second over the whole run."""
        return REFERENCE_S / statistics.median(self.probes)
