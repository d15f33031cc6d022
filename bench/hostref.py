"""The host-speed reference the timing metrics are normalised by.

The build host's speed wanders by 25–50% over seconds to minutes
(NOISE.md): the same ``engine_maintain`` cycle takes 640 ms in one minute
and 970 ms in another, a whole run is fast or slow together, and no
statistic of a run's cycles escapes it.  So the benchmark measures the
host while it measures the program: a fixed kernel of its own — plain
Python over fixed data, no call into the program — is timed between every
two cycles (and every two builds), and each cycle's duration is divided by
how slow the host ran the kernel around it, its *host factor*.  The timing
metrics are therefore times *on a host that runs the kernel at its nominal
speed*; the wall-clock figures are in each run's ``details`` line.

The kernel has two halves, because the host slows in two ways that do not
move together (memory contention moved the first half by 60% while the
second stood still, and the other way round):

* *gather* reads floats at random indices from two lists and a dict of a
  few MB, as the engine reads its object table and grid;
* *arithmetic* is a float loop on locals that touches no memory.

The host factor weighs them equally: over ten runs per workload that
weight left 3–4% of quartile spread in ``cycle_ms_p50`` on every workload
where the wall clock had 7–33%; either half alone left up to 9%.  Neither
half allocates containers: allocations would schedule collections of the
*program's* heap inside the reference (a tuple-building kernel's timings
spread 144% beside ``engine_search``).
"""

from __future__ import annotations

import random
from time import perf_counter

#: seconds the two halves of one kernel unit take at the speed the metrics
#: are reported at (this host's long-run medians, beside a running engine).
NOMINAL_GATHER_S = 0.0100
NOMINAL_ARITHMETIC_S = 0.0105
#: the arithmetic half's weight in the host factor.
ARITHMETIC_WEIGHT = 0.5
#: reference time spent per unit of measured time (after each cycle or
#: build the kernel runs for this share of that cycle's duration).
SHARE = 0.2

_TABLE = 1 << 17
_READS = 14_000
_STEPS = 140_000


class HostReference:
    """Fixed data plus the kernel that reads it."""

    def __init__(self) -> None:
        rng = random.Random(0x4057)
        self._xs = [rng.random() for _ in range(_TABLE)]
        self._ys = [rng.random() for _ in range(_TABLE)]
        self._cells = {i: rng.random() for i in range(_TABLE)}
        self._reads = [rng.randrange(_TABLE) for _ in range(_READS)]
        self._out = [0.0] * _READS

    def _gather(self) -> float:
        xs, ys, cells, out = self._xs, self._ys, self._cells, self._out
        best = 9.0
        j = 0
        for i in self._reads:
            x = xs[i]
            y = ys[i]
            d = x * x + y * y + cells[i]
            if d < best:
                best = d
            out[j] = d
            j += 1
        return best

    @staticmethod
    def _arithmetic() -> float:
        x = 0.3
        y = 0.7
        best = 9.0
        for _ in range(_STEPS):
            x = x * 0.9999 + 0.00005
            y = y * 0.9998 + 0.0001
            d = x * x + y * y
            if d < best:
                best = d
        return best

    def sample(self, seconds: float) -> tuple[float, float]:
        """Run kernel units until ``seconds`` are spent (at least one);
        returns how slow the host ran the two halves, each as its mean
        time over its nominal time: 1.0 is the nominal host, 1.2 a host
        20% slower."""
        units = 0
        gather = arithmetic = 0.0
        t0 = now = perf_counter()
        while units == 0 or now - t0 < seconds:
            self._gather()
            mid = perf_counter()
            self._arithmetic()
            gather += mid - now
            now = perf_counter()
            arithmetic += now - mid
            units += 1
        return (
            gather / units / NOMINAL_GATHER_S,
            arithmetic / units / NOMINAL_ARITHMETIC_S,
        )


def host_factor(before: tuple[float, float], after: tuple[float, float]) -> float:
    """The host factor of what ran between two samples."""
    gather = (before[0] + after[0]) / 2
    arithmetic = (before[1] + after[1]) / 2
    return ARITHMETIC_WEIGHT * arithmetic + (1.0 - ARITHMETIC_WEIGHT) * gather
