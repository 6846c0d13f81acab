"""Host-speed gauge: a fixed pure-Python loop timed between operations.

The benchmark shares its host with other tenants, and the same Python code
runs up to about 1.6x slower for spells of seconds to tens of seconds, in
CPU time as well as wall time.  The gauge loop belongs to the benchmark, not to the
program, so no change to jcouple moves it; timing it between operations
tells how fast the host ran at that moment.  Each operation's time is
scaled to a host on which the loop takes NOMINAL_S:

    scaled = measured * NOMINAL_S / (median gauge reading around the operation)

so the scaled times are those the operations would take on an unloaded
2-vCPU x86 VM of the kind the benchmark was written on (Python 3.11), where
the loop takes 1.8-2.0 ms.
"""

from __future__ import annotations

import math
import time
from array import array

clock = time.perf_counter

LOOPS = 30000
NOMINAL_S = 0.002
# Readings are taken between operations once at least this long has passed
# since the previous one, so they cost about 4% of the run.
EVERY_S = 0.05


def gauge_loop() -> int:
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return total


def reading() -> float:
    start = clock()
    gauge_loop()
    return clock() - start


class HostGauge:
    """Readings taken between operations, and which reading precedes each op."""

    def __init__(self) -> None:
        self.readings = array("d")
        self.before_op = array("i")
        self._last = -math.inf

    def between_ops(self, force: bool = False) -> None:
        if force or clock() - self._last >= EVERY_S:
            self.readings.append(reading())
            self._last = clock()

    def speed(self) -> float:
        """How much slower than nominal the host runs now: the median of the
        last three readings over NOMINAL_S, as close as can be known before an
        operation to the factor `scale` later gives it."""
        window = sorted(self.readings[-3:])
        return window[len(window) // 2] / NOMINAL_S

    def tag(self, ops: int, at_reading=None) -> None:
        """Note which reading preceded each of `ops` operations: the latest
        one, unless `at_reading` lists them."""
        if at_reading is None:
            at_reading = [len(self.readings) - 1] * ops
        self.before_op.extend(at_reading)

    def factors(self) -> list[float]:
        """Per reading index: the median of it and its two neighbours over NOMINAL_S.

        An operation tagged with reading i ran between readings i and i + 1.
        """
        out = []
        for i in range(len(self.readings)):
            window = sorted(self.readings[max(0, i - 1):i + 2])
            out.append(window[len(window) // 2] / NOMINAL_S)
        return out

    def scale(self, latencies) -> list[float]:
        factors = self.factors()
        return [lat / factors[i] for lat, i in zip(latencies, self.before_op)]
