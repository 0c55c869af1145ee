"""Machine-speed calibration: why every time in the ledger is normalised.

The sandbox this benchmark runs in is a small shared VM whose speed drifts by
up to 1.8x within seconds and by +-15 % over minutes (a fixed pure-Python loop
measured 114 ms .. 188 ms on an otherwise idle box; CPU time tracks wall time,
so it is contention, not steal).  Raw ``ops_per_s`` of the same commit then
spreads 12-45 % between runs - wider than any bound worth having - and no
statistic of one run (median, best-of, trimmed) survives the minute-scale
drift.

So the measured window is cut into short slices (~0.2 s) and a fixed
reference computation, the *calibrator*, runs between slices with the clock
stopped.  A slice's times are scaled by ``REFERENCE_NS / (mean of the two
adjacent calibrator times)``: the ledger reports what the slice would have
taken on a machine on which the calibrator takes exactly ``REFERENCE_NS``.
On this box that cuts the run-to-run spread of ``ops_per_s`` (quartile
distance over median, ten runs) from 12-44 % to 2-7 %.

The calibrator never touches the code under test - it is pure Python and
NumPy over fixed data - so a change to the store cannot move it.  It mixes
the two kinds of work the store spends its time on: Python object handling
(bisect over byte keys, dict lookups, big-int arithmetic) and many *small*
NumPy calls (dispatch and allocator bound, like the filter's frontier
engine).  Of the flavours tried (also: a bare arithmetic loop, large NumPy
gathers), this pair tracked the four workloads' slow-downs best; a
single-flavour loop compensates only about half of a slow-down.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left

import numpy

__all__ = ["Calibrator"]


class Calibrator:
    #: What one ``spin()`` takes on the reference machine (this sandbox on a
    #: quiet minute).  A constant of the benchmark: changing it rescales every
    #: time metric.
    REFERENCE_NS = 8_000_000

    def __init__(self) -> None:
        rng = random.Random(0x1ED6E2)   # fixed: the calibrator ignores --seed
        self._keys = sorted(
            rng.getrandbits(64).to_bytes(8, "big") for _ in range(20_000)
        )
        self._table = {key: key + bytes(56) for key in self._keys}
        self._probes = [rng.choice(self._keys) for _ in range(3_000)]
        self._bits = numpy.frombuffer(rng.randbytes(1 << 20), dtype=numpy.uint8).copy()
        self._lanes = numpy.arange(64, dtype=numpy.uint64)
        self.samples: list[int] = []

    def spin(self) -> int:
        """Run the reference computation once; returns its duration in ns."""
        started = time.perf_counter_ns()
        total = 0
        keys, table = self._keys, self._table
        for probe in self._probes:
            value = table[keys[bisect_left(keys, probe)]]
            total += len(value) + (int.from_bytes(probe, "big") * 0x9E3779B97F4A7C15 >> 40 & 0xFFFF)
        bits, lanes = self._bits, self._lanes
        multiplier, shift = numpy.uint64(0x9E3779B97F4A7C15), numpy.uint64(58)
        for _ in range(400):
            picked = bits[numpy.unique(lanes * multiplier >> shift)]
            lanes = self._lanes + numpy.uint64(int(picked.sum()) & 3)
        took = time.perf_counter_ns() - started
        self.samples.append(took)
        return took

    def scale(self, before_ns: int, after_ns: int) -> float:
        """Factor that turns a duration measured between two spins into the
        duration on the reference machine."""
        return self.REFERENCE_NS / ((before_ns + after_ns) / 2)
