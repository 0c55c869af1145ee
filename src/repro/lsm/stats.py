"""Performance counters for the LSM store (paper §5 measurement taxonomy).

The paper instruments RocksDB with ``block_read_time``,
``iter_seek_cpu_nanos``, and custom stopwatches for serialization,
deserialization, and filter probes.  :class:`PerfStats` reproduces that
taxonomy so the benchmark harness can print the same cost breakdowns
(Fig. 5(A1)/(A2), Fig. 6(B)):

* ``block_read_time_ns`` — modeled device time for data/index/filter block
  reads (the I/O component);
* ``residual_seek_ns`` — iterator maintenance CPU: creating and advancing
  the two-level/merging iterators, fence-pointer comparisons;
* ``filter_probe_ns`` / ``serialize_ns`` / ``deserialize_ns`` — the filter
  sub-costs of Fig. 5(A2);
* compaction counters for Fig. 6's ``T/(R+W)`` overhead metric.

Foreground queries, writers running maintenance and other clients'
threads bump the same counter set concurrently, so every mutation goes through
:meth:`CounterSet.add` — or, for a finished read, :meth:`PerfStats.fold` —
which serialize updates behind an internal lock; ``snapshot``/``diff`` take
the same lock and observe a consistent cut.  They serve whoever wants a
phase's deltas (``DB.health()``, benchmarks, tests); the read path itself
takes the lock once per query (``DB._publish``: one ``fold`` of everything
the query counted, block reads included) and never snapshots.

:class:`Stopwatch` is the measuring primitive (mirrors RocksDB's internal
``stopwatch()`` support).
"""

from __future__ import annotations

import operator
import threading
import time
from dataclasses import astuple, dataclass, fields, replace
from typing import Iterable, TypeVar

from repro.core.tuning import observed_fpr as _observed_fpr

__all__ = ["CounterSet", "PerfStats", "Stopwatch"]

_C = TypeVar("_C", bound="CounterSet")


class CounterSet:
    """Lock-guarded integer counters; subclass as a ``@dataclass`` of fields.

    Every field is additive except those named in ``_MAX_FIELDS``, which are
    high-water marks: raised through :meth:`observe_max`, combined by
    :meth:`aggregate` with ``max`` rather than ``+``.
    """

    _MAX_FIELDS: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Not a dataclass field: ``fields(self)`` must keep iterating only
        # the counters for snapshot/diff/aggregate and keyword construction.
        object.__setattr__(self, "_lock", threading.Lock())

    def add(self, **deltas: int) -> None:
        """Atomically add ``deltas`` to the named counters.

        The sole supported mutation path once other threads are running:
        plain ``stats.field += n`` is a read-modify-write race under
        concurrency.
        """
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def observe_max(self, name: str, value: int) -> None:
        """Atomically raise the named high-water counter to ``value``."""
        with self._lock:
            if value > getattr(self, name):
                setattr(self, name, value)

    def snapshot(self: _C) -> _C:
        """Consistent copy of the current counters."""
        with self._lock:
            return replace(self)

    def diff(self: _C, earlier: _C) -> _C:
        """Counter deltas since ``earlier`` (for per-phase reporting)."""
        now = astuple(self.snapshot())
        return type(self)(*map(operator.sub, now, astuple(earlier)))

    @classmethod
    def aggregate(cls: type[_C], parts: Iterable[_C]) -> _C:
        """One snapshot per part: additive fields summed, high-water maxed."""
        total = cls()
        for part in parts:
            snap = part.snapshot()
            for f in fields(cls):
                combine = max if f.name in cls._MAX_FIELDS else operator.add
                setattr(
                    total, f.name,
                    combine(getattr(total, f.name), getattr(snap, f.name)),
                )
        return total


@dataclass
class PerfStats(CounterSet):
    """Mutable counter set; one per DB instance."""

    # --- I/O ---
    block_reads: int = 0
    block_read_bytes: int = 0
    block_read_time_ns: int = 0  # modeled device latency
    block_cache_hits: int = 0
    block_cache_misses: int = 0
    bytes_written: int = 0

    # --- Fault handling ---
    io_transient_errors: int = 0  # TransientIOError observed (incl. retried)
    io_retries: int = 0           # read attempts re-issued after one
    filters_degraded: int = 0     # runs whose filter envelope was unreadable
    filters_quarantined: int = 0  # runs flagged as under FP replay attack
    background_errors: int = 0    # flush/compaction failures -> degraded mode

    # --- Writes ---
    memtable_seals: int = 0       # active memtable rotated into the queue
    # Wall time writers spent blocked on maintenance.  Maintenance runs
    # inline, so no writer ever waits for it and this stays 0; it is kept
    # for readers that report it as a stall figure.
    write_stall_time_ns: int = 0

    # --- CPU sub-costs (measured wall time of the code paths) ---
    filter_probe_ns: int = 0
    serialize_ns: int = 0
    deserialize_ns: int = 0
    residual_seek_ns: int = 0

    # --- Filter verdicts ---
    filter_probes: int = 0
    # Filter invocations, as opposed to verdicts: one per filtered run
    # consulted — a may_contain_range call on the range path, a per-run key
    # group (a get is a group of one) on the point path.
    filter_batch_probes: int = 0
    filter_negatives: int = 0
    filter_true_positives: int = 0
    filter_false_positives: int = 0

    # --- Query counts ---
    point_queries: int = 0  # distinct lookups, whether scalar or batched
    multi_point_queries: int = 0  # batched multi_get operations
    range_queries: int = 0
    writes: int = 0

    # --- Flush / compaction (Fig. 6) ---
    flushes: int = 0
    compactions: int = 0
    compaction_bytes_read: int = 0
    compaction_bytes_written: int = 0
    compaction_time_ns: int = 0
    filter_construction_ns: int = 0
    filters_built: int = 0

    def fold(self, context) -> None:
        """Add everything one finished read counted into its
        ``QueryContext`` — blocks included — under one lock hold."""
        with self._lock:
            self.block_reads += context.blocks_read
            self.block_read_bytes += context.block_read_bytes
            self.block_read_time_ns += context.block_read_time_ns
            self.block_cache_hits += context.block_cache_hits
            self.block_cache_misses += context.block_cache_misses
            self.filter_probe_ns += context.filter_probe_ns
            self.residual_seek_ns += context.residual_seek_ns
            self.filter_probes += context.filters_probed
            self.filter_batch_probes += context.filter_calls
            self.filter_negatives += context.filter_negatives
            self.filter_true_positives += context.filter_true_positives
            self.filter_false_positives += context.filter_false_positives
            self.point_queries += context.distinct_keys
            self.multi_point_queries += context.kind == "multi_point"
            self.range_queries += context.kind == "range"

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def observed_fpr(self) -> float:
        """Measured filter FPR: false positives / (negatives + false pos.).

        Matches the paper's convention of evaluating filters on empty
        queries: among queries the filter *could* have rejected, the share
        it failed to.  Delegates to the shared
        :func:`repro.core.tuning.observed_fpr` helper so this and the
        attack detector agree by construction.
        """
        return _observed_fpr(
            self.filter_false_positives, self.filter_negatives
        )

    def compaction_overhead_us_per_byte(self) -> float:
        """Fig. 6's ``T / (R + W)`` metric in microseconds per byte."""
        moved = self.compaction_bytes_read + self.compaction_bytes_written
        if moved == 0:
            return 0.0
        return (self.compaction_time_ns / 1000.0) / moved


class Stopwatch:
    """Context manager accumulating elapsed wall time into a stats field.

    >>> stats = PerfStats()
    >>> with Stopwatch(stats, "filter_probe_ns"):
    ...     pass
    """

    __slots__ = ("_stats", "_field", "_start")

    def __init__(self, stats: PerfStats, field_name: str) -> None:
        self._stats = stats
        self._field = field_name

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter_ns() - self._start
        self._stats.add(**{self._field: elapsed})
