"""Workload tracking and self-tuning (paper §2.4, last part).

Rosetta "has the ability to track workload patterns and adopt a beneficial
tuning for each individual LSM-tree run".  The key-value store keeps
counters and histograms for query ranges, invoked filter instances, and hit
rates; at compaction time these statistics are reconciled and the
post-compaction Rosetta instances are built with workload-derived weights,
choosing single- vs variable-level allocation per run.

:class:`WorkloadTracker` is the statistics sink (:mod:`repro.lsm.db`
updates it once per query, from ``DB._publish``) and :class:`AutoTuner`
turns a tracker into a concrete build recipe (:class:`TuningDecision`).
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.allocation import HYBRID_SMALL_RANGE_CUTOFF

__all__ = ["WorkloadTracker", "AutoTuner", "TuningDecision", "observed_fpr"]


def observed_fpr(false_positives: int, negatives: int) -> float:
    """Measured filter FPR under the *rejectable-query* convention.

    ``false_positives / (negatives + false_positives)``: among queries the
    filter could have rejected (the ground truth was empty), the share it
    failed to.  True positives are excluded from the denominator — a
    filter is never wrong on them, so counting them would let a
    positive-heavy workload mask an attack.  ``PerfStats.observed_fpr``
    calls it, and the FP-feedback attack detector counts its outcomes the
    same way.
    """
    rejectable = negatives + false_positives
    if rejectable == 0:
        return 0.0
    return false_positives / rejectable


class WorkloadTracker:
    """Accumulates the native statistics a key-value store already keeps.

    Thread-safe: the store updates it once per query (``record_query``, from
    the reading thread) while a flush or compaction install on another
    thread checkpoints it (``to_dict``), so every mutation and every reader
    that walks the histogram takes the tracker's lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._range_sizes: Counter[int] = Counter()
        self._point_queries = 0
        # The verdict counters are only checkpointed (``to_dict``): the
        # manifest's tracker format carries them, so they stay.
        self._filter_positives = 0
        self._filter_negatives = 0
        self._false_positives = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_query(
        self,
        *,
        point_queries: int = 0,
        range_size: int | None = None,
        negatives: int = 0,
        true_positives: int = 0,
        false_positives: int = 0,
    ) -> None:
        """Record everything one query observed, under one lock acquisition.

        ``range_size`` is the width of a range query (None for a point
        read); the three verdict counts are filter outcomes whose ground
        truth the query's I/O established.
        """
        if range_size is not None and range_size < 1:
            raise ValueError(f"range_size must be >= 1, got {range_size}")
        with self._lock:
            if range_size is not None:
                self._range_sizes[range_size] += 1
            self._point_queries += point_queries
            self._filter_negatives += negatives
            self._filter_positives += true_positives + false_positives
            self._false_positives += false_positives

    # ------------------------------------------------------------------
    # Persistence (the store checkpoints statistics with its manifest)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable snapshot of all statistics."""
        with self._lock:
            return {
                "range_sizes": {
                    str(k): v for k, v in self._range_sizes.items()
                },
                "point_queries": self._point_queries,
                "filter_positives": self._filter_positives,
                "filter_negatives": self._filter_negatives,
                "false_positives": self._false_positives,
            }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadTracker":
        """Restore a tracker saved with :meth:`to_dict`."""
        tracker = cls()
        for size, count in payload.get("range_sizes", {}).items():
            tracker._range_sizes[int(size)] = int(count)
        tracker._point_queries = int(payload.get("point_queries", 0))
        tracker._filter_positives = int(payload.get("filter_positives", 0))
        tracker._filter_negatives = int(payload.get("filter_negatives", 0))
        tracker._false_positives = int(payload.get("false_positives", 0))
        return tracker

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def range_size_histogram(self) -> dict[int, int]:
        """Observed range-size counts (size -> queries), a consistent copy."""
        with self._lock:
            return dict(self._range_sizes)

    @property
    def num_range_queries(self) -> int:
        """Total range queries recorded."""
        return sum(self.range_size_histogram.values())

    @property
    def num_point_queries(self) -> int:
        """Total point queries recorded."""
        return self._point_queries

    def dominant_small_ranges(self) -> bool:
        """True when ranges of size <= 16 carry most of the query mass."""
        sizes = self.range_size_histogram
        total = sum(sizes.values())
        if total == 0:
            return False
        small = sum(
            count
            for size, count in sizes.items()
            if size <= HYBRID_SMALL_RANGE_CUTOFF
        )
        return small / total > 0.5

    def percentile_range_size(self, quantile: float) -> int:
        """Smallest range size covering ``quantile`` of the query mass."""
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        sizes = self.range_size_histogram
        total = sum(sizes.values())
        if total == 0:
            return 1
        needed = quantile * total
        running = 0
        for size in sorted(sizes):
            running += sizes[size]
            if running >= needed:
                return size
        return max(sizes)


@dataclass(frozen=True)
class TuningDecision:
    """A concrete recipe for building the next Rosetta instance."""

    strategy: str
    max_range: int
    range_size_histogram: dict[int, int] = field(default_factory=dict)

    def build_kwargs(self) -> dict:
        """Keyword arguments to pass straight to :meth:`Rosetta.build`."""
        return {
            "strategy": self.strategy,
            "max_range": self.max_range,
            "range_size_histogram": self.range_size_histogram or None,
        }


class AutoTuner:
    """Turns workload statistics into a Rosetta build recipe.

    Policy (matching §2.4's hybrid mechanism):

    * Dominantly small ranges (<= 16): ``single``-level filter — best FPR,
      probe cost stays acceptable because ranges are short.
    * Otherwise: ``variable``-level filter with the observed histogram as
      weights.
    * Point-query-only workloads degrade to ``single`` (all memory in the
      full-key level, which is exactly a classic Bloom filter).

    ``max_range`` is sized to the quantile of observed range sizes given by
    ``coverage`` (default P99), rounded up to a power of two and clamped to
    ``range_cap``.

    ``attack_bits_bonus`` is the FP-feedback reallocation knob: when a
    run's filter has been flagged as under a false-positive replay attack,
    its compaction rebuild is granted this many extra bits per key (see
    :meth:`rebuild_bits_per_key`), driving the rebuilt filter's design FPR
    down so the attacker has to re-learn against a harder target.
    """

    def __init__(
        self,
        coverage: float = 0.99,
        range_cap: int = 4096,
        attack_bits_bonus: float = 8.0,
    ) -> None:
        if not 0.0 < coverage <= 1.0:
            raise ValueError(f"coverage must be in (0, 1], got {coverage}")
        if range_cap < 1:
            raise ValueError(f"range_cap must be >= 1, got {range_cap}")
        if attack_bits_bonus < 0:
            raise ValueError(
                f"attack_bits_bonus must be >= 0, got {attack_bits_bonus}"
            )
        self.coverage = coverage
        self.range_cap = range_cap
        self.attack_bits_bonus = attack_bits_bonus

    def rebuild_bits_per_key(
        self, base_bits_per_key: float, under_attack: bool
    ) -> float:
        """Bits/key for a filter rebuild; flagged runs get the bonus."""
        if under_attack:
            return base_bits_per_key + self.attack_bits_bonus
        return base_bits_per_key

    def recommend(
        self, tracker: WorkloadTracker, default_max_range: int = 64
    ) -> TuningDecision:
        """Recommend a build recipe from observed statistics."""
        if tracker.num_range_queries == 0:
            if tracker.num_point_queries > 0:
                return TuningDecision(strategy="single", max_range=1)
            return TuningDecision(strategy="optimized", max_range=default_max_range)

        observed = tracker.percentile_range_size(self.coverage)
        max_range = min(_next_power_of_two(observed), self.range_cap)
        histogram = tracker.range_size_histogram
        if tracker.dominant_small_ranges():
            return TuningDecision(
                strategy="single", max_range=max_range,
                range_size_histogram=histogram,
            )
        return TuningDecision(
            strategy="variable", max_range=max_range,
            range_size_histogram=histogram,
        )


def _next_power_of_two(value: int) -> int:
    if value < 1:
        return 1
    return 1 << (value - 1).bit_length()
