"""Per-run filter management — the §4 integration machinery.

Three pieces:

* :class:`FilterDictionary` — "we construct a dictionary containing the
  mapping of the deserialized bits of each Rosetta instance and its
  corresponding run", preventing a deserialization per query.  The mapping
  is one slot on each run's :class:`~repro.lsm.sstable.SSTReader`, so an
  entry goes when a compaction destroys the run and a resolved filter is
  one unlocked attribute read away.  Disabling it (an ablation in
  ``benchmarks/``) re-deserializes the filter block on every query, which
  is what the paper's deserialization-cost discussion is about.
* :func:`batched_tightened_ranges` — the *range* probe: one
  ``may_contain_range`` call per overlapping run.
* :func:`batched_point_verdicts` — the *point* probe: one
  ``may_contain_batch`` call per run for that run's whole key group
  (a ``get`` is a group of one).
"""

from __future__ import annotations

import threading
from typing import Sequence

from repro.core.tuning import observed_fpr
from repro.errors import SerializationError
from repro.filters.base import KeyFilter, deserialize_filter
from repro.lsm.sstable import UNRESOLVED, SSTReader
from repro.lsm.stats import PerfStats, Stopwatch

__all__ = [
    "FilterDictionary",
    "batched_point_verdicts",
    "batched_tightened_ranges",
]


class FilterDictionary:
    """Resolves each run's filter once, into ``SSTReader.resolved_filter``.

    A filter envelope that fails to decode (bad CRC, bad magic, truncated
    bytes) marks that run *filter-less* instead of failing the query: the
    probe returns positive, the query
    falls through to the data read — whose own per-block CRCs still guard
    against silently wrong answers — and ``PerfStats.filters_degraded``
    counts the run once.  Degradation is sticky for the run's lifetime;
    compacting the run away rebuilds a fresh filter and clears the mark.
    """

    def __init__(
        self,
        enabled: bool = True,
        quarantine: bool = False,
        quarantine_fpr_multiple: float = 8.0,
        quarantine_min_probes: int = 50,
    ) -> None:
        self.enabled = enabled
        self.quarantine = quarantine
        self.quarantine_fpr_multiple = quarantine_fpr_multiple
        self.quarantine_min_probes = quarantine_min_probes
        # Foreground queries and background compaction share the
        # dictionary; the lock keeps memoization and the degraded set
        # consistent (one fetch, one degradation count per run).
        self._lock = threading.RLock()
        #: Runs whose envelope proved undecodable (served filter-less).
        self.degraded: set[str] = set()
        #: Runs flagged by the FP-feedback detector (§ adversarial
        #: robustness): observed FPR exceeded the quarantine multiple of
        #: the filter's design FPR.  Sticky until the run is compacted
        #: away (the rebuild re-salts and re-sizes the filter).
        self.under_attack: set[str] = set()
        # Per-run rejectable-query outcomes: name -> [negatives, FPs].
        self._outcomes: dict[str, list[int]] = {}
        # Design FPR published by each run's filter, cached at fetch time.
        self._design_fpr: dict[str, float] = {}

    def get_filter(
        self, reader: SSTReader, stats: PerfStats, context=None
    ) -> KeyFilter | None:
        """The run's deserialized filter, resolved on first touch.

        Returns None when the SST carries no filter block — or when its
        envelope is corrupt.  A resolved run answers
        from the reader's slot without the lock.  The first touch fetches
        the filter block (counted on ``context``, the touching query's own,
        when given) and deserializes it (charged to ``stats``); with the
        dictionary disabled only "no filter" is ever memoized and a live
        filter is refetched every call.
        """
        filt = reader.resolved_filter
        if filt is not UNRESOLVED:
            return filt
        name = reader.meta.name
        with self._lock:
            filt = reader.resolved_filter
            if filt is not UNRESOLVED:
                return filt
            envelope = reader.filter_block_bytes(context)
            filt = None
            if envelope:
                try:
                    with Stopwatch(stats, "deserialize_ns"):
                        filt = deserialize_filter(envelope)
                except SerializationError:
                    self.degraded.add(name)
                    stats.add(filters_degraded=1)
            if filt is None or self.enabled:
                reader.resolved_filter = filt
            if filt is not None and self.quarantine and name not in self._design_fpr:
                design = filt.design_fpr()
                if design is not None and design > 0.0:
                    self._design_fpr[name] = design
            return filt

    def record_outcome(
        self, name: str, *, negatives: int = 0, false_positives: int = 0
    ) -> bool:
        """Feed one run's rejectable-query outcomes to the attack detector.

        Returns True exactly once per run: the call that pushes the run's
        observed FPR past ``quarantine_fpr_multiple`` times its design FPR
        (with at least ``quarantine_min_probes`` rejectable queries seen),
        adding it to :attr:`under_attack`.  No-op unless quarantine is on
        and the run's filter published a design FPR.
        """
        if not self.quarantine:
            return False
        with self._lock:
            design = self._design_fpr.get(name)
            if design is None or name in self.under_attack:
                return False
            counts = self._outcomes.get(name)
            if counts is None:
                counts = [0, 0]
                self._outcomes[name] = counts
            counts[0] += negatives
            counts[1] += false_positives
            if counts[0] + counts[1] < self.quarantine_min_probes:
                return False
            if observed_fpr(counts[1], counts[0]) <= (
                self.quarantine_fpr_multiple * design
            ):
                return False
            self.under_attack.add(name)
            return True

    def under_attack_snapshot(self) -> tuple[str, ...]:
        """Sorted consistent copy of the flagged-run set (see degraded)."""
        with self._lock:
            return tuple(sorted(self.under_attack))

    def drop_run(self, name: str) -> None:
        """Forget a compacted-away run's marks (its filter went with its
        reader)."""
        with self._lock:
            self.degraded.discard(name)
            self.under_attack.discard(name)
            self._outcomes.pop(name, None)
            self._design_fpr.pop(name, None)

    def degraded_snapshot(self) -> tuple[str, ...]:
        """Sorted consistent copy of the degraded-run set.

        ``DB.health()`` reads the set while queries on other threads may
        be degrading runs; iterating it bare would race the mutation
        (``set changed size during iteration``).
        """
        with self._lock:
            return tuple(sorted(self.degraded))


def batched_point_verdicts(
    filt: KeyFilter | None, keys: Sequence[int]
) -> tuple[Sequence[bool], int]:
    """Probe one run's filter for a whole point-lookup key group at once.

    The point pipeline (``DB.get`` and ``DB.multi_get`` alike) groups its
    unresolved keys per run and answers each group — of one key or
    thousands — with one
    :meth:`~repro.filters.base.KeyFilter.may_contain_batch` call.

    ``filt is None`` means the run has fence pointers only: every key
    passes through positive at zero probe cost.  Returns
    ``(verdicts, filter_calls)``; ``filter_calls`` (0 or 1) feeds
    ``PerfStats.filter_batch_probes``.
    """
    if filt is None or not keys:
        return [True] * len(keys), 0
    return filt.may_contain_batch(keys), 1


def batched_tightened_ranges(
    filters: Sequence[KeyFilter | None], low: int, high: int
) -> tuple[list[bool], int]:
    """Ask every overlapping run's filter whether ``[low, high]`` is empty.

    One :meth:`~repro.filters.base.KeyFilter.may_contain_range` call per
    filtered run — the filter picks its own kernel from the range.
    ``filters[i] is None`` means run *i* has fence pointers only and passes
    through positive at zero probe cost.  Returns
    ``(verdicts, filter_calls)``; ``filter_calls`` feeds
    ``PerfStats.filter_batch_probes`` exactly like the point path's.

    The name predates the contract (it once returned §2.2.1 seek windows
    from a multi-run sweep) and stays because the ledger's tracer patches
    ``repro.lsm.db.batched_tightened_ranges`` by name; renaming it is for
    the next benchmark-only PR.
    """
    verdicts = [
        True if filt is None else filt.may_contain_range(low, high)
        for filt in filters
    ]
    return verdicts, sum(filt is not None for filt in filters)
