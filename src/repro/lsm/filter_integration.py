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
* :func:`batched_tightened_ranges` — the *range* probe: one Algorithm 2
  walk for every overlapping run with a Rosetta of one shape, one
  ``may_contain_range`` call per other filtered run.
* :func:`batched_point_verdicts` — the *point* probe: one
  ``may_contain_batch`` call per run for that run's whole key group
  (a ``get`` is a group of one).
"""

from __future__ import annotations

import threading
from typing import Sequence

from repro.core.analysis import fp_excess_bound
from repro.core.rosetta import Rosetta, range_verdicts
from repro.errors import SerializationError
from repro.filters.base import KeyFilter, deserialize_filter
from repro.filters.rosetta_adapter import RosettaFilter
from repro.lsm.sstable import UNRESOLVED, SSTReader
from repro.lsm.stats import PerfStats, Stopwatch

__all__ = [
    "FilterDictionary",
    "batched_point_verdicts",
    "batched_tightened_ranges",
]

#: Significance level of the attack detector: a run is flagged once its
#: false-positive count would happen by chance less often than this under
#: its filter's design FPR.
QUARANTINE_ALPHA = 1e-6


class FilterDictionary:
    """Resolves each run's filter once, into ``SSTReader.resolved_filter``.

    A filter envelope that fails to decode (bad CRC, bad magic, truncated
    bytes) marks that run *filter-less* instead of failing the query: the
    probe returns positive, the query
    falls through to the data read — whose own per-block CRCs still guard
    against silently wrong answers — and ``PerfStats.filters_degraded``
    counts the run once.  Degradation is sticky for the run's lifetime;
    compacting the run away rebuilds a fresh filter and clears the mark.

    With ``quarantine`` on, it is also the FP-feedback attack detector
    (:meth:`record_outcome`): each run's false positives are tested against
    what its own filter's model predicts.
    """

    def __init__(self, enabled: bool = True, quarantine: bool = False) -> None:
        self.enabled = enabled
        self.quarantine = quarantine
        # Foreground queries and background compaction share the
        # dictionary; the lock keeps memoization and the degraded set
        # consistent (one fetch, one degradation count per run).
        self._lock = threading.RLock()
        #: Runs whose envelope proved undecodable (served filter-less).
        self.degraded: set[str] = set()
        #: Runs flagged by the FP-feedback detector (§ adversarial
        #: robustness): their false positives are too many to be chance
        #: under the filter's own design FPR.  Sticky until the run is
        #: compacted away (the rebuild re-salts and re-sizes the filter).
        self.under_attack: set[str] = set()
        # Per-run modelled outcomes: name -> [outcomes, false positives].
        self._outcomes: dict[str, list[int]] = {}

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
            return filt

    def record_outcome(
        self, name: str, design_fpr: float | None, negatives: int, false_positives: int
    ) -> bool:
        """Feed one run's rejectable-query outcomes to the attack detector.

        ``design_fpr`` is what the run's filter predicts for these queries
        (:meth:`~repro.filters.base.KeyFilter.design_fpr`); None means no
        model covers them, and they are not evidence.  Returns True once
        per run, on the false positive that brings
        :func:`~repro.core.analysis.fp_excess_bound` over everything the run
        answered below :data:`QUARANTINE_ALPHA`, adding it to
        :attr:`under_attack`.  No-op unless quarantine is on.
        """
        if not self.quarantine or design_fpr is None:
            return False
        with self._lock:
            if name in self.under_attack:
                return False
            counts = self._outcomes.setdefault(name, [0, 0])
            counts[0] += negatives + false_positives
            counts[1] += false_positives
            # Only a new false positive can make the count significant.
            if not false_positives or fp_excess_bound(
                counts[1], counts[0], design_fpr
            ) >= QUARANTINE_ALPHA:
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

    The Rosettas of the first one's shape answer together through
    :func:`~repro.core.rosetta.range_verdicts` (one walk for all of them);
    any other filter through its own
    :meth:`~repro.filters.base.KeyFilter.may_contain_range` call.
    ``filters[i] is None`` means run *i* has fence pointers only and passes
    through positive at zero probe cost.  Returns ``(verdicts,
    filter_calls)``; ``filter_calls`` feeds ``PerfStats.filter_batch_probes``
    exactly like the point path's.

    The name predates the contract (it once returned §2.2.1 seek windows
    from a multi-run sweep) and stays because the ledger's tracer patches
    ``repro.lsm.db.batched_tightened_ranges`` by name; renaming it is for
    the next benchmark-only PR.
    """
    verdicts = [True] * len(filters)
    walked: list[int] = []
    cores: list[Rosetta] = []
    for index, filt in enumerate(filters):
        core = filt.core if isinstance(filt, RosettaFilter) else None
        if core is not None and (not cores or core.shape == cores[0].shape):
            walked.append(index)
            cores.append(core)
        elif filt is not None:
            verdicts[index] = filt.may_contain_range(low, high)
    if cores:
        for index, verdict in zip(walked, range_verdicts(cores, low, high)):
            verdicts[index] = verdict
    return verdicts, len(filters) - filters.count(None)
