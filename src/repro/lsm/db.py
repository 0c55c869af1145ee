"""The LSM-tree key-value store (the paper's RocksDB stand-in): the read
side, and the façade over the write side (:mod:`repro.lsm.writer`, whose
docstring holds the concurrency model; each DB write method is one call
into it).

Read path: memtables, then every overlapping run newest-to-oldest, each
guarded by its filter — "for every run of the tree, a point or range query
first probes the corresponding [filter] for this run, and only tries to
access the run on disk if [it] returns a positive" (§2).  Range queries
follow §4: probe all relevant filter instances; if all answer negative,
return empty; otherwise seek the merging iterator at the query's own lower
bound (never a §2.2.1 tightened one: ``DB._range_scan`` says why).  Every
sub-cost the paper measures is charged to :class:`~repro.lsm.stats.PerfStats`,
and workload statistics flow into a :class:`~repro.core.tuning.WorkloadTracker`
for the §2.4 auto-tuner (:meth:`DB.retune_filters`).

Readers take no lock: every read holds the current *superversion* — an
immutable ``(active memtable, sealed memtables, run metadata)`` triple an
install replaces with one assignment — so a query sees one consistent cut of
the store while a write installs mid-query.  The writer deletes a replaced
run's file only once no reader references the run (``Writer._reap``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from repro.core.tuning import AutoTuner, TuningDecision, WorkloadTracker
from repro.errors import ClosedStoreError, FilterQueryError, ReproError
from repro.filters.base import FilterFactory, KeyFilter
from repro.filters.rosetta_adapter import RosettaFilter
from repro.lsm.block_cache import BlockCache
from repro.lsm.env import StorageEnv
from repro.lsm.filter_integration import (
    FilterDictionary,
    batched_point_verdicts,
    batched_tightened_ranges,
)
from repro.lsm.format import ValueTag, sst_file_number
from repro.lsm.iterators import MergingIterator, live_entries
from repro.lsm.memtable import MemTable
from repro.lsm.options import DBOptions
from repro.lsm.perf_context import QueryContext
from repro.lsm.shard import clamp_to_domain
from repro.lsm.sstable import SSTReader, read_sst_meta
from repro.lsm.stats import PerfStats
from repro.lsm.version import MANIFEST, Run, Version, manifest_entry_name
from repro.lsm.write_batch import WriteBatch
from repro.lsm.writer import Writer

__all__ = ["DB", "HealthReport"]


def _no_entries() -> Iterator[tuple[int, bytes]]:
    """What a scan with nothing to stream returns: a generator like every
    other scan (``close()`` works), which yields nothing."""
    yield from ()


class _SuperVersion:
    """One immutable cut of the store a reader holds for its whole read.

    ``immutables`` is newest-first; ``version`` is the run metadata, whose
    file index is built here — every edit after this point goes to a clone.
    The object itself is frozen after install — a state change installs a
    new superversion rather than mutating this one.
    """

    __slots__ = ("active", "immutables", "memtables", "version")

    def __init__(self, active: MemTable, immutables: tuple, version: Version) -> None:
        self.active = active
        self.immutables = immutables
        #: Active then sealed memtables, newest to oldest.
        self.memtables = (active, *(i.memtable for i in immutables))
        version.freeze()
        self.version = version


@dataclass(frozen=True)
class HealthReport:
    """Snapshot of the store's fault state (``DB.health()``).

    ``mode`` is ``"healthy"`` or ``"degraded"``: a job failed, writes raise
    :class:`~repro.errors.ReadOnlyStoreError`, and :meth:`DB.resume` is the
    way back.  The counters mirror the fault-handling fields of
    :class:`~repro.lsm.stats.PerfStats`; ``pending_immutables`` and
    ``level0_runs`` are the sealed memtables and L0 runs of the reported
    superversion, and ``degraded_filters`` / ``attacked_filters`` name its
    runs whose filter is degraded / flagged.
    """

    mode: str
    background_error: str | None
    degraded_filters: tuple[str, ...]
    io_transient_errors: int
    io_retries: int
    filters_degraded: int
    background_errors: int
    #: Runs currently flagged by the FP-feedback attack detector, and the
    #: same set as a gauge (cumulative flag events live in
    #: ``PerfStats.filters_quarantined``).
    attacked_filters: tuple[str, ...] = ()
    filters_under_attack: int = 0
    pending_immutables: int = 0
    level0_runs: int = 0


class DB:
    """An LSM-tree key-value store over integer keys and byte values.

    Examples
    --------
    >>> from repro.lsm import DB, DBOptions
    >>> db = DB("/tmp/example-db", DBOptions(key_bits=32))
    >>> db.put(42, b"value")
    >>> db.get(42)
    b'value'
    >>> db.range_query(40, 50)
    [(42, b'value')]
    >>> db.close()
    """

    def __init__(self, path: str, options: DBOptions | None = None) -> None:
        self.options = options if options is not None else DBOptions()
        self.options.validate()
        self.stats = PerfStats()
        self.tracker = WorkloadTracker()
        env_factory = self.options.env_factory or StorageEnv
        self._env = env_factory(path, self.options.device, self.stats)
        self._env.retry_attempts = self.options.io_retry_attempts
        self._cache = BlockCache(self.options.block_cache_bytes)
        self._filter_dictionary = FilterDictionary(self.options.use_filter_dictionary)

        self._super: _SuperVersion | None = None
        self._closed = False
        #: Per-query performance context of the most recent read operation.
        self.last_query: QueryContext | None = None

        # Recovery, single-threaded before the store is shared: the runs
        # from the manifest, then the memtables from the write-ahead logs.
        version, last_file_number = self._recover()
        self._writer = Writer(
            self._env, self.options, self.stats, self.tracker, self._cache,
            current=lambda: self._super,
            install=self._install_super,
            is_open=lambda: not self._closed,
            encode_key=self._encode_key,
            last_file_number=last_file_number,
        )
        active, immutables = self._writer.recover_logs()
        self._super = _SuperVersion(active, immutables, version)

    # ------------------------------------------------------------------
    # Key codec
    # ------------------------------------------------------------------
    def _encode_key(self, key: int) -> bytes:
        key = int(key)
        if key < 0 or key >> self.options.key_bits:
            raise FilterQueryError(
                f"key {key} outside domain [0, 2^{self.options.key_bits})"
            )
        return key.to_bytes(self.options.key_width_bytes, "big")

    @staticmethod
    def _decode_key(key: bytes) -> int:
        return int.from_bytes(key, "big")

    # ------------------------------------------------------------------
    # Superversion management
    # ------------------------------------------------------------------
    def _install_super(
        self, active: MemTable, immutables: tuple, version: Version
    ) -> None:
        """Publish the next superversion (the writer holds its ``_mutex``)."""
        self._super = _SuperVersion(active, immutables, version)

    # ------------------------------------------------------------------
    # Writes and maintenance: one call each into the writer
    # ------------------------------------------------------------------
    def put(self, key: int, value: bytes) -> None:
        """Insert or overwrite a key."""
        self._writer.write_key(ValueTag.PUT, key, value)

    def delete(self, key: int) -> None:
        """Delete a key (writes a tombstone)."""
        self._writer.write_key(ValueTag.DELETE, key)

    def write(self, batch) -> None:
        """Apply a :class:`~repro.lsm.write_batch.WriteBatch` atomically:
        one WAL frame, so recovery sees all of it or none of it."""
        self._writer.write_batch(batch)

    def batch(self) -> "WriteBatch":
        """A fresh :class:`WriteBatch` whose keys are encoded by this DB.

        Convenience wrapper so callers work with integer keys::

            b = db.batch()
            b.put_int(1, b"a").delete_int(2)
            db.write(b)
        """
        db = self

        class _IntBatch(WriteBatch):
            def put_int(self, key: int, value: bytes) -> "_IntBatch":
                self.put(db._encode_key(key), value)  # noqa: SLF001
                return self

            def delete_int(self, key: int) -> "_IntBatch":
                self.delete(db._encode_key(key))  # noqa: SLF001
                return self

        return _IntBatch()

    def wait_idle(self) -> bool:
        """True: maintenance runs inline, so none is pending once the call
        that caused it returns (for callers that settle a store before
        measuring it)."""
        return self._writer.wait_idle()

    def flush(self) -> None:
        """Seal the active memtable and return once every sealed one is
        flushed and the compactions that causes are settled.  A failing
        flush parks the store read-only (see :meth:`resume`) instead of
        raising; its memtables and WAL files stay, so no write is lost."""
        self._writer.flush()

    def compact(self) -> None:
        """Flush, force L0 into the tree and settle all triggers."""
        self._writer.compact()

    def force_full_compaction(self) -> None:
        """Merge every run into the bottom-most populated level (RocksDB's
        ``CompactRange``): every filter is rebuilt with the *current*
        factory, which is how a §2.4 retuning reaches existing data."""
        self._writer.force_full_compaction()

    def ingest(self, items: Iterable[tuple[int, bytes]], level: int | None = None) -> None:
        """Bulk-load sorted unique items straight into one empty level, by
        default the shallowest whose size target fits them (the paper's
        pre-measurement load).  A failed write parks the store read-only,
        deletes what it wrote and raises
        :class:`~repro.errors.ReadOnlyStoreError`."""
        self._writer.ingest(items, level)

    def resume(self) -> bool:
        """Leave degraded read-only mode (RocksDB's ``DB::Resume``): retry
        what the failed job left — sealed memtables flush again, compactions
        re-plan.  True when the store is writable again."""
        return self._writer.resume()

    # ------------------------------------------------------------------
    # Fault state
    # ------------------------------------------------------------------
    @property
    def background_error(self) -> str | None:
        """Why the store is parked read-only, or None when healthy: one
        field, cheaper than :meth:`health` (a serving shard's breaker reads
        it before every write)."""
        return self._writer.background_error

    def health(self) -> HealthReport:
        """The store's current fault state (always readable, never raises).

        Self-consistent: the superversion and the background error are read
        in one hold of the lock every install and every parking happens
        under, so a ``healthy`` mode never pairs with a stale
        ``level0_runs``, nor ``degraded`` with no ``background_error``.
        Counters come from one ``PerfStats.snapshot()``.
        """
        sv, background_error = self._writer.pinned_state()
        stats = self.stats.snapshot()
        runs = sv.version.all_runs_newest_first()
        attacked = tuple(sorted(run.name for run in runs if run.reader.under_attack))
        return HealthReport(
            mode="degraded" if background_error is not None else "healthy",
            background_error=background_error,
            degraded_filters=tuple(
                sorted(run.name for run in runs if run.reader.filter_degraded)
            ),
            io_transient_errors=stats.io_transient_errors,
            io_retries=stats.io_retries,
            filters_degraded=stats.filters_degraded,
            background_errors=stats.background_errors,
            attacked_filters=attacked,
            filters_under_attack=len(attacked),
            pending_immutables=len(sv.immutables),
            level0_runs=len(sv.version.level0),
        )

    # ------------------------------------------------------------------
    # Point reads
    # ------------------------------------------------------------------
    def get(self, key: int) -> bytes | None:
        """Point lookup; returns None for absent or deleted keys.

        A :meth:`multi_get` of one key: the same pipeline
        (:meth:`_resolve_points`) under a ``kind="point"`` context.
        """
        self._check_open()
        key = int(key)
        context = QueryContext(kind="point", low=key, high=key)
        return self._resolve_points([key], context)[key]

    def multi_get(self, keys: Iterable[int]) -> dict[int, bytes | None]:
        """Point-look-up many keys in one pass.

        Equivalent to ``{k: db.get(k) for k in keys}`` — absent and deleted
        keys map to None — with duplicate keys resolved (and counted in
        ``stats.point_queries``) once, and ``last_query`` holding one
        aggregated ``kind="multi_point"``
        :class:`~repro.lsm.perf_context.QueryContext` for the batch.
        """
        self._check_open()
        requested = [int(key) for key in keys]
        distinct = list(dict.fromkeys(requested))
        if not distinct:
            return {}
        context = QueryContext(
            kind="multi_point",
            low=min(distinct),
            high=max(distinct),
            keys_requested=len(requested),
        )
        return self._resolve_points(distinct, context)

    def _resolve_points(
        self, keys: list[int], context: QueryContext
    ) -> dict[int, bytes | None]:
        """The one point-read pipeline (§2.2.2), for one key or many.

        ``keys`` are distinct.  The non-empty memtables (active, then
        sealed, newest first) answer what they hold; the rest are grouped
        per overlapping run, newest to oldest, and each run's filter
        answers its whole group with one
        :meth:`~repro.filters.base.KeyFilter.may_contain_batch` call (a
        ``get`` is a group of one; the filter, not the DB, decides how to
        probe a group of that size).  Run recency is preserved: a
        key resolved by a newer run (value or tombstone) is never probed
        against older runs, so verdicts, values and filter outcome counters
        do not depend on how keys were batched.
        """
        encoded = list(map(self._encode_key, keys))
        context.distinct_keys = len(keys)
        values: dict[int, bytes | None] = dict.fromkeys(keys)
        put = ValueTag.PUT
        # Counters add up in locals and reach the context once, in
        # ``finally``, so a read that raises still publishes them — all but
        # the verdict tallies of the run whose block read raised, which
        # never finished answering.
        runs_considered = filter_calls = filters_probed = probe_ns = 0
        iterators = results = negatives = true_positives = false_positives = 0
        sv = self._super
        try:
            # Buffered entries (puts and tombstones) resolve immediately
            # and never reach the filters.
            memtables = [m for m in sv.memtables if not m.is_empty]
            if memtables:
                pending: dict[bytes, int] = {}
                hits = 0
                for key, enc in zip(keys, encoded):
                    for memtable in memtables:
                        buffered = memtable.get(enc)
                        if buffered is not None:
                            hits += 1
                            if buffered[0] == put:
                                values[key] = buffered[1]
                                results += 1
                            break
                    else:
                        pending[enc] = key
                context.memtable_hits = hits
                context.memtable_hit = hits > 0
                if not pending:
                    return values
            else:
                pending = dict(zip(encoded, keys))

            # A group of one keeps its lists across runs and checks each
            # run's span; a larger group is cut per run from ``pending``.
            single = len(pending) == 1
            if single:
                low = high = next(iter(pending))
                group, group_keys = [low], [pending[low]]
            else:
                low, high = min(pending), max(pending)
            get_filter = self._filter_dictionary.get_filter
            stats = self.stats
            quarantine = self.options.quarantine_filters
            now = time.perf_counter_ns
            for run in sv.version.runs_for_range(low, high):
                reader = run.reader
                meta = reader.meta
                min_key, max_key = meta.min_key, meta.max_key
                if single:
                    if not min_key <= low <= max_key:
                        continue
                else:
                    group = [enc for enc in pending if min_key <= enc <= max_key]
                    if not group:
                        continue
                    group_keys = [pending[enc] for enc in group]
                runs_considered += 1
                filt = get_filter(reader, stats, context)
                started = now()
                verdicts, calls = batched_point_verdicts(filt, group_keys)
                if filt is not None:  # else fence pointers only: no probe
                    probe_ns += now() - started
                    filter_calls += calls
                    filters_probed += len(group)
                run_negatives = run_true = run_false = 0
                for enc, verdict in zip(group, verdicts):
                    if not verdict:
                        run_negatives += 1
                        continue
                    iterators += 1
                    found = reader.get(enc, context)
                    if found is None:
                        run_false += 1
                        continue
                    run_true += 1
                    if found[0] == put:
                        values[pending[enc]] = found[1]
                        results += 1
                    del pending[enc]  # shadows every older run
                if filt is not None:  # a run that was not asked said nothing
                    negatives += run_negatives
                    true_positives += run_true
                    false_positives += run_false
                    if quarantine and run_negatives + run_false:
                        self._note_filter_outcome(run, filt, 1, run_negatives, run_false)
                if not pending:
                    break
            return values
        finally:
            context.runs_considered += runs_considered
            context.filter_calls += filter_calls
            context.filters_probed += filters_probed
            context.filter_probe_ns += probe_ns
            context.iterators_created += iterators
            context.results += results
            context.filter_negatives += negatives
            context.filter_true_positives += true_positives
            context.filter_false_positives += false_positives
            self._publish(context)

    # ------------------------------------------------------------------
    # Range reads
    # ------------------------------------------------------------------
    def range_query(self, low: int, high: int) -> list[tuple[int, bytes]]:
        """Inclusive range scan; returns live ``(key, value)`` pairs."""
        return list(self.range_iter(low, high))

    def range_iter(self, low: int, high: int) -> Iterator[tuple[int, bytes]]:
        """Iterator form of :meth:`range_query`, yielding as the merge
        advances.

        The generator reads the superversion current at call time: it holds
        every run it reads (their files outlive a compaction that replaces
        them) and owns the query's :class:`QueryContext`.  Exhaustion,
        ``close()`` or garbage collection, whichever comes first, releases
        the runs and publishes the context (counters, tracker,
        ``last_query``) exactly once; a scan with nothing to stream has done
        so before this returns.
        Validation and the filter probes are eager: a closed store raises
        here, not on the first ``next()``.  Out-of-domain bounds are
        clamped, as :meth:`ShardRouter.split_range` clamps them.
        """
        return self._start_scan(QueryContext(kind="range", low=low, high=high))

    def iterator(
        self, start: int | None = None, end: int | None = None
    ) -> Iterator[tuple[int, bytes]]:
        """Ordered scan over live entries, optionally bounded (inclusive).

        The full-scan path — the RocksDB-iterator analogue: the merge of
        :meth:`range_iter` with the filter probe off.  A scan reads the
        data anyway, so there is nothing for a filter to prune (the
        paper's filters matter for *selective* range queries).  Nor is it
        a query: the tracker and ``last_query`` never see it; its block
        reads and merge time still land in ``stats``.  Validation, the
        superversion it holds and its release are :meth:`range_iter`'s.
        """
        return self._start_scan(QueryContext(
            kind="scan",
            low=0 if start is None else start,
            high=(1 << self.options.key_bits) - 1 if end is None else end,
        ))

    def _start_scan(self, context: QueryContext) -> Iterator[tuple[int, bytes]]:
        """The eager half of :meth:`range_iter` and :meth:`iterator`: find
        the current superversion's overlapping runs to read (a ``"range"``
        asks their filters, a ``"scan"`` reads them all).  With nothing to
        stream — "if all filters answer negative, we delete the iterator and
        return an empty result" — the scan ends here; otherwise the started
        :meth:`_range_scan` holds the runs it reads from now on.
        """
        self._check_open()
        clamped = clamp_to_domain(
            context.low, context.high, self.options.key_bits
        )
        sv = self._super
        scan = None
        try:
            if clamped is not None:
                low, high = clamped
                context.width = high - low + 1
                low_bytes, high_bytes = self._encode_key(low), self._encode_key(high)
                runs = sv.version.runs_for_range(low_bytes, high_bytes)
                context.runs_considered = len(runs)
                positives = (
                    self._probe_filters_range(context, runs, low, high)
                    if context.kind == "range"
                    else [(run, None) for run in runs]
                )
                memtables = [m for m in sv.memtables if not m.is_empty]
                if positives or memtables:
                    scan = self._range_scan(
                        context, low_bytes, high_bytes, positives, memtables
                    )
                    # A started generator always runs its ``finally`` — on
                    # close() or collection too; a merely created one never.
                    next(scan)
                    return scan
        finally:
            if scan is None:
                self._end_scan(context)
        return _no_entries()

    def _range_scan(
        self,
        context: QueryContext,
        low_bytes: bytes,
        high_bytes: bytes,
        positives: list[tuple[Run, KeyFilter | None]],
        memtables: list[MemTable],
    ) -> Iterator:
        """The one merge loop of :meth:`range_iter` and :meth:`iterator`,
        counting into ``context``; its first yield is the start.

        The first advance reads each positive run's first entry at or above
        ``low`` and chains it back in front of the rest.  A run whose filter
        answered (``positives`` pairs it with that filter) is judged by that
        entry once read: a true positive if it is <= ``high``.  Positive
        runs all seek at ``low``: a filter's leftmost surviving key (§2.2.1)
        would land on the same entry, since a filter has no false negatives.
        """
        try:
            yield
            sources: list[tuple[int, Iterator]] = [
                (priority, memtable.entries_from(low_bytes))
                for priority, memtable in enumerate(memtables)
            ]
            context.iterators_created = len(sources) + len(positives)
            for run, filt in positives:
                entries = run.reader.iterate_from(low_bytes, context)
                first = next(entries, None)
                if first is not None:
                    sources.append((len(sources), chain((first,), entries)))
                if filt is None:
                    continue
                if first is not None and first[0] <= high_bytes:
                    context.filter_true_positives += 1
                else:
                    context.filter_false_positives += 1
                    self._note_filter_outcome(run, filt, context.width, 0, 1)
            merged = live_entries(MergingIterator(sources))
            while True:
                # Charge only the merge-advance time to residual_seek_ns,
                # never the consumer's time between next() calls.
                started = time.perf_counter_ns()
                entry = next(merged, None)
                context.residual_seek_ns += time.perf_counter_ns() - started
                if entry is None or entry[0] > high_bytes:
                    return
                context.results += 1
                yield self._decode_key(entry[0]), entry[1]
        finally:
            self._end_scan(context)

    def _end_scan(self, context: QueryContext) -> None:
        """Publish a range's context; fold a scan's into ``stats``."""
        if context.kind == "range":
            self._publish(context)
        else:
            self.stats.fold(context)

    def _publish(self, context: QueryContext) -> None:
        """A finished read's one write to the shared ledgers: one
        ``PerfStats.fold``, one tracker update, then ``last_query``."""
        self.stats.fold(context)
        self.tracker.record_query(
            point_queries=context.distinct_keys,
            # Nothing in the histogram for a range that missed the domain.
            range_size=context.width or None,
            negatives=context.filter_negatives,
            true_positives=context.filter_true_positives,
            false_positives=context.filter_false_positives,
        )
        self.last_query = context

    def _probe_filters_range(
        self, context: QueryContext, runs: list[Run], low: int, high: int
    ) -> list[tuple[Run, bool]]:
        """One emptiness verdict per overlapping run; count the verdicts.

        Every filtered run's filter is asked through
        :func:`~repro.lsm.filter_integration.batched_tightened_ranges`;
        runs without a filter block pass through positive, uncounted
        (fence pointers already said "overlaps").  Returns the runs to
        read, each with the filter that said so (None for no filter).
        """
        if not runs:
            return []
        filters = [
            self._filter_dictionary.get_filter(run.reader, self.stats, context)
            for run in runs
        ]
        started = time.perf_counter_ns()
        verdicts, filter_calls = batched_tightened_ranges(filters, low, high)
        context.filter_probe_ns += time.perf_counter_ns() - started
        context.filter_calls += filter_calls
        context.filters_probed += filter_calls
        positives: list[tuple[Run, KeyFilter | None]] = []
        for run, filt, verdict in zip(runs, filters, verdicts):
            if verdict:
                positives.append((run, filt))
            else:
                context.filter_negatives += 1
                self._note_filter_outcome(run, filt, context.width, 1, 0)
        return positives

    def _note_filter_outcome(
        self, run: Run, filt: KeyFilter, width: int, negatives: int, false_positives: int
    ) -> None:
        """Feed a run's rejectable verdicts on ``width``-key queries to the
        attack detector.

        Callers count verdicts into their query's context themselves; the
        detector (:meth:`~repro.lsm.sstable.SSTReader.record_outcome`) alone
        needs its filter's design FPR at that width, and is only asked when
        ``quarantine_filters`` is on.  A run newly flagged here bumps
        ``filters_quarantined``; the writer rebuilds its filter at its next
        maintenance point (a reader never runs maintenance).
        """
        if self.options.quarantine_filters and run.reader.record_outcome(
            filt.design_fpr(width), negatives, false_positives
        ):
            self.stats.add(filters_quarantined=1)

    # ------------------------------------------------------------------
    # Adaptive tuning (§2.4)
    # ------------------------------------------------------------------
    def retune_filters(
        self,
        tuner: AutoTuner | None = None,
        bits_per_key: float | None = None,
    ) -> TuningDecision:
        """Re-derive the Rosetta recipe from observed workload statistics.

        Future flushes and compactions build filters with the recommended
        strategy/max-range; existing runs keep their filters until they are
        next compacted, matching the paper's compaction-time reconciliation.
        """
        self._check_open()
        tuner = tuner if tuner is not None else AutoTuner()
        decision = tuner.recommend(self.tracker)
        if bits_per_key is None:
            current = self._writer.filter_factory
            bits_per_key = (
                current.bits_per_key
                if current is not None and current.bits_per_key is not None
                else 22.0
            )
        kwargs = decision.build_kwargs()
        key_bits, default_bits = self.options.key_bits, bits_per_key

        def build(keys, salt=0, bits_per_key=None) -> KeyFilter:
            filt = RosettaFilter(
                key_bits=key_bits,
                bits_per_key=default_bits if bits_per_key is None else bits_per_key,
                salt=salt,
                **kwargs,
            )
            filt.populate(keys)
            return filt

        self._writer.filter_factory = FilterFactory(
            name=f"rosetta-tuned[{decision.strategy}]",
            builder=build,
            bits_per_key=bits_per_key,
            salt_capable=True,
            bits_capable=True,
        )
        return decision

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def verify(self):
        """Walk every SST and validate checksums, ordering, and filters.

        The ``VerifyChecksum`` analogue; returns a
        :class:`~repro.lsm.verify.VerificationReport` (never raises on
        corruption — inspect ``report.ok`` / ``report.errors``).
        """
        from repro.lsm.verify import verify_version

        self._check_open()
        return verify_version(self._super.version)

    def describe(self) -> str:
        """Tree shape summary."""
        sv = self._super
        memtable_line = (
            f"memtable: {len(sv.active)} entries, "
            f"{sv.active.approximate_bytes} bytes"
        )
        if sv.immutables:
            sealed_entries = sum(len(i.memtable) for i in sv.immutables)
            memtable_line += (
                f"\nsealed: {len(sv.immutables)} memtables, "
                f"{sealed_entries} entries"
            )
        return memtable_line + "\n" + sv.version.describe()

    def num_live_files(self) -> int:
        """Number of SST files currently in the tree."""
        return self._super.version.total_files()

    @property
    def version(self) -> Version:
        """The current level/run metadata (read-mostly snapshot)."""
        return self._super.version

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _recover(self) -> tuple[Version, int]:
        """The run metadata the manifest lists, and the highest SST file
        number on disk (the writer never reuses one)."""
        version = Version()
        referenced: set[str] = set()
        last_file_number = max(map(sst_file_number, self._env.list_files()), default=0)
        if self._env.exists(MANIFEST):
            manifest = json.loads(self._env.read_file(MANIFEST))
            if "tracker" in manifest:
                self.tracker = WorkloadTracker.from_dict(manifest["tracker"])

            def run(name: str, level: int) -> Run:
                referenced.add(name)
                meta = read_sst_meta(self._env, name)
                reader = SSTReader(self._env, meta, self._cache)
                return Run(reader=reader, level=level)

            version.level0 = [run(name, 0) for name in manifest.get("level0", [])]
            for level_str, entries in manifest.get("levels", {}).items():
                level = int(level_str)
                runs = [run(manifest_entry_name(entry), level) for entry in entries]
                if runs:
                    # Refuses a level whose files overlap: loading one
                    # would break the first compaction that touches it.
                    version.install_level(level, runs)
        # Purge obsolete files — SSTs a crash orphaned before/after their
        # manifest entry, and torn ``.tmp`` halves of interrupted atomic
        # replacements.
        for file_name in self._env.list_files():
            if file_name.endswith(".tmp") or (
                sst_file_number(file_name) and file_name not in referenced
            ):
                self._env.delete_file(file_name)
        return version, last_file_number

    def close(self) -> None:
        """Flush if possible, persist the manifest, release file handles.

        Safe when degraded: the flush is skipped (the WAL still holds the
        writes) and the manifest written best-effort, so ``with DB(...)``
        never raises from ``__exit__``; only a simulated power cut does.
        """
        if self._closed:
            return
        try:
            self._writer.close()
        finally:
            self._closed = True
            self._env.close()

    def kill(self) -> None:
        """Abandon the store without any further I/O (simulated power loss).

        The torture harness's teardown after an injected power cut: no
        flush, no manifest write — file handles are dropped.  Whatever the crash left
        on disk is exactly what recovery will see.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._env.close()
        except (OSError, ReproError):
            pass

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedStoreError("operation on a closed DB")

    def __enter__(self) -> "DB":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
