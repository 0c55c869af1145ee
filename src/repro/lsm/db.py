"""The LSM-tree key-value store (the paper's RocksDB stand-in).

Write path: WAL append → skip-list memtable → flush to an L0 SST (with a
freshly built per-SST filter) → leveled compaction.  Read path: memtable,
then every overlapping run newest-to-oldest, each guarded by its filter —
"for every run of the tree, a point or range query first probes the
corresponding [filter] for this run, and only tries to access the run on
disk if [it] returns a positive" (§2).

Range queries follow §4's implementation overview: probe all relevant
filter instances; if all answer negative, delete the iterator and return
empty; otherwise seek the merging iterator at the (possibly *tightened*,
§2.2.1) lower bound and advance until the upper bound.  Every sub-cost the
paper measures (filter probe, deserialization, residual seek, block read
time) is charged to :class:`~repro.lsm.stats.PerfStats`.

Workload statistics flow into a :class:`~repro.core.tuning.WorkloadTracker`;
:meth:`DB.retune_filters` applies the §2.4 auto-tuner so post-compaction
filter instances adopt the workload-optimal configuration.

Concurrency model
-----------------
All maintenance (flush of the sealed memtables, one compaction) runs as
jobs on a pluggable scheduler (see :mod:`repro.lsm.scheduler`), and the
store runs **at most one job at a time**: its one job slot, a flag under
``_job_lock``, is the whole mutual-exclusion story.  One loop turns debt
into jobs: ``_dispatch_maintenance`` takes the free slot for a flush
(oldest immutable first) or else ``plan()``'s highest-debt compaction.
The foreground jobs — ``compact()``'s forced L0 merge,
``force_full_compaction()`` and ``ingest()`` — take the same slot, waiting
out a running job.  Whoever holds the slot plans against the current
version and nothing else can edit it before the install, so a job's
inputs are always live.  With ``DBOptions.max_background_jobs == 0`` (the
default) the scheduler is inline: ``submit`` runs the job on the writing
thread before it returns, and the dispatcher's own loop picks the next
one, so the store is fully synchronous.  With ``max_background_jobs == 1``
a full active memtable *seals* into a read-only immutable queue (the WAL
rotates with it), writes continue while the worker flushes it, and each
finishing job re-dispatches (``submit`` returned before the job ran, so
the submitting loop is long gone).  Every result funnels through the
version install under ``_mutex``, and replaced runs retire through the
refcounted zombie queue exactly once.

Readers never take the write path's locks.  Every read operation pins a
*superversion* — an immutable ``(active memtable, sealed memtables, run
metadata)`` triple swapped atomically under ``_sv_lock`` — so a query sees
one consistent cut of the store even while installs happen mid-query.
SST files replaced by a compaction are destroyed only once no pinned
superversion can still reach them (epoch-based deferred deletion).

Lock order (outer to inner): ``_write_lock`` → ``_mutex`` → ``_sv_lock``.
``_write_lock`` serializes writers and seals; ``_mutex`` serializes
version installs and the manifest; ``_sv_lock`` (a plain mutex, never held
across I/O) guards the superversion pointer, refcounts, and the deferred
deletion list; ``_job_lock`` (a leaf) guards the job slot
(``_job_running``).

Backpressure mirrors RocksDB's two write-stall triggers: past the
*slowdown* thresholds each write is admitted immediately but charged
up to 1 ms of modeled delay; past the *stop* thresholds (L0 run
count, sealed-memtable backlog) the writer blocks — bounded by
``write_stall_timeout_s``, after which it fails with
:class:`~repro.errors.WriteStallTimeoutError` — until maintenance catches
up.  The stop trigger only engages when maintenance actually runs in the
background; inline maintenance can never fall behind its own writer.
"""

from __future__ import annotations

import json
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.tuning import AutoTuner, TuningDecision, WorkloadTracker
from repro.errors import (
    ClosedStoreError,
    FilterQueryError,
    PowerCutError,
    ReadOnlyStoreError,
    ReproError,
    StoreError,
    WriteStallTimeoutError,
)
from repro.filters.base import FilterFactory, KeyFilter
from repro.filters.rosetta_adapter import RosettaFilter
from repro.lsm.block_cache import BlockCache
from repro.lsm.compaction import CompactionJob, Compactor
from repro.lsm.env import StorageEnv
from repro.lsm.filter_integration import (
    FilterDictionary,
    batched_point_verdicts,
    batched_tightened_ranges,
)
from repro.lsm.format import ValueTag
from repro.lsm.iterators import MergingIterator, live_entries
from repro.lsm.memtable import MemTable
from repro.lsm.options import DBOptions
from repro.lsm.perf_context import QueryContext
from repro.lsm.scheduler import InlineScheduler, ThreadPoolScheduler
from repro.lsm.shard import clamp_to_domain
from repro.lsm.sstable import SSTReader, SSTWriter, read_sst_meta
from repro.lsm.stats import PerfStats
from repro.lsm.version import (
    MANIFEST, NUM_LEVELS, Run, Version, level_target_bytes, manifest_entry_name,
)
from repro.lsm.wal import BATCH_OP, WriteAheadLog, parse_wal_seq, wal_file_name
from repro.lsm.write_batch import WriteBatch


_SST_NAME = re.compile(r"^sst_(\d+)_(\d+)\.sst$")

#: Modeled delay charged to one write at full slowdown debt (RocksDB's
#: ``delayed_write_rate`` analogue, simplified; never slept).
_DELAYED_WRITE_NS = 1_000_000

__all__ = ["DB", "HealthReport"]


class _Immutable:
    """One sealed memtable bundled with the WAL file that backs it."""

    __slots__ = ("memtable", "wal_name")

    def __init__(self, memtable: MemTable, wal_name: str | None) -> None:
        self.memtable = memtable
        self.wal_name = wal_name


class _SuperVersion:
    """One immutable cut of the store a reader can pin.

    ``immutables`` is newest-first; ``version`` is the run metadata, whose
    file index is built here — every edit after this point goes to a clone.
    The object itself is frozen after install — a state change installs a
    new superversion rather than mutating this one.  ``refs``/``epoch`` are
    managed under ``DB._sv_lock`` only.
    """

    __slots__ = ("active", "immutables", "version", "refs", "epoch")

    def __init__(
        self,
        active: MemTable,
        immutables: tuple[_Immutable, ...],
        version: Version,
    ) -> None:
        self.active = active
        self.immutables = immutables
        version.freeze()
        self.version = version
        self.refs = 0
        self.epoch = 0

    def memtables(self) -> Iterator[MemTable]:
        """Active then sealed memtables, newest to oldest."""
        yield self.active
        for immutable in self.immutables:
            yield immutable.memtable


@dataclass(frozen=True)
class HealthReport:
    """Snapshot of the store's fault state (``DB.health()``).

    ``mode`` is ``"healthy"`` or ``"degraded"``; degraded means a
    background flush/compaction failed, writes raise
    :class:`~repro.errors.ReadOnlyStoreError`, and :meth:`DB.resume` is the
    way back.  The counters mirror the fault-handling fields of
    :class:`~repro.lsm.stats.PerfStats` so an operator sees every injected
    or real fault the store absorbed.

    ``stall_state`` is what the write-backpressure triggers say about
    the reported superversion, computed at report time: ``"none"``,
    ``"slowdown"`` (a write would be admitted with modeled delay), or
    ``"stopped"`` (a write would block on the stop trigger).
    ``pending_immutables`` / ``level0_runs`` are the two quantities the
    triggers watch, read from the same superversion.
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
    stall_state: str = "none"
    pending_immutables: int = 0
    level0_runs: int = 0
    write_slowdowns: int = 0
    write_stops: int = 0
    write_stall_time_ns: int = 0
    write_stall_timeouts: int = 0
    workers: int = 0
    jobs_in_flight: int = 0

    @property
    def ok(self) -> bool:
        """True when fully healthy (no degraded state of any kind)."""
        return (
            self.mode == "healthy"
            and not self.degraded_filters
            and not self.attacked_filters
        )

    def summary(self) -> str:
        """One-line human-readable digest."""
        parts = [f"mode={self.mode}"]
        if self.background_error:
            parts.append(f"background_error={self.background_error!r}")
        if self.degraded_filters:
            parts.append(
                f"degraded_filters=[{', '.join(self.degraded_filters)}]"
            )
        if self.attacked_filters:
            parts.append(
                f"filters_under_attack=[{', '.join(self.attacked_filters)}]"
            )
        parts.append(
            f"io: {self.io_transient_errors} transient errors, "
            f"{self.io_retries} retries"
        )
        if self.stall_state != "none" or self.write_stops or self.write_slowdowns:
            parts.append(
                f"writes: stall={self.stall_state}, "
                f"{self.write_slowdowns} slowdowns, {self.write_stops} stops"
            )
        return "; ".join(parts)


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
        self._filter_dictionary = FilterDictionary(
            enabled=self.options.use_filter_dictionary,
            quarantine=self.options.quarantine_filters,
            quarantine_fpr_multiple=self.options.quarantine_fpr_multiple,
            quarantine_min_probes=self.options.quarantine_min_probes,
        )
        self._current_filter_factory = self.options.filter_factory
        self._auto_tuner = AutoTuner()
        self._compactor = Compactor(
            self._env,
            self.options,
            self._cache,
            self._filter_dictionary,
            filter_factory_provider=lambda: self._current_filter_factory,
            tuner_provider=lambda: self._auto_tuner,
        )

        scheduler_factory = self.options.scheduler_factory
        if scheduler_factory is not None:
            self._scheduler = scheduler_factory(self.options)
        elif self.options.max_background_jobs:
            self._scheduler = ThreadPoolScheduler()
        else:
            self._scheduler = InlineScheduler()
        self._concurrent = bool(getattr(self._scheduler, "concurrent", False))

        # Lock order: _write_lock -> _mutex -> _sv_lock.  The first two
        # come from the scheduler so the deterministic torture scheduler
        # can yield inside them; _sv_lock/_job_lock are plain mutexes that
        # are never held across I/O.
        self._write_lock = self._scheduler.make_lock()
        self._mutex = self._scheduler.make_lock()
        self._sv_lock = threading.Lock()
        self._job_lock = threading.Lock()
        self._job_running = False

        self._epoch = 0
        self._zombies: list[tuple[int, list[Run]]] = []
        self._live_svs: list[_SuperVersion] = []
        self._super: _SuperVersion | None = None
        self._wal_seq = 0
        self._active_wal: WriteAheadLog | None = None

        self._closed = False
        #: Description of the background failure that degraded the store
        #: to read-only, or None when healthy (see :meth:`health`).
        self._background_error: str | None = None
        #: Per-query performance context of the most recent read operation.
        self.last_query: QueryContext | None = None
        self._recover()
        # Only now start interleaving: recovery I/O runs before any job
        # exists, so it never consumes scheduler randomness.
        if self._concurrent:
            self._env.yield_hook = self._scheduler.sync_point
            if self._super.immutables:
                self._schedule_maintenance()

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
    def _ref_super(self) -> _SuperVersion:
        """Pin the current superversion for the duration of one read."""
        with self._sv_lock:
            sv = self._super
            sv.refs += 1
            return sv

    def _unref_super(self, sv: _SuperVersion) -> None:
        """Release a pin; destroy any runs that just became unreachable."""
        with self._sv_lock:
            sv.refs -= 1
            if sv.refs == 0 and sv in self._live_svs:
                self._live_svs.remove(sv)
            ready = self._collect_zombies_locked()
        if ready:
            self._destroy_zombies(ready)

    def _install_super(
        self, new_sv: _SuperVersion, obsolete: Sequence[Run] = ()
    ) -> None:
        """Atomically publish ``new_sv`` (caller holds ``_mutex``).

        ``obsolete`` runs are queued for deferred deletion: they are
        destroyed only once every superversion older than this install has
        been released, so an in-flight reader never loses a file under its
        feet.
        """
        with self._sv_lock:
            old = self._super
            self._epoch += 1
            new_sv.epoch = self._epoch
            new_sv.refs = 1  # the DB's own reference
            self._live_svs.append(new_sv)
            self._super = new_sv
            if obsolete:
                self._zombies.append((self._epoch, list(obsolete)))
            if old is not None:
                old.refs -= 1
                if old.refs == 0:
                    self._live_svs.remove(old)
            ready = self._collect_zombies_locked()
        if ready:
            self._destroy_zombies(ready)
        self._scheduler.notify()

    def _collect_zombies_locked(self) -> list[Run] | None:
        """Zombie runs whose epoch no live superversion predates."""
        if not self._zombies or not self._live_svs:
            return None
        min_epoch = min(sv.epoch for sv in self._live_svs)
        ready = [runs for epoch, runs in self._zombies if epoch <= min_epoch]
        if not ready:
            return None
        self._zombies = [z for z in self._zombies if z[0] > min_epoch]
        return [run for runs in ready for run in runs]

    def _destroy_zombies(self, runs: list[Run]) -> None:
        try:
            self._compactor.destroy_runs(runs)
        except (PowerCutError, ClosedStoreError):
            raise
        except (OSError, ReproError) as exc:
            self._enter_background_error("compaction", exc)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, key: int, value: bytes) -> None:
        """Insert or overwrite a key."""
        self._check_open()
        self._check_writable()
        encoded = self._encode_key(key)
        with self._write_lock:
            self._check_open()
            self._apply_backpressure()
            if self._active_wal is not None:
                self._guard_wal_append(
                    lambda: self._active_wal.append_put(encoded, value)
                )
            self._super.active.put(encoded, bytes(value))
            self.stats.add(writes=1)
            self._maybe_seal()

    def delete(self, key: int) -> None:
        """Delete a key (writes a tombstone)."""
        self._check_open()
        self._check_writable()
        encoded = self._encode_key(key)
        with self._write_lock:
            self._check_open()
            self._apply_backpressure()
            if self._active_wal is not None:
                self._guard_wal_append(
                    lambda: self._active_wal.append_delete(encoded)
                )
            self._super.active.delete(encoded)
            self.stats.add(writes=1)
            self._maybe_seal()

    def write(self, batch) -> None:
        """Apply a :class:`~repro.lsm.write_batch.WriteBatch` atomically.

        The batch is persisted as a single WAL frame before touching the
        memtable, so recovery sees all of it or none of it.
        """
        self._check_open()
        self._check_writable()
        if len(batch) == 0:
            return
        # Validate every key before any side effect (atomicity).
        for _tag, key, _value in batch:
            decoded = self._decode_key(key)
            if decoded >> self.options.key_bits:
                raise FilterQueryError(
                    f"batched key {decoded} outside domain "
                    f"[0, 2^{self.options.key_bits})"
                )
        with self._write_lock:
            self._check_open()
            self._apply_backpressure()
            if self._active_wal is not None:
                self._guard_wal_append(
                    lambda: self._active_wal.append_batch(batch.encode())
                )
            active = self._super.active
            for tag, key, value in batch:
                if tag == ValueTag.PUT:
                    active.put(key, value)
                else:
                    active.delete(key)
            self.stats.add(writes=len(batch))
            self._maybe_seal()

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

    # ------------------------------------------------------------------
    # Write backpressure (caller holds _write_lock)
    # ------------------------------------------------------------------
    def _stall_conditions(self, sv: _SuperVersion) -> tuple[bool, bool]:
        """The ``(slowdown, stop)`` trigger state of one superversion."""
        level0 = len(sv.version.level0)
        backlog = len(sv.immutables)
        opts = self.options
        stop = self._concurrent and (
            level0 >= opts.level0_stop_writes_trigger
            or backlog >= opts.max_immutable_memtables
        )
        slowdown = (
            level0 >= opts.level0_slowdown_writes_trigger
            or backlog >= max(1, opts.max_immutable_memtables - 1)
        )
        return slowdown, stop

    def _apply_backpressure(self) -> None:
        """Admit, slow, or stop this write based on maintenance debt.

        Stop = a real bounded block (the RocksDB stop trigger): wait until
        maintenance drains below the trigger, the store degrades, or
        ``write_stall_timeout_s`` elapses — then
        :class:`WriteStallTimeoutError`.  Slowdown = the write proceeds but
        is charged a modeled delay (:meth:`_write_delay_ns`; no real sleep),
        so benchmarks observe the stall without timing jitter.
        """
        self._check_writable()
        slowdown, stop = self._stall_conditions(self._super)
        if stop:
            self.stats.add(write_stops=1)
            self._schedule_maintenance()
            started = time.perf_counter_ns()

            def cleared() -> bool:
                if self._background_error is not None or self._closed:
                    return True
                return self._stall_cleared()

            drained = self._scheduler.wait_for(
                cleared, self.options.write_stall_timeout_s
            )
            self.stats.add(
                write_stall_time_ns=time.perf_counter_ns() - started
            )
            if not drained:
                self.stats.add(write_stall_timeouts=1)
                raise WriteStallTimeoutError(
                    f"write stalled longer than "
                    f"{self.options.write_stall_timeout_s}s "
                    f"(L0={len(self._super.version.level0)}, "
                    f"sealed={len(self._super.immutables)})"
                )
            self._check_open()
            self._check_writable()
            slowdown = self._stall_conditions(self._super)[0]
        if slowdown:
            self.stats.add(
                write_slowdowns=1,
                write_delay_time_ns=self._write_delay_ns(),
            )
            # Debt with no job running (post-resume, races): kick the
            # dispatcher.  Racy read — a running job re-dispatches when
            # it finishes, so a stale skip here self-heals.
            if self._concurrent and not self._job_running:
                self._schedule_maintenance()

    def _stall_cleared(self) -> bool:
        """Stop-trigger release, with hysteresis on the memtable backlog.

        Resuming the moment the backlog dips below
        ``max_immutable_memtables`` lets the writer seal once and stop
        again immediately — a stop per seal.  Requiring one extra step of
        drain (the backlog below the *slowdown* threshold) costs one fast
        flush of extra wait and halves the stop frequency.
        """
        sv = self._super
        opts = self.options
        return (
            len(sv.version.level0) < opts.level0_stop_writes_trigger
            and len(sv.immutables) < max(1, opts.max_immutable_memtables - 1)
        )

    def _write_delay_ns(self) -> int:
        """Debt-proportional modeled slowdown charge for one write.

        RocksDB's ``delayed_write_rate`` analogue, simplified: the charge
        scales with how far the worse of the two debt gauges (L0 run
        count, sealed-memtable backlog) has travelled from its slowdown
        trigger toward its stop trigger — mild debt costs a fraction of
        ``_DELAYED_WRITE_NS``, near-stop debt the full charge.  Always at
        least 1 ns so a slowed write is visible in the counters.
        """
        opts = self.options
        sv = self._super

        def travelled(value: int, slow: int, stop: int) -> float:
            if value < slow:
                return 0.0
            if stop <= slow:
                return 1.0
            return min(1.0, (value - slow + 1) / (stop - slow + 1))

        debt = max(
            travelled(
                len(sv.version.level0),
                opts.level0_slowdown_writes_trigger,
                opts.level0_stop_writes_trigger,
            ),
            travelled(
                len(sv.immutables),
                max(1, opts.max_immutable_memtables - 1),
                opts.max_immutable_memtables,
            ),
        )
        return max(1, int(_DELAYED_WRITE_NS * debt))

    # ------------------------------------------------------------------
    # Sealing and background maintenance
    # ------------------------------------------------------------------
    def _maybe_seal(self) -> None:
        if (
            self._super.active.approximate_bytes
            >= self.options.memtable_size_bytes
        ):
            if self._seal_active():
                self._schedule_maintenance()

    def _seal_active(self) -> bool:
        """Rotate the active memtable into the immutable queue.

        The WAL rotates with it: the sealed memtable keeps its log file
        (deleted only after its flush lands) and subsequent writes go to a
        fresh one.  Pure metadata — no I/O happens here, so a seal cannot
        fail.  Caller holds ``_write_lock``.
        """
        if self._super.active.is_empty:
            return False
        with self._mutex:
            sv = self._super
            bundle = _Immutable(
                sv.active,
                self._active_wal.name if self._active_wal is not None else None,
            )
            new_sv = _SuperVersion(
                MemTable(), (bundle,) + sv.immutables, sv.version
            )
            if self._active_wal is not None:
                self._wal_seq += 1
                self._active_wal = WriteAheadLog(
                    self._env, wal_file_name(self._wal_seq)
                )
            self._install_super(new_sv)
        self.stats.add(memtable_seals=1)
        return True

    def _schedule_maintenance(self) -> None:
        """Ensure pending maintenance debt is (or will be) worked on."""
        if not self._closed:
            self._dispatch_maintenance()

    def _dispatch_maintenance(self) -> None:
        """Hand the next piece of debt to the job slot — the one loop.

        A flush of the sealed memtables comes first, else ``plan()``'s
        highest-debt compaction.  An inline ``submit`` has run the job by
        the time it returns, so this loop itself walks flush, plan,
        compact until ``plan()`` runs dry, at constant stack depth; with a
        worker ``submit`` returns at once, the loop ends, and the job
        calls back here when it finishes.  A caller that finds the slot
        busy just returns: the running job's dispatcher (inline) or
        completion (worker) re-reads the current superversion, so its
        work is not lost.
        """
        while self._background_error is None and not self._closed:
            # Racy fast path: a busy slot re-dispatches when it frees, so
            # a stale read here self-heals.
            if self._job_running or not self._try_take_slot():
                return
            sv = self._super
            if sv.immutables:
                self._scheduler.submit("flush", self._flush_job)
                continue
            try:
                job = self._compactor.plan(sv.version)
            except Exception as exc:
                # A planner bug, not a device fault: park the store the
                # way _run_background does, and never keep the slot.
                self._enter_background_error("compaction-plan", exc)
                self._release_slot()
                raise
            if job is None:
                self._release_slot()
                return
            self._scheduler.submit(
                "compaction", lambda job=job: self._compaction_job(job)
            )

    def _try_take_slot(self) -> bool:
        """Claim the job slot if it is free."""
        with self._job_lock:
            if self._job_running:
                return False
            self._job_running = True
            return True

    def _release_slot(self) -> None:
        """Free the job slot and wake anyone waiting for it."""
        with self._job_lock:
            self._job_running = False
        self._scheduler.notify()

    @contextmanager
    def _slot_held(self) -> Iterator[None]:
        """Run a job body in the held slot; free it, then refill it.

        Only a worker refills: inline, the dispatcher that submitted the
        job is still looping and picks the next one itself.  The refill is
        not reached after ``PowerCutError`` or other unwinding: no further
        submissions to a dying scheduler.
        """
        try:
            yield
        finally:
            self._release_slot()
        if self._concurrent:
            self._dispatch_maintenance()

    @contextmanager
    def _job_slot(self) -> Iterator[None]:
        """Take the job slot for a foreground job, waiting out a running one.

        ``compact()``'s forced L0 merge, ``force_full_compaction()`` and
        ``ingest()`` plan and install inside it, so no other job can
        retire their inputs or fill their target level meanwhile.
        """
        while not self._scheduler.wait_for(self._try_take_slot, None):
            # Inline, wait_for checks once; the holder is another
            # thread's dispatcher, which frees the slot when it runs dry.
            time.sleep(0.001)
        with self._slot_held():
            yield

    def _flush_job(self) -> None:
        """Job body: drain the immutable backlog in the held slot.

        Drains in a loop rather than one-memtable-per-job: under write
        pressure the backlog is what stops writers, and the
        re-dispatch round-trip between single flushes is latency the
        stalled writer would eat.
        """
        with self._slot_held():
            while self._background_error is None and self._super.immutables:
                if not self._run_background(
                    "flush", self._flush_oldest_immutable
                ):
                    break

    def _compaction_job(self, job: CompactionJob) -> None:
        """Job body: run one planned compaction in the held slot."""
        with self._slot_held():
            if self._background_error is None:
                self._run_background(
                    "compaction", lambda: self._run_compaction_job(job)
                )

    def _flush_oldest_immutable(self) -> None:
        """Flush the oldest sealed memtable to a new L0 SST.

        Durability ordering: the SST is written (synced) and the manifest
        persisted *before* the sealed memtable's WAL file is deleted — a
        crash between any two steps recovers either from the WAL or from
        the manifest, never from neither.
        """
        sv = self._super
        if not sv.immutables:
            return
        bundle = sv.immutables[-1]  # oldest
        run: Run | None = None
        if not bundle.memtable.is_empty:
            name = self._compactor.next_file_name(0)
            writer = SSTWriter(
                self._env,
                name,
                self.options,
                filter_factory=self._current_filter_factory,
            )
            for key, tag, value in bundle.memtable.entries():
                writer.add(key, tag, value)
            meta = writer.finish()
            reader = SSTReader(self._env, meta, self._cache, is_level0=True)
            run = Run(reader=reader, level=0)
        with self._mutex:
            current = self._super
            new_version = current.version
            if run is not None:
                new_version = current.version.clone()
                new_version.add_level0(run)
                self._write_manifest(new_version)
            new_sv = _SuperVersion(
                current.active, current.immutables[:-1], new_version
            )
            self._install_super(new_sv)
        # Only now is the run durable under the manifest; dropping the
        # logged copy can no longer lose acknowledged writes.
        if bundle.wal_name is not None:
            self._env.delete_file(bundle.wal_name)
        if run is not None:
            self.stats.add(flushes=1)

    def _run_compaction_job(self, job: CompactionJob) -> None:
        """Execute one planned compaction and install its result.

        The merge runs unlocked (it only reads immutable SSTs); the
        metadata swap happens on a version clone under ``_mutex`` with the
        manifest persisted before the new superversion is published.
        Input files become zombies, destroyed once unreferenced.
        """
        outputs = self._compactor.execute(job)
        with self._mutex:
            current = self._super
            new_version = current.version.clone()
            self._compactor.apply(new_version, job, outputs)
            self._write_manifest(new_version)
            new_sv = _SuperVersion(
                current.active, current.immutables, new_version
            )
            self._install_super(new_sv, obsolete=job.inputs)

    def _drain_maintenance(self, timeout_s: float = 60.0) -> bool:
        """Wait until background maintenance is idle (or the store degrades)."""
        if not self._concurrent:
            return True

        def settled() -> bool:
            # The running job first: a parked store is settled only once
            # its job has unwound and freed the slot (resume() relies on it
            # to find the slot free).
            if self._job_running:
                return False
            if self._background_error is not None:
                return True
            sv = self._super
            # plan() is read-only, so this is exactly "would dispatch do
            # more work" — with job completions re-dispatching, reaching
            # here with a non-None plan can only be a transient race, and
            # the next predicate evaluation settles it.
            return not sv.immutables and self._compactor.plan(sv.version) is None

        return self._scheduler.wait_for(settled, timeout_s)

    def wait_idle(self, timeout_s: float = 60.0) -> bool:
        """Block until no background maintenance is pending or running.

        Returns True when the store settled (or runs inline, where there
        is never pending work); False on timeout.  A store parked in
        degraded mode counts as settled — the pending work cannot proceed
        until :meth:`resume`.
        """
        self._check_open()
        return self._drain_maintenance(timeout_s)

    def flush(self) -> None:
        """Flush buffered writes to L0 SSTs and settle compaction triggers.

        A synchronous barrier regardless of a background worker: the active
        memtable seals and the call returns only once every sealed
        memtable is flushed (or the store degraded).  A failing background
        write does not raise: the store enters degraded read-only mode
        (see :meth:`health` / :meth:`resume`) with the sealed memtables
        and their WAL files intact, so no acknowledged write is lost.
        """
        self._check_open()
        self._check_writable()
        with self._write_lock:
            sealed = self._seal_active()
        if sealed or self._super.immutables:
            self._schedule_maintenance()
            self._drain_maintenance()

    def compact(self) -> None:
        """Force L0 into the tree and settle all compaction triggers."""
        self._check_open()
        self._check_writable()
        with self._write_lock:
            if self._seal_active() or self._super.immutables:
                self._schedule_maintenance()
                if not self._drain_maintenance():
                    return
            if not self._run_forced(self._compactor.forced_l0_job):
                return
            # Settle even with an empty L0: quarantined runs at deeper
            # levels plan rebuild jobs regardless of size triggers.
            self._schedule_maintenance()
            self._drain_maintenance()

    def force_full_compaction(self) -> None:
        """Merge every run into the bottom-most populated level.

        The analogue of RocksDB's ``CompactRange`` over the whole keyspace:
        every SST is rewritten, so every filter instance is rebuilt with the
        *current* filter factory — the way a §2.4 retuning decision reaches
        all existing data.
        """
        self._check_open()
        self._check_writable()
        with self._write_lock:
            if self._seal_active() or self._super.immutables:
                self._schedule_maintenance()
                if not self._drain_maintenance():
                    return
            self._run_forced(self._compactor.full_compaction_job)

    def _run_forced(
        self, plan: Callable[[Version], CompactionJob | None]
    ) -> bool:
        """Plan a forced compaction in the job slot and run it there.

        The one foreground bracket, for the jobs ``plan()`` never emits
        (``compact``'s L0 merge, ``force_full_compaction``).  Returns
        False when the store is degraded, before or by the job.
        """
        with self._job_slot():
            if self._background_error is not None:
                return False
            job = plan(self._super.version)
            return job is None or self._run_background(
                "compaction", lambda: self._run_compaction_job(job)
            )

    # ------------------------------------------------------------------
    # Background-error state machine
    # ------------------------------------------------------------------
    def _run_background(self, op: str, body: Callable[[], None]) -> bool:
        """Run a background write; on failure degrade instead of crashing.

        Simulated power cuts and closed-store misuse propagate untouched.
        Anything else parks the DB in read-only mode: an I/O / store error
        is absorbed (returns False), an unexpected exception — a bug, not
        a device fault — is recorded the same way and then re-raised, so
        it reaches an inline caller and is never lost on a worker thread.
        Returns True when the body completed.
        """
        try:
            body()
            return True
        except (PowerCutError, ClosedStoreError):
            raise
        except (OSError, ReproError) as exc:
            self._enter_background_error(op, exc)
            return False
        except Exception as exc:
            self._enter_background_error(op, exc)
            raise

    def _guard_wal_append(self, append: Callable[[], None]) -> None:
        """Run a foreground WAL append; on I/O failure park, don't leak.

        A failed WAL append means durability is gone for this write, so
        the memtable is left untouched (nothing is acked that the log
        cannot replay) and the store parks in degraded read-only mode —
        the same state machine as a failed background write — surfacing
        the typed :class:`ReadOnlyStoreError` instead of a raw
        ``OSError``.  Simulated power cuts propagate untouched, as
        everywhere.
        """
        try:
            append()
        except PowerCutError:
            raise
        except OSError as exc:
            self._enter_background_error("wal-append", exc)
            raise ReadOnlyStoreError(
                f"WAL append failed; store parked read-only "
                f"({type(exc).__name__}: {exc})"
            ) from exc

    def _enter_background_error(self, op: str, exc: BaseException) -> None:
        with self._mutex:
            self._background_error = f"{op}: {type(exc).__name__}: {exc}"
        self.stats.add(background_errors=1)
        self._scheduler.notify()

    def _check_writable(self) -> None:
        if self._background_error is not None:
            raise ReadOnlyStoreError(
                f"store is in degraded read-only mode after a background "
                f"error ({self._background_error}); call resume() to retry"
            )

    @property
    def background_error(self) -> str | None:
        """The current background-error string, or None when healthy.

        A cheap single-field read under ``_mutex`` — the serving layer's
        shard supervisor polls this every tick to catch degraded-mode
        flips without paying for a full :meth:`health` snapshot (which
        pins a superversion and snapshots every counter).
        """
        with self._mutex:
            return self._background_error

    def health(self) -> HealthReport:
        """The store's current fault state (always readable, never raises).

        The report is *self-consistent*: the superversion is pinned and
        the background error is read once under ``_mutex`` — the lock
        every state transition (version install, degraded-mode entry)
        happens under — so a concurrent superversion swap can never
        produce, say, a ``healthy`` mode paired with a stale
        ``level0_runs`` count or a ``degraded`` mode whose
        ``background_error`` is ``None``; ``stall_state`` is derived from
        that same pinned superversion, so it always agrees with the
        ``level0_runs`` / ``pending_immutables`` beside it.  Counters come
        from one lock-protected ``PerfStats.snapshot()``.
        """
        with self._mutex:
            sv = self._ref_super()
            background_error = self._background_error
        try:
            stats = self.stats.snapshot()
            attacked = self._filter_dictionary.under_attack_snapshot()
            slowdown, stop = self._stall_conditions(sv)
            return HealthReport(
                mode="degraded" if background_error is not None else "healthy",
                background_error=background_error,
                degraded_filters=self._filter_dictionary.degraded_snapshot(),
                io_transient_errors=stats.io_transient_errors,
                io_retries=stats.io_retries,
                filters_degraded=stats.filters_degraded,
                background_errors=stats.background_errors,
                attacked_filters=attacked,
                filters_under_attack=len(attacked),
                stall_state=(
                    "stopped" if stop else "slowdown" if slowdown else "none"
                ),
                pending_immutables=len(sv.immutables),
                level0_runs=len(sv.version.level0),
                write_slowdowns=stats.write_slowdowns,
                write_stops=stats.write_stops,
                write_stall_time_ns=stats.write_stall_time_ns,
                write_stall_timeouts=stats.write_stall_timeouts,
                workers=self.options.max_background_jobs,
                jobs_in_flight=int(self._job_running),
            )
        finally:
            self._unref_super(sv)

    def resume(self) -> bool:
        """Leave degraded read-only mode and retry the pending maintenance.

        Mirrors RocksDB's ``DB::Resume``: clears the background error and
        re-attempts whatever the failed background write left behind —
        sealed memtables flush again (their WALs were kept), interrupted
        compactions re-plan.  The retry runs wherever maintenance normally
        runs (inline or on a worker).  Returns True when the store is
        writable again (a fresh failure re-enters degraded mode and
        returns False).
        """
        self._check_open()
        if self._background_error is None:
            return True
        with self._mutex:
            self._background_error = None
        self._schedule_maintenance()
        self._drain_maintenance()
        return self._background_error is None

    # ------------------------------------------------------------------
    # Bulk load
    # ------------------------------------------------------------------
    def ingest(self, items: Iterable[tuple[int, bytes]], level: int | None = None) -> None:
        """Bulk-load sorted unique items directly into one deep level.

        The paper's experiments load 50M keys before measuring queries;
        this path builds bottom-level SSTs (with filters) without write
        amplification.  ``level`` defaults to the shallowest level whose
        size target fits the data.
        """
        self._check_open()
        self._check_writable()
        pairs = sorted(items, key=lambda kv: kv[0])
        if not pairs:
            return
        with self._write_lock:
            self._drain_maintenance()
            if level is None:
                estimated = sum(
                    self.options.key_width_bytes + len(v) + 8 for _, v in pairs
                )
                base = self.options.max_bytes_for_level_base
                level = 1
                while (
                    level < NUM_LEVELS - 1
                    and estimated > level_target_bytes(base, level)
                ):
                    level += 1
            if not 1 <= level < NUM_LEVELS:
                raise StoreError(f"ingest level {level} out of range")
            with self._job_slot():
                # Holding the slot, no compaction can fill the level
                # between this check and the install.
                if self._super.version.level_runs(level):
                    raise StoreError(f"ingest target level {level} is not empty")
                runs = self._write_ingest_runs(pairs, level)
                with self._mutex:
                    current = self._super
                    new_version = current.version.clone()
                    new_version.install_level(level, runs)
                    self._write_manifest(new_version)
                    new_sv = _SuperVersion(
                        current.active, current.immutables, new_version
                    )
                    self._install_super(new_sv)

    def _write_ingest_runs(
        self, pairs: list[tuple[int, bytes]], level: int
    ) -> list[Run]:
        """Cut sorted ``pairs`` (first of each duplicate key wins) into
        fresh SSTs for ``level``."""
        runs: list[Run] = []
        writer: SSTWriter | None = None
        previous: int | None = None
        for key, value in pairs:
            if key == previous:
                continue
            previous = key
            if writer is None:
                writer = SSTWriter(
                    self._env,
                    self._compactor.next_file_name(level),
                    self.options,
                    filter_factory=self._current_filter_factory,
                )
            writer.add(self._encode_key(key), ValueTag.PUT, bytes(value))
            if writer.estimated_file_size >= self.options.sst_size_bytes:
                runs.append(self._finish_ingest_writer(writer, level))
                writer = None
        if writer is not None and writer.num_entries:
            runs.append(self._finish_ingest_writer(writer, level))
        return runs

    def _finish_ingest_writer(self, writer: SSTWriter, level: int) -> Run:
        meta = writer.finish()
        reader = SSTReader(self._env, meta, self._cache, is_level0=False)
        return Run(reader=reader, level=level)

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

        ``keys`` are distinct.  The memtables (active, then sealed, newest
        first) answer what they hold; the rest are grouped per overlapping
        run, newest to oldest, and each run's filter answers its whole
        group with one :meth:`~repro.filters.base.KeyFilter.may_contain_batch`
        call (a ``get`` is a group of one; the filter, not the DB, decides
        how to probe a group of that size).  Run recency is preserved: a
        key resolved by a newer run (value or tombstone) is never probed
        against older runs, so verdicts, values and filter outcome counters
        do not depend on how keys were batched.
        """
        encoded = [self._encode_key(key) for key in keys]
        context.distinct_keys = len(keys)
        values: dict[int, bytes | None] = dict.fromkeys(keys)
        sv = self._ref_super()
        try:
            # Buffered entries (puts and tombstones) resolve immediately
            # and never reach the filters.
            memtables = list(sv.memtables())
            pending: dict[bytes, int] = {}
            for key, enc in zip(keys, encoded):
                for memtable in memtables:
                    buffered = memtable.get(enc)
                    if buffered is not None:
                        tag, value = buffered
                        if tag == ValueTag.PUT:
                            values[key] = value
                            context.results += 1
                        context.memtable_hits += 1
                        break
                else:
                    pending[enc] = key
            context.memtable_hit = context.memtable_hits > 0
            if not pending:
                return values

            if len(pending) == 1:
                low = high = next(iter(pending))
            else:
                low, high = min(pending), max(pending)
            get_filter = self._filter_dictionary.get_filter
            stats = self.stats
            quarantine = self.options.quarantine_filters
            now = time.perf_counter_ns
            put = ValueTag.PUT
            for run in sv.version.runs_for_range(low, high):
                reader = run.reader
                meta = reader.meta
                min_key, max_key = meta.min_key, meta.max_key
                group = [enc for enc in pending if min_key <= enc <= max_key]
                if not group:
                    continue
                context.runs_considered += 1
                filt = get_filter(reader, stats, context)
                started = now()
                verdicts, filter_calls = batched_point_verdicts(
                    filt, [pending[enc] for enc in group]
                )
                if filt is not None:  # else fence pointers only: no probe
                    context.filter_probe_ns += now() - started
                    context.filter_calls += filter_calls
                    context.filters_probed += len(group)
                negatives = true_positives = false_positives = 0
                for enc, verdict in zip(group, verdicts):
                    if not verdict:
                        negatives += 1
                        continue
                    context.iterators_created += 1
                    found = reader.get(enc, context)
                    if found is None:
                        false_positives += 1
                        continue
                    true_positives += 1
                    tag, value = found
                    if tag == put:
                        values[pending[enc]] = value
                        context.results += 1
                    del pending[enc]  # shadows every older run
                if filt is not None:  # a run that was not asked said nothing
                    context.filter_negatives += negatives
                    context.filter_true_positives += true_positives
                    context.filter_false_positives += false_positives
                    if quarantine and negatives + false_positives:
                        self._note_filter_outcome(
                            run, negatives, false_positives
                        )
                if not pending:
                    break
            return values
        finally:
            self._publish(context)
            self._unref_super(sv)

    # ------------------------------------------------------------------
    # Range reads
    # ------------------------------------------------------------------
    def range_query(self, low: int, high: int) -> list[tuple[int, bytes]]:
        """Inclusive range scan; returns live ``(key, value)`` pairs."""
        return list(self.range_iter(low, high))

    def range_iter(self, low: int, high: int) -> Iterator[tuple[int, bytes]]:
        """Iterator form of :meth:`range_query` — genuinely streaming.

        Entries are yielded as the underlying merge advances, so the
        first result is available before the scan has read the rest of
        the range (long scans no longer buffer the full result list).
        The returned generator owns the superversion pinned at call time
        and the query's :class:`QueryContext`: exhaustion, ``close()`` or
        garbage collection — whichever comes first, and whether or not it
        was ever advanced — releases the pin, settles the filter
        true/false positives the scan observed, and publishes the context
        (counters, tracker, ``last_query``) exactly once.  A scan with
        nothing to stream has done all of that before this returns.

        Validation is eager: a closed store or an inverted range raises
        here, at call time — not on the first ``next()``.  Out-of-domain
        bounds are clamped (a range wholly outside the key domain is
        empty), the same answer the filters and
        :meth:`ShardRouter.split_range` give.  Filter probing is eager too
        (the probes decide whether there is anything to stream at all).
        """
        context = QueryContext(kind="range", low=low, high=high)
        return self._start_scan(context, probe=True)

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
        superversion pin and its release are :meth:`range_iter`'s.
        """
        context = QueryContext(
            kind="scan",
            low=0 if start is None else start,
            high=(1 << self.options.key_bits) - 1 if end is None else end,
        )
        return self._start_scan(context, probe=False)

    def _start_scan(
        self, context: QueryContext, probe: bool
    ) -> Iterator[tuple[int, bytes]]:
        """Open a :meth:`_range_scan` over ``[context.low, context.high]``."""
        self._check_open()
        clamped = clamp_to_domain(
            context.low, context.high, self.options.key_bits
        )
        scan = self._range_scan(context, clamped, probe)
        # Run the eager half now.  A generator that was started always runs
        # its ``finally`` — on close() or collection too — which one that
        # was merely created never does.
        if not next(scan):
            # "If all filters answer negative, we delete the iterator
            # and return an empty result."
            scan.close()
        return scan

    def _range_scan(
        self, context: QueryContext, clamped: tuple[int, int] | None, probe: bool
    ) -> Iterator:
        """The one merge loop of :meth:`range_iter` and :meth:`iterator`,
        counting into ``context``.

        Its first yield, after the filters were probed (``probe``; else
        every overlapping run is read), is a handshake :meth:`_start_scan`
        consumes — anything to stream? — entries follow.  A probed scan
        publishes its context; an unprobed one only folds it into
        ``stats``.
        """
        sv = self._ref_super()
        answered_runs: list[Run] = []
        contributed: dict[str, bool] = {}
        try:
            if clamped is None:
                yield False
                return
            low, high = clamped
            context.width = high - low + 1
            low_bytes = self._encode_key(low)
            high_bytes = self._encode_key(high)
            candidates = sv.version.runs_for_range(low_bytes, high_bytes)
            context.runs_considered = len(candidates)
            # Positive runs all seek at ``low_bytes``.  Seeking at a
            # filter's leftmost surviving key instead (§2.2.1) buys
            # nothing here: a filter has no false negatives, so the run
            # holds no key in [low, leftmost survivor), and iterating
            # from either bound lands on the same entry of the same block.
            if probe:
                positive_runs, answered_runs = self._probe_filters_range(
                    context, candidates, low, high
                )
            else:
                positive_runs = candidates
            sources: list[tuple[int, Iterator]] = [
                (priority, memtable.entries_from(low_bytes))
                for priority, memtable in enumerate(
                    m for m in sv.memtables() if not m.is_empty
                )
            ]
            yield bool(positive_runs or sources)

            def tracked(run: Run) -> Iterator[tuple[bytes, int, bytes]]:
                """The run's entries from ``low``; marks a run that had an
                in-range key."""
                for entry in run.reader.iterate_from(low_bytes, context):
                    if entry[0] <= high_bytes:
                        contributed[run.name] = True
                    yield entry

            for run in positive_runs:
                contributed[run.name] = False
                sources.append((len(sources), tracked(run)))
            context.iterators_created = len(sources)
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
            # The merge's first advance reads every positive run's first
            # candidate, which tells a true positive from a false one; a
            # scan never advanced (no iterator wired) read nothing and
            # leaves its positives unjudged.
            if context.iterators_created:
                for run in answered_runs:
                    if contributed[run.name]:
                        context.filter_true_positives += 1
                    else:
                        context.filter_false_positives += 1
                        self._note_filter_outcome(run, 0, 1)
            if probe:
                self._publish(context)
            else:
                self.stats.fold(context)
            self._unref_super(sv)

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
    ) -> tuple[list[Run], list[Run]]:
        """One emptiness verdict per overlapping run; count the verdicts.

        Each filtered run's filter answers ``may_contain_range`` through
        :func:`~repro.lsm.filter_integration.batched_tightened_ranges`;
        runs without a filter block pass through positive, uncounted
        (fence pointers already said "overlaps").  Returns the runs to
        read and, of those, the runs whose filter said so.
        """
        if not runs:
            return [], []
        filters = [
            self._filter_dictionary.get_filter(run.reader, self.stats, context)
            for run in runs
        ]
        started = time.perf_counter_ns()
        verdicts, filter_calls = batched_tightened_ranges(filters, low, high)
        context.filter_probe_ns += time.perf_counter_ns() - started
        context.filter_calls += filter_calls
        context.filters_probed += filter_calls
        positive_runs: list[Run] = []
        answered_runs: list[Run] = []
        for run, filt, verdict in zip(runs, filters, verdicts):
            if verdict:
                positive_runs.append(run)
                if filt is not None:
                    answered_runs.append(run)
            else:
                context.filter_negatives += 1
                self._note_filter_outcome(run, 1, 0)
        return positive_runs, answered_runs

    def _note_filter_outcome(
        self, run: Run, negatives: int, false_positives: int
    ) -> None:
        """Feed a run's rejectable verdicts to the attack detector.

        Callers count verdicts into their query's context themselves; the
        detector alone needs the run's name, and is only asked when
        ``quarantine_filters`` is on.  A run newly flagged here bumps
        ``filters_quarantined`` and, with the background worker available,
        kicks maintenance so the prioritized rebuild starts immediately.
        """
        detector = self._filter_dictionary
        if detector.quarantine and detector.record_outcome(
            run.name, negatives=negatives, false_positives=false_positives
        ):
            self.stats.add(filters_quarantined=1)
            if self._concurrent and self._background_error is None:
                self._schedule_maintenance()

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
            current = self._current_filter_factory
            bits_per_key = (
                current.bits_per_key
                if current is not None and current.bits_per_key is not None
                else 22.0
            )
        kwargs = decision.build_kwargs()
        key_bits = self.options.key_bits

        def build(
            keys,
            salt=0,
            bits_per_key=None,
            _kwargs=kwargs,
            _default_bpk=bits_per_key,
            _kb=key_bits,
        ) -> KeyFilter:
            filt = RosettaFilter(
                key_bits=_kb,
                bits_per_key=(
                    bits_per_key if bits_per_key is not None else _default_bpk
                ),
                salt=salt,
                **_kwargs,
            )
            filt.populate(keys)
            return filt

        self._current_filter_factory = FilterFactory(
            name=f"rosetta-tuned[{decision.strategy}]",
            builder=build,
            bits_per_key=bits_per_key,
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
        sv = self._ref_super()
        try:
            return verify_version(sv.version)
        finally:
            self._unref_super(sv)

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
    def _write_manifest(self, version: Version) -> None:
        manifest = {
            "level0": [run.name for run in version.level0],
            "levels": {
                str(level): [run.name for run in runs]
                for level, runs in version.levels.items()
            },
            # Workload statistics survive restarts so the §2.4 tuner can
            # keep learning across sessions.
            "tracker": self.tracker.to_dict(),
        }
        # Atomic replacement: a crash mid-write leaves the previous
        # manifest intact, never a torn half-JSON.
        self._env.write_file_atomic(
            MANIFEST,
            json.dumps(manifest).encode(),
            fsync=self.options.manifest_fsync,
        )

    def _recover(self) -> None:
        version = Version()
        referenced: set[str] = set()
        max_file_number = 0
        for file_name in self._env.list_files():
            match = _SST_NAME.match(file_name)
            if match:
                max_file_number = max(max_file_number, int(match.group(2)))
        if self._env.exists(MANIFEST):
            manifest = json.loads(self._env.read_file(MANIFEST))
            if "tracker" in manifest:
                self.tracker = WorkloadTracker.from_dict(manifest["tracker"])
            for name in manifest.get("level0", []):
                referenced.add(name)
                meta = read_sst_meta(self._env, name)
                reader = SSTReader(self._env, meta, self._cache, is_level0=True)
                version.level0.append(Run(reader=reader, level=0))
            for level_str, entries in manifest.get("levels", {}).items():
                level = int(level_str)
                runs = []
                for entry in entries:
                    name = manifest_entry_name(entry)
                    referenced.add(name)
                    meta = read_sst_meta(self._env, name)
                    reader = SSTReader(self._env, meta, self._cache, is_level0=False)
                    runs.append(Run(reader=reader, level=level))
                if runs:
                    # Refuses a level whose files overlap: loading one
                    # would break the first compaction that touches it.
                    version.install_level(level, runs)
        # Recovery hygiene.  (1) Never reuse a live file name: a fresh
        # counter colliding with a recovered SST would let a later
        # compaction overwrite or delete live data.  (2) Purge obsolete
        # files — SSTs a crash orphaned before/after their manifest entry,
        # and torn ``.tmp`` halves of interrupted atomic replacements.
        self._compactor.advance_file_number(max_file_number)
        for file_name in self._env.list_files():
            if file_name.endswith(".tmp") or (
                _SST_NAME.match(file_name) and file_name not in referenced
            ):
                self._env.delete_file(file_name)

        # WAL replay.  With rotation there may be several logs: every log
        # but the newest belonged to a sealed-but-unflushed memtable, so
        # each is rebuilt as an immutable bundle (flushed by the first
        # maintenance pass); the newest becomes the active memtable.
        active = MemTable()
        immutables: list[_Immutable] = []
        wal_seq = 0
        if self.options.use_wal:
            wal_seqs = sorted(
                seq
                for seq in (
                    parse_wal_seq(name) for name in self._env.list_files()
                )
                if seq is not None
            )
            if wal_seqs:
                for seq in wal_seqs[:-1]:
                    memtable = MemTable()
                    self._replay_wal_into(wal_file_name(seq), memtable)
                    if memtable.is_empty:
                        self._env.delete_file(wal_file_name(seq))
                    else:
                        immutables.append(
                            _Immutable(memtable, wal_file_name(seq))
                        )
                wal_seq = wal_seqs[-1]
                self._replay_wal_into(wal_file_name(wal_seq), active)
            self._active_wal = WriteAheadLog(self._env, wal_file_name(wal_seq))
        self._wal_seq = wal_seq

        sv = _SuperVersion(active, tuple(reversed(immutables)), version)
        sv.refs = 1
        self._super = sv
        self._live_svs = [sv]

    def _replay_wal_into(self, name: str, memtable: MemTable) -> None:
        wal = WriteAheadLog(self._env, name)
        for op, key, value in wal.replay():
            if op == BATCH_OP:
                for tag, bkey, bvalue in WriteBatch.decode(value):
                    if tag == ValueTag.PUT:
                        memtable.put(bkey, bvalue)
                    else:
                        memtable.delete(bkey)
            elif op == ValueTag.PUT:
                memtable.put(key, value)
            else:
                memtable.delete(key)

    def close(self) -> None:
        """Flush if possible, persist the manifest, release file handles.

        Joins the background worker before returning.  Safe in degraded
        read-only mode: the failing flush is skipped (the WAL still holds
        the buffered writes), the manifest is persisted best-effort, and
        nothing raises — so ``with DB(...)`` never throws from ``__exit__``
        because a background write failed earlier.  Only a simulated power
        cut propagates.
        """
        if self._closed:
            return
        try:
            if self._background_error is None:
                with self._write_lock:
                    sealed = self._seal_active()
                if sealed or self._super.immutables:
                    self._schedule_maintenance()
                    self._drain_maintenance()
            try:
                with self._mutex:
                    self._write_manifest(self._super.version)
            except PowerCutError:
                raise
            except (OSError, ReproError):
                pass  # best-effort; the last durable manifest still stands
        finally:
            self._closed = True
            self._env.yield_hook = None
            self._scheduler.close()
            self._env.close()

    def kill(self) -> None:
        """Abandon the store without any further I/O (simulated power loss).

        The torture harness's teardown after an injected power cut: no
        flush, no manifest write — background jobs are unwound, worker
        threads joined, and file handles dropped.  Whatever the crash left
        on disk is exactly what recovery will see.
        """
        if self._closed:
            return
        self._closed = True
        self._env.yield_hook = None
        self._scheduler.close(force=True)
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
