"""The LSM-tree key-value store (the paper's RocksDB stand-in).

Write path: WAL append → dict memtable → flush to an L0 SST (with a
freshly built per-SST filter) → leveled compaction.  Read path: memtable,
then every overlapping run newest-to-oldest, each guarded by its filter —
"for every run of the tree, a point or range query first probes the
corresponding [filter] for this run, and only tries to access the run on
disk if [it] returns a positive" (§2).

Range queries follow §4's implementation overview: probe all relevant
filter instances; if all answer negative, delete the iterator and return
empty; otherwise seek the merging iterator at the query's own lower bound
(never a §2.2.1 tightened one: ``DB._range_scan`` says why) and advance
until the upper bound.  Every sub-cost the paper measures (filter probe,
deserialization, residual seek, block read time) is charged to
:class:`~repro.lsm.stats.PerfStats`.

Workload statistics flow into a :class:`~repro.core.tuning.WorkloadTracker`;
:meth:`DB.retune_filters` applies the §2.4 auto-tuner so post-compaction
filter instances adopt the workload-optimal configuration.

Concurrency model
-----------------
Maintenance runs inline, one job at a time, under ``_write_lock``.  One
loop turns debt into jobs: ``_dispatch_maintenance`` flushes the oldest
sealed memtable, or else runs ``plan()``'s highest-debt compaction, until
``plan()`` has nothing left; each job runs through
:meth:`~repro.lsm.scheduler.InlineScheduler.submit` on the calling thread.
A write that fills the active memtable seals it (the WAL rotates with it)
and dispatches before it returns, so the store never carries a backlog
past the write that made it.  ``flush()``, ``compact()``,
``force_full_compaction()``, ``ingest()``, ``resume()`` and ``close()``
dispatch or install under the same lock, so **every maintenance body runs
under ``_write_lock``**: whoever holds it plans against the current
version and nothing else can edit that version before the install, so a
job's inputs are always live.  Every result funnels through the version
install under ``_mutex``, and replaced runs retire through the refcounted
zombie queue exactly once.

Readers never take the write path's locks.  Every read operation pins a
*superversion* — an immutable ``(active memtable, sealed memtables, run
metadata)`` triple swapped atomically under ``_sv_lock`` — so a query sees
one consistent cut of the store even while another thread's write
installs mid-query.  SST files replaced by a compaction are destroyed only
once no pinned superversion can still reach them (epoch-based deferred
deletion).

Lock order (outer to inner): ``_write_lock`` → ``_mutex`` → ``_sv_lock``.
``_write_lock`` serializes writers, seals and maintenance; ``_mutex``
serializes version installs and the manifest; ``_sv_lock`` (a plain mutex,
never held across I/O) guards the superversion pointer, refcounts, and the
deferred deletion list.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.tuning import AutoTuner, TuningDecision, WorkloadTracker
from repro.errors import (
    ClosedStoreError,
    FilterQueryError,
    PowerCutError,
    ReadOnlyStoreError,
    ReproError,
    StoreError,
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
from repro.lsm.scheduler import InlineScheduler
from repro.lsm.shard import clamp_to_domain
from repro.lsm.sstable import SSTReader, read_sst_meta
from repro.lsm.stats import PerfStats
from repro.lsm.version import (
    MANIFEST, NUM_LEVELS, Run, Version, level_target_bytes, manifest_entry_name,
)
from repro.lsm.wal import BATCH_OP, WriteAheadLog, parse_wal_seq, wal_file_name
from repro.lsm.write_batch import WriteBatch


_SST_NAME = re.compile(r"^sst_(\d+)_(\d+)\.sst$")

__all__ = ["DB", "HealthReport"]


def _no_entries() -> Iterator[tuple[int, bytes]]:
    """What a scan with nothing to stream returns: a generator like every
    other scan (``close()`` works), which yields nothing."""
    yield from ()


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

    __slots__ = ("active", "immutables", "memtables", "version", "refs", "epoch")

    def __init__(
        self,
        active: MemTable,
        immutables: tuple[_Immutable, ...],
        version: Version,
    ) -> None:
        self.active = active
        self.immutables = immutables
        #: Active then sealed memtables, newest to oldest.
        self.memtables = (active, *(i.memtable for i in immutables))
        version.freeze()
        self.version = version
        self.refs = 0
        self.epoch = 0


@dataclass(frozen=True)
class HealthReport:
    """Snapshot of the store's fault state (``DB.health()``).

    ``mode`` is ``"healthy"`` or ``"degraded"``; degraded means a
    background flush/compaction failed, writes raise
    :class:`~repro.errors.ReadOnlyStoreError`, and :meth:`DB.resume` is the
    way back.  The counters mirror the fault-handling fields of
    :class:`~repro.lsm.stats.PerfStats` so an operator sees every injected
    or real fault the store absorbed.

    ``pending_immutables`` / ``level0_runs`` are the sealed-memtable
    backlog and the L0 run count of the reported superversion.
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

        self._scheduler = InlineScheduler()

        # Lock order: _write_lock -> _mutex -> _sv_lock.  _sv_lock is never
        # held across I/O.  _mutex must be reentrant: a failed zombie
        # deletion inside an install parks the store under it.  _write_lock
        # is too, so a thread holding it may still call the write API.
        self._write_lock = threading.RLock()
        self._mutex = threading.RLock()
        self._sv_lock = threading.Lock()

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
            ready = self._zombies and self._collect_zombies_locked()
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
            self._check_writable()
            if self._active_wal is not None:
                self._guard_wal_append(
                    self._active_wal.append_put, encoded, value
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
            self._check_writable()
            if self._active_wal is not None:
                self._guard_wal_append(self._active_wal.append_delete, encoded)
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
            self._check_writable()
            if self._active_wal is not None:
                self._guard_wal_append(
                    self._active_wal.append_batch, batch.encode()
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
    # Sealing and maintenance
    # ------------------------------------------------------------------
    def _maybe_seal(self) -> None:
        if (
            self._super.active.approximate_bytes
            >= self.options.memtable_size_bytes
        ):
            if self._seal_active():
                self._dispatch_maintenance()

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

    def _dispatch_maintenance(self) -> None:
        """Work off the maintenance debt — the one loop (caller holds
        ``_write_lock``).

        Flush the oldest sealed memtable, else run ``plan()``'s
        highest-debt compaction, until ``plan()`` has nothing left or the
        store degrades.  Each job runs inline through the scheduler, so the
        loop walks flush, plan, compact at constant stack depth.
        """
        while self._background_error is None and not self._closed:
            if self._super.immutables:
                self._scheduler.submit("flush", self._flush_job)
                continue
            try:
                job = self._compactor.plan(self._super.version)
            except Exception as exc:
                # A planner bug, not a device fault: park the store the
                # way _run_background does.
                self._enter_background_error("compaction-plan", exc)
                raise
            if job is None:
                return
            self._scheduler.submit(
                "compaction", lambda job=job: self._compaction_job(job)
            )

    def _flush_job(self) -> bool:
        """Job body: flush the oldest sealed memtable."""
        return self._run_background("flush", self._flush_oldest_immutable)

    def _compaction_job(self, job: CompactionJob) -> bool:
        """Job body: run one compaction and install its result."""
        return self._run_background(
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
        # One uncut L0 file; none for an empty memtable.
        runs = self._compactor.write_runs(
            bundle.memtable.entries(), 0, self._current_filter_factory, cut=False
        )
        with self._mutex:
            current = self._super
            new_version = current.version
            if runs:
                new_version = current.version.clone()
                new_version.add_level0(runs[0])
                self._write_manifest(new_version)
            new_sv = _SuperVersion(
                current.active, current.immutables[:-1], new_version
            )
            self._install_super(new_sv)
        # Only now is the run durable under the manifest; dropping the
        # logged copy can no longer lose acknowledged writes.
        if bundle.wal_name is not None:
            self._env.delete_file(bundle.wal_name)
        if runs:
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

    def wait_idle(self) -> bool:
        """Return True: maintenance runs inline, so none is pending or
        running once the call that caused it returns.

        Kept for callers that settle a store before measuring it (the
        ledger, :meth:`ShardedServer.wait_idle`).
        """
        self._check_open()
        return True

    def flush(self) -> None:
        """Flush buffered writes to L0 SSTs and settle compaction triggers.

        A synchronous barrier: the active memtable seals and the call
        returns only once every sealed memtable is flushed (or the store
        degraded).  A failing flush does not raise: the store enters
        degraded read-only mode (see :meth:`health` / :meth:`resume`) with
        the sealed memtables and their WAL files intact, so no
        acknowledged write is lost.
        """
        self._check_open()
        self._check_writable()
        with self._write_lock:
            self._check_open()
            if self._seal_active() or self._super.immutables:
                self._dispatch_maintenance()

    def compact(self) -> None:
        """Force L0 into the tree and settle all compaction triggers."""
        self._check_open()
        self._check_writable()
        with self._write_lock:
            self._check_open()
            if self._seal_active() or self._super.immutables:
                self._dispatch_maintenance()
            if self._run_forced(self._compactor.forced_l0_job):
                # Settle even with an empty L0: quarantined runs at deeper
                # levels plan rebuild jobs regardless of size triggers.
                self._dispatch_maintenance()

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
            self._check_open()
            if self._seal_active() or self._super.immutables:
                self._dispatch_maintenance()
            self._run_forced(self._compactor.full_compaction_job)

    def _run_forced(
        self, plan: Callable[[Version], CompactionJob | None]
    ) -> bool:
        """Plan a forced compaction and run it (caller holds
        ``_write_lock``).

        For the jobs ``plan()`` never emits (``compact``'s L0 merge,
        ``force_full_compaction``).  Returns False when the store is
        degraded, before or by the job.
        """
        if self._background_error is not None:
            return False
        job = plan(self._super.version)
        return job is None or self._compaction_job(job)

    # ------------------------------------------------------------------
    # Background-error state machine
    # ------------------------------------------------------------------
    def _run_background(self, op: str, body: Callable[[], None]) -> bool:
        """Run a background write; on failure degrade instead of crashing.

        Simulated power cuts and closed-store misuse propagate untouched.
        Anything else parks the DB in read-only mode: an I/O / store error
        is absorbed (returns False), an unexpected exception — a bug, not
        a device fault — is recorded the same way and then re-raised to
        the caller.  Returns True when the body completed.
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

    def _guard_wal_append(self, append: Callable[..., None], *args) -> None:
        """Run a foreground WAL append, ``append(*args)``; on I/O failure
        park, don't leak.

        A failed WAL append means durability is gone for this write, so
        the memtable is left untouched (nothing is acked that the log
        cannot replay) and the store parks in degraded read-only mode —
        the same state machine as a failed background write — surfacing
        the typed :class:`ReadOnlyStoreError` instead of a raw
        ``OSError``.  Simulated power cuts propagate untouched, as
        everywhere.
        """
        try:
            append(*args)
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
        ``background_error`` is ``None``.  Counters come from one
        lock-protected ``PerfStats.snapshot()``.
        """
        with self._mutex:
            sv = self._ref_super()
            background_error = self._background_error
        try:
            stats = self.stats.snapshot()
            attacked = self._filter_dictionary.under_attack_snapshot()
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
                pending_immutables=len(sv.immutables),
                level0_runs=len(sv.version.level0),
            )
        finally:
            self._unref_super(sv)

    def resume(self) -> bool:
        """Leave degraded read-only mode and retry the pending maintenance.

        Mirrors RocksDB's ``DB::Resume``: clears the background error and
        re-attempts whatever the failed background write left behind —
        sealed memtables flush again (their WALs were kept), interrupted
        compactions re-plan.  Returns True when the store is writable again
        (a fresh failure re-enters degraded mode and returns False).
        """
        self._check_open()
        if self._background_error is None:
            return True
        with self._write_lock:
            with self._mutex:
                self._background_error = None
            self._dispatch_maintenance()
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
            # Holding the lock, no compaction can fill the level between
            # this check and the install.
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

        def entries() -> Iterator[tuple[bytes, int, bytes]]:
            previous: int | None = None
            for key, value in pairs:
                if key != previous:
                    previous = key
                    yield self._encode_key(key), ValueTag.PUT, bytes(value)

        return self._compactor.write_runs(
            entries(), level, self._current_filter_factory
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
        sv = self._ref_super()
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
                        self._note_filter_outcome(run, run_negatives, run_false)
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
        superversion pin and its release are :meth:`range_iter`'s.
        """
        return self._start_scan(QueryContext(
            kind="scan",
            low=0 if start is None else start,
            high=(1 << self.options.key_bits) - 1 if end is None else end,
        ))

    def _start_scan(self, context: QueryContext) -> Iterator[tuple[int, bytes]]:
        """The eager half of :meth:`range_iter` and :meth:`iterator`: pin a
        superversion and find the overlapping runs to read (a ``"range"``
        asks their filters, a ``"scan"`` reads them all).  With nothing to
        stream — "if all filters answer negative, we delete the iterator and
        return an empty result" — the scan ends here; otherwise the started
        :meth:`_range_scan` owns the pin from now on.
        """
        self._check_open()
        clamped = clamp_to_domain(
            context.low, context.high, self.options.key_bits
        )
        sv = self._ref_super()
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
                    else [(run, False) for run in runs]
                )
                memtables = [m for m in sv.memtables if not m.is_empty]
                if positives or memtables:
                    scan = self._range_scan(
                        context, sv, low_bytes, high_bytes, positives, memtables
                    )
                    # A started generator always runs its ``finally`` — on
                    # close() or collection too; a merely created one never.
                    next(scan)
                    return scan
        finally:
            if scan is None:
                self._end_scan(context, sv)
        return _no_entries()

    def _range_scan(
        self,
        context: QueryContext,
        sv: _SuperVersion,
        low_bytes: bytes,
        high_bytes: bytes,
        positives: list[tuple[Run, bool]],
        memtables: list[MemTable],
    ) -> Iterator:
        """The one merge loop of :meth:`range_iter` and :meth:`iterator`,
        counting into ``context``; its first yield is the start.

        The first advance reads each positive run's first entry at or above
        ``low`` and chains it back in front of the rest.  A run whose filter
        answered (``positives``' flag) is judged by that entry once read: a
        true positive if it is <= ``high``.  Positive runs all seek at
        ``low``: a filter's leftmost surviving key (§2.2.1) would land on
        the same entry, since a filter has no false negatives.
        """
        try:
            yield
            sources: list[tuple[int, Iterator]] = [
                (priority, memtable.entries_from(low_bytes))
                for priority, memtable in enumerate(memtables)
            ]
            context.iterators_created = len(sources) + len(positives)
            for run, judged in positives:
                entries = run.reader.iterate_from(low_bytes, context)
                first = next(entries, None)
                if first is not None:
                    sources.append((len(sources), chain((first,), entries)))
                if not judged:
                    continue
                if first is not None and first[0] <= high_bytes:
                    context.filter_true_positives += 1
                else:
                    context.filter_false_positives += 1
                    self._note_filter_outcome(run, 0, 1)
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
            self._end_scan(context, sv)

    def _end_scan(self, context: QueryContext, sv: _SuperVersion) -> None:
        """Publish a range's context (fold a scan's into ``stats``) and
        release its pin."""
        if context.kind == "range":
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
    ) -> list[tuple[Run, bool]]:
        """One emptiness verdict per overlapping run; count the verdicts.

        Every filtered run's filter is asked through
        :func:`~repro.lsm.filter_integration.batched_tightened_ranges`;
        runs without a filter block pass through positive, uncounted
        (fence pointers already said "overlaps").  Returns the runs to
        read, each with whether its filter said so.
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
        positives: list[tuple[Run, bool]] = []
        for run, filt, verdict in zip(runs, filters, verdicts):
            if verdict:
                positives.append((run, filt is not None))
            else:
                context.filter_negatives += 1
                self._note_filter_outcome(run, 1, 0)
        return positives

    def _note_filter_outcome(
        self, run: Run, negatives: int, false_positives: int
    ) -> None:
        """Feed a run's rejectable verdicts to the attack detector.

        Callers count verdicts into their query's context themselves; the
        detector alone needs the run's name, and is only asked when
        ``quarantine_filters`` is on.  A run newly flagged here bumps
        ``filters_quarantined``; its prioritized rebuild runs at the next
        maintenance dispatch (a reader never runs maintenance).
        """
        detector = self._filter_dictionary
        if detector.quarantine and detector.record_outcome(
            run.name, negatives=negatives, false_positives=false_positives
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

        Safe in degraded read-only mode: the failing flush is skipped (the WAL still holds
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
                    if self._seal_active() or self._super.immutables:
                        self._dispatch_maintenance()
            try:
                with self._mutex:
                    self._write_manifest(self._super.version)
            except PowerCutError:
                raise
            except (OSError, ReproError):
                pass  # best-effort; the last durable manifest still stands
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
