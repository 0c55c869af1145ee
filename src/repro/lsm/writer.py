"""The store's write side: everything that runs under the write lock.

Paper §4 splits a filter's life in two: the read side probes a run's filter
before touching the run; the write side builds "a new filter instance ...
for the merged content of the new SST, while the filter instances for the
old SSTs are destroyed".  :class:`Writer` is that write side, and
:class:`~repro.lsm.db.DB` the façade in front of it: each DB write entry
point is one call into this class.

A write goes to the WAL, then the active memtable.  One that fills the
memtable seals it (the WAL rotates with it) and works off the maintenance
it causes before returning: flush the oldest sealed memtable to an L0 SST
with a freshly built filter, or run the planner's highest-debt compaction,
until nothing is left.  ``ingest`` writes SSTs straight into one level.
Every result goes through one version install (``_install_version``):
clone the version, edit it, persist the manifest, publish.  A run the
attack detector flagged keeps its file: the maintenance tail rebuilds only
its filter, with a fresh salt (``_rebuild_flagged_filters``).

Concurrency model
-----------------
Maintenance runs inline, one job at a time, each through
:meth:`~repro.lsm.scheduler.InlineScheduler.submit` on the calling thread.
Every write, seal, flush, compaction, ingest, resume and the final drain of
``close`` holds ``_write_lock``, so **every maintenance body runs under
``_write_lock``**: whoever holds it plans against the current version and
nothing else can edit that version before the install, so a job's inputs
are always live.  Installs happen under ``_mutex``.  Readers take neither
lock: a reader's reference keeps every run it reaches alive, and a replaced
run's finalizer queues its name when the last reference goes.
:meth:`Writer._reap` deletes the queued files at the tail of each
maintenance loop, at the end of ``flush``, ``compact`` and
``force_full_compaction``, and in ``close``; a crash before that leaves an
SST no manifest lists, which recovery purges.

Lock order (outer to inner): ``_write_lock`` → ``_mutex``.  ``_mutex``
serializes installs, the manifest, WAL rotation and the background error.
Both locks are reentrant: a thread holding ``_write_lock`` may call the
write API, and a failed run deletion parks the store under ``_mutex``.

The writer sees the superversion chain only through the ``current`` and
``install`` operations the DB hands it, and owns the state it mutates: the
active WAL and its sequence number, the background error, the compactor
and the filter factory new SSTs are built with.
"""

from __future__ import annotations

import json
import threading
import weakref
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, NamedTuple

from repro.core.hashing import derive_filter_salt
from repro.core.tuning import AutoTuner, WorkloadTracker
from repro.errors import (
    ClosedStoreError,
    FilterQueryError,
    PowerCutError,
    ReadOnlyStoreError,
    ReproError,
    StoreError,
)
from repro.filters.base import KeyFilter
from repro.lsm.block_cache import BlockCache
from repro.lsm.compaction import CompactionJob, Compactor
from repro.lsm.env import StorageEnv
from repro.lsm.filter_integration import FilterDictionary
from repro.lsm.format import ValueTag, sst_file_number
from repro.lsm.memtable import MemTable
from repro.lsm.options import DBOptions
from repro.lsm.scheduler import InlineScheduler
from repro.lsm.sstable import SSTReader
from repro.lsm.stats import PerfStats, Stopwatch
from repro.lsm.version import MANIFEST, NUM_LEVELS, Run, Version, level_target_bytes
from repro.lsm.wal import BATCH_OP, WriteAheadLog, parse_wal_seq, wal_file_name
from repro.lsm.write_batch import WriteBatch

__all__ = ["Writer"]


class _Immutable(NamedTuple):
    """One sealed memtable and the WAL file that backs it."""

    memtable: MemTable
    wal_name: str | None


class Writer:
    """WAL, seals, maintenance, ingest and the background-error state machine.

    ``current()`` returns the published superversion (``active`` memtable,
    newest-first ``immutables``, ``version``); ``install(active, immutables,
    version)`` publishes the next one, the caller holding ``_mutex``.
    ``is_open()`` says whether the store is open, ``encode_key`` turns an
    integer key into its stored bytes, and ``last_file_number`` is the
    highest SST number on disk.
    """

    def __init__(
        self,
        env: StorageEnv,
        options: DBOptions,
        stats: PerfStats,
        tracker: WorkloadTracker,
        cache: BlockCache,
        filter_dictionary: FilterDictionary,
        *,
        current: Callable[[], object],
        install: Callable[..., None],
        is_open: Callable[[], bool],
        encode_key: Callable[[int], bytes],
        last_file_number: int,
    ) -> None:
        self._env = env
        self._options = options
        self._stats = stats
        self._tracker = tracker
        self._current = current
        self._install = install
        self._is_open = is_open
        self._encode_key = encode_key
        #: What new SSTs build their filters with (``DB.retune_filters``
        #: swaps it, §2.4).
        self.filter_factory = options.filter_factory
        self._filter_dictionary = filter_dictionary
        #: Grants a quarantined run's rebuilt filter its bonus bits.
        self._tuner = AutoTuner()
        self._compactor = Compactor(
            env, options, cache, filter_dictionary,
            filter_factory_provider=lambda: self.filter_factory,
        )
        # Never reuse a live file name: a compaction would overwrite it.
        self._compactor.advance_file_number(last_file_number)
        self._scheduler = InlineScheduler()
        self._write_lock = threading.RLock()
        self._mutex = threading.RLock()
        self._wal_seq = 0
        self._active_wal: WriteAheadLog | None = None
        #: Why the store is parked read-only, or None when healthy.
        self._background_error: str | None = None
        #: Names of replaced runs nothing references any more, for
        #: :meth:`_reap` (a finalizer's append cannot raise).
        self._released: deque[str] = deque()

    def recover_logs(self) -> tuple[MemTable, tuple[_Immutable, ...]]:
        """Replay the WALs (single-threaded, before the store is shared):
        the active memtable, and the sealed ones newest-first.

        Every log but the newest belonged to a sealed-but-unflushed
        memtable (the first maintenance pass flushes it); the newest is the
        active memtable's, and new writes append to it.
        """
        active = MemTable()
        immutables: list[_Immutable] = []
        if not self._options.use_wal:
            return active, ()
        seqs = sorted(
            seq for seq in map(parse_wal_seq, self._env.list_files()) if seq is not None
        )
        for seq in seqs[:-1]:
            memtable = self._replay(wal_file_name(seq))
            if memtable.is_empty:
                self._env.delete_file(wal_file_name(seq))
            else:
                immutables.append(_Immutable(memtable, wal_file_name(seq)))
        if seqs:
            self._wal_seq = seqs[-1]
            active = self._replay(wal_file_name(self._wal_seq))
        self._active_wal = WriteAheadLog(self._env, wal_file_name(self._wal_seq))
        return active, tuple(reversed(immutables))

    def _replay(self, name: str) -> MemTable:
        memtable = MemTable()
        for op, key, value in WriteAheadLog(self._env, name).replay():
            records = WriteBatch.decode(value) if op == BATCH_OP else ((op, key, value),)
            for tag, bkey, bvalue in records:
                if tag == ValueTag.PUT:
                    memtable.put(bkey, bvalue)
                else:
                    memtable.delete(bkey)
        return memtable

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write_key(self, tag: int, key: int, value: bytes = b"") -> None:
        """``DB.put`` (``tag`` is ``ValueTag.PUT``) or ``DB.delete``."""
        with self._write_lock:
            self._check_open()
            self._check_writable()
            encoded = self._encode_key(key)
            active = self._current().active
            wal = self._active_wal
            if tag == ValueTag.PUT:
                value = bytes(value)
                if wal is not None:
                    self._guard_wal_append(wal.append_put, encoded, value)
                active.put(encoded, value)
            else:
                if wal is not None:
                    self._guard_wal_append(wal.append_delete, encoded)
                active.delete(encoded)
            self._stats.add(writes=1)
            self._maybe_seal(active)

    def write_batch(self, batch: WriteBatch) -> None:
        """``DB.write``: one WAL frame for the whole batch, then the
        memtable."""
        self._check_open()
        self._check_writable()
        if len(batch) == 0:
            return
        # Validate every key before any side effect (atomicity).
        key_bits = self._options.key_bits
        for _tag, key, _value in batch:
            decoded = int.from_bytes(key, "big")
            if decoded >> key_bits:
                raise FilterQueryError(
                    f"batched key {decoded} outside domain [0, 2^{key_bits})"
                )
        with self._write_lock:
            self._check_open()
            self._check_writable()
            if self._active_wal is not None:
                self._guard_wal_append(self._active_wal.append_batch, batch.encode())
            active = self._current().active
            for tag, key, value in batch:
                if tag == ValueTag.PUT:
                    active.put(key, value)
                else:
                    active.delete(key)
            self._stats.add(writes=len(batch))
            self._maybe_seal(active)

    def _guard_wal_append(self, append: Callable[..., None], *args) -> None:
        """``append(*args)``; an I/O failure parks the store and raises
        :class:`ReadOnlyStoreError`.

        Durability is gone for this write, so the memtable is left
        untouched: nothing is acked that the log cannot replay.
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

    # ------------------------------------------------------------------
    # Sealing and the maintenance loop
    # ------------------------------------------------------------------
    def _maybe_seal(self, active: MemTable) -> None:
        if active.approximate_bytes >= self._options.memtable_size_bytes:
            if self._seal_active():
                self._dispatch_maintenance()

    def _seal_active(self) -> bool:
        """Move the active memtable to the sealed queue, with its WAL file
        (deleted once its flush lands); later writes get a fresh log.  No
        I/O, so a seal cannot fail."""
        if self._current().active.is_empty:
            return False
        with self._mutex:
            sv = self._current()
            wal = self._active_wal
            bundle = _Immutable(sv.active, wal.name if wal is not None else None)
            if wal is not None:
                self._wal_seq += 1
                self._active_wal = WriteAheadLog(self._env, wal_file_name(self._wal_seq))
            self._install(MemTable(), (bundle,) + sv.immutables, sv.version)
        self._stats.add(memtable_seals=1)
        return True

    @contextmanager
    def _drained(self):
        """The prologue of ``flush``, ``compact`` and
        ``force_full_compaction``: take the write lock, seal, and flush
        every sealed memtable."""
        self._check_open()
        self._check_writable()
        with self._write_lock:
            self._check_open()
            self._drain()
            yield
            self._rebuild_flagged_filters()
            self._reap()

    def _drain(self) -> None:
        if self._seal_active() or self._current().immutables:
            self._dispatch_maintenance()

    def _dispatch_maintenance(self) -> None:
        """Work off the maintenance debt — the one loop.

        Flush the oldest sealed memtable, else run ``plan()``'s highest-debt
        compaction, until ``plan()`` has nothing left or the store parks,
        then rebuild the flagged runs' filters and destroy the runs released
        meanwhile.  Each job runs inline through the scheduler, at constant
        stack depth.
        """
        while self._background_error is None and self._is_open():
            if self._current().immutables:
                self._run_job("flush", self._flush_oldest_immutable)
                continue
            try:
                job = self._compactor.plan(self._current().version)
            except Exception as exc:
                # A planner bug, not a device fault: park, as _run_job does.
                self._enter_background_error("compaction-plan", exc)
                raise
            if job is None:
                break
            self._run_job("compaction", lambda job=job: self._run_compaction_job(job))
        self._rebuild_flagged_filters()
        self._reap()

    def _run_forced(self, plan: Callable[[Version], CompactionJob | None]) -> None:
        """Plan and run a job the triggers never emit (``compact``'s L0
        merge, the full compaction), unless the store is parked."""
        if self._background_error is None:
            job = plan(self._current().version)
            if job is not None:
                self._run_job("compaction", lambda: self._run_compaction_job(job))

    def _rebuild_flagged_filters(self) -> None:
        """Rebuild, in place, the filter of every run the attack detector
        flagged that is still in the current version (the quarantine
        defence), one ``rebuild`` job each, until one fails."""
        flagged = self._filter_dictionary.under_attack_snapshot()
        if not flagged or self._background_error is not None or not self._is_open():
            return
        for run in self._current().version.all_runs_newest_first():
            if run.name in flagged and not self._run_job(
                "rebuild", lambda run=run: self._rebuild_filter(run)
            ):
                return

    def _rebuild_filter(self, run: Run) -> None:
        """Re-salt one run's filter: the next generation's salt, the current
        recipe plus the tuner's attack bonus bits.  The run keeps its file;
        the new filter lives in memory only."""
        factory = self.filter_factory
        filt = None  # no recipe: the run is served filter-less
        if factory is not None:
            bits = factory.bits_per_key
            if bits is not None:
                bits = self._tuner.rebuild_bits_per_key(bits, True)
            generation = self._filter_dictionary.generation(run.name) + 1
            filt = self._build_filter(run.reader, generation, bits)
        self._filter_dictionary.install_rebuilt(run.reader, filt)

    def _build_filter(
        self, reader: SSTReader, generation: int, bits_per_key: float | None
    ) -> KeyFilter:
        """A filter over every key of the run (tombstones too, as its file's
        filter was built), read in one pass over its data blocks, salted
        for ``generation``; charged as :meth:`SSTWriter.finish` charges
        its build."""
        keys = [int.from_bytes(key, "big") for key, _, _ in reader.iterate_from(b"")]
        salt = derive_filter_salt(
            self._options.filter_salt_seed, sst_file_number(reader.meta.name),
            generation,
        )
        with Stopwatch(self._stats, "filter_construction_ns"):
            filt = self.filter_factory.build(keys, salt=salt, bits_per_key=bits_per_key)
        self._stats.add(filters_built=1)
        return filt

    def _flush_oldest_immutable(self) -> None:
        """Flush the oldest sealed memtable to a new L0 SST.

        The SST is synced and the manifest persisted *before* the WAL file
        is deleted: a crash between any two steps recovers from the WAL or
        from the manifest, never from neither.
        """
        immutables = self._current().immutables
        if not immutables:
            return
        bundle = immutables[-1]  # oldest
        # One uncut L0 file; none for an empty memtable.
        runs = list(self._compactor.write_runs(
            bundle.memtable.entries(), 0, self.filter_factory, cut=False
        ))
        self._install_version(
            (lambda version: version.add_level0(runs[0])) if runs else None,
            flushed=True,
        )
        if bundle.wal_name is not None:
            self._env.delete_file(bundle.wal_name)
        if runs:
            self._stats.add(flushes=1)

    def _run_compaction_job(self, job: CompactionJob) -> None:
        outputs = self._compactor.execute(job)
        self._install_version(
            lambda version: self._compactor.apply(version, job, outputs),
            obsolete=job.inputs,
        )

    def _install_version(
        self,
        edit: Callable[[Version], None] | None,
        obsolete: Iterable[Run] = (),
        flushed: bool = False,
    ) -> None:
        """The one version install of flush, compaction and ingest.

        Under ``_mutex``: clone the current version, ``edit`` the clone,
        persist it as the manifest, then publish it — without the oldest
        sealed memtable if ``flushed``.  Each ``obsolete`` run is queued for
        :meth:`_reap` once its last reference goes.  With no ``edit``, the
        version and manifest stay.
        """
        with self._mutex:
            current = self._current()
            version = current.version
            if edit is not None:
                version = version.clone()
                edit(version)
                self._write_manifest(version)
                self._compactor.unreferenced.clear()
            immutables = current.immutables[:-1] if flushed else current.immutables
            self._install(current.active, immutables, version)
        for run in obsolete:
            weakref.finalize(run, self._released.append, run.name).atexit = False

    def _write_manifest(self, version: Version) -> None:
        manifest = {
            "level0": [run.name for run in version.level0],
            "levels": {
                str(level): [run.name for run in runs]
                for level, runs in version.levels.items()
            },
            # The §2.4 tuner keeps learning across sessions.
            "tracker": self._tracker.to_dict(),
        }
        # Atomic replacement: a crash leaves the previous manifest whole.
        self._env.write_file_atomic(
            MANIFEST, json.dumps(manifest).encode(), fsync=self._options.manifest_fsync
        )

    def _reap(self) -> None:
        """Destroy the released runs — files, cached blocks and filters —
        under ``_write_lock``.  A failed deletion parks the store (recovery
        purges what it left)."""
        released = self._released
        names = [released.popleft() for _ in range(len(released))]
        try:
            self._compactor.destroy_runs(names)
        except (PowerCutError, ClosedStoreError):
            raise
        except (OSError, ReproError) as exc:
            self._enter_background_error("compaction", exc)

    # ------------------------------------------------------------------
    # Maintenance entry points
    # ------------------------------------------------------------------
    def wait_idle(self) -> bool:
        """Maintenance runs inline: none is ever pending here."""
        self._check_open()
        return True

    def flush(self) -> None:
        with self._drained():
            pass

    def compact(self) -> None:
        with self._drained():
            self._run_forced(self._compactor.forced_l0_job)
            self._dispatch_maintenance()  # the triggers the merge fired

    def force_full_compaction(self) -> None:
        with self._drained():
            self._run_forced(self._compactor.full_compaction_job)

    def ingest(self, items: Iterable[tuple[int, bytes]], level: int | None) -> None:
        """Sorted unique items straight into one empty level (by default
        the shallowest whose size target fits them).  A failed write parks
        the store, as a failed flush does."""
        self._check_open()
        self._check_writable()
        pairs = sorted(items, key=lambda kv: kv[0])
        if not pairs:
            return
        with self._write_lock:
            if level is None:
                options = self._options
                size = sum(options.key_width_bytes + len(v) + 8 for _, v in pairs)
                base = options.max_bytes_for_level_base
                level = 1
                while level < NUM_LEVELS - 1 and size > level_target_bytes(base, level):
                    level += 1
            if not 1 <= level < NUM_LEVELS:
                raise StoreError(f"ingest level {level} out of range")
            # Holding the lock, no compaction can fill the level before the
            # install.
            if self._current().version.level_runs(level):
                raise StoreError(f"ingest target level {level} is not empty")

            def body() -> None:
                runs = self._write_ingest_runs(pairs, level)
                self._install_version(
                    lambda version: version.install_level(level, runs)
                )

            if not self._run_job("ingest", body):
                raise ReadOnlyStoreError(
                    f"ingest failed; store parked read-only "
                    f"({self._background_error})"
                )

    def _write_ingest_runs(self, pairs: list[tuple[int, bytes]], level: int) -> list[Run]:
        """Cut sorted ``pairs`` (the first of equal keys wins) into SSTs
        for ``level``."""

        def entries() -> Iterator[tuple[bytes, int, bytes]]:
            previous: int | None = None
            for key, value in pairs:
                if key != previous:
                    previous = key
                    yield self._encode_key(key), ValueTag.PUT, bytes(value)

        return list(self._compactor.write_runs(entries(), level, self.filter_factory))

    # ------------------------------------------------------------------
    # Background-error state machine
    # ------------------------------------------------------------------
    def _run_job(self, op: str, body: Callable[[], None]) -> bool:
        """Run one job through the scheduler; True when it completed.

        A failure parks the store read-only instead of crashing it: an I/O
        or store error is absorbed (False), anything else — a bug — is
        re-raised after parking.  Either way the SSTs the job wrote before
        its manifest are reaped: the old manifest stands, and nothing names
        them.  Power cuts and closed-store misuse pass through untouched.
        """
        try:
            self._scheduler.submit(op, body)
            return True
        except (PowerCutError, ClosedStoreError):
            raise
        except Exception as exc:
            self._enter_background_error(op, exc)
            self._released.extend(run.name for run in self._compactor.unreferenced)
            self._compactor.unreferenced.clear()
            self._reap()
            if isinstance(exc, (OSError, ReproError)):
                return False
            raise

    def _enter_background_error(self, op: str, exc: BaseException) -> None:
        with self._mutex:
            self._background_error = f"{op}: {type(exc).__name__}: {exc}"
        self._stats.add(background_errors=1)

    def _check_writable(self) -> None:
        if self._background_error is not None:
            raise ReadOnlyStoreError(
                f"store is in degraded read-only mode after a background "
                f"error ({self._background_error}); call resume() to retry"
            )

    def _check_open(self) -> None:
        if not self._is_open():
            raise ClosedStoreError("operation on a closed DB")

    @property
    def background_error(self) -> str | None:
        with self._mutex:
            return self._background_error

    def pinned_state(self) -> tuple[object, str | None]:
        """The current superversion and the background error in one hold of
        ``_mutex``, which every install and every parking holds."""
        with self._mutex:
            return self._current(), self._background_error

    def resume(self) -> bool:
        """Clear the background error and retry what the failed job left;
        True when the store is writable again."""
        self._check_open()
        if self._background_error is None:
            return True
        with self._write_lock:
            with self._mutex:
                self._background_error = None
            self._dispatch_maintenance()
        return self._background_error is None

    def close(self) -> None:
        """Drain if healthy, destroy the released runs, then persist the
        manifest best-effort (the last durable one still stands)."""
        with self._write_lock:
            if self._background_error is None:
                self._drain()
            self._reap()
        try:
            with self._mutex:
                self._write_manifest(self._current().version)
        except PowerCutError:
            raise
        except (OSError, ReproError):
            pass
