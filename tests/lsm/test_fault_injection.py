"""Failure-injection tests: corruption must be detected, never silent.

The store's durability story rests on CRC framing (WAL records, data
blocks, index blocks) and magic numbers (SST footer, filter envelopes).
These tests flip bytes at every layer and assert the right error class
surfaces — wrong data must never be returned as if valid.

On top of detection, the store now *handles* a class of faults online —
transient read errors are retried, corrupt filter envelopes degrade the
run to filter-less, failed background writes park the store in read-only
mode — and every injected fault must be visible in ``PerfStats`` /
``DB.health()`` (counter parity: nothing fails silently).
"""

import os

import pytest

from repro.bench.factories import make_factory
from repro.errors import (
    CorruptionError,
    ReadOnlyStoreError,
    TransientIOError,
)
from repro.lsm.db import DB
from repro.lsm.env import RETRY_BACKOFF_NS
from repro.lsm.faults import FaultInjectionEnv
from repro.lsm.options import DBOptions


def _loaded_db(path: str, with_filter: bool = False, **option_overrides) -> DB:
    # No cache by default: force disk reads so corruption is seen.
    option_overrides.setdefault("block_cache_bytes", 0)
    option_overrides.setdefault("sst_size_bytes", 32 << 10)
    options = DBOptions(
        key_bits=32,
        memtable_size_bytes=8 << 10,
        block_size_bytes=1024,
        filter_factory=(
            make_factory("rosetta", 32, 16, max_range=32) if with_filter
            else None
        ),
        **option_overrides,
    )
    db = DB(path, options)
    for i in range(2000):
        db.put(i * 13, f"value-{i}".encode())
    db.flush()
    return db


def _faulty_db(path: str, seed: int = 7, **option_overrides):
    """A loaded DB running on a :class:`FaultInjectionEnv`; returns (db, env)."""
    holder = {}

    def factory(root, device, stats):
        env = FaultInjectionEnv(root, device, stats, seed=seed)
        holder["env"] = env
        return env

    db = _loaded_db(path, env_factory=factory, **option_overrides)
    return db, holder["env"]


def _run_for_key(db: DB, key: int):
    """The newest run whose key span covers ``key``."""
    encoded = db._encode_key(key)  # noqa: SLF001
    return db.version.runs_for_range(encoded, encoded)[0]


def _path_of(db: DB, run) -> str:
    return db._env.path(run.name)  # noqa: SLF001


def _flip_byte(path: str, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


class TestDataCorruption:
    def test_corrupt_data_block_detected_on_get(self, tmp_path):
        db = _loaded_db(str(tmp_path / "db"))
        run = _run_for_key(db, 0)  # key 0 sits in this run's first block
        _flip_byte(_path_of(db, run), 10)
        with pytest.raises(CorruptionError):
            db.get(0)
        db.close()

    @pytest.mark.parametrize("cache_bytes", [0, 1 << 20])
    def test_injected_flip_in_data_block_surfaces_from_get(self, tmp_path, cache_bytes):
        """A point read seeks inside the block, and still checks its CRC.

        Same error type and same device/cache accounting as when ``get``
        decoded the whole block: the block is fetched (and cached) once,
        then found corrupt on every access — a cached copy is re-verified,
        never trusted.
        """
        db, env = _faulty_db(str(tmp_path / "db"), block_cache_bytes=cache_bytes)
        run = _run_for_key(db, 0)
        assert env.corrupt_file(run.name, offset=10) == [10]
        stats = db._env.stats  # noqa: SLF001
        for cached in (False, True):
            before = stats.snapshot()
            with pytest.raises(CorruptionError):
                db.get(0)
            delta = stats.snapshot().diff(before)
            hit = cached and cache_bytes > 0
            assert delta.block_reads == (0 if hit else 1)
            assert delta.block_cache_hits == (1 if hit else 0)
            assert delta.block_cache_misses == (0 if hit else 1)
        assert env.injected["bit_flips"] == 1
        db.close()

    def test_corrupt_data_block_detected_on_range(self, tmp_path):
        db = _loaded_db(str(tmp_path / "db"))
        run = _run_for_key(db, 0)
        _flip_byte(_path_of(db, run), 10)
        with pytest.raises(CorruptionError):
            db.range_query(0, 100)
        db.close()

    def test_unaffected_blocks_still_readable(self, tmp_path):
        db = _loaded_db(str(tmp_path / "db"))
        db.force_full_compaction()
        run = _run_for_key(db, 0)
        assert run.reader.num_data_blocks() > 1
        _flip_byte(_path_of(db, run), 10)  # first block only
        # A key in the same file's last block decodes fine (per-block CRCs).
        last_key = int.from_bytes(run.reader.meta.max_key, "big")
        assert db.get(last_key) is not None
        db.close()

    def test_corrupt_footer_detected_on_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        db = _loaded_db(path)
        run = db.version.all_runs_newest_first()[0]
        sst = _path_of(db, run)
        size = run.file_size
        db.close()
        _flip_byte(sst, size - 1)  # the footer magic
        with pytest.raises(CorruptionError):
            DB(path, DBOptions(key_bits=32))

    def test_corrupt_filter_envelope_degrades_run(self, tmp_path):
        """Default contract: a corrupt filter costs performance, not answers.

        The probe falls through to the data read (whose per-block CRCs
        still guard correctness), the run is marked degraded exactly once,
        and the health report names it.
        """
        db = _loaded_db(str(tmp_path / "db"), with_filter=True)
        run = _run_for_key(db, 7)  # absent key covered by this run's span
        # Corrupt the filter block's first byte (the envelope tag length).
        handle = run.reader._filter_handle  # noqa: SLF001
        assert handle.size > 0
        _flip_byte(_path_of(db, run), handle.offset)
        assert db.get(7) is None          # absent key: correct, filter-less
        assert db.get(13) == b"value-1"   # present key still served
        assert db.stats.filters_degraded == 1
        health = db.health()
        assert health.mode == "healthy"   # degraded filter != degraded store
        assert run.name in health.degraded_filters
        db.close()

    def test_corrupt_filter_degradation_counted_once(self, tmp_path):
        db = _loaded_db(str(tmp_path / "db"), with_filter=True)
        run = _run_for_key(db, 7)
        handle = run.reader._filter_handle  # noqa: SLF001
        _flip_byte(_path_of(db, run), handle.offset)
        for probe in (7, 20, 33, 46):     # repeated misses, one degradation
            db.get(probe)
        assert db.stats.filters_degraded == 1
        db.close()

    def test_compaction_rebuilds_degraded_filter(self, tmp_path):
        db = _loaded_db(str(tmp_path / "db"), with_filter=True)
        run = _run_for_key(db, 7)
        handle = run.reader._filter_handle  # noqa: SLF001
        _flip_byte(_path_of(db, run), handle.offset)
        db.get(7)
        assert db.health().degraded_filters
        del run, handle  # a held run keeps its file and its marks
        db.force_full_compaction()        # rewrites the run, fresh filter
        assert db.health().degraded_filters == ()
        assert db.get(13) == b"value-1"
        db.close()


class TestUnaskedRunsRecordNoFilterOutcome:
    """A run whose filter was never consulted has no verdict to be right or
    wrong about: reading it must not feed the true/false-positive counters,
    the tuner's observed FPR, or the quarantine detector."""

    @staticmethod
    def _read_both_ways(db: DB) -> None:
        assert db.get(7) is None               # absent, inside the run's span
        assert db.get(13) == b"value-1"        # present
        assert db.multi_get([7, 13, 20]) == {7: None, 13: b"value-1", 20: None}
        assert db.range_query(1, 12) == []     # empty range
        assert db.range_query(10, 30) == [(13, b"value-1"), (26, b"value-2")]

    @staticmethod
    def _assert_nothing_recorded(db: DB) -> None:
        stats = db.stats.snapshot()
        assert stats.filter_probes == 0
        assert stats.filter_negatives == 0
        assert stats.filter_true_positives == 0
        assert stats.filter_false_positives == 0
        observed = db.tracker.to_dict()
        assert observed["filter_positives"] == 0
        assert observed["filter_negatives"] == 0
        assert observed["false_positives"] == 0
        assert db._filter_dictionary._outcomes == {}  # noqa: SLF001

    def test_store_without_a_filter_factory(self, tmp_path):
        db = _loaded_db(str(tmp_path / "db"), quarantine_filters=True)
        self._read_both_ways(db)
        self._assert_nothing_recorded(db)
        db.close()

    def test_run_degraded_to_filterless(self, tmp_path):
        db = _loaded_db(
            str(tmp_path / "db"), with_filter=True, quarantine_filters=True,
        )
        db.force_full_compaction()
        runs = db.version.all_runs_newest_first()
        for run in runs:  # every run loses its filter before its first probe
            handle = run.reader._filter_handle  # noqa: SLF001
            _flip_byte(_path_of(db, run), handle.offset)
        self._read_both_ways(db)
        assert db.stats.filters_degraded >= 1
        self._assert_nothing_recorded(db)
        db.close()


class TestRecoveryRobustness:
    def test_missing_sst_fails_loudly(self, tmp_path):
        path = str(tmp_path / "db")
        db = _loaded_db(path)
        sst = _path_of(db, db.version.all_runs_newest_first()[0])
        db.close()
        import os

        os.remove(sst)
        with pytest.raises(FileNotFoundError):
            DB(path, DBOptions(key_bits=32))

    def test_garbage_manifest_fails_loudly(self, tmp_path):
        path = str(tmp_path / "db")
        db = _loaded_db(path)
        db.close()
        with open(f"{path}/MANIFEST.json", "w") as handle:
            handle.write("{not json")
        import json

        with pytest.raises(json.JSONDecodeError):
            DB(path, DBOptions(key_bits=32))

    def test_cache_disabled_store_works(self, tmp_path):
        """Sanity: with block_cache_bytes=0 every read hits the device."""
        db = _loaded_db(str(tmp_path / "db"))
        assert db.get(13) == b"value-1"
        assert db.stats.block_cache_hits == 0
        db.close()


class TestTransientRetries:
    def test_scripted_transient_faults_are_retried(self, tmp_path):
        db, env = _faulty_db(str(tmp_path / "db"))
        env.fail_next_reads(2)
        assert db.get(13) == b"value-1"   # both faults absorbed by retries
        assert db.stats.io_transient_errors == 2
        assert db.stats.io_retries == 2
        # Counter parity: every injected fault is observable.
        assert env.injected["transient_read_errors"] == db.stats.io_transient_errors
        db.close()

    def test_retried_read_is_one_block_on_the_query(self, tmp_path):
        """Failed attempts are the store's; the read that succeeded is the
        query's, once."""
        db, env = _faulty_db(str(tmp_path / "db"))
        before = db.stats.snapshot()
        env.fail_next_reads(2)
        assert db.get(13) == b"value-1"
        assert db.last_query.blocks_read == 1
        delta = db.stats.diff(before)
        assert (delta.io_transient_errors, delta.io_retries) == (2, 2)
        assert delta.block_reads == 1
        assert delta.block_read_time_ns > db.last_query.block_read_time_ns > 0
        db.close()

    def test_retries_exhausted_raises_transient_error(self, tmp_path):
        db, env = _faulty_db(str(tmp_path / "db"), io_retry_attempts=1)
        env.fail_next_reads(10)           # more than 1 attempt can absorb
        with pytest.raises(TransientIOError):
            db.get(13)
        # First try + one retry = two observed faults, one retry charged.
        assert db.stats.io_transient_errors == 2
        assert db.stats.io_retries == 1
        db.close()

    def test_retries_disabled_raises_immediately(self, tmp_path):
        db, env = _faulty_db(str(tmp_path / "db"), io_retry_attempts=0)
        env.fail_next_reads(1)
        with pytest.raises(TransientIOError):
            db.get(13)
        assert db.stats.io_transient_errors == 1
        assert db.stats.io_retries == 0
        db.close()

    def test_retry_backoff_charged_to_read_time(self, tmp_path):
        db, env = _faulty_db(str(tmp_path / "db"), io_retry_attempts=3)
        before = db.stats.block_read_time_ns
        env.fail_next_reads(2)
        db.get(13)
        # Modeled exponential backoff: 1x + 2x for the two retries.
        assert db.stats.block_read_time_ns - before >= 3 * RETRY_BACKOFF_NS
        db.close()

    def test_rate_injected_workload_matches_fault_free(self, tmp_path):
        """Acceptance: with retries on, faults change cost, not answers."""
        from repro.lsm.torture import transient_fault_equivalence

        outcome = transient_fault_equivalence(str(tmp_path), seed=4, rate=0.05)
        assert outcome["injected_transient_errors"] > 0  # faults really fired
        assert outcome["answers_match"]
        assert (
            outcome["observed_transient_errors"]
            == outcome["injected_transient_errors"]
        )
        assert outcome["io_retries"] == outcome["observed_transient_errors"]

    def test_permanent_read_error_not_retried(self, tmp_path):
        db, env = _faulty_db(str(tmp_path / "db"))
        run = _run_for_key(db, 13)
        env.fail_file_reads(run.name)
        with pytest.raises(OSError):
            db.get(13)
        assert db.stats.io_retries == 0   # OSError is not a transient fault
        db.close()


class TestBackgroundErrors:
    def test_failed_flush_enters_degraded_readonly(self, tmp_path):
        db, env = _faulty_db(str(tmp_path / "db"))
        db.put(999_999, b"buffered")
        env.fail_next_writes(1)
        db.flush()                        # swallows the OSError, degrades
        health = db.health()
        assert health.mode == "degraded"
        assert "flush" in health.background_error
        assert health.background_errors == 1
        assert env.injected["write_errors"] == 1
        # Reads still work — including the write that never reached an SST.
        assert db.get(999_999) == b"buffered"
        assert db.get(13) == b"value-1"
        # Writes are refused until resume().
        with pytest.raises(ReadOnlyStoreError):
            db.put(1, b"nope")
        with pytest.raises(ReadOnlyStoreError):
            db.delete(1)
        db.close()

    def test_resume_retries_the_pending_flush(self, tmp_path):
        path = str(tmp_path / "db")
        db, env = _faulty_db(path)
        db.put(999_999, b"buffered")
        env.fail_next_writes(1)
        db.flush()
        assert db.health().mode == "degraded"
        assert db.resume()                # device healed: flush succeeds
        assert db.health().mode == "healthy"
        db.put(1_000_000, b"post-resume")
        db.close()
        reopened = DB(path, DBOptions(key_bits=32))
        assert reopened.get(999_999) == b"buffered"
        assert reopened.get(1_000_000) == b"post-resume"
        reopened.close()

    def test_resume_fails_again_on_still_broken_device(self, tmp_path):
        db, env = _faulty_db(str(tmp_path / "db"))
        db.put(999_999, b"buffered")
        env.fail_next_writes(10)
        db.flush()
        assert not db.resume()            # still failing: back to degraded
        assert db.health().mode == "degraded"
        assert db.stats.background_errors == 2
        db.close()

    def test_degraded_close_never_raises_and_loses_nothing(self, tmp_path):
        path = str(tmp_path / "db")
        db, env = _faulty_db(path)
        db.put(999_999, b"buffered")
        env.fail_next_writes(100)         # device stays broken through close
        db.flush()
        assert db.health().mode == "degraded"
        db.close()                        # must not raise despite the device
        # The WAL was never truncated, so reopen recovers everything.
        reopened = DB(path, DBOptions(key_bits=32))
        assert reopened.get(999_999) == b"buffered"
        assert reopened.get(13) == b"value-1"
        reopened.close()

    def test_context_manager_exit_swallows_background_failures(self, tmp_path):
        path = str(tmp_path / "db")
        db, env = _faulty_db(path)
        with db:
            db.put(999_999, b"buffered")
            env.fail_next_writes(100)     # device dies after the ack
        reopened = DB(path, DBOptions(key_bits=32))
        assert reopened.get(999_999) == b"buffered"
        reopened.close()


class TestIngestFailures:
    """A failed ``ingest`` parks the store like a failed flush and leaves
    none of the SSTs it wrote behind."""

    @staticmethod
    def _fail(env, monkeypatch, where: str) -> None:
        """Make the ingest's first SST, second SST or manifest write fail."""
        if where == "first-sst":
            env.fail_next_writes(1)
            return
        name = "write_file" if where == "second-sst" else "write_file_atomic"
        original = getattr(env, name)

        def armed(*args, **kwargs):
            if where == "manifest":
                env.fail_next_writes(1)
                return original(*args, **kwargs)
            original(*args, **kwargs)
            env.fail_next_writes(1)  # the next SST's write fails

        monkeypatch.setattr(env, name, armed)

    @pytest.mark.parametrize("where", ["first-sst", "second-sst", "manifest"])
    def test_failed_ingest_parks_and_leaves_no_file(
        self, tmp_path, monkeypatch, where
    ):
        path = str(tmp_path / "db")
        db, env = _faulty_db(path)
        items = [(100_000 + i, b"i" * 100) for i in range(2000)]  # ~7 SSTs
        live_before = {run.name for run in db.version.all_runs_newest_first()}
        with monkeypatch.context() as patch:
            self._fail(env, patch, where)
            with pytest.raises(ReadOnlyStoreError, match="ingest"):
                db.ingest(items, level=5)
        health = db.health()
        assert health.mode == "degraded"
        assert health.background_error.startswith("ingest: OSError")
        assert health.background_errors == 1
        assert db.version.level_runs(5) == []
        on_disk = {name for name in os.listdir(path) if name.endswith(".sst")}
        assert on_disk == live_before
        with pytest.raises(ReadOnlyStoreError):
            db.put(1, b"nope")
        # Nothing was left pending: resume clears the error, and the same
        # ingest then lands.
        assert db.resume()
        db.ingest(items, level=5)
        assert db.get(100_000) == b"i" * 100 and db.get(13) == b"value-1"
        db.close()


class TestMaintenanceFailures:
    """A flush or compaction that fails after writing some of its SSTs
    deletes them, as a failed ingest does: the last manifest still stands,
    and nothing names them.  A failed filter rebuild parks the store the
    same way."""

    @staticmethod
    def _fail_second_sst(env, monkeypatch) -> None:
        write_file = env.write_file

        def armed(*args, **kwargs):
            write_file(*args, **kwargs)
            env.fail_next_writes(1)  # the next SST's write fails
            monkeypatch.setattr(env, "write_file", write_file)

        monkeypatch.setattr(env, "write_file", armed)

    @staticmethod
    def _assert_no_orphan(db: DB, path: str) -> None:
        live = {run.name for run in db.version.all_runs_newest_first()}
        on_disk = {name for name in os.listdir(path) if name.endswith(".sst")}
        assert on_disk == live

    def test_failed_full_compaction_leaves_no_orphan(self, tmp_path, monkeypatch):
        path = str(tmp_path / "db")
        db, env = _faulty_db(path, sst_size_bytes=8 << 10)  # several outputs
        with monkeypatch.context() as patch:
            self._fail_second_sst(env, patch)
            db.force_full_compaction()
        health = db.health()
        assert health.mode == "degraded"
        assert health.background_error.startswith("compaction: OSError")
        self._assert_no_orphan(db, path)
        assert db.resume()
        self._assert_no_orphan(db, path)
        db.force_full_compaction()  # the retry writes every output
        self._assert_no_orphan(db, path)
        assert len(db.version.all_runs_newest_first()) > 1
        assert db.get(13) == b"value-1"
        db.close()

    def test_failed_filter_rebuild_parks_and_resume_heals(self, tmp_path):
        """A quarantined run's in-place filter rebuild whose block read
        fails past the retries parks the store as a failed compaction does;
        the old filter keeps serving, and ``resume()`` retries the rebuild."""
        path = str(tmp_path / "db")
        db, env = _faulty_db(
            path, with_filter=True, quarantine_filters=True, io_retry_attempts=1
        )
        run = _run_for_key(db, 13)
        assert db.get(13) == b"value-1"  # resolves the run's filter
        served = run.reader.resolved_filter
        db._note_filter_outcome(run, served, 1, 0, 64)  # noqa: SLF001
        assert db.health().attacked_filters == (run.name,)
        self._assert_no_orphan(db, path)
        files = set(os.listdir(path))
        env.fail_next_reads(2)  # the first try and its one retry
        db.flush()
        health = db.health()
        assert health.mode == "degraded"
        assert health.background_error.startswith("rebuild: TransientIOError")
        assert health.background_errors == 1
        assert health.attacked_filters == (run.name,)
        assert run.reader.resolved_filter is served
        assert db.get(13) == b"value-1"
        with pytest.raises(ReadOnlyStoreError):
            db.put(1, b"nope")
        assert db.resume()
        assert db.health().attacked_filters == ()
        assert run.reader.resolved_filter is not served
        assert set(os.listdir(path)) == files
        assert db.get(13) == b"value-1" and db.get(7) is None
        db.close()

    def test_flush_whose_manifest_fails_leaves_no_orphan(self, tmp_path):
        path = str(tmp_path / "db")
        db, env = _faulty_db(path)
        db.put(999_999, b"buffered")
        write_file_atomic = env.write_file_atomic

        def failing(*args, **kwargs):
            env.fail_next_writes(1)
            return write_file_atomic(*args, **kwargs)

        env.write_file_atomic = failing
        db.flush()  # the SST is written, the manifest is not
        env.write_file_atomic = write_file_atomic
        assert db.health().mode == "degraded"
        self._assert_no_orphan(db, path)
        assert db.resume()  # the retried flush lands
        self._assert_no_orphan(db, path)
        assert db.get(999_999) == b"buffered"
        db.close()


class TestRepairProperty:
    """repair_store -> reopen never raises, and keeps every healthy run."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_repair_then_reopen_after_seeded_corruption(self, tmp_path, seed):
        import random

        from repro.lsm.repair import repair_store

        path = str(tmp_path / "db")
        db = _loaded_db(path, with_filter=True)
        db.compact()                      # several runs across levels
        runs = db.version.all_runs_newest_first()
        env = FaultInjectionEnv(path, stats=db.stats, seed=seed)
        rng = random.Random(seed)
        victims = rng.sample(runs, k=min(rng.randint(1, 2), len(runs)))
        for victim in victims:
            env.corrupt_file(victim.name, count=rng.randint(1, 4))
        db.close()

        options = DBOptions(key_bits=32, block_cache_bytes=0)
        outcome = repair_store(path)
        assert env.injected["bit_flips"] > 0
        # Every run repair kept must be genuinely healthy, every run it
        # dropped must be one we corrupted (bit flips can land in padding
        # or survive CRC windows, so <= rather than ==).
        assert set(outcome.dropped_files) <= {v.name for v in victims}
        healthy = {r.name for r in runs} - set(outcome.dropped_files)
        assert set(outcome.healthy_files) == healthy

        reopened = DB(path, options)      # the property: this never raises
        try:
            surviving = {
                r.name for r in reopened.version.all_runs_newest_first()
            }
            assert surviving == healthy   # healthy runs all retained
            # And the survivors are fully readable end to end.
            for _ in reopened.iterator():
                pass
        finally:
            reopened.close()
