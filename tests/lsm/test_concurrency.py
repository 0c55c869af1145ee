"""Concurrent background maintenance: schedulers, backpressure, failures.

Covers the pieces the crash-recovery torture harness composes:

* the scheduler implementations themselves (inline / thread pool /
  deterministic token passing, plus the cooperative lock);
* write backpressure — the slowdown trigger charges modeled delay, the
  stop trigger genuinely blocks and then resumes with nothing lost, and
  a wedged configuration fails with ``WriteStallTimeoutError`` instead of
  hanging;
* a flush failing *on a worker thread* parks the store in degraded
  read-only mode exactly like the inline failure path — same health
  report, same counters — and ``resume()`` retries it on a worker; an
  unexpected exception in a job parks the store too instead of vanishing,
  and one from ``plan()`` also frees the job slot;
* the one dispatcher: inline debt is worked at constant stack depth, and
  a second scheduling call during an inline job starts no second job and
  loses no work;
* reads are superversion-pinned: an open iterator survives a full
  compaction deleting every file it is reading;
* the job slot is exclusive: flushes, planned and forced compactions and
  ingest never run at once, and a compaction's inputs are live when it
  installs;
* scalar and batch write paths agree on answers and ``PerfStats``
  accounting with workers enabled.
"""

import sys
import threading
import time

import pytest

from repro.bench.factories import make_factory
from repro.errors import (
    PowerCutError,
    ReadOnlyStoreError,
    WriteStallTimeoutError,
)
from repro.lsm.compaction import Compactor
from repro.lsm.db import DB
from repro.lsm.faults import FaultInjectionEnv
from repro.lsm.options import DBOptions
from repro.lsm.scheduler import (
    CooperativeLock,
    DeterministicScheduler,
    InlineScheduler,
    JobHandle,
    ThreadPoolScheduler,
)


def _options(**overrides) -> DBOptions:
    base = dict(
        key_bits=32,
        memtable_size_bytes=1024,
        sst_size_bytes=4096,
        block_size_bytes=512,
        block_cache_bytes=0,
        level0_file_num_compaction_trigger=2,
        max_bytes_for_level_base=8192,
    )
    base.update(overrides)
    return DBOptions(**base)


def _faulty_db(path: str, **overrides):
    holder = {}

    def factory(root, device, stats):
        env = FaultInjectionEnv(root, device, stats, seed=0)
        holder["env"] = env
        return env

    db = DB(path, _options(env_factory=factory, **overrides))
    return db, holder["env"]


# ----------------------------------------------------------------------
# Scheduler unit tests
# ----------------------------------------------------------------------
class TestInlineScheduler:
    def test_submit_runs_on_caller_before_returning(self):
        sched = InlineScheduler()
        ran = []
        handle = sched.submit("job", lambda: ran.append(1) or "result")
        assert ran == [1]
        assert handle.done and handle.error is None
        assert handle.result == "result"
        assert sched.wait_for(lambda: True) is True
        assert sched.wait_for(lambda: False) is False
        sched.close()


class TestThreadPoolScheduler:
    def test_jobs_run_on_workers_and_errors_are_recorded(self):
        sched = ThreadPoolScheduler()
        main = threading.get_ident()
        seen = []
        ok = sched.submit("ok", lambda: seen.append(threading.get_ident()))
        boom = sched.submit("boom", lambda: 1 / 0)
        assert sched.wait_for(lambda: ok.done and boom.done, 10.0)
        assert seen and seen[0] != main
        assert ok.error is None
        assert isinstance(boom.error, ZeroDivisionError)
        sched.close()
        sched.close()  # idempotent


class TestDeterministicScheduler:
    @staticmethod
    def _run_interleaving(seed: int) -> list[tuple[str, int]]:
        sched = DeterministicScheduler(seed=seed)
        order: list[tuple[str, int]] = []

        def job(tag):
            def body():
                for step in range(3):
                    order.append((tag, step))
                    sched.sync_point("step")
            return body

        handles = [sched.submit(tag, job(tag)) for tag in ("a", "b", "c")]
        assert sched.wait_for(lambda: all(h.done for h in handles))
        sched.close()
        return order

    def test_same_seed_replays_the_same_interleaving(self):
        first = self._run_interleaving(42)
        second = self._run_interleaving(42)
        assert first == second
        assert sorted(first) == [
            (tag, step) for tag in "abc" for step in range(3)
        ]

    def test_seed_space_produces_multiple_interleavings(self):
        distinct = {tuple(self._run_interleaving(seed)) for seed in range(8)}
        assert len(distinct) > 1

    def test_close_unwinds_parked_jobs_with_power_cut(self):
        sched = DeterministicScheduler(seed=0)
        entered = []

        def body():
            entered.append(True)
            while True:
                sched.sync_point("spin")

        handle = sched.submit("spinner", body)
        assert sched.wait_for(lambda: bool(entered))  # job got the token once
        sched.close()
        assert handle.done
        assert isinstance(handle.error, PowerCutError)
        assert sched.crashed


class TestCooperativeLock:
    def test_reentrant_acquire_release(self):
        lock = CooperativeLock(DeterministicScheduler(seed=0))
        with lock:
            with lock:
                pass
        with lock:
            pass

    def test_release_by_non_owner_raises(self):
        lock = CooperativeLock(DeterministicScheduler(seed=0))
        lock.acquire()
        errors = []

        def stranger():
            try:
                lock.release()
            except RuntimeError as exc:
                errors.append(exc)

        thread = threading.Thread(target=stranger)
        thread.start()
        thread.join()
        assert len(errors) == 1
        lock.release()


# ----------------------------------------------------------------------
# Write backpressure
# ----------------------------------------------------------------------
class _StuckScheduler:
    """Concurrent-shaped scheduler that never runs its jobs (a wedge)."""

    concurrent = True
    crashed = False

    def submit(self, name, fn):
        return JobHandle(name)  # accepted, never executed

    def sync_point(self, tag=""):
        return None

    def wait_for(self, predicate, timeout_s=None):
        deadline = time.monotonic() + (timeout_s or 0.0)
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.002)
        return bool(predicate())

    def notify(self):
        return None

    def make_lock(self):
        return threading.RLock()

    def close(self, force=False):
        return None


class TestBackpressure:
    def test_slowdown_charges_modeled_delay(self, tmp_path):
        db = DB(
            str(tmp_path / "db"),
            _options(
                max_background_jobs=1,
                max_immutable_memtables=2,  # slowdown at 1 sealed memtable
                scheduler_factory=lambda _o: DeterministicScheduler(seed=3),
            ),
        )
        for key in range(40):
            db.put(key, b"v" * 200)
        stats = db.stats
        assert stats.memtable_seals > 0
        # The put immediately after a seal observes the backlog before any
        # yield can drain it, so at least one slowdown is guaranteed.
        assert stats.write_slowdowns > 0
        assert stats.write_delay_time_ns > 0
        assert stats.write_stall_timeouts == 0
        db.wait_idle()
        # Computed at report time: an idle store is not "slowdown" just
        # because its last write was.
        assert db.health().stall_state == "none"
        for key in range(40):
            assert db.get(key) == b"v" * 200
        db.close()

    def test_stop_trigger_stalls_then_resumes_without_loss(self, tmp_path):
        db = DB(
            str(tmp_path / "db"),
            _options(
                max_background_jobs=1,
                max_immutable_memtables=1,  # every seal is a stop condition
                level0_slowdown_writes_trigger=3,
                level0_stop_writes_trigger=4,
                scheduler_factory=lambda _o: DeterministicScheduler(seed=5),
            ),
        )
        values = {key: b"stall" * 60 + b"#%d" % key for key in range(50)}
        for key, value in values.items():
            db.put(key, value)  # acked in submission order
        stats = db.stats
        assert stats.write_stops > 0        # the stop trigger really fired
        assert stats.write_stall_time_ns >= 0
        assert stats.write_stall_timeouts == 0
        db.wait_idle()
        health = db.health()
        assert health.pending_immutables == 0
        assert health.write_stops == stats.write_stops
        # No acked write lost or reordered: last write per key wins.
        for key, value in values.items():
            assert db.get(key) == value
        db.close()

    def test_wedged_store_raises_write_stall_timeout(self, tmp_path):
        db = DB(
            str(tmp_path / "db"),
            _options(
                max_background_jobs=1,
                max_immutable_memtables=1,
                write_stall_timeout_s=0.05,
                scheduler_factory=lambda _o: _StuckScheduler(),
            ),
        )
        with pytest.raises(WriteStallTimeoutError):
            for key in range(50):
                db.put(key, b"w" * 200)
        assert db.stats.write_stall_timeouts == 1
        assert db.health().stall_state == "stopped"
        db.kill()  # close() would wait out the drain on a wedged scheduler

    def test_inline_mode_never_stops(self, tmp_path):
        db = DB(str(tmp_path / "db"), _options())
        for key in range(60):
            db.put(key, b"v" * 200)
        assert db.stats.write_stops == 0
        assert db.stats.write_stall_timeouts == 0
        db.close()


# ----------------------------------------------------------------------
# Background failure parity with the inline path
# ----------------------------------------------------------------------
class TestWorkerFlushFailure:
    def test_worker_flush_failure_parks_readonly(self, tmp_path):
        db, env = _faulty_db(
            str(tmp_path / "db"),
            memtable_size_bytes=8 << 10,
            max_background_jobs=1,
        )
        db.put(7, b"buffered")
        env.fail_next_writes(1)
        db.flush()  # flush runs on the worker, fails, degrades the store
        health = db.health()
        assert health.mode == "degraded"
        assert "flush" in health.background_error
        assert health.background_errors == 1
        assert env.injected["write_errors"] == 1
        # Reads still serve the buffered write that never reached an SST.
        assert db.get(7) == b"buffered"
        with pytest.raises(ReadOnlyStoreError):
            db.put(1, b"nope")
        with pytest.raises(ReadOnlyStoreError):
            db.delete(1)
        # Device healed: resume retries the flush (on the worker) and the
        # store is writable again, nothing lost.
        assert db.resume()
        assert db.health().mode == "healthy"
        db.put(8, b"post-resume")
        db.close()
        reopened = DB(str(tmp_path / "db"), _options())
        assert reopened.get(7) == b"buffered"
        assert reopened.get(8) == b"post-resume"
        reopened.close()

    def test_worker_failure_counters_match_inline_path(self, tmp_path):
        reports = {}
        for label, jobs in (("inline", 0), ("workers", 1)):
            db, env = _faulty_db(
                str(tmp_path / label),
                memtable_size_bytes=8 << 10,
                max_background_jobs=jobs,
            )
            db.put(7, b"buffered")
            env.fail_next_writes(1)
            db.flush()
            degraded = db.health()
            resumed = db.resume()
            healthy = db.health()
            reports[label] = (
                degraded.mode,
                degraded.background_errors,
                "flush" in (degraded.background_error or ""),
                env.injected["write_errors"],
                resumed,
                healthy.mode,
                db.get(7),
            )
            db.close()
        assert reports["inline"] == reports["workers"]

    @pytest.mark.parametrize("jobs", [0, 1])
    def test_unexpected_job_exception_parks_the_store(self, tmp_path, jobs):
        db = DB(str(tmp_path / "db"), _options(max_background_jobs=jobs))
        db.put(1, b"buffered")

        def buggy_flush():
            raise RuntimeError("bug in flush")

        db._flush_oldest_immutable = buggy_flush  # noqa: SLF001
        if jobs:
            db.flush()  # on the worker: recorded, not raised here
        else:
            with pytest.raises(RuntimeError):
                db.flush()  # inline: still reaches the caller
        health = db.health()
        assert health.mode == "degraded"
        assert "flush: RuntimeError: bug in flush" == health.background_error
        assert health.background_errors == 1
        assert health.pending_immutables == 1
        with pytest.raises(ReadOnlyStoreError, match="RuntimeError"):
            db.put(2, b"nope")
        del db._flush_oldest_immutable  # noqa: SLF001 - the bug is "fixed"
        assert db.resume()
        assert db.health().mode == "healthy"
        assert db.health().pending_immutables == 0
        assert db.get(1) == b"buffered"
        db.close()

    @pytest.mark.parametrize("jobs", [0, 1])
    def test_planner_exception_frees_the_job_slot(
        self, tmp_path, monkeypatch, jobs
    ):
        """``plan()`` raising parks the store and frees the slot, so a later
        ``resume()`` + ``compact()`` returns instead of waiting forever."""
        real_plan = Compactor.plan
        raised = []

        def plan_raising_once(self, version):
            if not raised:
                raised.append(True)
                raise RuntimeError("bug in plan")
            return real_plan(self, version)

        monkeypatch.setattr(Compactor, "plan", plan_raising_once)
        db = DB(str(tmp_path / "db"), _options(max_background_jobs=jobs))
        # Inline the planner runs in the put; with the worker it may run
        # there or on the worker, whose error parks the store.
        surfaced = RuntimeError if jobs == 0 else (RuntimeError, ReadOnlyStoreError)
        with pytest.raises(surfaced, match="bug in plan"):
            for key in range(200):
                db.put(key, b"v" * 64)
        assert db.health().background_error == (
            "compaction-plan: RuntimeError: bug in plan"
        )
        resumed = []

        def resume_and_compact():
            resumed.append(db.resume())
            db.compact()
            resumed.append("compacted")

        finisher = threading.Thread(target=resume_and_compact, daemon=True)
        finisher.start()
        finisher.join(timeout=30.0)
        assert not finisher.is_alive(), "resume() + compact() never returned"
        assert resumed == [True, "compacted"]
        assert db.health().mode == "healthy"
        assert db.get(0) == b"v" * 64
        db.close()


# ----------------------------------------------------------------------
# The one maintenance loop, inline
# ----------------------------------------------------------------------
def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0  # noqa: SLF001
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestInlineDispatcher:
    def test_deep_debt_does_not_recurse(self, tmp_path):
        db = DB(
            str(tmp_path / "db"),
            _options(
                level0_file_num_compaction_trigger=1,
                max_compaction_input_files=1,
            ),
        )
        # ~50 single-file L1 runs over an 8 KiB target: the first dispatch
        # after this finds dozens of compactions to chain.
        db.ingest([(k, b"i" * 100) for k in range(1500)], level=1)
        depths = {"flush": [], "compaction": []}
        flush, execute = db._flush_oldest_immutable, db._compactor.execute  # noqa: SLF001

        def counted_flush():
            depths["flush"].append(_stack_depth())
            flush()

        def counted_execute(job):
            depths["compaction"].append(_stack_depth())
            return execute(job)

        db._flush_oldest_immutable = counted_flush  # noqa: SLF001
        db._compactor.execute = counted_execute  # noqa: SLF001
        db.put(5000, b"v" * 1100)  # one seal, one long dispatch
        assert len(depths["compaction"]) >= 20
        for key in range(5001, 5250):
            db.put(key, b"v" * 1100)
        assert db.stats.memtable_seals >= 200
        assert len(depths["flush"]) == db.stats.memtable_seals
        # Every job of every dispatch ran one submit below the writer.
        assert len(set(depths["flush"])) == 1
        assert len(set(depths["compaction"])) == 1
        db.close()

    def test_second_schedule_during_inline_job_is_absorbed(self, tmp_path):
        db = DB(str(tmp_path / "db"), _options())
        flush = db._flush_oldest_immutable  # noqa: SLF001
        ran_on: list[int] = []
        second = {}

        def other_writer():
            # Fills and seals a second memtable, which schedules: the one
            # slot is busy, so the put returns without running anything.
            db.put(2, b"late" * 300)
            second["jobs_seen"] = db.health().jobs_in_flight

        def hooked_flush():
            ran_on.append(threading.get_ident())
            if not second:
                thread = threading.Thread(target=other_writer)
                thread.start()
                thread.join()
            flush()

        db._flush_oldest_immutable = hooked_flush  # noqa: SLF001
        db.put(1, b"early")
        db.flush()
        assert second["jobs_seen"] == 1
        assert set(ran_on) == {threading.get_ident()} and len(ran_on) == 2
        assert db.health().pending_immutables == 0  # the late seal flushed
        assert db.get(1) == b"early" and db.get(2) == b"late" * 300
        db.close()


# ----------------------------------------------------------------------
# Superversion-pinned reads
# ----------------------------------------------------------------------
class TestSuperversionReads:
    def test_iterator_survives_full_compaction(self, tmp_path):
        db = DB(str(tmp_path / "db"), _options(max_background_jobs=1))
        values = {key: b"x" * 100 + b"#%d" % key for key in range(64)}
        for key, value in values.items():
            db.put(key, value)
        db.flush()
        iterator = db.iterator()
        head = [next(iterator) for _ in range(5)]
        # Rewrites every file the iterator is positioned over; the pinned
        # superversion keeps the old runs alive until the iterator closes.
        db.force_full_compaction()
        tail = list(iterator)
        scanned = dict(head + tail)
        assert scanned == values
        assert dict(db.iterator()) == values  # and the new view agrees
        db.close()

    def test_reads_see_consistent_data_during_maintenance(self, tmp_path):
        db = DB(
            str(tmp_path / "db"),
            _options(
                max_background_jobs=1,
                scheduler_factory=lambda _o: DeterministicScheduler(seed=11),
            ),
        )
        for key in range(80):
            db.put(key, b"gen0-%d" % key)
            if key % 3 == 0:
                db.put(key, b"gen1-%d" % key)
            # Read back mid-maintenance: must always see the latest ack.
            expected = b"gen1-%d" % key if key % 3 == 0 else b"gen0-%d" % key
            assert db.get(key) == expected
        db.wait_idle()
        report = db.verify()
        assert report.ok
        db.close()


# ----------------------------------------------------------------------
# Scalar / batch parity with workers enabled
# ----------------------------------------------------------------------
class TestParityWithWorkers:
    def test_scalar_and_batch_paths_agree_under_workers(self, tmp_path):
        items = [(key, b"p" * 50 + b"#%d" % key) for key in range(90)]
        answers = {}
        writes = {}
        for label in ("scalar", "batch"):
            db = DB(
                str(tmp_path / label), _options(max_background_jobs=1)
            )
            if label == "scalar":
                for key, value in items:
                    db.put(key, value)
            else:
                for start in range(0, len(items), 9):
                    batch = db.batch()
                    for key, value in items[start:start + 9]:
                        batch.put_int(key, value)
                    db.write(batch)
            db.wait_idle()
            answers[label] = {key: db.get(key) for key, _ in items}
            writes[label] = db.stats.writes
            db.close()
        assert answers["scalar"] == answers["batch"] == dict(items)
        assert writes["scalar"] == writes["batch"] == len(items)

    def test_workers_match_inline_answers(self, tmp_path):
        final = {}
        for label, jobs in (("inline", 0), ("workers", 1)):
            db = DB(str(tmp_path / label), _options(max_background_jobs=jobs))
            for key in range(120):
                db.put(key % 40, b"round-%d" % key)
                if key % 7 == 0:
                    db.delete((key + 3) % 40)
            db.wait_idle()
            final[label] = {key: db.get(key) for key in range(40)}
            db.close()
        assert final["inline"] == final["workers"]


# ----------------------------------------------------------------------
# Health surface
# ----------------------------------------------------------------------
class TestHealthSurface:
    def test_health_reports_backpressure_fields(self, tmp_path):
        db = DB(str(tmp_path / "db"), _options(max_background_jobs=1))
        for key in range(30):
            db.put(key, b"h" * 150)
        health = db.health()
        assert health.workers == 1
        assert health.stall_state in ("none", "slowdown", "stopped")
        assert health.pending_immutables >= 0
        assert health.level0_runs >= 0
        db.wait_idle()
        assert db.health().pending_immutables == 0
        assert db.health().stall_state == "none"
        db.close()


# ----------------------------------------------------------------------
# The one job slot
# ----------------------------------------------------------------------
class TestJobSlot:
    @pytest.mark.parametrize("seed", range(8))
    def test_maintenance_bodies_never_overlap(self, tmp_path, seed):
        """Every maintenance path takes the one slot, under any interleaving.

        The mix covers each way a job starts: sealing writes (flush and
        planned compactions on the worker), ``compact()``'s forced L0
        merge, ``resume()`` after a background write fault, ``ingest()``
        into an empty level, and quarantine flags that dispatch a rebuild
        while ``compact()`` is about to start and while ``ingest()`` runs.
        """
        db, env = _faulty_db(
            str(tmp_path / "db"),
            max_background_jobs=1,
            filter_factory=make_factory("rosetta", 32, 14, max_range=32),
            quarantine_filters=True,
            quarantine_fpr_multiple=1.5,
            quarantine_min_probes=1,
            scheduler_factory=lambda _o: DeterministicScheduler(seed=seed),
        )
        running: list[str] = []
        violations: list[str] = []

        def exclusive(name, body):
            def wrapped(*args):
                if running:
                    violations.append(f"{name} started while {running} ran")
                running.append(name)
                try:
                    return body(*args)
                finally:
                    running.remove(name)
            return wrapped

        def flag_newest_run():
            # What a read does when the detector flags its run: the rebuild
            # is dispatched from the reading thread.
            run = db.version.all_runs_newest_first()[0]
            db._filter_dictionary.get_filter(run.reader, db.stats)  # noqa: SLF001
            db._note_filter_outcome(run, 0, 1)  # noqa: SLF001

        compactor = db._compactor  # noqa: SLF001
        apply = compactor.apply

        def checked_apply(version, job, outputs):
            live = {run.name for run in version.all_runs_newest_first()}
            retired = {run.name for run in job.inputs} - live
            if retired:
                violations.append(f"{job.kind} installed retired {retired}")
            apply(version, job, outputs)

        write_ingest_runs = db._write_ingest_runs  # noqa: SLF001

        def ingest_runs(pairs, level):
            flag_newest_run()
            return write_ingest_runs(pairs, level)

        compactor.execute = exclusive("compaction", compactor.execute)
        compactor.apply = checked_apply
        db._flush_oldest_immutable = exclusive(  # noqa: SLF001
            "flush", db._flush_oldest_immutable  # noqa: SLF001
        )
        db._write_ingest_runs = exclusive("ingest", ingest_runs)  # noqa: SLF001

        model = {}
        for key in range(60):
            model[key] = b"v%d-" % key * 40  # ~200 B: a seal every few puts
            db.put(key, model[key])
            if key % 20 == 19:
                db.compact()
        model[100] = b"fault" * 40
        db.put(100, model[100])
        env.fail_next_writes(1)
        db.flush()  # the worker's flush fails and parks the store
        assert db.health().mode == "degraded"
        assert db.resume()
        # One L0 run is left; its rebuild is dispatched and holds the slot
        # when compact() plans its own merge of the same run.
        assert len(db.version.level0) == 1
        flag_newest_run()
        db.compact()
        ingested = {key: b"i%d" % key for key in range(1000, 1600)}
        db.ingest(ingested.items(), level=5)
        db.wait_idle()

        assert violations == []
        assert db.stats.filters_quarantined == 2
        assert db.health().attacked_filters == ()  # both rebuilds ran
        assert db.version.level_runs(5)
        model.update(ingested)
        assert {key: db.get(key) for key in model} == model
        db.close()
