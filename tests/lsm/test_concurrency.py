"""Inline maintenance under concurrent callers: one lock, no lost work.

Every flush and compaction runs inline, on the thread whose call caused
it, under the writer's ``_write_lock`` (``repro.lsm.writer``).  Covers:

* the scheduler: ``submit`` runs the job on the caller before returning;
* an unexpected exception in a job parks the store and reaches the
  caller, and one from ``plan()`` also releases the write lock;
* the one dispatcher: debt is worked at constant stack depth, and a
  second writer that arrives during a flush waits for it;
* reads are superversion-pinned: an open iterator survives a full
  compaction deleting every file it is reading, and a reader thread sees
  every acknowledged write while a writer thread flushes and compacts;
* scalar and batch writes from several threads agree on answers and
  ``PerfStats`` accounting;
* maintenance bodies never overlap: flushes, planned and forced
  compactions, ``resume()`` and ``ingest()`` called from several threads
  at once run one at a time, and a compaction's inputs are live when it
  installs.
"""

import os
import random
import sys
import threading
import time

import pytest

from repro.bench.factories import make_factory
from repro.errors import ReadOnlyStoreError
from repro.lsm import compaction
from repro.lsm.compaction import Compactor
from repro.lsm.db import DB
from repro.lsm.faults import FaultInjectionEnv
from repro.lsm.options import DBOptions
from repro.lsm.scheduler import InlineScheduler


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


@pytest.fixture
def fast_switching():
    """Hand the interpreter lock between threads every 10 µs, so a body
    that ran outside the write lock would meet another thread's."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _run_threads(targets) -> list[BaseException]:
    """Run each callable on its own thread; return what they raised."""
    errors: list[BaseException] = []

    def guarded(target):
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads), "a thread hung"
    return errors


class TestInlineScheduler:
    def test_submit_runs_on_caller_before_returning(self):
        ran = []
        InlineScheduler().submit(
            "job", lambda: ran.append(threading.get_ident())
        )
        assert ran == [threading.get_ident()]


# ----------------------------------------------------------------------
# Failures inside a job
# ----------------------------------------------------------------------
class TestJobFailures:
    def test_unexpected_job_exception_parks_the_store(self, tmp_path):
        db = DB(str(tmp_path / "db"), _options())
        db.put(1, b"buffered")

        def buggy_flush():
            raise RuntimeError("bug in flush")

        db._writer._flush_oldest_immutable = buggy_flush  # noqa: SLF001
        with pytest.raises(RuntimeError):
            db.flush()  # the bug reaches the caller
        health = db.health()
        assert health.mode == "degraded"
        assert "flush: RuntimeError: bug in flush" == health.background_error
        assert health.background_errors == 1
        assert health.pending_immutables == 1
        with pytest.raises(ReadOnlyStoreError, match="RuntimeError"):
            db.put(2, b"nope")
        del db._writer._flush_oldest_immutable  # noqa: SLF001 - the bug is "fixed"
        assert db.resume()
        assert db.health().mode == "healthy"
        assert db.health().pending_immutables == 0
        assert db.get(1) == b"buffered"
        db.close()

    def test_planner_exception_releases_the_write_lock(
        self, tmp_path, monkeypatch
    ):
        """``plan()`` raising parks the store and lets go of the lock, so a
        later ``resume()`` + ``compact()`` on another thread returns."""
        real_plan = Compactor.plan
        raised = []

        def plan_raising_once(self, version):
            if not raised:
                raised.append(True)
                raise RuntimeError("bug in plan")
            return real_plan(self, version)

        monkeypatch.setattr(Compactor, "plan", plan_raising_once)
        db = DB(str(tmp_path / "db"), _options())
        with pytest.raises(RuntimeError, match="bug in plan"):
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

        assert _run_threads([resume_and_compact]) == []
        assert resumed == [True, "compacted"]
        assert db.health().mode == "healthy"
        assert db.get(0) == b"v" * 64
        db.close()


# ----------------------------------------------------------------------
# The one maintenance loop
# ----------------------------------------------------------------------
def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0  # noqa: SLF001
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestInlineDispatcher:
    def test_deep_debt_does_not_recurse(self, tmp_path, monkeypatch):
        monkeypatch.setattr(compaction, "MAX_COMPACTION_INPUT_FILES", 1)
        db = DB(
            str(tmp_path / "db"),
            _options(level0_file_num_compaction_trigger=1),
        )
        # ~50 single-file L1 runs over an 8 KiB target: the first dispatch
        # after this finds dozens of compactions to chain.
        db.ingest([(k, b"i" * 100) for k in range(1500)], level=1)
        depths = {"flush": [], "compaction": []}
        flush, execute = db._writer._flush_oldest_immutable, db._writer._compactor.execute  # noqa: SLF001

        def counted_flush():
            depths["flush"].append(_stack_depth())
            flush()

        def counted_execute(job):
            depths["compaction"].append(_stack_depth())
            return execute(job)

        db._writer._flush_oldest_immutable = counted_flush  # noqa: SLF001
        db._writer._compactor.execute = counted_execute  # noqa: SLF001
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

    def test_second_writer_blocks_until_the_flush_finishes(self, tmp_path):
        db = DB(str(tmp_path / "db"), _options())
        flush = db._writer._flush_oldest_immutable  # noqa: SLF001
        ran_on: list[int] = []
        started, done = threading.Event(), threading.Event()
        seen = {}

        def other_writer():
            started.set()
            # Fills and seals a second memtable: it must wait for the
            # flush below to finish, then run its own flush.
            db.put(2, b"late" * 300)
            done.set()

        def hooked_flush():
            ran_on.append(threading.get_ident())
            if len(ran_on) == 1:
                threading.Thread(target=other_writer, daemon=True).start()
                assert started.wait(10.0)
                seen["done_during_flush"] = done.wait(0.2)
            flush()

        db._writer._flush_oldest_immutable = hooked_flush  # noqa: SLF001
        db.put(1, b"early")
        db.flush()
        assert seen["done_during_flush"] is False
        assert done.wait(10.0)
        assert len(ran_on) == 2 and ran_on[0] == threading.get_ident()
        assert ran_on[1] != ran_on[0]  # the late seal flushed on its writer
        assert db.health().pending_immutables == 0
        assert db.get(1) == b"early" and db.get(2) == b"late" * 300
        db.close()


# ----------------------------------------------------------------------
# Superversion-pinned reads
# ----------------------------------------------------------------------
class TestSuperversionReads:
    def test_iterator_survives_full_compaction(self, tmp_path):
        db = DB(str(tmp_path / "db"), _options())
        values = {key: b"x" * 100 + b"#%d" % key for key in range(64)}
        for key, value in values.items():
            db.put(key, value)
        db.flush()
        iterator = db.iterator()
        head = [next(iterator) for _ in range(5)]
        # Rewrites every file the iterator is positioned over; the
        # iterator's own references keep the old runs alive until it closes.
        db.force_full_compaction()
        tail = list(iterator)
        scanned = dict(head + tail)
        assert scanned == values
        assert dict(db.iterator()) == values  # and the new view agrees
        db.close()

    @pytest.mark.usefixtures("fast_switching")
    def test_reads_see_consistent_data_during_maintenance(self, tmp_path):
        """Three reader threads check every acknowledged write, by ``get``
        and by ``range_query``, while a writer thread's puts seal, flush
        and compact inline; once they are done, ``close()`` leaves exactly
        the live files (no run a reader released is lost or leaked)."""
        db = DB(str(tmp_path / "db"), _options())

        def expected(key):
            return b"gen1-%d" % key if key % 3 == 0 else b"gen0-%d" % key

        acked = [-1]  # highest key whose final value was acknowledged
        writer_done = threading.Event()
        reads = [0]

        def writer():
            try:
                for key in range(240):
                    db.put(key, b"gen0-%d" % key + b"." * 40)
                    if key % 3 == 0:
                        db.put(key, b"gen1-%d" % key)
                    else:
                        db.put(key, b"gen0-%d" % key)
                    acked[0] = key
                    if key % 60 == 59:
                        db.compact()
            finally:
                writer_done.set()

        def reader(seed):
            rng = random.Random(seed)
            while True:
                finished = writer_done.is_set()
                high = acked[0]
                if high >= 0:
                    key = rng.randint(0, high)
                    assert db.get(key) == expected(key), key
                    low = max(0, high - 20)
                    assert db.range_query(low, high) == [
                        (k, expected(k)) for k in range(low, high + 1)
                    ]
                    reads[0] += 1
                if finished:
                    return

        readers = [lambda seed=seed: reader(seed) for seed in (7, 8, 9)]
        assert _run_threads([writer, *readers]) == []
        assert reads[0] > 0
        assert db.stats.flushes > 0 and db.stats.compactions > 0
        assert db.verify().ok
        live = {run.name for run in db.version.all_runs_newest_first()}
        db.close()
        on_disk = {name for name in os.listdir(tmp_path / "db") if name.endswith(".sst")}
        assert on_disk == live


# ----------------------------------------------------------------------
# Scalar / batch parity with several writer threads
# ----------------------------------------------------------------------
class TestParityWithWorkers:
    def test_scalar_and_batch_paths_agree_under_workers(self, tmp_path):
        """Three writer threads, each running the flushes and compactions
        its writes cause: per-key puts and nine-key batches give the same
        answers and the same ``writes`` count (no lost counter update)."""
        items = [(key, b"p" * 50 + b"#%d" % key) for key in range(180)]
        answers = {}
        writes = {}
        for label in ("scalar", "batch"):
            db = DB(str(tmp_path / label), _options())

            def writer(part, db=db, label=label):
                mine = items[part::3]
                if label == "scalar":
                    for key, value in mine:
                        db.put(key, value)
                    return
                for start in range(0, len(mine), 9):
                    batch = db.batch()
                    for key, value in mine[start:start + 9]:
                        batch.put_int(key, value)
                    db.write(batch)

            assert _run_threads([lambda p=p: writer(p) for p in range(3)]) == []
            answers[label] = {key: db.get(key) for key, _ in items}
            writes[label] = db.stats.writes
            assert db.stats.flushes > 0
            db.close()
        assert answers["scalar"] == answers["batch"] == dict(items)
        assert writes["scalar"] == writes["batch"] == len(items)


class TestFilterFirstTouch:
    def test_concurrent_first_touch_resolves_each_run_once(
        self, tmp_path, fast_switching
    ):
        """Eight threads ``get`` at once through a run whose filter envelope
        is corrupt and an intact run, neither resolved yet: the corrupt run
        is degraded once, the intact run's filter block is read once, and
        every answer matches the dict model."""
        db = DB(str(tmp_path / "db"), _options(
            memtable_size_bytes=1 << 20,
            sst_size_bytes=1 << 20,
            level0_file_num_compaction_trigger=4,
            filter_factory=make_factory("bloom", 32, 10),
        ))
        model = {}
        for part in (0, 1):  # two runs over one span: keys 4k, then 4k + 1
            for key in range(part, 800, 4):
                db.put(key, b"v%d" % key)
                model[key] = b"v%d" % key
            db.flush()
        runs = db.version.all_runs_newest_first()
        assert len(runs) == 2
        corrupt, intact = runs
        handle = corrupt.reader._filter_handle  # noqa: SLF001
        with open(db._env.path(corrupt.name), "r+b") as sst:  # noqa: SLF001
            sst.seek(handle.offset)
            sst.write(bytes([sst.read(1)[0] ^ 0xFF]))
        fetches = []
        fetch = intact.reader.filter_block_bytes

        def slow_fetch(context=None):
            fetches.append(threading.get_ident())
            time.sleep(0.01)  # hold the first touch open for the others
            return fetch(context)

        intact.reader.filter_block_bytes = slow_fetch
        start = threading.Barrier(8)

        def reader(seed):
            rng = random.Random(seed)
            start.wait()
            for key in (rng.randrange(800) for _ in range(100)):
                assert db.get(key) == model.get(key)

        assert _run_threads([lambda s=s: reader(s) for s in range(8)]) == []
        assert db.stats.filters_degraded == 1
        assert len(fetches) == 1
        assert db.health().degraded_filters == (corrupt.name,)
        db.close()


# ----------------------------------------------------------------------
# Every maintenance body runs under _write_lock
# ----------------------------------------------------------------------
class TestJobSlot:
    @pytest.mark.usefixtures("fast_switching")
    @pytest.mark.parametrize("seed", range(8))
    def test_maintenance_bodies_never_overlap(self, tmp_path, seed):
        """Every maintenance path holds the one lock, whoever calls it.

        Four threads call ``put`` (sealing writes run flushes and planned
        compactions), ``flush()``, ``compact()`` (a forced L0 merge),
        ``resume()`` after a write fault, ``ingest()`` into an empty level,
        and raise quarantine flags (as a read does) whose in-place filter
        rebuilds the next maintenance point runs — in a seeded order.  Each body holds the CPU a
        moment so that a body running outside the lock meets another one.
        """
        db, env = _faulty_db(
            str(tmp_path / "db"),
            filter_factory=make_factory("rosetta", 32, 14, max_range=32),
            quarantine_filters=True,
        )
        running: list[str] = []
        ran: set[str] = set()
        running_lock = threading.Lock()
        violations: list[str] = []

        def exclusive(name, body):
            def wrapped(*args):
                with running_lock:
                    if running:
                        violations.append(f"{name} started while {running} ran")
                    running.append(name)
                    ran.add(name)
                try:
                    time.sleep(0.0005)
                    return body(*args)
                finally:
                    with running_lock:
                        running.remove(name)
            return wrapped

        def flag_newest_run():
            # What a read does when the detector flags its run, on the
            # superversion the read took.
            runs = db._super.version.all_runs_newest_first()  # noqa: SLF001
            if runs:
                filt = db._filter_dictionary.get_filter(runs[0].reader, db.stats)  # noqa: SLF001
                # 64 point false positives in a row: far past chance
                # at any design FPR a 14 bits/key filter has.
                db._note_filter_outcome(runs[0], filt, 1, 0, 64)  # noqa: SLF001

        compactor = db._writer._compactor  # noqa: SLF001
        apply = compactor.apply

        def checked_apply(version, job, outputs):
            live = {run.name for run in version.all_runs_newest_first()}
            retired = {run.name for run in job.inputs} - live
            if retired:
                violations.append(f"{job.kind} installed retired {retired}")
            apply(version, job, outputs)

        write_ingest_runs = db._writer._write_ingest_runs  # noqa: SLF001

        def ingest_runs(pairs, level):
            flag_newest_run()
            return write_ingest_runs(pairs, level)

        compactor.execute = exclusive("compaction", compactor.execute)
        compactor.apply = checked_apply
        db._writer._flush_oldest_immutable = exclusive(  # noqa: SLF001
            "flush", db._writer._flush_oldest_immutable  # noqa: SLF001
        )
        db._writer._write_ingest_runs = exclusive("ingest", ingest_runs)  # noqa: SLF001
        db._writer._rebuild_filter = exclusive(  # noqa: SLF001
            "rebuild", db._writer._rebuild_filter  # noqa: SLF001
        )

        def until_writable(op):
            """Run ``op``; while the store is parked, resume and retry."""
            while True:
                try:
                    return op()
                except ReadOnlyStoreError:
                    db.resume()

        models = [{} for _ in range(4)]
        ingested = {key: b"i%d" % key for key in range(10_000, 10_600)}

        def fail_one_flush(model):
            # Holding the lock, no other thread's write can take the fault.
            with db._writer._write_lock:  # noqa: SLF001
                while True:  # a tiny put after a seal never seals again
                    db.put(999, b"fault")
                    if not db._super.active.is_empty:  # noqa: SLF001
                        break
                env.fail_next_writes(1)
                db.flush()  # its SST write fails: the store parks
            model[999] = b"fault"

        def client(index):
            rng = random.Random(seed * 31 + index)
            model = models[index]
            for step in range(45):
                if index == 0 and step == 15:
                    fail_one_flush(model)
                if index == 1 and step == 25:
                    until_writable(lambda: db.ingest(ingested.items(), level=5))
                draw = rng.random()
                if draw < 0.6:
                    key = index * 1000 + rng.randrange(40)
                    value = b"c%d-%d-" % (index, step) * 30  # ~200 B
                    until_writable(lambda: db.put(key, value))
                    model[key] = value
                elif draw < 0.75:
                    until_writable(db.flush)
                elif draw < 0.88:
                    until_writable(db.compact)
                else:
                    flag_newest_run()

        errors = _run_threads([lambda i=i: client(i) for i in range(4)])
        assert errors == []
        if db.health().mode == "degraded":
            assert db.resume()
        db.compact()  # runs any rebuild a late flag left queued

        assert violations == []
        assert ran == {"flush", "compaction", "ingest", "rebuild"}
        assert env.injected["write_errors"] == 1
        assert db.stats.filters_quarantined >= 1
        assert db.health().attacked_filters == ()  # every rebuild ran
        assert db.version.level_runs(5)
        expected = dict(ingested)
        for model in models:
            expected.update(model)
        assert {key: db.get(key) for key in expected} == expected
        db.close()
