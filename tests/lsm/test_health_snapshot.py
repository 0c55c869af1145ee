"""``DB.health()`` self-consistency while another thread runs maintenance.

The report pins one superversion and reads the background error under
``_mutex`` in the same critical section, so a concurrent superversion swap
or degraded-mode flip can never pair, e.g., a ``healthy`` mode with a
stale ``level0_runs`` count or a ``degraded`` mode whose
``background_error`` is ``None``.  These tests drive inline flushes,
compactions and write faults from a writer thread while observer threads
take reports, and assert the pair-wise consistency of every one.
"""

from __future__ import annotations

import threading

from repro.errors import ReadOnlyStoreError
from repro.lsm.db import DB
from repro.lsm.faults import FaultInjectionEnv
from repro.lsm.options import DBOptions


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


def _assert_consistent(report) -> None:
    """The pairings a torn read could break."""
    assert (report.mode == "degraded") == (
        report.background_error is not None
    ), report
    # A seal and the flush it dispatches run under one hold of the write
    # lock, so a report sees at most the one sealed memtable in between.
    assert report.pending_immutables in (0, 1), report
    assert report.level0_runs >= 0


class TestDegradedTransition:
    def test_mode_and_error_flip_together(self, tmp_path):
        holder = {}

        def factory(root, device, stats):
            env = FaultInjectionEnv(root, device, stats, seed=0)
            holder["env"] = env
            return env

        db = DB(str(tmp_path / "db"), _options(env_factory=factory))
        db.put(1, b"buffered")
        _assert_consistent(db.health())
        holder["env"].fail_next_writes(1)
        db.flush()  # the flush fails -> degraded
        degraded = db.health()
        _assert_consistent(degraded)
        assert degraded.mode == "degraded"
        assert "flush" in degraded.background_error
        assert db.resume()
        recovered = db.health()
        _assert_consistent(recovered)
        assert recovered.mode == "healthy"
        db.close()


class TestThreadedObservers:
    def test_health_never_tears_while_a_writer_runs_maintenance(
        self, tmp_path
    ):
        holder = {}

        def factory(root, device, stats):
            env = FaultInjectionEnv(root, device, stats, seed=0)
            holder["env"] = env
            return env

        db = DB(str(tmp_path / "db"), _options(env_factory=factory))
        env = holder["env"]
        stop = threading.Event()
        failures: list[AssertionError] = []

        def observer() -> None:
            while not stop.is_set():
                try:
                    _assert_consistent(db.health())
                except AssertionError as exc:
                    failures.append(exc)
                    return

        watchers = [threading.Thread(target=observer) for _ in range(3)]
        for watcher in watchers:
            watcher.start()
        try:
            for key in range(400):
                if key % 50 == 25:
                    # The next durable write fails: a WAL append raises,
                    # a flush or compaction parks the store.
                    env.fail_next_writes(1)
                try:
                    db.put(key, b"churn" * 24)
                except ReadOnlyStoreError:
                    pass
                if db.health().mode == "degraded":
                    assert db.resume()
        finally:
            stop.set()
            for watcher in watchers:
                watcher.join()
        assert not failures
        assert env.injected["write_errors"] == 8
        assert db.stats.background_errors == 8  # each fault parked the store
        assert db.stats.flushes > 0 and db.stats.compactions > 0
        db.close()
