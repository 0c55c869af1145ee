"""``DB.health()`` self-consistency under concurrent maintenance.

The old implementation read ``_super``, ``_background_error``, and the
degraded-filter set as separate unsynchronized loads, so a concurrent
superversion swap could pair, e.g., a ``healthy`` mode with a stale
``level0_runs`` count or a ``degraded`` mode whose ``background_error``
was ``None``.  The fixed report pins one superversion and reads the
error/stall fields under ``_mutex`` in the same critical section; these
tests drive maintenance through the deterministic scheduler (many
interleavings) and through real worker threads and assert the invariant
pair-wise consistency on every observed report.
"""

from __future__ import annotations

import threading

import pytest

from repro.lsm.db import DB
from repro.lsm.faults import FaultInjectionEnv
from repro.lsm.options import DBOptions
from repro.lsm.scheduler import DeterministicScheduler


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
    assert report.pending_immutables >= 0
    assert report.level0_runs >= 0
    assert report.jobs_in_flight >= 0
    assert report.stall_state in ("none", "slowdown", "stopped")


class TestDeterministicInterleavings:
    @pytest.mark.parametrize("seed", range(6))
    def test_health_consistent_at_every_step(self, tmp_path, seed):
        db = DB(
            str(tmp_path / "db"),
            _options(
                max_background_jobs=1,
                scheduler_factory=lambda _o: DeterministicScheduler(
                    seed=seed
                ),
            ),
        )
        # Writes continuously seal memtables and schedule flushes and
        # compactions; health() taken between every write must always be
        # self-consistent regardless of how the scheduler interleaves the
        # superversion installs.
        for key in range(120):
            db.put(key, b"h" * 96)
            _assert_consistent(db.health())
        db.wait_idle()
        final = db.health()
        _assert_consistent(final)
        assert final.mode == "healthy"
        db.close()


class TestDegradedTransition:
    def test_mode_and_error_flip_together(self, tmp_path):
        holder = {}

        def factory(root, device, stats):
            env = FaultInjectionEnv(root, device, stats, seed=0)
            holder["env"] = env
            return env

        db = DB(
            str(tmp_path / "db"),
            _options(env_factory=factory, max_background_jobs=1),
        )
        db.put(1, b"buffered")
        _assert_consistent(db.health())
        holder["env"].fail_next_writes(1)
        db.flush()  # worker flush fails -> degraded
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
    def test_health_never_tears_under_worker_churn(self, tmp_path):
        db = DB(
            str(tmp_path / "db"),
            _options(max_background_jobs=1, max_immutable_memtables=4),
        )
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
        for key in range(400):
            db.put(key, b"churn" * 24)
        db.wait_idle()
        stop.set()
        for watcher in watchers:
            watcher.join()
        assert not failures
        db.close()
