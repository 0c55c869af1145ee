"""Tests for workload-statistics persistence across store restarts."""

import sys
import threading

from repro.core.tuning import WorkloadTracker
from repro.lsm.db import DB


class TestTrackerSerialization:
    def test_roundtrip(self):
        tracker = WorkloadTracker()
        tracker.record_query(range_size=8)
        tracker.record_query(range_size=8)
        tracker.record_query(range_size=64)
        tracker.record_query(point_queries=1)
        tracker.record_query(false_positives=1)
        tracker.record_query(negatives=1)
        restored = WorkloadTracker.from_dict(tracker.to_dict())
        assert restored.range_size_histogram == {8: 2, 64: 1}
        assert restored.num_point_queries == 1
        assert restored.to_dict() == tracker.to_dict()
        assert restored.to_dict()["false_positives"] == 1

    def test_empty_roundtrip(self):
        restored = WorkloadTracker.from_dict(WorkloadTracker().to_dict())
        assert restored.num_range_queries == 0

    def test_from_partial_dict(self):
        restored = WorkloadTracker.from_dict({"point_queries": 3})
        assert restored.num_point_queries == 3
        assert restored.range_size_histogram == {}


class TestConcurrentCheckpoint:
    def test_recording_while_checkpointing_never_races(self):
        """A reader records while the manifest writer serialises.

        Unlocked (as the tracker was while the store recorded through
        ``record_range_query`` / ``record_filter_outcome``), ``to_dict``
        dies with "dictionary changed size during iteration" within a few
        calls, and ``+=`` loses increments.
        """
        prefilled = 20_000  # a histogram that takes a while to walk
        tracker = WorkloadTracker.from_dict(
            {"range_sizes": {str(size): 1 for size in range(1, prefilled + 1)}}
        )
        per_thread, errors = 3000, []

        def record(offset: int) -> None:
            try:
                for i in range(per_thread):
                    tracker.record_query(range_size=offset + i, negatives=1)
            except Exception as exc:  # noqa: BLE001 - the assertion below
                errors.append(exc)

        def checkpoint() -> None:
            try:
                while any(t.is_alive() for t in recorders):
                    WorkloadTracker.from_dict(tracker.to_dict())
                    tracker.percentile_range_size(0.99)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        recorders = [
            threading.Thread(target=record, args=(prefilled + 1 + n * per_thread,))
            for n in range(3)
        ]
        reader = threading.Thread(target=checkpoint)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in recorders:
                thread.start()
            reader.start()
            for thread in recorders + [reader]:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in recorders + [reader])
        assert errors == []
        assert tracker.num_range_queries == prefilled + 3 * per_thread
        assert tracker.to_dict()["filter_negatives"] == 3 * per_thread


class TestStorePersistence:
    def test_statistics_survive_restart(self, tmp_path, small_db_options):
        path = str(tmp_path / "stats-db")
        db = DB(path, small_db_options)
        for i in range(100):
            db.put(i, bytes(8))
        for _ in range(25):
            db.range_query(5000, 5007)
        db.get(9999)
        db.close()

        db2 = DB(path, small_db_options)
        assert db2.tracker.range_size_histogram == {8: 25}
        assert db2.tracker.num_point_queries == 1
        db2.close()

    def test_histogram_records_the_clamped_width(
        self, tmp_path, small_db_options
    ):
        """The tuner sees what the filters were asked, not the raw bounds."""
        db = DB(str(tmp_path / "clamp"), small_db_options)
        db.put(1, b"x")
        domain = 1 << small_db_options.key_bits
        db.range_query(-5, 1 << 70)        # clamps to the whole domain
        db.range_query(domain - 4, domain + 100)
        db.range_query(1 << 40, 1 << 41)   # misses the domain: nothing asked
        assert db.tracker.range_size_histogram == {domain: 1, 4: 1}
        assert db.last_query.width == 0
        assert db.stats.range_queries == 3
        db.close()

    def test_restored_statistics_drive_tuning(self, tmp_path, small_db_options):
        """A fresh process can retune from the previous session's workload."""
        path = str(tmp_path / "tune-across-restart")
        db = DB(path, small_db_options)
        db.put(1, b"x")
        for _ in range(50):
            db.range_query(100, 103)  # size-4 ranges dominate
        db.close()

        db2 = DB(path, small_db_options)
        decision = db2.retune_filters()
        assert decision.strategy == "single"
        assert decision.max_range == 4
        db2.close()
