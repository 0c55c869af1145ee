"""Tier-1 slice of the concurrent-maintenance torture matrix.

The full matrix lives in ``benchmarks/torture.py``; this keeps a small
seeded corner of it in the regular test run: every crash point of a few
workload seeds under multiple deterministic scheduler seeds — power cuts
landing mid-flush, mid-compaction, and mid-superversion-install on a
worker thread — plus the interleaving-equivalence check (background
maintenance may change *when* work happens, never what the store
answers).
"""

from repro.lsm.torture import (
    TortureConfig,
    run_crash_point,
    schedule_equivalence,
    torture_seed,
)

_SMALL = TortureConfig(num_ops=16, key_space=48)
# Nearly every put seals (values ~0.6 KiB against the 1 KiB memtable
# floor), so a flush gets queued while the previous flush's compaction is
# still in flight — this is the config that actually exercises two jobs
# installing concurrently.  Background jobs only yield at durable writes,
# so smaller values never hand the writer enough turns to seal mid-job.
_OVERLAP = TortureConfig(
    num_ops=20, key_space=48, value_repeat=96, put_bias=0.9
)
# Wider key space + single-run compaction windows: an oversize level
# splinters into several leveled jobs with disjoint key footprints, so the
# conflict table gets to admit two leveled compactions into the *same*
# level pair concurrently (counted by ``leveled_range_admissions``).
_RANGE = TortureConfig(
    num_ops=32,
    key_space=512,
    value_repeat=96,
    put_bias=0.95,
    max_compaction_input_files=1,
)


class TestConcurrentCrashSweep:
    def test_every_crash_point_recovers_clean(self, tmp_path):
        for seed in (1, 2):
            report = torture_seed(
                str(tmp_path), seed, _SMALL, sched_seeds=(0, 1)
            )
            assert report.crash_points > 0, "sweep never crashed — misconfigured"
            by_schedule = report.crash_points_by_schedule
            assert set(by_schedule) == {0, 1}
            assert sum(by_schedule.values()) == report.crash_points
            assert report.ok, "\n".join(report.violations)

    def test_single_crash_point_result_shape(self, tmp_path):
        result = run_crash_point(str(tmp_path), 3, 5, _SMALL, sched_seed=0)
        assert result.crash_point == 5
        assert result.crashed           # op 5 lands well inside the schedule
        assert result.durable_ops >= 1
        assert result.violations == []

    def test_crash_points_land_mid_overlap(self, tmp_path):
        """Power cuts while two jobs are genuinely in flight recover clean.

        The sweep must observe overlapping jobs (otherwise it silently
        degenerates into the inline matrix), every recovery must verify
        against the model, and the zombie-run check inside
        ``_verify_recovery`` must find no leaked ``.sst`` or ``.tmp``
        files — a botched refcount on a run cancelled mid-install would
        show up here.
        """
        report = torture_seed(
            str(tmp_path), 7, _OVERLAP, sched_seeds=(0,)
        )
        assert report.crash_points > 0
        assert report.max_jobs_in_flight >= 2
        assert report.overlapped_crash_points > 0
        assert report.ok, "\n".join(report.violations)

    def test_crash_points_land_mid_range_admission(self, tmp_path):
        """Power cuts during same-level-pair leveled parallelism recover.

        The sweep must witness range-disjoint admissions — cuts landing
        between one window job's install and its sibling's mean the
        union-merge install path and zombie GC run under partial-level
        concurrency, exactly the shape per-file picking introduced.
        """
        report = torture_seed(
            str(tmp_path), 7, _RANGE, sched_seeds=(0,)
        )
        assert report.crash_points > 0
        assert report.max_jobs_in_flight >= 2
        assert report.leveled_range_admissions > 0
        assert report.ok, "\n".join(report.violations)

    def test_crash_point_past_schedule_never_fires(self, tmp_path):
        result = run_crash_point(
            str(tmp_path), 3, 1_000_000, _SMALL, sched_seed=0
        )
        assert not result.crashed
        assert result.acked_ops == _SMALL.num_ops
        assert result.violations == []


class TestScheduleEquivalence:
    def test_interleavings_answer_identically(self, tmp_path):
        for seed in (1, 4):
            outcome = schedule_equivalence(
                str(tmp_path), seed, _SMALL, sched_seeds=(0, 1, 2)
            )
            assert outcome["interleavings"] == 4  # inline + 3 scheduler seeds
            assert outcome["equivalent"], outcome["mismatches"]

    def test_overlapping_interleavings_answer_identically(self, tmp_path):
        """Answers stay fixed even when jobs demonstrably overlap."""
        outcome = schedule_equivalence(
            str(tmp_path), 7, _OVERLAP, sched_seeds=(0, 1)
        )
        assert outcome["equivalent"], outcome["mismatches"]
        assert outcome["jobs_overlapped"] > 0
        assert outcome["max_jobs_in_flight"] >= 2

    def test_same_level_pair_parallelism_answers_identically(self, tmp_path):
        """Two leveled jobs in one level pair never change the answers.

        The sweep must actually witness a range-disjoint admission
        (``leveled_range_admissions > 0``) — otherwise the conflict table
        quietly serialized everything and this test degenerates into the
        plain overlap check.
        """
        outcome = schedule_equivalence(
            str(tmp_path), 7, _RANGE, sched_seeds=(0, 1)
        )
        assert outcome["equivalent"], outcome["mismatches"]
        assert outcome["max_jobs_in_flight"] >= 2
        assert outcome["leveled_range_admissions"] > 0
