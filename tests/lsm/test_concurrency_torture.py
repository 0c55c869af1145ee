"""Tier-1 slice of the concurrent-maintenance torture matrix.

The full matrix lives in ``benchmarks/torture.py``; this keeps a small
seeded corner of it in the regular test run: every crash point of a few
workload seeds under multiple deterministic scheduler seeds — power cuts
landing mid-flush, mid-compaction, and mid-superversion-install on the
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
            assert not report.violations, "\n".join(report.violations)

    def test_single_crash_point_result_shape(self, tmp_path):
        result = run_crash_point(str(tmp_path), 3, 5, _SMALL, sched_seed=0)
        assert result.crash_point == 5
        assert result.crashed           # op 5 lands well inside the schedule
        assert result.durable_ops >= 1
        assert result.violations == []

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
