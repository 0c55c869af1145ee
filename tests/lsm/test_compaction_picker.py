"""Per-file compaction picking, debt scoring, and begin()-time validation.

Covers the picker-level pieces of the concurrent maintenance design:

* overlap closure — every target-level run intersecting the chosen
  source span is pulled in, and nothing else;
* debt-score ordering — L0 debt (write stalls) always outranks deeper
  bytes-over-target (read amplification), windows within one level drain
  oldest-first;
* conflict-table keying by monotonic ``job_id`` (never ``id(job)``: a
  dropped job object's id can be recycled by a new allocation);
* ``begin()`` re-validation against the *current* version — stale jobs
  whose inputs were retired by a concurrent install are refused, and
  ``drop_tombstones`` is re-derived rather than trusted from plan time.
"""

import random
from types import SimpleNamespace

import pytest

from repro.errors import StoreError
from repro.lsm.compaction import CompactionJob, Compactor
from repro.lsm.options import DBOptions
from repro.lsm.stats import PerfStats
from repro.lsm.version import Run, Version


def _run(name, level, low, high, size=1000):
    """A metadata-only Run: enough for planning, never read."""
    meta = SimpleNamespace(
        name=name, min_key=low, max_key=high, file_size=size
    )
    return Run(reader=SimpleNamespace(meta=meta), level=level)


def _compactor(**overrides):
    options = DBOptions(key_bits=32, **overrides)
    env = SimpleNamespace(stats=PerfStats())
    return Compactor(env, options, None, None)


# ----------------------------------------------------------------------
# Overlap closure
# ----------------------------------------------------------------------
class TestOverlapClosure:
    def _version(self):
        return Version(
            levels={
                2: [
                    _run("sst_2_00000001.sst", 2, b"aa", b"cc"),
                    _run("sst_2_00000002.sst", 2, b"dd", b"ff"),
                    _run("sst_2_00000003.sst", 2, b"gg", b"ii"),
                    _run("sst_2_00000004.sst", 2, b"jj", b"ll"),
                ]
            }
        )

    def test_includes_every_intersecting_run_and_nothing_else(self):
        version = self._version()
        closure = version.overlap_closure(2, b"ee", b"hh")
        assert [r.name for r in closure] == [
            "sst_2_00000002.sst",
            "sst_2_00000003.sst",
        ]

    def test_boundary_touch_counts_as_overlap(self):
        version = self._version()
        # Inclusive bounds: a span ending exactly at a run's min key (or
        # starting at its max key) intersects it.
        closure = version.overlap_closure(2, b"cc", b"dd")
        assert [r.name for r in closure] == [
            "sst_2_00000001.sst",
            "sst_2_00000002.sst",
        ]

    def test_disjoint_span_yields_empty_closure(self):
        version = self._version()
        assert version.overlap_closure(2, b"cd", b"cz") == []
        assert version.overlap_closure(2, b"zz", b"zzz") == []

    def test_unbounded_sides_cover_the_level(self):
        version = self._version()
        assert len(version.overlap_closure(2, None, None)) == 4
        assert [
            r.name for r in version.overlap_closure(2, b"hh", None)
        ] == ["sst_2_00000003.sst", "sst_2_00000004.sst"]

    def test_closure_is_contiguous(self):
        """Closures over a sorted non-overlapping level are run-list slices.

        This contiguity is what makes partial-level installs safe: runs
        outside the closure cannot intersect the merge's key footprint.
        """
        version = self._version()
        names = [r.name for r in version.level_runs(2)]
        rng = random.Random(11)
        for _ in range(50):
            lo = bytes([rng.randrange(ord("a"), ord("m"))]) * 2
            hi = bytes([rng.randrange(ord("a"), ord("m"))]) * 2
            if hi < lo:
                lo, hi = hi, lo
            closure = [r.name for r in version.overlap_closure(2, lo, hi)]
            if closure:
                start = names.index(closure[0])
                assert closure == names[start:start + len(closure)]


# ----------------------------------------------------------------------
# Debt-scored candidate ordering
# ----------------------------------------------------------------------
class TestDebtOrdering:
    def test_l0_debt_outranks_deeper_bytes_over_target(self):
        compactor = _compactor(
            level0_file_num_compaction_trigger=2,
            max_bytes_for_level_base=1000,
            level_size_ratio=2,
        )
        version = Version(
            level0=[
                _run("sst_0_00000009.sst", 0, b"aa", b"zz", size=100),
                _run("sst_0_00000008.sst", 0, b"aa", b"zz", size=100),
            ],
            # L1 is massively over its 1000-byte target — but L0 at its
            # trigger stalls writers, so it must still win.
            levels={1: [_run("sst_1_00000001.sst", 1, b"aa", b"zz", size=50_000)]},
        )
        candidates = list(compactor._candidates(version))
        assert candidates[0].kind == "leveled-l0"
        assert candidates[0].debt_score > candidates[-1].debt_score
        assert any(job.kind == "leveled-level" for job in candidates)

    def test_deeper_levels_ranked_by_overflow_ratio(self):
        compactor = _compactor(
            level0_file_num_compaction_trigger=8,
            max_bytes_for_level_base=1000,
            level_size_ratio=2,
        )
        version = Version(
            levels={
                # L1 target 1000 -> ratio 1.5; L2 target 2000 -> ratio 3.
                1: [_run("sst_1_00000001.sst", 1, b"aa", b"bb", size=1500)],
                2: [_run("sst_2_00000002.sst", 2, b"cc", b"dd", size=6000)],
            }
        )
        candidates = list(compactor._candidates(version))
        assert [job.source_level for job in candidates] == [2, 1]

    def test_windows_within_a_level_drain_oldest_first(self):
        compactor = _compactor(
            level0_file_num_compaction_trigger=8,
            max_bytes_for_level_base=100,
            max_compaction_input_files=2,
        )
        # Sorted by key, but allocation order (the file number) says the
        # middle window is oldest.
        version = Version(
            levels={
                1: [
                    _run("sst_1_00000007.sst", 1, b"aa", b"bb"),
                    _run("sst_1_00000008.sst", 1, b"cc", b"dd"),
                    _run("sst_1_00000001.sst", 1, b"ee", b"ff"),
                    _run("sst_1_00000002.sst", 1, b"gg", b"hh"),
                ]
            }
        )
        candidates = list(compactor._candidates(version))
        assert [job.kind for job in candidates] == ["leveled-level"] * 2
        assert [r.name for r in candidates[0].inputs] == [
            "sst_1_00000001.sst",
            "sst_1_00000002.sst",
        ]
        assert candidates[0].range_low == b"ee"
        assert candidates[0].range_high == b"hh"

    def test_window_pulls_exact_target_closure(self):
        compactor = _compactor(
            level0_file_num_compaction_trigger=8,
            max_bytes_for_level_base=100,
            max_compaction_input_files=1,
        )
        version = Version(
            levels={
                1: [_run("sst_1_00000001.sst", 1, b"cc", b"ff")],
                2: [
                    _run("sst_2_00000002.sst", 2, b"aa", b"bb", size=10),
                    _run("sst_2_00000003.sst", 2, b"cc", b"dd", size=10),
                    _run("sst_2_00000004.sst", 2, b"ee", b"ff", size=10),
                    _run("sst_2_00000005.sst", 2, b"gg", b"hh", size=10),
                ],
            }
        )
        [job] = list(compactor._candidates(version))
        assert [r.name for r in job.inputs] == [
            "sst_1_00000001.sst",
            "sst_2_00000003.sst",
            "sst_2_00000004.sst",
        ]
        assert (job.range_low, job.range_high) == (b"cc", b"ff")
        # Bottom-most populated level is the output: tombstones drop.
        assert job.drop_tombstones

    def test_forced_l0_job_uses_l1_closure(self):
        compactor = _compactor(level0_file_num_compaction_trigger=8)
        version = Version(
            level0=[_run("sst_0_00000009.sst", 0, b"cc", b"dd")],
            levels={
                1: [
                    _run("sst_1_00000001.sst", 1, b"aa", b"bb"),
                    _run("sst_1_00000002.sst", 1, b"cc", b"ee"),
                    _run("sst_1_00000003.sst", 1, b"ff", b"gg"),
                ]
            },
        )
        job = compactor.forced_l0_job(version)
        assert [r.name for r in job.inputs] == [
            "sst_0_00000009.sst",
            "sst_1_00000002.sst",
        ]
        assert (job.range_low, job.range_high) == (b"cc", b"ee")


# ----------------------------------------------------------------------
# Conflict-table keying (regression: id(job) aliasing)
# ----------------------------------------------------------------------
class TestJobIdKeying:
    def test_job_ids_are_monotonic_and_never_reused(self):
        compactor = _compactor()
        first = CompactionJob("leveled-level", [], 1, False, source_level=1)
        compactor.begin(first)
        compactor.finish(first)
        second = CompactionJob("leveled-level", [], 3, False, source_level=3)
        compactor.begin(second)
        assert first.job_id == 1
        assert second.job_id == 2

    def test_recycled_object_identity_cannot_alias_entries(self):
        """A new job at a dead job's address must not shadow its entry.

        Keyed by ``id(job)``, CPython reusing the freed dataclass
        allocation would overwrite the still-in-flight registration and a
        later ``finish()`` on the new job would silently evict it.
        """
        compactor = _compactor()
        job = CompactionJob("leveled-level", [], 1, False, source_level=1)
        compactor.begin(job)
        stale_id = job.job_id
        del job  # the registration must outlive the object
        # Allocate until the address space demonstrably recycles; every
        # new job must land in its own slot regardless.
        for output in range(3, 9):
            replacement = CompactionJob(
                "leveled-level", [], output, False, source_level=output
            )
            compactor.begin(replacement)
            compactor.finish(replacement)
        assert compactor.inflight_jobs() == 1  # the stale entry survived
        ghost = CompactionJob("leveled-level", [], 1, False, source_level=1)
        ghost.job_id = stale_id
        compactor.finish(ghost)
        assert compactor.inflight_jobs() == 0

    def test_finish_before_begin_is_a_no_op(self):
        compactor = _compactor()
        job = CompactionJob("leveled-level", [], 1, False, source_level=1)
        compactor.finish(job)  # job_id is None: nothing to drop
        assert compactor.inflight_jobs() == 0


# ----------------------------------------------------------------------
# begin()-time revalidation against the current version
# ----------------------------------------------------------------------
class TestBeginRevalidation:
    def _job(self, names, source=1, output=2, drop=False):
        return CompactionJob(
            kind="leveled-level",
            inputs=[
                _run(name, source, b"aa", b"zz") for name in names
            ],
            output_level=output,
            drop_tombstones=drop,
            source_level=source,
        )

    def test_stale_inputs_are_refused_and_counted(self):
        compactor = _compactor()
        job = self._job(["sst_1_00000001.sst", "sst_1_00000002.sst"])
        # Between plan() and dispatch an install retired one input.
        current = Version(
            levels={1: [_run("sst_1_00000001.sst", 1, b"aa", b"mm")]}
        )
        with pytest.raises(StoreError, match="retired"):
            compactor.begin(job, lambda: current)
        assert compactor.inflight_jobs() == 0
        assert compactor._env.stats.stale_jobs_rejected == 1

    def test_live_inputs_admit_and_rederive_drop_tombstones(self):
        compactor = _compactor()
        # Planned when L3 held data: drop_tombstones was False.
        job = self._job(["sst_1_00000001.sst"], drop=False)
        # By dispatch time L3 drained: the output level is now the
        # bottom, so the merge may drop tombstones after all.
        current = Version(
            levels={1: [_run("sst_1_00000001.sst", 1, b"aa", b"zz")]}
        )
        compactor.begin(job, lambda: current)
        assert job.drop_tombstones is True
        assert compactor._env.stats.stale_jobs_rejected == 0

    def test_rederivation_can_also_revoke_tombstone_drop(self):
        compactor = _compactor()
        # Planned when the output was the bottom level; a concurrent
        # install then populated L3, so dropping would resurrect deletes.
        job = self._job(["sst_1_00000001.sst"], drop=True)
        current = Version(
            levels={
                1: [_run("sst_1_00000001.sst", 1, b"aa", b"zz")],
                3: [_run("sst_3_00000009.sst", 3, b"aa", b"zz")],
            }
        )
        compactor.begin(job, lambda: current)
        assert job.drop_tombstones is False

    def test_no_provider_preserves_plan_time_decision(self):
        compactor = _compactor()
        job = self._job(["sst_1_00000001.sst"], drop=True)
        compactor.begin(job)
        assert job.drop_tombstones is True
