"""Per-file compaction picking and debt scoring.

* overlap closure — every target-level run intersecting the chosen
  source span is pulled in, and nothing else;
* debt-score ordering — L0 debt (read fan-out) always outranks deeper
  bytes-over-target (read amplification), windows within one level drain
  oldest-first;
* L0 routing — at its trigger L0 merges into itself while its L1 closure
  holds more than ``LEVEL_SIZE_RATIO`` times its bytes, else into L1.
"""

import random
from types import SimpleNamespace

from repro.lsm import compaction
from repro.lsm.compaction import Compactor
from repro.lsm.db import DB
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
        assert candidates[0].source_level == 0
        assert candidates[0].debt_score > candidates[-1].debt_score
        assert any(job.kind == "leveled-level" for job in candidates)

    def test_deeper_levels_ranked_by_overflow_ratio(self):
        compactor = _compactor(
            level0_file_num_compaction_trigger=8,
            max_bytes_for_level_base=1000,
        )
        version = Version(
            levels={
                # L1 target 1000 -> ratio 1.5; L2 target 10000 -> ratio 3.
                1: [_run("sst_1_00000001.sst", 1, b"aa", b"bb", size=1500)],
                2: [_run("sst_2_00000002.sst", 2, b"cc", b"dd", size=30_000)],
            }
        )
        candidates = list(compactor._candidates(version))
        assert [job.source_level for job in candidates] == [2, 1]

    def test_windows_within_a_level_drain_oldest_first(self, monkeypatch):
        monkeypatch.setattr(compaction, "MAX_COMPACTION_INPUT_FILES", 2)
        compactor = _compactor(
            level0_file_num_compaction_trigger=8,
            max_bytes_for_level_base=100,
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

    def test_window_pulls_exact_target_closure(self, monkeypatch):
        monkeypatch.setattr(compaction, "MAX_COMPACTION_INPUT_FILES", 1)
        compactor = _compactor(
            level0_file_num_compaction_trigger=8,
            max_bytes_for_level_base=100,
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



# ----------------------------------------------------------------------
# L0 routing: intra-L0 merge while L1 dwarfs L0
# ----------------------------------------------------------------------
class TestIntraL0:
    def _version(self, l1_size, l0_sizes=(100, 100, 100)):
        level0 = [
            _run(f"sst_0_{9 - i:08d}.sst", 0, b"bb", b"yy", size=size)
            for i, size in enumerate(l0_sizes)
        ]
        levels = {}
        if l1_size:
            levels[1] = [_run("sst_1_00000001.sst", 1, b"aa", b"zz", size=l1_size)]
        return Version(level0=level0, levels=levels)

    def _plan(self, version, trigger=3):
        compactor = _compactor(
            level0_file_num_compaction_trigger=trigger,
            max_bytes_for_level_base=1 << 30,
        )
        return compactor.plan(version)

    def test_closure_over_ten_times_l0_merges_l0_into_itself(self):
        version = self._version(l1_size=3001)
        job = self._plan(version)
        assert job.kind == "intra-l0"
        assert [r.name for r in job.inputs] == [r.name for r in version.level0]
        assert job.output_level == 0
        assert not job.drop_tombstones

    def test_closure_within_ten_times_l0_merges_into_l1(self):
        # Exactly the size ratio is a level the tree already keeps.
        job = self._plan(self._version(l1_size=3000))
        assert job.kind == "leveled-l0"
        assert job.output_level == 1

    def test_empty_l1_takes_l0(self):
        job = self._plan(self._version(l1_size=0))
        assert job.kind == "leveled-l0"

    def test_one_l0_file_at_trigger_one_goes_to_l1(self):
        version = self._version(l1_size=1 << 20, l0_sizes=(100,))
        job = self._plan(version, trigger=1)
        assert job.kind == "leveled-l0"

    def test_install_puts_the_output_in_the_inputs_place(self):
        version = self._version(l1_size=3001)
        job = self._plan(version)
        output = _run("sst_0_00000010.sst", 0, b"bb", b"yy", size=300)
        _compactor().apply(version, job, [output])
        assert version.level0 == [output]
        assert [r.name for r in version.level_runs(1)] == ["sst_1_00000001.sst"]


def _loaded_db(path, trigger, **overrides):
    """A store whose L1 dwarfs its L0 memtables: intra-L0 territory."""
    options = DBOptions(
        key_bits=32,
        memtable_size_bytes=1024,
        block_size_bytes=128,
        level0_file_num_compaction_trigger=trigger,
        max_bytes_for_level_base=1 << 20,
        **overrides,
    )
    db = DB(str(path), options)
    for key in range(0, 6000, 3):
        db.put(key, bytes(16))
    db.compact()
    return db


class TestIntraL0Store:
    def test_compact_still_forces_l0_into_l1(self, tmp_path):
        db = _loaded_db(tmp_path / "db", trigger=3, sst_size_bytes=4096)
        for batch in range(2):
            for key in range(batch + 1, 6000, 150):
                db.put(key, b"fresh")
            db.flush()
        # Two L0 files under an L1 over ten times their size: at a trigger
        # of 2 the planner would merge them into L0.
        assert len(db.version.level0) == 2
        routed = _compactor(level0_file_num_compaction_trigger=2).plan(db.version)
        assert routed.kind == "intra-l0"
        db.compact()
        assert db.version.level0 == []
        assert db.get(1) == b"fresh" and db.get(3) == bytes(16)
        db.close()

    def test_intra_l0_output_is_one_pinned_l0_file(self, tmp_path):
        db = _loaded_db(tmp_path / "db", trigger=2, sst_size_bytes=128)
        assert db.version.level0 == []
        # Keys spread over the whole key span: the closure is all of L1.
        for batch in range(2):
            for key in range(batch + 1, 6000, 150):
                db.put(key, b"fresh")
            db.flush()
        [run] = db.version.level0
        assert run.reader.meta.num_entries == 80
        assert run.file_size > 128  # never cut at sst_size_bytes
        assert db.version.level_runs(0) == [run] and run.level == 0
        assert db.get(5852) == b"fresh" and db.get(0) == bytes(16)
        db.close()

    def test_plan_runs_dry_at_low_triggers_with_tiny_files(
        self, tmp_path, monkeypatch
    ):
        """Each intra merge lowers the L0 file count, so planning stops."""
        for trigger in (1, 2):
            db = _loaded_db(
                tmp_path / f"t{trigger}", trigger=trigger, sst_size_bytes=128
            )
            real_plan = db._writer._compactor.plan  # noqa: SLF001
            streak, kinds = [], set()

            def bounded_plan(
                version, real_plan=real_plan, streak=streak, kinds=kinds
            ):
                job = real_plan(version)
                streak.append(job)
                if job is None:
                    streak.clear()
                else:
                    kinds.add(job.kind)
                assert len(streak) <= 8, [j.kind for j in streak]
                return job

            monkeypatch.setattr(db._writer._compactor, "plan", bounded_plan)  # noqa: SLF001
            keys = random.Random(trigger).sample(range(1, 6000, 3), 1000)
            for key in keys:
                db.put(key, b"fresh")
            db.flush()
            # Trigger 1 never has the two inputs an intra merge needs.
            assert ("intra-l0" in kinds) == (trigger == 2)
            assert all(db.get(key) == b"fresh" for key in keys[::50])
            db.close()
