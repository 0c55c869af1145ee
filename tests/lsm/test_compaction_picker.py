"""Per-file compaction picking and debt scoring.

* overlap closure — every target-level run intersecting the chosen
  source span is pulled in, and nothing else;
* debt-score ordering — L0 debt (write stalls) always outranks deeper
  bytes-over-target (read amplification), windows within one level drain
  oldest-first.
"""

import random
from types import SimpleNamespace

from repro.lsm.compaction import Compactor
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
        assert candidates[0].kind == "leveled-l0"
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

