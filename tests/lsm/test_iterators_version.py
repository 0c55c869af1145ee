"""Unit tests for the merging iterator and level/run metadata."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.lsm.format import ValueTag
from repro.lsm.iterators import MergingIterator, live_entries
from repro.lsm.version import Version


def _stream(entries):
    return iter(entries)


class TestMergingIterator:
    def test_merges_in_key_order(self):
        merged = MergingIterator(
            [
                (0, _stream([(b"a", 0, b"1"), (b"c", 0, b"3")])),
                (1, _stream([(b"b", 0, b"2"), (b"d", 0, b"4")])),
            ]
        )
        assert [k for k, _, _ in merged] == [b"a", b"b", b"c", b"d"]

    def test_newest_wins_on_ties(self):
        merged = MergingIterator(
            [
                (1, _stream([(b"k", 0, b"old")])),
                (0, _stream([(b"k", 0, b"new")])),
            ]
        )
        assert list(merged) == [(b"k", 0, b"new")]

    def test_three_way_tie(self):
        merged = MergingIterator(
            [
                (2, _stream([(b"k", 0, b"oldest")])),
                (0, _stream([(b"k", 0, b"newest")])),
                (1, _stream([(b"k", 0, b"middle")])),
            ]
        )
        assert list(merged) == [(b"k", 0, b"newest")]

    def test_empty_sources(self):
        assert list(MergingIterator([])) == []
        assert list(MergingIterator([(0, _stream([]))])) == []

    def test_tombstone_shadows_older_put(self):
        merged = MergingIterator(
            [
                (0, _stream([(b"k", ValueTag.DELETE, b"")])),
                (1, _stream([(b"k", ValueTag.PUT, b"v")])),
            ]
        )
        assert list(live_entries(merged)) == []

    def test_live_entries_strips_tombstones_only(self):
        merged = [
            (b"a", ValueTag.PUT, b"1"),
            (b"b", ValueTag.DELETE, b""),
            (b"c", ValueTag.PUT, b"3"),
        ]
        assert list(live_entries(merged)) == [(b"a", b"1"), (b"c", b"3")]

    def test_interleaved_duplicates_across_streams(self):
        merged = MergingIterator(
            [
                (0, _stream([(b"a", 0, b"A0"), (b"b", 0, b"B0")])),
                (1, _stream([(b"a", 0, b"A1"), (b"c", 0, b"C1")])),
            ]
        )
        assert list(merged) == [
            (b"a", 0, b"A0"),
            (b"b", 0, b"B0"),
            (b"c", 0, b"C1"),
        ]


class _FakeMeta:
    def __init__(self, name, min_key, max_key, size=100):
        self.name = name
        self.min_key = min_key
        self.max_key = max_key
        self.file_size = size
        self.num_entries = 1

    def overlaps(self, low, high):
        return self.min_key <= high and self.max_key >= low


class _FakeReader:
    def __init__(self, meta):
        self.meta = meta


def _run(name, min_key, max_key, level=1, size=100):
    from repro.lsm.version import Run

    meta = _FakeMeta(name, min_key, max_key, size)
    run = Run(reader=_FakeReader(meta), level=level)
    return run


class TestVersion:
    def test_level0_ordering_newest_first(self):
        version = Version()
        version.add_level0(_run("old", b"a", b"z", level=0))
        version.add_level0(_run("new", b"a", b"z", level=0))
        assert [r.name for r in version.level0] == ["new", "old"]

    def test_install_level_sorts(self):
        version = Version()
        version.install_level(
            1, [_run("b", b"m", b"p"), _run("a", b"a", b"c")]
        )
        assert [r.name for r in version.levels[1]] == ["a", "b"]

    def test_install_level_rejects_overlap(self):
        version = Version()
        with pytest.raises(StoreError):
            version.install_level(
                1, [_run("a", b"a", b"m"), _run("b", b"l", b"z")]
            )

    def test_install_level_rejects_level0(self):
        with pytest.raises(StoreError):
            Version().install_level(0, [])

    def test_runs_for_range_newest_first(self):
        version = Version()
        version.add_level0(_run("l0-old", b"a", b"z", level=0))
        version.add_level0(_run("l0-new", b"a", b"z", level=0))
        version.install_level(1, [_run("l1", b"a", b"m")])
        version.install_level(2, [_run("l2", b"a", b"z")])
        names = [r.name for r in version.runs_for_range(b"b", b"c")]
        assert names == ["l0-new", "l0-old", "l1", "l2"]

    def test_runs_for_range_prunes_by_span(self):
        version = Version()
        version.install_level(1, [_run("left", b"a", b"c"), _run("right", b"x", b"z")])
        assert [r.name for r in version.runs_for_range(b"y", b"z")] == ["right"]
        assert version.runs_for_range(b"d", b"e") == []

    def test_level_size_accounting(self):
        version = Version()
        version.install_level(1, [_run("a", b"a", b"b", size=100),
                                  _run("b", b"c", b"d", size=250)])
        assert version.level_size_bytes(1) == 350
        assert version.level_size_bytes(3) == 0

    def test_max_populated_level(self):
        version = Version()
        assert version.max_populated_level() == 0
        version.install_level(3, [_run("x", b"a", b"b")])
        assert version.max_populated_level() == 3

    def test_total_files_and_describe(self):
        version = Version()
        version.add_level0(_run("0", b"a", b"b", level=0))
        version.install_level(1, [_run("1", b"c", b"d")])
        assert version.total_files() == 2
        summary = version.describe()
        assert "L0: 1 files" in summary
        assert "L1: 1 files" in summary


# ----------------------------------------------------------------------
# runs_for_range: the per-level file index equals the scan it replaces
# ----------------------------------------------------------------------
def _key(number):
    return number.to_bytes(2, "big")


def _disjoint_files(points, prefix, level):
    """Consecutive pairs of sorted distinct ``points`` become disjoint files."""
    return [
        _run(f"{prefix}-{index}", _key(points[index]), _key(points[index + 1]), level)
        for index in range(0, len(points) - 1, 2)
    ]


_POINTS = st.lists(st.integers(0, 120), min_size=2, max_size=24, unique=True).map(sorted)


@st.composite
def _trees(draw):
    version = Version()
    # L0: spans overlap freely, so its index is scanned, not bisected.
    for index in range(draw(st.integers(0, 4))):
        low, high = sorted(draw(st.tuples(st.integers(0, 120), st.integers(0, 120))))
        version.add_level0(_run(f"l0-{index}", _key(low), _key(high), level=0))
    for level in range(1, draw(st.integers(1, 4)) + 1):
        version.install_level(level, _disjoint_files(draw(_POINTS), f"l{level}", level))
    return version


def _scan(version, low, high):
    return [
        run.name
        for run in version.all_runs_newest_first()
        if run.reader.meta.min_key <= high and run.reader.meta.max_key >= low
    ]


@settings(max_examples=150, deadline=None)
@given(
    version=_trees(),
    drawn=st.lists(st.tuples(st.integers(0, 121), st.integers(0, 121)), max_size=20),
)
def test_property_runs_for_range_equals_the_scan(version, drawn):
    ranges = {tuple(sorted(pair)) for pair in drawn}
    for run in version.all_runs_newest_first():
        low = int.from_bytes(run.reader.meta.min_key, "big")
        high = int.from_bytes(run.reader.meta.max_key, "big")
        ranges |= {
            (low, low), (high, high),  # point ranges on a file's edges
            (max(low - 1, 0), low), (high, high + 1),  # touching only an edge
            (max(low - 1, 0), max(low - 1, 0)), (high + 1, high + 1),  # in the gap beside it
            (low, high), (max(low - 3, 0), high + 3),  # spanning it and its neighbours
        }
    ranges.add((0, 121))
    queries = [(_key(low), _key(high)) for low, high in sorted(ranges)]
    expected = [_scan(version, low, high) for low, high in queries]
    for frozen in (False, True):  # an index built per call, then the kept one
        if frozen:
            version.freeze()
        answers = [
            [run.name for run in version.runs_for_range(low, high)] for low, high in queries
        ]
        assert answers == expected


class TestFileIndex:
    def test_clone_of_a_frozen_version_is_editable_and_reindexed(self):
        version = Version()
        version.install_level(1, [_run("a", b"a", b"c")])
        version.freeze()
        edited = version.clone()
        edited.install_level(1, [_run("a", b"a", b"c"), _run("x", b"x", b"z")])
        assert [r.name for r in edited.runs_for_range(b"y", b"y")] == ["x"]
        assert version.runs_for_range(b"y", b"y") == []  # the frozen shape stands
        edited.freeze()
        assert [r.name for r in edited.runs_for_range(b"y", b"y")] == ["x"]

    def test_every_installed_version_answers_through_the_index(
        self, tmp_path, monkeypatch
    ):
        from repro.lsm.db import DB
        from repro.lsm.options import DBOptions

        def options():
            return DBOptions(
                key_bits=32,
                memtable_size_bytes=4 << 10,
                sst_size_bytes=8 << 10,
                max_bytes_for_level_base=10 << 10,  # L1, L2 and L3 populate
                block_size_bytes=1024,
            )

        def check(db):
            version = db.version
            index = version._file_index  # noqa: SLF001
            assert index is not None
            assert all(level.disjoint for level in index[1:])
            # A reader never builds an index of its own.
            with monkeypatch.context() as patch:
                patch.setattr(Version, "_build_file_index", None)
                for low in range(0, 9000, 577):
                    for width in (0, 1, 400, 9000):
                        bounds = (low.to_bytes(4, "big"), (low + width).to_bytes(4, "big"))
                        found = [run.name for run in version.runs_for_range(*bounds)]
                        assert found == _scan(version, *bounds)
            return version

        path = str(tmp_path / "db")
        db = DB(path, options())
        for i in range(300):
            db.put(i * 29 % 8000, bytes(24))
        db.flush()
        flushed = check(db)
        assert flushed.total_files() >= 1
        for i in range(4000):  # enough debt for compactions to install versions
            db.put(i * 7919 % 8000, bytes(24))
        db.flush()
        compacted = check(db)
        assert compacted is not flushed
        assert compacted.max_populated_level() >= 1
        db.close()
        reopened = DB(path, options())
        recovered = check(reopened)
        assert recovered.total_files() == compacted.total_files()
        reopened.close()
