"""Unit tests for the dict memtable, its sorted views and its no-lock
reader contract."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.format import ValueTag
from repro.lsm.memtable import MemTable


class TestBasics:
    def test_put_get(self):
        table = MemTable()
        table.put(b"key", b"value")
        assert table.get(b"key") == (ValueTag.PUT, b"value")

    def test_missing_key(self):
        assert MemTable().get(b"nope") is None

    def test_overwrite(self):
        table = MemTable()
        table.put(b"k", b"v1")
        table.put(b"k", b"v2")
        assert table.get(b"k") == (ValueTag.PUT, b"v2")
        assert len(table) == 1

    def test_delete_leaves_tombstone(self):
        table = MemTable()
        table.put(b"k", b"v")
        table.delete(b"k")
        assert table.get(b"k") == (ValueTag.DELETE, b"")

    def test_delete_of_absent_key_records_tombstone(self):
        table = MemTable()
        table.delete(b"ghost")
        assert table.get(b"ghost") == (ValueTag.DELETE, b"")
        assert len(table) == 1

    def test_empty_properties(self):
        table = MemTable()
        assert table.is_empty
        assert len(table) == 0
        assert list(table.entries()) == []


class TestOrdering:
    def test_entries_sorted(self):
        table = MemTable()
        keys = [bytes([b]) for b in (9, 1, 200, 73, 40)]
        for key in keys:
            table.put(key, b"")
        assert [k for k, _, _ in table.entries()] == sorted(keys)

    def test_entries_from_seeks(self):
        table = MemTable()
        for i in range(0, 100, 10):
            table.put(f"{i:03d}".encode(), b"")
        result = [k for k, _, _ in table.entries_from(b"045")]
        assert result[0] == b"050"
        assert len(result) == 5

    def test_entries_from_exact_key(self):
        table = MemTable()
        table.put(b"b", b"")
        table.put(b"d", b"")
        assert [k for k, _, _ in table.entries_from(b"b")] == [b"b", b"d"]

    def test_large_insert_stays_sorted(self):
        table = MemTable()
        rng = random.Random(2)
        keys = [rng.randrange(10**9).to_bytes(8, "big") for _ in range(5000)]
        for key in keys:
            table.put(key, b"x")
        ordered = [k for k, _, _ in table.entries()]
        assert ordered == sorted(set(keys))


class TestAccounting:
    def test_bytes_grow_with_inserts(self):
        table = MemTable()
        table.put(b"k" * 10, b"v" * 100)
        first = table.approximate_bytes
        table.put(b"j" * 10, b"w" * 100)
        assert table.approximate_bytes > first

    def test_overwrite_adjusts_bytes(self):
        table = MemTable()
        table.put(b"k", b"v" * 100)
        before = table.approximate_bytes
        table.put(b"k", b"v")
        assert table.approximate_bytes == before - 99


class _Interleaved(dict):
    """A memtable's dict that runs ``step`` once, at ``point``: as a
    reader, having read the insert count, snapshots the keys to sort
    (``"sort-start"`` just before, ``"sort-end"`` just after), or as the
    writer stores a new key, before it lands (``"store"``)."""

    def __init__(self, entries, point, step):
        super().__init__(entries)
        self.point, self.step = point, step

    def _fire(self, point):
        if point == self.point and self.step is not None:
            step, self.step = self.step, None
            step()

    def __iter__(self):
        self._fire("sort-start")
        keys = list(dict.__iter__(self))
        yield from keys
        self._fire("sort-end")

    def __setitem__(self, key, value):
        self._fire("store")
        super().__setitem__(key, value)


class TestNoLockReaders:
    @pytest.mark.parametrize("point", ["sort-start", "sort-end", "store"])
    def test_a_racing_insert_is_seen_by_the_next_reader(self, point):
        """The one race that matters: a new key landing between a reader's
        read of the insert count and its cached sort."""
        table = MemTable()
        for key in (b"b", b"d"):
            table.put(key, b"")

        def insert():
            table.put(b"c", b"late")

        def read():
            return [key for key, _, _ in table.entries()]

        racing = read if point == "store" else insert
        table._entries = _Interleaved(table._entries, point, racing)  # noqa: SLF001
        (insert if point == "store" else read)()
        assert read() == [b"b", b"c", b"d"]
        assert [key for key, _, _ in table.entries_from(b"c")] == [b"c", b"d"]

    def test_sealed_memtable_sorts_once(self):
        table = MemTable()
        for key in (b"z", b"a", b"m"):
            table.put(key, b"")
        list(table.entries())
        snapshot = table._sorted  # noqa: SLF001
        table.put(b"a", b"overwrite")  # no new key: no re-sort
        list(table.entries_from(b"b"))
        assert table._sorted is snapshot  # noqa: SLF001
        assert [v for _, _, v in table.entries()] == [b"overwrite", b"", b""]

    def test_one_writer_two_scanners(self):
        """Every scan is sorted, sees every key acknowledged before it
        started, and never a torn ``(tag, value)``."""
        rng = random.Random(7)
        keys = [rng.getrandbits(32).to_bytes(4, "big") for _ in range(6000)]
        table = MemTable()
        acked = [0]  # keys[:acked[0]] are in the table
        done = threading.Event()
        failures: list[str] = []

        def writer():
            for index, key in enumerate(keys):
                table.put(key, key + b"v0")
                acked[0] = index + 1
                old = keys[rng.randrange(index + 1)]
                if rng.random() < 0.3:
                    table.delete(old)
                else:
                    table.put(old, old + b"v%d" % index)
            done.set()

        def scanner(start: bytes):
            scans = 0
            while not done.is_set() or scans < 3:
                before = acked[0]
                try:
                    seen = list(table.entries_from(start))
                except RuntimeError as exc:  # dict changed size mid-walk
                    failures.append(repr(exc))
                    return
                found = [k for k, _, _ in seen]
                if found != sorted(set(found)):
                    failures.append("unsorted scan")
                missing = {k for k in keys[:before] if k >= start} - set(found)
                if missing:
                    failures.append(f"{len(missing)} acknowledged keys missing")
                for key, tag, value in seen:
                    if tag == ValueTag.DELETE and value != b"":
                        failures.append(f"torn tombstone {key!r}")
                    if tag == ValueTag.PUT and not value.startswith(key + b"v"):
                        failures.append(f"torn put {key!r}")
                scans += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=scanner, args=(start,))
                for start in (b"", b"\x80")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:5]
        assert len(table) == len(set(keys))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.binary(min_size=1, max_size=6),
            st.binary(max_size=10),
        ),
        max_size=80,
    )
)
def test_property_matches_dict_model(operations):
    """The memtable behaves like a dict of (tag, value)."""
    table = MemTable()
    model: dict[bytes, tuple[int, bytes]] = {}
    for op, key, value in operations:
        if op == "put":
            table.put(key, value)
            model[key] = (ValueTag.PUT, value)
        else:
            table.delete(key)
            model[key] = (ValueTag.DELETE, b"")
    assert len(table) == len(model)
    for key, expected in model.items():
        assert table.get(key) == expected
    assert [k for k, _, _ in table.entries()] == sorted(model)
