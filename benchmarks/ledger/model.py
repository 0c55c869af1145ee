"""Correctness oracle: an in-memory model the store's answers are checked against.

The model holds the loaded dataset exactly (a dict plus a sorted key list)
and, for ``serve-mixed``, the keys clients appended while reads were in
flight.  Every answer is checked *after the clock stops*, so the checks cost
the measured window nothing.

A loaded key must come back with exactly its value.  An appended key is
written once, with a value derived from the key, so the only freedom a
concurrent read has is whether it sees the key at all:

* the put returned before the read was submitted -> the key must be there;
* the put started after the read completed       -> the key must not be;
* otherwise the read raced the put                -> either, but never a
  different value ("one of the values ever written").
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right

__all__ = ["GET", "MULTI_GET", "RANGE", "PUT", "Model", "value_for"]

# Op kinds.  Small ints: the client loops dispatch on them per op.
GET, MULTI_GET, RANGE, PUT = 0, 1, 2, 3

_PAD = bytes(range(56))


def value_for(key: int) -> bytes:
    """The 64-byte value every workload stores under ``key``."""
    return struct.pack(">Q", key) + _PAD


class Model:
    """Dict/sorted-list model of one store."""

    def __init__(self, keys: list[int]) -> None:
        self.values = {key: value_for(key) for key in keys}
        self.sorted_keys = sorted(self.values)
        # key -> (put start, put end) on the benchmark's monotonic clock.
        self.appended: dict[int, tuple[int, int]] = {}
        self._sorted_appended: list[int] | None = None

    def record_put(self, key: int, started_ns: int, ended_ns: int) -> None:
        """Note a completed client append (serve-mixed only)."""
        self.appended[key] = (started_ns, ended_ns)
        self._sorted_appended = None

    def loaded_in(self, low: int, high: int) -> list[int]:
        """Loaded keys inside ``[low, high]``, ascending."""
        keys = self.sorted_keys
        return keys[bisect_left(keys, low):bisect_right(keys, high)]

    def _appended_in(self, low: int, high: int) -> list[int]:
        if self._sorted_appended is None:
            self._sorted_appended = sorted(self.appended)
        keys = self._sorted_appended
        return keys[bisect_left(keys, low):bisect_right(keys, high)]

    def _point_ok(self, key: int, got, submitted_ns: int, done_ns: int) -> bool:
        want = self.values.get(key)
        if want is not None:
            return got == want
        window = self.appended.get(key)
        if window is None:
            return got is None
        started, ended = window
        if got is None:
            return ended >= submitted_ns  # absent is fine unless put came first
        return got == value_for(key) and started <= done_ns

    def check(self, kind: int, arg, got, submitted_ns: int, done_ns: int) -> bool:
        """Whether ``got`` is an answer the model accepts for the op."""
        if kind == GET:
            return self._point_ok(arg, got, submitted_ns, done_ns)
        if kind == MULTI_GET:
            if not isinstance(got, dict) or set(got) != set(arg):
                return False
            return all(
                self._point_ok(key, got[key], submitted_ns, done_ns)
                for key in arg
            )
        if kind == RANGE:
            low, high = arg
            if not isinstance(got, list):
                return False
            found = dict(got)
            if len(found) != len(got) or [k for k, _ in got] != sorted(found):
                return False  # duplicates or out of order
            expected = self.loaded_in(low, high) + self._appended_in(low, high)
            if any(not low <= key <= high
                   or (key not in self.values and key not in self.appended)
                   for key in found):
                return False
            return all(
                self._point_ok(key, found.get(key), submitted_ns, done_ns)
                for key in expected
            )
        return got is None  # PUT returns nothing

    def final_items(self) -> list[tuple[int, bytes]]:
        """Exact expected store contents once every client has stopped."""
        items = dict(self.values)
        for key in self.appended:
            items[key] = value_for(key)
        return sorted(items.items())
