"""Rosetta — the paper's range filter (§2).

A :class:`Rosetta` instance indexes a fixed set of integer keys drawn from a
``2^key_bits`` domain by inserting *every binary prefix* of every key into a
Bloom filter dedicated to that prefix length (Algorithm 1).  The filters form
an implicit segment tree: the Bloom filter at height ``r`` above the leaves
holds the ``(key_bits - r)``-bit prefixes, i.e. the dyadic blocks of size
``2^r``.

Range queries (Algorithm 2) decompose ``[low, high]`` into maximal dyadic
blocks, probe each block's prefix, and on a positive recursively *doubt* the
block by probing its two children, pre-order, until either a full root-to-leaf
positive path survives (range may be non-empty) or every branch dies (range
is definitely empty).

Because the paper bounds the maximum range size ``R``, only the bottom
``floor(log2 R) + 1`` levels are materialised (§3.1) — levels above the
largest dyadic block a query can produce are never probed.  Setting
``max_range = 1`` yields the single-level design of §2.4, where a range query
probes every key in the range against the full-key filter.

Instances are immutable once built, matching their role in an LSM-tree: one
Rosetta per immutable run, rebuilt from scratch at every compaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core import doubting, dyadic
from repro.core.allocation import LevelAllocation, allocate
from repro.core.bloom import (
    _GOLDEN, _H1_STAGE, _H2_STAGE, _MASK64, _MIX1, _MIX2, _SEED1, _SEED2,
    BloomFilter, optimal_num_hashes,
)
from repro.core.hashing import hash_int, mix_salt
from repro.errors import FilterBuildError, FilterQueryError, SerializationError

__all__ = ["Rosetta", "ProbeStats", "WALK_MAX_INTERVALS", "range_verdicts"]

#: Most top-level dyadic intervals a range may cover and still take the
#: pre-order walk; above it the frontier engine runs.  Walk time over engine
#: time on the ledger's filter shape (22 bits/key, max_range 64, a 2 k-key
#: run), both kernels timed back to back on the same range, on a 2-core
#: Intel Xeon host:
#:
#:   intervals in the range          8    16    32    48    64    96   128   192   384
#:   one wide empty range          .50   .85  1.55  2.27  2.50  3.65  4.27  6.55  8.12
#:   one wide range, key midway    .27   .39   .77  1.02  1.34  1.92  2.32  2.80  5.32
#:
#: The engine costs ~0.3-0.5 ms a range at these sizes; the walk pays by the
#: probe, ~9 for a full-height block of an empty wide range (the ledger's
#: allocation leaves the top two levels bit-less, so four children are
#: probed before anything can die) and fewer once a key ends the doubt.  The
#: shapes cross at ~20 and ~48 intervals, so a range of 48-96 intervals
#: walks at 1.0-3.7x the engine's cost.  96 stays because the ledger
#: asks no range in between: ``range-empty`` and ``serve-mixed`` ask widths
#: <= 64, at most 10 intervals (walk), and ``scan-wide`` ~27 k intervals a
#: run (engine).
WALK_MAX_INTERVALS = 96


@dataclass
class ProbeStats:
    """Mutable probe-cost counters, accumulated across queries.

    The paper's Fig. 4/5 probe-cost measurements are counts of Bloom-filter
    probes; probes against zero-bit (always-positive) levels are free and not
    counted, which is exactly what makes the variable-level allocation cheap.
    """

    bloom_probes: int = 0
    dyadic_intervals: int = 0
    range_queries: int = 0
    point_queries: int = 0
    #: Vectorized bulk-probe invocations issued by the frontier engine.
    bulk_probe_calls: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.bloom_probes = 0
        self.dyadic_intervals = 0
        self.range_queries = 0
        self.point_queries = 0
        self.bulk_probe_calls = 0


class Rosetta:
    """Hierarchical Bloom-filter range filter over integer keys.

    Build with :meth:`build`; query with :meth:`may_contain` (points),
    :meth:`may_contain_range` (range emptiness), or
    :meth:`tightened_range` (range emptiness plus effective-range narrowing,
    §2.2.1).

    Examples
    --------
    >>> filt = Rosetta.build([3, 6, 7, 8, 9, 11], key_bits=4, bits_per_key=16,
    ...                      max_range=8)
    >>> filt.may_contain_range(8, 12)
    True
    >>> filt.may_contain_range(4, 5)
    False
    """

    __slots__ = (
        "_key_bits",
        "_max_height",
        "_filters",
        "_level_probes",
        "_walk_levels",
        "_allocation",
        "_num_keys",
        "stats",
    )

    def __init__(
        self,
        key_bits: int,
        filters: Sequence[BloomFilter],
        allocation: LevelAllocation,
        num_keys: int,
    ) -> None:
        """Internal constructor; use :meth:`build` or :meth:`from_bytes`."""
        if key_bits < 1:
            raise FilterBuildError(f"key_bits must be >= 1, got {key_bits}")
        if not filters:
            raise FilterBuildError("Rosetta requires at least one filter level")
        if len(filters) > key_bits + 1:
            raise FilterBuildError(
                f"{len(filters)} levels exceed key domain depth {key_bits}"
            )
        self._key_bits = key_bits
        self._max_height = len(filters) - 1
        self._filters = list(filters)
        # What a probe needs of each level: its probe, or None where the
        # level has no bits and passes every prefix uncharged.
        self._level_probes = tuple(
            None if filt.is_always_positive else filt.may_contain
            for filt in self._filters
        )
        # The same for the walk kernel, which inlines the probe: what
        # BloomFilter.may_contain reads.
        self._walk_levels = tuple(
            None if f.is_always_positive
            else (f._view, f._num_bits, f._num_hashes, f._salt)
            for f in self._filters
        )
        self._allocation = allocation
        self._num_keys = num_keys
        self.stats = ProbeStats()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        keys: Iterable[int],
        *,
        key_bits: int = 64,
        bits_per_key: float | None = None,
        total_bits: int | None = None,
        max_range: int = 64,
        strategy: str = "optimized",
        range_size_histogram: Mapping[int, float] | None = None,
        salt: int = 0,
    ) -> "Rosetta":
        """Build a Rosetta over ``keys`` (Algorithm 1 + §2.3/2.4 allocation).

        Parameters
        ----------
        keys:
            Non-negative integers below ``2^key_bits``.  Duplicates are fine.
        key_bits:
            Width of the key domain in bits (the paper's ``L``).
        bits_per_key / total_bits:
            The memory budget ``M``; give exactly one.
        max_range:
            Largest range-query size the filter is optimised for (``R``).
            Only the bottom ``floor(log2 R) + 1`` levels are kept.  Queries
            larger than ``R`` still answer correctly, just with more probes.
        strategy:
            Memory-allocation strategy (see :mod:`repro.core.allocation`).
        range_size_histogram:
            Observed range-size distribution for the workload-aware
            strategies and the ``hybrid`` rule.
        salt:
            Re-keying salt applied by every level's Bloom filter (see
            :class:`~repro.core.bloom.BloomFilter`).  0 (default) keeps
            the historical unsalted hashes.
        """
        unique = cls._validated_unique_keys(keys, key_bits)
        num_keys = len(unique)

        if (bits_per_key is None) == (total_bits is None):
            raise FilterBuildError(
                "give exactly one of bits_per_key or total_bits"
            )
        if total_bits is None:
            total_bits = int(round(bits_per_key * num_keys))
        if total_bits < 0:
            raise FilterBuildError(f"total_bits must be >= 0, got {total_bits}")
        if max_range < 1:
            raise FilterBuildError(f"max_range must be >= 1, got {max_range}")

        max_height = min(max_range.bit_length() - 1, key_bits)
        level_allocation = allocate(
            strategy,
            num_keys=num_keys,
            total_bits=total_bits,
            max_height=max_height,
            range_size_histogram=range_size_histogram,
        )
        filters = cls._build_filters(unique, key_bits, level_allocation, salt)
        return cls(key_bits, filters, level_allocation, num_keys)

    @staticmethod
    def _validated_unique_keys(keys: Iterable[int], key_bits: int):
        """Return sorted unique keys, validating the domain."""
        if key_bits <= 64:
            try:
                arr = np.fromiter(map(int, keys), dtype=np.uint64)
            except (OverflowError, ValueError) as exc:
                raise FilterBuildError(
                    f"keys must lie in [0, 2^{key_bits})"
                ) from exc
            if len(arr) and int(arr.max()) >> key_bits:
                raise FilterBuildError(f"keys must lie in [0, 2^{key_bits})")
            # An SST hands its keys over strictly increasing: sort and
            # dedupe only when a neighbour check finds they are not.
            if len(arr) > 1 and not (arr[1:] > arr[:-1]).all():
                arr = np.unique(arr)
            return arr
        unique = sorted(set(int(k) for k in keys))
        if unique and (unique[0] < 0 or unique[-1] >> key_bits):
            raise FilterBuildError(f"keys must lie in [0, 2^{key_bits})")
        return unique

    @staticmethod
    def _build_filters(
        unique_keys,
        key_bits: int,
        level_allocation: LevelAllocation,
        salt: int = 0,
    ) -> list[BloomFilter]:
        """Insert every prefix of every key into its level's Bloom filter.

        Sorted input lets us insert only *unique* prefixes per level (the §3.2
        construction bound: at most ``n * L`` Bloom insertions, usually far
        fewer at shallow levels).
        """
        filters: list[BloomFilter] = []
        vectorized = key_bits <= 64 and isinstance(unique_keys, np.ndarray)
        prefixes = unique_keys
        for height, num_bits in enumerate(level_allocation.bits_per_level):
            if vectorized:
                if height:
                    # Level h's sorted unique prefixes, halved, are level
                    # h+1's in order: duplicates can only be neighbours.
                    prefixes = prefixes >> np.uint64(1)
                    if len(prefixes) > 1:
                        distinct = np.concatenate(
                            ([True], prefixes[1:] != prefixes[:-1])
                        )
                        prefixes = prefixes[distinct]
                count = len(prefixes)
            else:
                prefixes = sorted({key >> height for key in unique_keys})
                count = len(prefixes)
            bits_per_item = num_bits / count if count else 1.0
            bloom = BloomFilter(
                num_bits, optimal_num_hashes(bits_per_item), salt=salt
            )
            if not bloom.is_always_positive:
                if vectorized:
                    bloom.add_many_ints(prefixes)
                else:
                    for prefix in prefixes:
                        bloom.add(prefix)
            filters.append(bloom)
        return filters

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def key_bits(self) -> int:
        """Width of the key domain in bits (``L``)."""
        return self._key_bits

    @property
    def shape(self) -> tuple[int, int]:
        """``(key_bits, num_levels)``: filters of one shape can share a walk
        (:func:`range_verdicts`)."""
        return self._key_bits, self._max_height + 1

    @property
    def num_levels(self) -> int:
        """Number of materialised Bloom-filter levels."""
        return self._max_height + 1

    @property
    def max_height(self) -> int:
        """Height of the tallest level (``floor(log2 R)``)."""
        return self._max_height

    @property
    def num_keys(self) -> int:
        """Number of distinct keys indexed."""
        return self._num_keys

    @property
    def salt(self) -> int:
        """The re-keying salt shared by every level (0 when unsalted)."""
        return self._filters[0].salt

    @property
    def levels(self) -> tuple[BloomFilter, ...]:
        """The Bloom-filter stack, leaf level (height 0) first — the shape
        :func:`repro.core.doubting.doubt_frontier` consumes."""
        return tuple(self._filters)

    def size_in_bits(self) -> int:
        """Total filter memory in bits (sum of all levels)."""
        return sum(f.size_in_bits() for f in self._filters)

    def bits_per_key(self) -> float:
        """Memory cost normalised per indexed key."""
        if self._num_keys == 0:
            return 0.0
        return self.size_in_bits() / self._num_keys

    def memory_breakdown(self) -> list[int]:
        """Bits actually used per level, leaf first."""
        return [f.size_in_bits() for f in self._filters]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def may_contain(self, key: int) -> bool:
        """Point lookup (§2.2.2): probe only the full-key (leaf) level."""
        self.stats.point_queries += 1
        if self._num_keys == 0:
            return False
        self._check_key(key)
        return self._probe(key, 0)

    def may_contain_each(self, keys) -> list[bool]:
        """Point lookups for a group of keys: one ``bool`` per key.

        Equal to mapping :meth:`may_contain` — verdicts, ``point_queries``
        and ``bloom_probes`` charges (one per key, duplicates included) —
        for every group size and key width.  A group of one (most of the
        LSM's per-run groups) is validated and handed straight to the leaf
        level's probe; for the rest the leaf level's
        :meth:`~repro.core.bloom.BloomFilter.contains_batch` validates the
        keys once and picks the scalar or vector kernel from the group
        size.  Out-of-domain keys raise :class:`FilterQueryError` either way.
        """
        count = len(keys)
        stats = self.stats
        stats.point_queries += count
        if self._num_keys == 0:
            return [False] * count
        probe = self._level_probes[0]
        if count == 1:
            key = keys[0]
            if key < 0 or key >> self._key_bits:
                self._check_key(key)  # raises
            verdicts = [probe is None or probe(key)]
        else:
            verdicts = self._filters[0].contains_batch(keys, self._key_bits)
        if probe is not None:
            stats.bloom_probes += count
        return verdicts

    def may_contain_range(
        self, low: int, high: int, probe_budget: int | None = None
    ) -> bool:
        """Range-emptiness lookup (Algorithm 2).

        Returns ``False`` only if ``[low, high]`` definitely holds no key.
        Out-of-domain bounds are clamped; an inverted range raises.

        ``probe_budget`` caps the Bloom probes spent on this query — the
        CPU side of the paper's CPU/FPR tradeoff made explicit.  When the
        budget runs out mid-doubt the filter answers ``True``
        (conservative: bounded CPU can only cost false positives, never
        correctness).  The kernel is :func:`range_verdicts`'s choice.
        """
        return range_verdicts((self,), low, high, probe_budget)[0]

    def _walk(self, low: int, high: int, probe_budget: int | None) -> bool:
        """The walk kernel over this filter alone, whatever the range."""
        return _doubt_walk((self,), low, high, probe_budget)[0]

    def _frontier(self, low: int, high: int) -> bool:
        """The frontier engine's verdict, charged to :attr:`stats`."""
        if not self._num_keys:
            return False
        result = doubting.doubt_frontier(self._filters, low, high)
        stats = self.stats
        stats.bloom_probes += result.probes
        stats.dyadic_intervals += result.intervals
        stats.bulk_probe_calls += result.bulk_probe_calls
        return result.answer

    def tightened_range(self, low: int, high: int) -> tuple[int, int] | None:
        """Range lookup with effective-range tightening (§2.2.1).

        Returns ``None`` when the range is definitely empty; otherwise the
        narrowest ``(effective_low, effective_high)`` sub-range that may hold
        keys — storage I/O can then seek the narrower range.  Two scalar
        scans: leftmost survivor from the left, rightmost from the right.
        """
        low, high = self._clamp_range(low, high)
        self.stats.range_queries += 1
        if self._num_keys == 0 or low > high:
            return None
        intervals = list(dyadic.decompose(low, high, self._max_height))
        self.stats.dyadic_intervals += len(intervals)

        first_idx: int | None = None
        effective_low = 0
        for idx, interval in enumerate(intervals):
            leftmost = self._leftmost_positive(interval.prefix, interval.height)
            if leftmost is not None:
                first_idx, effective_low = idx, leftmost
                break
        if first_idx is None:
            return None

        # Scan from the right down to (and including) the first positive
        # interval; probing is deterministic, so that interval is guaranteed
        # to yield a rightmost value and the loop always terminates with one.
        effective_high = effective_low
        for idx in range(len(intervals) - 1, first_idx - 1, -1):
            interval = intervals[idx]
            rightmost = self._rightmost_positive(interval.prefix, interval.height)
            if rightmost is not None:
                effective_high = rightmost
                break
        return max(effective_low, low), min(max(effective_high, effective_low), high)

    # ------------------------------------------------------------------
    # One charged probe; tightening (§2.2.1) on top of it
    # ------------------------------------------------------------------
    def _probe(self, prefix: int, height: int) -> bool:
        """Probe one prefix outside the walk, charging it if it costs."""
        probe = self._level_probes[height]
        if probe is None:
            return True
        self.stats.bloom_probes += 1
        return probe(prefix)

    def _leftmost_positive(self, prefix: int, height: int) -> int | None:
        """Smallest leaf value with a surviving positive path, if any."""
        if not self._probe(prefix, height):
            return None
        if height == 0:
            return prefix
        left = prefix << 1
        found = self._leftmost_positive(left, height - 1)
        if found is not None:
            return found
        return self._leftmost_positive(left | 1, height - 1)

    def _rightmost_positive(self, prefix: int, height: int) -> int | None:
        """Largest leaf value with a surviving positive path, if any."""
        if not self._probe(prefix, height):
            return None
        if height == 0:
            return prefix
        right = (prefix << 1) | 1
        found = self._rightmost_positive(right, height - 1)
        if found is not None:
            return found
        return self._rightmost_positive(prefix << 1, height - 1)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predicted_range_fpr(self, range_size: int, alignment: int = 1) -> float:
        """This instance's analytically predicted empty-range FPR.

        Feeds the per-level fill-ratio FPR estimates into the §3 doubt
        recursion (:func:`repro.core.analysis.predict_range_fpr`).  Useful
        for sanity-checking a built filter without running a workload.
        """
        from repro.core.analysis import predict_range_fpr

        level_fprs = [
            min(max(filt.expected_fpr(), 1e-12), 1.0 - 1e-12)
            for filt in self._filters
        ]
        return predict_range_fpr(level_fprs, range_size, alignment)

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _check_key(self, key: int) -> None:
        if key < 0 or key >> self._key_bits:
            raise FilterQueryError(
                f"key {key} outside domain [0, 2^{self._key_bits})"
            )

    def _clamp_range(self, low: int, high: int) -> tuple[int, int]:
        if low > high:
            raise FilterQueryError(f"invalid range: low={low} > high={high}")
        if low < 0:
            low = 0
        return low, min(high, (1 << self._key_bits) - 1)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    _MAGIC = b"ROSETTA2"

    def to_bytes(self) -> bytes:
        """Serialize the full filter (all levels) to bytes."""
        parts = [
            self._MAGIC,
            self._key_bits.to_bytes(2, "little"),
            self.num_levels.to_bytes(2, "little"),
            self._num_keys.to_bytes(8, "little"),
        ]
        for filt in self._filters:
            payload = filt.to_bytes()
            parts.append(len(payload).to_bytes(8, "little"))
            parts.append(payload)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "Rosetta":
        """Reconstruct a filter from :meth:`to_bytes` output."""
        if payload[:8] != cls._MAGIC:
            raise SerializationError("bad Rosetta magic")
        if len(payload) < 20:
            raise SerializationError("truncated Rosetta header")
        key_bits = int.from_bytes(payload[8:10], "little")
        num_levels = int.from_bytes(payload[10:12], "little")
        num_keys = int.from_bytes(payload[12:20], "little")
        if key_bits < 1 or not 1 <= num_levels <= key_bits + 1:
            raise SerializationError(
                f"Rosetta header: {num_levels} levels over {key_bits} key bits"
            )
        offset = 20
        filters: list[BloomFilter] = []
        for _ in range(num_levels):
            if offset + 8 > len(payload):
                raise SerializationError("truncated Rosetta level header")
            length = int.from_bytes(payload[offset : offset + 8], "little")
            offset += 8
            if offset + length > len(payload):
                raise SerializationError("truncated Rosetta level payload")
            filters.append(BloomFilter.from_bytes(payload[offset : offset + length]))
            offset += length
        if offset != len(payload):
            raise SerializationError(
                f"{len(payload) - offset} trailing bytes after Rosetta levels"
            )
        allocation = LevelAllocation(
            bits_per_level=tuple(f.size_in_bits() for f in filters),
            strategy="deserialized",
        )
        return cls(key_bits, filters, allocation, num_keys)

    def __repr__(self) -> str:
        return (
            f"Rosetta(key_bits={self._key_bits}, levels={self.num_levels}, "
            f"keys={self._num_keys}, bits={self.size_in_bits()}, "
            f"strategy={self._allocation.strategy!r})"
        )


def range_verdicts(
    rosettas: Sequence[Rosetta],
    low: int,
    high: int,
    probe_budget: int | None = None,
) -> list[bool]:
    """:meth:`Rosetta.may_contain_range` for each of several filters of one
    shape (``key_bits`` and level count); verdicts and each filter's
    :class:`ProbeStats` equal separate calls'.

    The kernel is chosen once, from the range: ranges covering at most
    :data:`WALK_MAX_INTERVALS` top-level dyadic intervals, domains wider
    than the engine's ``uint64`` arrays and budgeted calls take one
    pre-order walk for all the filters (it honours a budget natively);
    the rest take the frontier engine (:mod:`repro.core.doubting`) one
    filter at a time.
    """
    head = rosettas[0]
    low, high = head._clamp_range(low, high)
    for rosetta in rosettas:
        rosetta.stats.range_queries += 1
    if low > high:
        return [False] * len(rosettas)
    if probe_budget is not None and probe_budget < 1:
        return [rosetta._num_keys > 0 for rosetta in rosettas]
    if (
        probe_budget is None
        and head._key_bits <= 64
        and dyadic.count_intervals(low, high, head._max_height)
        > WALK_MAX_INTERVALS
    ):
        return [rosetta._frontier(low, high) for rosetta in rosettas]
    return _doubt_walk(rosettas, low, high, probe_budget)


def _doubt_walk(
    rosettas: Sequence[Rosetta], low: int, high: int, probe_budget: int | None
) -> list[bool]:
    """Algorithm 2: doubt each dyadic interval, left to right, pre-order,
    for every filter at once.

    The intervals are :func:`repro.core.dyadic.decompose`'s, produced in
    place, and doubted from an explicit stack whose nodes carry the filters
    still doubting them.  A node's prefix is hashed once; each filter tests
    its own bits (a level without bits passes uncharged), and the node's
    halves are pushed, left on top, with the filters that passed.  A filter
    stops at its first positive leaf or, with a ``probe_budget``, answers
    positive on reaching the first node it cannot pay for — so each one's
    verdict and charges are those of walking it alone.  An empty filter
    answers negative unprobed.
    """
    levels = [rosetta._walk_levels for rosetta in rosettas]
    max_height = rosettas[0]._max_height
    budget = -1 if probe_budget is None else probe_budget
    probes = [0] * len(rosettas)
    intervals = probes.copy()
    found = [False] * len(rosettas)
    doubting = [index for index, r in enumerate(rosettas) if r._num_keys]
    undecided = len(doubting)
    stack: list[tuple[int, int, list[int]]] = []
    cursor = low
    while cursor <= high and undecided:
        # Largest aligned block at `cursor`: capped by its alignment,
        # by what still fits, and by the tallest level kept.
        height = (high - cursor + 1).bit_length() - 1
        if height > max_height:
            height = max_height
        if cursor:
            aligned = (cursor & -cursor).bit_length() - 1
            if aligned < height:
                height = aligned
        for index in doubting:
            if not found[index]:
                intervals[index] += 1
        stack.append((cursor >> height, height, doubting))
        cursor += 1 << height
        while stack:
            prefix, at, doubters = stack.pop()
            passed = []
            h1 = h2 = -1  # the prefix's base hashes, once a filter needs them
            for index in doubters:
                if found[index]:
                    continue
                if probes[index] == budget:
                    found[index] = True
                    undecided -= 1
                    continue
                level = levels[index][at]
                if level is None:
                    passed.append(index)
                    continue
                probes[index] += 1
                view, num_bits, num_hashes, salt = level
                # BloomFilter.may_contain, inlined: the first bit needs
                # only the first base hash.
                if h1 < 0:
                    if prefix >> 64:
                        h1, h2 = hash_int(prefix, _SEED1), hash_int(prefix, _SEED2)
                    else:
                        z = ((prefix ^ _H1_STAGE) + _GOLDEN) & _MASK64
                        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
                        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
                        h1 = z ^ (z >> 31)
                pos = mix_salt(h1, salt) if salt else h1
                bit = pos % num_bits
                if not view[bit >> 3] >> (bit & 7) & 1:
                    continue
                if h2 < 0:
                    z = ((prefix ^ _H2_STAGE) + _GOLDEN) & _MASK64
                    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
                    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
                    h2 = z ^ (z >> 31)
                step = (mix_salt(h2, salt) if salt else h2) | 1
                for _ in range(num_hashes - 1):
                    pos = (pos + step) & _MASK64
                    bit = pos % num_bits
                    if not view[bit >> 3] >> (bit & 7) & 1:
                        break
                else:
                    passed.append(index)
            if not passed:
                continue
            if at:
                at -= 1
                prefix <<= 1
                stack.append((prefix | 1, at, passed))
                stack.append((prefix, at, passed))
            else:
                for index in passed:
                    found[index] = True
                undecided -= len(passed)
    for rosetta, spent, walked in zip(rosettas, probes, intervals):
        rosetta.stats.bloom_probes += spent
        rosetta.stats.dyadic_intervals += walked
    return found
