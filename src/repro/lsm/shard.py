"""Key-range shard routing for the serving layer.

One logical key domain ``[0, 2^key_bits)`` is partitioned into ``N``
contiguous, non-overlapping, equal-width shards.  The router is pure
metadata — a sorted list of interior boundaries — so routing a key is
one bisect and routing a range is a slice of the shard list.  Contiguity
is what makes range queries cheap to shard: a range ``[low, high]``
touches exactly the shards whose spans it overlaps, and concatenating
their (sorted) partial answers in shard order yields the globally sorted
result with no merge.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from repro.errors import FilterQueryError, InvalidOptionsError

__all__ = ["ShardRouter", "clamp_to_domain"]


def clamp_to_domain(
    low: int, high: int, key_bits: int
) -> tuple[int, int] | None:
    """Intersect ``[low, high]`` with the key domain ``[0, 2^key_bits)``.

    The one answer the store and the router give for an out-of-domain
    range bound, and the one :class:`~repro.core.rosetta.Rosetta` gives:
    clamp it.  ``None`` when the range lies wholly outside the domain (it
    holds no key); an inverted range is a caller error and raises.
    """
    if low > high:
        raise FilterQueryError(f"invalid range: low={low} > high={high}")
    low, high = max(low, 0), min(high, (1 << key_bits) - 1)
    return (low, high) if low <= high else None


class ShardRouter:
    """Maps keys and key ranges onto ``num_shards`` contiguous shards.

    Shard ``i`` owns ``[bounds[i], bounds[i+1])`` where ``bounds`` is the
    full boundary list including the domain endpoints ``0`` and
    ``2^key_bits``.  Immutable after construction, so it is safe to share
    across any number of client threads without locking.
    """

    __slots__ = ("key_bits", "num_shards", "_bounds")

    def __init__(self, key_bits: int, num_shards: int) -> None:
        if num_shards < 1:
            raise InvalidOptionsError(f"num_shards must be >= 1: {num_shards}")
        domain = 1 << key_bits
        self.key_bits = key_bits
        self.num_shards = num_shards
        self._bounds: tuple[int, ...] = tuple(
            (domain * index) // num_shards for index in range(1, num_shards)
        )

    def shard_of(self, key: int) -> int:
        """Index of the shard owning ``key``."""
        key = int(key)
        if key < 0 or key >> self.key_bits:
            raise FilterQueryError(
                f"key {key} outside domain [0, 2^{self.key_bits})"
            )
        return bisect_right(self._bounds, key)

    def span(self, shard: int) -> tuple[int, int]:
        """Inclusive key span ``(low, high)`` owned by ``shard``."""
        if not 0 <= shard < self.num_shards:
            raise InvalidOptionsError(f"shard {shard} out of range")
        low = self._bounds[shard - 1] if shard > 0 else 0
        high = (
            self._bounds[shard] - 1
            if shard < self.num_shards - 1
            else (1 << self.key_bits) - 1
        )
        return low, high

    def split_range(
        self, low: int, high: int
    ) -> list[tuple[int, int, int]]:
        """Split ``[low, high]`` into per-shard ``(shard, low, high)`` pieces.

        Pieces come back in shard (= key) order and cover exactly the part
        of the input range inside the key domain (none when it lies wholly
        outside), so concatenating per-shard sorted answers reassembles the
        global sorted answer.  An inverted range raises eagerly, matching
        :meth:`DB.range_iter`.
        """
        clamped = clamp_to_domain(low, high, self.key_bits)
        if clamped is None:
            return []
        low, high = clamped
        pieces: list[tuple[int, int, int]] = []
        for shard in range(self.shard_of(low), self.shard_of(high) + 1):
            shard_low, shard_high = self.span(shard)
            pieces.append(
                (shard, max(low, shard_low), min(high, shard_high))
            )
        return pieces

    def group_keys(self, keys: Sequence[int]) -> dict[int, list[int]]:
        """Bucket ``keys`` by owning shard (insertion order preserved)."""
        groups: dict[int, list[int]] = {}
        for key in keys:
            groups.setdefault(self.shard_of(key), []).append(key)
        return groups
