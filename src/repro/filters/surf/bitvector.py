"""Succinct bit vector with rank/select support for the LOUDS encodings.

SuRF's LOUDS-Dense/Sparse encodings are navigated entirely through
``rank1``/``select1`` queries over bit vectors.  This implementation keeps
the classic two-level design small: the raw bits live in a
:class:`~repro.core.bitarray.BitArray`; an auxiliary directory stores the
cumulative popcount at every 64-bit word boundary, giving O(1) ``rank1`` and
O(log n) ``select1`` (binary search over the directory).

The directory is a query-time acceleration structure; SuRF's memory
accounting (like the paper's) charges only the raw bits, so
:meth:`size_in_bits` reports the payload alone.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitarray import BitArray

__all__ = ["RankBitVector"]


class RankBitVector:
    """Immutable bit vector supporting ``rank1`` and ``select1``.

    Build from a Python iterable of booleans/ints via :meth:`from_bits`, or
    wrap an existing :class:`BitArray` (which must not be mutated afterward).
    """

    __slots__ = ("_bits", "_word_ranks", "_total_ones")

    def __init__(self, bits: BitArray) -> None:
        self._bits = bits
        words = bits.words()
        if len(words):
            counts = np.bitwise_count(words).astype(np.int64)
            self._word_ranks = np.concatenate(([0], np.cumsum(counts)))
        else:
            self._word_ranks = np.zeros(1, dtype=np.int64)
        self._total_ones = int(self._word_ranks[-1])

    @classmethod
    def from_bits(cls, flags) -> "RankBitVector":
        """Build from an iterable of truthy flags."""
        flags = list(flags)
        bits = BitArray(len(flags))
        for index, flag in enumerate(flags):
            if flag:
                bits.set(index)
        return cls(bits)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._bits.num_bits

    @property
    def num_ones(self) -> int:
        """Total number of set bits."""
        return self._total_ones

    def get(self, index: int) -> bool:
        """Bit at ``index``."""
        return self._bits.test(index)

    def rank1(self, index: int) -> int:
        """Number of set bits in ``[0, index)`` (exclusive prefix count)."""
        if index <= 0:
            return 0
        if index > len(self):
            index = len(self)
        word = index >> 6
        within = index & 63
        count = int(self._word_ranks[word])
        if within:
            mask = (1 << within) - 1
            count += (int(self._bits.words()[word]) & mask).bit_count()
        return count

    def select1(self, nth: int) -> int:
        """Position of the ``nth`` set bit (1-based).  Raises on overflow."""
        if not 1 <= nth <= self._total_ones:
            raise IndexError(
                f"select1({nth}) out of range (have {self._total_ones} ones)"
            )
        # Binary search the word directory for the word containing the bit.
        word = int(np.searchsorted(self._word_ranks, nth, side="left")) - 1
        remaining = nth - int(self._word_ranks[word])
        value = int(self._bits.words()[word])
        position = word << 6
        while True:
            low_bit = value & -value
            remaining -= 1
            if remaining == 0:
                return position + low_bit.bit_length() - 1
            value ^= low_bit

    # ------------------------------------------------------------------
    # Accounting / serialization
    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        """Payload bits only (the succinct structure SuRF charges for)."""
        return len(self)

    def to_bytes(self) -> bytes:
        """Serialize the payload bits (directory is rebuilt on load)."""
        return self._bits.to_bytes()

    @classmethod
    def from_bytes(cls, payload: bytes) -> "RankBitVector":
        """Reconstruct from :meth:`to_bytes` output."""
        return cls(BitArray.from_bytes(payload))

    def __repr__(self) -> str:
        return f"RankBitVector(len={len(self)}, ones={self._total_ones})"
