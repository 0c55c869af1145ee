"""A compact, NumPy-backed bit array.

This is the storage substrate for every Bloom-filter-like structure in the
library (:mod:`repro.core.bloom`, the SuRF rank/select bit vectors, ...).
Bits are packed into a ``uint64`` NumPy array; single-bit operations are plain
integer arithmetic, and bulk operations (``set_many``, popcount) vectorize
over the backing words.  The words are stored little-endian on every host, so
the same memory read as bytes holds bit ``i`` in bit ``i & 7`` of byte
``i >> 3``: :meth:`BitArray.byte_view` hands that reading to the scalar Bloom
probe, which tests a bit without creating a NumPy scalar.

The array has a fixed size chosen at construction; this mirrors how filters in
an LSM-tree are sized once per immutable run and never grow.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SerializationError

_WORD_BITS = 64
# Explicitly little-endian (the native dtype on little-endian hosts): it is
# what makes byte_view() and the serialized layout host independent.
_WORD_DTYPE = np.dtype("<u8")

__all__ = ["BitArray"]


class BitArray:
    """Fixed-size array of bits packed into 64-bit words.

    Parameters
    ----------
    num_bits:
        Total number of addressable bits.  May be zero (an empty array), which
        is useful for filter levels that were assigned no memory.

    Examples
    --------
    >>> bits = BitArray(128)
    >>> bits.set(17)
    >>> bits.test(17)
    True
    >>> bits.test(18)
    False
    """

    __slots__ = ("_num_bits", "_words", "_bytes")

    def __init__(self, num_bits: int) -> None:
        if num_bits < 0:
            raise ValueError(f"num_bits must be non-negative, got {num_bits}")
        self._num_bits = int(num_bits)
        num_words = (self._num_bits + _WORD_BITS - 1) // _WORD_BITS
        self._bind(np.zeros(num_words, dtype=_WORD_DTYPE))

    def _bind(self, words: np.ndarray) -> None:
        """Adopt ``words`` as the backing store, and the byte view with it.

        The only place ``_words`` is bound, so the view can never outlive
        or miss the array it reads.
        """
        self._words = words
        self._bytes = words.view(np.uint8).data

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_bits

    @property
    def num_bits(self) -> int:
        """Number of addressable bits."""
        return self._num_bits

    # ------------------------------------------------------------------
    # Single-bit operations
    # ------------------------------------------------------------------
    def set(self, index: int) -> None:
        """Set the bit at ``index`` to 1."""
        self._check_index(index)
        self._words[index >> 6] |= np.uint64(1 << (index & 63))

    def clear(self, index: int) -> None:
        """Set the bit at ``index`` to 0."""
        self._check_index(index)
        self._words[index >> 6] &= np.uint64(~(1 << (index & 63)) & 0xFFFFFFFFFFFFFFFF)

    def test(self, index: int) -> bool:
        """Return ``True`` iff the bit at ``index`` is 1."""
        self._check_index(index)
        return bool(int(self._words[index >> 6]) >> (index & 63) & 1)

    def __getitem__(self, index: int) -> bool:
        return self.test(index)

    def __setitem__(self, index: int, value: bool) -> None:
        if value:
            self.set(index)
        else:
            self.clear(index)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._num_bits:
            raise IndexError(f"bit index {index} out of range [0, {self._num_bits})")

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------
    def set_many(self, indexes: np.ndarray) -> None:
        """Set every bit whose index appears in ``indexes`` (vectorized)."""
        if len(indexes) == 0:
            return
        idx = np.asarray(indexes, dtype=np.uint64)
        words = idx >> np.uint64(6)
        masks = np.uint64(1) << (idx & np.uint64(63))
        # np.bitwise_or.at handles repeated word indexes correctly.
        np.bitwise_or.at(self._words, words, masks)

    def test_many(self, indexes: np.ndarray) -> np.ndarray:
        """Return a boolean array: for each index, whether its bit is set."""
        if len(indexes) == 0:
            return np.zeros(0, dtype=bool)
        idx = np.asarray(indexes, dtype=np.uint64)
        words = self._words[(idx >> np.uint64(6)).astype(np.int64)]
        return ((words >> (idx & np.uint64(63))) & np.uint64(1)).astype(bool)

    def popcount(self) -> int:
        """Return the number of set bits."""
        return int(np.unpackbits(self._words.view(np.uint8)).sum())

    def fill_ratio(self) -> float:
        """Return the fraction of bits set (0.0 for an empty array)."""
        if self._num_bits == 0:
            return 0.0
        return self.popcount() / self._num_bits

    def words(self) -> np.ndarray:
        """Return the backing word array (a view; mutate with care)."""
        return self._words

    def byte_view(self) -> memoryview:
        """The backing words as a zero-copy ``memoryview`` of bytes.

        Live: every later ``set``/``set_many`` shows through.
        Bit ``i`` is ``view[i >> 3] >> (i & 7) & 1``, the same bit
        :meth:`test` reads; indexing it yields plain ``int`` s.
        """
        return self._bytes

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to a compact, versionless byte string.

        The layout is an 8-byte little-endian bit count followed by the raw
        little-endian words.
        """
        header = self._num_bits.to_bytes(8, "little")
        return header + self._words.tobytes()

    @classmethod
    def from_bytes(cls, payload: bytes) -> "BitArray":
        """Reconstruct a :class:`BitArray` from :meth:`to_bytes` output."""
        if len(payload) < 8:
            raise SerializationError("bit array payload too short for header")
        num_bits = int.from_bytes(payload[:8], "little")
        expected = (num_bits + _WORD_BITS - 1) // _WORD_BITS * 8
        body = payload[8:]
        if len(body) != expected:
            raise SerializationError(
                f"bit array payload has {len(body)} body bytes, expected {expected}"
            )
        arr = cls.__new__(cls)
        arr._num_bits = num_bits
        arr._bind(np.frombuffer(body, dtype=_WORD_DTYPE).copy())
        return arr

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self._num_bits == other._num_bits and bool(
            np.array_equal(self._words, other._words)
        )

    def __repr__(self) -> str:
        return f"BitArray(num_bits={self._num_bits}, set={self.popcount()})"
