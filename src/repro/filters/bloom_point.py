"""Plain full-key Bloom filter — RocksDB's default point filter.

This is the baseline the paper's Fig. 7 compares point-query FPR against
("the Bloom filters on RocksDB").  It indexes whole keys only, so it answers
point queries at the textbook FPR but can never rule out a range of more
than one key: range queries degrade to *always positive*.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.bloom import BloomFilter, optimal_num_hashes
from repro.errors import FilterBuildError, FilterQueryError
from repro.filters.base import KeyFilter, register_filter_codec

__all__ = ["BloomPointFilter"]


class BloomPointFilter(KeyFilter):
    """Full-key Bloom filter with no range support.

    Parameters
    ----------
    key_bits:
        Width of the key domain.
    bits_per_key:
        Memory budget per key.
    """

    name = "bloom"

    def __init__(
        self, key_bits: int = 64, bits_per_key: float = 10.0, salt: int = 0
    ) -> None:
        if key_bits < 1:
            raise FilterBuildError(f"key_bits must be >= 1, got {key_bits}")
        if bits_per_key < 0:
            raise FilterBuildError(
                f"bits_per_key must be >= 0, got {bits_per_key}"
            )
        self.key_bits = key_bits
        self.bits_per_key = bits_per_key
        self.salt = salt
        self._bloom: BloomFilter | None = None
        self._probes = 0

    def populate(self, keys: Sequence[int]) -> None:
        """Index all keys in a filter sized at ``bits_per_key * len(keys)``."""
        if self._bloom is not None:
            raise FilterBuildError("BloomPointFilter is already populated")
        unique = sorted(set(int(k) for k in keys))
        num_bits = int(round(self.bits_per_key * len(unique)))
        self._bloom = BloomFilter(
            num_bits, optimal_num_hashes(self.bits_per_key), salt=self.salt
        )
        for key in unique:
            self._bloom.add(key)

    def may_contain(self, key: int) -> bool:
        """Standard Bloom point probe."""
        bloom = self._require_populated()
        self._probes += 1
        return bloom.may_contain(int(key))

    def may_contain_batch(self, keys: Sequence[int]) -> list[bool]:
        """Point probes for a key group (scalar or vector kernel by size)."""
        bloom = self._require_populated()
        self._probes += len(keys)
        return bloom.contains_batch(keys, self.key_bits)

    def may_contain_range(self, low: int, high: int) -> bool:
        """Degenerate: a size-1 range is a point probe, anything else passes."""
        if low > high:
            raise FilterQueryError(f"invalid range: low={low} > high={high}")
        if low == high:
            return self.may_contain(low)
        return True

    def size_in_bits(self) -> int:
        """Bloom payload size."""
        return self._require_populated().size_in_bits()

    def serialize(self) -> bytes:
        """Serialize: key_bits header + Bloom payload."""
        return self.key_bits.to_bytes(2, "little") + self._require_populated().to_bytes()

    @classmethod
    def deserialize(cls, payload: bytes) -> "BloomPointFilter":
        """Reconstruct from :meth:`serialize` output."""
        filt = cls(key_bits=int.from_bytes(payload[:2], "little"))
        filt._bloom = BloomFilter.from_bytes(payload[2:])
        filt.salt = filt._bloom.salt
        return filt

    def design_fpr(self) -> float | None:
        """The textbook Bloom FPR at the current fill ratio."""
        if self._bloom is None:
            return None
        return self._bloom.expected_fpr()

    def probe_count(self) -> int:
        return self._probes

    def reset_probe_count(self) -> None:
        self._probes = 0

    def _require_populated(self) -> BloomFilter:
        if self._bloom is None:
            raise FilterBuildError("BloomPointFilter not populated yet")
        return self._bloom


register_filter_codec(BloomPointFilter.name, BloomPointFilter.deserialize)
