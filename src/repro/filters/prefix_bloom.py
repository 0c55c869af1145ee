"""Prefix Bloom filter — RocksDB's built-in range-query helper [33, 36].

Hashes a *fixed-length* prefix of every key into a Bloom filter.  A range
query that is expressible as a small set of fixed-length prefixes can be
filtered by probing those covering prefixes; anything else passes through.
This is the "default RocksDB" range baseline of Fig. 5(D).

Two well-known weaknesses the paper exploits:

* Point queries: all memory sits in prefixes, so a point probe can only ask
  "does any key share my prefix?" — FPR approaches 1 on dense key sets
  (Fig. 7).
* Short ranges: a short range usually falls inside a single prefix bucket
  that *does* contain keys, so empty short ranges are rarely detected.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.bloom import BloomFilter, optimal_num_hashes
from repro.errors import FilterBuildError, FilterQueryError
from repro.filters.base import KeyFilter, register_filter_codec

__all__ = ["PrefixBloomFilter"]

#: Ranges covering more than this many prefixes are not probed (pass through),
#: mirroring RocksDB only using the prefix filter for prefix-shaped scans.
DEFAULT_MAX_COVERING_PREFIXES = 64


class PrefixBloomFilter(KeyFilter):
    """Bloom filter over fixed-length key prefixes.

    Parameters
    ----------
    key_bits:
        Width of the key domain.
    prefix_bits:
        Length of the hashed prefix (RocksDB's ``prefix_extractor`` length).
        Defaults to half the key width.
    bits_per_key:
        Memory budget per *key* (matching how the paper equalises budgets).
    max_covering_prefixes:
        Ranges spanning more than this many prefix buckets pass through
        unprobed.
    """

    name = "prefix-bloom"

    def __init__(
        self,
        key_bits: int = 64,
        prefix_bits: int | None = None,
        bits_per_key: float = 10.0,
        max_covering_prefixes: int = DEFAULT_MAX_COVERING_PREFIXES,
        salt: int = 0,
    ) -> None:
        """``prefix_bits=None`` selects a density-aware length at populate
        time: ``ceil(log2(n)) + 2`` bits, i.e. ~4x as many prefix buckets as
        keys.  A fixed-length extractor only prunes when buckets are neither
        almost-all-occupied nor uselessly fine; tying the length to the key
        count keeps the baseline in the same occupancy regime as the paper's
        50M-key setup at any benchmark scale."""
        if key_bits < 1:
            raise FilterBuildError(f"key_bits must be >= 1, got {key_bits}")
        if prefix_bits is not None and not 1 <= prefix_bits <= key_bits:
            raise FilterBuildError(
                f"prefix_bits must be in [1, {key_bits}], got {prefix_bits}"
            )
        if max_covering_prefixes < 1:
            raise FilterBuildError(
                f"max_covering_prefixes must be >= 1, got {max_covering_prefixes}"
            )
        self.key_bits = key_bits
        self.prefix_bits = prefix_bits
        self.bits_per_key = bits_per_key
        self.max_covering_prefixes = max_covering_prefixes
        self.salt = salt
        self._bloom: BloomFilter | None = None
        self._probes = 0

    @property
    def _shift(self) -> int:
        if self.prefix_bits is None:
            raise FilterBuildError("prefix length resolved only at populate()")
        return self.key_bits - self.prefix_bits

    def populate(self, keys: Sequence[int]) -> None:
        """Index the fixed-length prefix of every key."""
        if self._bloom is not None:
            raise FilterBuildError("PrefixBloomFilter is already populated")
        if self.prefix_bits is None:
            num_keys = max(1, len(set(int(k) for k in keys)))
            self.prefix_bits = min(
                self.key_bits, max(1, (num_keys - 1).bit_length() + 2)
            )
        prefixes = sorted({int(k) >> self._shift for k in keys})
        num_keys = len(set(int(k) for k in keys))
        num_bits = int(round(self.bits_per_key * num_keys))
        bits_per_item = num_bits / len(prefixes) if prefixes else 1.0
        self._bloom = BloomFilter(
            num_bits, optimal_num_hashes(bits_per_item), salt=self.salt
        )
        for prefix in prefixes:
            self._bloom.add(prefix)

    def may_contain(self, key: int) -> bool:
        """Point probe degrades to a prefix-membership probe."""
        bloom = self._require_populated()
        self._probes += 1
        return bloom.may_contain(int(key) >> self._shift)

    def may_contain_range(self, low: int, high: int) -> bool:
        """Probe every prefix bucket the range touches (if few enough)."""
        if low > high:
            raise FilterQueryError(f"invalid range: low={low} > high={high}")
        bloom = self._require_populated()
        first = low >> self._shift
        last = high >> self._shift
        if last - first + 1 > self.max_covering_prefixes:
            return True
        for prefix in range(first, last + 1):
            self._probes += 1
            if bloom.may_contain(prefix):
                return True
        return False

    def size_in_bits(self) -> int:
        """Bloom payload size."""
        return self._require_populated().size_in_bits()

    def serialize(self) -> bytes:
        """Serialize: key_bits, prefix_bits headers + Bloom payload."""
        return (
            self.key_bits.to_bytes(2, "little")
            + self.prefix_bits.to_bytes(2, "little")
            + self._require_populated().to_bytes()
        )

    @classmethod
    def deserialize(cls, payload: bytes) -> "PrefixBloomFilter":
        """Reconstruct from :meth:`serialize` output."""
        key_bits = int.from_bytes(payload[:2], "little")
        prefix_bits = int.from_bytes(payload[2:4], "little")
        filt = cls(key_bits=key_bits, prefix_bits=prefix_bits)
        filt._bloom = BloomFilter.from_bytes(payload[4:])
        filt.salt = filt._bloom.salt
        return filt

    def probe_count(self) -> int:
        return self._probes

    def reset_probe_count(self) -> None:
        self._probes = 0

    def _require_populated(self) -> BloomFilter:
        if self._bloom is None:
            raise FilterBuildError("PrefixBloomFilter not populated yet")
        return self._bloom


register_filter_codec(PrefixBloomFilter.name, PrefixBloomFilter.deserialize)
