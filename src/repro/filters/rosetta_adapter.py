"""Adapter exposing :class:`repro.core.Rosetta` through the filter template.

The core class already implements every capability; this wrapper pins build
parameters so the LSM store can rebuild instances per run, tracks probe
counts via the core's :class:`~repro.core.rosetta.ProbeStats`, and plugs into
the serialization envelope registry.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.rosetta import Rosetta
from repro.errors import FilterBuildError
from repro.filters.base import KeyFilter, register_filter_codec

__all__ = ["RosettaFilter"]


class RosettaFilter(KeyFilter):
    """Rosetta behind the :class:`~repro.filters.base.KeyFilter` template.

    Parameters mirror :meth:`repro.core.Rosetta.build`.
    """

    name = "rosetta"

    def __init__(
        self,
        key_bits: int = 64,
        bits_per_key: float = 22.0,
        max_range: int = 64,
        strategy: str = "optimized",
        range_size_histogram: Mapping[int, float] | None = None,
        salt: int = 0,
    ) -> None:
        self.key_bits = key_bits
        self.bits_per_key = bits_per_key
        self.max_range = max_range
        self.strategy = strategy
        self.range_size_histogram = (
            dict(range_size_histogram) if range_size_histogram else None
        )
        self.salt = salt
        self._rosetta: Rosetta | None = None

    def populate(self, keys: Sequence[int]) -> None:
        """Build the underlying Rosetta over ``keys``."""
        if self._rosetta is not None:
            raise FilterBuildError("RosettaFilter is already populated")
        self._rosetta = Rosetta.build(
            keys,
            key_bits=self.key_bits,
            bits_per_key=self.bits_per_key,
            max_range=self.max_range,
            strategy=self.strategy,
            range_size_histogram=self.range_size_histogram,
            salt=self.salt,
        )

    @property
    def core(self) -> Rosetta:
        """The populated :class:`~repro.core.Rosetta` behind this filter."""
        return self._require_populated()

    def may_contain(self, key: int) -> bool:
        """Point lookup on the full-key level only (§2.2.2)."""
        return self._require_populated().may_contain(int(key))

    def may_contain_range(self, low: int, high: int) -> bool:
        """Dyadic decomposition + doubting (Algorithm 2).

        The core walks the range's intervals one probe at a time, or past
        ``WALK_MAX_INTERVALS`` of them sweeps them level by level.
        """
        return self._require_populated().may_contain_range(low, high)

    def may_contain_batch(self, keys: Sequence[int]) -> list[bool]:
        """Point lookups for a key group on the full-key level.

        The only point probe the LSM issues (a ``get`` is a group of one,
        which the core hands straight to the leaf probe); for larger groups
        the core picks the scalar or vector Bloom kernel from ``len(keys)``.
        """
        rosetta = self._rosetta
        if rosetta is None:
            rosetta = self._require_populated()  # raises
        return rosetta.may_contain_each(keys)

    def tightened_range(self, low: int, high: int) -> tuple[int, int] | None:
        """§2.2.1 effective-range tightening."""
        return self._require_populated().tightened_range(low, high)

    def size_in_bits(self) -> int:
        """Total memory across all Bloom-filter levels."""
        return self._require_populated().size_in_bits()

    def serialize(self) -> bytes:
        """Serialize the full multi-level structure."""
        return self._require_populated().to_bytes()

    @classmethod
    def deserialize(cls, payload: bytes) -> "RosettaFilter":
        """Reconstruct from :meth:`serialize` output."""
        rosetta = Rosetta.from_bytes(payload)
        filt = cls(key_bits=rosetta.key_bits, salt=rosetta.salt)
        filt._rosetta = rosetta
        return filt

    def design_fpr(self) -> float | None:
        """Predicted worst-case range FPR at the designed max range.

        Conservative on purpose: the attack detector flags a run when the
        observed FPR exceeds a multiple of this, so the anchor is the
        largest range the filter was tuned for, not the (much lower) leaf
        point-query FPR — benign range traffic must not look like an
        attack.
        """
        if self._rosetta is None:
            return None
        core = self._rosetta
        if core.num_keys == 0:
            return None
        return min(1.0, core.predicted_range_fpr(1 << core.max_height))

    def probe_count(self) -> int:
        if self._rosetta is None:
            return 0
        return self._rosetta.stats.bloom_probes

    def reset_probe_count(self) -> None:
        if self._rosetta is not None:
            self._rosetta.stats.reset()

    def _require_populated(self) -> Rosetta:
        if self._rosetta is None:
            raise FilterBuildError("RosettaFilter not populated yet")
        return self._rosetta


register_filter_codec(RosettaFilter.name, RosettaFilter.deserialize)
