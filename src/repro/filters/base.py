"""The master *filter template* API (paper §4).

The paper standardises filters behind one template exposing "the fundamental
filter functionalities — populating the filter, querying the filter about the
existence of one or more keys (point lookups and range scans), and
serializing and deserializing the filter contents and its structure."

Every filter in this library — Rosetta, SuRF, Prefix Bloom, plain Bloom and
the fence-pointer pseudo-filter — implements :class:`KeyFilter` through a
small adapter so the LSM-tree store (:mod:`repro.lsm`) and the benchmark
harness can swap them freely.  Adapters operate on *integer keys* in a
``2^key_bits`` domain; the workload layer provides codecs between application
keys (ints, strings) and this domain.

A :class:`FilterFactory` captures the filter family plus its tuning knobs
(memory budget, max range, allocation strategy...) so the store can rebuild
filter instances at every flush/compaction, as the paper requires.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, Sequence

from repro.errors import FilterBuildError, SerializationError

__all__ = ["KeyFilter", "FilterFactory", "register_filter_codec", "deserialize_filter"]


class KeyFilter(abc.ABC):
    """Abstract probabilistic filter over integer keys in ``[0, 2^key_bits)``.

    Implementations are immutable after :meth:`populate` — one instance per
    immutable LSM run.
    """

    #: Short stable identifier used in serialized envelopes and reports.
    name: str = "abstract"

    @abc.abstractmethod
    def populate(self, keys: Sequence[int]) -> None:
        """Index all ``keys``; must be called exactly once, before queries."""

    @abc.abstractmethod
    def may_contain(self, key: int) -> bool:
        """Point lookup: ``False`` only if ``key`` is definitely absent."""

    @abc.abstractmethod
    def may_contain_range(self, low: int, high: int) -> bool:
        """Range lookup: ``False`` only if ``[low, high]`` is definitely empty."""

    @abc.abstractmethod
    def size_in_bits(self) -> int:
        """Memory footprint of the filter payload, in bits."""

    @abc.abstractmethod
    def serialize(self) -> bytes:
        """Serialize contents and structure to bytes."""

    def may_contain_batch(self, keys: Sequence[int]) -> list[bool]:
        """Point lookups for a key group; one verdict per key.

        The only point probe the LSM issues: ``DB.get`` and
        ``DB.multi_get`` make one call per run for that run's whole key
        group (a ``get`` is a group of one).  The default is a Python loop
        over :meth:`may_contain`; filters with a bulk probe path (Rosetta
        and plain Bloom, through ``BloomFilter.contains_batch``) override
        it and pick their kernel from ``len(keys)``.  Verdicts must agree
        with :meth:`may_contain` element-wise.
        """
        return [self.may_contain(int(key)) for key in keys]

    def probe_count(self) -> int:
        """Cumulative internal probe count, if tracked (0 otherwise)."""
        return 0

    def reset_probe_count(self) -> None:
        """Reset internal probe counters, if tracked."""

    def design_fpr(self, width: int) -> float | None:
        """The FPR this filter was built to deliver on an empty query of
        ``width`` keys, which the FP-feedback attack detector tests each
        run's false positives against; ``None`` (the default) means no
        model covers the query, and its outcome is not evidence.
        """
        return None


class FilterFactory:
    """A named recipe that builds fresh :class:`KeyFilter` instances.

    The LSM store calls :meth:`build` once per flush/compaction output run;
    benchmarks call it once per configuration point.  ``salt_capable`` and
    ``bits_capable`` say whether ``builder`` takes a ``salt=`` and a
    ``bits_per_key=`` keyword.
    """

    def __init__(
        self,
        name: str,
        builder: Callable[..., KeyFilter],
        *,
        bits_per_key: float | None = None,
        salt_capable: bool = False,
        bits_capable: bool = False,
    ) -> None:
        self.name = name
        self._builder = builder
        self.bits_per_key = bits_per_key
        self.salt_capable = salt_capable
        self._bits_capable = bits_capable

    def build(
        self,
        keys: Sequence[int],
        *,
        salt: int = 0,
        bits_per_key: float | None = None,
    ) -> KeyFilter:
        """Build a populated filter over ``keys``.

        ``salt`` re-keys the filter's hashes (per-SST salting); passing a
        nonzero salt to a recipe whose builder cannot accept one —
        structural filters like SuRF hash nothing and cannot be re-keyed —
        is a :class:`~repro.errors.FilterBuildError`, never silently
        ignored.  ``bits_per_key`` overrides the recipe's memory budget
        when the builder supports it (a quarantined run's filter is rebuilt
        in place with bonus bits) and is dropped otherwise.
        """
        kwargs = {}
        if salt:
            if not self.salt_capable:
                raise FilterBuildError(
                    f"filter recipe {self.name!r} cannot be salted: its "
                    "builder accepts no 'salt' parameter (structural "
                    "filters like SuRF derive their layout from the keys "
                    "themselves and stay attackable; use a hashed filter "
                    "or set filter_salt_seed=0)"
                )
            kwargs["salt"] = salt
        if bits_per_key is not None and self._bits_capable:
            kwargs["bits_per_key"] = bits_per_key
        return self._builder(keys, **kwargs)

    def __repr__(self) -> str:
        return f"FilterFactory(name={self.name!r}, bits_per_key={self.bits_per_key})"


# ----------------------------------------------------------------------
# Serialization envelope registry
# ----------------------------------------------------------------------
#
# Filter blocks inside SST files carry a one-byte-length name tag followed by
# the filter's own payload; deserialization dispatches on the tag.

_CODECS: dict[str, Callable[[bytes], KeyFilter]] = {}


def register_filter_codec(name: str, loader: Callable[[bytes], KeyFilter]) -> None:
    """Register a loader for filter envelopes tagged ``name``."""
    if not name or len(name.encode()) > 255:
        raise ValueError(f"invalid filter codec name {name!r}")
    _CODECS[name] = loader


def serialize_envelope(filt: KeyFilter) -> bytes:
    """Wrap a filter's payload in a self-describing, checksummed envelope.

    Layout: ``[tag_len u8][tag][crc32 u32le][payload]``.  The CRC covers
    the payload so bit rot inside a persisted filter block is detected at
    deserialization time, not returned as a silently-wrong filter.
    """
    import zlib

    tag = filt.name.encode()
    payload = filt.serialize()
    crc = zlib.crc32(payload).to_bytes(4, "little")
    return bytes([len(tag)]) + tag + crc + payload


def deserialize_filter(envelope: bytes) -> KeyFilter:
    """Reconstruct any registered filter from its envelope bytes."""
    import zlib

    if not envelope:
        raise SerializationError("empty filter envelope")
    tag_len = envelope[0]
    if len(envelope) < 1 + tag_len + 4:
        raise SerializationError("truncated filter envelope")
    try:
        name = envelope[1 : 1 + tag_len].decode()
    except UnicodeDecodeError as exc:
        raise SerializationError("corrupt filter envelope tag") from exc
    loader = _CODECS.get(name)
    if loader is None:
        raise SerializationError(
            f"no codec registered for filter {name!r} "
            f"(known: {sorted(_CODECS)})"
        )
    crc = int.from_bytes(envelope[1 + tag_len : 5 + tag_len], "little")
    payload = envelope[5 + tag_len :]
    if zlib.crc32(payload) != crc:
        raise SerializationError(f"filter envelope checksum mismatch ({name})")
    return loader(payload)
