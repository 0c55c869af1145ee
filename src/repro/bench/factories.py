"""Named filter recipes used throughout the benchmarks.

One place mapping the paper's baseline names to concrete
:class:`~repro.filters.base.FilterFactory` instances at a given memory
budget:

* ``rosetta`` (+ per-strategy variants) — the paper's filter;
* ``surf`` / ``surf-hash`` / ``surf-real`` / ``surf-base`` — Zhang et al.;
* ``prefix-bloom`` — RocksDB's built-in range helper;
* ``bloom`` — RocksDB's default point filter;
* ``fence`` — no filter at all (fence pointers only): pass ``None`` to the
  store, or use the standalone :class:`FencePointerFilter` model.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import WorkloadError
from repro.filters.base import FilterFactory, KeyFilter
from repro.filters.bloom_point import BloomPointFilter
from repro.filters.fence import FencePointerFilter
from repro.filters.prefix_bloom import PrefixBloomFilter
from repro.filters.rosetta_adapter import RosettaFilter
from repro.filters.surf.surf import SurfFilter

__all__ = ["make_factory", "FILTER_NAMES"]

FILTER_NAMES = (
    "rosetta",
    "rosetta-single",
    "rosetta-variable",
    "rosetta-optimized",
    "rosetta-uniform",
    "rosetta-equilibrium",
    "surf",
    "surf-real",
    "surf-hash",
    "surf-base",
    "prefix-bloom",
    "bloom",
    "fence",
)


#: Recipes whose filters hash their keys and therefore accept a per-SST
#: salt (and a rebuild-time bits-per-key override).  Structural recipes —
#: the SuRF variants and the fence-pointer pseudo-filter — derive their
#: layout from the keys themselves, so their builders deliberately take no ``salt`` parameter
#: and :meth:`FilterFactory.build` raises if one is supplied.
_SALTABLE = frozenset(
    {
        "rosetta",
        "rosetta-single",
        "rosetta-variable",
        "rosetta-optimized",
        "rosetta-uniform",
        "rosetta-equilibrium",
        "prefix-bloom",
        "bloom",
    }
)


def make_factory(
    name: str,
    key_bits: int,
    bits_per_key: float,
    max_range: int = 64,
    range_size_histogram: Mapping[int, float] | None = None,
) -> FilterFactory:
    """Build the named filter recipe at the given memory budget.

    ``rosetta`` uses the paper's hybrid rule (single-level for small-range
    workloads, variable-level otherwise), driven by
    ``range_size_histogram``; the ``rosetta-<strategy>`` variants pin one
    allocation strategy for the Fig. 4 ablations.
    """
    if name not in FILTER_NAMES:
        raise WorkloadError(
            f"unknown filter recipe {name!r}; expected one of {FILTER_NAMES}"
        )

    if name in _SALTABLE:

        def build(
            keys: Sequence[int],
            salt: int = 0,
            bits_per_key: float | None = None,
            _default_bpk: float = bits_per_key,
        ) -> KeyFilter:
            filt = _instantiate(
                name,
                key_bits,
                bits_per_key if bits_per_key is not None else _default_bpk,
                max_range,
                range_size_histogram,
                salt=salt,
            )
            filt.populate(keys)
            return filt

    else:

        def build(keys: Sequence[int]) -> KeyFilter:
            filt = _instantiate(
                name, key_bits, bits_per_key, max_range, range_size_histogram
            )
            filt.populate(keys)
            return filt

    return FilterFactory(name, build, bits_per_key=bits_per_key)


def _instantiate(
    name: str,
    key_bits: int,
    bits_per_key: float,
    max_range: int,
    histogram: Mapping[int, float] | None,
    salt: int = 0,
) -> KeyFilter:
    if name.startswith("rosetta"):
        strategy = "hybrid" if name == "rosetta" else name.split("-", 1)[1]
        return RosettaFilter(
            key_bits=key_bits,
            bits_per_key=bits_per_key,
            max_range=max_range,
            strategy=strategy,
            range_size_histogram=histogram,
            salt=salt,
        )
    if name.startswith("surf"):
        variant = {"surf": "real", "surf-real": "real",
                   "surf-hash": "hash", "surf-base": "base"}[name]
        return SurfFilter(
            key_bits=key_bits, variant=variant, bits_per_key=bits_per_key
        )
    if name == "prefix-bloom":
        return PrefixBloomFilter(
            key_bits=key_bits, bits_per_key=bits_per_key, salt=salt
        )
    if name == "bloom":
        return BloomPointFilter(
            key_bits=key_bits, bits_per_key=bits_per_key, salt=salt
        )
    if name == "fence":
        return FencePointerFilter(key_bits=key_bits)
    raise WorkloadError(f"unhandled filter recipe {name!r}")
