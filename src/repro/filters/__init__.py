"""Filter implementations behind the master filter template (paper §4).

Rosetta (the paper's contribution) plus every baseline it is evaluated
against in §5: SuRF [74], Prefix Bloom filters [33], plain Bloom filters
[10] and fence pointers.
"""

from repro.filters.base import (
    FilterFactory,
    KeyFilter,
    deserialize_filter,
    register_filter_codec,
    serialize_envelope,
)
from repro.filters.bloom_point import BloomPointFilter
from repro.filters.fence import FencePointerFilter
from repro.filters.prefix_bloom import PrefixBloomFilter
from repro.filters.rosetta_adapter import RosettaFilter
from repro.filters.surf import SuRF, SurfFilter

__all__ = [
    "BloomPointFilter",
    "FencePointerFilter",
    "FilterFactory",
    "KeyFilter",
    "PrefixBloomFilter",
    "RosettaFilter",
    "SuRF",
    "SurfFilter",
    "deserialize_filter",
    "register_filter_codec",
    "serialize_envelope",
]
