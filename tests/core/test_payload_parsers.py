"""Malformed filter payloads fail typed, before anything is allocated.

A filter block is read back from disk, so every parser treats its input as
untrusted: a bad header is a :class:`SerializationError` (which the store
turns into a degraded run), never a ``MemoryError`` or a build error.
"""

import pytest

from repro.core.bitarray import BitArray
from repro.core.bloom import BloomFilter
from repro.core.rosetta import Rosetta
from repro.errors import SerializationError


def _u(value: int, width: int) -> bytes:
    return value.to_bytes(width, "little")


_BLOOM = BloomFilter(64, 2)
_ROSETTA = Rosetta.build(range(0, 400, 3), key_bits=16, bits_per_key=12)


def _rosetta_header(key_bits: int, num_levels: int) -> bytes:
    return b"ROSETTA2" + _u(key_bits, 2) + _u(num_levels, 2) + _u(1, 8)


MALFORMED = {
    # A 2^62-bit header over an empty body: checked before the 512 PiB
    # array it names is built.
    "bitarray-huge-header": (BitArray.from_bytes, _u(1 << 62, 8)),
    "bitarray-short-body": (BitArray.from_bytes, _u(128, 8) + bytes(8)),
    "bloom-zero-hashes": (
        BloomFilter.from_bytes,
        b"RBF1" + _u(0, 4) + _u(0, 8) + BitArray(64).to_bytes(),
    ),
    "bloom-truncated-header": (BloomFilter.from_bytes, b"RBF1" + _u(2, 4)),
    "rosetta-truncated-header": (Rosetta.from_bytes, b"ROSETTA2"),
    "rosetta-zero-key-bits": (Rosetta.from_bytes, _rosetta_header(0, 1)),
    "rosetta-zero-levels": (Rosetta.from_bytes, _rosetta_header(16, 0)),
    "rosetta-more-levels-than-key-bits": (
        Rosetta.from_bytes,
        _rosetta_header(2, 4)
        + b"".join(
            _u(len(_BLOOM.to_bytes()), 8) + _BLOOM.to_bytes() for _ in range(4)
        ),
    ),
    "rosetta-trailing-bytes": (Rosetta.from_bytes, _ROSETTA.to_bytes() + b"\0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_payload_raises_serialization_error(case):
    parse, payload = MALFORMED[case]
    with pytest.raises(SerializationError):
        parse(payload)
