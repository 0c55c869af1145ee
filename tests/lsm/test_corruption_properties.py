"""Property test: every single-byte corruption of a block is detected.

CRC32 detects all single-bit and single-byte errors; these properties
hammer the block codecs with random flips and assert no corrupted block
ever decodes silently.
"""

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.lsm.format import (
    DataBlockBuilder,
    ValueTag,
    decode_data_block,
    decode_index_block,
    encode_index_block,
    BlockHandle,
)


def _build_block(entries):
    builder = DataBlockBuilder(restart_interval=4)
    for key, tag, value in entries:
        builder.extend([(key, tag, value)])
    return builder.finish()


_entries = st.lists(
    st.tuples(
        st.binary(min_size=1, max_size=8),
        st.sampled_from([ValueTag.PUT, ValueTag.DELETE]),
        st.binary(max_size=12),
    ),
    min_size=1,
    max_size=20,
    unique_by=lambda e: e[0],
)


@settings(max_examples=120, deadline=None)
@given(entries=_entries, data=st.data())
def test_any_single_byte_flip_detected_or_equal(entries, data):
    """Flipping any byte either raises CorruptionError or (if the flip hit
    padding that CRC covers — impossible here, so always) raises."""
    entries = sorted(entries, key=lambda e: e[0])
    block = bytearray(_build_block(entries))
    position = data.draw(st.integers(min_value=0, max_value=len(block) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    block[position] ^= flip
    try:
        decoded = list(decode_data_block(bytes(block)))
    except CorruptionError:
        return  # detected, as required
    # CRC32 cannot miss a single-byte change over the covered region; the
    # only un-covered bytes are the CRC itself — flipping those must fail
    # the check too. Reaching here means the decode *matched* the original.
    raise AssertionError(
        f"corruption at byte {position} (xor {flip:#x}) went undetected; "
        f"decoded {len(decoded)} entries"
    )


@settings(max_examples=80, deadline=None)
@given(
    keys=st.lists(st.binary(min_size=1, max_size=6), min_size=1, max_size=10,
                  unique=True),
    data=st.data(),
)
def test_index_block_single_byte_flip_detected(keys, data):
    entries = [
        (key, BlockHandle(index * 100, 100))
        for index, key in enumerate(sorted(keys))
    ]
    payload = bytearray(encode_index_block(entries))
    position = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    payload[position] ^= flip
    try:
        decode_index_block(bytes(payload))
    except CorruptionError:
        return
    raise AssertionError("index-block corruption went undetected")


@settings(max_examples=60, deadline=None)
@given(entries=_entries)
def test_crc_matches_reference_implementation(entries):
    """The trailing 4 bytes are exactly zlib.crc32 of the body."""
    entries = sorted(entries, key=lambda e: e[0])
    block = _build_block(entries)
    body, crc = block[:-4], int.from_bytes(block[-4:], "little")
    assert zlib.crc32(body) == crc
