"""Unit tests for the NumPy-backed bit array."""

import numpy as np
import pytest

from repro.core.bitarray import BitArray
from repro.errors import SerializationError


class TestBasics:
    def test_new_array_is_all_zero(self):
        bits = BitArray(100)
        assert all(not bits.test(i) for i in range(100))
        assert bits.popcount() == 0

    def test_set_and_test_single_bit(self):
        bits = BitArray(100)
        bits.set(37)
        assert bits.test(37)
        assert not bits.test(36)
        assert not bits.test(38)

    def test_clear_bit(self):
        bits = BitArray(64)
        bits.set(10)
        bits.clear(10)
        assert not bits.test(10)

    def test_set_is_idempotent(self):
        bits = BitArray(64)
        bits.set(5)
        bits.set(5)
        assert bits.popcount() == 1

    def test_word_boundary_bits(self):
        bits = BitArray(256)
        for index in (0, 63, 64, 127, 128, 255):
            bits.set(index)
        for index in (0, 63, 64, 127, 128, 255):
            assert bits.test(index)
        assert bits.popcount() == 6

    def test_len_and_num_bits(self):
        bits = BitArray(77)
        assert len(bits) == 77
        assert bits.num_bits == 77

    def test_zero_size_array(self):
        bits = BitArray(0)
        assert len(bits) == 0
        assert bits.popcount() == 0
        assert bits.fill_ratio() == 0.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            BitArray(-1)

    def test_index_out_of_range(self):
        bits = BitArray(10)
        with pytest.raises(IndexError):
            bits.test(10)
        with pytest.raises(IndexError):
            bits.set(-1)

    def test_getitem_setitem(self):
        bits = BitArray(8)
        bits[3] = True
        assert bits[3]
        bits[3] = False
        assert not bits[3]


class TestBulkOps:
    def test_set_many_matches_scalar(self):
        scalar = BitArray(1000)
        bulk = BitArray(1000)
        indexes = [0, 5, 64, 64, 999, 313]  # includes a duplicate
        for index in indexes:
            scalar.set(index)
        bulk.set_many(np.asarray(indexes, dtype=np.uint64))
        assert scalar == bulk

    def test_set_many_duplicate_words(self):
        bits = BitArray(128)
        bits.set_many(np.asarray([1, 2, 3, 4, 5], dtype=np.uint64))
        assert bits.popcount() == 5

    def test_test_many(self):
        bits = BitArray(200)
        bits.set(17)
        bits.set(150)
        result = bits.test_many(np.asarray([17, 18, 150, 0], dtype=np.uint64))
        assert result.tolist() == [True, False, True, False]

    def test_empty_bulk_ops(self):
        bits = BitArray(64)
        bits.set_many(np.asarray([], dtype=np.uint64))
        assert bits.test_many(np.asarray([], dtype=np.uint64)).tolist() == []

    def test_fill_ratio(self):
        bits = BitArray(100)
        for index in range(25):
            bits.set(index)
        assert bits.fill_ratio() == pytest.approx(0.25)


class TestSerialization:
    def test_roundtrip(self):
        bits = BitArray(300)
        for index in (0, 1, 64, 299):
            bits.set(index)
        restored = BitArray.from_bytes(bits.to_bytes())
        assert restored == bits

    def test_roundtrip_empty(self):
        assert BitArray.from_bytes(BitArray(0).to_bytes()) == BitArray(0)

    def test_truncated_header_rejected(self):
        with pytest.raises(SerializationError):
            BitArray.from_bytes(b"\x01\x02")

    def test_truncated_body_rejected(self):
        payload = BitArray(128).to_bytes()
        with pytest.raises(SerializationError):
            BitArray.from_bytes(payload[:-3])

    def test_equality_semantics(self):
        a, b = BitArray(10), BitArray(10)
        assert a == b
        a.set(3)
        assert a != b
        assert a != "not a bitarray"
