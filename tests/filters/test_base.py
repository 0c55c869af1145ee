"""Unit tests for the master filter template and the codec registry."""

import pytest

from repro.errors import SerializationError
from repro.filters.base import (
    FilterFactory,
    KeyFilter,
    deserialize_filter,
    register_filter_codec,
    serialize_envelope,
)
from repro.filters.bloom_point import BloomPointFilter
from repro.filters.rosetta_adapter import RosettaFilter


class _StubFilter(KeyFilter):
    name = "stub-for-tests"

    def __init__(self, payload: bytes = b"") -> None:
        self.payload = payload

    def populate(self, keys):
        self.payload = bytes(len(keys))

    def may_contain(self, key):
        return True

    def may_contain_range(self, low, high):
        return True

    def size_in_bits(self):
        return len(self.payload) * 8

    def serialize(self):
        return self.payload


class TestEnvelope:
    def test_roundtrip_through_registry(self):
        register_filter_codec("stub-for-tests", lambda p: _StubFilter(p))
        original = _StubFilter(b"hello")
        restored = deserialize_filter(serialize_envelope(original))
        assert isinstance(restored, _StubFilter)
        assert restored.payload == b"hello"

    def test_unknown_codec_rejected(self):
        envelope = bytes([7]) + b"unknown" + b"data"
        with pytest.raises(SerializationError):
            deserialize_filter(envelope)

    def test_empty_envelope_rejected(self):
        with pytest.raises(SerializationError):
            deserialize_filter(b"")

    def test_truncated_tag_rejected(self):
        with pytest.raises(SerializationError):
            deserialize_filter(bytes([10]) + b"abc")

    def test_invalid_codec_name(self):
        with pytest.raises(ValueError):
            register_filter_codec("", lambda p: None)
        with pytest.raises(ValueError):
            register_filter_codec("x" * 300, lambda p: None)

    def test_builtin_filters_registered(self):
        bloom = BloomPointFilter(key_bits=16)
        bloom.populate([1, 2, 3])
        restored = deserialize_filter(serialize_envelope(bloom))
        assert isinstance(restored, BloomPointFilter)

        rosetta = RosettaFilter(key_bits=16, bits_per_key=10)
        rosetta.populate([1, 2, 3])
        restored = deserialize_filter(serialize_envelope(rosetta))
        assert isinstance(restored, RosettaFilter)
        assert restored.may_contain(2)


class TestFilterFactory:
    def test_builds_fresh_instances(self):
        factory = FilterFactory("bloom-test", _populated, bits_per_key=8)
        a = factory.build([1, 2, 3])
        b = factory.build([4, 5, 6])
        assert a is not b
        assert a.may_contain(1) and b.may_contain(4)

    def test_repr(self):
        factory = FilterFactory("x", lambda keys: _StubFilter(), bits_per_key=7)
        assert "x" in repr(factory)
        assert "7" in repr(factory)


def _populated(keys):
    filt = BloomPointFilter(key_bits=16, bits_per_key=8)
    filt.populate(keys)
    return filt


class TestDefaultMethods:
    def test_default_probe_count(self):
        assert _StubFilter().probe_count() == 0
        _StubFilter().reset_probe_count()  # no crash
