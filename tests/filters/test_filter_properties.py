"""Property-based no-false-negative tests across every point/range filter.

Every filter in the library shares one contract: it may answer "maybe" for
absent keys/empty ranges, but never "no" for present keys/occupied ranges.
These suites drive the whole registry (``FILTER_NAMES``) through
hypothesis, so no recipe enters it without no-false-negative coverage.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.factories import FILTER_NAMES, make_factory

_KEY_BITS = 16
_key_sets = st.sets(
    st.integers(min_value=0, max_value=(1 << _KEY_BITS) - 1),
    min_size=1,
    max_size=50,
)


@settings(max_examples=100, deadline=None)
@given(keys=_key_sets, name=st.sampled_from(FILTER_NAMES))
def test_point_queries_never_false_negative(keys, name):
    factory = make_factory(name, _KEY_BITS, 14, max_range=16)
    filt = factory.build(sorted(keys))
    for key in keys:
        assert filt.may_contain(key), (name, key)


@settings(max_examples=100, deadline=None)
@given(
    keys=_key_sets,
    name=st.sampled_from(FILTER_NAMES),
    offset=st.integers(min_value=0, max_value=63),
    size=st.integers(min_value=1, max_value=64),
)
def test_range_queries_never_false_negative(keys, name, offset, size):
    factory = make_factory(name, _KEY_BITS, 14, max_range=16)
    filt = factory.build(sorted(keys))
    for key in keys:
        # A range of ``size`` keys that holds ``key`` at position
        # ``offset % size``.
        low = max(key - offset % size, 0)
        high = min(low + size - 1, (1 << _KEY_BITS) - 1)
        assert filt.may_contain_range(low, high), (name, low, high)


@settings(max_examples=40, deadline=None)
@given(keys=_key_sets, name=st.sampled_from(FILTER_NAMES))
def test_serialization_roundtrip_preserves_answers(keys, name):
    from repro.filters.base import deserialize_filter, serialize_envelope

    factory = make_factory(name, _KEY_BITS, 14, max_range=16)
    filt = factory.build(sorted(keys))
    restored = deserialize_filter(serialize_envelope(filt))
    probes = list(keys)[:10] + [0, (1 << _KEY_BITS) - 1]
    for probe in probes:
        assert restored.may_contain(probe) == filt.may_contain(probe), name
    for low in probes[:5]:
        high = min(low + 7, (1 << _KEY_BITS) - 1)
        assert restored.may_contain_range(low, high) == filt.may_contain_range(
            low, high
        ), name


@settings(max_examples=40, deadline=None)
@given(keys=_key_sets, name=st.sampled_from(FILTER_NAMES))
def test_memory_accounting_positive(keys, name):
    factory = make_factory(name, _KEY_BITS, 14, max_range=16)
    filt = factory.build(sorted(keys))
    assert filt.size_in_bits() >= 0
    assert isinstance(filt.size_in_bits(), int)
