"""Equivalence properties of the two range kernels.

A range probe has one entry per shape (``may_contain_range``,
``may_contain_range_batch``) and two kernels behind it: the pre-order walk
(Algorithm 2 as written, ``Rosetta._walk``) and the frontier engine
(:mod:`repro.core.doubting`).  These tests pin the contract:

* the public entries, the walk and the engine agree on every verdict;
* a call that takes the walk charges ``ProbeStats.bloom_probes`` exactly
  what the walk alone does, scalar or batched;
* ``probe_budget`` semantics (deadline, budget-exhausted positive) are
  the walk's, on both entries;
* ``tightened_range`` agrees with the walk's verdict and never cuts a
  stored key off;
* edge cases: empty filter, zero-bit (always-positive) levels,
  ``max_range=1``, domain clamping.

Randomization is seeded; the combined strategy sweep covers well over the
1000 queries the acceptance bar asks for.
"""

from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from repro.core import doubting
from repro.core.bloom import BloomFilter, base_hash_arrays
from repro.core.rosetta import Rosetta

STRATEGIES = ("optimized", "single", "equilibrium", "uniform")

KEY_BITS = 32
MAX_RANGE = 32
QUERIES_PER_STRATEGY = 300


def _build(keys, strategy, bits_per_key=16, max_range=MAX_RANGE):
    return Rosetta.build(
        keys,
        key_bits=KEY_BITS,
        bits_per_key=bits_per_key,
        max_range=max_range,
        strategy=strategy,
    )


def _mixed_ranges(rng, keys, count, max_range=MAX_RANGE):
    """Ranges of every size class, half of them hugging stored keys."""
    domain_max = (1 << KEY_BITS) - 1
    lows, highs = [], []
    for i in range(count):
        size = rng.choice((1, 2, 3, max(1, max_range // 2), max_range))
        if i % 2 == 0:
            anchor = rng.choice(keys)
            low = max(0, anchor - rng.randrange(size + 2))
        else:
            low = rng.randrange(domain_max - size)
        lows.append(low)
        highs.append(min(low + size - 1, domain_max))
    return lows, highs


def _engine(filt, lows, highs):
    return doubting.doubt_frontier(filt.levels, lows, highs).answers.tolist()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_batch_scalar_recursive_agree(strategy, small_keys, rng):
    """Verdicts match across entries and kernels; walk charges are exact."""
    filt = _build(small_keys, strategy)
    lows, highs = _mixed_ranges(rng, small_keys, QUERIES_PER_STRATEGY)

    reference = []
    per_query_probes = []
    for low, high in zip(lows, highs):
        before = filt.stats.bloom_probes
        reference.append(filt._walk(low, high, None))
        per_query_probes.append(filt.stats.bloom_probes - before)

    for low, high, want, probes in zip(lows, highs, reference, per_query_probes):
        before = filt.stats.bloom_probes
        assert filt.may_contain_range(low, high) == want
        assert filt.stats.bloom_probes - before == probes

    # A group small enough for the walk loop charges the scalar sum.
    filt.stats.reset()
    small = filt.may_contain_range_batch(lows[:4], highs[:4])
    assert small.tolist() == reference[:4]
    assert filt.stats.bloom_probes == sum(per_query_probes[:4])
    assert filt.stats.range_queries == 4

    # The whole group goes to the engine; verdicts do not show it.
    filt.stats.reset()
    batched = filt.may_contain_range_batch(lows, highs)
    assert batched.tolist() == reference
    assert filt.stats.bulk_probe_calls > 0
    assert filt.stats.range_queries == len(lows)
    assert _engine(filt, lows, highs) == reference


@pytest.mark.parametrize("strategy", ("optimized", "single"))
def test_probe_budget_equivalence(strategy, small_keys, rng):
    """Budgeted answers and charges are the walk's, on both entries."""
    filt = _build(small_keys, strategy)
    lows, highs = _mixed_ranges(rng, small_keys, 120)
    for budget in (1, 2, 4, 16):
        reference = []
        per_query_probes = []
        for low, high in zip(lows, highs):
            filt.stats.reset()
            reference.append(filt._walk(low, high, budget))
            per_query_probes.append(filt.stats.bloom_probes)
            assert filt.stats.bloom_probes <= budget
        for low, high, want, probes in zip(
            lows, highs, reference, per_query_probes
        ):
            filt.stats.reset()
            assert filt.may_contain_range(low, high, probe_budget=budget) == want
            assert filt.stats.bloom_probes == probes
        filt.stats.reset()
        batch = filt.may_contain_range_batch(lows, highs, probe_budget=budget)
        assert batch.tolist() == reference
        assert filt.stats.bloom_probes == sum(per_query_probes)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_tightened_range_matches_recursive(strategy, small_keys, rng):
    """Tightening agrees with the walk and keeps every stored key inside."""
    filt = _build(small_keys, strategy)
    stored = sorted(small_keys)
    lows, highs = _mixed_ranges(rng, small_keys, 150)
    for low, high in zip(lows, highs):
        tightened = filt.tightened_range(low, high)
        assert (tightened is not None) == filt._walk(low, high, None)
        if tightened is None:
            continue
        effective_low, effective_high = tightened
        assert low <= effective_low <= effective_high <= high
        inside = stored[bisect_left(stored, low) : bisect_right(stored, high)]
        assert all(effective_low <= key <= effective_high for key in inside)


def test_no_false_negatives(small_keys, rng):
    """Every range containing a stored key answers True in every mode."""
    filt = _build(small_keys, "optimized")
    lows = [max(0, k - 2) for k in small_keys[:200]]
    highs = [k + 2 for k in small_keys[:200]]
    assert filt.may_contain_range_batch(lows, highs).all()
    assert all(_engine(filt, lows, highs))
    assert all(filt._walk(lo, hi, None) for lo, hi in zip(lows, highs))
    for low, high in zip(lows[:50], highs[:50]):
        assert filt.tightened_range(low, high) is not None


def test_empty_filter():
    filt = Rosetta.build([], key_bits=16, bits_per_key=10)
    assert not filt.may_contain_range(0, 9)
    assert not filt.may_contain_range_batch([0, 5], [3, 9]).any()
    assert filt.tightened_range(0, 9) is None


def test_max_range_one(small_keys, rng):
    """max_range=1 degenerates to point probes; all paths still agree."""
    filt = _build(small_keys, "optimized", max_range=1)
    assert filt.num_levels == 1
    lows, highs = _mixed_ranges(rng, small_keys, 200, max_range=1)
    reference = [filt._walk(lo, hi, None) for lo, hi in zip(lows, highs)]
    assert filt.may_contain_range_batch(lows, highs).tolist() == reference
    assert _engine(filt, lows, highs) == reference


def test_zero_bit_levels_probe_free(small_keys):
    """'single' zeroes every non-leaf level; those doubts cost no probes."""
    filt = _build(small_keys, "single")
    assert any(level.is_always_positive for level in filt.levels)
    filt.stats.reset()
    filt.may_contain_range_batch([0, 100], [7, 115])
    # Only leaf probes are charged: one per key of each range.
    assert filt.stats.bloom_probes == 8 + 16


def test_domain_clamp(small_keys):
    filt = _build(small_keys, "optimized")
    domain_max = (1 << KEY_BITS) - 1
    batch = filt.may_contain_range_batch([domain_max - 3], [domain_max + 100])
    assert batch.tolist() == [filt.may_contain_range(domain_max - 3, domain_max)]


def test_survivors_hashed_match_scalar_probe(small_keys):
    """The vector kernel's survivors == the per-item may_contain loop's."""
    filt = BloomFilter(num_bits=4096, num_hashes=4)
    filt.add_many_ints(np.asarray(small_keys[:500], dtype=np.uint64))
    probe = np.asarray(small_keys[:1000], dtype=np.uint64)
    survivors = filt.survivors_hashed(*base_hash_arrays(probe))
    expected = [i for i, key in enumerate(small_keys[:1000]) if filt.may_contain(key)]
    assert survivors.tolist() == expected


# ---------------------------------------------------------------------------
# Closed-form dyadic decomposition parity (vs. the scalar greedy walk)
# ---------------------------------------------------------------------------

_U64_TOP = (1 << 64) - 1


def _parity_case(lo, hi, max_height, budget):
    got = doubting._decompose_chunk_closed(lo, hi, max_height, budget)
    want = doubting._decompose_chunk_reference(lo, hi, max_height, budget)
    assert got == want, (lo, hi, max_height, budget)


def test_decompose_closed_matches_reference_exhaustive():
    """Every (cursor, high, height, budget) over a small domain agrees."""
    for max_height in range(5):
        for lo in range(24):
            for hi in range(lo, 24):
                for budget in (1, 2, 5, 100):
                    _parity_case(lo, hi, max_height, budget)


def test_decompose_closed_matches_reference_random(rng):
    for _ in range(2000):
        bits = rng.choice([8, 16, 32, 48, 63, 64])
        max_height = rng.choice([0, 1, bits // 2, bits, bits + 3])
        hi = rng.randrange(1 << bits)
        lo = rng.randrange(hi + 1)
        budget = rng.choice([1, 10, 1 << 8, 1 << 16, 1 << 40])
        _parity_case(lo, hi, max_height, budget)


def test_decompose_closed_uint64_edges():
    """The 2**64 - 1 bound and full-domain cover never overflow."""
    top = _U64_TOP
    for lo in (0, 1, top - 1, top, 1 << 63):
        for hi in (1 << 63, top - 1, top):
            if lo > hi:
                continue
            for max_height in (0, 1, 32, 64, 65, 80):
                for budget in (1, 1 << 16, 1 << 70):
                    _parity_case(lo, hi, max_height, budget)
    # Full domain under a taller-than-64 tree: exactly one height-64 block.
    segments, cursor, leaves = doubting._decompose_chunk_closed(
        0, top, 66, 1 << 70
    )
    assert segments == [(64, 0, 1)]
    assert cursor == 1 << 64 and leaves == 1 << 64


def test_decompose_batch_matches_reference(rng):
    """The batched closed form returns each query's full scalar cover."""
    for _ in range(200):
        cursors, highs, tops = [], [], []
        for _ in range(rng.randrange(1, 40)):
            bits = rng.choice([4, 8, 16, 32, 48, 63, 64])
            hi = rng.randrange(1 << bits)
            lo = rng.randrange(hi + 1)
            cursors.append(lo)
            highs.append(hi)
            tops.append(rng.choice([0, 1, 2, bits // 2, min(bits, 63)]))
        covers = doubting._decompose_batch(cursors, highs, tops)
        for lo, hi, top, got in zip(cursors, highs, tops, covers):
            span = hi - lo + 1
            want = doubting._decompose_chunk_reference(lo, hi, top, span)[0]
            assert got == want, (lo, hi, top)


def test_decompose_batch_uint64_edges():
    cursors = [0, _U64_TOP - 1, _U64_TOP, 0, 7]
    highs = [_U64_TOP, _U64_TOP, _U64_TOP, 1 << 63, _U64_TOP]
    tops = [63, 63, 0, 40, 0]
    covers = doubting._decompose_batch(cursors, highs, tops)
    for lo, hi, top, got in zip(cursors, highs, tops, covers):
        span = hi - lo + 1
        want = doubting._decompose_chunk_reference(lo, hi, top, span)[0]
        assert got == want, (lo, hi, top)


def test_decompose_dispatcher_budget_and_progress():
    """The dispatcher front door keeps the walk's budget semantics."""
    # Budget-cut call: exactly the scalar result, cursor mid-range.
    segments, cursor, leaves = doubting._decompose_chunk(3, 1 << 20, 8, 64)
    assert segments == doubting._decompose_chunk_reference(3, 1 << 20, 8, 64)[0]
    assert cursor <= (1 << 20) and leaves >= 64
    # Degenerate calls make no progress and emit nothing.
    assert doubting._decompose_chunk(5, 4, 3, 10) == ([], 5, 0)
    assert doubting._decompose_chunk_closed(5, 4, 3, 10) == ([], 5, 0)
    assert doubting._decompose_chunk_closed(0, 100, 4, 0) == ([], 0, 0)
