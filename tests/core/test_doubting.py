"""Equivalence properties of the two range kernels.

A range probe has one entry (``may_contain_range``) and two kernels behind
it: the pre-order walk (Algorithm 2 as written, ``Rosetta._walk``) and the
frontier engine (:mod:`repro.core.doubting`), which sweeps one range level
by level.  These tests pin the contract:

* the public entry, the walk and the engine agree on every verdict;
* a call that takes the walk charges ``ProbeStats.bloom_probes`` exactly
  what the walk alone does;
* ``probe_budget`` semantics (deadline, budget-exhausted positive) are
  the walk's;
* ``tightened_range`` agrees with the walk's verdict and never cuts a
  stored key off;
* the engine's charges on the ledger's filter shape are pinned;
* edge cases: empty filter, zero-bit (always-positive) levels,
  ``max_range=1``, domain clamping.

Randomization is seeded; the combined strategy sweep covers well over the
1000 queries the acceptance bar asks for.
"""

import random
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from repro.core import doubting
from repro.core.bloom import BloomFilter, base_hash_arrays
from repro.core.dyadic import decompose
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


def _engine(filt, low, high):
    return doubting.doubt_frontier(filt.levels, low, high).answer


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_batch_scalar_recursive_agree(strategy, small_keys, rng):
    """Verdicts match across the entry and both kernels; walk charges are
    exact."""
    filt = _build(small_keys, strategy)
    lows, highs = _mixed_ranges(rng, small_keys, QUERIES_PER_STRATEGY)

    reference = []
    per_query_probes = []
    for low, high in zip(lows, highs):
        before = filt.stats.bloom_probes
        reference.append(filt._walk(low, high, None))
        per_query_probes.append(filt.stats.bloom_probes - before)

    filt.stats.reset()
    for low, high, want, probes in zip(lows, highs, reference, per_query_probes):
        before = filt.stats.bloom_probes
        assert filt.may_contain_range(low, high) == want
        assert filt.stats.bloom_probes - before == probes
        assert _engine(filt, low, high) == want
    assert filt.stats.range_queries == len(lows)
    assert filt.stats.bulk_probe_calls == 0


@pytest.mark.parametrize("strategy", ("optimized", "single"))
def test_probe_budget_equivalence(strategy, small_keys, rng):
    """Budgeted answers and charges are the walk's."""
    filt = _build(small_keys, strategy)
    lows, highs = _mixed_ranges(rng, small_keys, 120)
    for budget in (1, 2, 4, 16):
        for low, high in zip(lows, highs):
            filt.stats.reset()
            want = filt._walk(low, high, budget)
            probes = filt.stats.bloom_probes
            assert probes <= budget
            filt.stats.reset()
            assert filt.may_contain_range(low, high, probe_budget=budget) == want
            assert filt.stats.bloom_probes == probes


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


def test_no_false_negatives(small_keys):
    """Every range containing a stored key answers True on every path."""
    filt = _build(small_keys, "optimized")
    for key in small_keys[:200]:
        low, high = max(0, key - 2), key + 2
        assert filt.may_contain_range(low, high)
        assert _engine(filt, low, high)
        assert filt._walk(low, high, None)
    for key in small_keys[:50]:
        assert filt.tightened_range(max(0, key - 2), key + 2) is not None


def test_empty_filter():
    filt = Rosetta.build([], key_bits=16, bits_per_key=10)
    assert not filt.may_contain_range(0, 9)
    assert not filt.may_contain_range(5, 9)
    assert not filt.may_contain_range(0, (1 << 16) - 1)  # engine-sized
    assert filt.stats.range_queries == 3
    assert filt.stats.bloom_probes == 0
    assert filt.tightened_range(0, 9) is None


def test_max_range_one(small_keys, rng):
    """max_range=1 degenerates to point probes; all paths still agree."""
    filt = _build(small_keys, "optimized", max_range=1)
    assert filt.num_levels == 1
    lows, highs = _mixed_ranges(rng, small_keys, 200, max_range=1)
    for low, high in zip(lows, highs):
        want = filt._walk(low, high, None)
        assert filt.may_contain_range(low, high) == want
        assert _engine(filt, low, high) == want


def test_zero_bit_levels_probe_free(small_keys):
    """'single' zeroes every non-leaf level; those doubts cost no probes."""
    filt = _build(small_keys, "single")
    assert any(level.is_always_positive for level in filt.levels)
    filt.stats.reset()
    filt.may_contain_range(0, 7)
    filt.may_contain_range(100, 115)
    # Only leaf probes are charged: one per key of each range.
    assert filt.stats.bloom_probes == 8 + 16
    assert filt.stats.range_queries == 2
    # The engine charges its leaf frontier alone, in one bulk call.
    swept = doubting.doubt_frontier(filt.levels, 100, 115)
    assert (swept.probes, swept.bulk_probe_calls) == (16, 1)


def test_domain_clamp(small_keys):
    filt = _build(small_keys, "optimized")
    domain_max = (1 << KEY_BITS) - 1
    want = filt._walk(domain_max - 3, domain_max, None)
    assert filt.may_contain_range(domain_max - 3, domain_max + 100) == want
    assert filt.may_contain_range(domain_max - 3, domain_max) == want


def test_survivors_hashed_match_scalar_probe(small_keys):
    """The vector kernel's survivors == the per-item may_contain loop's."""
    filt = BloomFilter(num_bits=4096, num_hashes=4)
    filt.add_many_ints(np.asarray(small_keys[:500], dtype=np.uint64))
    probe = np.asarray(small_keys[:1000], dtype=np.uint64)
    survivors = filt.survivors_hashed(*base_hash_arrays(probe))
    expected = [i for i, key in enumerate(small_keys[:1000]) if filt.may_contain(key)]
    assert survivors.tolist() == expected


# ---------------------------------------------------------------------------
# The engine's accounting on the ledger's filter shape
# ---------------------------------------------------------------------------

#: range -> (the verdict of both kernels, (bloom_probes, dyadic_intervals,
#: bulk_probe_calls) as the engine charges them) for wide ranges on a
#: 2 k-key filter built the way the ledger's store builds them: 32-bit
#: keys, 22 bits/key, max_range 64, ``hybrid`` (bit-less top two levels).
#: Every range is past WALK_MAX_INTERVALS; the probes are the frontier
#: sizes of the levels with bits, in 2^16-key rounds.  "empty" ranges hold
#: no stored key, so a True there is a false positive.
PINNED_ENGINE_CHARGES = {
    "102 intervals, empty": (False, (824, 102, 5)),
    "16 keys wide": (True, (8584, 1026, 5)),
    "key midway, 20 k wide": (True, (2526, 319, 5)),
    "widest gap, empty": (True, (8644, 1024, 5)),
    "median gap, empty, two rounds": (True, (16825, 2052, 10)),
    "to the domain top": (True, (8471, 1029, 5)),
}


def _ledger_shaped_ranges():
    rng = random.Random(27)
    keys = sorted(rng.sample(range(1 << 32), 2000))
    filt = Rosetta.build(
        keys, key_bits=32, bits_per_key=22, max_range=64, strategy="hybrid"
    )
    gaps = sorted(range(len(keys) - 1), key=lambda i: keys[i + 1] - keys[i])
    widest, median = gaps[-1], gaps[len(gaps) // 2]
    ranges = {
        "102 intervals, empty": (keys[median] + 1, keys[median] + 6144),
        "16 keys wide": (keys[100], keys[115]),
        "key midway, 20 k wide": (keys[500] - 10_000, keys[500] + 10_000),
        "widest gap, empty": (keys[widest] + 1, keys[widest + 1] - 1),
        "median gap, empty, two rounds": (
            keys[median] + 1, keys[median + 1] - 1,
        ),
        "to the domain top": (keys[-1] - 70_000, (1 << 32) - 1),
    }
    return filt, keys, ranges


def test_engine_charges_pinned_on_ledger_shape():
    filt, keys, ranges = _ledger_shaped_ranges()
    assert ranges.keys() == PINNED_ENGINE_CHARGES.keys()
    for name, (low, high) in ranges.items():
        want_verdict, want_charges = PINNED_ENGINE_CHARGES[name]
        holds_key = keys[bisect_left(keys, low)] <= high
        assert filt._walk(low, high, None) == want_verdict, name
        swept = doubting.doubt_frontier(filt.levels, low, high)
        assert swept.answer == want_verdict, name
        assert (
            swept.probes, swept.intervals, swept.bulk_probe_calls
        ) == want_charges, name
        filt.stats.reset()
        assert filt.may_contain_range(low, high) == want_verdict, name
        stats = filt.stats
        assert (
            stats.bloom_probes, stats.dyadic_intervals, stats.bulk_probe_calls
        ) == want_charges, name
        assert want_verdict or not holds_key, name


# ---------------------------------------------------------------------------
# Dyadic decomposition: the engine's budget-limited greedy cover
# ---------------------------------------------------------------------------

_U64_TOP = (1 << 64) - 1


def test_decompose_dispatcher_budget_and_progress():
    """The cover ``doubt_frontier`` sweeps: a budget cut resumes where it
    stopped, and the pieces rebuild the canonical dyadic cover."""
    segments, cursor, leaves = doubting._decompose_chunk(3, 1 << 20, 8, 64)
    assert segments and cursor <= (1 << 20) and leaves >= 64
    for low, high, max_height in (
        (3, 1 << 20, 8), (5, 1000, 0), (0, _U64_TOP, 63), (1, _U64_TOP - 1, 64),
    ):
        want = [(i.height, i.prefix) for i in decompose(low, high, max_height)]
        got, cursor = [], low
        while cursor <= high:
            segments, cursor, _ = doubting._decompose_chunk(
                cursor, high, max_height, 1000
            )
            got.extend(
                (height, first + k)
                for height, first, count in segments
                for k in range(count)
            )
        assert got == want, (low, high, max_height)
    # Degenerate calls make no progress and emit nothing.
    assert doubting._decompose_chunk(5, 4, 3, 10) == ([], 5, 0)
    assert doubting._decompose_chunk(0, 100, 4, 0) == ([], 0, 0)
