"""Scalar/batch accounting parity and range-validation edge cases.

Regression suite for two paper-fidelity bugs:

* A batch holding a single (live) query used to charge the bulk frontier's
  level-synchronous probe counts (8 probes / 2 intervals for ``[8, 12]`` on
  the Fig. 2 example) where the scalar path charged the sequential
  recursion's (3 / 1).  ``ProbeStats`` must not depend on which entry point
  issued a query.
* The engine internally skips queries whose clamped range is empty
  (``low > high``).  That skip must never leak out as a silent ``False``
  for *publicly inverted* ranges — every entry point raises
  :exc:`FilterQueryError` first.

Point lookups have one batched entry (``BloomFilter.contains_batch``) that
picks the per-item loop or the vector kernel from the group size; verdicts,
charges and typed errors must not show which one ran.
"""

import random

import pytest

from repro.core.allocation import STRATEGIES
from repro.core.bloom import SCALAR_PROBE_MAX
from repro.core.rosetta import Rosetta
from repro.errors import FilterQueryError
from repro.filters.bloom_point import BloomPointFilter
from repro.filters.rosetta_adapter import RosettaFilter

TINY_KEYS = [3, 6, 7, 8, 9, 11]  # the paper's running example (Fig. 2)


def _tiny():
    return Rosetta.build(
        TINY_KEYS, key_bits=4, bits_per_key=24.0, max_range=8
    )


def _charges(rosetta, issue):
    """(verdict, bloom_probes, dyadic_intervals) deltas for one query."""
    probes, intervals = rosetta.stats.bloom_probes, rosetta.stats.dyadic_intervals
    verdict = issue(rosetta)
    return (
        verdict,
        rosetta.stats.bloom_probes - probes,
        rosetta.stats.dyadic_intervals - intervals,
    )


class TestSingleQueryParity:
    def test_tiny_example_pinned_charges(self):
        """[8, 12] on Fig. 2: 1 dyadic interval, 3 probes, on every path."""
        scalar = _charges(_tiny(), lambda r: r.may_contain_range(8, 12))
        recursive = _charges(
            _tiny(), lambda r: r.may_contain_range_recursive(8, 12)
        )
        batch = _charges(
            _tiny(), lambda r: bool(r.may_contain_range_batch([8], [12])[0])
        )
        assert scalar == recursive == batch == (True, 3, 1)

    def test_true_batches_keep_bulk_accounting(self):
        """Two live queries charge deduped frontier probes, not a replay."""
        first = _charges(_tiny(), lambda r: r.may_contain_range(8, 12))
        second = _charges(_tiny(), lambda r: r.may_contain_range(3, 7))
        rosetta = _tiny()
        verdicts = rosetta.may_contain_range_batch([8, 3], [12, 7])
        assert [bool(v) for v in verdicts] == [first[0], second[0]]
        # Bulk accounting: the level-synchronous frontier probes every
        # level's survivors (no per-interval early exit), so its charges
        # differ from the two sequential recursions' sum.
        scalar_probes = first[1] + second[1]
        scalar_intervals = first[2] + second[2]
        assert (rosetta.stats.bloom_probes, rosetta.stats.dyadic_intervals) != (
            scalar_probes,
            scalar_intervals,
        )

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_random_single_query_parity(self, strategy, rng, small_keys):
        rosetta = Rosetta.build(
            small_keys,
            key_bits=32,
            bits_per_key=14.0,
            max_range=64,
            strategy=strategy,
        )
        batch = Rosetta.from_bytes(rosetta.to_bytes())
        for _ in range(50):
            low = rng.randrange((1 << 32) - 64)
            high = low + rng.randrange(64)
            want = _charges(
                rosetta, lambda r: r.may_contain_range(low, high)
            )
            got = _charges(
                batch,
                lambda r: bool(r.may_contain_range_batch([low], [high])[0]),
            )
            assert got == want, (low, high)

    def test_batch_of_one_dead_query_among_live(self, small_keys):
        """Domain clamping may kill all but one query; parity still holds."""
        rosetta = Rosetta.build(
            small_keys, key_bits=32, bits_per_key=14.0, max_range=64
        )
        beyond = 1 << 40  # clamps to an empty range, skipped internally
        scalar = _charges(
            rosetta, lambda r: r.may_contain_range(small_keys[0], small_keys[0])
        )
        batched = _charges(
            rosetta,
            lambda r: r.may_contain_range_batch(
                [small_keys[0], beyond], [small_keys[0], beyond]
            ),
        )
        assert batched[0][0] and not batched[0][1]
        assert batched[1:] == scalar[1:]


#: Group sizes on both sides of the scalar/vector kernel switch.
BOUNDARY_SIZES = [
    SCALAR_PROBE_MAX - 1,
    SCALAR_PROBE_MAX,
    SCALAR_PROBE_MAX + 1,
    SCALAR_PROBE_MAX + 2,
]

_POINT_FILTERS = {
    "unsalted": dict(key_bits=32, bits_per_key=12.0, max_range=16),
    "salted": dict(key_bits=32, bits_per_key=12.0, max_range=16, salt=0xA5A5F00D),
    "always_positive_leaf": dict(key_bits=32, bits_per_key=0.0, max_range=16),
    "empty_filter": dict(key_bits=32, bits_per_key=12.0, max_range=16),
    "wide_domain": dict(key_bits=96, bits_per_key=12.0, max_range=16),
}


class TestKernelBoundaryParity:
    """A key group costs and answers what the per-key loop does."""

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    @pytest.mark.parametrize("shape", sorted(_POINT_FILTERS))
    def test_group_equals_per_key_loop(self, shape, size):
        params = _POINT_FILTERS[shape]
        rng = random.Random(size)
        domain = 1 << params["key_bits"]
        stored = (
            [] if shape == "empty_filter"
            else [rng.randrange(domain) for _ in range(300)]
        )
        grouped = Rosetta.build(stored, **params)
        looped = Rosetta.from_bytes(grouped.to_bytes())
        probes = [
            rng.choice(stored) if stored and rng.random() < 0.5
            else rng.randrange(domain)
            for _ in range(size - 2)
        ]
        probes += probes[:2]  # duplicates are probed and charged per key
        assert len(probes) == size
        want = [looped.may_contain(key) for key in probes]
        assert grouped.may_contain_batch(probes).tolist() == want
        assert grouped.stats == looped.stats
        assert grouped.stats.point_queries == size

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    @pytest.mark.parametrize("salt", [0, 0x5EED5EED])
    def test_adapters_equal_per_key_loop(self, size, salt, small_keys):
        rng = random.Random(size)
        probes = [
            rng.choice(small_keys) if rng.random() < 0.5 else rng.randrange(1 << 32)
            for _ in range(size)
        ]
        for adapter in (
            RosettaFilter(key_bits=32, bits_per_key=12.0, max_range=16, salt=salt),
            BloomPointFilter(key_bits=32, bits_per_key=10.0, salt=salt),
        ):
            adapter.populate(small_keys)
            want = [adapter.may_contain(key) for key in probes]
            loop_probes = adapter.probe_count()
            adapter.reset_probe_count()
            assert adapter.may_contain_batch(probes) == want
            assert adapter.probe_count() == loop_probes == size

    @pytest.mark.parametrize("bad", [-1, 1 << 64])
    def test_out_of_domain_key_is_a_typed_error_on_every_path(self, bad):
        """Both kernels reject before converting: never an OverflowError."""
        rosetta = Rosetta.build([1, 2, 3], key_bits=64, bits_per_key=12.0)
        adapter = RosettaFilter(key_bits=64, bits_per_key=12.0)
        adapter.populate([1, 2, 3])
        bloom = BloomPointFilter(key_bits=64, bits_per_key=10.0)
        bloom.populate([1, 2, 3])
        large = list(range(SCALAR_PROBE_MAX + 4)) + [bad]
        entry_points = [
            lambda: rosetta.may_contain(bad),
            lambda: rosetta.may_contain_batch([bad]),
            lambda: rosetta.may_contain_batch(large),
            lambda: adapter.may_contain(bad),
            lambda: adapter.may_contain_batch([bad]),
            lambda: adapter.may_contain_batch(large),
            lambda: bloom.may_contain_batch([bad]),
            lambda: bloom.may_contain_batch(large),
        ]
        for issue in entry_points:
            with pytest.raises(FilterQueryError):
                issue()


class TestRangeValidation:
    """Inverted ranges raise; boundary ranges answer soundly."""

    def test_inverted_range_raises_everywhere(self):
        rosetta = _tiny()
        adapter = RosettaFilter(key_bits=4, bits_per_key=24.0, max_range=8)
        adapter.populate(TINY_KEYS)
        entry_points = [
            lambda: rosetta.may_contain_range(9, 5),
            lambda: rosetta.may_contain_range_recursive(9, 5),
            lambda: rosetta.tightened_range(9, 5),
            lambda: rosetta.tightened_range_recursive(9, 5),
            lambda: rosetta.may_contain_range_batch([9], [5]),
            lambda: adapter.may_contain_range(9, 5),
            lambda: adapter.tightened_range(9, 5),
            lambda: adapter.may_contain_range_batch([9], [5]),
        ]
        for issue in entry_points:
            with pytest.raises(FilterQueryError):
                issue()

    def test_inverted_pair_inside_live_batch_raises(self):
        """One bad pair poisons the whole batch — never a silent False."""
        rosetta = _tiny()
        with pytest.raises(FilterQueryError):
            rosetta.may_contain_range_batch([8, 9, 3], [12, 5, 7])

    def test_single_key_range(self):
        rosetta = _tiny()
        for key in TINY_KEYS:
            assert rosetta.may_contain_range(key, key)
            assert rosetta.may_contain_range_batch([key], [key])[0]
        # 5 is absent from the example keys and 4 is a dyadic boundary.
        assert not rosetta.may_contain_range(5, 5)
        assert not rosetta.may_contain_range_batch([5], [5])[0]

    def test_full_domain_range_clamps(self):
        """Out-of-domain endpoints clamp (not raise) when low <= high."""
        rosetta = _tiny()
        assert rosetta.may_contain_range(0, (1 << 4) - 1)
        assert rosetta.may_contain_range(0, 10**9)  # clamped to domain max
        assert list(
            rosetta.may_contain_range_batch([0], [10**9])
        ) == [True]
