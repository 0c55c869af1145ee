"""Per-filter hash salting: identity at zero, re-keying, serialization.

Salting exists so a rebuilt filter stops honoring the false positives an
adversary learned against its predecessor.  The contract under test:

* salt 0 is the *bit-exact identity* — unsalted stores keep producing the
  historical filter blocks (``RBF1`` for Bloom), so pre-salting serialized
  filters stay loadable;
* a nonzero salt re-keys the FP set (learned FPs go stale) while never
  introducing false negatives, and survives a serialize/deserialize
  round-trip;
* scalar and batch probe paths agree under any salt;
* structural filters (SuRF), which hash nothing and therefore cannot be
  re-keyed, reject salts loudly at every layer — filter ctor, factory,
  and DBOptions validation.
"""

import random

import numpy as np
import pytest

from repro.bench.factories import make_factory
from repro.core.bloom import BloomFilter
from repro.core.hashing import (
    derive_filter_salt,
    mix_salt,
    mix_salt_array,
    splitmix64,
)
from repro.core.tuning import WorkloadTracker, observed_fpr
from repro.errors import (
    FilterBuildError,
    InvalidOptionsError,
    SerializationError,
)
from repro.filters.base import FilterFactory
from repro.filters.bloom_point import BloomPointFilter
from repro.filters.rosetta_adapter import RosettaFilter
from repro.filters.surf.surf import SurfFilter
from repro.lsm.options import DBOptions
from repro.lsm.stats import PerfStats

SALT = 0xDEAD_BEEF_F00D_CAFE


# ----------------------------------------------------------------------
# The salt mixers themselves
# ----------------------------------------------------------------------
class TestSaltMixers:
    def test_zero_salt_is_identity(self):
        for value in (0, 1, 65, 2**63, 2**64 - 1):
            assert mix_salt(value, 0) == value

    def test_nonzero_salt_is_splitmix_of_xor(self):
        assert mix_salt(12345, SALT) == splitmix64(12345 ^ SALT)
        assert mix_salt(12345, SALT) != 12345

    def test_array_matches_scalar(self):
        values = np.asarray(
            [0, 1, 65, 2**63, 2**64 - 1, 777], dtype=np.uint64
        )
        mixed = mix_salt_array(values, SALT)
        for raw, out in zip(values, mixed):
            assert int(out) == mix_salt(int(raw), SALT)
        assert mix_salt_array(values, 0) is values  # identity, no copy

    def test_derive_salt_zero_seed_disables(self):
        assert derive_filter_salt(0, 7) == 0
        assert derive_filter_salt(0, 0) == 0

    def test_derive_salt_nonzero_and_per_file(self):
        salts = {derive_filter_salt(42, number) for number in range(200)}
        assert len(salts) == 200  # distinct per file
        assert 0 not in salts  # never silently unsalted

    def test_derive_salt_deterministic(self):
        assert derive_filter_salt(42, 7) == derive_filter_salt(42, 7)
        assert derive_filter_salt(42, 7) != derive_filter_salt(43, 7)


# ----------------------------------------------------------------------
# Salted core Bloom filter
# ----------------------------------------------------------------------
class TestSaltedBloom:
    def _learned_fps(self, bf, key_set, rng, trials=4000):
        """Absent keys the filter wrongly admits (an attacker's loot)."""
        found = []
        for _ in range(trials):
            probe = rng.randrange(10**9)
            if probe not in key_set and bf.may_contain(probe):
                found.append(probe)
        return found

    def test_no_false_negatives_under_salt(self):
        keys = random.Random(3).sample(range(10**9), 2000)
        bf = BloomFilter.from_keys_and_bits(keys, num_bits=20000, salt=SALT)
        assert all(bf.may_contain(k) for k in keys)

    def test_salt_goes_stale_after_rekey(self):
        """The attack the salt defeats: learned FPs die on rebuild."""
        rng = random.Random(4)
        keys = rng.sample(range(10**9), 2000)
        unsalted = BloomFilter.from_keys_and_bits(keys, num_bits=12000)
        learned = self._learned_fps(unsalted, set(keys), rng)
        assert len(learned) > 50  # ~6% FPR: plenty to learn
        # Replay against the unsalted filter: deterministic, 100% hits.
        assert all(unsalted.may_contain(k) for k in learned)
        # Rebuild with a salt: each learned key survives only at the
        # design FPR, so the vast majority go stale.
        salted = BloomFilter.from_keys_and_bits(
            keys, num_bits=12000, salt=SALT
        )
        survivors = sum(salted.may_contain(k) for k in learned)
        assert survivors < len(learned) / 2

    def test_scalar_batch_parity_with_salt(self):
        keys = list(range(0, 3000, 7))
        bf = BloomFilter.from_keys_and_bits(keys, num_bits=8192, salt=SALT)
        probes = np.arange(5000, dtype=np.uint64)
        bulk = bf.contains_batch(probes)
        for i, probe in enumerate(probes):
            assert bulk[i] == bf.may_contain(int(probe))

    def test_bulk_add_matches_scalar_add_with_salt(self):
        keys = list(range(0, 2000, 3))
        scalar = BloomFilter(4096, 5, salt=SALT)
        bulk = BloomFilter(4096, 5, salt=SALT)
        for key in keys:
            scalar.add(key)
        bulk.add_many_ints(np.asarray(keys, dtype=np.uint64))
        for probe in range(4000):
            assert scalar.may_contain(probe) == bulk.may_contain(probe)

    def test_invalid_salt_rejected(self):
        with pytest.raises(FilterBuildError):
            BloomFilter(100, 2, salt=1 << 64)
        with pytest.raises(FilterBuildError):
            BloomFilter(100, 2, salt=-1)


class TestBloomSerializationVersioning:
    def test_salt_zero_writes_legacy_rbf1(self):
        bf = BloomFilter.from_keys_and_bits(range(100), num_bits=2000)
        assert bf.to_bytes().startswith(b"RBF1")

    def test_nonzero_salt_writes_rbf2(self):
        bf = BloomFilter.from_keys_and_bits(
            range(100), num_bits=2000, salt=SALT
        )
        assert bf.to_bytes().startswith(b"RBF2")

    def test_salted_roundtrip_preserves_salt_and_verdicts(self):
        bf = BloomFilter.from_keys_and_bits(
            range(100), num_bits=2000, salt=SALT
        )
        restored = BloomFilter.from_bytes(bf.to_bytes())
        assert restored.salt == SALT
        for probe in range(500):
            assert restored.may_contain(probe) == bf.may_contain(probe)

    def test_legacy_rbf1_loads_as_salt_zero(self):
        legacy = BloomFilter.from_keys_and_bits(range(100), num_bits=2000)
        restored = BloomFilter.from_bytes(legacy.to_bytes())
        assert restored.salt == 0
        assert all(restored.may_contain(k) for k in range(100))

    def test_truncated_rbf2_rejected(self):
        payload = BloomFilter.from_keys_and_bits(
            range(10), num_bits=256, salt=SALT
        ).to_bytes()
        with pytest.raises(SerializationError):
            BloomFilter.from_bytes(payload[:20])  # cut inside the salt

    def test_rbf2_with_zero_salt_rejected(self):
        payload = bytearray(
            BloomFilter.from_keys_and_bits(
                range(10), num_bits=256, salt=SALT
            ).to_bytes()
        )
        payload[16:24] = b"\x00" * 8  # the salt field
        with pytest.raises(SerializationError):
            BloomFilter.from_bytes(bytes(payload))


# ----------------------------------------------------------------------
# Salted adapters: Rosetta, point Bloom
# ----------------------------------------------------------------------
def _populated(filt, keys):
    filt.populate(keys)
    return filt


class TestSaltedAdapters:
    KEYS = sorted(random.Random(5).sample(range(1 << 24), 500))

    @pytest.mark.parametrize(
        "make",
        [
            lambda salt: RosettaFilter(
                key_bits=24, bits_per_key=14.0, max_range=32, salt=salt
            ),
            lambda salt: BloomPointFilter(
                key_bits=24, bits_per_key=10.0, salt=salt
            ),
        ],
        ids=["rosetta", "bloom"],
    )
    def test_roundtrip_preserves_salt_and_membership(self, make):
        filt = _populated(make(SALT), self.KEYS)
        restored = type(filt).deserialize(filt.serialize())
        assert restored.salt == SALT
        assert all(restored.may_contain(k) for k in self.KEYS)
        rng = random.Random(6)
        for _ in range(300):
            probe = rng.randrange(1 << 24)
            assert restored.may_contain(probe) == filt.may_contain(probe)

    def test_rosetta_salted_ranges_no_false_negatives(self):
        filt = _populated(
            RosettaFilter(key_bits=24, bits_per_key=14.0, max_range=32, salt=SALT),
            self.KEYS,
        )
        for key in self.KEYS[:100]:
            assert filt.may_contain_range(key, min(key + 31, (1 << 24) - 1))

    def test_rosetta_scalar_batch_parity_with_salt(self):
        filt = _populated(
            RosettaFilter(key_bits=24, bits_per_key=14.0, max_range=32, salt=SALT),
            self.KEYS,
        )
        rng = random.Random(7)
        points = [rng.randrange(1 << 24) for _ in range(200)]
        assert filt.may_contain_batch(points) == [
            filt.may_contain(p) for p in points
        ]
        # Wide salted ranges (~160 intervals) take the frontier engine and
        # answer what the walk does.
        core = filt._rosetta
        core.stats.reset()
        for i in range(60):
            if i % 2:
                low = rng.randrange((1 << 24) - 5000)
            else:
                low = max(0, rng.choice(self.KEYS) - rng.randrange(5000))
            high = low + 4999
            want = core._walk(low, high, None)
            assert filt.may_contain_range(low, high) == want
            if i % 2 == 0:
                assert want
        assert core.stats.bulk_probe_calls > 0

    def test_bloom_point_scalar_batch_parity_with_salt(self):
        filt = _populated(
            BloomPointFilter(key_bits=24, bits_per_key=10.0, salt=SALT),
            self.KEYS,
        )
        rng = random.Random(8)
        points = [rng.randrange(1 << 24) for _ in range(300)]
        assert filt.may_contain_batch(points) == [
            filt.may_contain(p) for p in points
        ]


# ----------------------------------------------------------------------
# Structural filters refuse salts at every layer
# ----------------------------------------------------------------------
class TestStructuralSaltRejection:
    def test_surf_ctor_rejects_salt(self):
        with pytest.raises(FilterBuildError, match="cannot be salted"):
            SurfFilter(key_bits=32, salt=SALT)

    def test_factory_rejects_salt_for_structural_recipe(self):
        factory = make_factory("surf", 32, 10.0)
        assert not factory.salt_capable
        with pytest.raises(FilterBuildError, match="cannot be salted"):
            factory.build([1, 2, 3], salt=SALT)

    def test_factory_salt_capability_flags(self):
        assert make_factory("bloom", 32, 10.0).salt_capable
        assert make_factory("rosetta", 32, 14, max_range=32).salt_capable
        assert make_factory("prefix-bloom", 32, 10.0).salt_capable

    def test_plain_builder_without_salt_parameter(self):
        factory = FilterFactory(
            "opaque", lambda keys: _populated(
                BloomPointFilter(key_bits=24), list(keys)
            )
        )
        assert not factory.salt_capable
        factory.build([1, 2, 3])  # salt 0: fine
        with pytest.raises(FilterBuildError):
            factory.build([1, 2, 3], salt=SALT)

    def test_dboptions_reject_salt_seed_with_structural_factory(self):
        options = DBOptions(
            key_bits=32,
            filter_factory=make_factory("surf", 32, 10.0),
            filter_salt_seed=SALT,
        )
        with pytest.raises(InvalidOptionsError, match="not salt-capable"):
            options.validate()

    def test_dboptions_accept_salt_seed_with_hashed_factory(self):
        options = DBOptions(
            key_bits=32,
            filter_factory=make_factory("bloom", 32, 10.0),
            filter_salt_seed=SALT,
        )
        options.validate()
        assert options.filter_salt_seed == SALT

    def test_dboptions_salt_seed_range_checked(self):
        with pytest.raises(InvalidOptionsError):
            DBOptions(key_bits=32, filter_salt_seed=1 << 64).validate()


# ----------------------------------------------------------------------
# One observed-FPR convention everywhere
# ----------------------------------------------------------------------
class TestObservedFprConvention:
    def test_helper_definition(self):
        assert observed_fpr(0, 0) == 0.0
        assert observed_fpr(0, 10) == 0.0
        assert observed_fpr(1, 3) == 0.25
        assert observed_fpr(5, 0) == 1.0

    def test_perf_stats_matches_helper(self):
        stats = PerfStats()
        stats.add(filter_false_positives=3, filter_negatives=9)
        assert stats.observed_fpr == observed_fpr(3, 9)

    def test_tracker_matches_helper(self):
        tracker = WorkloadTracker()
        for _ in range(9):
            tracker.record_query(negatives=1)  # true negatives
        for _ in range(3):
            tracker.record_query(false_positives=1)  # false positives
        counts = tracker.to_dict()
        assert (counts["false_positives"], counts["filter_negatives"]) == (3, 9)
        stats = PerfStats()
        stats.add(filter_false_positives=3, filter_negatives=9)
        assert stats.observed_fpr == observed_fpr(3, 9)
