"""Adversarial hardening at the store level.

Three defenses land together and these tests pin their contracts:

* **Per-SST salting** — ``filter_salt_seed`` re-keys every flushed and
  compacted filter with a per-file salt; the salted envelope round-trips
  through the SST filter block, pre-salting (unsalted) envelopes keep
  loading under a salted configuration, and a corrupt salt field takes
  the corrupt-filter degrade path (the envelope CRC catches it) rather
  than serving a silently mis-keyed filter.
* **FP-feedback quarantine** — a run whose false positives are too many
  to be chance under its filter's design FPR is flagged in
  ``DB.health()``; the writer's next maintenance point rebuilds that
  run's filter in place (next salt generation, bonus bits, no SST
  written) and unflags it; the rebuilt filter lives in memory only, so a
  reopen serves the file's filter again; outcomes no model covers (wide
  ranges, prefix Bloom) never count.
* **The attack generator itself** — learns genuinely-absent FP keys and
  replays them with a deterministic 100% hit rate against an undefended
  store, which is the baseline the defenses are measured against.
"""

from __future__ import annotations

import bisect
import os
import random

import pytest

from repro.bench.factories import make_factory
from repro.errors import WorkloadError
from repro.filters.base import deserialize_filter, serialize_envelope
from repro.lsm.db import DB
from repro.core.analysis import fp_excess_bound
from repro.lsm import sstable
from repro.lsm.block_cache import BlockCache
from repro.lsm.env import StorageEnv
from repro.lsm.format import ValueTag
from repro.lsm.options import DBOptions
from repro.lsm.sstable import QUARANTINE_ALPHA, SSTReader, SSTWriter
from repro.lsm.serving import ServingOptions, ShardedServer
from repro.workloads.adversarial import AdversarialAttacker, AttackReport

KEY_BITS = 20
DOMAIN = 1 << KEY_BITS
SALT_SEED = 0x5EED_0F_A77AC
STORED = sorted(random.Random(11).sample(range(DOMAIN), 1200))


def _options(**overrides) -> DBOptions:
    """A small store with a deliberately weak point filter (8 bits/key):

    frequent-enough false positives that an attacker can learn a set and
    a quarantine detector has something to see, while probes stay cheap.
    """
    base = dict(
        key_bits=KEY_BITS,
        memtable_size_bytes=8 << 10,
        sst_size_bytes=1 << 20,
        block_size_bytes=1024,
        block_cache_bytes=0,  # every FP costs a visible device read
        filter_factory=make_factory("bloom", KEY_BITS, 8.0),
    )
    base.update(overrides)
    return DBOptions(**base)


def _loaded_db(path, **overrides) -> DB:
    db = DB(str(path), _options(**overrides))
    for key in STORED:
        db.put(key, b"v%d" % key)
    db.flush()
    db.force_full_compaction()  # exactly one run, one filter
    return db


def _single_run(db: DB):
    runs = db.version.all_runs_newest_first()
    assert len(runs) == 1
    return runs[0]


def _bare_reader(path) -> SSTReader:
    """A one-entry, filter-less run: the detector needs none of its data."""
    env = StorageEnv(str(path))
    writer = SSTWriter(env, "run.sst", DBOptions(key_bits=KEY_BITS))
    writer.extend([(bytes(3), ValueTag.PUT, b"v")])
    return SSTReader(env, writer.finish(), BlockCache(0))


def _outcome_counts(reader: SSTReader) -> tuple[int, int]:
    """The detector's evidence on a run: outcomes, false positives."""
    return reader._outcomes, reader._false_positives  # noqa: SLF001


def _flip_byte(path: str, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def _sst_path(db: DB, run) -> str:
    return db._env.path(run.name)  # noqa: SLF001


def _sst_files(path) -> set[str]:
    return {name for name in os.listdir(path) if name.endswith(".sst")}


# ----------------------------------------------------------------------
# Salted filter envelopes in SST files
# ----------------------------------------------------------------------
class TestSaltedEnvelope:
    def test_salted_envelope_roundtrip(self, tmp_path):
        db = _loaded_db(tmp_path / "db", filter_salt_seed=SALT_SEED)
        run = _single_run(db)
        filt = deserialize_filter(run.reader.filter_block_bytes())
        assert filt.salt != 0
        # The salted payload is the versioned (RBF2) Bloom layout.
        assert b"RBF2" in run.reader.filter_block_bytes()[:16]
        assert all(db.get(k) is not None for k in STORED[:50])
        db.close()

    def test_unsalted_store_writes_legacy_envelope(self, tmp_path):
        db = _loaded_db(tmp_path / "db")  # filter_salt_seed=0 default
        run = _single_run(db)
        block = run.reader.filter_block_bytes()
        assert b"RBF1" in block[:16]
        assert b"RBF2" not in block
        assert deserialize_filter(block).salt == 0
        db.close()

    def test_pre_salting_store_reopens_under_salted_config(self, tmp_path):
        """Envelope versioning: old unsalted runs serve alongside new
        salted ones after the operator turns the seed on."""
        path = tmp_path / "db"
        db = _loaded_db(path)
        db.close()
        db = DB(str(path), _options(filter_salt_seed=SALT_SEED))
        old_run = _single_run(db)
        assert deserialize_filter(old_run.reader.filter_block_bytes()).salt == 0
        assert db.get(STORED[0]) is not None
        # New writes flush with a fresh per-file salt.
        fresh = (DOMAIN - 1) if (DOMAIN - 1) not in STORED else (DOMAIN - 2)
        db.put(fresh, b"new")
        db.flush()
        new_run = db.version.all_runs_newest_first()[0]
        assert new_run.name != old_run.name
        assert deserialize_filter(new_run.reader.filter_block_bytes()).salt != 0
        assert db.get(fresh) == b"new"
        # A full compaction re-keys everything.
        db.force_full_compaction()
        merged = _single_run(db)
        assert deserialize_filter(merged.reader.filter_block_bytes()).salt != 0
        assert db.get(STORED[0]) is not None
        db.close()

    def test_distinct_files_get_distinct_salts(self, tmp_path):
        db = DB(str(tmp_path / "db"), _options(filter_salt_seed=SALT_SEED))
        for key in STORED:
            db.put(key, b"x")
            if key % 400 == 0:
                db.flush()
        db.flush()
        salts = {
            deserialize_filter(run.reader.filter_block_bytes()).salt
            for run in db.version.all_runs_newest_first()
        }
        assert len(salts) >= 2
        assert 0 not in salts
        db.close()

    def test_corrupt_salt_field_degrades_run(self, tmp_path):
        """Bit rot inside the salt takes the degrade path, never a
        silently mis-keyed filter: the envelope CRC covers the salt."""
        db = _loaded_db(tmp_path / "db", filter_salt_seed=SALT_SEED)
        run = _single_run(db)
        handle = run.reader._filter_handle  # noqa: SLF001
        # envelope = [tag_len][tag][crc4][payload]; the RBF2 salt field
        # sits at payload offset 16.
        tag_len = 1 + len(b"bloom") + 4
        _flip_byte(_sst_path(db, run), handle.offset + tag_len + 16 + 3)
        # An absent key inside the run's span, so the filter is consulted.
        absent = next(
            k for k in range(STORED[0], STORED[-1]) if k not in set(STORED)
        )
        assert db.get(absent) is None  # correct answer, filter-less
        assert db.stats.filters_degraded == 1
        assert run.name in db.health().degraded_filters
        db.close()

    def test_scalar_batch_parity_with_nonzero_salt(self, tmp_path):
        db = _loaded_db(tmp_path / "db", filter_salt_seed=SALT_SEED)
        rng = random.Random(12)
        probes = STORED[:200] + [rng.randrange(DOMAIN) for _ in range(400)]
        rng.shuffle(probes)
        scalar = {k: db.get(k) for k in probes}
        assert db.multi_get(probes) == scalar
        db.close()

    def test_salted_store_recovers_after_reopen(self, tmp_path):
        path = tmp_path / "db"
        db = _loaded_db(path, filter_salt_seed=SALT_SEED)
        db.close()
        reopened = DB(str(path), _options(filter_salt_seed=SALT_SEED))
        assert deserialize_filter(
            _single_run(reopened).reader.filter_block_bytes()
        ).salt != 0
        for key in STORED[::40]:
            assert reopened.get(key) is not None
        reopened.close()


# ----------------------------------------------------------------------
# The attack generator
# ----------------------------------------------------------------------
class TestAttacker:
    def test_unknown_mode_rejected(self, tmp_path):
        db = _loaded_db(tmp_path / "db")
        with pytest.raises(WorkloadError):
            AdversarialAttacker(db, mode="psychic")
        db.close()

    def test_oracle_learns_and_replays_deterministically(self, tmp_path):
        db = _loaded_db(tmp_path / "db")
        attacker = AdversarialAttacker(db, seed=1, avoid=STORED)
        report = attacker.run(
            point_probes=1500, range_probes=0, replay_rounds=2,
            replay_pressure=2, max_replay_probes=2000,
        )
        assert isinstance(report, AttackReport)
        assert report.learned > 0
        # Every learned key is genuinely absent (avoid= respected) …
        stored = set(STORED)
        assert all(k not in stored for k in report.learned_points)
        # … and deterministic: the undefended filter re-admits each one
        # on every replay.
        assert report.replay_probes > 0
        assert report.replay_fpr == 1.0
        db.close()

    def test_learned_fps_go_stale_after_salted_rebuild(self, tmp_path):
        """The end-to-end point of the PR in one test."""
        db = _loaded_db(tmp_path / "db", filter_salt_seed=SALT_SEED)
        attacker = AdversarialAttacker(db, seed=2, avoid=STORED)
        attacker.learn_points(1500)
        assert attacker.learned_points
        db.force_full_compaction()  # fresh file number -> fresh salt
        _, hits = attacker.replay(rounds=1)
        survivors = hits / max(1, len(attacker.learned_points))
        assert survivors < 0.5  # each survives only at design FPR
        db.close()

    def test_blackbox_calibration_then_classification(self, tmp_path):
        db = _loaded_db(tmp_path / "db")
        attacker = AdversarialAttacker(
            db, mode="blackbox", blackbox_calibration_probes=4,
            blackbox_threshold_factor=4.0,
        )
        # First four empty probes only calibrate (classified negative).
        for latency in (100, 120, 80, 100):
            assert attacker._classify_latency(latency) is False  # noqa: SLF001
        # Threshold is now 4 x median(100) = 400ns.
        assert attacker._classify_latency(399) is False  # noqa: SLF001
        assert attacker._classify_latency(401) is True  # noqa: SLF001
        db.close()

    def test_replay_argument_validation(self, tmp_path):
        db = _loaded_db(tmp_path / "db")
        attacker = AdversarialAttacker(db)
        with pytest.raises(WorkloadError):
            attacker.replay(rounds=-1)
        with pytest.raises(WorkloadError):
            attacker.replay(pressure=0)
        with pytest.raises(WorkloadError):
            attacker.learn_ranges(-1)
        db.close()


# ----------------------------------------------------------------------
# FP-feedback quarantine
# ----------------------------------------------------------------------
class _Watched:
    """The store as the attacker drives it, noting how many false positives
    it had served when the detector first flagged a run."""

    def __init__(self, db: DB) -> None:
        self._db = db
        self.stats = db.stats
        self.false_positives_at_flag: int | None = None

    def _answer(self, answer):
        if self.false_positives_at_flag is None and self.stats.filters_quarantined:
            self.false_positives_at_flag = self.stats.filter_false_positives
        return answer

    def get(self, key):
        return self._answer(self._db.get(key))

    def range_query(self, low, high):
        return self._answer(self._db.range_query(low, high))


def _empty_ranges(
    rng: random.Random, stored: list[int], widths: tuple[int, int], count: int,
    domain: int = DOMAIN,
) -> list[tuple[int, int]]:
    """``count`` ranges of uniform widths in ``widths`` holding no key of
    the sorted ``stored``."""
    ranges = []
    while len(ranges) < count:
        width = rng.randint(*widths)
        low = rng.randrange(domain - width)
        at = bisect.bisect_left(stored, low)
        if at == len(stored) or stored[at] >= low + width:
            ranges.append((low, low + width - 1))
    return ranges


def _rosetta(bits_per_key: float):
    return make_factory("rosetta", KEY_BITS, bits_per_key, max_range=64)


def _design_fpr(db: DB, width: int) -> float | None:
    """What the single run's filter predicts for a ``width``-key query."""
    block = _single_run(db).reader.filter_block_bytes()
    return deserialize_filter(block).design_fpr(width)


def _assert_never_flagged(db: DB) -> None:
    health = db.health()
    assert health.filters_under_attack == 0
    assert health.attacked_filters == ()
    assert db.stats.filters_quarantined == 0


def _attacked(db: DB) -> AdversarialAttacker:
    """Learn the single run's false positives and replay them until the
    detector flags it."""
    attacker = AdversarialAttacker(db, seed=3, avoid=STORED)
    attacker.learn_points(800)
    assert attacker.learned_points
    attacker.replay(rounds=3, pressure=3, max_probes=3000)
    assert db.health().attacked_filters == (_single_run(db).name,)
    return attacker


class TestQuarantine:
    def test_attack_flags_run_and_filter_rebuild_heals(self, tmp_path):
        db = _loaded_db(
            tmp_path / "db", filter_salt_seed=SALT_SEED, quarantine_filters=True
        )
        victim = _single_run(db).name
        attacker = _attacked(db)
        assert db.stats.filters_quarantined == 1
        # The next maintenance point (a flush with nothing to flush)
        # rebuilds the flagged run's filter in place: next salt generation,
        # bonus bits, and not one SST written.
        files = _sst_files(tmp_path / "db")
        before = db.stats.snapshot()
        db.flush()
        delta = db.stats.diff(before)
        healed = db.health()
        assert healed.filters_under_attack == 0
        assert healed.attacked_filters == ()
        assert _single_run(db).name == victim
        assert _sst_files(tmp_path / "db") == files
        assert delta.compaction_bytes_written == 0
        assert delta.filters_built == 1
        assert _single_run(db).reader.generation == 1
        # The learned set is stale against the re-keyed filter.
        probes, hits = attacker.replay(rounds=1)
        assert hits / probes < 0.5
        db.close()

    def test_reopen_serves_the_file_filter_and_flags_again(self, tmp_path):
        """The rebuilt filter lives in memory only: a reopened run serves
        its file's generation-0 filter, which the attacker has learned, and
        the replay is flagged again."""
        path = tmp_path / "db"
        db = _loaded_db(path, filter_salt_seed=SALT_SEED, quarantine_filters=True)
        learned = _attacked(db).learned_points
        db.flush()
        assert db.health().attacked_filters == ()
        db.close()
        db = DB(str(path), _options(filter_salt_seed=SALT_SEED, quarantine_filters=True))
        reader = _single_run(db).reader
        assert reader.generation == 0
        assert db.get(learned[0]) is None
        assert serialize_envelope(reader.resolved_filter) == reader.filter_block_bytes()
        watched = _Watched(db)
        attacker = AdversarialAttacker(watched, key_bits=KEY_BITS, avoid=STORED)
        attacker.learned_points = list(learned)
        probes, hits = attacker.replay(rounds=3, pressure=3, max_probes=3000)
        assert hits == probes  # every learned key is a false positive again
        assert db.health().attacked_filters == (reader.meta.name,)
        # A pure replay, with no negatives to dilute it, is significant fast.
        assert watched.false_positives_at_flag <= 8
        db.close()

    def test_store_without_a_recipe_serves_the_run_filter_less(self, tmp_path):
        """Reopened with no filter factory, the store still probes the
        filters its files hold; a flagged one cannot be rebuilt, so the run
        is served without a filter, as a compaction would write it."""
        path = tmp_path / "db"
        _loaded_db(path, filter_salt_seed=SALT_SEED).close()
        db = DB(str(path), _options(
            filter_factory=None, filter_salt_seed=SALT_SEED, quarantine_filters=True,
        ))
        run = _single_run(db)
        filt = db._filter_dictionary.get_filter(run.reader, db.stats)  # noqa: SLF001
        db._note_filter_outcome(run, filt, 1, 0, 64)  # noqa: SLF001
        db.flush()
        assert db.health().attacked_filters == ()
        assert run.reader.resolved_filter is None
        assert [db.get(key) for key in STORED[:50]] == [b"v%d" % k for k in STORED[:50]]
        db.close()

    def test_rebuild_reads_every_key_of_the_run(self, tmp_path):
        """The key pass feeds the filter what the file's own build had:
        every key, tombstones too, up to both uint64 edges.  At generation 0
        without bonus bits it rebuilds the on-disk filter byte for byte, and
        after a real rebuild no read touching those keys loses an answer."""
        top = (1 << 64) - 1
        rng = random.Random(17)
        db = DB(str(tmp_path / "db"), DBOptions(
            key_bits=64,
            memtable_size_bytes=1 << 20,
            filter_factory=make_factory("rosetta", 64, 14, max_range=64),
            filter_salt_seed=SALT_SEED,
            quarantine_filters=True,
        ))
        model: dict[int, bytes] = {}
        for key in [0, top] + [rng.getrandbits(64) for _ in range(600)]:
            db.put(key, b"v%d" % key)
            model[key] = b"v%d" % key
        deleted = [0, top] + rng.sample(sorted(model), 50)
        deleted += [rng.getrandbits(64) for _ in range(50)]  # never written
        for key in deleted:
            db.delete(key)
            model.pop(key, None)
        db.flush()
        run = _single_run(db)
        assert run.reader.meta.min_key == bytes(8)
        assert run.reader.meta.max_key == top.to_bytes(8, "big")
        writer = db._writer  # noqa: SLF001
        assert serialize_envelope(
            writer._build_filter(run.reader, 0, None)  # noqa: SLF001
        ) == run.reader.filter_block_bytes()

        filt = db._filter_dictionary.get_filter(run.reader, db.stats)  # noqa: SLF001
        db._note_filter_outcome(run, filt, 1, 0, 64)  # noqa: SLF001
        db.flush()
        assert run.reader.generation == 1
        assert run.reader.resolved_filter is not filt
        keys = sorted(set(model) | set(deleted))
        for key in keys:
            assert db.get(key) == model.get(key)
        stored = sorted(model)
        for key in keys:
            for low, high in ((key - 5, key + 5), (key - 63, key), (key, key + 63)):
                low, high = max(0, low), min(top, high)
                at = bisect.bisect_left(stored, low)
                expected = []
                while at < len(stored) and stored[at] <= high:
                    expected.append((stored[at], model[stored[at]]))
                    at += 1
                assert db.range_query(low, high) == expected
        db.close()

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_learner_is_flagged_within_60_false_positives(self, tmp_path, seed):
        """At 8 bits/key the design FPR is ~0.02: a run of replayed false
        positives is significant after a few dozen."""
        db = _loaded_db(
            tmp_path / "db", filter_salt_seed=SALT_SEED, quarantine_filters=True
        )
        watched = _Watched(db)
        attacker = AdversarialAttacker(
            watched, key_bits=KEY_BITS, seed=seed, avoid=STORED
        )
        attacker.learn_points(800)
        attacker.replay(rounds=3, pressure=3, max_probes=3000)
        assert watched.false_positives_at_flag is not None
        assert watched.false_positives_at_flag <= 60
        db.close()

    def test_rosetta_point_replay_is_flagged(self, tmp_path):
        """Rosetta's design FPR at its 64-key max range is ~0.3 at 14
        bits/key, yet a replay of false positives is soon too long a run
        to be chance."""
        db = _loaded_db(
            tmp_path / "db", filter_factory=_rosetta(14),
            filter_salt_seed=SALT_SEED, quarantine_filters=True,
        )
        assert 0.2 < _design_fpr(db, 1) < 0.4
        attacker = AdversarialAttacker(db, seed=3, avoid=STORED)
        attacker.learn_points(800)
        attacker.replay(rounds=3, pressure=3, max_probes=3000)
        assert db.health().filters_under_attack == 1
        db.close()

    def test_benign_traffic_never_flags(self, tmp_path):
        """Uniform gets, on the 8 bits/key point Bloom and on a 14 bits/key
        Rosetta."""
        for name, factory in (("bloom", None), ("rosetta", _rosetta(14))):
            overrides = {"filter_factory": factory} if factory else {}
            db = _loaded_db(
                tmp_path / name, filter_salt_seed=SALT_SEED,
                quarantine_filters=True, **overrides,
            )
            rng = random.Random(13)
            for _ in range(2000):
                db.get(rng.randrange(DOMAIN))
            assert db.stats.filter_false_positives > 0
            _assert_never_flagged(db)
            db.close()

    def test_point_filter_ranges_are_not_evidence(self, tmp_path):
        """A point Bloom passes every range wider than one key: an empty
        8-wide range is a false positive by construction, not an attack."""
        db = _loaded_db(
            tmp_path / "db", filter_salt_seed=SALT_SEED, quarantine_filters=True
        )
        for low, high in _empty_ranges(random.Random(13), STORED, (8, 8), 2000):
            assert db.range_query(low, high) == []
        assert db.stats.observed_fpr == 1.0
        _assert_never_flagged(db)
        db.compact()
        for low, high in _empty_ranges(random.Random(14), STORED, (8, 8), 2000):
            db.range_query(low, high)
        _assert_never_flagged(db)
        db.close()

    def test_prefix_bloom_has_no_model(self, tmp_path):
        """A prefix Bloom's per-probe FPR ignores stored keys that share the
        probed prefix, so it publishes no design FPR to test against."""
        db = _loaded_db(
            tmp_path / "db", filter_factory=make_factory("prefix-bloom", KEY_BITS, 8.0),
            filter_salt_seed=SALT_SEED, quarantine_filters=True,
        )
        rng = random.Random(13)
        for _ in range(2000):
            db.get(rng.randrange(DOMAIN))
        assert db.stats.observed_fpr > 0.1
        _assert_never_flagged(db)
        db.close()

    def test_ranges_past_the_max_range_are_not_evidence(self, tmp_path):
        """§3.1 keeps no level above log2 R: a 129–512-wide range is past
        what the model covers, however often it is a false positive."""
        db = _loaded_db(
            tmp_path / "db", filter_factory=_rosetta(14),
            filter_salt_seed=SALT_SEED, quarantine_filters=True,
        )
        ranges = _empty_ranges(random.Random(13), STORED, (129, 512), 2000)
        for low, high in ranges:
            db.range_query(low, high)
        assert db.stats.observed_fpr > _design_fpr(db, 64)
        _assert_never_flagged(db)
        db.close()

    def test_range_empty_shaped_store_never_flags(self, tmp_path):
        """Uniform 1–64-wide empty ranges over uniform 64-bit keys, 22
        bits/key and several runs, as the ledger's ``range-empty`` runs."""
        rng = random.Random(15)
        stored = sorted({rng.getrandbits(64) for _ in range(6000)})
        db = DB(str(tmp_path / "db"), DBOptions(
            key_bits=64,
            memtable_size_bytes=32 << 10,
            block_cache_bytes=1 << 20,
            filter_factory=make_factory("rosetta", 64, 22, max_range=64),
            quarantine_filters=True,
        ))
        for key in rng.sample(stored, len(stored)):
            db.put(key, b"v")
        db.flush()
        assert len(db.version.all_runs_newest_first()) > 1
        for low, high in _empty_ranges(rng, stored, (1, 64), 3000, 1 << 64):
            db.range_query(low, high)
        assert db.stats.filter_false_positives > 0
        _assert_never_flagged(db)
        db.close()

    def test_benign_hot_false_positive_is_flagged_and_rebuilt(self, tmp_path):
        """Deliberate: a hot key that happens to be a false positive costs a
        block read on every repeat, exactly as a replayed one does, so
        Zipf(0.99) gets whose hottest key is one flag the run.  The salted
        filter rebuild removes it without writing an SST, and the same
        traffic then flags nothing."""
        db = _loaded_db(
            tmp_path / "db", filter_salt_seed=SALT_SEED, quarantine_filters=True
        )
        rng = random.Random(16)
        stored = set(STORED)
        absent = [key for key in rng.sample(range(DOMAIN), 20_000) if key not in stored]
        hot = AdversarialAttacker(db, seed=16, avoid=STORED).learn_points(400)[0]
        popular = [hot] + absent
        weights = [1.0 / rank ** 0.99 for rank in range(1, len(popular) + 1)]
        traffic = rng.choices(popular, weights=weights, k=20_000)
        for key in traffic:
            db.get(key)
        assert db.health().filters_under_attack == 1
        files = _sst_files(tmp_path / "db")
        written = db.stats.compaction_bytes_written
        db.flush()
        assert db.health().filters_under_attack == 0
        assert _sst_files(tmp_path / "db") == files
        assert db.stats.compaction_bytes_written == written
        for key in traffic:
            db.get(key)
        assert db.health().filters_under_attack == 0
        db.close()

    def test_quarantine_disabled_by_default(self, tmp_path):
        db = _loaded_db(tmp_path / "db")
        attacker = AdversarialAttacker(db, seed=4, avoid=STORED)
        attacker.learn_points(600)
        attacker.replay(rounds=2, pressure=4, max_probes=2000)
        assert db.health().filters_under_attack == 0
        db.close()


class TestFilterDictionaryDetector:
    """Unit-level pinning of the significance test and the flag lifecycle,
    on the reader that holds a run's detector state."""

    def test_too_few_false_positives_never_flag(self, tmp_path):
        reader = _bare_reader(tmp_path)
        # Two straight false positives at p = 0.01: bound 1e-4.
        assert not reader.record_outcome(0.01, 0, 2)
        assert not reader.under_attack

    def test_flags_once_past_threshold(self, tmp_path):
        """The flag lands on the false positive whose count first has a
        bound below alpha, and is announced once."""
        reader = _bare_reader(tmp_path)
        assert not reader.record_outcome(0.01, 50, 0)
        flagged = [reader.record_outcome(0.01, 0, 1) for _ in range(10)]
        assert flagged.count(True) == 1
        k = flagged.index(True) + 1
        assert fp_excess_bound(k, 50 + k, 0.01) < QUARANTINE_ALPHA
        assert fp_excess_bound(k - 1, 49 + k, 0.01) >= QUARANTINE_ALPHA
        assert reader.under_attack

    def test_fpr_at_threshold_does_not_flag(self, tmp_path):
        reader = _bare_reader(tmp_path)
        # Observed exactly at the design FPR, however many outcomes.
        for _ in range(100):
            assert not reader.record_outcome(
                0.01, negatives=990, false_positives=10
            )
        assert not reader.under_attack

    def test_negatives_alone_are_never_tested(self, tmp_path, monkeypatch):
        calls = []

        def bound(*args):
            calls.append(args)
            return 1.0

        monkeypatch.setattr(sstable, "fp_excess_bound", bound)
        reader = _bare_reader(tmp_path)
        reader.record_outcome(0.01, 5, 0)
        reader.record_outcome(0.01, 3, 2)
        assert calls == [(2, 10, 0.01)]

    def test_unknown_design_fpr_never_flags(self, tmp_path):
        reader = _bare_reader(tmp_path)
        assert not reader.record_outcome(None, 0, 100)
        assert not reader.under_attack
        assert _outcome_counts(reader) == (0, 0)  # not evidence, not counted

    def test_quarantine_off_is_inert(self, tmp_path):
        """``quarantine_filters`` is the one switch: off, the detector is
        never fed and the filter's design FPR is never asked for."""
        db = _loaded_db(tmp_path / "db")
        run = _single_run(db)

        class Unasked:
            def design_fpr(self, width):
                raise AssertionError("design FPR asked with quarantine off")

        db._note_filter_outcome(run, Unasked(), 1, 0, 1000)  # noqa: SLF001
        assert not run.reader.under_attack
        assert _outcome_counts(run.reader) == (0, 0)
        _assert_never_flagged(db)
        db.close()


class TestDesignFpr:
    """Each filter publishes a design FPR only where its model covers the
    query."""

    def test_point_bloom_models_width_one_only(self):
        filt = make_factory("bloom", KEY_BITS, 8.0).build(STORED)
        assert 0.01 < filt.design_fpr(1) < 0.04
        assert filt.design_fpr(2) is None

    def test_rosetta_anchors_at_its_max_range_and_stops_there(self):
        filt = _rosetta(14).build(STORED)
        anchor = filt.core.predicted_range_fpr(64)
        assert filt.design_fpr(1) == filt.design_fpr(64) == anchor
        assert filt.design_fpr(65) is None

    def test_prefix_bloom_and_surf_publish_none(self):
        for name in ("prefix-bloom", "surf"):
            filt = make_factory(name, 24, 10.0).build(STORED)
            assert filt.design_fpr(1) is None


# ----------------------------------------------------------------------
# Serving-layer aggregation
# ----------------------------------------------------------------------
class TestServingGauges:
    def test_healthy_fleet_reports_zero_gauges(self, tmp_path):
        server = ShardedServer(
            str(tmp_path / "server"),
            _options(
                filter_salt_seed=SALT_SEED,
                quarantine_filters=True,
            ),
            ServingOptions(num_shards=2),
        )
        server.put(1, b"a")
        server.put(DOMAIN - 2, b"b")
        health = server.health()
        assert health.filters_degraded == 0
        assert health.filters_under_attack == 0
        server.close()

    def test_attacked_shard_rolls_up(self, tmp_path):
        server = ShardedServer(
            str(tmp_path / "server"),
            _options(filter_salt_seed=SALT_SEED, quarantine_filters=True),
            ServingOptions(num_shards=2),
        )
        # Load shard 0's key span and flush it to a filtered run.
        span = server.router.span(0)
        rng = random.Random(14)
        stored = sorted(
            rng.sample(range(span[0], span[1] + 1), 800)
        )
        for key in stored:
            server.put(key, b"v")
        shard_db = server._shards[0].db  # noqa: SLF001
        shard_db.flush()
        shard_db.force_full_compaction()
        # Attack through the serving front-end: the shard's own stats
        # and quarantine detector see the probes.
        attacker = AdversarialAttacker(
            shard_db, key_bits=KEY_BITS, seed=5, avoid=stored
        )
        attacker.learn_points(800)
        assert attacker.learned_points
        attacker.replay(rounds=3, pressure=3, max_probes=3000)
        health = server.health()
        assert health.filters_under_attack >= 1
        assert health.shards[0].filters_under_attack >= 1
        assert health.shards[1].filters_under_attack == 0
        server.close()
