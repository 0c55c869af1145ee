"""Adversarial hardening at the store level.

Three defenses land together and these tests pin their contracts:

* **Per-SST salting** — ``filter_salt_seed`` re-keys every flushed and
  compacted filter with a per-file salt; the salted envelope round-trips
  through the SST filter block, pre-salting (unsalted) envelopes keep
  loading under a salted configuration, and a corrupt salt field takes
  the corrupt-filter degrade path (the envelope CRC catches it) rather
  than serving a silently mis-keyed filter.
* **FP-feedback quarantine** — a run whose observed FPR blows past a
  multiple of its design FPR is flagged in ``DB.health()``, compaction
  prioritizes rebuilding it, and the rebuilt (re-salted, bonus-bits)
  run is unflagged.
* **The attack generator itself** — learns genuinely-absent FP keys and
  replays them with a deterministic 100% hit rate against an undefended
  store, which is the baseline the defenses are measured against.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.factories import make_factory
from repro.errors import WorkloadError
from repro.filters.base import deserialize_filter
from repro.lsm.db import DB
from repro.lsm.filter_integration import FilterDictionary
from repro.lsm.options import DBOptions
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


def _flip_byte(path: str, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def _sst_path(db: DB, run) -> str:
    return db._env.path(run.name)  # noqa: SLF001


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
class TestQuarantine:
    def test_attack_flags_run_and_compaction_heals(self, tmp_path):
        db = _loaded_db(tmp_path / "db", **dict(
            filter_salt_seed=SALT_SEED,
            quarantine_filters=True,
            quarantine_fpr_multiple=2.0,
            quarantine_min_probes=40,
        ))
        victim = _single_run(db).name
        attacker = AdversarialAttacker(db, seed=3, avoid=STORED)
        attacker.learn_points(800)
        assert attacker.learned_points
        attacker.replay(rounds=3, pressure=3, max_probes=3000)
        flagged = db.health()
        assert flagged.filters_under_attack >= 1
        assert victim in flagged.attacked_filters
        assert db.stats.filters_quarantined >= 1
        # The quarantine feeds compaction: one compact() call rebuilds
        # the flagged run (fresh salt + bonus bits) and clears the flag.
        db.compact()
        db.wait_idle()
        healed = db.health()
        assert healed.filters_under_attack == 0
        assert healed.attacked_filters == ()
        assert _single_run(db).name != victim
        # The learned set is stale against the re-keyed filter.
        _, hits = attacker.replay(rounds=1)
        assert hits / max(1, len(attacker.learned_points)) < 0.5
        db.close()

    def test_benign_traffic_never_flags(self, tmp_path):
        db = _loaded_db(tmp_path / "db", **dict(
            filter_salt_seed=SALT_SEED,
            quarantine_filters=True,
            quarantine_fpr_multiple=8.0,
            quarantine_min_probes=40,
        ))
        rng = random.Random(13)
        for _ in range(2000):
            db.get(rng.randrange(DOMAIN))
        health = db.health()
        assert health.filters_under_attack == 0
        assert health.attacked_filters == ()
        assert db.stats.filters_quarantined == 0
        db.close()

    def test_quarantine_disabled_by_default(self, tmp_path):
        db = _loaded_db(tmp_path / "db")
        attacker = AdversarialAttacker(db, seed=4, avoid=STORED)
        attacker.learn_points(600)
        attacker.replay(rounds=2, pressure=4, max_probes=2000)
        assert db.health().filters_under_attack == 0
        db.close()


class TestFilterDictionaryDetector:
    """Unit-level pinning of the flag threshold and lifecycle."""

    def _armed(self) -> FilterDictionary:
        fd = FilterDictionary(
            quarantine=True, quarantine_fpr_multiple=4.0,
            quarantine_min_probes=10,
        )
        fd._design_fpr["run"] = 0.01  # noqa: SLF001
        return fd

    def test_below_min_probes_never_flags(self):
        fd = self._armed()
        assert not fd.record_outcome("run", false_positives=9)
        assert fd.under_attack_snapshot() == ()

    def test_flags_once_past_threshold(self):
        fd = self._armed()
        # 10 probes, all FPs: observed 1.0 > 4 x 0.01.
        assert fd.record_outcome("run", negatives=0, false_positives=10)
        assert fd.under_attack_snapshot() == ("run",)
        # Sticky, not re-announced.
        assert not fd.record_outcome("run", false_positives=5)

    def test_fpr_at_threshold_does_not_flag(self):
        fd = self._armed()
        # observed 4/100 = 0.04 == 4 x 0.01: boundary stays unflagged.
        assert not fd.record_outcome(
            "run", negatives=96, false_positives=4
        )
        assert fd.under_attack_snapshot() == ()

    def test_unknown_design_fpr_never_flags(self):
        fd = self._armed()
        assert not fd.record_outcome("mystery", false_positives=100)
        assert fd.under_attack_snapshot() == ()

    def test_drop_run_clears_flag_and_counters(self):
        fd = self._armed()
        fd.record_outcome("run", false_positives=10)
        fd.drop_run("run")
        assert fd.under_attack_snapshot() == ()

    def test_quarantine_off_is_inert(self):
        fd = FilterDictionary(quarantine=False)
        assert not fd.record_outcome("run", false_positives=1000)
        assert fd.under_attack_snapshot() == ()


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
            _options(
                filter_salt_seed=SALT_SEED,
                quarantine_filters=True,
                quarantine_fpr_multiple=2.0,
                quarantine_min_probes=40,
            ),
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
