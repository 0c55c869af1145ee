"""Golden bytes of the write path: same cuts, same blocks, same filters —
and a counted guard that its cost per entry does not depend on file size.

One seeded store per shape runs puts, overwrites and deletes through WAL →
memtable → flush → leveled compaction → filter build, and the SHA-256 of
every SST and WAL file it leaves is pinned in ``golden_write_path.json``.
The digests were captured before the write path was first optimised (PR 22);
a change that moves any of them changed the file format, a block or file cut,
or a filter — which also moves the ledger's ``write_amp`` / ``space_amp``.
A fifth store (``MERGE_SHAPE``) covers the writers the puts-only shapes never
reach: ``ingest`` with duplicate keys, intra-L0 merges and a full compaction
that drops tombstones; its digests were captured before the per-entry encode
was fused into one loop.

Regenerate (only for a deliberate format change)::

    PYTHONPATH=src python tests/lsm/test_write_path_golden.py > tests/lsm/golden_write_path.json
"""

import cProfile
import hashlib
import json
import pstats
import random
import sys
import tempfile
from pathlib import Path

import pytest

from repro.bench.factories import make_factory
from repro.lsm import DB, DBOptions

GOLDEN = Path(__file__).with_name("golden_write_path.json")
# (key_bits, filter_salt_seed)
SHAPES = [(64, 0), (64, 0x5EED), (32, 0), (32, 0x5EED)]
OPS = 4000


def _options(key_bits: int, salt_seed: int) -> DBOptions:
    """The ledger's store shape (benchmarks/ledger/workloads.py) at 1/8."""
    options = DBOptions(
        key_bits=key_bits,
        memtable_size_bytes=8 << 10,
        sst_size_bytes=16 << 10,
        block_size_bytes=512,
        max_bytes_for_level_base=64 << 10,
        filter_salt_seed=salt_seed,
    )
    options.filter_factory = make_factory("rosetta", key_bits, 22, max_range=64)
    return options


def _hash_store(root: str, db: DB) -> dict:
    """SHA-256 of every SST and WAL file, taken with the store still open:
    the tail of the op stream is in the WAL only, and an append is on disk
    when ``put`` returns."""
    files = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(root).iterdir())
        if path.suffix in (".sst", ".log")
    }
    stats = db.stats.snapshot()
    levels = sorted(level for level, runs in db.version.levels.items() if runs)
    return {
        "files": files,
        "compactions": stats.compactions,
        "flushes": stats.flushes,
        "levels": levels,
    }


def build_store(root: str, key_bits: int, salt_seed: int) -> dict:
    """Run the seeded op sequence; returns ``{"files": {name: sha256}, ...}``."""
    rng = random.Random(f"golden/{key_bits}/{salt_seed}")
    db = DB(root, _options(key_bits, salt_seed))
    written: list[int] = []
    for step in range(OPS):
        roll = rng.random()
        if written and roll < 0.10:
            db.delete(rng.choice(written))
        elif written and roll < 0.25:
            db.put(rng.choice(written), rng.randbytes(64))  # overwrite
        else:
            key = rng.getrandbits(key_bits)
            written.append(key)
            if step == 700:
                value = rng.randbytes(200)      # two-byte length varint
            elif step == 1900:
                value = rng.randbytes(20_000)   # three-byte length varint
            elif step % 97 == 0:
                value = b""
            else:
                value = rng.randbytes(64)
            db.put(key, value)
    built = _hash_store(root, db)
    db.close()
    return built


@pytest.mark.parametrize("key_bits,salt_seed", SHAPES)
def test_sst_and_wal_bytes_are_pinned(tmp_path, key_bits, salt_seed):
    golden = json.loads(GOLDEN.read_text())[f"{key_bits}/{salt_seed}"]
    built = build_store(str(tmp_path / "store"), key_bits, salt_seed)
    # The sequence exercises what it claims to: a WAL tail, several SSTs,
    # and at least two leveled compactions reaching past level 1.
    assert any(name.endswith(".log") for name in built["files"])
    assert sum(name.endswith(".sst") for name in built["files"]) >= 4
    assert built["compactions"] >= 2
    assert max(built["levels"]) >= 2
    assert built == golden


MERGE_SHAPE = "ingest-intra-l0-full"


def build_merge_store(root: str) -> dict:
    """Ingest (duplicate keys: the first wins) into an L1 that dwarfs every
    flush, so L0 merges into itself; then deletes and a full compaction that
    drops the tombstones.  Also returns the compaction kinds that ran."""
    rng = random.Random(f"golden/{MERGE_SHAPE}")
    options = _options(32, 0x5EED)
    options.max_bytes_for_level_base = 1 << 20  # L1 keeps the whole ingest
    db = DB(root, options)
    kinds: list[str] = []
    execute = db._writer._compactor.execute  # noqa: SLF001

    def recorded(job):
        kinds.append(job.kind)
        return execute(job)

    db._writer._compactor.execute = recorded  # noqa: SLF001
    keys = [rng.getrandbits(32) for _ in range(5000)]
    items = [(key, rng.randbytes(64)) for key in keys]
    items += [(key, rng.randbytes(64)) for key in rng.sample(keys, 500)]
    db.ingest(items, level=1)
    for step in range(2000):
        if rng.random() < 0.2:
            db.delete(rng.choice(keys))
        else:
            key = rng.getrandbits(32)
            keys.append(key)
            db.put(key, b"" if step % 97 == 0 else rng.randbytes(64))
    db.force_full_compaction()
    for key in rng.sample(keys, 20):  # a WAL tail after the full compaction
        db.put(key, rng.randbytes(64))
    built = _hash_store(root, db)
    built["kinds"] = sorted(set(kinds))
    db.close()
    return built


def test_ingest_intra_l0_and_full_compaction_bytes_are_pinned(tmp_path):
    golden = json.loads(GOLDEN.read_text())[MERGE_SHAPE]
    built = build_merge_store(str(tmp_path / "store"))
    assert {"intra-l0", "full"} <= set(built["kinds"])
    assert built["levels"] == [1]
    assert built == golden


def _calls_per_rewritten_entry(root: str, sst_size_bytes: int) -> tuple[float, int]:
    """Function calls cProfile counts in one full compaction, per entry, and
    the number of files it wrote."""
    entries = 6000
    rng = random.Random("linearity")
    keys = rng.sample(range(1 << 32), entries)
    options = DBOptions(
        key_bits=32,
        sst_size_bytes=sst_size_bytes,
        block_size_bytes=2 << 10,
        memtable_size_bytes=4 << 20,
        max_bytes_for_level_base=64 << 20,  # nothing compacts on its own
    )
    options.filter_factory = make_factory("rosetta", 32, 22, max_range=64)
    with DB(root, options) as db:
        db.ingest(sorted((key, rng.randbytes(64)) for key in keys[:5000]), level=2)
        for key in keys[4000:]:  # 1000 overwrites + 1000 new keys, one L0 run
            db.put(key, rng.randbytes(64))
        db.flush()
        profile = cProfile.Profile()
        profile.enable()
        db.force_full_compaction()
        profile.disable()
        assert db.stats.snapshot().compactions == 1
        files = db.num_live_files()
    return pstats.Stats(profile).total_calls / entries, files


def test_compaction_calls_per_entry_do_not_grow_with_file_size(tmp_path):
    """Counted, not timed: a file eight times larger must not cost more per
    entry.  While the file's size was summed over its finished blocks at
    every entry, the 512 KiB file below cost several times the calls of the
    64 KiB ones for the same 6 000 entries.

    The ceiling holds the fused encoder (one loop from merged entry to block
    bytes, ~18 calls per entry): the per-entry ``add`` / ``size_estimate``
    calls it replaced cost ~33."""
    small, small_files = _calls_per_rewritten_entry(str(tmp_path / "small"), 64 << 10)
    large, large_files = _calls_per_rewritten_entry(str(tmp_path / "large"), 512 << 10)
    assert (small_files, large_files) == (7, 1)
    assert abs(large - small) / small < 0.10, (small, large)
    assert max(small, large) <= 20, (small, large)


if __name__ == "__main__":
    out = {}
    for bits, seed in SHAPES:
        with tempfile.TemporaryDirectory() as scratch:
            out[f"{bits}/{seed}"] = build_store(scratch + "/store", bits, seed)
    with tempfile.TemporaryDirectory() as scratch:
        out[MERGE_SHAPE] = build_merge_store(scratch + "/store")
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
