"""The four workloads: store shape, seeded dataset, seeded op stream.

Everything a workload feeds the store is generated here from ``--seed``; the
store only ever sees generated inputs.  Sizes are constants of the benchmark
and must not change after the PR that introduced it: a later PR is judged by
running *this* file against both commits.

Sizes are smaller than a paper-scale run because the acceptance driver gives
the whole benchmark (92 runs, each with three set-ups) under an hour; see
README.md for the budget arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import accumulate

from model import GET, MULTI_GET, PUT, RANGE, Model, value_for

from repro.bench.factories import make_factory
from repro.lsm.options import DBOptions

__all__ = ["WORKLOADS", "Workload", "store_options"]

BITS_PER_KEY = 22
MAX_RANGE = 64
VALUE_BYTES = 64


def store_options(
    key_bits: int,
    block_cache_bytes: int = 8 << 20,
    memtable_size_bytes: int = 64 << 10,
) -> DBOptions:
    """The common store shape: small blocks/files, so a multi-level tree
    with tens of runs forms from tens of thousands of keys.  Everything not
    named here is the store's default: WAL on and synced, inline
    flush/compaction (so count metrics repeat exactly), leveled."""
    options = DBOptions(
        key_bits=key_bits,
        memtable_size_bytes=memtable_size_bytes,
        sst_size_bytes=128 << 10,
        block_size_bytes=2 << 10,
        max_bytes_for_level_base=512 << 10,
        block_cache_bytes=block_cache_bytes,
    )
    options.filter_factory = make_factory(
        "rosetta", key_bits, BITS_PER_KEY, max_range=MAX_RANGE
    )
    return options


@dataclass
class Workload:
    """One named workload.  ``chunk_ops`` is the slice the measured window
    advances by (per client); ``prefix_ops`` is the fixed cold-start prefix
    the count metrics are taken over (it doubles as the warm-up)."""

    name: str
    why: str
    key_bits: int
    num_keys: int
    chunk_ops: int
    prefix_ops: int
    block_cache_bytes: int = 8 << 20
    memtable_size_bytes: int = 64 << 10
    clients: int = 1       # >1: through ShardedServer, that many client threads
    in_flight: int = 1     # futures each client keeps outstanding

    def scaled(self, divisor: int) -> "Workload":
        """The ``--smoke`` shape: same code paths, a fraction of the size."""
        return replace(
            self,
            num_keys=max(self.num_keys // divisor, 1000),
            chunk_ops=max(self.chunk_ops // divisor, 1),
            prefix_ops=max(self.prefix_ops // divisor, 1),
        )

    @property
    def user_bytes_per_key(self) -> int:
        return (self.key_bits + 7) // 8 + VALUE_BYTES

    def options(self) -> DBOptions:
        return store_options(
            self.key_bits, self.block_cache_bytes, self.memtable_size_bytes
        )

    def dataset(self, rng: random.Random) -> list[int]:
        """Distinct keys in load order (random order, so levels overlap)."""
        keys: set[int] = set()
        while len(keys) < self.num_keys:
            keys.add(rng.getrandbits(self.key_bits))
        ordered = sorted(keys)
        rng.shuffle(ordered)
        return ordered

    def prepare(self, rng: random.Random, model: Model) -> None:
        """Hook: derive op-generation state from the loaded dataset."""

    def chunk(self, rng: random.Random, model: Model, count: int, client: int = 0):
        raise NotImplementedError


class RangeEmpty(Workload):
    def chunk(self, rng, model, count, client=0):
        ops = []
        top = (1 << self.key_bits) - MAX_RANGE
        while len(ops) < count:
            low = rng.randrange(top)
            high = low + rng.randint(1, MAX_RANGE) - 1
            if not model.loaded_in(low, high):
                ops.append((RANGE, (low, high)))
        return ops


class PointZipf(Workload):
    ZIPF_THETA = 0.99
    MULTI_GET_EVERY = 76   # 150 k gets : 2 k multi_gets in the issue's mix
    MULTI_GET_KEYS = 32

    def prepare(self, rng, model):
        self._by_rank = list(model.sorted_keys)
        rng.shuffle(self._by_rank)   # popularity is independent of key order
        self._cum = list(accumulate(
            1.0 / rank ** self.ZIPF_THETA
            for rank in range(1, len(self._by_rank) + 1)
        ))

    def _keys(self, rng, model, count):
        present = rng.choices(self._by_rank, cum_weights=self._cum, k=count)
        keys = []
        for hot in present:
            if rng.random() < 0.5:
                keys.append(hot)
                continue
            while True:
                cold = rng.getrandbits(self.key_bits)
                if cold not in model.values:
                    keys.append(cold)
                    break
        return keys

    def chunk(self, rng, model, count, client=0):
        ops = []
        for index, key in enumerate(self._keys(rng, model, count)):
            if index % self.MULTI_GET_EVERY == self.MULTI_GET_EVERY - 1:
                ops.append(
                    (MULTI_GET, self._keys(rng, model, self.MULTI_GET_KEYS))
                )
            else:
                ops.append((GET, key))
        return ops


class ScanWide(Workload):
    RECORDS = 16

    def chunk(self, rng, model, count, client=0):
        keys = model.sorted_keys
        starts = (rng.randrange(len(keys) - self.RECORDS) for _ in range(count))
        return [
            (RANGE, (keys[at], keys[at + self.RECORDS - 1])) for at in starts
        ]


class ServeMixed(Workload):
    """Composite "entity | sequence" keys: clusters of 48 keys at stride 4.
    Cluster ``i`` is owned (appended to) by client ``i % clients``."""

    CLUSTER_KEYS = 48
    STRIDE = 4
    MULTI_GET_KEYS = 16

    def dataset(self, rng):
        clusters = self.num_keys // self.CLUSTER_KEYS
        slot = (1 << self.key_bits) // clusters
        # Keep each cluster (and everything ever appended to it) well inside
        # its slot, and leave room below the head for the empty ranges.
        self.bases = [
            index * slot + slot // 4 + self.STRIDE * rng.randrange(slot // 16)
            for index in range(clusters)
        ]
        self.appended = [0] * clusters
        keys = [
            base + self.STRIDE * seq
            for base in self.bases
            for seq in range(self.CLUSTER_KEYS)
        ]
        rng.shuffle(keys)
        return keys

    def _point_key(self, rng, client):
        roll = rng.random()
        if roll < 0.30:      # absent: inside a stride gap, never written
            base = rng.choice(self.bases)
            return (base + self.STRIDE * rng.randrange(self.CLUSTER_KEYS)
                    + rng.randint(1, self.STRIDE - 1))
        if roll < 0.37:      # a key this client appended earlier (memtable-fresh)
            owned = rng.randrange(client, len(self.bases), self.clients)
            if self.appended[owned]:
                seq = self.CLUSTER_KEYS + rng.randrange(self.appended[owned])
                return self.bases[owned] + self.STRIDE * seq
        base = rng.choice(self.bases)
        return base + self.STRIDE * rng.randrange(self.CLUSTER_KEYS)

    def chunk(self, rng, model, count, client=0):
        ops = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.35:
                ops.append((GET, self._point_key(rng, client)))
            elif roll < 0.45:
                ops.append((MULTI_GET, [
                    self._point_key(rng, client)
                    for _ in range(self.MULTI_GET_KEYS)
                ]))
            elif roll < 0.65:    # in-cluster scan: width 64 -> 16 loaded records
                base = rng.choice(self.bases)
                low = base + self.STRIDE * rng.randrange(
                    self.CLUSTER_KEYS - MAX_RANGE // self.STRIDE + 1
                )
                ops.append((RANGE, (low, low + MAX_RANGE - 1)))
            elif roll < 0.80:
                # Empty range hugging a cluster's head.  (The issue put it
                # past the tail; the tail moves under appends, the head never
                # does, so this side stays guaranteed-empty.)
                high = rng.choice(self.bases) - 1 - rng.randrange(8)
                ops.append((RANGE, (high - rng.randint(1, MAX_RANGE) + 1, high)))
            else:
                owned = rng.randrange(client, len(self.bases), self.clients)
                seq = self.CLUSTER_KEYS + self.appended[owned]
                self.appended[owned] += 1
                key = self.bases[owned] + self.STRIDE * seq
                ops.append((PUT, (key, value_for(key))))
        return ops


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        RangeEmpty(
            name="range-empty",
            why="empty ranges of width 1..64 on uniform 64-bit keys, data fits "
                "the cache: the filter does the work, the block path none",
            key_bits=64, num_keys=40_000, chunk_ops=300, prefix_ops=2_400,
        ),
        PointZipf(
            name="point-zipf",
            why="Zipf(0.99) gets, half absent, plus 32-key multi_gets; cache is "
                "an eighth of the data: fence search, cache and decode do the work",
            key_bits=64, num_keys=40_000, chunk_ops=1_500, prefix_ops=8_000,
            block_cache_bytes=448 << 10,
        ),
        ScanWide(
            name="scan-wide",
            why="16-record scans over 32-bit keys, ranges far wider than the "
                "filter's max_range and never empty: the filter the opposite way",
            key_bits=32, num_keys=40_000, chunk_ops=2, prefix_ops=32,
        ),
        ServeMixed(
            name="serve-mixed",
            why="two clients with 8 futures in flight through ShardedServer: "
                "gets, multi_gets, scans, empty ranges and 20 % appends, "
                "so WAL, memtable, flush and compaction run in the window",
            key_bits=64, num_keys=28_800, chunk_ops=100, prefix_ops=1_000,
            memtable_size_bytes=8 << 10, clients=2, in_flight=8,
        ),
    )
}
