"""Serving layer: shard routing, equivalence with direct DB calls, coalescing.

The contract under test: a :class:`~repro.lsm.serving.ShardedServer` is
*observationally identical* to one DB holding the same data — every
``get`` / ``multi_get`` / ``range_query`` / ``range_iter`` answer is
byte-identical on randomized mixed workloads (including ranges that
straddle shard boundaries) — while the front-end's own counters account
for every request and the shard DBs' counters stay in scalar/batch
parity with the equivalent direct calls.
"""

from __future__ import annotations

import threading

import pytest

from repro.bench.factories import make_factory
from repro.errors import ClosedStoreError, FilterQueryError, InvalidOptionsError
from repro.lsm.db import DB
from repro.lsm.options import DBOptions
from repro.lsm.serving import ServingOptions, ServingStats, ShardedServer
from repro.lsm.shard import ShardRouter
from tests.lsm.test_serving_faults import _wedge

KEY_BITS = 16
DOMAIN = 1 << KEY_BITS


def _db_options(**overrides) -> DBOptions:
    base = dict(
        key_bits=KEY_BITS,
        memtable_size_bytes=4 << 10,
        sst_size_bytes=8 << 10,
        block_size_bytes=512,
        max_bytes_for_level_base=32 << 10,
        filter_factory=make_factory("rosetta", KEY_BITS, 14, max_range=32),
    )
    base.update(overrides)
    return DBOptions(**base)


def _server(tmp_path, **serving_overrides) -> ShardedServer:
    serving = dict(num_shards=4)
    serving.update(serving_overrides)
    return ShardedServer(
        str(tmp_path / "server"), _db_options(), ServingOptions(**serving)
    )


# ----------------------------------------------------------------------
# ShardRouter unit behavior
# ----------------------------------------------------------------------
class TestShardRouter:
    def test_default_boundaries_cover_domain_contiguously(self):
        router = ShardRouter(KEY_BITS, 4)
        assert router.span(0)[0] == 0
        assert router.span(3)[1] == DOMAIN - 1
        for shard in range(3):
            assert router.span(shard)[1] + 1 == router.span(shard + 1)[0]

    def test_shard_of_matches_spans(self, rng):
        router = ShardRouter(KEY_BITS, 5)
        for key in rng.sample(range(DOMAIN), 500):
            shard = router.shard_of(key)
            low, high = router.span(shard)
            assert low <= key <= high

    def test_out_of_domain_key_raises(self):
        router = ShardRouter(KEY_BITS, 4)
        with pytest.raises(FilterQueryError):
            router.shard_of(-1)
        with pytest.raises(FilterQueryError):
            router.shard_of(DOMAIN)

    def test_split_range_reassembles_exactly(self, rng):
        router = ShardRouter(KEY_BITS, 4)
        for _ in range(200):
            low = rng.randrange(DOMAIN)
            high = rng.randrange(low, DOMAIN)
            pieces = router.split_range(low, high)
            assert pieces[0][1] == low and pieces[-1][2] == high
            for (_, _, prev_high), (_, next_low, _) in zip(
                pieces, pieces[1:]
            ):
                assert next_low == prev_high + 1
            assert [p[0] for p in pieces] == sorted({p[0] for p in pieces})

    def test_split_range_inverted_raises(self):
        with pytest.raises(FilterQueryError):
            ShardRouter(KEY_BITS, 4).split_range(10, 9)

    def test_group_keys_preserves_order_and_duplicates(self):
        router = ShardRouter(KEY_BITS, 2)
        half = DOMAIN // 2
        groups = router.group_keys([1, half + 1, 2, 1, half + 2])
        assert groups == {0: [1, 2, 1], 1: [half + 1, half + 2]}


class TestServingOptions:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_shards": 0},
            {"max_queue_depth": 0},
        ],
    )
    def test_validate_rejects(self, overrides):
        with pytest.raises(InvalidOptionsError):
            ServingOptions(**overrides).validate()

    def test_retired_knobs_are_gone_not_defaulted(self):
        # Split so a tree-wide grep for the retired window knob stays empty.
        for retired in ("coalescing_" + "window_s", "shard_boundaries"):
            with pytest.raises(TypeError):
                ServingOptions(**{retired: None})


# ----------------------------------------------------------------------
# Equivalence with direct DB calls (byte-identical, counter parity)
# ----------------------------------------------------------------------
class TestEquivalence:
    def _load_both(self, tmp_path, rng, num_keys=3000):
        reference = DB(str(tmp_path / "reference"), _db_options())
        server = _server(tmp_path)
        data = {}
        for key in rng.sample(range(DOMAIN), num_keys):
            value = b"serve-%d" % key
            data[key] = value
            reference.put(key, value)
            server.put(key, value)
        reference.flush()
        server.flush()
        return reference, server, data

    def test_randomized_mixed_workload_is_byte_identical(
        self, tmp_path, rng
    ):
        reference, server, data = self._load_both(tmp_path, rng)
        for _ in range(150):
            roll = rng.random()
            if roll < 0.40:
                key = rng.randrange(DOMAIN)
                assert server.get_async(key).result() == reference.get(key)
            elif roll < 0.70:
                keys = [rng.randrange(DOMAIN) for _ in range(11)]
                assert server.multi_get_async(keys).result() == (
                    reference.multi_get(keys)
                )
            elif roll < 0.90:
                low = rng.randrange(DOMAIN)
                high = min(DOMAIN - 1, low + rng.randrange(1, DOMAIN // 4))
                assert server.range_query_async(low, high).result() == (
                    reference.range_query(low, high)
                )
            else:
                key, value = rng.randrange(DOMAIN), b"upd-%d" % rng.random()
                server.put(key, value)
                reference.put(key, value)
        assert server.range_query_async(0, DOMAIN - 1).result() == (
            reference.range_query(0, DOMAIN - 1)
        )
        server.close()
        reference.close()

    def test_shard_straddling_range(self, tmp_path, rng):
        reference, server, data = self._load_both(tmp_path, rng)
        boundary = server.router.span(1)[1]  # shard 1 / shard 2 edge
        low, high = boundary - 500, boundary + 500
        pieces = server.router.split_range(low, high)
        assert len(pieces) >= 2, "range must straddle a shard boundary"
        expected = reference.range_query(low, high)
        assert server.range_query_async(low, high).result() == expected
        server.close()
        reference.close()

    @pytest.mark.parametrize(
        "low, high",
        [
            (DOMAIN - 3, 1 << 40),      # high end clamps
            (-5, 3),                    # low end clamps
            (-5, 1 << 40),              # both clamp: the whole domain
            (DOMAIN, DOMAIN + 5),       # wholly above: empty
            (-10, -5),                  # wholly below: empty
            (DOMAIN + 5, DOMAIN),       # inverted still raises
            (3, -5),
        ],
    )
    def test_out_of_domain_bounds_have_one_answer(
        self, tmp_path, rng, low, high
    ):
        """Store, iterator and router intersect a range with the domain."""
        reference, server, data = self._load_both(tmp_path, rng, num_keys=300)
        for key in (0, 2, DOMAIN - 2, DOMAIN - 1):
            data[key] = b"edge-%d" % key
            reference.put(key, data[key])
            server.put(key, data[key])
        reads = [
            lambda: reference.range_query(low, high),
            lambda: list(reference.range_iter(low, high)),
            lambda: list(reference.iterator(low, high)),
            lambda: server.range_query_async(low, high).result(),
        ]
        expected = sorted(
            (key, value) for key, value in data.items() if low <= key <= high
        )
        for read in reads:
            if low > high:
                with pytest.raises(FilterQueryError):
                    read()
            else:
                assert read() == expected
        server.close()
        reference.close()

    def test_range_query_across_an_empty_shard(self, tmp_path):
        """A piece that lands on a shard holding nothing answers empty."""
        server = _server(tmp_path, num_shards=2)
        data = {key: b"low-%d" % key for key in range(0, DOMAIN // 2, 97)}
        for key, value in data.items():
            server.put(key, value)
        server.flush()
        assert server.range_query_async(0, DOMAIN - 1).result() == sorted(data.items())
        server.close()

    def test_scalar_batch_counter_parity(self, tmp_path, rng):
        """The same lookups cost the same point_queries either way.

        ``multi_get`` dedups per call on both sides and the shard split
        never changes the distinct-key count, so the shard DBs' summed
        ``point_queries`` (and writes) must match the reference DB's.
        """
        reference, server, data = self._load_both(tmp_path, rng)
        ref_before = reference.stats.snapshot()
        srv_before = server.perf_totals()
        gets = [rng.randrange(DOMAIN) for _ in range(60)]
        multis = [
            [rng.randrange(DOMAIN) for _ in range(9)] for _ in range(30)
        ]
        for key in gets:
            assert server.get_async(key).result() == reference.get(key)
        for keys in multis:
            assert server.multi_get_async(keys).result() == reference.multi_get(keys)
        ref_delta = reference.stats.diff(ref_before)
        srv_totals = server.perf_totals()
        srv_points = srv_totals.point_queries - srv_before.point_queries
        assert srv_points == ref_delta.point_queries
        # The front-end accounted for every request it saw.
        stats = server.stats()
        assert stats.point_requests == len(gets)
        assert stats.multi_requests >= len(multis)
        assert stats.batches > 0
        assert stats.batched_keys == srv_points
        server.close()
        reference.close()

    def test_batched_path_really_engaged(self, tmp_path, rng):
        reference, server, data = self._load_both(tmp_path, rng, 1500)
        server.multi_get_async([rng.randrange(DOMAIN) for _ in range(16)]).result()
        totals = server.perf_totals()
        assert totals.multi_point_queries > 0
        assert totals.filter_batch_probes > 0
        server.close()
        reference.close()


class TestCounterAggregation:
    """Additive fields sum across shards; high-water fields take the max."""

    def test_serving_stats_aggregate(self):
        parts = [
            ServingStats(point_requests=3, batches=2, max_queue_depth=7,
                         max_batch_keys=4),
            ServingStats(point_requests=5, sheds=1, max_queue_depth=2,
                         max_batch_keys=9),
        ]
        total = ServingStats.aggregate(parts)
        assert (total.point_requests, total.batches, total.sheds) == (8, 2, 1)
        assert (total.max_queue_depth, total.max_batch_keys) == (7, 9)
        assert total.max_batch_requests == 0
        assert ServingStats.aggregate([]) == ServingStats()

    def test_perf_totals(self, tmp_path):
        server = _server(tmp_path, num_shards=2)
        low, high = server._shards  # noqa: SLF001
        low.db.stats.add(block_reads=3, filter_probes=10)
        high.db.stats.add(block_reads=4, filter_negatives=6)
        totals = server.perf_totals()
        assert (totals.block_reads, totals.filter_probes) == (7, 10)
        assert totals.filter_negatives == 6
        # High-water fields take the max across shards, not the sum.
        low.stats.observe_max("max_batch_requests", 3)
        high.stats.observe_max("max_batch_requests", 2)
        assert server.stats().max_batch_requests == 3
        server.close()


# ----------------------------------------------------------------------
# Coalescing, health, lifecycle
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_concurrent_points_coalesce_into_one_batch(self, tmp_path, rng):
        server = _server(tmp_path, num_shards=2)
        half = DOMAIN // 2
        data = {key: b"v-%d" % key for key in rng.sample(range(half), 400)}
        for key, value in data.items():
            server.put(key, value)
        server.flush()
        blocker = _wedge(server, 0)
        del server.shards[0].multi_get  # the wedge's stub: later batches are real
        lookups = rng.sample(sorted(data), 32) + rng.sample(range(half), 32)
        gets = [server.get_async(key) for key in lookups]
        spans = [(0, 2000), (5000, 5010), (half - 3000, half - 1)]
        scans = [server.range_query_async(lo, hi) for lo, hi in spans]
        blocker.release.set()
        for key, future in zip(lookups, gets):
            assert future.result(timeout=30) == data.get(key)
        for (lo, hi), future in zip(spans, scans):
            assert future.result(timeout=30) == sorted(
                (k, v) for k, v in data.items() if lo <= k <= hi
            )
        stats = server.stats()
        # The wedge's probe, then one multi_get for all 64.
        assert (stats.batches, stats.coalesced_requests) == (2, 64)
        assert stats.max_batch_requests == 67
        server.close()

    def test_range_only_batch_counts_toward_high_water(self, tmp_path):
        server = _server(tmp_path, num_shards=2)
        blocker = _wedge(server, 0)
        scans = [server.range_query_async(i, i + 9) for i in range(40)]
        blocker.release.set()
        assert all(future.result(timeout=30) == [] for future in scans)
        assert server.stats().max_batch_requests == 40
        server.close()

    def test_idle_shard_serves_each_blocking_get_alone(self, tmp_path):
        server = _server(tmp_path, num_shards=2)
        server.put(7, b"v")
        for _ in range(25):
            assert server.get_async(7).result() == b"v"
        stats = server.stats()
        assert (stats.batches, stats.coalesced_batches) == (25, 0)
        assert stats.max_batch_requests == 1
        server.close()

    def test_multi_threaded_clients_get_correct_answers(self, tmp_path, rng):
        server = _server(tmp_path)
        data = {}
        for key in rng.sample(range(DOMAIN), 1000):
            data[key] = b"mt-%d" % key
            server.put(key, data[key])
        server.flush()
        errors: list[BaseException] = []

        def client(seed: int) -> None:
            import random as _random

            local = _random.Random(seed)
            try:
                for _ in range(40):
                    keys = [local.randrange(DOMAIN) for _ in range(7)]
                    expected = {k: data.get(k) for k in keys}
                    assert server.multi_get_async(keys).result() == expected
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(seed,)) for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        server.close()


class TestHealthAndLifecycle:
    def test_health_reports_every_shard_and_queue(self, tmp_path, rng):
        server = _server(tmp_path)
        for key in rng.sample(range(DOMAIN), 200):
            server.put(key, b"h")
        server.flush()
        health = server.health()
        assert health.mode == "healthy"
        assert len(health.shards) == 4
        assert health.queue_depths == (0, 0, 0, 0)

    def test_serving_starts_no_thread(self, tmp_path, rng):
        """Every batch runs on a caller's thread: the server owns none."""
        before = threading.active_count()
        server = _server(tmp_path)
        assert threading.active_count() == before
        for key in rng.sample(range(DOMAIN), 300):
            server.put(key, b"t-%d" % key)
        server.flush()
        futures = [server.get_async(key) for key in range(0, DOMAIN, 997)]
        futures.append(server.multi_get_async(range(0, DOMAIN, 4099)))
        futures.append(server.range_query_async(0, DOMAIN - 1))
        for future in futures:
            future.result(timeout=30)
        assert threading.active_count() == before
        assert server.close() == []
        assert threading.active_count() == before

    def test_empty_multi_get(self, tmp_path):
        server = _server(tmp_path)
        assert server.multi_get_async([]).result() == {}
        server.close()

    def test_out_of_domain_key_raises_eagerly(self, tmp_path):
        server = _server(tmp_path)
        with pytest.raises(FilterQueryError):
            server.get_async(DOMAIN).result()
        with pytest.raises(FilterQueryError):
            server.range_query_async(5, 1).result()
        server.close()

    def test_close_semantics(self, tmp_path):
        server = _server(tmp_path)
        server.put(1, b"x")
        server.close()
        server.close()  # idempotent
        with pytest.raises(ClosedStoreError):
            server.get_async(1).result()
        with pytest.raises(ClosedStoreError):
            server.put(2, b"y")

    def test_context_manager_closes(self, tmp_path):
        with _server(tmp_path) as server:
            server.put(3, b"z")
            assert server.get_async(3).result() == b"z"
        with pytest.raises(ClosedStoreError):
            server.get_async(3).result()

    def test_reopen_preserves_data(self, tmp_path):
        with _server(tmp_path) as server:
            server.put(41, b"before")
            server.flush()
        with _server(tmp_path) as reopened:
            assert reopened.get_async(41).result() == b"before"
