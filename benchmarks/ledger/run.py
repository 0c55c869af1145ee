"""Layered performance ledger: one command, four workloads, one schema.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed N] [--seconds S]
                                     [--trace [0|1]] [--smoke] [--selftest] [--out DIR]

For each workload: build the store from a seeded dataset (timed: ``setup_s``),
reopen it cold, replay a fixed prefix of the seeded op stream (the count
metrics; it doubles as the warm-up), then replay the stream in fixed-size
slices for ``--seconds`` of measured time.  Every answer is checked against an
in-memory model after the clock stops.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--trace 1`` is a separate kind of run: it reports the per-layer metrics
(README.md lists them) from spans recorded around each layer's public
functions.  End-to-end metrics always come from an untraced run.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # a run must leave the checkout as it found it

import argparse
import faulthandler
import gc
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import threading
import time
import traceback
from collections import deque
from dataclasses import replace
from pathlib import Path

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy
    from repro.lsm.db import DB
    from repro.lsm.serving import ServingOptions, ShardedServer
except ImportError as exc:  # a directory without src/ is not a checkout
    sys.exit(f"ledger: the store under test is not importable from {ROOT / 'src'}: {exc}")

from calibrate import Calibrator  # noqa: E402
from model import GET, MULTI_GET, PUT, RANGE, Model, value_for  # noqa: E402
from trace import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SCHEMA_VERSION = 1
SETUP_REPEATS = 3          # setup_s is the median of this many full loads
SMOKE_DIVISOR = 5
LOAD_BATCH = 2_000         # puts between calibrator spins during set-up
OP_WALL_LIMIT_S = 20.0     # an op slower than this is a failed op
RUN_WALL_LIMIT_S = 170.0   # a hung run dies here, before the driver's 180 s
PHASE_SETUP, PHASE_WINDOW = 1, 2
OP_NAMES = {GET: "get", MULTI_GET: "multi_get", RANGE: "range_query", PUT: "put"}


class Failure:
    """What an op that raised 'returned'; never equal to a model answer."""

    def __init__(self, exc: BaseException) -> None:
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def declared_metrics() -> dict:
    """``BENCHMARK.json`` is the one place metric names and units live."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "run_seconds": spec["run_seconds"],
    }


# ----------------------------------------------------------------------
# Store handling: a DB, or a ShardedServer over two of them
# ----------------------------------------------------------------------
def open_store(workload: Workload, path: Path):
    if workload.clients == 1:
        return DB(str(path), workload.options())
    return ShardedServer(
        str(path), workload.options(), ServingOptions(num_shards=workload.clients)
    )


def shard_dbs(store) -> tuple:
    return store.shards if isinstance(store, ShardedServer) else (store,)


def perf(store):
    """One consistent PerfStats snapshot summed over the store's DBs."""
    if isinstance(store, ShardedServer):
        return store.perf_totals()
    return store.stats.snapshot()


def load(store, items: list[tuple[int, bytes]], calibrator: Calibrator) -> float:
    """The bulk write path, timed: put -> inline flush -> compaction ->
    filter build -> final flush()/wait_idle().  Returns seconds on the
    reference machine: the clock stops every LOAD_BATCH puts for a
    calibrator spin (see calibrate.py)."""
    now = time.perf_counter_ns
    put = store.put
    total_ns = 0.0
    before = calibrator.spin()
    for at in range(0, len(items), LOAD_BATCH):
        started = now()
        for key, value in items[at:at + LOAD_BATCH]:
            put(key, value)
        if at + LOAD_BATCH >= len(items):
            store.flush()
            store.wait_idle()
        took = now() - started
        after = calibrator.spin()
        total_ns += took * calibrator.scale(before, after)
        before = after
    return total_ns / 1e9


# ----------------------------------------------------------------------
# Clients (closed loop: the next op is sent when the previous one returns,
# or, on serve-mixed, when fewer than `in_flight` futures are outstanding)
# ----------------------------------------------------------------------
def direct_client(db: DB, ops: list, records: list) -> None:
    now = time.perf_counter_ns
    for kind, arg in ops:
        started = now()
        try:
            if kind == GET:
                got = db.get(arg)
            elif kind == RANGE:
                got = db.range_query(arg[0], arg[1])
            elif kind == MULTI_GET:
                got = db.multi_get(arg)
            else:
                got = db.put(arg[0], arg[1])
        except Exception as exc:  # the op failed; the run goes on and says so
            got = Failure(exc)
        records.append([kind, arg, got, started, now()])


def served_client(
    server: ShardedServer, ops: list, records: list, model: Model,
    in_flight: int, blocked_ns: list,
) -> None:
    now = time.perf_counter_ns
    pending: deque = deque()
    blocked = 0

    def settle() -> None:
        nonlocal blocked
        future, record = pending.popleft()
        waited_from = now()
        try:
            record[2] = future.result(timeout=OP_WALL_LIMIT_S)
        except Exception as exc:  # typed serving error, timeout, or store error
            record[2] = Failure(exc)
        done = now()
        blocked += done - waited_from
        if not record[4]:
            record[4] = done  # result() can return before the callback runs

    for kind, arg in ops:
        started = now()
        record = [kind, arg, None, started, 0]
        records.append(record)
        try:
            if kind == PUT:
                server.put(arg[0], arg[1])
                record[4] = now()
                model.record_put(arg[0], started, record[4])
                continue
            if kind == GET:
                future = server.get_async(arg)
            elif kind == MULTI_GET:
                future = server.multi_get_async(arg)
            else:
                future = server.range_query_async(arg[0], arg[1])
        except Exception as exc:
            record[2], record[4] = Failure(exc), now()
            continue
        future.add_done_callback(lambda _f, r=record: r.__setitem__(4, now()))
        pending.append((future, record))
        if len(pending) >= in_flight:
            settle()
    while pending:
        settle()
    blocked_ns.append(blocked)


def run_slice(store, workload: Workload, model: Model, chunks: list[list]) -> dict:
    """Run one slice (one chunk per client) and return its records and clocks."""
    records = [[] for _ in chunks]
    blocked_ns: list[int] = []
    started = time.perf_counter_ns()
    if workload.clients == 1:
        direct_client(store, chunks[0], records[0])
    else:
        threads = [
            threading.Thread(
                target=served_client, name=f"client-{index}",
                args=(store, chunk, records[index], model, workload.in_flight,
                      blocked_ns),
            )
            for index, chunk in enumerate(chunks)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if len(blocked_ns) != len(chunks):  # a client reports only on a clean exit
            raise RuntimeError("a client thread died; see its traceback above")
    wall_ns = time.perf_counter_ns() - started
    return {
        "records": [r for per_client in records for r in per_client],
        "wall_ns": wall_ns,
        "blocked_ns": sum(blocked_ns),
    }


class OpStream:
    """The seeded op stream, handed out a slice at a time (one chunk per
    client, each client from its own generator)."""

    def __init__(self, workload: Workload, model: Model, seed: int) -> None:
        self.workload, self.model = workload, model
        self.rngs = [
            random.Random(f"{seed}/ops/{client}") for client in range(workload.clients)
        ]

    def slice(self, ops_per_client: int) -> list[list]:
        return [
            self.workload.chunk(rng, self.model, ops_per_client, client)
            for client, rng in enumerate(self.rngs)
        ]


def measure_window(
    store, workload, model, stream, seconds: float, calibrator: Calibrator
) -> list[dict]:
    """Replay slices until ``seconds`` of measured time have passed.  The
    clock is stopped between slices, while the calibrator spins and the next
    slice is generated; each slice carries the scale that turns its times
    into reference-machine times."""
    gc.collect()
    gc.freeze()  # the loaded store is long-lived; keep gen-2 scans off it
    try:
        slices, measured_ns = [], 0
        before = calibrator.spin()
        while measured_ns < seconds * 1e9:
            chunks = stream.slice(workload.chunk_ops)
            slices.append(run_slice(store, workload, model, chunks))
            after = calibrator.spin()
            slices[-1]["scale"] = calibrator.scale(before, after)
            before = after
            measured_ns += slices[-1]["wall_ns"]
        return slices
    finally:
        gc.unfreeze()


def slice_rate(piece: dict) -> float:
    """Ops per reference-machine second of one slice."""
    return len(piece["records"]) / (piece["wall_ns"] * piece["scale"] / 1e9)


# ----------------------------------------------------------------------
# Checking and summarising
# ----------------------------------------------------------------------
def verify(model: Model, records: list) -> list[str]:
    """Every record the model rejects, as a printable line."""
    problems = []
    for kind, arg, got, started, done in records:
        slow = done - started > OP_WALL_LIMIT_S * 1e9
        if isinstance(got, Failure):
            problems.append(f"{OP_NAMES[kind]} {arg!r}: raised {got.text}")
        elif slow:
            problems.append(f"{OP_NAMES[kind]} {arg!r}: took {(done - started) / 1e9:.1f} s")
        elif not model.check(kind, arg, got, started, done):
            problems.append(f"{OP_NAMES[kind]} {arg!r}: wrong answer {got!r:.120}")
    return problems


def settle_and_check(store, model: Model, records: list) -> list[str]:
    """After the clock stops: flush, check every recorded answer, then sweep
    the whole store against the model's final state (full-scan iterator,
    which bypasses the filters)."""
    store.flush()
    store.wait_idle()
    problems = verify(model, records)
    found = [item for db in shard_dbs(store) for item in db.iterator()]
    if found != model.final_items():
        problems.append("final state differs from the model")
    return problems


def percentile(ordered: list, share: float):
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


def keys_touched(record: list) -> int:
    kind, arg, got = record[0], record[1], record[2]
    if kind == MULTI_GET:
        return len(arg)
    if kind == RANGE:
        return len(got) if isinstance(got, list) else 0
    return 1


def timing_metrics(slices: list[dict]) -> tuple[dict, dict]:
    records = [r for s in slices for r in s["records"]]
    latencies = sorted(
        (r[4] - r[3]) * s["scale"] / 1e3 for s in slices for r in s["records"]
    )
    wall_s = sum(s["wall_ns"] for s in slices) / 1e9
    metrics = {
        "ops_per_s": statistics.median(slice_rate(s) for s in slices),
        "lat_p50_us": percentile(latencies, 0.50),
        "lat_p90_us": percentile(latencies, 0.90),
    }
    diagnostics = {
        "ops": len(records),
        "slices": len(slices),
        "window_s": wall_s,
        "machine_speed": statistics.median(s["scale"] for s in slices),
        "latency_samples": len(latencies),
        "samples_beyond_p90": len(latencies) - int(len(latencies) * 0.90) - 1,
        "ops_per_s_raw": len(records) / wall_s,
        "keys_per_s_raw": sum(keys_touched(r) for r in records) / wall_s,
        "lat_p99_us": percentile(latencies, 0.99),
        "lat_max_us": latencies[-1],
    }
    return metrics, diagnostics


def space_amp(store, live_keys: int, workload: Workload) -> float:
    sst_bytes = sum(
        run.file_size
        for db in shard_dbs(store)
        for run in db.version.all_runs_newest_first()
    )
    return sst_bytes / (live_keys * workload.user_bytes_per_key)


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
class Run:
    """State of one run: the spec, the dataset, the work directory."""

    def __init__(self, name: str, seed: int, smoke: bool, work: Path) -> None:
        spec = WORKLOADS[name]
        # A private copy: op generation keeps state on the workload object.
        self.workload = spec.scaled(SMOKE_DIVISOR) if smoke else replace(spec)
        self.seed, self.smoke, self.work = seed, smoke, work
        keys = self.workload.dataset(random.Random(f"{seed}/data"))
        self.items = [(key, value_for(key)) for key in keys]
        self.model = Model(keys)
        self.workload.prepare(random.Random(f"{seed}/prepare"), self.model)
        self.stream = OpStream(self.workload, self.model, seed)
        self.calibrator = Calibrator()
        self.setups = 0

    def setup(self):
        """Load a fresh store; returns ``(store, path, seconds)``."""
        path = self.work / f"store-{self.setups}"
        self.setups += 1
        store = open_store(self.workload, path)
        return store, path, load(store, self.items, self.calibrator)

    def reopen_cold(self, store, path: Path):
        """Close and reopen: empty block cache, nothing deserialized."""
        store.close()
        return open_store(self.workload, path)

    def user_bytes(self, puts: int) -> int:
        return (len(self.items) + puts) * self.workload.user_bytes_per_key


def run_end_to_end(run: Run, seconds: float) -> dict:
    workload, model = run.workload, run.model
    setup_times = []
    store = path = None
    for _ in range(1 if run.smoke else SETUP_REPEATS):
        if store is not None:
            store.close()
            shutil.rmtree(path)
        store, path, took = run.setup()
        setup_times.append(took)
    setup_perf = perf(store)
    store = run.reopen_cold(store, path)
    try:
        before = perf(store)
        prefix = run_slice(store, workload, model, run.stream.slice(workload.prefix_ops))
        counted = len(prefix["records"])
        reads = perf(store).block_reads - before.block_reads
        slices = measure_window(
            store, workload, model, run.stream, seconds, run.calibrator
        )
        if workload.clients > 1:
            # Concurrent clients cannot repeat a count exactly anyway; take it
            # over the window too, so it spans many flush/compaction cycles.
            counted += sum(len(s["records"]) for s in slices)
            reads = perf(store).block_reads - before.block_reads

        records = prefix["records"] + [r for s in slices for r in s["records"]]
        problems = settle_and_check(store, model, records)
        puts = sum(1 for r in records if r[0] == PUT)
        bytes_written = setup_perf.bytes_written + perf(store).bytes_written
        metrics, diagnostics = timing_metrics(slices)
        metrics.update(
            setup_s=statistics.median(setup_times),
            read_blocks_per_op=reads / counted,
            write_amp=bytes_written / run.user_bytes(puts),
            space_amp=space_amp(store, len(run.items) + puts, workload),
        )
        diagnostics.update(
            setup_s_all=setup_times,
            prefix_ops=len(prefix["records"]),
            block_reads_counted=reads,
            block_reads_over_ops=counted,
            puts=puts,
            sst_files=sum(db.num_live_files() for db in shard_dbs(store)),
            tree=[db.version.describe() for db in shard_dbs(store)],
        )
    finally:
        store.close()
    return {
        "metrics": metrics,
        "diagnostics": diagnostics,
        "attempted": len(records) + 1,  # + the final-state sweep
        "problems": problems,
        "raw": {
            "slices": [
                {"scale": s["scale"], "wall_ns": s["wall_ns"],
                 "latencies_ns": [r[4] - r[3] for r in s["records"]]}
                for s in slices
            ],
            "calibrator_ns": run.calibrator.samples,
        },
    }


def layer_metrics(
    run: Run, tracer: Tracer, traced: list[dict], untraced: list[dict],
    store, window: dict, serving,
) -> tuple[dict, dict]:
    """Per-layer metrics of the traced window (plus set-up spans for the
    write-path rows, which read-only windows never exercise).  Window times
    are on the reference machine; durations that include set-up or come from
    PerfStats stopwatches (``maint.*_s``, ``wal.us_per_put``,
    ``filter.perfstats_us_per_op``) are raw clock time."""
    workload = run.workload
    records = [r for s in traced for r in s["records"]]
    ops = len(records)
    by_class = {name: 0 for name in OP_NAMES.values()}
    for record in records:
        by_class[OP_NAMES[record[0]]] += 1
    summary = tracer.summarize(PHASE_WINDOW)
    setup = tracer.summarize(PHASE_SETUP)
    self_ns = summary["self_ns"]
    wall_ns = sum(s["wall_ns"] for s in traced)
    # Spans are raw clock readings; one factor (the window's time-weighted
    # scale) puts the whole table on the reference machine, sums intact.
    to_us = sum(s["wall_ns"] * s["scale"] for s in traced) / wall_ns / 1e3

    def layer_us(layer: str, op_class: str | None = None) -> float:
        row = self_ns.get(layer, {})
        if op_class is None:
            return sum(row.values()) * to_us / ops
        return row.get(op_class, 0) * to_us / max(by_class[op_class], 1)

    client_threads = [t for t in summary["root_ns"] if not t.startswith("serving-")]
    client_root_ns = sum(summary["root_ns"][t] for t in client_threads)
    blocked_ns = sum(s["blocked_ns"] for s in traced)
    unattributed_ns = wall_ns * workload.clients - client_root_ns - blocked_ns
    layers_ns = sum(sum(row.values()) for row in self_ns.values())
    if workload.clients == 1:
        e2e_ns = wall_ns
        wait_ns = 0
    else:
        # Client latency against aggregate worker-thread layer time: what is
        # left after every thread's layer time is the time requests waited.
        e2e_ns = sum(r[4] - r[3] for r in records)
        wait_ns = e2e_ns - layers_ns - unattributed_ns

    span_ns, span_count = summary["span_ns"], summary["span_count"]
    setup_ns, setup_count = setup["span_ns"], setup["span_count"]
    wal_spans = ("WriteAheadLog.append_put", "WriteAheadLog.append_delete",
                 "WriteAheadLog.append_batch")
    wal_ns = sum(span_ns.get(n, 0) + setup_ns.get(n, 0) for n in wal_spans)
    all_puts = len(run.items) + by_class["put"]
    probes = window["filter_probes"]
    rejectable = window["filter_negatives"] + window["filter_false_positives"]
    cache_lookups = window["block_cache_hits"] + window["block_cache_misses"]
    filter_bits = sum(
        8 * len(r.reader.filter_block_bytes())
        for db in shard_dbs(store) for r in db.version.all_runs_newest_first()
    )
    filter_keys = sum(
        r.reader.meta.num_entries
        for db in shard_dbs(store) for r in db.version.all_runs_newest_first()
    )
    counters = tracer.counters
    untraced_rate = statistics.median(slice_rate(s) for s in untraced)
    traced_rate = statistics.median(slice_rate(s) for s in traced)

    metrics = {
        "e2e.traced_us_per_op": e2e_ns * to_us / ops,
        "serving.self_us_per_op": layer_us("serving"),
        "serving.wait_us_per_op": wait_ns * to_us / ops,
        "serving.keys_per_batch": (
            serving.batched_keys / serving.batches if serving and serving.batches else 0.0
        ),
        "serving.coalesced_share": (
            serving.coalesced_requests / (serving.point_requests + serving.multi_requests)
            if serving and serving.point_requests + serving.multi_requests else 0.0
        ),
        "serving.max_queue_depth": serving.max_queue_depth if serving else 0,
        "serving.sheds": serving.sheds if serving else 0,
        "serving.deadline_misses": serving.deadline_misses if serving else 0,
        "db.get.self_us_per_op": layer_us("db", "get"),
        "db.multi_get.self_us_per_op": layer_us("db", "multi_get"),
        "db.range_query.self_us_per_op": layer_us("db", "range_query"),
        "db.put.self_us_per_op": layer_us("db", "put"),
        "db.self_us_per_op": layer_us("db"),
        "fence.runs_per_op": counters["fence.runs"] / ops,
        "memtable.us_per_op": layer_us("memtable"),
        "memtable.hits_per_op": counters["memtable.hits"] / ops,
        "filter.us_per_op": layer_us("filter"),
        "filter.perfstats_us_per_op": window["filter_probe_ns"] / 1e3 / ops,
        "filter.probes_per_op": probes / ops,
        "filter.bloom_probes_per_op": tracer.bloom_probes() / ops,
        "filter.negative_share": window["filter_negatives"] / probes if probes else 0.0,
        "filter.fpr": window["filter_false_positives"] / rejectable if rejectable else 0.0,
        "filter.bits_per_key": filter_bits / filter_keys,
        "block.us_per_op": layer_us("block"),
        "block.cache_hit_rate": (
            window["block_cache_hits"] / cache_lookups if cache_lookups else 0.0
        ),
        "block.evictions": counters["block.evictions"],
        "block.decodes_per_op": span_count.get("sstable.decode_data_block", 0) / ops,
        "merge.us_per_op": layer_us("merge"),
        "merge.iterators_per_op": (
            counters["merge.iterators"] / max(by_class["range_query"], 1)
        ),
        "logdev.us_per_op": layer_us("log_device"),
        "wal.us_per_put": wal_ns / 1e3 / all_puts,
        "wal.bytes_per_user_byte": counters["wal.bytes"] / run.user_bytes(by_class["put"]),
        "env.syncs": (
            span_count.get("StorageEnv.sync_file", 0)
            + setup_count.get("StorageEnv.sync_file", 0)
        ),
        "maint.us_per_op": layer_us("maint"),
        "maint.time_s": (
            span_ns.get("InlineScheduler.submit", 0)
            + setup_ns.get("InlineScheduler.submit", 0)
        ) / 1e9,
        "maint.bytes_rewritten": window["compaction_bytes_written"],
        "maint.filter_build_s": window["filter_construction_ns"] / 1e9,
        "maint.flushes": window["flushes"],
        "maint.compactions": window["compactions"],
        "maint.stall_s": window["write_stall_time_ns"] / 1e9,
        "unattributed.us_per_op": unattributed_ns * to_us / ops,
        "trace.overhead": traced_rate / untraced_rate,
    }
    table = {
        "columns": ["all"] + [c for c in by_class if by_class[c]],
        "ops": {"all": ops, **by_class},
        "rows": {
            layer: {"all": layer_us(layer),
                    **{c: layer_us(layer, c) for c in by_class if by_class[c]}}
            for layer in LAYERS
        },
        "serving.wait": wait_ns * to_us / ops,
        "unattributed": unattributed_ns * to_us / ops,
        "end_to_end": e2e_ns * to_us / ops,
        "rows_sum": (layers_ns + wait_ns + unattributed_ns) * to_us / ops,
        "spans": {
            name: {"count": span_count[name], "inclusive_us": span_ns[name] / 1e3}
            for name in sorted(span_count)
        },
    }
    return metrics, table


def run_traced(run: Run, seconds: float) -> dict:
    """Setup traced, a third of the window untraced (the overhead reference),
    the rest traced.  Maintenance counts cover setup + both windows: the
    read-only windows do no maintenance at all."""
    workload, model = run.workload, run.model
    tracer = Tracer()
    tracer.phase = PHASE_SETUP
    tracer.install()
    try:
        store, path, _ = run.setup()
    finally:
        tracer.uninstall()
    setup_perf = perf(store)
    store = run.reopen_cold(store, path)
    try:
        prefix = run_slice(store, workload, model, run.stream.slice(workload.prefix_ops))
        untraced = measure_window(
            store, workload, model, run.stream, seconds / 3, run.calibrator
        )
        before = perf(store)
        tracer.phase = PHASE_WINDOW
        tracer.install()
        try:
            traced = measure_window(
                store, workload, model, run.stream, seconds * 2 / 3, run.calibrator
            )
        finally:
            tracer.uninstall()
        after = perf(store)
        window = {
            name: getattr(after, name) - getattr(before, name)
            for name in ("filter_probes", "filter_negatives", "filter_false_positives",
                         "filter_probe_ns", "block_cache_hits", "block_cache_misses")
        }
        for name in ("compaction_bytes_written", "filter_construction_ns", "flushes",
                     "compactions", "write_stall_time_ns"):
            window[name] = getattr(setup_perf, name) + getattr(after, name)
        serving = store.stats() if isinstance(store, ShardedServer) else None
        records = (prefix["records"]
                   + [r for s in untraced + traced for r in s["records"]])
        problems = settle_and_check(store, model, records)
        metrics, table = layer_metrics(
            run, tracer, traced, untraced, store, window, serving
        )
    finally:
        store.close()
    return {
        "metrics": metrics,
        "diagnostics": {"layer_table": table},
        "attempted": len(records) + 1,
        "problems": problems,
        "raw": {
            "span_fields": list(Tracer.SPAN_FIELDS),
            "span_names": tracer.names,
            "threads": [
                {"thread": name, "spans": spans} for name, spans in tracer.threads()
            ],
        },
    }


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # the driver's checkout is not a git repository
    return done.stdout.strip()


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool,
    out: Path | None,
) -> dict:
    """Run one workload and return its result envelope."""
    declared = declared_metrics()
    work = LEDGER / ".work" / f"{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(name, seed, smoke, work)
        result = (run_traced if trace else run_end_to_end)(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    units = declared["per_layer" if trace else "end_to_end"]
    missing = set(units) ^ set(result["metrics"])
    if missing:
        raise SystemExit(f"ledger: metrics out of step with BENCHMARK.json: {sorted(missing)}")
    failed = len(result["problems"])
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "workload": name,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "trace": trace,
        "op_counts": {
            "keys_loaded": len(run.items),
            "prefix_ops": run.workload.prefix_ops * run.workload.clients,
            "slice_ops": run.workload.chunk_ops * run.workload.clients,
        },
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "failed_share": failed / result["attempted"],
        "problems": result["problems"][:20],
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in result["metrics"].items()
        },
        "diagnostics": result["diagnostics"],
    }
    if out is not None:
        (out / "raw").mkdir(parents=True, exist_ok=True)
        stem = f"{name}.trace" if trace else name
        (out / f"{stem}.json").write_text(json.dumps(envelope, indent=1) + "\n")
        (out / "raw" / f"{stem}.json").write_text(json.dumps(result["raw"]) + "\n")
    return envelope


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_report(envelope: dict) -> None:
    kind = "traced" if envelope["trace"] else "end-to-end"
    print(f"== {envelope['workload']} ({kind}, seed {envelope['seed']}, "
          f"{envelope['seconds']} s{', smoke' if envelope['smoke'] else ''}) ==")
    for metric, entry in envelope["metrics"].items():
        print(f"  {metric:<32} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'failed_share':<32} {envelope['failed_share']:>16.6g} ratio "
          f"({envelope['failed']} of {envelope['attempted']})")
    diagnostics = dict(envelope["diagnostics"])
    table = diagnostics.pop("layer_table", None)
    for label, value in diagnostics.items():
        if label != "tree":
            print(f"  [{label}] {value}")
    if table:
        columns = table["columns"]
        counts = ", ".join(f"{c}: {table['ops'][c]} ops" for c in columns)
        print(f"  layer table, us per op  ({counts})")
        print("    " + f"{'layer':<14}" + "".join(f"{c:>14}" for c in columns))
        for layer, row in table["rows"].items():
            print("    " + f"{layer:<14}" + "".join(f"{row[c]:>14.2f}" for c in columns))
        for label in ("serving.wait", "unattributed", "rows_sum", "end_to_end"):
            print("    " + f"{label:<14}{table[label]:>14.2f}")
    for problem in envelope["problems"]:
        print(f"  PROBLEM {problem}")


def last_line(envelopes: list[dict]) -> str:
    single = len(envelopes) == 1
    metrics = {
        (metric if single else f"{e['workload']}/{metric}"): entry
        for e in envelopes for metric, entry in e["metrics"].items()
    }
    return json.dumps({
        "correct": all(e["correct"] for e in envelopes),
        "attempted": sum(e["attempted"] for e in envelopes),
        "failed": sum(e["failed"] for e in envelopes),
        "metrics": metrics,
    })


# ----------------------------------------------------------------------
# Self-test (CI-sized; a later PR can wire it into the workflow)
# ----------------------------------------------------------------------
COUNT_METRICS = ("read_blocks_per_op", "write_amp", "space_amp")


def selftest(seed: int) -> int:
    """Checks the benchmark itself on the three single-client workloads, at
    smoke size: count metrics repeat exactly across two in-process runs, the
    traced layer rows sum to the traced end-to-end time within 5 %, and a
    corrupted model answer is caught by the oracle."""
    failures = []
    work = LEDGER / ".work" / f"{os.getpid()}-selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name in ("range-empty", "point-zipf", "scan-wide"):
            counts = []
            for attempt in range(2):
                run = Run(name, seed, True, work / f"{name}-{attempt}")
                result = run_end_to_end(run, 0.5)
                counts.append([result["metrics"][m] for m in COUNT_METRICS])
                failures += [f"{name}: {p}" for p in result["problems"]]
            if counts[0] != counts[1]:
                failures.append(f"{name}: count metrics differ: {counts}")
            traced = run_traced(Run(name, seed, True, work / f"{name}-traced"), 1.5)
            table = traced["diagnostics"]["layer_table"]
            gap = abs(table["rows_sum"] - table["end_to_end"]) / table["end_to_end"]
            if gap > 0.05:
                failures.append(f"{name}: layer rows miss end-to-end time by {gap:.1%}")
            print(f"selftest {name}: counts {counts[0]} repeat={counts[0] == counts[1]}, "
                  f"layer rows {table['rows_sum']:.2f} vs {table['end_to_end']:.2f} us/op")

        run = Run("point-zipf", seed, True, work / "corrupt")
        store, _, _ = run.setup()
        try:
            records = run_slice(store, run.workload, run.model, run.stream.slice(200))["records"]
        finally:
            store.close()
        clean = verify(run.model, records)
        hit = next(r for r in records if r[0] == GET and r[2] is not None)
        run.model.values[hit[1]] = b"not what the store holds"
        caught = verify(run.model, records)
        if clean or not caught:
            failures.append(f"oracle: clean={clean[:1]} corrupted={caught[:1]}")
        print(f"selftest oracle: corrupted model answer caught={bool(caught)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"SELFTEST FAILED {failure}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest(args.seed)
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(declared_metrics()["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    envelopes = []
    for name in names:
        # A hung store must not hang the caller: die loudly instead.
        faulthandler.dump_traceback_later(RUN_WALL_LIMIT_S, exit=True)
        try:
            envelopes.append(
                run_workload(name, args.seed, seconds, bool(args.trace), args.smoke, args.out)
            )
        finally:
            faulthandler.cancel_dump_traceback_later()
        print_report(envelopes[-1])
    print(last_line(envelopes))
    return 0 if all(e["correct"] for e in envelopes) else 1


if __name__ == "__main__":
    sys.exit(main())
