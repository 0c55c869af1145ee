"""Span tracer installed from the benchmark's side, at run time.

``Tracer.install()`` replaces the public functions at each layer boundary
with timing wrappers; ``uninstall()`` puts the originals back.  Nothing under
``src/`` knows it is being traced.  Spans live in per-thread lists in memory
and are written out by the caller when the run ends.

A span records name, start, end, self time (duration minus the part its
child spans cover), the id of the span that caused it, and the op (root
span) it belongs to.  Generators are timed per resume: each ``next()`` on a
wrapped generator is one span, so consumer time between resumes is never
charged to the producer.

Attribution rule: a span belongs to the layer of its own name, except that
everything running under a maintenance span (inline flush/compaction) is
charged to ``maint`` - a compaction's block reads are maintenance cost, not
read-path cost.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from repro.filters.rosetta_adapter import RosettaFilter
from repro.lsm import db as db_module
from repro.lsm import sstable as sstable_module
from repro.lsm.block_cache import BlockCache
from repro.lsm.compaction import Compactor
from repro.lsm.db import DB
from repro.lsm.env import StorageEnv
from repro.lsm.filter_integration import FilterDictionary
from repro.lsm.iterators import MergingIterator
from repro.lsm.memtable import MemTable
from repro.lsm.scheduler import InlineScheduler
from repro.lsm.serving import ShardedServer
from repro.lsm.sstable import SSTReader, SSTWriter
from repro.lsm.version import Version
from repro.lsm.wal import WriteAheadLog

__all__ = ["LAYERS", "OP_CLASSES", "Tracer"]

# How a wrapped callable is timed.
CALL = "call"            # plain function: one span per call
GEN = "gen"              # generator function: one span per resume
CALL_THEN_GEN = "both"   # eager part is a span, then the returned iterator per resume

#: layer -> [(owner, attribute, mode)].  Module owners patch the name in the
#: namespace that *uses* it (``from x import f`` binds a private copy).
LAYERS: dict[str, list[tuple[object, str, str]]] = {
    "serving": [
        (ShardedServer, "get_async", CALL),
        (ShardedServer, "multi_get_async", CALL),
        (ShardedServer, "range_query_async", CALL),
        (ShardedServer, "put", CALL),
    ],
    "db": [
        (DB, "get", CALL),
        (DB, "multi_get", CALL),
        (DB, "range_query", CALL),
        (DB, "range_iter", CALL_THEN_GEN),
        (DB, "put", CALL),
        (DB, "flush", CALL),
        (Version, "runs_for_range", CALL),
    ],
    "memtable": [
        (MemTable, "get", CALL),
        (MemTable, "put", CALL),
        (MemTable, "entries_from", GEN),
    ],
    "filter": [
        (FilterDictionary, "get_filter", CALL),
        (db_module, "batched_point_verdicts", CALL),
        (db_module, "batched_tightened_ranges", CALL),
        (RosettaFilter, "may_contain", CALL),
        (RosettaFilter, "may_contain_batch", CALL),
        (RosettaFilter, "may_contain_range", CALL),
        (RosettaFilter, "tightened_range", CALL),
    ],
    "block": [
        (SSTReader, "get", CALL),
        (SSTReader, "iterate_from", GEN),
        (BlockCache, "get", CALL),
        (BlockCache, "put", CALL),
        (sstable_module, "decode_data_block", CALL),
    ],
    "merge": [
        (MergingIterator, "__init__", CALL),
        (MergingIterator, "__iter__", GEN),
        (db_module, "live_entries", GEN),
    ],
    "log_device": [
        (WriteAheadLog, "append_put", CALL),
        (WriteAheadLog, "append_delete", CALL),
        (WriteAheadLog, "append_batch", CALL),
        (StorageEnv, "read_block", CALL),
        (StorageEnv, "append_file", CALL),
        (StorageEnv, "sync_file", CALL),
        (StorageEnv, "write_file", CALL),
    ],
    "maint": [
        (InlineScheduler, "submit", CALL),
        (Compactor, "execute", CALL),
        (SSTWriter, "finish", CALL),
    ],
}

#: Root span name -> op class.  Worker-side ``DB.multi_get`` serves coalesced
#: gets as well; linking it back to the client request that caused it needs a
#: trace id inside serving.py and is a later issue.
OP_CLASSES = {
    "DB.get": "get",
    "DB.multi_get": "multi_get",
    "DB.range_query": "range_query",
    "DB.range_iter": "range_query",
    "DB.put": "put",
    "ShardedServer.get_async": "get",
    "ShardedServer.multi_get_async": "multi_get",
    "ShardedServer.range_query_async": "range_query",
    "ShardedServer.put": "put",
}


def _span_name(owner: object, attribute: str) -> str:
    return f"{getattr(owner, '__name__', owner).rsplit('.', 1)[-1]}.{attribute}"


class _ThreadState:
    __slots__ = ("stack", "spans", "roots", "maint", "thread")

    def __init__(self) -> None:
        self.stack: list[list] = []   # open frames, innermost last
        self.spans: list[tuple] = []  # closed spans, see Tracer.SPAN_FIELDS
        self.roots = 0                # spans opened on an empty stack (= ops)
        self.maint = 0                # open maintenance spans
        self.thread = threading.current_thread().name


class Tracer:
    """Installs the wrappers, holds the spans, sums them by layer."""

    SPAN_FIELDS = (
        "name", "start_ns", "end_ns", "self_ns", "span", "parent", "op",
        "root", "phase", "in_maint",
    )

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.phase = 0                      # caller-defined tag stamped on spans
        self.counters: dict[str, int] = defaultdict(int)
        self.filters_seen: dict[int, object] = {}
        self._states: list[_ThreadState] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for owner, attribute, mode in targets:
                name = _span_name(owner, attribute)
                if name not in self.names:
                    self.names.append(name)
                    self.layer_of.append(layer)
                original = getattr(owner, attribute)
                self._originals.append((owner, attribute, original))
                wrapped = self._wrap(
                    original, self.names.index(name), mode, layer == "maint"
                )
                setattr(owner, attribute, self._with_counts(name, wrapped))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def _state(self) -> _ThreadState:
        """First span on this thread: give the thread its span list."""
        state = self._local.state = _ThreadState()
        with self._lock:
            self._states.append(state)
        return state

    def _timed(self, fn, name_id: int, is_maint: bool):
        """``fn`` with one span recorded around every call."""
        now = time.perf_counter_ns
        local, new_state = self._local, self._state

        def call(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            if stack:
                root = stack[-1][2]
            else:
                state.roots += 1
                root = name_id
            # [child time, span id, root name]; ids count spans opened so far
            frame = [0, len(state.spans) + len(stack), root]
            stack.append(frame)
            if is_maint:
                state.maint += 1
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - start
                parent = -1
                if stack:
                    above = stack[-1]
                    above[0] += duration
                    parent = above[1]
                state.spans.append((
                    name_id, start, end, duration - frame[0], frame[1], parent,
                    state.roots, root, self.phase, state.maint > 0,
                ))
                if is_maint:
                    state.maint -= 1

        return call

    def _wrap(self, fn, name_id: int, mode: str, is_maint: bool):
        call = self._timed(fn, name_id, is_maint)
        step = self._timed(next, name_id, is_maint)
        done = object()

        def resumes(iterator):
            try:
                while True:
                    item = step(iterator, done)
                    if item is done:
                        return
                    yield item
            finally:
                close = getattr(iterator, "close", None)
                if close is not None:
                    close()

        if mode == CALL:
            wrapper = call
        elif mode == GEN:
            def wrapper(*args, **kwargs):
                return resumes(fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                return resumes(call(*args, **kwargs))
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # Counts taken at the same boundaries as the spans
    # ------------------------------------------------------------------
    def _with_counts(self, name: str, wrapped):
        """Add the few counts no public stats object carries."""
        counters = self.counters
        if name in ("DB.get", "DB.multi_get", "DB.range_query"):
            # QueryContext is per query and public; the DB publishes the one
            # of the query that just finished on this thread as last_query.
            def counted(db, *args, **kwargs):
                result = wrapped(db, *args, **kwargs)
                context = db.last_query
                counters["fence.runs"] += context.runs_considered
                counters["memtable.hits"] += (
                    context.memtable_hits + context.memtable_hit
                )
                if context.kind == "range":
                    counters["merge.iterators"] += context.iterators_created
                return result
        elif name == "BlockCache.put":
            def counted(cache, *args, **kwargs):
                before = len(cache)
                wrapped(cache, *args, **kwargs)
                counters["block.evictions"] += max(0, before + 1 - len(cache))
        elif name == "StorageEnv.append_file":
            def counted(env, file_name, payload):
                counters["wal.bytes"] += len(payload)
                return wrapped(env, file_name, payload)
        elif name == "FilterDictionary.get_filter":
            seen = self.filters_seen

            def counted(*args, **kwargs):
                filt = wrapped(*args, **kwargs)
                if filt is not None:
                    seen[id(filt)] = filt   # keeps it alive, so ids stay unique
                return filt
        else:
            return wrapped
        counted.__wrapped__ = wrapped
        return counted

    def bloom_probes(self) -> int:
        """Bloom-filter probes issued by every filter the run touched
        (``ProbeStats.bloom_probes`` through the public ``probe_count``)."""
        return sum(filt.probe_count() for filt in self.filters_seen.values())

    # ------------------------------------------------------------------
    # Reading the spans back
    # ------------------------------------------------------------------
    def threads(self) -> list[tuple[str, list[tuple]]]:
        with self._lock:
            return [(state.thread, state.spans) for state in self._states]

    def summarize(self, phase: int) -> dict:
        """Sum one phase's spans.

        Returns ``self_ns[layer][op class]``, inclusive ``span_ns[name]`` and
        ``span_count[name]``, and ``root_ns`` / ``roots`` per thread name.
        """
        self_ns: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        span_ns: dict[str, int] = defaultdict(int)
        span_count: dict[str, int] = defaultdict(int)
        root_ns: dict[str, int] = defaultdict(int)
        roots: dict[str, int] = defaultdict(int)
        names, layer_of = self.names, self.layer_of
        for thread, spans in self.threads():
            for (name_id, start, end, own, _span, parent, _op, root,
                 span_phase, in_maint) in spans:
                if span_phase != phase:
                    continue
                name = names[name_id]
                layer = "maint" if in_maint else layer_of[name_id]
                op_class = OP_CLASSES.get(names[root], "other")
                self_ns[layer][op_class] += own
                span_ns[name] += end - start
                span_count[name] += 1
                if parent < 0:
                    root_ns[thread] += end - start
                    roots[thread] += 1
        return {
            "self_ns": {k: dict(v) for k, v in self_ns.items()},
            "span_ns": dict(span_ns),
            "span_count": dict(span_count),
            "root_ns": dict(root_ns),
            "roots": dict(roots),
        }
