"""Standalone filter measurement harness (outside the LSM store).

Reproduces the paper's isolated-filter experiments (Fig. 4, 7, 9, 10):
given a filter recipe, a key set, and a query workload, measure

* construction latency,
* memory actually used (bits/key),
* false positive rate (all workload queries target empty ranges/keys, so
  every positive is false),
* probe latency and internal probe counts.

For the memory-hierarchy experiment (Fig. 9) the harness converts FPR into
end-to-end latency with a device model: every false positive costs one
wasted device read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import WorkloadError
from repro.filters.base import KeyFilter
from repro.lsm.env import DEVICE_PRESETS, DeviceModel
from repro.workloads.ycsb import Workload

__all__ = ["FilterMeasurement", "measure_filter", "end_to_end_latency_model"]


@dataclass
class FilterMeasurement:
    """Everything the standalone figures report for one (filter, workload)."""

    filter_name: str
    num_keys: int
    bits_per_key: float
    construction_seconds: float
    queries: int
    positives: int
    probe_seconds: float
    internal_probes: int
    metadata: dict = field(default_factory=dict)

    @property
    def fpr(self) -> float:
        """False positive rate (workloads are all-empty by construction)."""
        if self.queries == 0:
            return 0.0
        return self.positives / self.queries

    @property
    def probe_micros_per_query(self) -> float:
        """Mean probe latency in microseconds."""
        if self.queries == 0:
            return 0.0
        return self.probe_seconds * 1e6 / self.queries

    @property
    def probes_per_query(self) -> float:
        """Mean internal probe count (Bloom probes / trie node accesses)."""
        if self.queries == 0:
            return 0.0
        return self.internal_probes / self.queries


def measure_filter(
    build: Callable[[Sequence[int]], KeyFilter],
    keys: Sequence[int],
    workload: Workload,
    name: str | None = None,
) -> FilterMeasurement:
    """Build a filter over ``keys`` and drive ``workload`` through it.

    ``workload`` must contain only empty queries (the standard filter
    evaluation setting); every positive verdict is counted as a false
    positive.
    """
    keys = list(keys)
    start = time.perf_counter()
    filt = build(keys)
    construction_seconds = time.perf_counter() - start

    filt.reset_probe_count()
    positives = 0
    start = time.perf_counter()
    for query in workload:
        if query.kind == "point":
            positives += filt.may_contain(query.low)
        else:
            positives += filt.may_contain_range(query.low, query.high)
    probe_seconds = time.perf_counter() - start

    return FilterMeasurement(
        filter_name=name if name is not None else filt.name,
        num_keys=len(set(keys)),
        bits_per_key=filt.size_in_bits() / max(1, len(set(keys))),
        construction_seconds=construction_seconds,
        queries=len(workload),
        positives=positives,
        probe_seconds=probe_seconds,
        internal_probes=filt.probe_count(),
        metadata=dict(workload.metadata),
    )


def end_to_end_latency_model(
    measurement: FilterMeasurement,
    device: str | DeviceModel = "ssd",
    wasted_read_bytes: int = 4096,
    reads_per_false_positive: int = 1,
) -> dict[str, float]:
    """Fig. 9's latency decomposition: probe CPU + FPR-induced device reads.

    In the standalone setting, end-to-end latency per query is the filter
    probe cost plus (FPR x the cost of the wasted device reads a false
    positive triggers).  Returns per-query microseconds: ``probe_us``,
    ``io_us``, and ``total_us``.
    """
    if isinstance(device, str):
        try:
            device = DEVICE_PRESETS[device]
        except KeyError:
            raise WorkloadError(f"unknown device {device!r}") from None
    io_ns_per_fp = reads_per_false_positive * device.block_read_ns(wasted_read_bytes)
    io_us = measurement.fpr * io_ns_per_fp / 1000.0
    probe_us = measurement.probe_micros_per_query
    return {
        "probe_us": probe_us,
        "io_us": io_us,
        "total_us": probe_us + io_us,
        "device": device.name,
    }
