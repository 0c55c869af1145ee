"""Experiment registry: one parameterised function per paper figure.

Every function returns ``(headers, rows)`` ready for
:func:`repro.bench.report.format_table`; the ``benchmarks/`` suite and the
``repro-bench`` CLI both dispatch here.  Scales default to laptop-friendly
sizes and grow via :class:`Scale` (or the ``REPRO_SCALE`` environment
variable: a multiplier applied to key and query counts).

Figure-to-function map
----------------------
========  =======================================
Fig. 4    :func:`fig4_allocation`
Fig. 5    :func:`fig5_endtoend` (+ ``workload=`` variants for B/C/D)
Fig. 6    :func:`fig6_construction`, :func:`fig6_write_cost`
Fig. 7    :func:`fig7_point_queries`
Fig. 8    :func:`fig8_tradeoff`, :func:`decision_map`
Fig. 9    :func:`fig9_memory_hierarchy`
Fig. 10   :func:`fig10_strings`
Fig. 11   :func:`fig8_tradeoff` with small ``range_size``
Fig. 1    :func:`decision_map` (the positioning summary)
§3        :func:`theory_validation`
========  =======================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.bench.endtoend import run_workload, scratch_db
from repro.bench.factories import make_factory
from repro.bench.harness import end_to_end_latency_model, measure_filter
from repro.core import analysis
from repro.core.bloom import fpr_for_bits
from repro.core.rosetta import Rosetta
from repro.filters.surf.surf import SuRF
from repro.lsm.options import DBOptions
from repro.workloads.keygen import generate_dataset
from repro.workloads.strings import StringKeyCodec, generate_wex_titles
from repro.workloads.ycsb import WorkloadBuilder

__all__ = [
    "Scale",
    "fig4_allocation",
    "fig5_endtoend",
    "fig6_construction",
    "fig6_write_cost",
    "fig7_point_queries",
    "fig8_tradeoff",
    "decision_map",
    "fig9_memory_hierarchy",
    "fig10_strings",
    "theory_validation",
    "extension_correlation_offsets",
]

_KEY_BITS = 64


def _scale_multiplier() -> float:
    return float(os.environ.get("REPRO_SCALE", "1"))


@dataclass(frozen=True)
class Scale:
    """Experiment sizing (defaults are paper-shape, laptop-size)."""

    num_keys: int = 20_000
    num_queries: int = 300
    value_size: int = 64

    @classmethod
    def default(cls) -> "Scale":
        mult = _scale_multiplier()
        return cls(
            num_keys=int(20_000 * mult),
            num_queries=int(300 * mult),
        )


def _small_db_options(device: str = "ssd-scaled") -> DBOptions:
    """Scaled-down analogue of the paper's RocksDB config.

    Defaults to the inflation-scaled SSD model so false positives carry an
    I/O penalty whose ratio to (Python) CPU matches the paper's testbed —
    see ``repro.lsm.env.PYTHON_CPU_INFLATION``.
    """
    return DBOptions(
        key_bits=_KEY_BITS,
        memtable_size_bytes=64 << 10,
        sst_size_bytes=256 << 10,
        max_bytes_for_level_base=1 << 20,
        level0_file_num_compaction_trigger=3,
        device=device,
    )


# ======================================================================
# Fig. 4 — bits-allocation mechanisms vs range size
# ======================================================================

def fig4_allocation(
    scale: Scale | None = None,
    bits_per_key: float = 10.0,
    range_sizes: tuple[int, ...] = (2, 8, 32, 128, 512),
    strategies: tuple[str, ...] = ("optimized", "single", "variable"),
):
    """FPR and probe cost of the §2.3/2.4 allocation mechanisms.

    The paper's turning points: single-level has the best FPR but probe
    cost linear in the range size (diverging from ~32); variable-level
    overtakes the original (Eq. 3) mechanism's FPR from range ~32.
    """
    scale = scale or Scale.default()
    dataset = generate_dataset(scale.num_keys, _KEY_BITS, seed=41)
    keys = [int(k) for k in dataset.keys]
    builder = WorkloadBuilder(keys, _KEY_BITS, seed=42)

    rows = []
    for range_size in range_sizes:
        workload = builder.empty_range_queries(scale.num_queries, range_size)
        for strategy in strategies:
            factory = make_factory(
                f"rosetta-{strategy}",
                _KEY_BITS,
                bits_per_key,
                max_range=range_size,
                range_size_histogram={range_size: 1},
            )
            m = measure_filter(factory.build, keys, workload, name=strategy)
            rows.append(
                (
                    range_size,
                    strategy,
                    m.fpr,
                    m.probes_per_query,
                    m.probe_micros_per_query,
                )
            )
    headers = ("range_size", "strategy", "fpr", "probes/query", "probe_us/query")
    return headers, rows


# ======================================================================
# Fig. 5 — end-to-end RocksDB performance across workloads
# ======================================================================

def fig5_endtoend(
    scale: Scale | None = None,
    workload: str = "uniform",
    filters: tuple[str, ...] = ("rosetta", "surf"),
    range_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    bits_per_key: float = 22.0,
):
    """End-to-end latency breakdown + FPR vs range size, inside the store.

    ``workload``: ``uniform`` (Fig. 5(A)), ``correlated`` (B), ``skewed``
    (C).  Fig. 5(D) = ``filters=("rosetta", "surf", "prefix-bloom",
    "fence")`` over the uniform workload.
    """
    scale = scale or Scale.default()
    distribution = "normal" if workload == "skewed" else "uniform"
    dataset = generate_dataset(
        scale.num_keys, _KEY_BITS, distribution=distribution, seed=51,
        value_size=scale.value_size,
    )
    keys = [int(k) for k in dataset.keys]
    correlation = 1 if workload == "correlated" else None

    rows = []
    for filter_name in filters:
        for range_size in range_sizes:
            factory = (
                None
                if filter_name == "fence"
                else make_factory(
                    filter_name,
                    _KEY_BITS,
                    bits_per_key,
                    max_range=max(range_sizes),
                    range_size_histogram={range_size: 1},
                )
            )
            builder = WorkloadBuilder(keys, _KEY_BITS, seed=52 + range_size)
            if range_size == 1:
                queries = builder.empty_point_queries(scale.num_queries)
            else:
                queries = builder.empty_range_queries(
                    scale.num_queries, range_size,
                    correlation_offset=correlation,
                )
            with scratch_db(dataset, factory, _small_db_options()) as db:
                result = run_workload(db, queries)
            rows.append(
                (
                    filter_name,
                    range_size,
                    result.end_to_end_seconds,
                    result.io_seconds,
                    result.cpu_seconds,
                    result.filter_probe_seconds,
                    result.deserialize_seconds,
                    result.serialize_seconds,
                    result.residual_seek_seconds,
                    result.fpr,
                    result.block_reads,
                )
            )
    headers = (
        "filter", "range_size", "end_to_end_s", "io_s", "cpu_s",
        "probe_s", "deserialize_s", "serialize_s", "residual_seek_s",
        "fpr", "block_reads",
    )
    return headers, rows


# ======================================================================
# Fig. 6 — construction cost / write overhead
# ======================================================================

def fig6_construction(
    scale: Scale | None = None,
    filters: tuple[str, ...] = ("rosetta", "surf"),
    sst_sizes: tuple[int, ...] = (64 << 10, 128 << 10, 256 << 10),
    bits_per_key: float = 22.0,
):
    """Filter construction cost vs number of SST files (L0-only config).

    Mirrors Fig. 6(A): compaction disabled (huge L0 trigger) so the filter
    build cost is isolated; varying the SST size varies the number of
    filter instances.
    """
    scale = scale or Scale.default()
    dataset = generate_dataset(
        scale.num_keys, _KEY_BITS, seed=61, value_size=scale.value_size
    )
    rows = []
    for filter_name in filters:
        for sst_size in sst_sizes:
            options = _small_db_options()
            options.sst_size_bytes = sst_size
            options.level0_file_num_compaction_trigger = 10_000  # no compaction
            factory = make_factory(filter_name, _KEY_BITS, bits_per_key)
            with scratch_db(dataset, factory, options, write_path_fraction=0.0) as db:
                stats = db.stats
                rows.append(
                    (
                        filter_name,
                        sst_size,
                        db.num_live_files(),
                        stats.filters_built,
                        stats.filter_construction_ns / 1e9,
                        stats.filter_construction_ns / 1e3 / max(1, stats.filters_built),
                    )
                )
    headers = (
        "filter", "sst_size_bytes", "files", "filters_built",
        "construction_s_total", "construction_us_per_filter",
    )
    return headers, rows


def fig6_write_cost(
    scale: Scale | None = None,
    filters: tuple[str, ...] = ("rosetta", "surf", "fence"),
    bits_per_key: float = 22.0,
):
    """Read/write cost breakdown incl. compaction (Fig. 6(B)) + T/(R+W)."""
    scale = scale or Scale.default()
    dataset = generate_dataset(
        scale.num_keys, _KEY_BITS, seed=62, value_size=scale.value_size
    )
    keys = [int(k) for k in dataset.keys]
    rows = []
    for filter_name in filters:
        factory = (
            None if filter_name == "fence"
            else make_factory(filter_name, _KEY_BITS, bits_per_key)
        )
        # All data through the write path: flushes + compactions happen live.
        with scratch_db(
            dataset, factory, _small_db_options(), write_path_fraction=1.0
        ) as db:
            stats = db.stats
            builder = WorkloadBuilder(keys, _KEY_BITS, seed=63)
            queries = builder.empty_range_queries(scale.num_queries // 2, 16)
            result = run_workload(db, queries)
            rows.append(
                (
                    filter_name,
                    stats.compactions,
                    stats.compaction_time_ns / 1e9,
                    stats.filter_construction_ns / 1e9,
                    stats.compaction_overhead_us_per_byte(),
                    result.end_to_end_seconds,
                    result.fpr,
                )
            )
    headers = (
        "filter", "compactions", "compaction_s", "filter_construction_s",
        "overhead_us_per_byte", "read_workload_s", "read_fpr",
    )
    return headers, rows


# ======================================================================
# Fig. 7 — point-query FPR vs bits/key
# ======================================================================

def fig7_point_queries(
    scale: Scale | None = None,
    filters: tuple[str, ...] = (
        "rosetta", "bloom", "surf-hash", "surf-real", "prefix-bloom",
    ),
    bits_per_key_sweep: tuple[float, ...] = (10, 12, 14, 16, 18, 20),
):
    """Point-query FPR of every filter across memory budgets.

    The paper's claim: Rosetta matches (or beats, at high budgets) the
    plain Bloom filter because its last level indexes full keys, while
    SuRF-Hash/Real and Prefix Bloom degrade badly.
    """
    scale = scale or Scale.default()
    dataset = generate_dataset(scale.num_keys, _KEY_BITS, seed=71)
    keys = [int(k) for k in dataset.keys]
    builder = WorkloadBuilder(keys, _KEY_BITS, seed=72)
    workload = builder.empty_point_queries(scale.num_queries * 4)

    rows = []
    for filter_name in filters:
        for bits_per_key in bits_per_key_sweep:
            factory = make_factory(
                filter_name, _KEY_BITS, bits_per_key,
                max_range=1, range_size_histogram={1: 1},
            )
            m = measure_filter(factory.build, keys, workload, name=filter_name)
            rows.append((filter_name, bits_per_key, m.bits_per_key, m.fpr))
    headers = ("filter", "bits_per_key_budget", "bits_per_key_actual", "fpr")
    return headers, rows


# ======================================================================
# Fig. 8 / 11 — FPR-memory tradeoff, decision maps
# ======================================================================

def fig8_tradeoff(
    scale: Scale | None = None,
    workload: str = "uniform",
    range_size: int = 64,
    filters: tuple[str, ...] = ("rosetta", "surf"),
    bits_per_key_sweep: tuple[float, ...] = (10, 14, 18, 22, 26, 32),
):
    """FPR and end-to-end latency vs bits/key at a fixed range size.

    ``range_size=64`` reproduces Fig. 8 (Rosetta's worst case); smaller
    values reproduce Fig. 11.
    """
    scale = scale or Scale.default()
    distribution = "normal" if workload == "skewed" else "uniform"
    dataset = generate_dataset(
        scale.num_keys, _KEY_BITS, distribution=distribution, seed=81,
        value_size=scale.value_size,
    )
    keys = [int(k) for k in dataset.keys]
    correlation = 1 if workload == "correlated" else None
    builder = WorkloadBuilder(keys, _KEY_BITS, seed=82)
    queries = builder.empty_range_queries(
        scale.num_queries, range_size, correlation_offset=correlation
    )

    rows = []
    for filter_name in filters:
        for bits_per_key in bits_per_key_sweep:
            factory = make_factory(
                filter_name, _KEY_BITS, bits_per_key,
                max_range=range_size, range_size_histogram={range_size: 1},
            )
            with scratch_db(dataset, factory, _small_db_options()) as db:
                result = run_workload(db, queries)
            rows.append(
                (
                    filter_name, workload, range_size, bits_per_key,
                    result.fpr, result.end_to_end_seconds, result.io_seconds,
                )
            )
    headers = (
        "filter", "workload", "range_size", "bits_per_key",
        "fpr", "end_to_end_s", "io_s",
    )
    return headers, rows


def decision_map(rows) -> list[tuple]:
    """Fig. 8(D/H/L) & Fig. 1: who wins each (range, memory) cell.

    Consumes :func:`fig8_tradeoff` rows (possibly concatenated across range
    sizes) and reports, per ``(workload, range_size, bits_per_key)`` cell,
    the filter with the lowest end-to-end latency and the one with the
    lowest FPR.
    """
    cells: dict[tuple, list[tuple]] = {}
    for row in rows:
        filter_name, workload, range_size, bits_per_key = row[:4]
        fpr, latency = row[4], row[5]
        cells.setdefault((workload, range_size, bits_per_key), []).append(
            (filter_name, fpr, latency)
        )
    out = []
    for (workload, range_size, bits_per_key), entries in sorted(cells.items()):
        best_latency = min(entries, key=lambda e: e[2])
        best_fpr = min(entries, key=lambda e: e[1])
        out.append(
            (
                workload, range_size, bits_per_key,
                best_latency[0], best_fpr[0],
            )
        )
    return out


# ======================================================================
# Fig. 9 — memory hierarchy
# ======================================================================

def fig9_memory_hierarchy(
    scale: Scale | None = None,
    range_size: int = 32,
    bits_per_key: float = 22.0,
    devices: tuple[str, ...] = ("memory-scaled", "ssd-scaled", "hdd-scaled"),
    filters: tuple[str, ...] = ("rosetta", "surf"),
):
    """Standalone probe-vs-I/O tradeoff across storage devices.

    Rosetta spends more on probes but saves far more device time through a
    lower FPR; the gap widens from memory to SSD to HDD.
    """
    scale = scale or Scale.default()
    dataset = generate_dataset(scale.num_keys, _KEY_BITS, seed=91)
    keys = [int(k) for k in dataset.keys]
    builder = WorkloadBuilder(keys, _KEY_BITS, seed=92)
    workload = builder.empty_range_queries(scale.num_queries, range_size)

    rows = []
    for filter_name in filters:
        factory = make_factory(
            filter_name, _KEY_BITS, bits_per_key,
            max_range=range_size, range_size_histogram={range_size: 1},
        )
        m = measure_filter(factory.build, keys, workload, name=filter_name)
        for device in devices:
            model = end_to_end_latency_model(m, device=device)
            rows.append(
                (
                    filter_name, device, m.fpr,
                    model["probe_us"], model["io_us"], model["total_us"],
                )
            )
    headers = ("filter", "device", "fpr", "probe_us", "io_us", "total_us")
    return headers, rows


# ======================================================================
# Fig. 10 — string data (synthetic WEX)
# ======================================================================

def fig10_strings(
    scale: Scale | None = None,
    range_size: int = 128,
    bits_per_key_sweep: tuple[float, ...] = (6, 10, 14, 18, 22, 26, 30),
    string_key_bits: int = 96,
):
    """FPR / probe cost on a string corpus across memory budgets.

    Strings are order-preservingly packed into a ``string_key_bits``
    integer domain; Rosetta keeps working at budgets below SuRF's
    structural minimum (the paper's headline for this figure).
    """
    scale = scale or Scale.default()
    titles = generate_wex_titles(scale.num_keys, seed=101)
    codec = StringKeyCodec(key_bits=string_key_bits)
    keys, collisions = codec.encode_all(titles)
    keys = sorted(set(keys))
    # The paper draws query anchors "uniformly from the data set": ranges
    # start a small offset above a stored key, not uniformly in the domain.
    workload = _dataset_anchored_ranges(
        keys, string_key_bits, scale.num_queries, range_size, seed=102
    )

    rows = []
    for bits_per_key in bits_per_key_sweep:
        rosetta = make_factory(
            "rosetta", string_key_bits, bits_per_key,
            max_range=range_size, range_size_histogram={range_size: 1},
        )
        m_rosetta = measure_filter(rosetta.build, keys, workload, name="rosetta")
        surf = make_factory("surf", string_key_bits, bits_per_key,
                            max_range=range_size)
        m_surf = measure_filter(surf.build, keys, workload, name="surf")
        rows.append(
            (
                bits_per_key,
                m_rosetta.fpr, m_rosetta.bits_per_key,
                m_rosetta.probe_micros_per_query,
                m_surf.fpr, m_surf.bits_per_key,
                m_surf.probe_micros_per_query,
            )
        )
    headers = (
        "bits_per_key_budget",
        "rosetta_fpr", "rosetta_bpk", "rosetta_probe_us",
        "surf_fpr", "surf_bpk", "surf_probe_us",
    )
    return headers, rows


def _dataset_anchored_ranges(
    keys: list[int], key_bits: int, count: int, range_size: int, seed: int
):
    """Empty ranges anchored near stored keys (dataset-drawn queries).

    Each query starts a random offset (1..1024) above a random stored key,
    rejected if the range actually holds a key — the access pattern of a
    workload "drawn uniformly from the data set" (Fig. 10).
    """
    import bisect

    import numpy as np

    from repro.workloads.ycsb import Query, Workload

    rng = np.random.default_rng(seed)
    domain_max = (1 << key_bits) - 1
    queries = []
    guard = 0
    while len(queries) < count:
        guard += 1
        if guard > count * 200:
            raise RuntimeError("could not build enough empty anchored ranges")
        anchor = keys[int(rng.integers(0, len(keys)))]
        # Log-uniform offsets: a mix of tight (next-key) and loose queries,
        # as produced by sampling anchor strings from the corpus.
        offset = 1 << int(rng.integers(0, 33))
        low = min(anchor + offset, domain_max - range_size)
        high = low + range_size - 1
        idx = bisect.bisect_left(keys, low)
        if idx < len(keys) and keys[idx] <= high:
            continue
        queries.append(Query("range", low, high))
    return Workload(
        queries,
        description=f"dataset-anchored empty ranges size={range_size}",
        metadata={"range_size": range_size, "anchored": True},
    )


# ======================================================================
# Extensions (see DESIGN.md §4b)
# ======================================================================

def extension_correlation_offsets(
    scale: Scale | None = None,
    thetas: tuple[int, ...] = (1, 16, 256, 4096),
    range_size: int = 16,
    bits_per_key: float = 22.0,
):
    """FPR vs correlation offset θ (Fig. 5(B) fixes θ=1; this sweeps it)."""
    from repro.bench.harness import measure_filter
    from repro.workloads.correlation import correlation_sweep

    scale = scale or Scale.default()
    dataset = generate_dataset(scale.num_keys, _KEY_BITS, seed=303)
    keys = [int(k) for k in dataset.keys]
    sweeps = correlation_sweep(keys, _KEY_BITS, scale.num_queries,
                               range_size, thetas=thetas, seed=304)
    rows = []
    for theta, workload in sweeps.items():
        row = [theta]
        for name in ("rosetta", "surf"):
            factory = make_factory(name, _KEY_BITS, bits_per_key,
                                   max_range=64,
                                   range_size_histogram={range_size: 1})
            row.append(
                measure_filter(factory.build, keys, workload, name=name).fpr
            )
        rows.append(tuple(row))
    return ("theta", "rosetta_fpr", "surf_fpr"), rows


# ======================================================================
# §3 — theory vs measurement
# ======================================================================

def theory_validation(
    scale: Scale | None = None,
    bits_per_key: float = 16.0,
    max_range: int = 64,
):
    """Compare the §3 analytical models against measurements.

    Rows: memory bounds (Goswami lower bound vs 1.44-bound vs actual), and
    expected-vs-measured probe counts / FPR for the equilibrium allocation.
    """
    scale = scale or Scale.default()
    dataset = generate_dataset(scale.num_keys, _KEY_BITS, seed=111)
    keys = [int(k) for k in dataset.keys]
    filt = Rosetta.build(
        keys, key_bits=_KEY_BITS, bits_per_key=bits_per_key,
        max_range=max_range, strategy="equilibrium",
    )
    level_fprs = [
        fpr_for_bits(scale.num_keys, bits) for bits in filt.memory_breakdown()
    ]
    builder = WorkloadBuilder(keys, _KEY_BITS, seed=112)
    range_size = max_range // 2
    workload = builder.empty_range_queries(scale.num_queries, range_size)
    filt.stats.reset()
    positives = sum(
        filt.may_contain_range(q.low, q.high) for q in workload
    )
    measured_fpr = positives / len(workload)
    measured_probes = filt.stats.bloom_probes / len(workload)

    predicted_fpr = analysis.predict_range_fpr(level_fprs, range_size)
    eps = level_fprs[0]
    goswami = analysis.goswami_lower_bound_bits(
        scale.num_keys, max_range, max(eps, 1e-9)
    )
    achieved = analysis.rosetta_memory_bound_bits(
        scale.num_keys, max_range, max(eps, 1e-9)
    )
    rows = [
        ("actual_memory_bits", filt.size_in_bits()),
        ("goswami_lower_bound_bits", goswami),
        ("rosetta_1.44_bound_bits", achieved),
        ("leaf_fpr_eps", eps),
        ("measured_range_fpr", measured_fpr),
        ("predicted_range_fpr", predicted_fpr),
        ("measured_probes_per_query", measured_probes),
        ("expected_probes_upper_bound",
         analysis.expected_range_probe_cost(min(max(level_fprs[1:-1] or [0.4]), 0.49),
                                            range_size)),
    ]
    return ("metric", "value"), rows
