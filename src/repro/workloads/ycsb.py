"""YCSB-style workload generation — variations of Workload E (§5).

The paper's query workloads are "variations of Workload E, a majority
range scan workload", built from empty range and point queries "to capture
worst-case behavior" — a filter only matters when the queried range holds
no keys.  :class:`WorkloadBuilder` produces exactly that: given the loaded
key set, it generates

* **empty range queries** of a chosen size distribution (anchors drawn from
  the key distribution, rejected if they overlap a stored key),
* **empty point queries** (absent keys),
* **correlated** variants where the query's lower bound sits a fixed offset
  ``theta`` above an existing key (Fig. 5(B)),

all deterministically seeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Literal, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.distributions import normal_keys, uniform_keys

QueryKind = Literal["range", "point"]

__all__ = ["Query", "Workload", "WorkloadBuilder"]


@dataclass(frozen=True)
class Query:
    """One operation: a point probe or an inclusive range scan."""

    kind: QueryKind
    low: int
    high: int

    @property
    def range_size(self) -> int:
        """Number of keys the query covers."""
        return self.high - self.low + 1


@dataclass
class Workload:
    """A generated query sequence plus its provenance."""

    queries: list[Query]
    description: str = ""
    metadata: dict = field(default_factory=dict)

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)


class WorkloadBuilder:
    """Generates query workloads against a fixed loaded key set.

    Parameters
    ----------
    keys:
        The loaded (stored) keys; empty-query generation rejects anchors
        whose range would intersect them.
    key_bits:
        Domain width.
    seed:
        RNG seed; every product of one builder instance is deterministic.
    """

    def __init__(self, keys: Sequence[int], key_bits: int, seed: int = 0) -> None:
        if not 1 <= key_bits <= 128:
            raise WorkloadError(f"key_bits must be in [1, 128], got {key_bits}")
        self.key_bits = key_bits
        self._wide = key_bits > 64  # beyond uint64 arithmetic
        if self._wide:
            self._keys_list = sorted(set(int(k) for k in keys))
            self._keys = None
        else:
            self._keys = np.unique(np.asarray(list(keys), dtype=np.uint64))
            self._keys_list = None
        self._rng = np.random.default_rng(seed)

    @property
    def domain_max(self) -> int:
        """Largest key in the domain."""
        return (1 << self.key_bits) - 1

    # ------------------------------------------------------------------
    # Emptiness machinery
    # ------------------------------------------------------------------
    def _num_keys(self) -> int:
        return len(self._keys_list) if self._wide else len(self._keys)

    def _key_at(self, index: int) -> int:
        if self._wide:
            return self._keys_list[index]
        return int(self._keys[index])

    def _ranges_are_empty(self, lows, highs) -> np.ndarray:
        """Per range: does [low, high] miss every stored key?"""
        if self._wide:
            import bisect

            out = np.empty(len(lows), dtype=bool)
            for i, (low, high) in enumerate(zip(lows, highs)):
                idx = bisect.bisect_left(self._keys_list, low)
                out[i] = not (
                    idx < len(self._keys_list) and self._keys_list[idx] <= high
                )
            return out
        idx = np.searchsorted(self._keys, lows, side="left")
        in_bounds = idx < len(self._keys)
        hit = np.zeros(len(lows), dtype=bool)
        hit[in_bounds] = self._keys[idx[in_bounds]] <= highs[in_bounds]
        return ~hit

    def _draw_anchors(self, count: int, distribution: str):
        if self._wide:
            # Compose 32-bit draws into key_bits-wide uniform integers.
            words = (self.key_bits + 31) // 32
            draws = self._rng.integers(0, 1 << 32, size=(count, words), dtype=np.uint64)
            anchors = []
            for row in draws:
                value = 0
                for word in row:
                    value = (value << 32) | int(word)
                anchors.append(value & self.domain_max)
            if distribution == "normal":
                # Skew by collapsing toward the domain midpoint.
                mid = self.domain_max // 2
                anchors = [mid + (a - mid) // 8 for a in anchors]
            return anchors
        if distribution == "uniform":
            return uniform_keys(count, self.key_bits, rng=self._rng)
        if distribution == "normal":
            return normal_keys(count, self.key_bits, rng=self._rng)
        raise WorkloadError(f"unknown anchor distribution {distribution!r}")

    # ------------------------------------------------------------------
    # Workload products
    # ------------------------------------------------------------------
    def empty_range_queries(
        self,
        count: int,
        range_size: int,
        distribution: str = "uniform",
        correlation_offset: int | None = None,
    ) -> Workload:
        """``count`` range queries of ``range_size`` that are all empty.

        With ``correlation_offset`` set, anchors are existing keys plus the
        offset (the paper's θ-correlated workload) instead of fresh draws —
        these ranges hug stored keys, which is the adversarial case for
        prefix-based filters.
        """
        if range_size < 1:
            raise WorkloadError(f"range_size must be >= 1, got {range_size}")
        queries: list[Query] = []
        attempts = 0
        while len(queries) < count:
            attempts += 1
            if attempts > 1000:
                raise WorkloadError(
                    "could not find enough empty ranges; key set too dense"
                )
            need = count - len(queries)
            batch = int(need * 1.5) + 8
            if correlation_offset is not None:
                picks = self._rng.integers(0, self._num_keys(), size=batch)
                lows = [
                    self._key_at(int(p)) + correlation_offset for p in picks
                ]
            else:
                lows = [int(a) for a in self._draw_anchors(batch, distribution)]
            cap = self.domain_max - range_size + 1
            lows = np.array(
                [min(low, cap) for low in lows], dtype=object
            )
            highs = lows + (range_size - 1)
            empty = self._ranges_are_empty(lows, highs)
            for low, high in zip(lows[empty][:need], highs[empty][:need]):
                queries.append(Query("range", int(low), int(high)))
        label = f"empty-range size={range_size} dist={distribution}"
        if correlation_offset is not None:
            label += f" correlated(theta={correlation_offset})"
        return Workload(
            queries,
            description=label,
            metadata={
                "range_size": range_size,
                "distribution": distribution,
                "correlation_offset": correlation_offset,
            },
        )

    def empty_point_queries(
        self, count: int, distribution: str = "uniform"
    ) -> Workload:
        """``count`` point queries on keys that are all absent."""
        queries: list[Query] = []
        attempts = 0
        while len(queries) < count:
            attempts += 1
            if attempts > 1000:
                raise WorkloadError("could not find enough absent keys")
            need = count - len(queries)
            anchors = np.array(
                [int(a) for a in self._draw_anchors(int(need * 1.5) + 8, distribution)],
                dtype=object,
            )
            empty = self._ranges_are_empty(anchors, anchors)
            for key in anchors[empty][:need]:
                queries.append(Query("point", int(key), int(key)))
        return Workload(
            queries,
            description=f"empty-point dist={distribution}",
            metadata={"distribution": distribution},
        )

    def workload_e(
        self,
        count: int,
        max_range_size: int = 64,
        scan_fraction: float = 0.95,
        distribution: str = "uniform",
    ) -> Workload:
        """A YCSB-E-shaped mix: mostly short scans plus some point reads.

        Scan lengths are drawn uniformly from ``[1, max_range_size]``
        (YCSB's default scan-length chooser); all queries are empty so the
        filters are on the critical path for every operation.
        """
        if not 0.0 <= scan_fraction <= 1.0:
            raise WorkloadError(
                f"scan_fraction must be in [0, 1], got {scan_fraction}"
            )
        num_scans = int(round(count * scan_fraction))
        sizes = self._rng.integers(1, max_range_size + 1, size=num_scans)
        queries: list[Query] = []
        for size in sizes:
            sub = self.empty_range_queries(1, int(size), distribution)
            queries.extend(sub.queries)
        queries.extend(
            self.empty_point_queries(count - num_scans, distribution).queries
        )
        order = self._rng.permutation(len(queries))
        queries = [queries[i] for i in order]
        return Workload(
            queries,
            description=(
                f"YCSB-E mix scans={scan_fraction:.0%} max_range={max_range_size}"
            ),
            metadata={"max_range_size": max_range_size},
        )
