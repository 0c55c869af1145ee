"""Per-run filter probing — the §4 integration machinery.

Three pieces:

* :class:`FilterDictionary` — "we construct a dictionary containing the
  mapping of the deserialized bits of each Rosetta instance and its
  corresponding run", preventing a deserialization per query.  The mapping
  is one slot on each run's :class:`~repro.lsm.sstable.SSTReader`, so an
  entry goes with the run and a resolved filter is one unlocked attribute
  read away.  Disabling it (an ablation in ``benchmarks/``) re-deserializes
  the filter block on every query, which is what the paper's
  deserialization-cost discussion is about.
* :func:`batched_tightened_ranges` — the *range* probe: one Algorithm 2
  walk for every overlapping run with a Rosetta of one shape, one
  ``may_contain_range`` call per other filtered run.
* :func:`batched_point_verdicts` — the *point* probe: one
  ``may_contain_batch`` call per run for that run's whole key group
  (a ``get`` is a group of one).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.rosetta import Rosetta, range_verdicts
from repro.filters.base import KeyFilter
from repro.filters.rosetta_adapter import RosettaFilter
from repro.lsm.sstable import UNRESOLVED, SSTReader
from repro.lsm.stats import PerfStats

__all__ = [
    "FilterDictionary",
    "batched_point_verdicts",
    "batched_tightened_ranges",
]


class FilterDictionary:
    """Resolves each run's filter once, into ``SSTReader.resolved_filter``
    (:meth:`~repro.lsm.sstable.SSTReader.resolve_filter` says how, and
    what a corrupt envelope does).  With ``enabled`` off only "no filter"
    is memoized and a live filter is refetched on every call."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled

    def get_filter(
        self, reader: SSTReader, stats: PerfStats, context=None
    ) -> KeyFilter | None:
        """The run's deserialized filter, or None (no filter block, or a
        corrupt one).  A resolved run answers from the reader's slot."""
        filt = reader.resolved_filter
        if filt is not UNRESOLVED:
            return filt
        return reader.resolve_filter(stats, context, self.enabled)


def batched_point_verdicts(
    filt: KeyFilter | None, keys: Sequence[int]
) -> tuple[Sequence[bool], int]:
    """Probe one run's filter for a whole point-lookup key group at once.

    The point pipeline (``DB.get`` and ``DB.multi_get`` alike) groups its
    unresolved keys per run and answers each group — of one key or
    thousands — with one
    :meth:`~repro.filters.base.KeyFilter.may_contain_batch` call.

    ``filt is None`` means the run has fence pointers only: every key
    passes through positive at zero probe cost.  Returns
    ``(verdicts, filter_calls)``; ``filter_calls`` (0 or 1) feeds
    ``PerfStats.filter_batch_probes``.
    """
    if filt is None or not keys:
        return [True] * len(keys), 0
    return filt.may_contain_batch(keys), 1


def batched_tightened_ranges(
    filters: Sequence[KeyFilter | None], low: int, high: int
) -> tuple[list[bool], int]:
    """Ask every overlapping run's filter whether ``[low, high]`` is empty.

    The Rosettas of the first one's shape answer together through
    :func:`~repro.core.rosetta.range_verdicts` (one walk for all of them);
    any other filter through its own
    :meth:`~repro.filters.base.KeyFilter.may_contain_range` call.
    ``filters[i] is None`` means run *i* has fence pointers only and passes
    through positive at zero probe cost.  Returns ``(verdicts,
    filter_calls)``; ``filter_calls`` feeds ``PerfStats.filter_batch_probes``
    exactly like the point path's.

    The name predates the contract (it once returned §2.2.1 seek windows
    from a multi-run sweep) and stays because the ledger's tracer patches
    ``repro.lsm.db.batched_tightened_ranges`` by name; renaming it is for
    the next benchmark-only PR.
    """
    count = len(filters)
    verdicts = [True] * count
    walked: list[int] = []
    cores: list[Rosetta] = []
    for index, filt in enumerate(filters):
        core = filt.core if isinstance(filt, RosettaFilter) else None
        if core is not None and (not cores or core.shape == cores[0].shape):
            walked.append(index)
            cores.append(core)
        elif filt is not None:
            verdicts[index] = filt.may_contain_range(low, high)
    if cores:
        for index, verdict in zip(walked, range_verdicts(cores, low, high)):
            verdicts[index] = verdict
    return verdicts, count - filters.count(None)
