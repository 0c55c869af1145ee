"""The paper's primary contribution: the Rosetta range filter.

Public surface:

* :class:`~repro.core.rosetta.Rosetta` — the filter (build / point / range /
  tightened-range queries, serialization).
* :func:`~repro.core.allocation.allocate` — memory allocation strategies
  across filter levels (§2.3–2.4).
* :class:`~repro.core.tuning.WorkloadTracker` /
  :class:`~repro.core.tuning.AutoTuner` — workload-adaptive self-tuning.
* :mod:`~repro.core.analysis` — the §3 theoretical models.
* :class:`~repro.core.bloom.BloomFilter` and
  :class:`~repro.core.bitarray.BitArray` — the building blocks, exposed for
  downstream reuse.
"""

from repro.core.allocation import STRATEGIES, LevelAllocation, allocate
from repro.core.bitarray import BitArray
from repro.core.bloom import BloomFilter, bits_for_fpr, fpr_for_bits, optimal_num_hashes
from repro.core.dyadic import DyadicInterval, decompose, max_intervals_for_range
from repro.core.rosetta import ProbeStats, Rosetta
from repro.core.tuning import AutoTuner, TuningDecision, WorkloadTracker

__all__ = [
    "AutoTuner",
    "BitArray",
    "BloomFilter",
    "DyadicInterval",
    "LevelAllocation",
    "ProbeStats",
    "Rosetta",
    "STRATEGIES",
    "TuningDecision",
    "WorkloadTracker",
    "allocate",
    "bits_for_fpr",
    "decompose",
    "fpr_for_bits",
    "max_intervals_for_range",
    "optimal_num_hashes",
]
