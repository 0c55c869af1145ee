"""Rosetta: A Robust Space-Time Optimized Range Filter for Key-Value Stores.

Pure-Python reproduction of Luo et al., SIGMOD 2020.  The package bundles:

* :mod:`repro.core` — the Rosetta filter, its memory-allocation strategies,
  adaptive tuning, and the paper's theoretical models;
* :mod:`repro.filters` — every baseline the paper evaluates (SuRF, Prefix
  Bloom, Bloom, fence pointers) behind one master filter template;
* :mod:`repro.lsm` — an LSM-tree key-value store substrate with per-run
  filters, leveled compaction, block cache, and iterator hierarchy;
* :mod:`repro.workloads` — YCSB-style key/query generators (uniform,
  skewed, correlated, string);
* :mod:`repro.bench` — the harness that regenerates the paper's figures.

Quickstart::

    from repro import Rosetta
    filt = Rosetta.build(keys, key_bits=32, bits_per_key=22, max_range=64)
    if filt.may_contain_range(low, high):
        ...  # only now touch storage
"""

from repro.core import BloomFilter, Rosetta, WorkloadTracker
from repro.filters import (
    BloomPointFilter,
    FencePointerFilter,
    KeyFilter,
    PrefixBloomFilter,
    RosettaFilter,
    SuRF,
    SurfFilter,
)

__version__ = "1.0.0"

__all__ = [
    "BloomFilter",
    "BloomPointFilter",
    "FencePointerFilter",
    "KeyFilter",
    "PrefixBloomFilter",
    "Rosetta",
    "RosettaFilter",
    "SuRF",
    "SurfFilter",
    "WorkloadTracker",
    "__version__",
]
