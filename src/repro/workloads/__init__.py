"""Workload generators for the paper's experiments (§5).

Key sets (uniform / normal-skewed / string corpora), YCSB-E-style query
mixes, empty-query construction, and θ-correlated workloads.
"""

from repro.workloads.adversarial import AdversarialAttacker, AttackReport
from repro.workloads.correlation import correlated_range_queries, correlation_sweep
from repro.workloads.distributions import normal_keys, sample_distinct, uniform_keys
from repro.workloads.keygen import Dataset, generate_dataset, synthesize_value
from repro.workloads.strings import (
    StringKeyCodec,
    generate_wex_titles,
    string_to_int_key,
)
from repro.workloads.ycsb import Query, Workload, WorkloadBuilder

__all__ = [
    "AdversarialAttacker",
    "AttackReport",
    "Dataset",
    "Query",
    "StringKeyCodec",
    "Workload",
    "WorkloadBuilder",
    "correlated_range_queries",
    "correlation_sweep",
    "generate_dataset",
    "generate_wex_titles",
    "normal_keys",
    "sample_distinct",
    "string_to_int_key",
    "synthesize_value",
    "uniform_keys",
]
