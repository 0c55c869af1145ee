"""The public surfaces are pinned: adding a method means editing this list.

A def, class, method or property stays only if something outside its own
tests calls it (the same rule ``test_option_fields.py`` applies to option
fields).  :func:`test_every_public_name_has_a_caller` checks the rule over
all of ``src/repro``; figure benches, the ledger, examples and tools count
as callers.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

import repro.core
import repro.filters
import repro.lsm
import repro.workloads
from repro.filters.base import KeyFilter
from repro.lsm.db import DB
from repro.lsm.memtable import MemTable
from repro.lsm.serving import ShardedServer

_ROOT = Path(__file__).resolve().parents[2]
_CALLER_TREES = ("src", "benchmarks", "examples", "tools")

#: Public names nothing outside the tests calls, each kept for a reason.
KEPT = {
    "expected_range_probe_cost_nonuniform": "the paper's §3.2 bound for "
    "unequal per-level FPRs, checked against measurement",
    "BloomFilter.from_keys_and_bits": "the tests' constructor for a Bloom "
    "filter at a bit budget",
    "BlockCache.used_bytes": "the tests' only view of the cache's byte "
    "accounting",
    "FaultInjectionEnv.fail_file_reads": "a scripted fault; the fault "
    "injection env exists for tests to drive",
    "FaultInjectionEnv.tear_next_append": "a scripted fault",
    "FaultInjectionEnv.corrupt_file": "a scripted fault",
    "repair_store": "the offline repair entry point of repro.lsm",
}

_PUBLIC = {
    DB: (
        "background_error",
        "batch",
        "close",
        "compact",
        "delete",
        "describe",
        "flush",
        "force_full_compaction",
        "get",
        "health",
        "ingest",
        "iterator",
        "kill",
        "multi_get",
        "num_live_files",
        "put",
        "range_iter",
        "range_query",
        "resume",
        "retune_filters",
        "verify",
        "version",
        "wait_idle",
        "write",
    ),
    ShardedServer: (
        "close",
        "delete",
        "flush",
        "get",
        "get_async",
        "health",
        "multi_get",
        "multi_get_async",
        "perf_totals",
        "put",
        "range_query",
        "range_query_async",
        "shards",
        "stats",
        "wait_idle",
    ),
    MemTable: (
        "approximate_bytes",
        "delete",
        "entries",
        "entries_from",
        "get",
        "is_empty",
        "put",
    ),
    KeyFilter: (
        "design_fpr",
        "may_contain",
        "may_contain_batch",
        "may_contain_range",
        "name",
        "populate",
        "probe_count",
        "reset_probe_count",
        "serialize",
        "size_in_bits",
        "tightened_range",
    ),
}


@pytest.mark.parametrize("cls", list(_PUBLIC), ids=lambda cls: cls.__name__)
def test_public_names_are_pinned(cls):
    public = sorted(name for name in vars(cls) if not name.startswith("_"))
    assert tuple(public) == _PUBLIC[cls]


def test_package_exports_are_pinned():
    assert sorted(repro.lsm.__all__) == sorted([
        "BlockCache",
        "DB",
        "DBOptions",
        "DEVICE_PRESETS",
        "DeterministicScheduler",
        "DeviceModel",
        "FaultInjectionEnv",
        "HealthReport",
        "InlineScheduler",
        "MemTable",
        "PerfStats",
        "QueryContext",
        "RepairOutcome",
        "ServingHealth",
        "ServingOptions",
        "ServingStats",
        "ShardRouter",
        "ShardedServer",
        "StorageEnv",
        "Stopwatch",
        "ThreadPoolScheduler",
        "VerificationReport",
        "WriteBatch",
        "repair_store",
        "verify_version",
    ])


_PACKAGE_EXPORTS = {
    repro.core: [
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
        "optimal_num_hashes",
    ],
    repro.filters: [
        "BloomPointFilter",
        "FencePointerFilter",
        "FilterFactory",
        "KeyFilter",
        "PrefixBloomFilter",
        "RosettaFilter",
        "SuRF",
        "SurfFilter",
        "deserialize_filter",
        "register_filter_codec",
        "serialize_envelope",
    ],
    repro.workloads: [
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
    ],
}


@pytest.mark.parametrize(
    "package", list(_PACKAGE_EXPORTS), ids=lambda package: package.__name__
)
def test_subpackage_exports_are_pinned(package):
    assert sorted(package.__all__) == _PACKAGE_EXPORTS[package]


def _public_definitions():
    """``(qualname, name, path, first_line, last_line)`` of every public
    def and class in ``src/repro`` that is not local to a function."""

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not child.name.startswith("_"):
                    yield (prefix + child.name, child.name, path,
                           child.lineno, child.end_lineno)
            elif isinstance(child, ast.ClassDef):
                if not child.name.startswith("_"):
                    yield (prefix + child.name, child.name, path,
                           child.lineno, child.end_lineno)
                yield from walk(child, path, prefix + child.name + ".")
            else:
                yield from walk(child, path, prefix)

    for path in sorted((_ROOT / "src" / "repro").rglob("*.py")):
        yield from walk(ast.parse(path.read_text()), path, "")


def _references():
    """Every identifier used outside ``tests/``: name -> [(path, line)].

    A name counts when it is read as a variable or an attribute, or
    written as a string (``getattr`` targets, hook tables), except the
    strings of an ``__all__`` list: exporting a name does not call it.
    """
    found = defaultdict(list)
    for tree_name in _CALLER_TREES:
        for path in sorted((_ROOT / tree_name).rglob("*.py")):
            tree = ast.parse(path.read_text())
            exported = {
                id(node)
                for statement in ast.walk(tree)
                if isinstance(statement, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in statement.targets)
                for node in ast.walk(statement.value)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.isidentifier()
                    and id(node) not in exported
                ):
                    name = node.value
                else:
                    continue
                found[name].append((path, node.lineno))
    return found


def test_every_public_name_has_a_caller():
    references = _references()
    uncalled = sorted(
        qualname
        for qualname, name, path, first, last in _public_definitions()
        if all(
            ref_path == path and first <= line <= last
            for ref_path, line in references[name]
        )
    )
    # A name in KEPT that gained a caller leaves the table too.
    assert uncalled == sorted(KEPT), (
        "public names with no caller outside tests/ (delete them, or list "
        "them in KEPT with a reason): "
        f"{sorted(set(uncalled) - set(KEPT))}; KEPT names that have a "
        f"caller now: {sorted(set(KEPT) - set(uncalled))}"
    )
