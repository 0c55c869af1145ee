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
        "flush",
        "get_async",
        "health",
        "multi_get_async",
        "perf_totals",
        "put",
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


#: Public method names defined on more than one unrelated class (an
#: override of an in-repo base does not count).  The caller scan cannot
#: tell ``db.health()`` from ``server.health()``, so each name here was
#: checked by hand: every definition has a caller of its own outside
#: tests/ (``ShardedServer.health`` is kept on purpose: it is the tests'
#: only view of breaker state and queue depth).  Each
#: ``DB`` write entry point is one call into the ``Writer`` method of the
#: same name, its only caller.
SHARED = {
    "add", "background_error", "build", "close", "compact", "delete",
    "describe", "deserialize", "encode", "extend", "file_size",
    "finish", "flush", "force_full_compaction", "fpr", "from_bytes",
    "from_levels", "get", "health", "ingest", "leaf_value_index",
    "may_contain", "may_contain_range", "num_bits", "num_edges", "num_nodes",
    "put", "replay", "resume", "run", "salt", "size_in_bits",
    "smallest_label_ge", "tightened_range", "to_bytes", "validate",
    "wait_idle",
}


def _public_definitions(root=_ROOT):
    """``(qualname, name, path, first_line, last_line, is_method)`` of every
    public def and class in ``src/repro`` that is not local to a function;
    ``is_method`` marks a def directly in a class body (methods and
    properties)."""

    def walk(node, path, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not child.name.startswith("_"):
                    yield (prefix + child.name, child.name, path,
                           child.lineno, child.end_lineno, in_class)
            elif isinstance(child, ast.ClassDef):
                if not child.name.startswith("_"):
                    yield (prefix + child.name, child.name, path,
                           child.lineno, child.end_lineno, False)
                yield from walk(child, path, prefix + child.name + ".", True)
            else:
                yield from walk(child, path, prefix, in_class)

    for path in sorted((root / "src" / "repro").rglob("*.py")):
        yield from walk(ast.parse(path.read_text()), path, "", False)


def _references(root=_ROOT):
    """Every identifier used outside ``tests/``: name -> [(path, line, bare)].

    A name counts when it is read as a variable (``bare``) or an
    attribute, or written as a string (``getattr`` targets, hook tables),
    except the strings of an ``__all__`` list: exporting a name does not
    call it.
    """
    found = defaultdict(list)
    for tree_name in _CALLER_TREES:
        for path in sorted((root / tree_name).rglob("*.py")):
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
                    name, bare = node.id, True
                elif isinstance(node, ast.Attribute):
                    name, bare = node.attr, False
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.isidentifier()
                    and id(node) not in exported
                ):
                    name, bare = node.value, False
                else:
                    continue
                found[name].append((path, node.lineno, bare))
    return found


def _uncalled(root=_ROOT, kept=KEPT):
    """Qualnames of the public definitions nothing calls.

    A reference counts unless it lies inside the definition itself or
    inside another definition found uncalled (iterated to a fixpoint;
    ``kept`` names are live roots), and a method or property counts as
    called only through an attribute or a string: a bare variable that
    happens to share its name calls nothing.
    """
    definitions = list(_public_definitions(root))
    references = _references(root)
    uncalled: set[str] = set()
    while True:
        dead_spans = defaultdict(list)
        for qualname, _, path, first, last, _ in definitions:
            if qualname in uncalled and qualname not in kept:
                dead_spans[path].append((first, last))

        def live(reference, is_method, path, first, last):
            ref_path, line, bare = reference
            return not (
                (is_method and bare)
                or (ref_path == path and first <= line <= last)
                or any(a <= line <= b for a, b in dead_spans[ref_path])
            )

        now = {
            qualname
            for qualname, name, path, first, last, is_method in definitions
            if not any(
                live(reference, is_method, path, first, last)
                for reference in references[name]
            )
        }
        if now == uncalled:
            return sorted(uncalled)
        uncalled = now


def _shared_method_names(root=_ROOT):
    """Public method names that more than one unrelated class defines."""
    classes = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = [getattr(b, "id", getattr(b, "attr", None)) for b in node.bases]
                methods = {
                    child.name
                    for child in node.body
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not child.name.startswith("_")
                }
                classes[node.name] = (bases, methods)

    def defines(cls, name):
        bases, methods = classes[cls]
        return name in methods or any(
            defines(base, name) for base in bases if base in classes
        )

    def introducer(cls, name):
        for base in classes[cls][0]:
            if base in classes and defines(base, name):
                return introducer(base, name)
        return cls

    owners = defaultdict(set)
    for cls, (_, methods) in classes.items():
        for name in methods:
            owners[name].add(introducer(cls, name))
    return sorted(name for name, found in owners.items() if len(found) > 1)


def test_every_public_name_has_a_caller():
    uncalled = _uncalled()
    # A name in KEPT that gained a caller leaves the table too.
    assert uncalled == sorted(KEPT), (
        "public names with no caller outside tests/ (delete them, or list "
        "them in KEPT with a reason): "
        f"{sorted(set(uncalled) - set(KEPT))}; KEPT names that have a "
        f"caller now: {sorted(set(KEPT) - set(uncalled))}"
    )


def test_shared_method_names_are_pinned():
    shared = _shared_method_names()
    assert shared == sorted(SHARED), (
        "a method name now defined on more than one unrelated class: the "
        "caller scan cannot tell those classes' callers apart, so check "
        "by hand that each definition has a caller outside tests/, then "
        f"pin the name in SHARED: {sorted(set(shared) - SHARED)}; no "
        f"longer shared: {sorted(SHARED - set(shared))}"
    )


def test_the_scan_reports_what_it_cannot_see_by_name(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "store.py").write_text(
        "class Store:\n"
        "    def lookup(self):\n"
        "        return 1\n"
        "\n"
        "    def helper(self):\n"
        "        return 2\n"
        "\n"
        "    def close(self):\n"
        "        return 3\n"
        "\n"
        "\n"
        "class Cursor:\n"
        "    def close(self):\n"
        "        return 4\n"
        "\n"
        "\n"
        "def unused():\n"
        "    return Store().helper()\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "use.py").write_text(
        "from repro.store import Cursor, Store\n"
        "\n"
        "lookup = Store()\n"
        "print(lookup, Cursor().close())\n"
    )
    # ``lookup`` is only a same-named variable; ``helper`` is called only
    # from ``unused``, which nothing calls.
    assert _uncalled(tmp_path, kept={}) == ["Store.helper", "Store.lookup", "unused"]
    assert _shared_method_names(tmp_path) == ["close"]
