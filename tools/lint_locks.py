#!/usr/bin/env python
"""Lock-discipline lint for the LSM store's shared mutable state.

The concurrency model in ``repro.lsm.writer`` and ``repro.lsm.db``
assigns every piece of shared store state a documented lock (see the
"Concurrency model" section of writer.py's module docstring).  This lint makes the discipline
mechanical: it parses the source with ``ast`` and flags any *rebinding*
(``self._super = ...``) or *in-place mutation*
(``self._queue.append(...)``) of a protected attribute that is not

* lexically inside a ``with self.<lock>:`` block for one of the
  attribute's documented locks, or
* in an explicitly allowlisted method (constructors, single-threaded
  recovery, teardown paths that run once no other thread can touch it).

It is a lexical check, deliberately: "the caller holds the lock" is
exactly the convention this lint exists to make visible — a helper that
relies on it carries a ``_locked`` suffix and appears in the allowlist
next to the lock it assumes.

Run from the repo root (CI does)::

    python tools/lint_locks.py        # exit 1 + report on violations
"""

from __future__ import annotations

import ast
import os
import sys
from dataclasses import dataclass, field

__all__ = ["Rule", "Violation", "check_source", "check_file", "main", "RULES"]

#: Method calls on a protected attribute that mutate it in place.
_MUTATORS = frozenset(
    {
        "append", "remove", "pop", "clear", "extend", "insert", "update",
        "add", "discard",
    }
)


@dataclass(frozen=True)
class Rule:
    """Protection contract for one attribute of one class."""

    locks: frozenset[str] = frozenset()
    #: Methods allowed to touch the attribute without the lock visible:
    #: constructors and code that runs before the object is shared.
    methods: frozenset[str] = frozenset()


def _rule(locks: tuple[str, ...] = (), methods: tuple[str, ...] = ()) -> Rule:
    return Rule(locks=frozenset(locks), methods=frozenset(methods))


#: class name -> attribute -> protection contract.  This table IS the
#: documented lock assignment; change it in the same commit as the
#: docstrings in writer.py and db.py when the concurrency model evolves.
RULES: dict[str, dict[str, Rule]] = {
    "DB": {
        # Superversion: one assignment per install (the writer holds its
        # _mutex), read without a lock.
        "_super": _rule((), ("__init__", "_install_super")),
        # Lifecycle flag: set once on the teardown paths.
        "_closed": _rule((), ("__init__", "close", "kill")),
    },
    # The write side (repro.lsm.writer): WAL rotation state and the
    # background error are mutated under _mutex (the WAL state also in
    # recover_logs, single-threaded before the store is shared).
    "Writer": {
        "_active_wal": _rule(("_mutex",), ("__init__", "recover_logs")),
        "_wal_seq": _rule(("_mutex",), ("__init__", "recover_logs")),
        "_background_error": _rule(("_mutex",), ("__init__",)),
    },
    # Serving layer (repro.lsm.serving): one lock per shard.  The request
    # queue, the closed/worker-death flags, the in-flight batch, the
    # injected fault, the circuit breaker state machine
    # (state/reason/backoff/probe instant), the worker restart budget,
    # and the worker thread handle all live under the shard's condition
    # variable.  The server's own closed flag is single-writer on the
    # teardown path.
    "_Shard": {
        "_queue": _rule(("_cond",), ("__init__",)),
        "_closed": _rule(("_cond",), ("__init__",)),
        "_worker_dead": _rule(("_cond",), ("__init__",)),
        "_inflight": _rule(("_cond",), ("__init__",)),
        "_fault_to_inject": _rule(("_cond",), ("__init__",)),
        "_breaker_state": _rule(("_cond",), ("__init__",)),
        "_breaker_reason": _rule(("_cond",), ("__init__",)),
        "_backoff_s": _rule(("_cond",), ("__init__",)),
        "_next_probe_at": _rule(("_cond",), ("__init__",)),
        "_worker_restarts": _rule(("_cond",), ("__init__",)),
        "_thread": _rule(("_cond",), ("__init__",)),
    },
    "_ScatterSink": {
        "_remaining": _rule(("_lock",), ("__init__",)),
        "_parts": _rule(("_lock",), ("__init__",)),
    },
    "ShardedServer": {
        "_closed": _rule((), ("__init__", "close")),
        "_shards": _rule((), ("__init__",)),
        "_supervisor": _rule((), ("__init__",)),
        "_leaked_workers": _rule((), ("__init__", "close")),
    },
    # Filter dictionary (repro.lsm.filter_integration): the degraded set,
    # the attack detector's flag set + counters and the per-run rebuild
    # generations are shared between foreground queries and the writer's
    # maintenance; all of them live under the dictionary's own _lock.  (A
    # run's resolved filter is a slot on its SSTReader, written under the
    # same lock, read without it.)
    "FilterDictionary": {
        "degraded": _rule(("_lock",), ("__init__",)),
        "under_attack": _rule(("_lock",), ("__init__",)),
        "_outcomes": _rule(("_lock",), ("__init__",)),
        "_generations": _rule(("_lock",), ("__init__",)),
    },
    # Counter sets (repro.lsm.stats): ``add``/``observe_max`` go through
    # setattr under the set's _lock; a finished read's ``fold`` writes the
    # read-path totals directly and must hold the same lock.
    "PerfStats": {
        name: _rule(("_lock",))
        for name in (
            "block_reads", "block_read_bytes", "block_read_time_ns",
            "block_cache_hits", "block_cache_misses", "filter_probe_ns",
            "residual_seek_ns", "filter_probes", "filter_batch_probes",
            "filter_negatives", "filter_true_positives",
            "filter_false_positives", "point_queries",
            "multi_point_queries", "range_queries",
        )
    },
    # Workload tracker (repro.core.tuning): the reading thread records one
    # query at a time while a flush/compaction install on another thread
    # checkpoints the histogram into the manifest.
    "WorkloadTracker": {
        "_range_sizes": _rule(("_lock",), ("__init__",)),
        "_point_queries": _rule(("_lock",), ("__init__",)),
        "_filter_positives": _rule(("_lock",), ("__init__",)),
        "_filter_negatives": _rule(("_lock",), ("__init__",)),
        "_false_positives": _rule(("_lock",), ("__init__",)),
    },
}


@dataclass
class Violation:
    path: str
    line: int
    cls: str
    method: str
    attr: str
    kind: str  # "assign" or "mutate"
    rule: Rule

    def __str__(self) -> str:
        wants = " or ".join(
            f"`with self.{lock}:`" for lock in sorted(self.rule.locks)
        )
        hint = (
            f"hold {wants}" if wants
            else f"only {sorted(self.rule.methods)} may touch it"
        )
        return (
            f"{self.path}:{self.line}: {self.cls}.{self.method} "
            f"{'rebinds' if self.kind == 'assign' else 'mutates'} "
            f"self.{self.attr} outside its documented lock context ({hint})"
        )


def _self_attr(node: ast.expr) -> str | None:
    """``self.<name>`` (or an item of it, ``self.<name>[k]``) -> name."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _LockVisitor(ast.NodeVisitor):
    def __init__(self, path: str, rules: dict[str, dict[str, Rule]]) -> None:
        self.path = path
        self.rules = rules
        self.violations: list[Violation] = []
        self._cls: str | None = None
        self._method: str | None = None
        self._held: list[str] = []  # lexical stack of held self.* locks

    # -- structure ------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer = self._cls
        self._cls = node.name
        self.generic_visit(node)
        self._cls = outer

    def _visit_func(self, node) -> None:
        outer, held = self._method, self._held
        # Only the outermost method name matters for the allowlist;
        # nested closures inherit it (a closure defined inside
        # _apply_backpressure still runs "in" _apply_backpressure).
        if self._method is None:
            self._method = node.name
        self._held = list(held)
        self.generic_visit(node)
        self._method, self._held = outer, held

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_With(self, node: ast.With) -> None:
        added = [
            attr
            for item in node.items
            if (attr := _self_attr(item.context_expr)) is not None
        ]
        self._held.extend(added)
        self.generic_visit(node)
        if added:
            del self._held[-len(added):]

    # -- checks ---------------------------------------------------------
    def _check(self, attr: str, line: int, kind: str) -> None:
        if self._cls is None or self._method is None:
            return
        rule = self.rules.get(self._cls, {}).get(attr)
        if rule is None:
            return
        if self._method in rule.methods:
            return
        if any(lock in rule.locks for lock in self._held):
            return
        self.violations.append(
            Violation(
                path=self.path,
                line=line,
                cls=self._cls,
                method=self._method,
                attr=attr,
                kind=kind,
                rule=rule,
            )
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            attr = _self_attr(target)
            if attr is not None:
                self._check(attr, node.lineno, "assign")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = _self_attr(node.target)
        if attr is not None:
            self._check(attr, node.lineno, "assign")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # self.<attr>.append(...) and friends: in-place mutation.
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            attr = _self_attr(func.value)
            if attr is not None:
                self._check(attr, node.lineno, "mutate")
        self.generic_visit(node)


def check_source(
    source: str,
    path: str = "<string>",
    rules: dict[str, dict[str, Rule]] | None = None,
) -> list[Violation]:
    """Lint one module's source; returns violations (empty = clean)."""
    visitor = _LockVisitor(path, rules if rules is not None else RULES)
    visitor.visit(ast.parse(source, filename=path))
    return visitor.violations


def check_file(
    path: str, rules: dict[str, dict[str, Rule]] | None = None
) -> list[Violation]:
    with open(path, encoding="utf-8") as handle:
        return check_source(handle.read(), path, rules)


#: The modules whose classes carry RULES entries.
_TARGETS = (
    os.path.join("src", "repro", "lsm", "db.py"),
    os.path.join("src", "repro", "lsm", "writer.py"),
    os.path.join("src", "repro", "lsm", "serving.py"),
    os.path.join("src", "repro", "lsm", "filter_integration.py"),
    os.path.join("src", "repro", "lsm", "stats.py"),
    os.path.join("src", "repro", "core", "tuning.py"),
)


def main(argv: list[str] | None = None) -> int:
    paths = (argv if argv else None) or list(_TARGETS)
    violations: list[Violation] = []
    for path in paths:
        if not os.path.exists(path):
            print(f"lint_locks: no such file: {path}", file=sys.stderr)
            return 2
        violations.extend(check_file(path))
    for violation in violations:
        print(violation)
    if violations:
        print(f"lint_locks: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint_locks: OK ({len(paths)} file(s) clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
