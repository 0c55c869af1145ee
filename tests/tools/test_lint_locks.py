"""The lock-discipline lint catches what it claims to catch.

``tools/lint_locks.py`` runs in CI against the real writer.py, db.py and
the other modules it lists;
these tests pin its semantics with synthetic sources (a violation is
flagged, the documented escapes are honored) and assert the real tree is
currently clean — so a lock-discipline regression fails the test suite
even before CI runs the lint step.
"""

import importlib.util
import pathlib
import sys

_REPO = pathlib.Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "lint_locks", _REPO / "tools" / "lint_locks.py"
)
lint_locks = importlib.util.module_from_spec(_spec)
sys.modules["lint_locks"] = lint_locks  # dataclasses resolves via sys.modules
_spec.loader.exec_module(lint_locks)

Rule = lint_locks.Rule
check_source = lint_locks.check_source

_RULES = {
    "DB": {
        "_super": Rule(
            locks=frozenset({"_sv_lock"}), methods=frozenset({"__init__"})
        ),
        "_zombies": Rule(locks=frozenset({"_sv_lock"})),
    }
}


def test_unlocked_assignment_is_flagged():
    source = (
        "class DB:\n"
        "    def bad(self):\n"
        "        self._super = object()\n"
    )
    violations = check_source(source, rules=_RULES)
    assert len(violations) == 1
    violation = violations[0]
    assert (violation.cls, violation.method, violation.attr, violation.kind) == (
        "DB", "bad", "_super", "assign"
    )
    assert "_sv_lock" in str(violation)


def test_assignment_under_documented_lock_passes():
    source = (
        "class DB:\n"
        "    def good(self):\n"
        "        with self._sv_lock:\n"
        "            self._super = object()\n"
    )
    assert check_source(source, rules=_RULES) == []


def test_wrong_lock_does_not_count():
    source = (
        "class DB:\n"
        "    def sneaky(self):\n"
        "        with self._mutex:\n"
        "            self._super = object()\n"
    )
    assert len(check_source(source, rules=_RULES)) == 1


def test_lock_scope_ends_with_the_with_block():
    source = (
        "class DB:\n"
        "    def late(self):\n"
        "        with self._sv_lock:\n"
        "            pass\n"
        "        self._super = object()\n"
    )
    assert len(check_source(source, rules=_RULES)) == 1


def test_allowlisted_method_passes():
    source = (
        "class DB:\n"
        "    def __init__(self):\n"
        "        self._super = None\n"
    )
    assert check_source(source, rules=_RULES) == []


def test_in_place_mutation_is_flagged():
    source = (
        "class DB:\n"
        "    def bad(self):\n"
        "        self._zombies.append(1)\n"
    )
    violations = check_source(source, rules=_RULES)
    assert len(violations) == 1
    assert violations[0].kind == "mutate"


def test_item_assignment_is_flagged():
    """``self._zombies[k] += 1`` writes the protected container too."""
    source = (
        "class DB:\n"
        "    def bad(self):\n"
        "        self._zombies[0] += 1\n"
        "        self._zombies[1] = 2\n"
        "    def good(self):\n"
        "        with self._sv_lock:\n"
        "            self._zombies[0] += 1\n"
    )
    violations = check_source(source, rules=_RULES)
    assert [(v.method, v.line) for v in violations] == [("bad", 3), ("bad", 4)]


def test_other_classes_and_attrs_are_ignored():
    source = (
        "class Other:\n"
        "    def fine(self):\n"
        "        self._super = object()\n"
        "class DB:\n"
        "    def fine(self):\n"
        "        self._unrelated = object()\n"
    )
    assert check_source(source, rules=_RULES) == []


def test_closure_inherits_enclosing_method_allowlist():
    source = (
        "class DB:\n"
        "    def __init__(self):\n"
        "        def setup():\n"
        "            self._super = object()\n"
        "        setup()\n"
    )
    assert check_source(source, rules=_RULES) == []


def test_real_tree_is_clean():
    for relative in lint_locks._TARGETS:  # noqa: SLF001
        violations = lint_locks.check_file(str(_REPO / relative))
        assert violations == [], "\n".join(str(v) for v in violations)


def test_every_rule_names_an_attribute_its_class_assigns():
    """A rule left behind when its attribute moves to another class never
    fires: every ruled class is defined in a linted module and assigns or
    mutates each ruled attribute there."""
    sources = {
        relative: (_REPO / relative).read_text()
        for relative in lint_locks._TARGETS  # noqa: SLF001
    }
    assert lint_locks.stale_rules(sources) == []


def test_stale_rule_is_reported():
    """A class nobody defines and an attribute nobody writes are stale; a
    rule on an attribute only mutated in place is live."""
    source = (
        "class DB:\n"
        "    def __init__(self):\n"
        "        self._super = None\n"
        "    def gc(self):\n"
        "        self._zombies.append(1)\n"
    )
    rules = {
        "DB": {"_super": Rule(), "_zombies": Rule(), "_gone": Rule()},
        "Moved": {"_state": Rule()},
    }
    assert lint_locks.stale_rules({"db.py": source}, rules) == [
        "lint_locks: stale rule: DB never assigns or mutates self._gone",
        "lint_locks: stale rule: no linted module defines Moved",
    ]
