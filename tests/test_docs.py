"""The prose names only what exists.

Every ``path::test`` id, every repo path and every backticked
``Class.member`` in the reader-facing docs must resolve: the file exists,
the test function or class is defined in it, the class defines the member.
Resolution is by file lookup and AST only — nothing is imported — so a
rename or a deletion that leaves its prose behind fails here, the way
``tests/lsm/test_public_surface.py`` fails when code loses its caller.

The planning and history files (ROADMAP, CHANGES, PAPER) stay out, as
does the ledger README.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DOCS = sorted(
    [_ROOT / "README.md", _ROOT / "DESIGN.md", _ROOT / "EXPERIMENTS.md"]
    + list((_ROOT / "docs").glob("*.md")),
)
_CODE_TREES = ("src", "tests", "benchmarks", "examples", "tools")

_BACKTICKED = re.compile(r"`([^`\n]+)`")
_TEST_ID = re.compile(r"([\w./-]+\.py)::([\w:]+)")
#: A file by extension, or a directory with at least one inner slash
#: (``filters/surf/``; a lone ``shard_000/`` is a runtime name).
_PATH = re.compile(
    r"[\w.-]+(?:/[\w.-]+)*\.(?:py|md|json|toml|yml|ini|txt)|[\w.-]+(?:/[\w.-]+)+/"
)
#: ``Class.member``, optionally called and followed by more attributes
#: (``DB.health().level0_runs`` checks ``DB.health``).
_MEMBER = re.compile(r"(_?[A-Z]\w*)\.([A-Za-z_]\w*)(?:\(.*?\))?(?:\.\w+(?:\(\))?)*")


@lru_cache(maxsize=None)
def _repo_paths() -> frozenset[str]:
    """Every tracked-looking file and directory, relative to the root."""
    found = set()
    for path in _ROOT.rglob("*"):
        relative = path.relative_to(_ROOT)
        if relative.parts[0].startswith(".") or "__pycache__" in relative.parts:
            continue
        found.add(relative.as_posix() + ("/" if path.is_dir() else ""))
    return frozenset(found)


def _resolve_path(text: str) -> list[str]:
    """Repo paths that ``text`` names: itself, or any path ending in it."""
    return sorted(
        path for path in _repo_paths()
        if path == text or path.endswith("/" + text)
    )


@lru_cache(maxsize=None)
def _parse(relative: str) -> ast.Module:
    return ast.parse((_ROOT / relative).read_text())


def _scopes(tree: ast.AST) -> dict[str, ast.AST]:
    """``Outer::Inner::name`` -> node for every class and function."""
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                found[prefix + child.name] = child
                if isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + "::")

    walk(tree, "")
    return found


@lru_cache(maxsize=None)
def _classes() -> dict[str, list[ast.ClassDef]]:
    """Class name -> its definitions across the code trees."""
    found: dict[str, list[ast.ClassDef]] = {}
    for tree_name in _CODE_TREES:
        for path in sorted((_ROOT / tree_name).rglob("*.py")):
            for node in ast.walk(_parse(path.relative_to(_ROOT).as_posix())):
                if isinstance(node, ast.ClassDef):
                    found.setdefault(node.name, []).append(node)
    return found


def _members(cls: ast.ClassDef, seen=()) -> set[str]:
    """Names a class defines: methods, class attributes, dataclass fields,
    ``self.x`` assignments, and whatever its in-repo bases define."""
    names = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    for node in ast.walk(cls):
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
            else []
        )
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                names.add(target.attr)
    for base in cls.bases:
        base_name = getattr(base, "id", getattr(base, "attr", None))
        if base_name and base_name not in seen:
            for definition in _classes().get(base_name, ()):
                names |= _members(definition, seen + (cls.name,))
    return names


def _references():
    """``(doc, line, kind, text)`` for every checked reference."""
    for doc in _DOCS:
        name = doc.relative_to(_ROOT).as_posix()
        for number, line in enumerate(doc.read_text().splitlines(), 1):
            for span in _BACKTICKED.findall(line):
                words = span.split()
                if not words:
                    continue
                head = words[0]
                if _TEST_ID.fullmatch(head):
                    yield name, number, "test", head
                elif _PATH.fullmatch(head):
                    yield name, number, "path", head
                elif _MEMBER.fullmatch(span):
                    yield name, number, "member", span


def _problem(kind: str, text: str) -> str | None:
    """Why ``text`` does not resolve, or None when it does."""
    if kind == "path":
        return None if _resolve_path(text) else "no such file"
    if kind == "test":
        path, test = _TEST_ID.fullmatch(text).groups()
        files = [p for p in _resolve_path(path) if p.endswith(".py")]
        if not files:
            return "no such file"
        if any(test in _scopes(_parse(p)) for p in files):
            return None
        return f"{test} is not defined in {', '.join(files)}"
    cls_name, member = _MEMBER.fullmatch(text).groups()
    definitions = _classes().get(cls_name)
    if not definitions:
        return f"no class {cls_name}"
    if any(member in _members(definition) for definition in definitions):
        return None
    return f"{cls_name} has no member {member}"


def test_docs_are_checked():
    # The scan found something in every doc it is meant to check.
    checked = {doc for doc, _, _, _ in _references()}
    assert checked == {doc.relative_to(_ROOT).as_posix() for doc in _DOCS}


def test_every_doc_reference_resolves():
    dead = [
        f"{doc}:{line}: `{text}` ({problem})"
        for doc, line, kind, text in _references()
        if (problem := _problem(kind, text))
    ]
    assert not dead, "docs name what does not exist:\n" + "\n".join(dead)


@pytest.mark.parametrize(
    "kind, text",
    [
        ("test", "tests/test_docs.py::test_every_doc_reference_resolves"),
        ("path", "lsm/db.py"),
        ("member", "DB.range_query()"),
    ],
)
def test_a_real_reference_resolves(kind, text):
    assert _problem(kind, text) is None


@pytest.mark.parametrize(
    "kind, text",
    [
        ("test", "tests/test_docs.py::test_no_such_test"),
        ("test", "benchmarks/no_such_bench.py::test_x"),
        ("path", "lsm/no_such_module.py"),
        ("member", "DB.no_such_method()"),
        ("member", "NoSuchClass.get"),
    ],
)
def test_a_dead_reference_is_reported(kind, text):
    assert _problem(kind, text) is not None
