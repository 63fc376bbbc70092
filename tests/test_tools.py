"""Repository tools that guard the tests themselves."""

from __future__ import annotations

import ast
import os
import runpy
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator

REPO = Path(__file__).resolve().parents[1]
TOOLS = REPO / "tools"


def test_every_mutant_anchor_matches_once():
    assert runpy.run_path(str(TOOLS / "mutants.py"))["anchor_errors"]() == []


# what tests/oracles.py may take from aicnet: records, errors and the bundled word lists
_ORACLE_IMPORTS = {
    "aicnet.corpus": {"Artifact", "Corpus", "Quote", "Reading"},
    "aicnet.graphs": {"BipartiteGraph", "WeightedGraph"},
    "aicnet.metrics": {"NodeMetricsRow"},
    "aicnet.semantic": {"EmbeddingStore", "JointPair"},
    "aicnet.textpipe": {"SelectedWord", "WordSelectionParams", "_NOUN_SUFFIXES",
                        "default_noun_lexicon", "default_stopwords"},
}


def test_the_oracles_import_no_computing_code_from_aicnet():
    tree = ast.parse((REPO / "tests" / "oracles.py").read_text(encoding="utf-8"))
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            taken += [(alias.name, None) for alias in node.names if alias.name.startswith("aicnet")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("aicnet"):
            taken += [(node.module, alias.name) for alias in node.names]
    assert taken, "no import from aicnet found"
    assert [(module, name) for module, name in taken if not (
        module == "aicnet.errors" or name in _ORACLE_IMPORTS.get(module, ()))] == []


def _files(folder: Path) -> dict[str, bytes]:
    return {p.relative_to(folder).as_posix(): p.read_bytes()
            for p in sorted(folder.rglob("*")) if p.is_file()}


def test_fixtures_are_what_the_fixture_tool_writes(tmp_path):
    # the tool rewrites tests/data and tests/golden in a copy; no byte may change
    parts = ("src", "tools/make_fixtures.py", "tests/oracles.py", "tests/data", "tests/golden")
    for part in parts:
        if (REPO / part).is_dir():
            shutil.copytree(REPO / part, tmp_path / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        else:
            (tmp_path / part).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(REPO / part, tmp_path / part)
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
    subprocess.run([sys.executable, str(tmp_path / "tools" / "make_fixtures.py")],
                   cwd=tmp_path, env=env, check=True, capture_output=True)
    for folder in ("tests/data", "tests/golden"):
        want, got = _files(REPO / folder), _files(tmp_path / folder)
        assert sorted(got) == sorted(want), folder
        assert [name for name in want if got[name] != want[name]] == [], folder


# argparse calls it; nothing in the repository names it
_CALLED_FROM_OUTSIDE = {"_Parser._print_message"}


def _names(node: ast.AST) -> Counter:
    """Each name used under ``node``: a ``Name``, an attribute, an imported
    name or alias, or a string constant that is an identifier."""
    used: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            used.update({sub.name.rpartition(".")[2], sub.asname} - {None})
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            used[sub.value] += 1
    return used


def _definitions(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """The module's top-level functions and classes and its classes' methods,
    each with its qualified name; ``__x__`` names are left out, as Python
    calls them."""
    def named(node: ast.AST) -> bool:
        return not (node.name.startswith("__") and node.name.endswith("__"))

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and named(node):
            yield node.name, node
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and named(sub):
                    yield f"{node.name}.{sub.name}", sub


def test_every_src_definition_is_named_outside_itself():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "tests", "demos", "tools", "benchmarks")
             for path in sorted((REPO / folder).rglob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = [f"{path.relative_to(REPO).as_posix()}:{qualified}"
              for path, tree in trees.items() if REPO / "src" / "aicnet" in path.parents
              for qualified, node in _definitions(tree)
              if qualified not in _CALLED_FROM_OUTSIDE
              and used[node.name] == _names(node)[node.name]]
    assert unused == []
