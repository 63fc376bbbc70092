#!/usr/bin/env python3
"""Hand-made mutants of the library, each of which its tests must catch.

Each entry is ``(file, old, new, tests)``: a source file relative to the
repository root, a string that occurs in it exactly once, its replacement, and
the pytest node ids that must fail once the replacement is made. For every
entry the runner copies the tree to a temporary directory, applies the
substitution there and runs the tests with a fixed hypothesis seed. A mutant
is caught when pytest reports failed tests (exit 1); passing tests, a
collection error or an unknown node id count against it. An ``old`` string
that does not occur exactly once is an error, not a skip. The tests are first
run once on the unmutated copy, where they must pass.

Stdlib only. Usage: python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


_AN = "tests/test_graphs.py::"
MUTANTS: list[Mutant] = [
    # attention network: score pairs one author holds alone
    Mutant("src/aicnet/graphs.py",
           "scored = later[other & ((sole[i + 1 :] != sole[i]) | (sole[i] is None))]",
           "scored = later[other]",
           (_AN + "test_build_an_reads_no_vector_the_oracle_skips",)),
    # same-text pairs found only through the row product
    Mutant("src/aicnet/graphs.py",
           "hits = {int(j): 1.0 for j in later[~other]}", "hits = {}",
           (_AN + "test_build_an_equals_pairwise_oracle",)),
    # NaN rows rejected by the prefilter, so no vector error is raised
    Mutant("src/aicnet/graphs.py", "scored[~(row < cut)]", "scored[row >= cut]",
           (_AN + "test_build_an_vector_errors_match_oracle",)),
    # zero norms reach the division, which warns
    Mutant("src/aicnet/graphs.py", "    norms[norms == 0.0] = np.nan\n", "",
           (_AN + "test_build_an_with_one_defective_vector_equals_oracle",)),
    # a vector of another length copied into its row
    Mutant("src/aicnet/graphs.py",
           "if vec is not None and vec.shape == (store.dim,):", "if vec is not None:",
           (_AN + "test_build_an_vector_errors_match_oracle",)),
    # a reshape that cannot infer a width when no quote is attended
    Mutant("src/aicnet/graphs.py",
           "x = np.full((n, store.dim), np.nan)", "x = np.full((n, store.dim), np.nan).reshape(n, -1)",
           (_AN + "test_build_an_reading_without_artifacts_keeps_roster_isolates",
            "tests/test_cli.py::test_metrics_network_level_reading_with_only_a_quote")),
    # build --format: a repeated format written twice
    Mutant("src/aicnet/cli.py",
           'list(dict.fromkeys(f.strip() for f in args.format.split(",") if f.strip()))',
           '[f.strip() for f in args.format.split(",") if f.strip()]',
           ("tests/test_cli.py::test_build_writes_a_repeated_format_once",)),
    # build --format: an empty list accepted
    Mutant("src/aicnet/cli.py",
           '    if not requested:\n        raise AicnetError("no export format given")\n', "",
           ("tests/test_cli.py::test_build_rejects_an_empty_format_list",)),
    # synth: the kept block texts hashed a second time for the store
    Mutant("src/aicnet/synth.py", "vectors={q.id: vector_of[q.text] for",
           "vectors={q.id: hash_embed(q.text, dim) for",
           ("tests/test_synth.py::test_generate_hashes_each_text_once",)),
]


def anchor_errors(root: Path = REPO) -> list[str]:
    """One message per entry whose ``old`` string does not occur exactly once,
    that changes nothing, or that names a test function its file lacks."""
    errors = []
    for m in MUTANTS:
        count = (root / m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            errors.append(f"{m.file}: {m.old!r} occurs {count} times")
        if m.old == m.new:
            errors.append(f"{m.file}: {m.old!r} is replaced by itself")
        for node in m.tests:
            path, _, name = node.partition("::")
            if f"def {name.split('[')[0]}(" not in (root / path).read_text(encoding="utf-8"):
                errors.append(f"{m.file}: test {node} not found")
    return errors


def _pytest(tree: Path, tests: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *tests]
    return subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    errors = anchor_errors()
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        return 1
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                    "_work", "*.egg-info")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(REPO, tree, ignore=ignore)
        clean = _pytest(tree, sorted({t for m in MUTANTS for t in m.tests}))
        if clean != 0:
            print(f"error: the tests fail on the unmutated tree (pytest exit {clean})",
                  file=sys.stderr)
            return 1
        survived = 0
        for m in MUTANTS:
            source = tree / m.file
            original = source.read_text(encoding="utf-8")
            source.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                code = _pytest(tree, list(m.tests))
            finally:
                source.write_text(original, encoding="utf-8")
            verdict = "caught" if code == 1 else f"NOT CAUGHT (pytest exit {code})"
            survived += code != 1
            print(f"{verdict}: {m.file}: {m.old.strip().splitlines()[0]}")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
