"""The README states the package's public surface, and its examples run."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import aicnet

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_each_public_name_once():
    section = README.read_text(encoding="utf-8").split("### Public names\n\n", 1)[1]
    bullets = section.split("\n\n")[1]  # the paragraph after the introduction
    assert bullets.startswith("- ")
    listed = re.findall(r"`(\w+)`", bullets)
    assert sorted(listed) == sorted(aicnet.__all__)
    assert len(set(listed)) == len(listed)


def _blocks(language: str) -> list[str]:
    """The README's fenced code blocks of one language, in order."""
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


# the sample files that stand in for the README's placeholder paths
_DATA = Path(__file__).resolve().parent / "data"
_PATHS = {"corpus.jsonl": str(_DATA / "sample_corpus.jsonl"),
          "vectors.jsonl": str(_DATA / "sample_embeddings.jsonl")}


def test_readme_commands_run_on_the_sample_corpus(tmp_path, monkeypatch, capsys):
    from aicnet.cli import main

    block = next(b for b in _blocks("sh") if "aicnet validate" in b)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [[_PATHS.get(word, word) for word in argv] for argv in commands if argv]
    assert [argv[:2] for argv in commands] == [
        ["aicnet", "validate"], ["aicnet", "stats"], ["aicnet", "build"], ["aicnet", "metrics"],
        ["aicnet", "metrics"], ["aicnet", "compare"], ["aicnet", "synth"]]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    # the files the README says each command writes
    written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
    assert written >= {
        "reports/stats.csv", "reports/stats.json",
        "graphs/r1_an.graphml", "graphs/r1_an.dot",
        "reports/metrics_node_r1.csv", "reports/metrics_node_r1.json",
        "reports/metrics_node_r2.csv", "reports/metrics_node_r2.json",
        "synth/corpus.jsonl", "synth/embeddings.jsonl", "synth/ground_truth.json",
    }


def test_readme_library_snippet_runs_on_the_sample_corpus(capsys):
    (snippet,) = _blocks("python")
    for placeholder, path in _PATHS.items():
        snippet = snippet.replace(f'"{placeholder}"', repr(path))
    exec(compile(snippet, "README.md", "exec"), {})
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == len(aicnet.load_corpus(_PATHS["corpus.jsonl"]).authors)
