"""Readings computed in forked children: the same output on every CPU count,
serial errors, and no child left behind."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import aicnet.cli as cli
from aicnet.corpus import save_corpus
from aicnet.errors import AicnetError
from aicnet.synth import SynthParams, generate

from conftest import Calls, run_cli, use_cpus

_DATA = Path(__file__).parent / "data"


def _synth_readings(tmp_path: Path, n: int) -> Path:
    """A corpus of ``n`` synthetic readings over one five-author roster, each
    with its own seed, attention blocks, reply chain and shared words."""
    chain = (("s01", "s02"), ("s02", "s03"), ("s03", "s04"), ("s04", "s05"), ("s05", "s01"))
    parts = []
    for i in range(1, n + 1):
        blocks = ((("s01", "s02", "s03"), ("s04", "s05")) if i % 2
                  else (("s01", "s04"), ("s02", "s03", "s05")))
        corpus, _, _ = generate(
            SynthParams(n_quotes=2 + i % 3, attention_blocks=blocks,
                        reply_edges=chain[:i % 4 + 1] + chain[4:] * (i % 2),
                        vocab_overlap={("s01", "s05"): i % 3, ("s02", "s04"): 1 + i % 2,
                                       ("s03", "s05"): 2},
                        seed=40 + i),
            reading_id=f"r{i}", id_prefix=f"r{i}-",
        )
        part = tmp_path / f"part{i}.jsonl"
        save_corpus(corpus, part)
        parts.append(part.read_bytes())
    path = tmp_path / f"synth{n}.jsonl"
    path.write_bytes(b"".join(parts))
    return path


def _files(folder: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir())} if folder.exists() else {}


@pytest.mark.parametrize("corpus", ["sample", 3, 7])
@pytest.mark.parametrize("command", [["metrics", "--level", "node"],
                                     ["metrics", "--level", "network"],
                                     ["compare", "r2", "r1"]])
def test_every_cpu_count_gives_the_same_output(tmp_path, capfd, monkeypatch, corpus, command):
    path = _DATA / "sample_corpus.jsonl" if corpus == "sample" else _synth_readings(tmp_path, corpus)
    seen = []
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / f"out{cpus}"
        argv = [command[0], str(path), *command[1:], "--min-freq", "1", "--drop-lowest", "0"]
        if command[0] == "metrics":
            argv += ["--out", str(out)]
        # capfd: a forked child writes nothing to fd 1 or 2
        seen.append((run_cli(capfd, *argv), _files(out)))
    assert seen[0][0][0] == 0, seen[0][0][2]
    assert seen[1] == seen[0] and seen[2] == seen[0]


def test_a_failure_in_a_later_chunk_is_the_serial_error(tmp_path, capfd, monkeypatch):
    lines = (_DATA / "sample_embeddings.jsonl").read_text(encoding="utf-8").splitlines()
    vectors = tmp_path / "r1_only.jsonl"
    vectors.write_text("".join(line + "\n" for line in lines
                               if json.loads(line)["quote_id"].startswith("r1-")),
                       encoding="utf-8")
    for command in (["metrics", "--level", "network"], ["metrics", "--level", "node"],
                    ["compare", "r1", "r2"]):
        argv = [command[0], str(_DATA / "sample_corpus.jsonl"), *command[1:],
                "--embeddings", str(vectors)]
        seen = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            seen.append(run_cli(capfd, *argv))  # the child's error is not printed by the child
        assert seen[0][0] == 1 and seen[0][2].startswith("error: ") and "r2-" in seen[0][2]
        assert seen[1] == seen[0]


def test_a_chunk_that_cannot_be_forked_is_computed_here(tmp_path, capsys, monkeypatch):
    path = _synth_readings(tmp_path, 3)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    use_cpus(monkeypatch, 1)
    serial = run_cli(capsys, "metrics", str(path), "--level", "node")
    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(cli.os, "fork", no_fork)
    assert run_cli(capsys, "metrics", str(path), "--level", "node") == serial
    assert serial[0] == 0


def test_a_failure_in_the_first_chunk_kills_the_children(tmp_path, capsys, monkeypatch):
    finished = tmp_path / "finished"
    real = cli.build_in

    def build_in(reading, corpus):
        if reading.id == "r1":  # the first chunk, computed by the command's own process
            raise AicnetError("r1 cannot be built")
        time.sleep(1.0)
        finished.touch()  # reached only by a child that is not killed
        return real(reading, corpus)

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "build_in", build_in)
    code, out, err = run_cli(capsys, "metrics", str(_DATA / "sample_corpus.jsonl"),
                             "--level", "network")
    assert (code, out, err) == (1, "", "error: r1 cannot be built\n")
    assert not finished.exists()
