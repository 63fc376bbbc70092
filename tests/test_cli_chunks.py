"""Readings computed in forked children: the same output on every CPU count,
serial errors, no child left behind, and each reading's own quote vectors."""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import pytest

import aicnet.cli as cli
from aicnet.corpus import save_corpus
from aicnet.errors import AicnetError
from aicnet.synth import SynthParams, generate

from conftest import HASH_NOTE, Calls, run_cli, use_cpus, write_jsonl

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
    assert (code, out, err) == (1, "", HASH_NOTE + "error: r1 cannot be built\n")
    assert not finished.exists()


def _shared_id_corpus(path: Path, r2_text: str) -> Path:
    """Reading r1 holds q1 and q2, of nearly one text; A and C annotate q1 and
    B q2. Reading r2 holds its own q1, of ``r2_text``, and a q2 of r1's q2
    text; A annotates q1 and B q2."""
    text = "Learners build meaning together when they annotate {} shared text."
    return write_jsonl(path, [
        {"record": "quote", "id": "q1", "reading_id": "r1", "text": text.format("a")},
        {"record": "quote", "id": "q2", "reading_id": "r1", "text": text.format("the")},
        {"record": "quote", "id": "q1", "reading_id": "r2", "text": r2_text},
        {"record": "quote", "id": "q2", "reading_id": "r2", "text": text.format("the")},
        *({"id": f"{rid}-{author}", "reading_id": rid, "author_id": author, "kind": "annotation",
           "quote_id": qid, "body": "note"}
          for rid, author, qid in (("r1", "A", "q1"), ("r1", "B", "q2"), ("r1", "C", "q1"),
                                   ("r2", "A", "q1"), ("r2", "B", "q2"))),
    ])


@pytest.mark.parametrize("cpus", [1, 2])
def test_each_reading_hashes_the_texts_of_its_own_quotes(tmp_path, capfd, monkeypatch, cpus):
    import aicnet.semantic as semantic

    # r2's q1 must not stand in for r1's, whose vector joins A, B and C in a triangle
    path = _shared_id_corpus(tmp_path / "corpus.jsonl",
                             "Photosynthesis turns light into chemical energy.")
    hashed, hash_embed = Calls(tmp_path / "hashed"), semantic.hash_embed

    def counting_hash(text: str, dim: int = 256):
        hashed.add([os.getpid(), text])
        return hash_embed(text, dim)

    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(semantic, "hash_embed", counting_hash)
    header = "Reading,AN transitivity,IN centralization,CN transitivity\n"
    assert run_cli(capfd, "metrics", str(path), "--level", "network", "--reading", "r1") == (
        0, header + "r1,1.00,na,na\n", HASH_NOTE)
    hashed.clear()
    assert run_cli(capfd, "metrics", str(path), "--level", "network") == (
        0, header + "r1,1.00,na,na\nr2,na,na,na\n", HASH_NOTE)
    # each reading hashes the two texts it reads, so the q2 text both hold is
    # hashed twice, whether one process computes the readings or two do
    texts = [text for _, text in hashed.read()]
    assert len(texts) == 4 and len(set(texts)) == 3


@pytest.mark.parametrize("command", [["metrics", "--level", "network", "--reading", "r1"],
                                     ["compare", "r1", "r2"],
                                     ["build", "--reading", "r1", "--network", "an"]],
                         ids=["metrics", "compare", "build"])
def test_with_a_vector_file_a_quote_id_names_one_text(tmp_path, capsys, command):
    vectors = write_jsonl(tmp_path / "vectors.jsonl", [{"quote_id": "q1", "vector": [1.0, 0.0]},
                                                       {"quote_id": "q2", "vector": [1.0, 0.1]}])

    out = ["--out", str(tmp_path / "out")] if command[0] == "build" else []

    def run(r2_text: str) -> tuple[int, str, str]:
        path = _shared_id_corpus(tmp_path / "corpus.jsonl", r2_text)
        return run_cli(capsys, command[0], str(path), *command[1:], "--embeddings", str(vectors),
                       *out)

    assert run("Photosynthesis turns light into chemical energy.") == (
        1, "", "error: quote id 'q1' has different texts in readings 'r1' and 'r2', "
               "which one vector file cannot tell apart\n")
    # the same normalized text: both readings' q1 is one quote of the file
    assert run("learners build  meaning together when they annotate A shared text.")[0] == 0


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("command", [["metrics", "--level", "network"], ["compare", "r1", "r2"]],
                         ids=["metrics", "compare"])
def test_an_in_process_call_leaves_the_collector_as_it_was(capsys, monkeypatch, cpus, command):
    use_cpus(monkeypatch, cpus)
    before = gc.isenabled(), gc.get_freeze_count()
    code, _, err = run_cli(capsys, command[0], str(_DATA / "sample_corpus.jsonl"), *command[1:])
    assert (code, err) == (0, HASH_NOTE)
    assert (gc.isenabled(), gc.get_freeze_count()) == before
