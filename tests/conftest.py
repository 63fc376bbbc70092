"""Shared fixture helpers: in-memory corpus assembly, JSONL writing, CSV
corpora and binary vector files written without aicnet, running the CLI,
reading graph exports back, recording calls across forked processes, the
environment for child interpreters and the benchmark's runner."""

from __future__ import annotations

import csv
import json
import os
import struct
import sys
from collections.abc import Sequence
from pathlib import Path

import pytest

import aicnet
from aicnet.cli import main
from aicnet.corpus import Artifact, Corpus, Quote, Reading
from aicnet.errors import CyclicThread, DanglingParent
from aicnet.graphs import WeightedGraph, edge_key

# the stderr line of a command that hashes quote vectors, at the default --dim
HASH_NOTE = ("note: no --embeddings file, so quote vectors come from the hash embedder "
             "at --dim 256\n")


def mk_corpus(
    quotes: list[tuple[str, str, str]],
    annotations: list[tuple[str, str, str, str, str]],
    replies: list[tuple[str, str, str, str, str]] = (),
) -> Corpus:
    """Assemble a corpus from shorthand tuples.

    quotes: (id, reading_id, text)
    annotations: (id, reading_id, author_id, quote_id, body)
    replies: (id, reading_id, author_id, parent_id, body)
    """
    corpus = Corpus()

    def reading(rid: str) -> Reading:
        return corpus.readings.setdefault(rid, Reading(id=rid))

    for qid, rid, text in quotes:
        reading(rid).quotes[qid] = Quote(id=qid, reading_id=rid, text=text)
    for aid, rid, author, qid, body in annotations:
        reading(rid).artifacts.append(
            Artifact(id=aid, author_id=author, reading_id=rid, kind="annotation",
                     body=body, quote_id=qid)
        )
        corpus.authors.add(author)
    for aid, rid, author, parent, body in replies:
        reading(rid).artifacts.append(
            Artifact(id=aid, author_id=author, reading_id=rid, kind="reply",
                     body=body, parent_id=parent)
        )
        corpus.authors.add(author)
    return corpus


def broken_chain_corpus() -> Corpus:
    """One reading whose reply chains break in every way a chain can.

    ``ok1`` is a valid reply to ``a2``; ``c3`` leads into the 2-cycle
    ``c1`` <-> ``c2``; ``s1`` replies to itself; ``d2`` -> ``d1`` ends at a
    missing parent. Author A writes only valid artifacts, B-G one broken
    reply each, H one annotation.
    """
    return mk_corpus(
        quotes=[("q1", "r1", "first passage"), ("q2", "r1", "second passage")],
        annotations=[("a1", "r1", "A", "q1", "note"), ("a2", "r1", "H", "q2", "note")],
        replies=[
            ("ok1", "r1", "A", "a2", "reply"),
            ("c3", "r1", "B", "c1", "reply"),
            ("c1", "r1", "C", "c2", "reply"),
            ("c2", "r1", "D", "c1", "reply"),
            ("s1", "r1", "E", "s1", "reply"),
            ("d2", "r1", "F", "d1", "reply"),
            ("d1", "r1", "G", "gone", "reply"),
        ],
    )


# artifact id -> its thread root's id, or the (error, artifact id) its chain hits
BROKEN_CHAIN_ROOTS: dict[str, str | tuple[type, str]] = {
    "a1": "a1", "a2": "a2", "ok1": "a2",
    "c3": (CyclicThread, "c3"), "c1": (CyclicThread, "c1"), "c2": (CyclicThread, "c2"),
    "s1": (CyclicThread, "s1"),
    "d2": (DanglingParent, "d1"), "d1": (DanglingParent, "d1"),
}


def write_jsonl(path: Path, records: list[dict]) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


_CSV_COLUMNS = ("record", "id", "reading_id", "author_id", "kind", "quote_id", "parent_id",
                "body", "ts", "text")


def write_csv_corpus(corpus: Corpus, path: Path) -> Path:
    """The corpus as a CSV file, written by ``csv.writer`` in its default
    dialect (CRLF row ends, as Excel writes them): a header, then per reading,
    by id, its quotes by id and its artifacts as stored; an absent field is an
    empty cell. aicnet reads CSV corpora and writes none."""
    rows = []
    for rid in sorted(corpus.readings):
        reading = corpus.readings[rid]
        rows += ({"record": "quote", "id": q.id, "reading_id": rid, "text": q.text}
                 for _, q in sorted(reading.quotes.items()))
        rows += ({"record": "artifact", **a._asdict()} for a in reading.artifacts)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        writer.writerows([row.get(column) for column in _CSV_COLUMNS] for row in rows)
    return path


def binary_vectors(vectors: dict[str | bytes, Sequence[float]], dim: int) -> bytes:
    """A binary vector file, packed with ``struct``: the magic bytes, ``dim``
    and the record count, then per record, in dict order, the id's byte length,
    the id (a str in UTF-8) and the components as float32. Each vector is
    packed at its own length, so a record may disagree with ``dim``."""
    parts = [b"AICEMB01", struct.pack("<II", dim, len(vectors))]
    for quote_id, vec in vectors.items():
        raw = quote_id.encode("utf-8") if isinstance(quote_id, str) else quote_id
        parts += [struct.pack("<H", len(raw)), raw, struct.pack(f"<{len(vec)}f", *vec)]
    return b"".join(parts)


@pytest.fixture
def jsonl_file(tmp_path):
    def write(records: list[dict], name: str = "corpus.jsonl") -> Path:
        return write_jsonl(tmp_path / name, records)

    return write


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``aicnet`` command run in process
    (``capsys`` or ``capfd``), which must leave no child process behind."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    return code, out, err


def read_export(path: Path) -> WeightedGraph:
    """The graph of a GraphML, JSON or DOT export, read back by
    ``networkx.read_graphml``, ``json.loads`` or ``oracles.oracle_read_dot``,
    none of which shares code with the writers. A directed graph, or an edge
    given twice, fails the read."""
    if path.suffix == ".dot":
        from oracles import oracle_read_dot

        return oracle_read_dot(path)
    if path.suffix == ".graphml":
        import networkx as nx

        h = nx.read_graphml(path)
        assert type(h) is nx.Graph, f"{path} is directed or repeats an edge"
        nodes, edges = list(h.nodes), list(h.edges(data="weight"))
    else:
        data = json.loads(path.read_bytes().decode("utf-8"))
        nodes = [node["id"] for node in data["nodes"]]
        edges = [(edge["source"], edge["target"], edge["weight"]) for edge in data["edges"]]
    g = WeightedGraph(nodes=set(nodes))
    for u, v, weight in edges:
        assert edge_key(u, v) not in g.edges, f"repeated edge {u} -- {v}"
        g.add_edge(u, v, weight)
    return g


def use_cpus(monkeypatch, n: int) -> None:
    """Let the commands run on ``n`` CPUs, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class Calls:
    """A log of calls that every process appends to, the children a command
    forks included: one JSON line per call, written with one ``os.write`` on an
    ``O_APPEND`` descriptor, so lines of several processes never mix."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.clear()

    def add(self, value: object) -> None:
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, (json.dumps(value) + "\n").encode("utf-8"))
        finally:
            os.close(fd)

    def read(self) -> list:
        return [json.loads(line) for line in self.path.read_text(encoding="utf-8").splitlines()]

    def clear(self) -> None:
        self.path.write_bytes(b"")


def child_env() -> dict[str, str]:
    """Environment for a child Python that must import the ``aicnet`` under test.

    The directory holding the imported package (``src`` in a checkout, or
    site-packages for an install) is prepended to ``PYTHONPATH`` as an
    absolute path, so the child finds it whatever its working directory; a
    relative entry such as ``src`` would resolve against the child's cwd.
    Other entries keep their order. ``PYTHONHASHSEED`` is left as inherited,
    so separate children still draw independent hash seeds.
    """
    env = dict(os.environ)
    root = str(Path(aicnet.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([root, inherited]) if inherited else root
    return env


@pytest.fixture(scope="module")
def bench():
    """``benchmarks/run.py``, imported from its directory with its siblings."""
    folder = str(Path(__file__).resolve().parents[1] / "benchmarks")
    sys.path.insert(0, folder)
    try:
        import run

        yield run
    finally:
        sys.path.remove(folder)
