"""Fuzzing and scale checks across module boundaries."""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from aicnet.cli import main
from aicnet.corpus import load_corpus, save_corpus
from aicnet.errors import AicnetError
from aicnet.graphs import WeightedGraph
from aicnet.metrics import betweenness, closeness
from aicnet.semantic import save_embeddings
from aicnet.synth import SynthParams, generate, random_params, verify

from conftest import write_jsonl


_FIELDS = ["id", "reading_id", "author_id", "kind", "quote_id", "parent_id", "body", "ts", "record", "text"]


@st.composite
def mangled_records(draw):
    """Well-formed records with random fields dropped, blanked, or retyped."""
    records = [
        {"record": "quote", "id": "q1", "reading_id": "r1", "text": "A passage."},
        {"id": "a1", "reading_id": "r1", "author_id": "A", "kind": "annotation",
         "quote_id": "q1", "body": "note"},
        {"id": "p1", "reading_id": "r1", "author_id": "B", "kind": "reply",
         "parent_id": "a1", "body": ""},
    ]
    for _ in range(draw(st.integers(0, 4))):
        rec = draw(st.sampled_from(records))
        field = draw(st.sampled_from(_FIELDS))
        action = draw(st.sampled_from(["drop", "blank", "retype", "rename"]))
        if action == "drop":
            rec.pop(field, None)
        elif action == "blank":
            rec[field] = ""
        elif action == "retype":
            rec[field] = draw(st.sampled_from([None, 7, ["x"], {"y": 1}]))
        else:
            rec[field] = draw(st.sampled_from(["zzz", "a1", "q1", "r2", "annotation", "reply"]))
    return records


@settings(max_examples=120, deadline=None)
@given(mangled_records())
def test_loader_never_leaks_raw_exceptions(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("fuzz") / "corpus.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    try:
        corpus = load_corpus(path)
    except AicnetError:
        return  # rejected cleanly
    # accepted corpora must round-trip
    out = path.with_suffix(".again.jsonl")
    save_corpus(corpus, out)
    assert load_corpus(out) == corpus


def test_semester_scale_corpus_end_to_end(tmp_path, capsys):
    """A full semester of a 13-student class: 18 readings with ~26 replies
    each, run end to end through the CLI."""
    rng = random.Random(4096)
    authors = [f"s{i:02d}" for i in range(1, 14)]
    parts = []
    for week in range(18):
        rid = f"w{week + 1:02d}"
        shuffled = authors[:]
        rng.shuffle(shuffled)
        blocks, i = [], 0
        while i < len(shuffled):
            size = min(rng.randint(2, 4), len(shuffled) - i)
            blocks.append(tuple(shuffled[i : i + size]))
            i += size
        replies = tuple(
            (rng.choice(authors), rng.choice(authors)) for _ in range(26)
        )
        overlap = {}
        for _ in range(4):
            u, v = rng.sample(authors, 2)
            overlap[(u, v)] = rng.randint(1, 2)
        params = SynthParams(
            n_quotes=len(blocks) + 10, attention_blocks=tuple(blocks),
            reply_edges=replies, vocab_overlap=overlap, seed=week,
        )
        corpus, store, gt = generate(params, reading_id=rid, id_prefix=f"{rid}-")
        assert verify(corpus, store, gt, reading_id=rid).passed
        part = tmp_path / f"{rid}.jsonl"
        save_corpus(corpus, part)
        parts.append((part, store))

    corpus_path = tmp_path / "semester.jsonl"
    corpus_path.write_bytes(b"".join(p.read_bytes() for p, _ in parts))
    merged = parts[0][1]
    for _, store in parts[1:]:
        merged.vectors.update(store.vectors)
    emb_path = tmp_path / "semester_emb.jsonl"
    save_embeddings(merged, emb_path)

    code = main(["metrics", str(corpus_path), "--level", "network",
                 "--embeddings", str(emb_path)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert len(out.splitlines()) == 19  # header + 18 readings

    code = main(["stats", str(corpus_path)])
    out, _ = capsys.readouterr()
    assert code == 0
    posts_row = out.splitlines()[1].split(",")
    assert posts_row[0] == "Posts"
    assert all(int(c) >= 13 for c in posts_row[1:])  # one annotation per author, plus pads


def test_metrics_reading_filter(tmp_path, capsys):
    c1, s1, _ = generate(random_params(5), reading_id="rA", id_prefix="a-")
    c2, s2, _ = generate(random_params(6), reading_id="rB", id_prefix="b-")
    p1, p2 = tmp_path / "1.jsonl", tmp_path / "2.jsonl"
    save_corpus(c1, p1)
    save_corpus(c2, p2)
    both = tmp_path / "both.jsonl"
    both.write_bytes(p1.read_bytes() + p2.read_bytes())
    s1.vectors.update(s2.vectors)
    emb = tmp_path / "emb.jsonl"
    save_embeddings(s1, emb)

    code = main(["metrics", str(both), "--level", "network", "--reading", "rB",
                 "--embeddings", str(emb)])
    out, _ = capsys.readouterr()
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("rB,")


def test_edge_weights_do_not_move_node_measures():
    rng = random.Random(99)
    for seed in range(15):
        g = WeightedGraph()
        n = rng.randint(3, 8)
        names = [f"v{i}" for i in range(n)]
        g.nodes.update(names)
        for i, u in enumerate(names):
            for v in names[i + 1 :]:
                if rng.random() < 0.5:
                    g.add_edge(u, v, rng.choice([0.5, 1.0, 2.0, 4.0]))
        skeleton = WeightedGraph(nodes=set(g.nodes), edges=dict.fromkeys(g.edges, 1.0))
        for v in names:
            assert betweenness(g, v) == betweenness(skeleton, v), (seed, v)
            assert closeness(g, v) == closeness(skeleton, v), (seed, v)
