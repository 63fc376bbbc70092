#!/usr/bin/env python3
"""Regenerate the bundled sample corpus and the golden report and export files.

The sample is a 13-author class over two synthetic readings. Golden CSVs are
frozen only after the node-level numbers are re-derived with the brute-force
oracles in tests/oracles.py, so the goldens never encode a library bug.

The ``build`` goldens hold every network of both readings in all four export
formats, and one AN JSON export of reading r1 under a small file of bridge
vectors: seeded directions under which s13, who shares no quote text with
anyone, attends a quote similar to two others, so the file, not hash vectors,
decides some of its edges and their summed weights. The ``--roster all``
goldens export reading r1 of the widened corpus, the sample plus a reading r3
whose one author, s99, is active nowhere else, so s99 joins each r1 network as
an isolate.

The non-ASCII corpus holds two hand-written readings whose quotes and bodies
are in French, German, Greek and Chinese: ``'`` and ``-`` at word edges,
suffix-rule nouns such as ``éducation``, quotes that differ only in case or
whitespace (twins), and ``Straße`` against ``STRASSE`` (no twins). Its goldens
are the stdout of ``metrics`` at both levels and of ``compare``, under hash
vectors.

Usage: python tools/make_fixtures.py
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tests"))

from aicnet.corpus import load_corpus, save_corpus
from aicnet.graphs import build_an, build_cn_bipartite, build_in, project
from aicnet.metrics import node_report
from aicnet.semantic import EmbeddingStore, embed_quotes, load_embeddings, save_embeddings
from aicnet.synth import SynthParams, generate, verify

from oracles import oracle_betweenness, oracle_closeness

DATA = REPO / "tests" / "data"
GOLDEN = REPO / "tests" / "golden"
EXPORTS = GOLDEN / "exports"

# r1-q5, which s13 alone attends, shares half its direction with r1-q1 and r1-q4
BRIDGED = ("r1-q1", "r1-q4", "r1-q5")
BRIDGE_SEED = 4
BRIDGE_DIM = 8

# reading r3 of the widened corpus: one quote, annotated by s99 alone
WIDENING = (
    {"record": "quote", "id": "r3-q1", "reading_id": "r3", "text": "extra reading"},
    {"id": "r3-a1", "reading_id": "r3", "author_id": "s99", "kind": "annotation",
     "quote_id": "r3-q1", "body": "only active in r3"},
)

# (reading, [(quote id, text)], [(artifact id, author, quote or parent id, body)]);
# an artifact whose third field names an artifact is a reply
UNICODE_READINGS = (
    ("r1", [
        ("r1-q1", "L'éducation est un événement."),
        ("r1-q2", "l'ÉDUCATION   est un\tévénement."),
        ("r1-q3", "Große Straße"),
        ("r1-q4", "GROSSE STRASSE"),
        ("r1-q5", "学习共同体与知识建构"),
        ("r1-q6", "Η γνώση είναι κοινή"),
        ("r1-q7", "η  ΓΝΏΣΗ  είναι κοινή"),
    ], [
        ("r1-a1", "anaïs", "r1-q1",
         "'Éducation' et événement: l'éducation crée un -événement- et une émotion; "
         "expérience, éducation, émotion!"),
        ("r1-a2", "björn", "r1-q2",
         "Die Erziehung ist ein événement, eine expérience: éducation -éducation- "
         "co-création."),
        ("r1-a3", "chloé", "r1-q3",
         "Straße, Straßenbahn und Erinnerung: émotion, émotion, présence 'présence'."),
        ("r1-a4", "δήμητρα", "r1-q4",
         "STRASSE — η μνήμη, présence, expérience et co-création, γνώση."),
        ("r1-a5", "王芳", "r1-q5",
         "学习共同体：connaissance、connaissance、éducation 与 événements。"),
        ("r1-a6", "zoë", "r1-q6",
         "η γνώση — connaissance' et 'expérience', présence, évaluation."),
        ("r1-a7", "jürgen", "r1-q7",
         "ΓΝΏΣΗ: évaluation, évaluation, connaissance, co-création; l’éducation."),
        ("r1-a8", "anaïs", "r1-q6",
         "γνώση et éducation: événements, évaluations, émotion."),
        ("r1-p1", "björn", "r1-a1", "-Événement- et émotion? Oui: expérience, co-création."),
        ("r1-p2", "chloé", "r1-a2", "éducation! présence, connaissance; Erziehung."),
        ("r1-p3", "zoë", "r1-a5", "知识 — connaissance, évaluation, événement."),
        ("r1-p4", "anaïs", "r1-p3", "présence 'émotion' et expérience."),
    ]),
    ("r2", [
        ("r2-q1", "La rédaction du mouvement"),
        ("r2-q2", "LA RÉDACTION  DU MOUVEMENT"),
        ("r2-q3", "Αρχή της μάθησης"),
        ("r2-q4", "Fußball auf der Straße"),
        ("r2-q5", "fussball auf der strasse"),
    ], [
        ("r2-a1", "anaïs", "r2-q1",
         "rédaction, mouvement, 'développement' et -rédaction-; organisation, situation."),
        ("r2-a2", "chloé", "r2-q2",
         "Rédaction: mouvement, mouvements, communication, développement, événement."),
        ("r2-a3", "zoë", "r2-q3",
         "μάθηση — différence, organisation, rédaction, l’expérience, communication."),
        ("r2-a4", "王芳", "r2-q4",
         "足球：situation, développement, expérience, expérience, événements."),
        ("r2-a5", "jürgen", "r2-q5",
         "Fußball, Straße: différence, différence, situation, mouvement, organisation."),
        ("r2-p1", "zoë", "r2-a1", "développement' et 'mouvement: expérience, communication."),
        ("r2-p2", "anaïs", "r2-a4", "différence — événement — situation — organisation."),
        ("r2-p3", "jürgen", "r2-a2", "expérience, communication, différence, événement!"),
        ("r2-p4", "王芳", "r2-p3", "situation; organisation; événement; rédaction."),
    ]),
)

AUTHORS = tuple(f"s{i:02d}" for i in range(1, 14))

READING_1 = SynthParams(
    n_quotes=8,
    attention_blocks=(
        ("s01", "s02", "s03", "s04", "s05"),
        ("s06", "s07", "s08", "s09"),
        ("s10", "s11"),
        ("s12",),
        ("s13",),
    ),
    reply_edges=(
        ("s01", "s02"), ("s01", "s02"), ("s01", "s02"),
        ("s01", "s03"), ("s02", "s03"), ("s02", "s03"),
        ("s04", "s05"), ("s06", "s07"), ("s06", "s07"),
        ("s06", "s08"), ("s10", "s11"), ("s01", "s06"),
        ("s12", "s01"),
    ),
    vocab_overlap={
        ("s01", "s02"): 2,
        ("s02", "s03"): 1,
        ("s06", "s07"): 1,
        ("s10", "s11"): 1,
        ("s04", "s06"): 1,
    },
    seed=311,
)

READING_2 = SynthParams(
    n_quotes=6,
    attention_blocks=(
        ("s01", "s03", "s05", "s07", "s09"),
        ("s02", "s04", "s06"),
        ("s08", "s10"),
        ("s11",),
        ("s12",),
        ("s13",),
    ),
    reply_edges=(
        ("s01", "s03"), ("s03", "s05"), ("s05", "s07"),
        ("s02", "s04"), ("s02", "s06"), ("s08", "s10"),
        ("s11", "s02"), ("s01", "s09"),
    ),
    vocab_overlap={
        ("s01", "s05"): 1,
        ("s03", "s07"): 2,
        ("s02", "s06"): 1,
    },
    seed=612,
)


def build_sample() -> tuple[Path, Path]:
    DATA.mkdir(parents=True, exist_ok=True)
    c1, s1, gt1 = generate(READING_1, reading_id="r1", id_prefix="r1-")
    c2, s2, gt2 = generate(READING_2, reading_id="r2", id_prefix="r2-")
    for corpus, store, gt, rid in ((c1, s1, gt1, "r1"), (c2, s2, gt2, "r2")):
        report = verify(corpus, store, gt, reading_id=rid)
        assert report.passed, f"{rid}: {report.summary()}"

    part1, part2 = DATA / "_part1.jsonl", DATA / "_part2.jsonl"
    save_corpus(c1, part1)
    save_corpus(c2, part2)
    corpus_path = DATA / "sample_corpus.jsonl"
    corpus_path.write_bytes(part1.read_bytes() + part2.read_bytes())
    part1.unlink()
    part2.unlink()

    s1.vectors.update(s2.vectors)
    emb_path = DATA / "sample_embeddings.jsonl"
    save_embeddings(s1, emb_path)
    return corpus_path, emb_path


def oracle_check(corpus_path: Path, emb_path: Path) -> None:
    corpus = load_corpus(corpus_path)
    store = load_embeddings(emb_path)
    roster = set(corpus.authors)
    assert len(roster) == 13
    for rid in sorted(corpus.readings):
        reading = corpus.readings[rid]
        an = build_an(reading, corpus, store)
        in_ = build_in(reading, corpus)
        cn = project(build_cn_bipartite(reading, corpus))
        for row in node_report(an, in_, cn, roster):
            for got, graph, oracle in (
                (row.an_closeness, an, oracle_closeness),
                (row.in_betweenness, in_, oracle_betweenness),
                (row.cn_betweenness, cn, oracle_betweenness),
            ):
                want = oracle(graph, row.author_id) if row.author_id in graph.nodes else None
                if got is None or want is None:
                    assert got is None and want is None, (rid, row.author_id)
                else:
                    assert abs(got - want) <= 1e-9, (rid, row.author_id, got, want)
    print("oracle cross-check passed for node metrics on both readings")


def build_bridge_vectors(corpus_path: Path) -> Path:
    """Vectors for reading r1's quotes, each component a seeded Gaussian
    rounded to 6 decimals: noise alone, or for the BRIDGED quotes one shared
    draw plus half their own noise."""
    rng = random.Random(BRIDGE_SEED)

    def draw() -> list[float]:
        return [rng.gauss(0.0, 1.0) for _ in range(BRIDGE_DIM)]

    shared = draw()
    vectors = {}
    for qid in sorted(load_corpus(corpus_path).readings["r1"].quotes):
        noise = draw()
        vectors[qid] = [round(s + 0.5 * x, 6) if qid in BRIDGED else round(x, 6)
                        for s, x in zip(shared, noise)]
    path = DATA / "bridge_embeddings.jsonl"
    save_embeddings(EmbeddingStore(dim=BRIDGE_DIM, vectors=vectors), path)
    return path


def bridge_check(corpus_path: Path, bridge_path: Path) -> None:
    corpus = load_corpus(corpus_path)
    r1 = corpus.readings["r1"]
    hashed = build_an(r1, corpus, embed_quotes(r1.quotes.values()))
    bridged = build_an(r1, corpus, load_embeddings(bridge_path))
    assert set(hashed.edges) < set(bridged.edges), "the bridge vectors add no AN edge"
    print(f"bridge vectors add {len(bridged.edges) - len(hashed.edges)} AN edges to r1")


def build_widened(corpus_path: Path) -> Path:
    path = DATA / "widened_corpus.jsonl"
    extra = "".join(json.dumps(rec) + "\n" for rec in WIDENING)
    path.write_bytes(corpus_path.read_bytes() + extra.encode("utf-8"))
    return path


def build_unicode() -> Path:
    path = DATA / "unicode_corpus.jsonl"
    lines = []
    for rid, quotes, artifacts in UNICODE_READINGS:
        lines += [{"record": "quote", "id": qid, "reading_id": rid, "text": text}
                  for qid, text in quotes]
        for aid, author, target, body in artifacts:
            kind, link = (("annotation", "quote_id") if target in dict(quotes)
                          else ("reply", "parent_id"))
            lines.append({"id": aid, "reading_id": rid, "author_id": author, "kind": kind,
                          link: target, "body": body})
    path.write_bytes("".join(json.dumps(line, ensure_ascii=False) + "\n"
                             for line in lines).encode("utf-8"))
    return path


def _cli(*args: str) -> bytes:
    return subprocess.run([sys.executable, "-m", "aicnet.cli", *args],
                          capture_output=True, check=True).stdout


def freeze_build_goldens(corpus_path: Path, emb_path: Path, bridge_path: Path,
                         widened_path: Path) -> None:
    every_format = ("--format", "graphml,dot,csv,json", "--embeddings", str(emb_path))
    for network in ("an", "in", "cn"):
        for rid in ("r1", "r2"):
            _cli("build", str(corpus_path), "--reading", rid, "--network", network,
                 *every_format, "--out", str(EXPORTS))
        _cli("build", str(widened_path), "--reading", "r1", "--network", network,
             "--roster", "all", *every_format, "--out", str(EXPORTS / "roster_all"))
    _cli("build", str(corpus_path), "--reading", "r1", "--network", "an", "--format", "json",
         "--embeddings", str(bridge_path), "--out", str(EXPORTS / "bridged"))


def freeze_goldens(corpus_path: Path, emb_path: Path) -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    runs = [
        (["metrics", str(corpus_path), "--level", "node",
          "--embeddings", str(emb_path), "--out", str(GOLDEN)], None),
        (["metrics", str(corpus_path), "--level", "network",
          "--embeddings", str(emb_path), "--out", str(GOLDEN)], None),
        (["stats", str(corpus_path), "--out", str(GOLDEN)], None),
        (["compare", str(corpus_path), "r1", "r2", "--embeddings", str(emb_path)],
         GOLDEN / "compare_r1_r2.txt"),
    ]
    for args, stdout_golden in runs:
        stdout = _cli(*args)
        if stdout_golden is None:
            sys.stdout.buffer.write(stdout)
        else:
            stdout_golden.write_bytes(stdout)
    for leftover in GOLDEN.glob("*.json"):
        leftover.unlink()  # goldens are the display CSVs only


def freeze_unicode_goldens(unicode_path: Path) -> None:
    folder = GOLDEN / "unicode"
    folder.mkdir(parents=True, exist_ok=True)
    for args, name in ((["metrics", "--level", "network"], "metrics_network.txt"),
                       (["metrics", "--level", "node"], "metrics_node.txt"),
                       (["compare", "r1", "r2"], "compare_r1_r2.txt")):
        (folder / name).write_bytes(_cli(args[0], str(unicode_path), *args[1:]))


def main() -> None:
    corpus_path, emb_path = build_sample()
    oracle_check(corpus_path, emb_path)
    bridge_path = build_bridge_vectors(corpus_path)
    bridge_check(corpus_path, bridge_path)
    widened_path = build_widened(corpus_path)
    freeze_goldens(corpus_path, emb_path)
    freeze_build_goldens(corpus_path, emb_path, bridge_path, widened_path)
    unicode_path = build_unicode()
    freeze_unicode_goldens(unicode_path)
    for path in (corpus_path, emb_path, bridge_path, widened_path, unicode_path,
                 *sorted(GOLDEN.rglob("*.*"))):
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
