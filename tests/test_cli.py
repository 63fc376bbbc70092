"""CLI commands: exit codes, table layouts, exports, determinism."""

from __future__ import annotations

import errno
import json
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from aicnet.corpus import load_corpus, normalize_text, save_corpus
from aicnet.semantic import embed_quotes, load_embeddings, save_embeddings
from aicnet.synth import SynthParams, generate, verify
from aicnet.textpipe import WordSelectionParams

from conftest import (
    HASH_NOTE,
    Calls,
    binary_vectors,
    child_env,
    read_export,
    run_cli,
    use_cpus,
    write_csv_corpus,
)


@pytest.fixture
def sample(tmp_path):
    """Two synthetic readings over one author roster, saved as files."""
    params_r1 = SynthParams(
        n_quotes=3,
        attention_blocks=(("s01", "s02", "s03"), ("s04",)),
        reply_edges=(("s01", "s02"), ("s01", "s02"), ("s03", "s04")),
        vocab_overlap={("s01", "s03"): 2},
        seed=11,
    )
    params_r2 = SynthParams(
        n_quotes=2,
        attention_blocks=(("s01", "s04"), ("s02", "s03")),
        reply_edges=(("s04", "s01"),),
        vocab_overlap={},
        seed=12,
    )
    c1, s1, gt1 = generate(params_r1, reading_id="r1", id_prefix="r1-")
    c2, s2, gt2 = generate(params_r2, reading_id="r2", id_prefix="r2-")
    corpus_path = tmp_path / "sample.jsonl"
    p1, p2 = tmp_path / "part1.jsonl", tmp_path / "part2.jsonl"
    save_corpus(c1, p1)
    save_corpus(c2, p2)
    corpus_path.write_bytes(p1.read_bytes() + p2.read_bytes())
    s1.vectors.update(s2.vectors)
    emb_path = tmp_path / "sample_emb.jsonl"
    save_embeddings(s1, emb_path)
    return corpus_path, emb_path, (gt1, gt2)


def test_validate_ok(sample, capsys):
    corpus_path, _, _ = sample
    code, out, _ = run_cli(capsys, "validate", str(corpus_path))
    assert code == 0
    assert out.startswith("ok:")


def test_validate_reports_dangling_parent(jsonl_file, capsys):
    path = jsonl_file([
        {"record": "quote", "id": "q1", "reading_id": "r1", "text": "T."},
        {"id": "a1", "reading_id": "r1", "author_id": "A", "kind": "annotation",
         "quote_id": "q1", "body": "x"},
        {"id": "rep9", "reading_id": "r1", "author_id": "B", "kind": "reply",
         "parent_id": "missing", "body": ""},
    ])
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "rep9" in out


def test_validate_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, out, _ = run_cli(capsys, "validate", str(empty))
    assert code == 1
    assert "no records" in out


def test_validate_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.jsonl"
    data = b'{"record": "quote", "id": "q1", "reading_id": "r1", "text": "caf\xe9"}\n'
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert f"byte {data.index(0xE9)}: not valid UTF-8" in out + err


def test_validate_reads_a_clean_file_once(sample, capsys, monkeypatch):
    import aicnet.corpus as corpus_mod

    corpus_path, _, _ = sample
    passes = []
    real = corpus_mod._collect

    def counting(path, format):
        passes.append(path)
        return real(path, format)

    monkeypatch.setattr(corpus_mod, "_collect", counting)
    code, out, _ = run_cli(capsys, "validate", str(corpus_path))
    assert code == 0 and out.startswith("ok:")
    assert len(passes) == 1


def test_validate_parses_a_broken_file_once(jsonl_file, capsys, monkeypatch):
    import aicnet.corpus as corpus_mod

    path = jsonl_file([{"id": "rep9", "reading_id": "r1", "author_id": "B", "kind": "reply",
                        "parent_id": "missing", "body": ""}])
    passes = []
    real = corpus_mod._json_objects

    def counting(path, text):
        passes.append(path)
        return real(path, text)

    monkeypatch.setattr(corpus_mod, "_json_objects", counting)
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out == (f"error: {path}: line 1: reply 'rep9' names a parent that does not exist "
                   "in its reading\n1 problem(s) found\n")
    assert len(passes) == 1


def test_stats_table_layout(sample, capsys):
    corpus_path, _, _ = sample
    code, out, _ = run_cli(capsys, "stats", str(corpus_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("Reading,r1,r2")
    assert lines[1].startswith("Posts,")
    assert lines[2].startswith("Replies,")
    assert lines[3].startswith("Average words per post,")
    assert any(line.startswith("Posts mean,") for line in lines)


def test_stats_unknown_reading(sample, capsys):
    corpus_path, _, _ = sample
    code, _, err = run_cli(capsys, "stats", str(corpus_path), "--reading", "zzz")
    assert code == 1
    assert "zzz" in err


def test_stats_reading_filter(sample, capsys):
    corpus_path, _, _ = sample
    code, out, _ = run_cli(capsys, "stats", str(corpus_path), "--reading", "r2")
    assert code == 0
    assert out.splitlines()[0] == "Reading,r2"


def test_stats_empty_reading(jsonl_file, capsys):
    path = jsonl_file([{"record": "quote", "id": "q1", "reading_id": "r1", "text": "T."}])
    code, out, _ = run_cli(capsys, "stats", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "Posts,0"
    assert lines[2] == "Replies,0"
    assert lines[3] == "Average words per post,na"


def test_build_an_matches_ground_truth(sample, tmp_path, capsys):
    corpus_path, emb_path, (gt1, _) = sample
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "build", str(corpus_path), "--reading", "r1", "--network", "an",
        "--embeddings", str(emb_path), "--format", "graphml,dot,csv,json",
        "--out", str(out_dir),
    )
    assert code == 0
    graph = read_export(out_dir / "r1_an.graphml")
    assert graph.nodes == gt1.expected_an.nodes
    assert graph.edges == gt1.expected_an.edges
    for name in ("r1_an.graphml", "r1_an.dot", "r1_an.json", "r1_an_edges.csv", "r1_an_nodes.csv"):
        assert (out_dir / name).exists()
        assert name in out


def test_build_writes_each_format_its_reader_reads_back(sample, tmp_path, capsys):
    corpus_path, emb_path, (gt1, _) = sample
    out_dir = tmp_path / "out"
    code, _, err = run_cli(
        capsys, "build", str(corpus_path), "--reading", "r1", "--network", "an",
        "--embeddings", str(emb_path), "--format", "graphml,dot,json", "--out", str(out_dir),
    )
    assert code == 0, err
    for suffix in ("graphml", "dot", "json"):
        graph = read_export(out_dir / f"r1_an.{suffix}")
        assert (graph.nodes, graph.edges) == (gt1.expected_an.nodes, gt1.expected_an.edges)


def test_build_in_reply_free_reading(jsonl_file, tmp_path, capsys):
    path = jsonl_file([
        {"record": "quote", "id": "q1", "reading_id": "r1", "text": "T."},
        {"id": "a1", "reading_id": "r1", "author_id": "A", "kind": "annotation",
         "quote_id": "q1", "body": "x"},
    ])
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "build", str(path), "--reading", "r1", "--network", "in",
                         "--out", str(out_dir))
    assert code == 0
    graph = read_export(out_dir / "r1_in.graphml")
    assert graph.nodes == {"A"}
    assert graph.edges == {}


@pytest.mark.parametrize("formats", ["", ",", " , "])
def test_build_rejects_an_empty_format_list(sample, tmp_path, capsys, formats):
    corpus_path, _, _ = sample
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "build", str(corpus_path), "--reading", "r1",
                             "--network", "in", "--format", formats, "--out", str(out_dir))
    assert (code, out, err) == (1, "", "error: no export format given\n")
    assert not out_dir.exists()


def test_build_writes_a_repeated_format_once(sample, tmp_path, capsys):
    corpus_path, _, _ = sample
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "build", str(corpus_path), "--reading", "r1", "--network",
                           "in", "--format", "json,dot,json", "--out", str(out_dir))
    assert code == 0
    assert out.splitlines() == [(out_dir / "r1_in.json").as_posix(),
                                (out_dir / "r1_in.dot").as_posix()]


def test_build_rejects_top_words_zero(sample, tmp_path, capsys):
    corpus_path, _, _ = sample
    code, _, err = run_cli(
        capsys, "build", str(corpus_path), "--reading", "r1", "--network", "cn",
        "--top-words", "0", "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert "--top-words" in err


def test_build_requires_out(sample, capsys):
    corpus_path, _, _ = sample
    code, _, err = run_cli(capsys, "build", str(corpus_path), "--reading", "r1",
                           "--network", "in")
    assert code == 1
    assert "--out" in err


def test_an_without_embeddings_falls_back_to_hash(sample, tmp_path, capsys):
    corpus_path, _, _ = sample
    code, _, _ = run_cli(capsys, "build", str(corpus_path), "--reading", "r1",
                         "--network", "an", "--out", str(tmp_path / "h"))
    assert code == 0


def test_metrics_node_level_matches_module(sample, tmp_path, capsys):
    from aicnet import metrics as m
    from aicnet.graphs import build_an, build_cn_bipartite, build_in, project

    corpus_path, emb_path, _ = sample
    out_dir = tmp_path / "metrics"
    code, out, _ = run_cli(
        capsys, "metrics", str(corpus_path), "--level", "node",
        "--embeddings", str(emb_path), "--out", str(out_dir),
    )
    assert code == 0
    assert "# reading r1" in out and "# reading r2" in out

    corpus = load_corpus(corpus_path)
    store = load_embeddings(emb_path)
    reading = corpus.readings["r1"]
    an = build_an(reading, corpus, store)
    in_ = build_in(reading, corpus)
    cn = project(build_cn_bipartite(reading, corpus))
    rows = m.node_report(an, in_, cn, set(corpus.authors))
    data = json.loads((out_dir / "metrics_node_r1.json").read_text())
    assert [r["author_id"] for r in data] == [r.author_id for r in rows]
    for got, want in zip(data, rows):
        for key, val in (
            ("an_closeness", want.an_closeness),
            ("in_betweenness", want.in_betweenness),
            ("cn_betweenness", want.cn_betweenness),
        ):
            if val is None:
                assert got[key] is None
            else:
                assert got[key] == pytest.approx(val, abs=0)

    csv_text = (out_dir / "metrics_node_r1.csv").read_text()
    assert csv_text.splitlines()[0].startswith("Student,")
    assert csv_text.splitlines()[1].startswith("AN Closeness,")

    # display cells are exactly the 2-decimal rounding of the JSON values
    lines = csv_text.splitlines()
    for line, key in zip(lines[1:], ("an_closeness", "in_betweenness", "cn_betweenness")):
        cells = line.split(",")[1:]
        for cell, rec in zip(cells, data):
            want = "na" if rec[key] is None else f"{rec[key]:.2f}"
            assert cell == want


def test_metrics_all_isolates_row(jsonl_file, capsys):
    path = jsonl_file([
        {"record": "quote", "id": "q1", "reading_id": "r1", "text": "T."},
        {"id": "a1", "reading_id": "r1", "author_id": "A", "kind": "annotation",
         "quote_id": "q1", "body": "nothing shared here"},
    ])
    code, out, _ = run_cli(capsys, "metrics", str(path), "--level", "node")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "Student,A"
    assert lines[2] == "AN Closeness,na"
    assert lines[3] == "IN Betweenness,na"
    assert lines[4] == "CN Betweenness,na"


def test_metrics_network_level_two_rows(sample, capsys):
    corpus_path, emb_path, _ = sample
    code, out, _ = run_cli(capsys, "metrics", str(corpus_path), "--level", "network",
                           "--embeddings", str(emb_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Reading,AN transitivity,IN centralization,CN transitivity"
    assert len(lines) == 3
    assert lines[1].startswith("r1,") and lines[2].startswith("r2,")


def test_metrics_network_level_reading_with_only_a_quote(jsonl_file, capsys):
    path = jsonl_file([
        {"record": "quote", "id": "q1", "reading_id": "r1", "text": "First passage."},
        {"id": "a1", "reading_id": "r1", "author_id": "A", "kind": "annotation",
         "quote_id": "q1", "body": "x"},
        {"record": "quote", "id": "q9", "reading_id": "r2", "text": "Lonely passage."},
    ])
    code, out, err = run_cli(capsys, "metrics", str(path), "--level", "network")
    assert code == 0, err
    assert out.splitlines()[1:] == ["r1,na,na,na", "r2,na,na,na"]


def _one_quote_corpus(jsonl_file, reading_id: str, authors: list[str]) -> Path:
    """One reading whose authors all annotate its one quote."""
    return jsonl_file([
        {"record": "quote", "id": "q1", "reading_id": reading_id, "text": "Shared passage."},
        *({"id": f"a{i}", "reading_id": reading_id, "author_id": author, "kind": "annotation",
           "quote_id": "q1", "body": "a note"} for i, author in enumerate(authors)),
    ])


def test_report_csv_files_quote_ids_that_hold_a_comma(jsonl_file, tmp_path, capsys):
    import csv

    path = _one_quote_corpus(jsonl_file, "r,1", ["s,01", 's"03', "s02"])
    out_dir = tmp_path / "out"
    for argv in (["metrics", "--level", "node"], ["metrics", "--level", "network"], ["stats"]):
        code, _, err = run_cli(capsys, argv[0], str(path), *argv[1:], "--out", str(out_dir))
        assert code == 0, err

    def rows(name: str) -> list[list[str]]:
        with (out_dir / name).open(encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))

    node = json.loads((out_dir / "metrics_node_r,1.json").read_text(encoding="utf-8"))
    table = rows("metrics_node_r,1.csv")
    assert [r["author_id"] for r in node] == ['s"03', "s,01", "s02"]
    assert table[0] == ["Student", *(r["author_id"] for r in node)]
    assert {len(row) for row in table} == {4}
    network = json.loads((out_dir / "metrics_network.json").read_text(encoding="utf-8"))
    reading_ids = [row[0] for row in rows("metrics_network.csv")[1:]]
    assert reading_ids == [r["reading_id"] for r in network]
    stats = json.loads((out_dir / "stats.json").read_text(encoding="utf-8"))
    assert rows("stats.csv")[0] == ["Reading", *(r["reading_id"] for r in stats["readings"])]


def test_csv_files_quote_ids_that_hold_a_carriage_return(jsonl_file, tmp_path, capsys):
    import csv

    path = _one_quote_corpus(jsonl_file, "r1", ["s\r01", "s02"])
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "metrics", str(path), "--level", "node", "--out", str(out_dir))
    assert code == 0, err
    code, _, err = run_cli(capsys, "build", str(path), "--reading", "r1", "--network", "an",
                           "--format", "csv", "--out", str(out_dir))
    assert code == 0, err

    def rows(name: str) -> list[list[str]]:
        with (out_dir / name).open(encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))

    assert rows("metrics_node_r1.csv")[0] == ["Student", "s\r01", "s02"]
    assert {len(row) for row in rows("metrics_node_r1.csv")} == {3}
    assert rows("r1_an_nodes.csv") == [["node", "isolated"], ["s\r01", "false"], ["s02", "false"]]
    assert rows("r1_an_edges.csv") == [["source", "target", "weight"], ["s\r01", "s02", "1.0"]]


def test_metrics_node_out_checks_every_file_name_first(jsonl_file, tmp_path, capsys):
    records = [{"record": "quote", "id": f"q{rid}", "reading_id": rid, "text": "Shared passage."}
               for rid in ("a1", "r/2")]
    records += [{"id": f"{author}{rid}", "reading_id": rid, "author_id": author,
                 "kind": "annotation", "quote_id": f"q{rid}", "body": "a note"}
                for rid in ("a1", "r/2") for author in ("A", "B")]
    path = jsonl_file(records)
    code, out, err = run_cli(capsys, "metrics", str(path), "--level", "node",
                             "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err == HASH_NOTE + "error: reading 'r/2' cannot name an output file\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("reading_id", ["../x", "r/1", "r\x001"], ids=["parent", "slash", "nul"])
@pytest.mark.parametrize("command", [["build", "--network", "in"], ["metrics", "--level", "node"]],
                         ids=["build", "metrics"])
def test_a_reading_id_that_names_no_file_is_an_input_error(jsonl_file, tmp_path, capsys,
                                                           command, reading_id):
    path = _one_quote_corpus(jsonl_file, reading_id, ["A", "B"])
    reading = ["--reading", reading_id] if command[0] == "build" else []
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:], *reading,
                             "--out", str(tmp_path / "deep" / "out"))
    assert (code, out) == (1, "")
    # metrics hashes its vectors before it names its files; build --network in reads none
    note = HASH_NOTE if command[0] == "metrics" else ""
    assert err == f"{note}error: reading {reading_id!r} cannot name an output file\n"
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]
    # a command that names no file still reads the corpus
    code, out, err = run_cli(capsys, "metrics", str(path), "--level", "node")
    assert code == 0, err
    assert out.startswith(f"# reading {reading_id}\n")


@pytest.mark.parametrize("corpus", ["sample_corpus.jsonl", "widened_corpus.jsonl"])
def test_metrics_hashes_exactly_the_texts_build_an_reads(tmp_path, monkeypatch, capsys, corpus):
    import aicnet.semantic as semantic

    # the calls of every process, the one forked for the second reading included
    hashed, read = Calls(tmp_path / "hashed"), Calls(tmp_path / "read")
    hash_embed, get = semantic.hash_embed, semantic.EmbeddingStore.get

    def counting_hash(text: str, dim: int = 256):
        hashed.add(normalize_text(text))
        return hash_embed(text, dim)

    def recording_get(store, quote_id: str):
        read.add(quote_id)
        return get(store, quote_id)

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(semantic, "hash_embed", counting_hash)
    monkeypatch.setattr(semantic.EmbeddingStore, "get", recording_get)
    code, _, err = run_cli(capsys, "metrics", str(_DATA / corpus), "--level", "network")
    assert code == 0, err
    quotes = {q.id: q for r in load_corpus(_DATA / corpus).readings.values()
              for q in r.quotes.values()}
    assert len(hashed.read()) == len(set(hashed.read()))  # each text once
    assert set(hashed.read()) == {quotes[qid].normalized_text for qid in read.read()}
    # both readings' texts are hashed: the child's calls are counted
    assert {quotes[qid].reading_id for qid in read.read()} == {"r1", "r2"}


def test_compare_self_is_all_zero(sample, capsys):
    corpus_path, emb_path, _ = sample
    code, out, _ = run_cli(capsys, "compare", str(corpus_path), "r1", "r1",
                           "--embeddings", str(emb_path))
    assert code == 0
    for line in out.splitlines():
        cells = line.split(",")
        if len(cells) == 5 and cells[-1] not in ("delta", "na"):
            assert cells[-1] in ("0.00", "-0.00")


def test_compare_disjoint_rosters_warns(tmp_path, capsys):
    c1, _, _ = generate(
        SynthParams(n_quotes=1, attention_blocks=(("a1", "a2"),), seed=1),
        reading_id="r1", id_prefix="r1-",
    )
    c2, _, _ = generate(
        SynthParams(n_quotes=1, attention_blocks=(("b1", "b2"),), seed=2),
        reading_id="r2", id_prefix="r2-",
    )
    path = tmp_path / "disjoint.jsonl"
    p1, p2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
    save_corpus(c1, p1)
    save_corpus(c2, p2)
    path.write_bytes(p1.read_bytes() + p2.read_bytes())
    code, out, err = run_cli(capsys, "compare", str(path), "r1", "r2")
    assert code == 0
    assert "share no authors" in err
    node_lines = [l for l in out.splitlines() if l.startswith(("a", "b"))]
    assert node_lines
    for line in node_lines:
        assert line.endswith(",na")


def test_compare_layout_matches_golden(capsys):
    tests = Path(__file__).parent
    code, out, err = run_cli(
        capsys, "compare", str(tests / "data" / "sample_corpus.jsonl"), "r1", "r2",
        "--embeddings", str(tests / "data" / "sample_embeddings.jsonl"),
    )
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (tests / "golden" / "compare_r1_r2.txt").read_bytes()


_DATA = Path(__file__).parent / "data"
_EXPORT_GOLDEN = Path(__file__).parent / "golden" / "exports"


def _build_every_format(capsys, out: Path, corpus: str, reading: str, network: str,
                        *flags: str) -> None:
    """``build`` of one network, in all four formats and under the sample
    vectors, into ``out``; it must succeed and write nothing to stderr."""
    code, _, err = run_cli(
        capsys, "build", str(_DATA / corpus), "--reading", reading, "--network", network,
        *flags, "--format", "graphml,dot,csv,json",
        "--embeddings", str(_DATA / "sample_embeddings.jsonl"), "--out", str(out),
    )
    assert (code, err) == (0, "")


def _assert_match_goldens(out: Path, golden: Path, stem: str) -> None:
    names = sorted(p.name for p in golden.glob(f"{stem}*"))
    assert sorted(p.name for p in out.iterdir()) == names and len(names) == 5
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("network", ["an", "in", "cn"])
@pytest.mark.parametrize("reading", ["r1", "r2"])
def test_build_exports_match_goldens(tmp_path, capsys, reading, network):
    _build_every_format(capsys, tmp_path, "sample_corpus.jsonl", reading, network)
    _assert_match_goldens(tmp_path, _EXPORT_GOLDEN, f"{reading}_{network}")


@pytest.mark.parametrize("network", ["an", "in", "cn"])
def test_build_roster_all_exports_match_goldens(tmp_path, capsys, network):
    # the widened corpus adds reading r3, whose one author s99 is active nowhere else
    _build_every_format(capsys, tmp_path, "widened_corpus.jsonl", "r1", network,
                        "--roster", "all")
    _assert_match_goldens(tmp_path, _EXPORT_GOLDEN / "roster_all", f"r1_{network}")
    # s99 joins r1's network as an isolate, and nothing else changes
    active = read_export(_EXPORT_GOLDEN / f"r1_{network}.json")
    widened = read_export(tmp_path / f"r1_{network}.json")
    assert "s99" not in active.nodes
    assert (widened.nodes, widened.edges) == (active.nodes | {"s99"}, active.edges)


def test_build_an_under_bridge_vectors_matches_golden(tmp_path, capsys):
    def build(*flags: str) -> Path:
        out = tmp_path / str(len(flags))
        code, _, err = run_cli(
            capsys, "build", str(_DATA / "sample_corpus.jsonl"), "--reading", "r1",
            "--network", "an", "--format", "json", *flags, "--out", str(out),
        )
        assert (code, err) == (0, "" if flags else HASH_NOTE)
        return out / "r1_an.json"

    bridged = build("--embeddings", str(_DATA / "bridge_embeddings.jsonl"))
    assert bridged.read_bytes() == (_EXPORT_GOLDEN / "bridged" / "r1_an.json").read_bytes()
    # the vector file, not the quote texts, makes some of the edges
    assert set(read_export(build()).edges) < set(read_export(bridged).edges)


def test_compare_unknown_reading(sample, capsys):
    corpus_path, _, _ = sample
    code, _, err = run_cli(capsys, "compare", str(corpus_path), "r1", "nope")
    assert code == 1
    assert "nope" in err


def test_compare_detects_planted_dominance(tmp_path, capsys):
    """r1 spreads replies evenly in a ring; r2 funnels them through one hub,
    so the interaction-centralization delta must come out positive."""
    authors = ("s01", "s02", "s03", "s04", "s05")
    ring = tuple((authors[i], authors[(i + 1) % 5]) for i in range(5))
    star = tuple(("s01", other) for other in authors[1:])
    c1, _, _ = generate(
        SynthParams(n_quotes=1, attention_blocks=(authors,),
                    reply_edges=ring, seed=41),
        reading_id="r1", id_prefix="r1-",
    )
    c2, _, _ = generate(
        SynthParams(n_quotes=1, attention_blocks=(authors,),
                    reply_edges=star, seed=42),
        reading_id="r2", id_prefix="r2-",
    )
    path = tmp_path / "dominance.jsonl"
    p1, p2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
    save_corpus(c1, p1)
    save_corpus(c2, p2)
    path.write_bytes(p1.read_bytes() + p2.read_bytes())

    code, out, _ = run_cli(capsys, "compare", str(path), "r1", "r2")
    assert code == 0
    row = next(l for l in out.splitlines() if l.startswith("IN centralization,"))
    delta = float(row.split(",")[-1])
    assert delta > 0


def test_synth_emits_verifiable_files(tmp_path, capsys):
    out_dir = tmp_path / "synth"
    code, out, _ = run_cli(
        capsys, "synth", "--seed", "5", "--authors", "4",
        "--blocks", "s01,s02|s03,s04", "--reply-edges", "s01:s03",
        "--vocab-overlap", "s02:s04=2", "--out", str(out_dir),
    )
    assert code == 0
    corpus = load_corpus(out_dir / "corpus.jsonl")
    store = load_embeddings(out_dir / "embeddings.jsonl")
    gt_data = json.loads((out_dir / "ground_truth.json").read_text())

    from aicnet.graphs import WeightedGraph
    from aicnet.synth import GroundTruth

    def graph_from(payload) -> WeightedGraph:
        g = WeightedGraph(nodes={n["id"] for n in payload["nodes"]})
        for e in payload["edges"]:
            g.add_edge(e["source"], e["target"], e["weight"])
        return g

    assert set(gt_data) == {"expected_an", "expected_in", "expected_cn", "seed"}
    gt = GroundTruth(*(graph_from(gt_data[name]) for name in GroundTruth._fields))
    assert gt.expected_cn.edges == {("s02", "s04"): 2.0}
    report = verify(corpus, store, gt)
    assert report.passed, report.summary()


@pytest.mark.parametrize("argv, authors", [
    ([], 4),
    (["--authors", "6"], 6),
    (["--blocks", "a,b|c,d,e"], 5),
    (["--authors", "5", "--blocks", "a,b|c,d,e"], 5),
])
def test_synth_authors_count(tmp_path, capsys, argv, authors):
    code, _, err = run_cli(capsys, "synth", *argv, "--out", str(tmp_path / "x"))
    assert code == 0, err
    assert len(load_corpus(tmp_path / "x" / "corpus.jsonl").authors) == authors


def test_synth_authors_must_match_the_blocks(tmp_path, capsys):
    out_dir = tmp_path / "x"
    code, _, err = run_cli(capsys, "synth", "--authors", "3", "--blocks", "a,b|c,d,e",
                           "--out", str(out_dir))
    assert code == 1
    assert err == "error: blocks cover 5 authors, --authors says 3\n"
    assert not out_dir.exists()


def test_synth_rejects_an_empty_reading_id(tmp_path, capsys):
    out_dir = tmp_path / "x"
    code, _, err = run_cli(capsys, "synth", "--reading-id", "", "--out", str(out_dir))
    assert code == 1
    assert err == "error: empty reading id\n"
    assert not out_dir.exists()


def test_synth_rejects_single_author(tmp_path, capsys):
    code, _, err = run_cli(capsys, "synth", "--authors", "1", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "--authors" in err


@pytest.mark.parametrize("spec", ["s01:s02=x", "s01:s02="])
def test_synth_bad_overlap_count_is_input_error(tmp_path, capsys, spec):
    code, _, err = run_cli(capsys, "synth", "--vocab-overlap", spec, "--out", str(tmp_path / "x"))
    assert code == 1, err
    assert f"bad overlap {spec!r}" in err


@pytest.mark.parametrize("spec, pair", [
    ("s01:s02=2,s01:s02=3", "s01:s02"),
    ("s01:s02=2,s02:s01=3", "s02:s01"),
], ids=["same-order", "reversed"])
def test_synth_overlap_pair_given_twice_is_input_error(tmp_path, capsys, spec, pair):
    out_dir = tmp_path / "x"
    code, _, err = run_cli(capsys, "synth", "--seed", "1", "--authors", "4",
                           "--vocab-overlap", spec, "--out", str(out_dir))
    assert code == 1
    assert err == f"error: overlap pair {pair} is given twice\n"
    assert not out_dir.exists()


def test_unused_flags_are_rejected(sample, tmp_path, capsys):
    corpus_path, _, _ = sample
    out = str(tmp_path / "x")
    for argv in (["compare", str(corpus_path), "r1", "r2", "--out", out],
                 ["synth", "--embeddings", str(corpus_path), "--out", out]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "unrecognized arguments" in err


def test_no_escape_codes_on_a_terminal(jsonl_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    broken = jsonl_file([{"id": "rep9", "reading_id": "r1", "author_id": "B", "kind": "reply",
                          "parent_id": "missing", "body": ""}])
    for argv in (["validate", str(broken)],
                 ["metrics", str(tmp_path / "nope.jsonl"), "--level", "node"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert "\x1b" not in out + err


_OPTIONS = {
    "validate": set(),
    "stats": {"--reading", "--out"},
    "build": {"--reading", "--network", "--format", "--roster", "--threshold", "--min-freq",
              "--drop-lowest", "--top-words", "--dim", "--stopwords", "--noun-lexicon",
              "--embeddings", "--out"},
    "metrics": {"--level", "--reading", "--threshold", "--min-freq", "--drop-lowest",
                "--top-words", "--dim", "--stopwords", "--noun-lexicon", "--embeddings",
                "--out"},
    "compare": {"--threshold", "--min-freq", "--drop-lowest", "--top-words", "--dim",
                "--stopwords", "--noun-lexicon", "--embeddings"},
    "synth": {"--seed", "--authors", "--quotes", "--blocks", "--reply-edges", "--vocab-overlap",
              "--reading-id", "--threshold", "--min-freq", "--drop-lowest", "--top-words",
              "--dim", "--out"},
}


@pytest.mark.parametrize("command", [
    ["build", "--reading", "r1", "--network", "an", "--out", "x"],
    ["metrics", "--level", "network"],
    ["compare", "r1", "r2"],
    ["synth", "--out", "x"],
], ids=["build", "metrics", "compare", "synth"])
def test_oversized_dim_is_an_input_error(sample, tmp_path, capsys, monkeypatch, command):
    corpus_path, _, _ = sample
    monkeypatch.chdir(tmp_path)
    name, *flags = command
    corpus = [] if name == "synth" else [str(corpus_path)]
    # argparse refuses the value before a vector of that many components is made
    code, out, err = run_cli(capsys, name, *corpus, *flags, "--dim", str(10**21))
    assert (code, out) == (1, "")
    assert err.endswith("error: argument --dim: --dim must be <= 65536\n"), err


def test_each_command_takes_exactly_its_options():
    import argparse

    from aicnet.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
    assert options == _OPTIONS


def _library_outputs(corpus, tau=0.8, dim=256, params=WordSelectionParams()):
    """What ``metrics --level network``, ``metrics --level node`` (their JSON
    files) and ``compare r1 r2`` (its stdout) report, computed by calling the
    library at these settings."""
    from aicnet import metrics as m
    from aicnet.cli import _NETWORK_MEASURES, _NODE_MEASURES, _compared, _csv_lines
    from aicnet.graphs import build_an, build_cn_bipartite, build_in, project

    readings = [corpus.readings[rid] for rid in sorted(corpus.readings)]
    store = embed_quotes([q for r in readings for q in r.quotes.values()], dim)
    graphs = {r.id: (build_an(r, corpus, store, tau), build_in(r, corpus),
                     project(build_cn_bipartite(r, corpus, params))) for r in readings}
    network = m.network_report(graphs)
    node = {rid: [row._asdict() for row in m.node_report(*g, set(corpus.authors))]
            for rid, g in graphs.items()}
    net = {row.reading_id: row for row in network}
    roster = readings[0].active_authors() | readings[1].active_authors()
    rows_a, rows_b = ({row.author_id: row for row in m.node_report(*graphs[rid], roster)}
                      for rid in ("r1", "r2"))
    compared = _csv_lines([["Measure", "r1", "r2", "delta"],
                           *_compared(net["r1"], net["r2"], _NETWORK_MEASURES),
                           [], ["Student", "Measure", "r1", "r2", "delta"],
                           *([a, *row] for a in sorted(roster)
                             for row in _compared(rows_a[a], rows_b[a], _NODE_MEASURES))])
    return [row._asdict() for row in network], node, compared


@pytest.mark.parametrize("flags, settings, default", [
    (["--threshold", "0.1"], {"tau": 0.1}, {}),
    # hash vectors of 16 components, against 256, at a threshold where that shows
    (["--threshold", "0.3", "--dim", "16"], {"tau": 0.3, "dim": 16}, {"tau": 0.3}),
    (["--min-freq", "8"], {"params": WordSelectionParams(min_frequency=8)}, {}),
    (["--top-words", "5"], {"params": WordSelectionParams(top_k=5)}, {}),
], ids=["threshold", "dim", "min-freq", "top-words"])
def test_each_network_flag_reaches_its_builder(tmp_path, capsys, flags, settings, default):
    path = _DATA / "sample_corpus.jsonl"
    corpus = load_corpus(path)
    want = _library_outputs(corpus, **settings)
    # each report differs from the default's, so a flag lost on its way shows in each
    assert all(map(operator.ne, want, _library_outputs(corpus, **default)))
    out = tmp_path / "out"
    for level in ("network", "node"):
        code, _, _ = run_cli(capsys, "metrics", str(path), "--level", level, *flags,
                             "--out", str(out))
        assert code == 0
    code, compared, _ = run_cli(capsys, "compare", str(path), "r1", "r2", *flags)
    assert code == 0
    node = {rid: json.loads((out / f"metrics_node_{rid}.json").read_text()) for rid in want[1]}
    assert [json.loads((out / "metrics_network.json").read_text()), node, compared] == list(want)


@pytest.mark.parametrize("value", ["0", "1.5", "nan"])
def test_a_threshold_outside_the_unit_interval_is_an_input_error(capsys, value):
    code, out, err = run_cli(capsys, "metrics", str(_DATA / "sample_corpus.jsonl"),
                             "--level", "network", "--threshold", value)
    assert (code, out) == (1, "")
    assert err.endswith("error: argument --threshold: threshold must be in (0, 1]\n"), err


# one quote, one annotation, one reply: lines 1, 2 and 3 of a corpus file
_MINI_RECORDS = [
    {"record": "quote", "id": "q1", "reading_id": "r1", "text": "A passage."},
    {"id": "a1", "reading_id": "r1", "author_id": "A", "kind": "annotation", "quote_id": "q1",
     "body": "note"},
    {"id": "p1", "reading_id": "r1", "author_id": "B", "kind": "reply", "parent_id": "a1",
     "body": "reply"},
]


@pytest.mark.parametrize("line, field, value, message", [
    (2, "ts", 5, "line 2: field 'ts' must be a string"),
    (1, "text", " \t ", "line 1: quote text is empty"),
    (2, "parent_id", "p1", "line 2: annotation 'a1' must not have a parent_id"),
    (3, "quote_id", "q1", "line 3: reply 'p1' must not carry a quote_id"),
], ids=["ts_not_a_string", "blank_quote_text", "annotation_with_parent", "reply_with_quote"])
def test_a_malformed_corpus_record_is_an_input_error_naming_its_line(jsonl_file, capsys, line,
                                                                     field, value, message):
    records = [dict(r) for r in _MINI_RECORDS]
    records[line - 1][field] = value
    path = jsonl_file(records)
    code, out, err = run_cli(capsys, "metrics", str(path), "--level", "network")
    assert (code, out, err) == (1, "", f"error: {path}: {message}\n")


# a JSON escape such as "\ud800" loads as a string UTF-8 cannot encode
@pytest.mark.parametrize("lines, field, value, commands", [
    ((2,), "author_id", "A\ud800",
     (("metrics", "--level", "node"), ("build", "--reading", "r1", "--network", "an"))),
    ((1,), "text", "x \udc80 y", (("metrics", "--level", "network"),)),
    ((1, 2, 3), "reading_id", "r\ud800", (("stats",),)),
], ids=["author_id", "quote_text", "reading_id"])
def test_a_lone_surrogate_is_an_input_error(jsonl_file, tmp_path, capsys, lines, field, value,
                                            commands):
    records = [dict(r) for r in _MINI_RECORDS]
    for line in lines:
        records[line - 1][field] = value
    path = jsonl_file(records)
    faults = [f"error: {path}: line {n}: field {field!r} holds a lone surrogate" for n in lines]
    code, out, _ = run_cli(capsys, "validate", str(path))
    # parse faults come first; a refused record's dependants follow
    assert (code, out.splitlines()[:len(lines)]) == (1, faults)
    for command in commands:
        out_dir = ("--out", str(tmp_path / "out")) if command[0] == "build" else ()
        code, out, err = run_cli(capsys, command[0], str(path), *command[1:], *out_dir)
        assert (code, out, err) == (1, "", faults[0] + "\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("command, err", [
    (["validate"], ""), (["stats"], ""),
    (["build", "--reading", "r1", "--network", "in"], ""),
    (["build", "--reading", "r1", "--network", "cn"], ""),
    (["build", "--reading", "r1", "--network", "an"], HASH_NOTE),
    (["metrics", "--level", "network"], HASH_NOTE),
    (["metrics", "--level", "node", "--dim", "64"], HASH_NOTE.replace("256", "64")),
    (["compare", "r1", "r2"], HASH_NOTE),
    (["metrics", "--level", "node", "--embeddings", str(_DATA / "sample_embeddings.jsonl")], ""),
], ids=["validate", "stats", "build_in", "build_cn", "build_an", "metrics_network",
        "metrics_node_dim", "compare", "metrics_embeddings"])
def test_the_hash_fallback_is_announced_once_per_command(tmp_path, capfd, monkeypatch, cpus,
                                                         command, err):
    use_cpus(monkeypatch, cpus)
    out = ["--out", str(tmp_path / "out")] if command[0] == "build" else []
    code, _, got = run_cli(capfd, command[0], str(_DATA / "sample_corpus.jsonl"), *command[1:],
                           *out)
    assert (code, got) == (0, err)


def test_build_rejects_an_unknown_format(jsonl_file, tmp_path, capsys):
    out_dir = tmp_path / "graphs"
    code, out, err = run_cli(capsys, "build", str(jsonl_file(_MINI_RECORDS)), "--reading", "r1",
                             "--network", "in", "--format", "json,xml", "--out", str(out_dir))
    assert (code, out, err) == (1, "", "error: unknown export format(s): xml\n")
    assert not out_dir.exists()


def test_synth_rejects_a_bad_reply_pair(tmp_path, capsys):
    out_dir = tmp_path / "synth"
    code, out, err = run_cli(capsys, "synth", "--reply-edges", "s01:s02,s03", "--out",
                             str(out_dir))
    assert (code, out, err) == (1, "", "error: bad pair 's03'; expected author:author\n")
    assert not out_dir.exists()


def _three_readings(tmp_path):
    """Three readings of 3, 2 and 4 quotes over one roster, saved as one file."""
    blocks = (("s01", "s02"), ("s03",))
    parts = []
    for i, n_quotes in enumerate((3, 2, 4), start=1):
        corpus, _, _ = generate(
            SynthParams(n_quotes=n_quotes, attention_blocks=blocks, seed=20 + i),
            reading_id=f"r{i}", id_prefix=f"r{i}-",
        )
        part = tmp_path / f"part{i}.jsonl"
        save_corpus(corpus, part)
        parts.append(part.read_bytes())
    path = tmp_path / "three.jsonl"
    path.write_bytes(b"".join(parts))
    return path


def test_hash_embedder_embeds_only_the_built_readings(tmp_path, capsys, monkeypatch):
    import aicnet.semantic as semantic

    path = _three_readings(tmp_path)
    corpus = load_corpus(path)
    embedded = Calls(tmp_path / "embedded")  # counts the calls of forked children too
    real = semantic.hash_embed

    def counting(text: str, dim: int = 256):
        embedded.add(text)
        return real(text, dim)

    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(semantic, "hash_embed", counting)
    for argv, rids in (
        (["compare", str(path), "r1", "r3"], ("r1", "r3")),
        (["build", str(path), "--reading", "r2", "--network", "an", "--out", str(tmp_path / "b")],
         ("r2",)),
        (["metrics", str(path), "--level", "network"], ("r1", "r2", "r3")),
    ):
        embedded.clear()
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        # one hash per distinct normalized text: twin quotes share a vector
        assert sorted(normalize_text(t) for t in embedded.read()) == sorted(
            {q.normalized_text for rid in rids for q in corpus.readings[rid].quotes.values()})


def test_orphan_vectors_warn_on_one_stderr_line(tmp_path, capsys):
    data = Path(__file__).parent / "data"
    lines = (data / "sample_embeddings.jsonl").read_text(encoding="utf-8").splitlines()
    ghost = dict(json.loads(lines[0]), quote_id="ghost")
    emb = tmp_path / "emb.jsonl"
    emb.write_text("\n".join(lines + [json.dumps(ghost)]) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "metrics", str(data / "sample_corpus.jsonl"),
                             "--level", "network", "--embeddings", str(emb))
    assert code == 0 and out.startswith("Reading,")
    assert err == "warning: embeddings for unknown quote ids: ghost\n"


def test_embeddings_flag_alone_picks_the_vectors(jsonl_file, tmp_path, capsys):
    corpus = jsonl_file([
        {"record": "quote", "id": "q1", "reading_id": "r1", "text": "The first passage."},
        {"record": "quote", "id": "q2", "reading_id": "r1", "text": "An unrelated sentence."},
        {"id": "a1", "reading_id": "r1", "author_id": "A", "kind": "annotation",
         "quote_id": "q1", "body": "x"},
        {"id": "a2", "reading_id": "r1", "author_id": "B", "kind": "annotation",
         "quote_id": "q2", "body": "y"},
    ])
    emb = tmp_path / "emb.jsonl"
    emb.write_text("".join(json.dumps({"quote_id": qid, "vector": [1.0, 0.0]}) + "\n"
                           for qid in ("q1", "q2")), encoding="utf-8")
    edges = {}
    for label, extra in (("hash", []), ("file", ["--embeddings", str(emb)])):
        code, _, err = run_cli(capsys, "build", str(corpus), "--reading", "r1", "--network", "an",
                               "--format", "json", "--out", str(tmp_path / label), *extra)
        assert (code, err) == (0, "" if extra else HASH_NOTE)
        edges[label] = json.loads((tmp_path / label / "r1_an.json").read_text())["edges"]
    # the file makes the two texts identical; their hash vectors are far apart
    assert edges == {"hash": [], "file": [{"source": "A", "target": "B", "weight": 1.0}]}


def _word_corpus(jsonl_file):
    body_a = "pedagogy " * 5 + "rhythm " * 5
    body_b = "pedagogy " * 5 + "rhythm " * 5
    return jsonl_file([
        {"record": "quote", "id": "q1", "reading_id": "r1", "text": "T."},
        {"id": "a1", "reading_id": "r1", "author_id": "A", "kind": "annotation",
         "quote_id": "q1", "body": body_a.strip()},
        {"id": "a2", "reading_id": "r1", "author_id": "B", "kind": "annotation",
         "quote_id": "q1", "body": body_b.strip()},
    ])


def test_custom_stopword_file_drops_word(jsonl_file, tmp_path, capsys):
    corpus_path = _word_corpus(jsonl_file)
    stop = tmp_path / "stop.txt"
    stop.write_text("pedagogy\n")
    out_a, out_b = tmp_path / "plain", tmp_path / "stopped"
    for out, extra in ((out_a, []), (out_b, ["--stopwords", str(stop)])):
        code, _, _ = run_cli(capsys, "build", str(corpus_path), "--reading", "r1",
                             "--network", "cn", "--drop-lowest", "0", "--out", str(out),
                             *extra)
        assert code == 0
    plain = read_export(out_a / "r1_cn.graphml")
    stopped = read_export(out_b / "r1_cn.graphml")
    assert plain.edges == {("A", "B"): 2.0}    # pedagogy and rhythm shared
    assert stopped.edges == {("A", "B"): 1.0}  # pedagogy suppressed


def test_build_roster_all_includes_inactive_authors(sample, tmp_path, capsys):
    corpus_path, _, _ = sample
    extra = corpus_path.read_text() + json.dumps({
        "record": "quote", "id": "r3-q1", "reading_id": "r3", "text": "extra reading",
    }) + "\n" + json.dumps({
        "id": "r3-a1", "reading_id": "r3", "author_id": "s99", "kind": "annotation",
        "quote_id": "r3-q1", "body": "only active in r3",
    }) + "\n"
    widened = tmp_path / "widened.jsonl"
    widened.write_text(extra)
    out = tmp_path / "roster"
    code, _, _ = run_cli(capsys, "build", str(widened), "--reading", "r1",
                         "--network", "in", "--roster", "all", "--out", str(out))
    assert code == 0
    graph = read_export(out / "r1_in.graphml")
    assert "s99" in graph.nodes          # roster-wide isolate
    assert graph.degree("s99") == 0


def test_csv_corpus_through_cli(sample, tmp_path, capsys):
    corpus_path, _, _ = sample
    csv_path = write_csv_corpus(load_corpus(corpus_path), tmp_path / "sample.csv")
    code, out, _ = run_cli(capsys, "validate", str(csv_path))
    assert code == 0 and out.startswith("ok:")
    code, out, _ = run_cli(capsys, "stats", str(csv_path))
    assert code == 0
    assert out.splitlines()[0].startswith("Reading,r1,r2")


def test_binary_embeddings_through_cli(sample, tmp_path, capsys):
    corpus_path, emb_path, (gt1, _) = sample
    binary = tmp_path / "emb.bin"
    binary.write_bytes(_binary_of(emb_path))
    out = tmp_path / "bin_out"
    code, _, _ = run_cli(capsys, "build", str(corpus_path), "--reading", "r1",
                         "--network", "an", "--embeddings", str(binary),
                         "--out", str(out))
    assert code == 0
    graph = read_export(out / "r1_an.graphml")
    # float32 storage wiggles similarities, not the common-reference edge set
    assert set(graph.edges) == set(gt1.expected_an.edges)


def _binary_of(good: Path) -> bytes:
    """The vectors of a JSONL vector file as a binary one, in the file's order."""
    store = load_embeddings(good)
    return binary_vectors(store.vectors, store.dim)


def _truncated_binary(good: Path, path: Path) -> None:
    path.write_bytes(_binary_of(good)[:-3])


def _trailing_binary(good: Path, path: Path) -> None:
    path.write_bytes(_binary_of(good) + b"garbage")


def _zero_dimension_binary(good: Path, path: Path) -> None:
    # one record of a two-byte id and no component: the header alone is wrong
    path.write_bytes(binary_vectors({"q1": ()}, 0))


def _non_utf8_id_binary(good: Path, path: Path) -> None:
    # one record of dimension 2 whose one-byte id starts at byte 18
    path.write_bytes(binary_vectors({b"\xff": (1.0, 0.0)}, 2))


def _edited_jsonl(edit):
    def write(good: Path, path: Path) -> None:
        lines = good.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return write


@pytest.mark.parametrize("write, message", [
    (_truncated_binary, r"byte \d+: truncated"),
    (_edited_jsonl(lambda ls: ls[:1] + [ls[1][:-5]] + ls[2:]), "line 2: invalid JSON"),
    (_edited_jsonl(lambda ls: ls[:1] + [ls[1].replace('"quote_id"', '"qid"')] + ls[2:]),
     "line 2: expected an object"),
    (_edited_jsonl(lambda ls: ls[:1] + [ls[1].replace('"vector"', '"vec"')] + ls[2:]),
     "line 2: expected an object"),
    (_edited_jsonl(lambda ls: [re.sub(r"\[[^,\]]+", "[NaN", ls[0], count=1)] + ls[1:]),
     "non-finite"),
    (_edited_jsonl(lambda ls: ls + ls[:1]), "given twice"),
    (_edited_jsonl(lambda ls: ls[:1] + [re.sub(r"\[[^,\]]+", "[" + "1" * 5000, ls[1], count=1)]
                   + ls[2:]),
     r"bad_emb: line 2: invalid JSON \(Exceeds the limit"),
    (_edited_jsonl(lambda ls: ls[:1] + [re.sub(r"\[([^,\]]+)", r'["\1"', ls[1], count=1)]
                   + ls[2:]),
     "bad_emb: line 2: 'vector' must be a list of numbers"),
    (_edited_jsonl(lambda ls: ls[:1] + [re.sub(r'"quote_id": "[^"]*"', '"quote_id": null', ls[1])]
                   + ls[2:]),
     "bad_emb: line 2: 'quote_id' must be a non-empty string"),
    (_trailing_binary, r"bad_emb: byte \d+: 7 bytes past the declared record count"),
    (_edited_jsonl(lambda ls: ls[:1] + [re.sub(r'"vector": \[[^\]]*\]', '"vector": []', ls[1])]
                   + ls[2:]),
     "bad_emb: line 2: 'vector' must be a non-empty list of numbers"),
    (_zero_dimension_binary, "bad_emb: byte 8: dimension must be at least 1"),
    (_edited_jsonl(lambda ls: ls[:1] + [re.sub(r"\[[^,\]]+", "[1e200", ls[1], count=1)] + ls[2:]),
     r"vector for '[^']+' has a norm outside the float64 range"),
    # an integer JSON reads but float() cannot hold
    (_edited_jsonl(lambda ls: ls[:1] + [re.sub(r"\[[^,\]]+", "[1" + "0" * 400, ls[1], count=1)]
                   + ls[2:]),
     "bad_emb: line 2: 'vector' must be a list of numbers"),
    (_non_utf8_id_binary, "bad_emb: byte 18: quote id is not valid UTF-8"),
], ids=["truncated_binary", "malformed_line", "no_quote_id", "no_vector", "nan", "duplicate_id",
        "long_integer", "string_component", "null_quote_id", "trailing_binary", "empty_vector",
        "zero_dimension_binary", "norm_overflow", "integer_beyond_float_range",
        "non_utf8_binary_id"])
def test_bad_embedding_file_is_input_error(sample, tmp_path, capsys, write, message):
    corpus_path, emb_path, _ = sample
    bad = tmp_path / "bad_emb"
    write(emb_path, bad)
    code, _, err = run_cli(capsys, "build", str(corpus_path), "--reading", "r1",
                           "--network", "an", "--embeddings", str(bad),
                           "--out", str(tmp_path / "out"))
    assert code == 1, err
    assert re.search(message, err), err


@pytest.mark.parametrize("flag", ["--stopwords", "--noun-lexicon"])
def test_non_utf8_word_list_is_input_error(sample, tmp_path, capsys, flag):
    corpus_path, _, _ = sample
    words = tmp_path / "words.txt"
    words.write_bytes("pedagogy\nété\n".encode("latin-1"))
    code, _, err = run_cli(capsys, "metrics", str(corpus_path), "--level", "network",
                           flag, str(words))
    assert code == 1, err
    assert f"{words}: byte 9: not valid UTF-8" in err
    assert "corpus" not in err


def test_missing_input_file_is_input_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "validate", str(tmp_path / "nope.jsonl"))
    assert code == 1
    assert "error" in err


def test_internal_failure_exits_two(sample, capsys, monkeypatch):
    import aicnet.cli as cli

    corpus_path, _, _ = sample
    monkeypatch.setitem(cli._COMMANDS, "validate", lambda args: 1 // 0)
    code, _, err = run_cli(capsys, "validate", str(corpus_path))
    assert code == 2
    assert "internal error" in err


def test_custom_noun_lexicon(jsonl_file, tmp_path, capsys):
    corpus_path = _word_corpus(jsonl_file)
    lexicon = tmp_path / "nouns.txt"
    lexicon.write_text("rhythm\n")  # pedagogy no longer counts as a noun
    out = tmp_path / "lex"
    code, _, _ = run_cli(capsys, "build", str(corpus_path), "--reading", "r1",
                         "--network", "cn", "--drop-lowest", "0",
                         "--noun-lexicon", str(lexicon), "--out", str(out))
    assert code == 0
    graph = read_export(out / "r1_cn.graphml")
    assert graph.edges == {("A", "B"): 1.0}


def test_empty_noun_lexicon_means_no_lexicon_nouns(jsonl_file, tmp_path, capsys):
    corpus_path = _word_corpus(jsonl_file)
    lexicon = tmp_path / "nouns.txt"
    lexicon.write_text("")  # neither pedagogy nor rhythm has a noun suffix
    out = tmp_path / "lex"
    code, _, err = run_cli(capsys, "build", str(corpus_path), "--reading", "r1",
                           "--network", "cn", "--drop-lowest", "0",
                           "--noun-lexicon", str(lexicon), "--out", str(out))
    assert code == 0, err
    assert read_export(out / "r1_cn.graphml").edges == {}


def _run_subprocess(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "aicnet.cli", *args],
        capture_output=True, cwd=cwd, env=child_env(), check=False,
    )


def test_cli_byte_identical_runs(sample, tmp_path):
    corpus_path, emb_path, _ = sample
    outputs = []
    for run in (1, 2):
        out_dir = tmp_path / f"run{run}"
        result = _run_subprocess(
            ["metrics", str(corpus_path), "--level", "node",
             "--embeddings", str(emb_path), "--out", str(out_dir)],
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        files = {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
        }
        outputs.append((result.stdout, files))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("argv, unbuffered", [
    (["validate", "sample_corpus.jsonl"], False), (["--help"], False),
    (["metrics", "sample_corpus.jsonl", "--level", "node"], False), (["--help"], True),
], ids=["validate", "help", "metrics", "help_unbuffered"])
def test_a_stdout_that_cannot_be_written_is_an_input_error(argv, unbuffered):
    # buffered, the write fails at main's flush; unbuffered, at argparse's write of the help
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-m", "aicnet.cli", *argv], stdout=full,
                                stderr=subprocess.PIPE, cwd=_DATA, env=env, check=False)
    note = HASH_NOTE if argv[0] == "metrics" else ""
    assert (result.returncode, result.stderr) == (
        1, f"{note}error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n".encode())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("stderr", ["closed", "full"])
@pytest.mark.parametrize("flags, err", [
    ([], HASH_NOTE), (["--embeddings", "orphans.jsonl"], "warning: embeddings for unknown quote "
                                                          "ids: ghost\n"),
], ids=["note", "warning"])
def test_a_stderr_that_is_closed_or_full_loses_the_line_alone(tmp_path, stderr, flags, err):
    # fd 2 closed at startup leaves sys.stderr None, where print(file=None) writes to stdout
    lines = (_DATA / "sample_embeddings.jsonl").read_text(encoding="utf-8").splitlines()
    (tmp_path / "orphans.jsonl").write_text(
        "\n".join(lines + [json.dumps(dict(json.loads(lines[0]), quote_id="ghost"))]) + "\n",
        encoding="utf-8")
    argv = [sys.executable, "-m", "aicnet.cli", "metrics", str(_DATA / "sample_corpus.jsonl"),
            "--level", "network", *flags]
    kept = subprocess.run(argv, capture_output=True, cwd=tmp_path, env=child_env(), check=False)
    assert (kept.returncode, kept.stderr) == (0, err.encode())
    with open("/dev/full", "wb") as full:
        lost = subprocess.run(argv, stdout=subprocess.PIPE, cwd=tmp_path, env=child_env(),
                              check=False, **({"stderr": full} if stderr == "full" else
                                              {"preexec_fn": lambda: os.close(2)}))
    assert (lost.returncode, lost.stdout) == (0, kept.stdout)


# an internal error: a command that raises what no input error is
_INTERNAL_ERROR = """
import sys
from aicnet import cli

cli._COMMANDS["validate"] = lambda args: 1 / 0
sys.exit(cli.main(["validate", "missing.jsonl"]))
"""


@pytest.mark.parametrize("argv, code", [
    (["-m", "aicnet.cli", "validate", "missing.jsonl"], 1),
    (["-m", "aicnet.cli", "metrics", "--bogus"], 1),
    (["-c", _INTERNAL_ERROR], 2),
], ids=["input_error", "usage", "internal_error"])
def test_with_fd_2_closed_an_error_writes_nothing_on_stdout(tmp_path, argv, code):
    # fd 2 closed at startup leaves sys.stderr None, where print(file=None) writes to stdout
    result = subprocess.run([sys.executable, *argv], stdout=subprocess.PIPE, cwd=tmp_path,
                            env=child_env(), check=False, preexec_fn=lambda: os.close(2))
    assert (result.returncode, result.stdout) == (code, b"")
    kept = subprocess.run([sys.executable, *argv], capture_output=True, cwd=tmp_path,
                          env=child_env(), check=False)
    assert (kept.returncode, kept.stdout) == (code, b"")
    assert re.match(r"(aicnet metrics: |internal )?error: ", kept.stderr.decode().splitlines()[-1])


# gc.freeze counts its calls; the probe, registered first, runs after every other exit handler
_EXIT_PROBE = """
import atexit, gc, json, sys
from aicnet import cli

calls, freeze = [], gc.freeze
gc.freeze = lambda: calls.append(freeze())
atexit.register(lambda: print(json.dumps([len(calls), gc.get_freeze_count()])))
print(json.dumps([cli.main(["validate", sys.argv[1]]) for _ in range(2)]))
"""


def test_a_command_process_freezes_its_heap_once_at_exit():
    result = subprocess.run([sys.executable, "-c", _EXIT_PROBE, "sample_corpus.jsonl"],
                            capture_output=True, text=True, cwd=_DATA, env=child_env(),
                            check=False)
    assert (result.returncode, result.stderr) == (0, "")
    codes, (freezes, frozen) = map(json.loads, result.stdout.splitlines()[-2:])
    assert (codes, freezes) == ([0, 0], 1)
    assert frozen > 0


# five calls of main in one process, and how many exit handlers they added
_REGISTRATIONS = """
import atexit, json, sys
from aicnet import cli

before = atexit._ncallbacks()
codes = [cli.main(["validate", sys.argv[1]]) for _ in range(5)]
print(json.dumps([codes, atexit._ncallbacks() - before]))
"""


def test_main_registers_its_exit_handler_once_per_process():
    result = subprocess.run([sys.executable, "-c", _REGISTRATIONS, "sample_corpus.jsonl"],
                            capture_output=True, text=True, cwd=_DATA, env=child_env(),
                            check=False)
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout.splitlines()[-1]) == [[0] * 5, 1]
