"""Input files on the command line: a corpus, vector file or word list with a
fault, of syntax or of content, is an input error (exit 1) that names the file
and the line or byte, and a corpus reads the same from CSV as from JSONL and in
any record order."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import re
from collections.abc import Callable
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from aicnet.cli import main
from aicnet.corpus import Corpus, load_corpus, save_corpus
from aicnet.errors import (
    CyclicThread,
    DanglingParent,
    EmptyCorpus,
    MissingQuote,
    ParseError,
)
from aicnet.semantic import EmbeddingStore, load_embeddings, save_embeddings
from aicnet.synth import generate, random_params
from aicnet.textpipe import load_wordlist

from conftest import HASH_NOTE, binary_vectors, write_csv_corpus

_DATA = Path(__file__).parent / "data"

# two quotes of different text, each annotated by another author, so that the
# attention network reads both vectors
_RECORDS = [
    {"record": "quote", "id": "q1", "reading_id": "r1", "text": "A passage on rhythm."},
    {"record": "quote", "id": "q2", "reading_id": "r1", "text": "Another passage entirely."},
    {"id": "a1", "reading_id": "r1", "author_id": "A", "kind": "annotation", "quote_id": "q1",
     "body": "the rhythm of the pedagogy"},
    {"id": "a2", "reading_id": "r1", "author_id": "B", "kind": "annotation", "quote_id": "q2",
     "body": "a pedagogy of rhythm"},
    {"id": "p1", "reading_id": "r1", "author_id": "B", "kind": "reply", "parent_id": "a1",
     "body": "reply"},
]
_STORE = EmbeddingStore(dim=2, vectors={"q1": (1.0, 0.0), "q2": (0.6, 0.8)})


def _valid_files(root: Path) -> dict[str, Path]:
    """A valid file of each input kind, keyed by kind."""
    corpus = root / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in _RECORDS), encoding="utf-8")
    files = {"corpus_jsonl": corpus, "corpus_csv": root / "corpus.csv",
             "vectors_jsonl": root / "emb.jsonl", "vectors_binary": root / "emb.bin",
             "stopwords": root / "stop.txt"}
    write_csv_corpus(load_corpus(corpus), files["corpus_csv"])
    save_embeddings(_STORE, files["vectors_jsonl"])
    files["vectors_binary"].write_bytes(binary_vectors(_STORE.vectors, _STORE.dim))
    files["stopwords"].write_text("# extra stopwords\nrhythm\n", encoding="utf-8")
    return files


def _argv(kind: str, path: Path, corpus: Path, out: Path) -> list[str]:
    """A command that reads ``path`` as an input of its kind."""
    if kind.startswith("corpus"):
        return ["stats", str(path)]
    if kind.startswith("vectors"):
        return ["build", str(corpus), "--reading", "r1", "--network", "an", "--format", "json",
                "--embeddings", str(path), "--out", str(out)]
    return ["build", str(corpus), "--reading", "r1", "--network", "cn", "--format", "json",
            "--drop-lowest", "0", "--min-freq", "1", "--stopwords", str(path), "--out", str(out)]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _binary_with_q2(*components: float) -> bytes:
    """A binary vector file of dimension 2: q1, then q2 holding ``components``
    in its record, which starts at byte 28."""
    return binary_vectors({"q1": (1.0, 0.0), "q2": components}, 2)


def _csv_with_kind(kind: str) -> bytes:
    return ("record,id,reading_id,author_id,kind,quote_id,parent_id,body,ts,text\n"
            "quote,q1,r1,,,,,,,A passage.\n"
            f"artifact,a1,r1,A,{kind},q1,,note,,\n").encode()


def _csv_after_multiline_body(row: str) -> bytes:
    """A CSV corpus whose annotation body spans lines 3 and 4, a blank line 5,
    and then ``row``, a record with a body of two lines, which starts at line 6."""
    return ("record,id,reading_id,author_id,kind,quote_id,parent_id,body,ts,text\n"
            "quote,q1,r1,,,,,,,A passage.\n"
            'artifact,a1,r1,A,annotation,q1,,"one\ntwo",,\n'
            "\n"
            f'{row},"x\ny",,\n').encode()


def _jsonl(*records: dict | str) -> bytes:
    """JSONL lines of the records; a string is a line as it stands."""
    return "".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in records).encode()


def _note(aid: str, reading_id: str, quote_id: str) -> dict:
    return {"id": aid, "reading_id": reading_id, "author_id": "A", "kind": "annotation",
            "quote_id": quote_id, "body": "note"}


def _reply(aid: str, reading_id: str, parent_id: str) -> dict:
    return {"id": aid, "reading_id": reading_id, "author_id": "B", "kind": "reply",
            "parent_id": parent_id, "body": ""}


def _in_second_reading(*records: dict) -> bytes:
    """Reading r1, then reading r2 with the same quote and annotation ids and
    then the records: a fault among them is neither on r2's first line nor a
    duplicate, since ids are per reading."""
    return _jsonl({"record": "quote", "id": "q1", "reading_id": "r1", "text": "A passage."},
                  _note("a1", "r1", "q1"),
                  {"record": "quote", "id": "q1", "reading_id": "r2", "text": "A passage."},
                  _note("a1", "r2", "q1"), *records)


def _vectors(line: str) -> bytes:
    """A JSONL vector file: a good q1 record, a blank line, then ``line``."""
    return _jsonl({"quote_id": "q1", "vector": [1.0, 0.0]}, "", line)



# kind, file bytes, and the error's "<where>: <reason>"
_MALFORMED = {
    "corpus_jsonl": ("corpus_jsonl", b'{"record": "quote", "id": "q1"}\n\n[1, 2]\n',
                     "line 1: missing or empty field 'reading_id'"),
    "corpus_jsonl_not_an_object": ("corpus_jsonl", b'\n[1, 2]\n',
                                   "line 2: record is not a JSON object"),
    "corpus_csv": ("corpus_csv", _csv_with_kind("note"), "line 3: unknown kind 'note'"),
    # a record's fault is at its first line, though its body cell runs on
    "corpus_csv_multiline": ("corpus_csv",
                             _csv_after_multiline_body("artifact,a2,r1,B,note,q1,"),
                             "line 6: unknown kind 'note'"),
    "corpus_not_utf8": ("corpus_jsonl", b'{"record": "quote", "id": "q\xe91"}\n',
                        "byte 28: not valid UTF-8"),
    "corpus_csv_not_utf8": ("corpus_csv", b"\xef\xbb\xbfrecord,id\nquote,q\xff1\n",
                            "byte 20: not valid UTF-8"),
    "vectors_jsonl": ("vectors_jsonl", b'{"quote_id": "q1", "vector": [1.0, 0.0]}\n'
                      b'{"quote_id": "q2"}\n',
                      "line 2: expected an object with 'quote_id' and 'vector'"),
    "vectors_jsonl_not_an_object": ("vectors_jsonl", b'["q1", [1.0, 0.0]]\n',
                                    "line 1: record is not a JSON object"),
    "vectors_binary": ("vectors_binary", _binary_with_q2(0.6),  # one component short
                       "byte 30: truncated record 1: 10 bytes needed, 6 left"),
    "stopwords": ("stopwords", "rhythm\nété\n".encode("latin-1"), "byte 7: not valid UTF-8"),
    # faults of content, each at the line or byte of its record
    "corpus_missing_quote": ("corpus_jsonl", _in_second_reading(_note("a2", "r2", "ghost")),
                             f"line 5: {MissingQuote('a2')}"),
    "corpus_dangling_parent": ("corpus_jsonl", _in_second_reading(_reply("p1", "r2", "gone")),
                               f"line 5: {DanglingParent('p1')}"),
    "corpus_cycle": ("corpus_jsonl", _in_second_reading(_reply("p1", "r2", "p2"),
                                                        _reply("p2", "r2", "p1")),
                     f"line 5: {CyclicThread('p1')}"),
    "corpus_csv_multiline_dangling_parent": (
        "corpus_csv", _csv_after_multiline_body("artifact,p1,r1,B,reply,,gone"),
        f"line 6: {DanglingParent('p1')}"),
    "vectors_jsonl_repeated_id": ("vectors_jsonl", _vectors('{"quote_id": "q1", "vector": [0, 1]}'),
                                  "line 3: vector for 'q1' is given twice"),
    "vectors_jsonl_nan": ("vectors_jsonl", _vectors('{"quote_id": "q2", "vector": [NaN, 1]}'),
                          "line 3: vector for 'q2' has a non-finite component"),
    "vectors_jsonl_zero": ("vectors_jsonl", _vectors('{"quote_id": "q2", "vector": [0, 0]}'),
                           "line 3: vector for 'q2' is all zeros"),
    "vectors_jsonl_dimension": ("vectors_jsonl", _vectors('{"quote_id": "q2", "vector": [1]}'),
                                "line 3: vector for 'q2' has 1 components, expected 2"),
    "vectors_jsonl_norm": ("vectors_jsonl", _vectors('{"quote_id": "q2", "vector": [1e200, 1]}'),
                           "line 3: vector for 'q2' has a norm outside the float64 range"),
    "vectors_binary_nan": ("vectors_binary", _binary_with_q2(math.nan, 1.0),
                           "byte 28: vector for 'q2' has a non-finite component"),
    "vectors_binary_zero": ("vectors_binary", _binary_with_q2(0.0, 0.0),
                            "byte 28: vector for 'q2' is all zeros"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_a_malformed_input_file_is_named_with_its_line_or_byte(tmp_path, case):
    kind, data, located = _MALFORMED[case]
    files = _valid_files(tmp_path)
    path = files[kind]
    path.write_bytes(data)
    code, out, err = _run(_argv(kind, path, files["corpus_jsonl"], tmp_path / "out"))
    assert (code, out, err) == (1, "", f"error: {path}: {located}\n")


def test_validate_lists_every_fault_located_in_the_documented_order(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(_jsonl(
        {"record": "quote", "id": "q1", "reading_id": "r1", "text": "A passage."},
        _reply("p1", "r1", "p2"), _reply("p2", "r1", "p1"), _note("a1", "r1", "ghost"),
        _reply("p3", "r1", "gone"), _note("a1", "r1", "q1"), "{not json"))
    code, out, err = _run(["validate", str(path)])
    assert (code, err) == (1, "")
    # parse errors, duplicates, then per reading missing quotes and dangling parents, then cycles
    assert out.splitlines() == [f"error: {path}: {fault}" for fault in [
        "line 7: invalid JSON (Expecting property name enclosed in double quotes)",
        "line 6: duplicate id 'a1' in reading 'r1'",
        f"line 4: {MissingQuote('a1')}",
        f"line 5: {DanglingParent('p3')}",
        f"line 2: {CyclicThread('p1')}",
        f"line 3: {CyclicThread('p2')}",
    ]] + ["6 problem(s) found"]


def test_jsonl_lines_end_at_line_feeds_alone(tmp_path):
    # JSON strings may hold these raw, and save_corpus writes them raw
    odd = "\u2028\u2029\u0085"
    records = [dict(r) for r in _RECORDS]
    records[2]["body"] += odd
    records[4]["body"] = f"a{odd}b"
    source = tmp_path / "source.jsonl"
    source.write_bytes(_jsonl(*records))
    corpus = load_corpus(source)
    assert corpus.readings["r1"].artifact_by_id("p1").body == f"a{odd}b"
    for format, save in (("jsonl", save_corpus), ("csv", write_csv_corpus)):
        path = tmp_path / f"corpus.{format}"
        save(corpus, path)
        assert odd in path.read_text(encoding="utf-8")
        assert load_corpus(path, format) == corpus
    vectors = tmp_path / "emb.jsonl"
    vectors.write_text('{"quote_id": "q\u20281", "vector": [1.0, 0.0]}\r\n', encoding="utf-8")
    assert load_embeddings(vectors).vectors == {"q\u20281": (1.0, 0.0)}


def test_an_empty_corpus_names_its_file(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"\n\n")
    code, out, err = _run(["validate", str(empty)])
    assert (code, err) == (1, "")  # validate lists its problems on stdout
    assert out == f"error: {empty}: corpus file contains no records\n1 problem(s) found\n"
    code, out, err = _run(["stats", str(empty)])
    assert (code, out, err) == (1, "", f"error: {empty}: corpus file contains no records\n")


@pytest.mark.parametrize("value, code, err", [
    ("1", 0, HASH_NOTE),
    ("one", 1, "aicnet metrics: error: argument --threshold: "
               "invalid _positive_threshold value: 'one'\n"),
], ids=["one", "not_a_number"])
def test_threshold_one_passes_and_a_non_number_keeps_argparse_message(tmp_path, value, code,
                                                                       err):
    files = _valid_files(tmp_path)
    got_code, _, got_err = _run(["metrics", str(files["corpus_jsonl"]), "--level", "network",
                                 "--threshold", value])
    assert got_code == code
    assert got_err == err if code == 0 else got_err.endswith(err)


# -- byte-mutation fuzz ---------------------------------------------------------

# (operation, position, bytes): a position past the end wraps around the file;
# the bytes are arbitrary, or the ASCII that the formats give meaning to
_EDIT = st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 1 << 16),
                  st.binary(min_size=1, max_size=3)
                  | st.text('{}[]",:\n\r #0a', min_size=1, max_size=3).map(str.encode))


def _mutated(data: bytes, edits: list[tuple[str, int, bytes]]) -> bytes:
    buf = bytearray(data)
    for op, position, chunk in edits:
        i = position % (len(buf) + 1)
        if op == "insert":
            buf[i:i] = chunk
        elif op == "delete":
            del buf[i : i + len(chunk)]
        else:
            buf[i : i + len(chunk)] = chunk
    return bytes(buf)


def _file_fault(kind: str, path: Path) -> ParseError | EmptyCorpus | None:
    """The error that a load of the file, read as its kind alone, raises for
    its first fault, or None when it has none. A load raises no other error."""
    try:
        if kind.startswith("corpus"):
            load_corpus(path, kind.removeprefix("corpus_"))
        elif kind.startswith("vectors"):
            load_embeddings(path)
        else:
            load_wordlist(path)
    except (ParseError, EmptyCorpus) as exc:
        return exc
    return None


@pytest.mark.parametrize("kind", ["corpus_jsonl", "corpus_csv", "vectors_jsonl",
                                  "vectors_binary", "stopwords"])
@seed(22)
@settings(max_examples=50, deadline=None)
@given(edits=st.lists(_EDIT, min_size=1, max_size=3))
def test_a_mutated_input_file_is_an_input_error_that_names_it(tmp_path_factory, kind, edits):
    root = tmp_path_factory.mktemp("fuzz")
    files = _valid_files(root)
    path = files[kind]
    path.write_bytes(_mutated(path.read_bytes(), edits))
    fault = _file_fault(kind, path)
    code, _, err = _run(_argv(kind, path, files["corpus_jsonl"], root / "out"))
    assert code in (0, 1), err
    if fault is not None:
        assert code == 1
        if isinstance(fault, ParseError):
            assert re.fullmatch(rf"error: {re.escape(str(path))}: (line|byte) \d+: [^\n]+\n",
                                err), err
        assert err == f"error: {fault}\n"


# -- CSV and JSONL give the same reports ----------------------------------------

def _two_reading_corpus(seed_: int) -> Corpus:
    """Two random synthetic readings, r1 and r2, over overlapping author ids."""
    c1, _, _ = generate(random_params(seed_), reading_id="r1", id_prefix="r1-")
    c2, _, _ = generate(random_params(seed_ + 1), reading_id="r2", id_prefix="r2-")
    return Corpus(readings={**c1.readings, **c2.readings}, authors=c1.authors | c2.authors)


def _reports(path: Path, out: Path, *extra: str) -> tuple[dict[str, bytes], list[str]]:
    """Every report file of ``metrics --level node|network --out``, and the
    stdout of both and of ``compare r1 r2``, each given the ``extra`` arguments."""
    printed = []
    for argv in (["metrics", str(path), "--level", "node", "--out", str(out)],
                 ["metrics", str(path), "--level", "network", "--out", str(out)],
                 ["compare", str(path), "r1", "r2"]):
        code, stdout, stderr = _run([*argv, *extra])
        assert code == 0, stderr
        printed.append(stdout)
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}, printed


@pytest.mark.parametrize("source", ["sample_corpus", "random_3", "random_8"])
def test_csv_and_jsonl_give_identical_reports(tmp_path, source):
    if source == "sample_corpus":
        corpus = load_corpus(_DATA / "sample_corpus.jsonl")
    else:
        corpus = _two_reading_corpus(int(source.removeprefix("random_")))
    reports = []
    for format, save in (("jsonl", save_corpus), ("csv", write_csv_corpus)):
        path = tmp_path / f"corpus.{format}"
        save(corpus, path)
        reports.append(_reports(path, tmp_path / f"out_{format}"))
    assert reports[0] == reports[1]
    assert len(reports[0][0]) == 6  # two node reports of two files each, one network pair


# -- record order does not change a report ------------------------------------

def _shuffled(path: Path, to: Path, rng: random.Random) -> None:
    """A copy of a corpus file with its records in another order: the lines of
    a JSONL file, or the data rows under a CSV header."""
    text = path.read_bytes().decode("utf-8")
    if path.suffix == ".jsonl":
        lines = text.split("\n")[:-1]  # the last line feed ends the last record
        rng.shuffle(lines)
        to.write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="")
        return
    header, *rows = csv.reader(io.StringIO(text))
    rng.shuffle(rows)
    with to.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _source(source: str, tmp_path: Path, bench) -> tuple[Path, Path | None]:
    """A test corpus file, or a benchmark workload's at its tiny sizes, and its vector file."""
    if source.endswith("_corpus"):
        return _DATA / f"{source}.jsonl", None
    inputs, _ = bench.prepare(source, 0, tmp_path, bench.corpora.TINY[source])
    return inputs.corpus, inputs.vectors


@pytest.mark.parametrize("source", ["sample_corpus", "attention_dense", "creation_text",
                                    "class_roster"])
def test_record_order_does_not_change_a_report(tmp_path, bench, source):
    path, vectors = _source(source, tmp_path, bench)
    extra = ["--embeddings", str(vectors)] if vectors else []
    shuffled = tmp_path / f"shuffled{path.suffix}"
    _shuffled(path, shuffled, random.Random(source))
    assert shuffled.read_bytes() != path.read_bytes()
    reports = [_reports(p, tmp_path / f"out_{p.stem}", *extra) for p in (path, shuffled)]
    assert reports[0] == reports[1]
    assert reports[0][0] and reports[0][1]


# -- ids and the other readings do not change a report ------------------------

_SOURCES = ["sample_corpus", "unicode_corpus", "attention_dense", "creation_text", "class_roster"]
_ID_FIELDS = ("id", "quote_id", "parent_id")


def _rewritten(path: Path, to: Path, edit: Callable[[dict], dict | None]) -> None:
    """A copy of a JSONL or CSV file whose records, read as dicts, ``edit``
    maps to the record to write, or to None to drop the record."""
    text = path.read_bytes().decode("utf-8")
    if path.suffix == ".jsonl":
        records = [edit(json.loads(line)) for line in text.split("\n") if line.strip()]
        to.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n"
                              for r in records if r is not None), encoding="utf-8", newline="")
        return
    header, *rows = csv.reader(io.StringIO(text))
    records = [edit(dict(zip(header, row))) for row in rows]
    with to.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *([r.get(name, "") for name in header]
                                            for r in records if r is not None)])


def _prefixed(record: dict) -> dict:
    """The record with ``x-`` before each quote or artifact id it holds: a
    bijection that keeps the ids' order."""
    return {k: f"x-{v}" if k in _ID_FIELDS and v else v for k, v in record.items()}


@pytest.mark.parametrize("source", _SOURCES)
def test_renaming_ids_in_order_does_not_change_a_report(tmp_path, bench, source):
    path, vectors = _source(source, tmp_path, bench)
    renamed = tmp_path / f"renamed{path.suffix}"
    _rewritten(path, renamed, _prefixed)
    assert renamed.read_bytes() != path.read_bytes()
    reports = []
    for corpus, name in ((path, "ids"), (renamed, "renamed")):
        extra = []
        if vectors:
            extra = ["--embeddings", str(tmp_path / f"{name}_vectors.jsonl")]
            _rewritten(vectors, Path(extra[1]), _prefixed if corpus == renamed else lambda r: r)
        reports.append(_reports(corpus, tmp_path / f"out_{name}", *extra))
    assert reports[0] == reports[1]
    assert reports[0][0] and all(reports[0][1])


@pytest.mark.parametrize("source", _SOURCES)
def test_a_reading_reports_alike_without_the_other_readings(tmp_path, bench, source):
    path, vectors = _source(source, tmp_path, bench)
    extra = ["--embeddings", str(vectors)] if vectors else []
    full = tmp_path / "full"
    assert _run(["metrics", str(path), "--level", "node", "--out", str(full), *extra])[0] == 0
    reading_ids = sorted(f.stem.removeprefix("metrics_node_") for f in full.glob("*.json"))
    assert len(reading_ids) >= 2
    for rid in reading_ids:
        alone = tmp_path / f"{rid}{path.suffix}"
        authors: set[str] = set()

        def keep(record: dict) -> dict | None:
            if record["reading_id"] != rid:
                return None
            if record.get("author_id"):
                authors.add(record["author_id"])
            return record

        _rewritten(path, alone, keep)
        network = ["metrics", "--level", "network", *extra]
        got = _run([network[0], str(alone), *network[1:]])
        want = _run([network[0], str(path), *network[1:], "--reading", rid])
        # only the stderr may differ: a vector file holds the other readings' quotes
        assert got[:2] == want[:2] and got[0] == 0
        out = tmp_path / f"alone_{rid}"
        assert _run(["metrics", str(alone), "--level", "node", "--out", str(out), *extra])[0] == 0
        name = f"metrics_node_{rid}.json"
        want_rows = [r for r in json.loads((full / name).read_bytes()) if r["author_id"] in authors]
        assert json.loads((out / name).read_bytes()) == want_rows
        assert sorted(r["author_id"] for r in want_rows) == sorted(authors)
