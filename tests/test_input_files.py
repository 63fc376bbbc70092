"""Input files on the command line: a malformed corpus, vector file or word
list is an input error (exit 1) that names the file and the line or byte, and
a corpus reads the same from CSV as from JSONL."""

from __future__ import annotations

import contextlib
import io
import json
import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from aicnet.cli import main
from aicnet.corpus import Corpus, load_corpus, save_corpus
from aicnet.errors import AicnetError, ParseError
from aicnet.semantic import EmbeddingStore, load_embeddings, save_embeddings
from aicnet.synth import generate, random_params
from aicnet.textpipe import load_wordlist

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
    save_corpus(load_corpus(corpus), files["corpus_csv"], "csv")
    save_embeddings(_STORE, files["vectors_jsonl"])
    save_embeddings(_STORE, files["vectors_binary"], format="binary")
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


def _binary_cut_in_record_1() -> bytes:
    buf = io.BytesIO()
    buf.write(b"AICEMB01" + struct.pack("<II", 2, 2))
    buf.write(struct.pack("<H", 2) + b"q1" + struct.pack("<2f", 1.0, 0.0))
    buf.write(struct.pack("<H", 2) + b"q2" + struct.pack("<f", 0.6))  # one component short
    return buf.getvalue()


def _csv_with_kind(kind: str) -> bytes:
    return ("record,id,reading_id,author_id,kind,quote_id,parent_id,body,ts,text\n"
            "quote,q1,r1,,,,,,,A passage.\n"
            f"artifact,a1,r1,A,{kind},q1,,note,,\n").encode()


# kind, file bytes, and the error's "<where>: <reason>"
_MALFORMED = {
    "corpus_jsonl": ("corpus_jsonl", b'{"record": "quote", "id": "q1"}\n\n[1, 2]\n',
                     "line 1: missing or empty field 'reading_id'"),
    "corpus_jsonl_not_an_object": ("corpus_jsonl", b'\n[1, 2]\n',
                                   "line 2: record is not a JSON object"),
    "corpus_csv": ("corpus_csv", _csv_with_kind("note"), "line 3: unknown kind 'note'"),
    "corpus_not_utf8": ("corpus_jsonl", b'{"record": "quote", "id": "q\xe91"}\n',
                        "byte 28: not valid UTF-8"),
    "corpus_csv_not_utf8": ("corpus_csv", b"\xef\xbb\xbfrecord,id\nquote,q\xff1\n",
                            "byte 20: not valid UTF-8"),
    "vectors_jsonl": ("vectors_jsonl", b'{"quote_id": "q1", "vector": [1.0, 0.0]}\n'
                      b'{"quote_id": "q2"}\n',
                      "line 2: expected an object with 'quote_id' and 'vector'"),
    "vectors_jsonl_not_an_object": ("vectors_jsonl", b'["q1", [1.0, 0.0]]\n',
                                    "line 1: record is not a JSON object"),
    "vectors_binary": ("vectors_binary", _binary_cut_in_record_1(),
                       "byte 30: truncated record 1: 10 bytes needed, 6 left"),
    "stopwords": ("stopwords", "rhythm\nété\n".encode("latin-1"), "byte 7: not valid UTF-8"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_a_malformed_input_file_is_named_with_its_line_or_byte(tmp_path, case):
    kind, data, located = _MALFORMED[case]
    files = _valid_files(tmp_path)
    path = files[kind]
    path.write_bytes(data)
    code, out, err = _run(_argv(kind, path, files["corpus_jsonl"], tmp_path / "out"))
    assert (code, out, err) == (1, "", f"error: {path}: {located}\n")


def test_an_empty_corpus_names_its_file(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"\n\n")
    code, out, err = _run(["validate", str(empty)])
    assert (code, err) == (1, "")  # validate lists its problems on stdout
    assert out == f"error: {empty}: corpus file contains no records\n1 problem(s) found\n"
    code, out, err = _run(["stats", str(empty)])
    assert (code, out, err) == (1, "", f"error: {empty}: corpus file contains no records\n")


@pytest.mark.parametrize("value, code, err", [
    ("1", 0, ""),
    ("one", 1, "aicnet metrics: error: argument --threshold: "
               "invalid _positive_threshold value: 'one'\n"),
], ids=["one", "not_a_number"])
def test_threshold_one_passes_and_a_non_number_keeps_argparse_message(tmp_path, value, code,
                                                                       err):
    files = _valid_files(tmp_path)
    got_code, _, got_err = _run(["metrics", str(files["corpus_jsonl"]), "--level", "network",
                                 "--threshold", value])
    assert got_code == code
    assert got_err.endswith(err) if err else got_err == ""


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


def _file_fault(kind: str, path: Path) -> ParseError | None:
    """The error that locates the first fault of the file, read as its kind
    alone, or None when it has no such fault."""
    try:
        if kind.startswith("corpus"):
            load_corpus(path, kind.removeprefix("corpus_"))
        elif kind.startswith("vectors"):
            load_embeddings(path)
        else:
            load_wordlist(path)
    except ParseError as exc:
        return exc
    except AicnetError:  # a fault of the content, not of the file's syntax
        pass
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
        assert re.fullmatch(rf"error: {re.escape(str(path))}: (line|byte) \d+: [^\n]+\n", err), err
        assert err == f"error: {fault}\n"


# -- CSV and JSONL give the same reports ----------------------------------------

def _two_reading_corpus(seed_: int) -> Corpus:
    """Two random synthetic readings, r1 and r2, over overlapping author ids."""
    c1, _, _ = generate(random_params(seed_), reading_id="r1", id_prefix="r1-")
    c2, _, _ = generate(random_params(seed_ + 1), reading_id="r2", id_prefix="r2-")
    return Corpus(readings={**c1.readings, **c2.readings}, authors=c1.authors | c2.authors)


def _reports(path: Path, out: Path) -> tuple[dict[str, bytes], str]:
    """Every report file of ``metrics --level node|network --out``, and the
    stdout of ``compare r1 r2``."""
    for level in ("node", "network"):
        assert _run(["metrics", str(path), "--level", level, "--out", str(out)])[0] == 0
    code, compared, _ = _run(["compare", str(path), "r1", "r2"])
    assert code == 0
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}, compared


@pytest.mark.parametrize("source", ["sample_corpus", "random_3", "random_8"])
def test_csv_and_jsonl_give_identical_reports(tmp_path, source):
    if source == "sample_corpus":
        corpus = load_corpus(_DATA / "sample_corpus.jsonl")
    else:
        corpus = _two_reading_corpus(int(source.removeprefix("random_")))
    reports = []
    for format in ("jsonl", "csv"):
        path = tmp_path / f"corpus.{format}"
        save_corpus(corpus, path, format)
        reports.append(_reports(path, tmp_path / f"out_{format}"))
    assert reports[0] == reports[1]
    assert len(reports[0][0]) == 6  # two node reports of two files each, one network pair
