"""Corpus loading, validation, thread resolution, and descriptive stats."""

from __future__ import annotations

import csv
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aicnet.corpus import (
    Artifact,
    Corpus,
    Quote,
    Reading,
    _collect,
    descriptive_stats,
    load_corpus,
    normalize_text,
    save_corpus,
    thread_root,
    thread_roots,
)
from aicnet.errors import (
    AicnetError,
    CyclicThread,
    DanglingParent,
    EmptyCorpus,
    MissingQuote,
    ParseError,
    UnknownArtifact,
    UnknownReading,
)

from conftest import BROKEN_CHAIN_ROOTS, broken_chain_corpus, mk_corpus, write_csv_corpus
from oracles import oracle_collect, oracle_normalize_text, oracle_thread_root


def _minimal_records() -> list[dict]:
    return [
        {"record": "quote", "id": "q1", "reading_id": "r1", "text": "A quoted sentence."},
        {"id": "a1", "reading_id": "r1", "author_id": "A", "kind": "annotation",
         "quote_id": "q1", "body": "thoughts about the quote"},
    ]


def test_load_minimal_corpus(jsonl_file):
    corpus = load_corpus(jsonl_file(_minimal_records()))
    assert set(corpus.readings) == {"r1"}
    assert corpus.authors == {"A"}
    reading = corpus.readings["r1"]
    assert len(reading.artifacts) == 1
    assert reading.artifacts[0].quote_id == "q1"


def test_dangling_parent_rejected(jsonl_file):
    records = _minimal_records() + [
        {"id": "rep1", "reading_id": "r1", "author_id": "B", "kind": "reply",
         "parent_id": "nope", "body": "hi"},
    ]
    path = jsonl_file(records)
    with pytest.raises(ParseError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{path}: line 3: {DanglingParent('rep1')}"


def test_reply_chain_depth_two(jsonl_file):
    records = _minimal_records() + [
        {"id": "rep1", "reading_id": "r1", "author_id": "B", "kind": "reply",
         "parent_id": "a1", "body": "first reply"},
        {"id": "rep2", "reading_id": "r1", "author_id": "C", "kind": "reply",
         "parent_id": "rep1", "body": "second reply"},
    ]
    corpus = load_corpus(jsonl_file(records))
    reading = corpus.readings["r1"]
    rep2 = reading.artifact_by_id("rep2")
    # walking parent links: rep2 -> rep1 -> a1
    assert reading.artifact_by_id(rep2.parent_id).parent_id == "a1"
    assert thread_root(rep2, corpus).id == "a1"


def test_missing_quote_rejected(jsonl_file):
    records = [
        {"id": "a1", "reading_id": "r1", "author_id": "A", "kind": "annotation",
         "quote_id": "ghost", "body": "text"},
    ]
    path = jsonl_file(records)
    with pytest.raises(ParseError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{path}: line 1: {MissingQuote('a1')}"


def test_cross_reading_parent_rejected(jsonl_file):
    records = _minimal_records() + [
        {"record": "quote", "id": "q2", "reading_id": "r2", "text": "Other reading."},
        {"id": "b1", "reading_id": "r2", "author_id": "B", "kind": "annotation",
         "quote_id": "q2", "body": "note"},
        {"id": "rep1", "reading_id": "r2", "author_id": "B", "kind": "reply",
         "parent_id": "a1", "body": "points at r1"},
    ]
    path = jsonl_file(records)
    with pytest.raises(ParseError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{path}: line 5: {DanglingParent('rep1')}"


def test_cycle_rejected(jsonl_file):
    records = _minimal_records() + [
        {"id": "rep1", "reading_id": "r1", "author_id": "B", "kind": "reply",
         "parent_id": "rep2", "body": ""},
        {"id": "rep2", "reading_id": "r1", "author_id": "C", "kind": "reply",
         "parent_id": "rep1", "body": ""},
    ]
    path = jsonl_file(records)
    with pytest.raises(ParseError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{path}: line 3: {CyclicThread('rep1')}"


def test_empty_file_rejected(jsonl_file):
    with pytest.raises(EmptyCorpus):
        load_corpus(jsonl_file([]))


def test_annotation_empty_body_rejected(jsonl_file):
    records = [
        {"record": "quote", "id": "q1", "reading_id": "r1", "text": "T."},
        {"id": "a1", "reading_id": "r1", "author_id": "A", "kind": "annotation",
         "quote_id": "q1", "body": "   "},
    ]
    with pytest.raises(ParseError):
        load_corpus(jsonl_file(records))


def test_reply_empty_body_allowed(jsonl_file):
    records = _minimal_records() + [
        {"id": "rep1", "reading_id": "r1", "author_id": "B", "kind": "reply",
         "parent_id": "a1", "body": ""},
    ]
    corpus = load_corpus(jsonl_file(records))
    assert corpus.readings["r1"].artifact_by_id("rep1").body == ""


def test_duplicate_id_rejected(jsonl_file):
    records = _minimal_records() + [
        {"id": "a1", "reading_id": "r1", "author_id": "B", "kind": "annotation",
         "quote_id": "q1", "body": "dup"},
    ]
    with pytest.raises(ParseError, match="duplicate"):
        load_corpus(jsonl_file(records))


def test_validate_file_collects_everything(jsonl_file):
    records = _minimal_records() + [
        {"id": "rep1", "reading_id": "r1", "author_id": "B", "kind": "reply",
         "parent_id": "nope", "body": ""},
        {"id": "a2", "reading_id": "r1", "author_id": "B", "kind": "annotation",
         "quote_id": "ghost", "body": "x"},
    ]
    errors = _collect(jsonl_file(records), "jsonl")[1]
    assert [(e.where, e.reason) for e in errors] == [
        ("line 3", str(DanglingParent("rep1"))), ("line 4", str(MissingQuote("a2")))]


def test_validate_file_survives_malformed_line(tmp_path, jsonl_file):
    good = jsonl_file(_minimal_records())
    broken = tmp_path / "broken.jsonl"
    broken.write_text(
        good.read_text() + "{not json\n"
        + '{"id": "a9", "reading_id": "r1", "author_id": "B", "kind": "annotation", '
        '"quote_id": "ghost", "body": "x"}\n'
    )
    errors = _collect(broken, "jsonl")[1]
    # both reported, not just the first
    assert [(e.where, e.reason) for e in errors] == [
        ("line 3", "invalid JSON (Expecting property name enclosed in double quotes)"),
        ("line 4", str(MissingQuote("a9")))]


@pytest.mark.parametrize("format", ["jsonl", "csv"])
def test_non_utf8_corpus_names_the_byte_offset(tmp_path, format):
    path = tmp_path / f"corpus.{format}"
    path.write_bytes(b"record,id\nquote,q\xff1\n")
    with pytest.raises(ParseError, match=r"byte 17: not valid UTF-8") as info:
        load_corpus(path, format)
    assert (info.value.path, info.value.where) == (str(path), "byte 17")
    assert [str(e) for e in _collect(path, format)[1]] == [str(info.value)]
    # after a byte-order mark the offset still counts from the file's first byte
    path.write_bytes(b"\xef\xbb\xbfrecord,id\nquote,q\xff1\n")
    with pytest.raises(ParseError, match=r"byte 20: not valid UTF-8"):
        load_corpus(path, format)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=96), st.sampled_from(["jsonl", "csv"]))
@example(b"\r\x00", "csv")  # the header row itself is malformed
@example(b"1" * 5000, "jsonl")  # longer than Python's int-parsing limit
@example(b"[" * 100_000, "jsonl")  # nested deeper than the recursion limit
def test_load_arbitrary_bytes_only_raises_input_errors(tmp_path_factory, data, format):
    path = tmp_path_factory.mktemp("corpus") / f"corpus.{format}"
    path.write_bytes(data)
    assert all(isinstance(e, AicnetError) for e in _collect(path, format)[1])
    try:
        load_corpus(path, format)
    except AicnetError:
        pass


@pytest.mark.parametrize("format", ["jsonl", "csv"])
def test_round_trip(tmp_path, jsonl_file, format):
    records = _minimal_records() + [
        {"record": "quote", "id": "q2", "reading_id": "r1", "text": "Second  quote,\nwith noise."},
        {"id": "rep1", "reading_id": "r1", "author_id": "B", "kind": "reply",
         "parent_id": "a1", "body": "reply, with \"commas\", a \r\n, and newline\nhere",
         "ts": "2020-02-01T10:00:00Z"},
    ]
    corpus = load_corpus(jsonl_file(records))
    # aicnet writes JSONL; a CSV corpus comes from csv.writer, its rows ending in CRLF
    save = write_csv_corpus if format == "csv" else save_corpus
    out = tmp_path / f"roundtrip.{format}"
    save(corpus, out)
    again = load_corpus(out, format)
    assert again == corpus
    # after a byte-order mark, as Excel's "CSV UTF-8" writes one, the corpus is the same
    bom = tmp_path / f"bom.{format}"
    bom.write_bytes(b"\xef\xbb\xbf" + out.read_bytes())
    assert _collect(bom, format)[1] == []
    assert load_corpus(bom, format) == corpus
    # serialization is canonical: a second pass is byte-identical
    out2 = tmp_path / f"roundtrip2.{format}"
    save(again, out2)
    assert out.read_bytes() == out2.read_bytes()


def test_save_that_cannot_encode_leaves_the_file_as_it_was(tmp_path):
    corpus = mk_corpus([("q1", "r1", "A quote.")],
                       [("a1", "r1", "A", "q1", "fine"), ("a2", "r1", "B", "q1", "lone \ud800")])
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"existing bytes\n")
    with pytest.raises(UnicodeEncodeError):
        save_corpus(corpus, path)
    assert path.read_bytes() == b"existing bytes\n"


def test_an_unknown_corpus_format_is_refused(jsonl_file):
    with pytest.raises(ValueError, match="^unknown corpus format 'xml'$"):
        load_corpus(jsonl_file(_minimal_records()), "xml")


def test_csv_round_trips_a_field_over_the_default_csv_limit(tmp_path, jsonl_file):
    records = _minimal_records()
    records[-1]["body"] = "word " * 30_000  # 150,000 characters, over csv's 131,072
    corpus = load_corpus(jsonl_file(records))
    path = write_csv_corpus(corpus, tmp_path / "long.csv")
    limit = csv.field_size_limit()
    assert load_corpus(path, "csv") == corpus
    assert _collect(path, "csv")[1] == []
    assert csv.field_size_limit() == limit  # the process-wide setting is left as it was


# generated corpus files: records of few ids, so that ids repeat, parents dangle and
# threads cycle; then damage to some of them, and lines that are no records
_VALID = {"id": ["a1", "a2", "a3", "q1", "q2"], "reading_id": ["r1", "r1", "r2"],
          "author_id": ["A", "B", "café"], "quote_id": ["q1", "q2", "gone"],
          "parent_id": ["a1", "a2", "a3", "gone"], "body": ["note", 'two\nlines, "quoted"'],
          "ts": ["5"], "text": ["A quote.", "Another quote."]}
_RECORD_KEYS = {"quote": ["id", "reading_id", "text"],
           "annotation": ["id", "reading_id", "author_id", "quote_id", "body", "ts"],
           "reply": ["id", "reading_id", "author_id", "parent_id", "body", "ts"]}
_KEYS = ["record", "kind", *_VALID]
# values no record should hold; in JSON "\\ud800" is text, "\ud800" a lone surrogate
_CSV_ODD = ["", " ", "\t", "Quote", "Reply", "artifact", "\\ud800", "x\r\ny"]
_JSON_ODD = [*_CSV_ODD, "\ud800", "x\udfff", None, 7, True, [], {"k": "v"}]
# lines that are not records, or not whole ones; the two halves of an array join validly
_JSON_RAW = ["", "  ", "not json", "[1, 2]", "null", '{"a":1},{"b":[2', "3]}"]
_CSV_RAW = ["x\ry,z", 'q1,"unterminated']


def _drawn_record(draw, odd: list) -> dict:
    kind = draw(st.sampled_from(list(_RECORD_KEYS)))
    rec = {"record": "quote"} if kind == "quote" else {
        "record": draw(st.sampled_from([None, "", "artifact"])), "kind": kind}
    rec.update((key, draw(st.sampled_from(_VALID[key]))) for key in _RECORD_KEYS[kind])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        key = draw(st.sampled_from(_KEYS))
        rec[key] = draw(st.sampled_from([*odd, *_VALID.get(key, ["quote"])]))
    return {k: v for k, v in rec.items() if v is not None or draw(st.booleans())}


def _json_line(draw) -> str:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(_JSON_RAW))
    line = json.dumps(_drawn_record(draw, _JSON_ODD))  # a lone surrogate as \ud800, lower case
    if draw(st.booleans()):  # upper-case hex digits; a "\\" before a "u" escapes itself
        line = re.sub(r"(?<!\\)\\u(d[89a-f]..)", lambda m: "\\u" + m.group(1).upper(), line)
    return line


@st.composite
def corpus_files(draw) -> tuple[str, bytes]:
    """The format and bytes of a corpus file, valid or not: records that break
    each rule of a record, duplicate ids, dangling parents, cycles and lines
    that are no records; in CSV also repeated, missing and unknown columns,
    short, long and blank rows, quoted line breaks and CRLF."""
    format = draw(st.sampled_from(["jsonl", "csv"]))
    n = draw(st.integers(0, 12))
    if format == "jsonl":
        end = draw(st.sampled_from(["\n", "\r\n"]))
        return format, "".join(_json_line(draw) + end for _ in range(n)).encode("utf-8")
    header = draw(st.permutations(_KEYS))
    if draw(st.booleans()):  # columns dropped, repeated and unknown
        header = header[draw(st.integers(0, 2)):] + draw(
            st.lists(st.sampled_from([*_KEYS, "extra", ""]), max_size=3))
        header = draw(st.permutations(header))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\r\n", "\n"])))
    writer.writerow(header)
    for _ in range(n):
        shape = draw(st.integers(0, 9))
        if shape == 0:
            writer.writerow([])
        elif shape == 1:
            buf.write(draw(st.sampled_from(_CSV_RAW)) + "\n")
        else:
            rec = _drawn_record(draw, _CSV_ODD)
            row = [rec.get(name) or "" for name in header]
            if shape == 2:  # short or long
                row = (row + ["surplus", "q9"])[:draw(st.integers(1, len(row) + 2))]
            writer.writerow(row)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return format, (bom + buf.getvalue()).encode("utf-8")


@settings(max_examples=500, deadline=None)
@given(corpus_files())
@example(("jsonl", b'{"record":"quote","id":"q1","reading_id":"r1","text":"\\uDFFF"}\n'))
@example(("csv", b"record,id,reading_id,text,text\nquote,q1,r1,first\n"))
@example(("jsonl", b'{"id":"a1","reading_id":"r1","kind":"reply","body":"\\ud800","ts":1}\n'))
@example(("jsonl", b'{"id":"a1","reading_id":"r1","author_id":"A","kind":"reply",'
                  b'"parent_id":2,"body":"","ts":3}\n'))
@example(("jsonl", b'{"record":"quote","id":"q1","reading_id":"r1","text":"t"}\n'
                  b'{"id":"a1","reading_id":"r1","author_id":"A","kind":"annotation",'
                  b'"quote_id":"q1","parent_id":"","body":"x","ts":""}\n'))
def test_collect_equals_the_oracle_loader(tmp_path_factory, file):
    format, data = file
    path = tmp_path_factory.mktemp("oracle") / f"corpus.{format}"
    path.write_bytes(data)
    got, want = _collect(path, format), oracle_collect(path, format)
    assert got[0] == want[0] and got[0].authors == want[0].authors
    assert [(type(e), str(e)) for e in got[1]] == [(type(e), str(e)) for e in want[1]]


def test_an_empty_optional_field_is_absent_in_either_format(tmp_path):
    records = [
        {"record": "quote", "id": "q1", "reading_id": "r1", "text": "A quote."},
        {"id": "a1", "reading_id": "r1", "author_id": "A", "kind": "annotation",
         "quote_id": "q1", "parent_id": "", "body": "a note", "ts": ""},
        {"id": "p1", "reading_id": "r1", "author_id": "B", "kind": "reply",
         "quote_id": "", "parent_id": "a1", "body": "a reply", "ts": ""},
    ]
    jsonl = tmp_path / "corpus.jsonl"
    jsonl.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    from_jsonl = load_corpus(jsonl)
    from_csv = load_corpus(write_csv_corpus(from_jsonl, tmp_path / "corpus.csv"), "csv")
    assert from_jsonl == from_csv
    assert from_jsonl.readings["r1"].artifacts == [
        Artifact("a1", "A", "r1", "annotation", "a note", "q1", None, None),
        Artifact("p1", "B", "r1", "reply", "a reply", None, "a1", None)]


_CSV_HEADER = "record,id,reading_id,author_id,kind,quote_id,body,parent_id,ts,text\n"
_CSV_QUOTE = "quote,q1,r1,,,,,,,A quote.\n"


@pytest.mark.parametrize("rows, want", [
    # of two columns of one name the last counts, also where a short row lacks it
    ("record,id,reading_id,text,text\nquote,q1,r1,first,kept\n",
     [Quote("q1", "r1", "kept")]),
    ("record,id,reading_id,text,text\nquote,q1,r1,first\n",
     "line 2: missing or empty field 'text'"),
    # a short row's missing cells are absent; so is an empty cell
    (_CSV_HEADER + _CSV_QUOTE + ",a1,r1,A,annotation,q1,a note\n",
     [Quote("q1", "r1", "A quote."), Artifact("a1", "A", "r1", "annotation", "a note", "q1")]),
    (_CSV_HEADER + _CSV_QUOTE + "artifact,a1,r1,A,annotation,q1,a note,,,\n",
     [Quote("q1", "r1", "A quote."), Artifact("a1", "A", "r1", "annotation", "a note", "q1")]),
    # cells past the header are ignored
    (_CSV_HEADER + _CSV_QUOTE + ",a1,r1,A,annotation,q1,a note,,,,a1,q9\n",
     [Quote("q1", "r1", "A quote."), Artifact("a1", "A", "r1", "annotation", "a note", "q1")]),
    # a blank record, or any but "quote", makes an artifact
    (_CSV_HEADER + _CSV_QUOTE + "Quote,a1,r1,A,annotation,q1,a note\n",
     [Quote("q1", "r1", "A quote."), Artifact("a1", "A", "r1", "annotation", "a note", "q1")]),
    # a short row's body is "", which a reply may have
    ("id,reading_id,author_id,kind,parent_id,body\nr9,r1,A,reply,a1\n",
     "line 2: reply 'r9' names a parent that does not exist in its reading"),
], ids=["repeated_name", "repeated_name_short_row", "short_row", "empty_cells", "long_row",
        "other_record", "short_row_body"])
def test_csv_columns_follow_the_documented_rules(tmp_path, rows, want):
    path = tmp_path / "corpus.csv"
    path.write_bytes(rows.encode("utf-8"))
    corpus, errors = _collect(path, "csv")
    if isinstance(want, str):
        assert [str(e) for e in errors] == [f"{path}: {want}"]
    else:
        reading = corpus.readings["r1"]
        assert (errors, [*reading.quotes.values(), *reading.artifacts]) == ([], want)


@pytest.mark.parametrize("escape, lone", [
    ("\\ud800", True), ("\\uD800", True), ("\\uDFFF", True), ("\\udBfF", True),
    ("\\\\ud800", False), ("\\u00e9", False),
], ids=["lower", "upper", "upper_low_half", "mixed", "escaped_backslash", "not_a_surrogate"])
def test_a_lone_surrogate_escape_is_refused_in_either_case(tmp_path, escape, lone):
    body = f'"x{escape}"'
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"record": "quote", "id": "q1", "reading_id": "r1", "text": "A quote."}\n'
                    '{"id": "a1", "reading_id": "r1", "author_id": "A", "kind": "annotation", '
                    f'"quote_id": "q1", "body": {body}}}\n', encoding="utf-8")
    corpus, errors = _collect(path, "jsonl")
    if lone:
        assert [str(e) for e in errors] == [f"{path}: line 2: field 'body' holds a lone surrogate"]
    else:
        assert (errors, corpus.readings["r1"].artifacts[0].body) == ([], json.loads(body))


def test_thread_root_identity_and_idempotence(jsonl_file):
    records = _minimal_records() + [
        {"id": "rep1", "reading_id": "r1", "author_id": "B", "kind": "reply",
         "parent_id": "a1", "body": "r"},
    ]
    corpus = load_corpus(jsonl_file(records))
    reading = corpus.readings["r1"]
    a1 = reading.artifact_by_id("a1")
    rep1 = reading.artifact_by_id("rep1")
    assert thread_root(a1, corpus) is a1
    root = thread_root(rep1, corpus)
    assert root.id == "a1"
    assert thread_root(root, corpus) is root


def test_validate_file_lists_each_broken_chain(tmp_path):
    path = tmp_path / "broken.jsonl"
    save_corpus(broken_chain_corpus(), path)
    line_of = {json.loads(line)["id"]: n
               for n, line in enumerate(path.read_text().splitlines(), start=1)}
    want = [(f"line {line_of[aid]}", str(error(aid))) for error, aid in [
        (DanglingParent, "d1"),
        (CyclicThread, "c3"), (CyclicThread, "c1"), (CyclicThread, "c2"), (CyclicThread, "s1"),
    ]]
    assert [(e.where, e.reason) for e in _collect(path, "jsonl")[1]] == want
    with pytest.raises(ParseError) as exc:
        load_corpus(path)
    assert (exc.value.where, exc.value.reason) == want[0]


def _reply(aid: str, parent: str, reading_id: str = "r1") -> dict:
    return {"id": aid, "reading_id": reading_id, "author_id": "B", "kind": "reply",
            "parent_id": parent, "body": ""}


_GHOST_NOTE = {"id": "a2", "reading_id": "r1", "author_id": "B", "kind": "annotation",
               "quote_id": "ghost", "body": "x"}

# the malformed corpora of the tests above, as JSONL records
_MALFORMED_RECORDS = {
    "dangling_parent": _minimal_records() + [_reply("rep1", "nope")],
    "missing_quote": [dict(_GHOST_NOTE, id="a1")],
    "cross_reading_parent": _minimal_records() + [
        {"record": "quote", "id": "q2", "reading_id": "r2", "text": "Other reading."},
        {"id": "b1", "reading_id": "r2", "author_id": "B", "kind": "annotation",
         "quote_id": "q2", "body": "note"},
        _reply("rep1", "a1", "r2"),
    ],
    "cycle": _minimal_records() + [_reply("rep1", "rep2"), _reply("rep2", "rep1")],
    "empty": [],
    "annotation_empty_body": [dict(_minimal_records()[1], body="   ")],
    "duplicate_id": _minimal_records() + [dict(_minimal_records()[1], author_id="B")],
    "dangling_and_missing_quote": _minimal_records() + [_reply("rep1", "nope"), _GHOST_NOTE],
}


def _malformed_file(case: str, tmp_path, jsonl_file) -> tuple:
    if case in _MALFORMED_RECORDS:
        return jsonl_file(_MALFORMED_RECORDS[case]), "jsonl"
    if case == "malformed_line":
        path = jsonl_file(_minimal_records() + [_GHOST_NOTE])
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]) + "{not json\n" + lines[2])
        return path, "jsonl"
    if case == "broken_chains":
        path = tmp_path / "broken.jsonl"
        save_corpus(broken_chain_corpus(), path)
        return path, "jsonl"
    format = case.removeprefix("non_utf8_")
    path = tmp_path / f"corpus.{format}"
    path.write_bytes(b"record,id\nquote,q\xff1\n")
    return path, format


@pytest.mark.parametrize("case", [*_MALFORMED_RECORDS, "malformed_line", "broken_chains",
                                  "non_utf8_jsonl", "non_utf8_csv"])
def test_load_corpus_raises_the_first_validation_error(case, tmp_path, jsonl_file):
    path, format = _malformed_file(case, tmp_path, jsonl_file)
    first = _collect(path, format)[1][0]
    with pytest.raises(AicnetError) as info:
        load_corpus(path, format)
    assert (type(info.value), str(info.value)) == (type(first), str(first))


def test_thread_root_on_broken_chains():
    corpus = broken_chain_corpus()
    reading = corpus.readings["r1"]
    roots = thread_roots(reading)
    assert set(roots) == set(BROKEN_CHAIN_ROOTS)
    for art in reading.artifacts:
        want = BROKEN_CHAIN_ROOTS[art.id]
        if isinstance(want, str):
            assert thread_root(art, corpus) is roots[art.id] is reading.artifact_by_id(want)
            continue
        error, artifact_id = want
        with pytest.raises(error) as exc:
            thread_root(art, corpus)
        assert exc.value.artifact_id == artifact_id
        assert (type(roots[art.id]), roots[art.id].artifact_id) == want


@pytest.mark.parametrize("rec, message", [
    ({"id": "a1", "reading_id": "r1", "author_id": "A", "kind": "annotation", "quote_id": "q1",
      "body": "note", "ts": 5}, "line 7: field 'ts' must be a string"),
    ({"record": "quote", "id": "q1", "reading_id": "r1", "text": "  \n"},
     "line 7: quote text is empty"),
    ({"id": "a1", "reading_id": "r1", "author_id": "A", "kind": "annotation", "quote_id": "q1",
      "parent_id": "p1", "body": "note"}, "line 7: annotation 'a1' must not have a parent_id"),
    ({"id": "p1", "reading_id": "r1", "author_id": "B", "kind": "reply", "parent_id": "a1",
      "quote_id": "q1", "body": ""}, "line 7: reply 'p1' must not carry a quote_id"),
], ids=["ts_not_a_string", "blank_quote_text", "annotation_with_parent", "reply_with_quote"])
def test_parse_record_raises_a_parse_error_naming_the_line(rec, message, tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("\n" * 6 + json.dumps(rec) + "\n", encoding="utf-8")  # the record on line 7
    with pytest.raises(ParseError) as exc:
        load_corpus(path)
    assert (exc.value.where, str(exc.value)) == ("line 7", f"{path}: {message}")


def test_artifact_by_id_names_an_unknown_id():
    reading = broken_chain_corpus().readings["r1"]
    assert reading.artifact_by_id("a2").quote_id == "q2"
    with pytest.raises(UnknownArtifact) as exc:
        reading.artifact_by_id("zz")
    assert exc.value.artifact_id == "zz"


def test_thread_root_unknown_artifact():
    corpus = broken_chain_corpus()
    stranger = Artifact(id="zz", author_id="A", reading_id="r1", kind="reply",
                        body="", parent_id="a1")
    with pytest.raises(UnknownArtifact):
        thread_root(stranger, corpus)


@st.composite
def reply_forests(draw):
    """Artifacts whose parents are drawn at random: valid threads, cycles,
    self-replies and missing parents, in any reading order."""
    n = draw(st.integers(1, 14))
    ids = [f"x{i}" for i in range(n)]
    artifacts = []
    for aid in ids:
        if draw(st.booleans()):
            artifacts.append(Artifact(id=aid, author_id="A", reading_id="r1",
                                      kind="annotation", body="b", quote_id="q1"))
        else:
            parent = draw(st.sampled_from(ids + ["gone"]))
            artifacts.append(Artifact(id=aid, author_id="A", reading_id="r1",
                                      kind="reply", body="", parent_id=parent))
    return Reading(id="r1", artifacts=artifacts)


def _outcome(resolve):
    try:
        return resolve()
    except (CyclicThread, DanglingParent) as exc:
        return type(exc), exc.artifact_id


@settings(max_examples=300, deadline=None)
@given(reply_forests())
def test_thread_roots_equal_one_walk_per_artifact(reading):
    roots = thread_roots(reading)
    assert sorted(roots) == sorted(a.id for a in reading.artifacts)
    for art in reading.artifacts:
        got = roots[art.id]
        got = got if isinstance(got, Artifact) else (type(got), got.artifact_id)
        assert got == _outcome(lambda: oracle_thread_root(art, reading))


def test_stats_hand_counted():
    corpus = mk_corpus(
        quotes=[("q1", "r1", "t")],
        annotations=[
            ("a1", "r1", "A", "q1", "one two three"),
            ("a2", "r1", "A", "q1", "one two three four five"),
            ("a3", "r1", "B", "q1", "one two three four five six seven"),
        ],
        replies=[
            ("rep1", "r1", "B", "a1", "x"),
            ("rep2", "r1", "A", "a3", "y"),
        ],
    )
    table = descriptive_stats(corpus)
    row = table.rows[0]
    assert (row.posts, row.replies) == (3, 2)
    assert row.avg_words_per_post == pytest.approx(5.0)


def test_stats_empty_reading():
    corpus = mk_corpus(quotes=[("q1", "r1", "t")], annotations=[])
    corpus.readings["r1"].quotes  # reading exists with no artifacts
    table = descriptive_stats(corpus)
    row = table.rows[0]
    assert (row.posts, row.replies) == (0, 0)
    assert row.avg_words_per_post is None


def test_stats_population_sd():
    corpus = mk_corpus(
        quotes=[("q1", "r1", "t"), ("q2", "r2", "t2")],
        annotations=(
            [(f"a{i}", "r1", "A", "q1", "w") for i in range(26)]
            + [(f"b{i}", "r2", "A", "q2", "w") for i in range(28)]
        ),
    )
    table = descriptive_stats(corpus)
    assert table.posts_mean == pytest.approx(27.0)
    assert table.posts_sd == pytest.approx(1.0)  # population formula


def test_stats_of_an_empty_corpus():
    assert descriptive_stats(Corpus()) == ((), None, None, None, None)


def test_stats_unknown_reading():
    corpus = mk_corpus(quotes=[("q1", "r1", "t")], annotations=[])
    with pytest.raises(UnknownReading):
        descriptive_stats(corpus, "r9")


# every whitespace character (none lies above U+3000), and letters whose case maps are special
_SPACES = "".join(c for c in map(chr, range(0x3001)) if c.isspace())
_CASED = "AaZzßẞİIıΣσςǅǄǆﬁ\u0130\u212a"


@settings(max_examples=300)
@given(st.text(_SPACES + _CASED + "x\u200b") | st.text())
@example("Straße STRASSE")  # .casefold() would make these two one text
@example("\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000 ǅ")
def test_normalize_text_equals_the_oracle(text):
    assert normalize_text(text) == oracle_normalize_text(text)


@given(st.text())
def test_normalize_text_idempotent(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)
def test_posts_plus_replies_is_artifact_count(n_posts, n_replies):
    n_posts = max(n_posts, 1)  # replies need a parent
    corpus = mk_corpus(
        quotes=[("q1", "r1", "t")],
        annotations=[(f"a{i}", "r1", "A", "q1", "body text") for i in range(n_posts)],
        replies=[(f"rep{i}", "r1", "B", "a0", "r") for i in range(n_replies)],
    )
    table = descriptive_stats(corpus)
    row = table.rows[0]
    assert row.posts + row.replies == len(corpus.readings["r1"].artifacts)
