"""Corpus loading, validation, thread resolution, and descriptive stats."""

from __future__ import annotations

import csv

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aicnet.corpus import (
    Artifact,
    Reading,
    _parse_record,
    descriptive_stats,
    load_corpus,
    normalize_text,
    save_corpus,
    thread_root,
    thread_roots,
    validate_file,
)
from aicnet.errors import (
    AicnetError,
    CorpusEncodingError,
    CyclicThread,
    DanglingParent,
    EmptyCorpus,
    MissingQuote,
    ParseError,
    UnknownArtifact,
    UnknownReading,
)

from conftest import BROKEN_CHAIN_ROOTS, broken_chain_corpus, mk_corpus
from oracles import oracle_thread_root


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
    with pytest.raises(DanglingParent) as exc:
        load_corpus(jsonl_file(records))
    assert exc.value.artifact_id == "rep1"


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
    with pytest.raises(MissingQuote):
        load_corpus(jsonl_file(records))


def test_cross_reading_parent_rejected(jsonl_file):
    records = _minimal_records() + [
        {"record": "quote", "id": "q2", "reading_id": "r2", "text": "Other reading."},
        {"id": "b1", "reading_id": "r2", "author_id": "B", "kind": "annotation",
         "quote_id": "q2", "body": "note"},
        {"id": "rep1", "reading_id": "r2", "author_id": "B", "kind": "reply",
         "parent_id": "a1", "body": "points at r1"},
    ]
    with pytest.raises(DanglingParent):
        load_corpus(jsonl_file(records))


def test_cycle_rejected(jsonl_file):
    records = _minimal_records() + [
        {"id": "rep1", "reading_id": "r1", "author_id": "B", "kind": "reply",
         "parent_id": "rep2", "body": ""},
        {"id": "rep2", "reading_id": "r1", "author_id": "C", "kind": "reply",
         "parent_id": "rep1", "body": ""},
    ]
    with pytest.raises(CyclicThread):
        load_corpus(jsonl_file(records))


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
    errors = validate_file(jsonl_file(records))
    kinds = {type(e) for e in errors}
    assert kinds == {DanglingParent, MissingQuote}


def test_validate_file_survives_malformed_line(tmp_path, jsonl_file):
    good = jsonl_file(_minimal_records())
    broken = tmp_path / "broken.jsonl"
    broken.write_text(
        good.read_text() + "{not json\n"
        + '{"id": "a9", "reading_id": "r1", "author_id": "B", "kind": "annotation", '
        '"quote_id": "ghost", "body": "x"}\n'
    )
    errors = validate_file(broken)
    kinds = {type(e) for e in errors}
    assert kinds == {ParseError, MissingQuote}  # both reported, not just the first


@pytest.mark.parametrize("format", ["jsonl", "csv"])
def test_non_utf8_corpus_names_the_byte_offset(tmp_path, format):
    path = tmp_path / f"corpus.{format}"
    path.write_bytes(b"record,id\nquote,q\xff1\n")
    with pytest.raises(CorpusEncodingError, match=r"byte 17: not valid UTF-8") as info:
        load_corpus(path, format)
    assert info.value.offset == 17
    assert [str(e) for e in validate_file(path, format)] == [str(info.value)]
    # after a byte-order mark the offset still counts from the file's first byte
    path.write_bytes(b"\xef\xbb\xbfrecord,id\nquote,q\xff1\n")
    with pytest.raises(CorpusEncodingError, match=r"byte 20: not valid UTF-8"):
        load_corpus(path, format)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=96), st.sampled_from(["jsonl", "csv"]))
@example(b"\r\x00", "csv")  # the header row itself is malformed
@example(b"1" * 5000, "jsonl")  # longer than Python's int-parsing limit
@example(b"[" * 100_000, "jsonl")  # nested deeper than the recursion limit
def test_load_arbitrary_bytes_only_raises_input_errors(tmp_path_factory, data, format):
    path = tmp_path_factory.mktemp("corpus") / f"corpus.{format}"
    path.write_bytes(data)
    assert all(isinstance(e, AicnetError) for e in validate_file(path, format))
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
    out = tmp_path / f"roundtrip.{format}"
    save_corpus(corpus, out, format)
    again = load_corpus(out, format)
    assert again == corpus
    # after a byte-order mark, as Excel's "CSV UTF-8" writes one, the corpus is the same
    bom = tmp_path / f"bom.{format}"
    bom.write_bytes(b"\xef\xbb\xbf" + out.read_bytes())
    assert validate_file(bom, format) == []
    assert load_corpus(bom, format) == corpus
    # serialization is canonical: a second pass is byte-identical
    out2 = tmp_path / f"roundtrip2.{format}"
    save_corpus(again, out2, format)
    assert out.read_bytes() == out2.read_bytes()


def test_csv_round_trips_a_field_over_the_default_csv_limit(tmp_path, jsonl_file):
    records = _minimal_records()
    records[-1]["body"] = "word " * 30_000  # 150,000 characters, over csv's 131,072
    corpus = load_corpus(jsonl_file(records))
    path = tmp_path / "long.csv"
    save_corpus(corpus, path, "csv")
    limit = csv.field_size_limit()
    assert load_corpus(path, "csv") == corpus
    assert validate_file(path, "csv") == []
    assert csv.field_size_limit() == limit  # the process-wide setting is left as it was


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
    errors = validate_file(path)
    assert [(type(e), e.artifact_id) for e in errors] == [
        (DanglingParent, "d1"),
        (CyclicThread, "c3"), (CyclicThread, "c1"), (CyclicThread, "c2"), (CyclicThread, "s1"),
    ]
    with pytest.raises(DanglingParent) as exc:
        load_corpus(path)
    assert exc.value.artifact_id == "d1"


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
    first = validate_file(path, format)[0]
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
def test_parse_record_raises_a_parse_error_naming_the_line(rec, message):
    with pytest.raises(ParseError) as exc:
        _parse_record(7, rec)
    assert (exc.value.line, str(exc.value)) == (7, message)


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


def test_stats_unknown_reading():
    corpus = mk_corpus(quotes=[("q1", "r1", "t")], annotations=[])
    with pytest.raises(UnknownReading):
        descriptive_stats(corpus, "r9")


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
