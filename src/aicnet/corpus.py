"""Discourse data model and ingestion.

A corpus is a set of readings; each reading holds the quotes learners
highlighted and an ordered list of artifacts (annotations anchored to a quote,
and replies anchored to another artifact). Loading validates everything up
front and rejects malformed data instead of repairing it.

File formats (UTF-8; one leading byte-order mark is dropped):

* JSONL, one record per line. Artifact records:
  ``{"id", "reading_id", "author_id", "kind": "annotation"|"reply",
  "quote_id"?, "parent_id"?, "body", "ts"?}``. Quote records:
  ``{"record": "quote", "id", "reading_id", "text"}``.
* CSV with the same fields as header columns, in any order:
  ``record,id,reading_id,author_id,kind,quote_id,parent_id,body,ts,text``.
  The last of two same-named columns counts; a missing or empty cell is
  absent; cells past the header are ignored. A row whose ``record`` is not
  ``quote`` (``artifact``, or blank) is an artifact.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import re
from pathlib import Path
from typing import Iterable, Iterator, Literal, NamedTuple

from .errors import (
    AicnetError,
    CyclicThread,
    DanglingParent,
    EmptyCorpus,
    MissingQuote,
    ParseError,
    UnknownArtifact,
    UnknownReading,
)

Format = Literal["jsonl", "csv"]

_WS = re.compile(r"\s+")
_SURROGATE = re.compile("[\ud800-\udfff]")


def normalize_text(text: str) -> str:
    """Lowercase and collapse all whitespace runs to single spaces."""
    return _WS.sub(" ", text.strip()).lower()


class _Record:
    """Equality, and a repr, by the fields ``_fields`` names: two records are
    equal when they are of one class and their fields are equal. A record is
    unhashable unless its class defines ``__hash__``."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Quote(_Record):
    """A highlighted passage from the learning material; ``normalized_text``
    is computed on its first read."""

    _fields = ("id", "reading_id", "text")

    def __init__(self, id: str, reading_id: str, text: str) -> None:
        self.id, self.reading_id, self.text = id, reading_id, text
        self._normalized: str | None = None

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def normalized_text(self) -> str:
        if self._normalized is None:
            self._normalized = normalize_text(self.text)
        return self._normalized


class Artifact(NamedTuple):
    """One authored post: an annotation on a quote, or a reply to another artifact."""

    id: str
    author_id: str
    reading_id: str
    kind: Literal["annotation", "reply"]
    body: str
    quote_id: str | None = None
    parent_id: str | None = None
    ts: str | None = None


class Reading(_Record):
    """A single discourse episode: its quotes plus the artifacts written about them."""

    _fields = ("id", "quotes", "artifacts")

    def __init__(self, id: str, quotes: dict[str, Quote] | None = None,
                 artifacts: list[Artifact] | None = None) -> None:
        self.id = id
        self.quotes = {} if quotes is None else quotes
        self.artifacts = [] if artifacts is None else artifacts

    def artifact_by_id(self, artifact_id: str) -> Artifact:
        """The artifact of that id; an unknown id raises :class:`UnknownArtifact`."""
        for art in self.artifacts:
            if art.id == artifact_id:
                return art
        raise UnknownArtifact(artifact_id)

    @property
    def annotations(self) -> list[Artifact]:
        return [a for a in self.artifacts if a.kind == "annotation"]

    @property
    def replies(self) -> list[Artifact]:
        return [a for a in self.artifacts if a.kind == "reply"]

    def active_authors(self) -> set[str]:
        return {a.author_id for a in self.artifacts}


class Corpus(_Record):
    _fields = ("readings", "authors")

    def __init__(self, readings: dict[str, Reading] | None = None,
                 authors: set[str] | None = None) -> None:
        self.readings = {} if readings is None else readings
        self.authors = set() if authors is None else authors

    def reading(self, reading_id: str) -> Reading:
        try:
            return self.readings[reading_id]
        except KeyError:
            raise UnknownReading(reading_id) from None


# -- parsing ------------------------------------------------------------------

def _decoded(path: str | Path, raw: bytes) -> str:
    """The text of an input file's bytes: UTF-8, one leading U+FEFF dropped.
    Bytes that are not UTF-8 raise :class:`ParseError` at their offset, which
    counts from the file's first byte."""
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(path, f"byte {exc.start}", "not valid UTF-8") from None


def _json_objects(path: str | Path, text: str) -> Iterator[tuple[int, dict] | ParseError]:
    """(line, object) for each non-blank line of a JSONL text; a line that is
    not JSON, or not a JSON object, is yielded as its :class:`ParseError`. A
    line ends at a line feed alone, since a JSON string may hold U+2028 raw."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also too-long integers, deep nesting
            yield ParseError(path, f"line {lineno}", f"invalid JSON ({getattr(exc, 'msg', exc)})")
            continue
        if not isinstance(rec, dict):
            yield ParseError(path, f"line {lineno}", "record is not a JSON object")
            continue
        yield lineno, rec


_FIELDS = ("record", "id", "reading_id", "author_id", "kind", "body", "text", "quote_id",
           "parent_id", "ts")


def _csv_rows(path: str | Path, text: str) -> Iterator[tuple[int, tuple] | ParseError]:
    """(first line, values of ``_FIELDS``) per non-blank row after the header, a
    missing cell ""; a row the reader refuses ends the text as a ParseError."""
    reader = csv.reader(io.StringIO(text))
    # no field is longer than the text; the process-wide limit is restored after
    limit = csv.field_size_limit(len(text) + 1)
    try:
        header = next(reader, [])
        # a name's last column counts; a missing cell reads the pad
        column = {name: i for i, name in enumerate(header)}
        cells = operator.itemgetter(*(column.get(key, -1) for key in _FIELDS))
        pad = [""] * (len(header) + 1)
        start = reader.line_num + 1  # a quoted cell may run a row over several lines
        for row in reader:
            if row:
                yield start, cells(row + pad)
            start = reader.line_num + 1
    except csv.Error as exc:
        yield ParseError(path, f"line {reader.line_num}", f"invalid CSV ({exc})")
    finally:
        csv.field_size_limit(limit)


def _unfit(key: str, value: object, need: bool = True) -> str | None:
    """Why a field is unfit, if it is: required and empty or no string, optional and
    neither None nor a string, or holding a lone surrogate, which UTF-8 cannot encode."""
    if need and (not isinstance(value, str) or not value):
        return f"missing or empty field {key!r}"
    if not (need or value is None or isinstance(value, str)):
        return f"field {key!r} must be a string"
    if value and not value.isascii() and _SURROGATE.search(value):
        return f"field {key!r} holds a lone surrogate"
    return None


def _parse_record(rec: dict | tuple) -> Quote | Artifact | str:
    """The quote or artifact of a JSON object or a CSV row's ``_FIELDS``, or why it makes none."""
    record, id, reading_id, author_id, kind, body, text, quote_id, parent_id, ts = (
        map(rec.get, _FIELDS) if isinstance(rec, dict) else rec)
    if record == "quote":
        if fault := _unfit("id", id) or _unfit("reading_id", reading_id) or _unfit("text", text):
            return fault
        return Quote(id, reading_id, text) if text.strip() else "quote text is empty"
    if kind not in ("annotation", "reply"):
        return _unfit("kind", kind) or f"unknown kind {kind!r}"
    if not isinstance(body, str):
        return "missing field 'body'"
    if fault := (_unfit("id", id) or _unfit("author_id", author_id)
                 or _unfit("reading_id", reading_id)):
        return fault
    if fault := (_unfit("body", body, False) or _unfit("quote_id", quote_id, False)
                 or _unfit("parent_id", parent_id, False) or _unfit("ts", ts, False)):
        return fault
    if kind == "annotation":
        if not quote_id:
            return f"annotation {id!r} has no quote_id"
        if parent_id:
            return f"annotation {id!r} must not have a parent_id"
        if not body.strip():
            return f"annotation {id!r} has an empty body"
    elif not parent_id:
        return f"reply {id!r} has no parent_id"
    elif quote_id:
        return f"reply {id!r} must not carry a quote_id"
    # an empty optional field is absent, in a CSV cell as in a JSON object
    return Artifact(id, author_id, reading_id, kind, body, quote_id or None, parent_id or None,
                    ts or None)


def _collect(path: str | Path, format: Format) -> tuple[Corpus, list[AicnetError]]:
    """The corpus and every fault of a file, from one pass over it: a
    :class:`ParseError` at the line of each record at fault (a consistency
    fault reads as the error a builder raises), or :class:`EmptyCorpus`.

    Faults come in this order: record parse errors in file order, then
    duplicate ids in file order, then for each reading (by first appearance)
    its missing quotes and dangling parents in artifact order, then its cycles.
    """
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown corpus format {format!r}")
    # decode manually: read_text would newline-translate inside quoted CSV fields
    try:
        text = _decoded(path, Path(path).read_bytes())
    except ParseError as exc:
        return Corpus(), [exc]
    corpus = Corpus()
    errors: list[AicnetError] = []
    duplicates: list[AicnetError] = []
    lines: dict[tuple[str, str], int] = {}  # (reading id, record id) -> line
    split = _json_objects if format == "jsonl" else _csv_rows
    for item in split(path, text):
        if isinstance(item, ParseError):
            errors.append(item)
            continue
        lineno, rec = item
        record = _parse_record(rec)
        if isinstance(record, str):
            errors.append(ParseError(path, f"line {lineno}", record))
            continue
        key = (record.reading_id, record.id)
        if key in lines:
            duplicates.append(ParseError(path, f"line {lineno}", f"duplicate id {record.id!r} "
                                         f"in reading {record.reading_id!r}"))
            continue
        lines[key] = lineno
        reading = corpus.readings.get(key[0]) or corpus.readings.setdefault(key[0], Reading(key[0]))
        if isinstance(record, Quote):
            reading.quotes[record.id] = record
        else:
            reading.artifacts.append(record)
            corpus.authors.add(record.author_id)
    if not lines and not errors:
        return corpus, [EmptyCorpus(path)]
    errors += duplicates

    for reading in corpus.readings.values():
        roots = thread_roots(reading)
        faults: list[AicnetError] = []
        for art in reading.artifacts:
            root = roots[art.id]
            if art.kind == "annotation" and art.quote_id not in reading.quotes:
                faults.append(MissingQuote(art.id))
            elif isinstance(root, AicnetError) and root.artifact_id == art.id:
                faults.append(root)  # a dangling parent at its reply alone, a cycle at each member
        # cycles last; each fault is at the line of the artifact it names
        errors += (ParseError(path, f"line {lines[reading.id, err.artifact_id]}", str(err))
                   for err in sorted(faults, key=lambda err: isinstance(err, CyclicThread)))
    return corpus, errors


def load_corpus(path: str | Path, format: Format = "jsonl") -> Corpus:
    """Load and fully validate a corpus file.

    Raises the first fault :func:`_collect` lists.
    """
    corpus, errors = _collect(path, format)
    if errors:
        raise errors[0]
    return corpus


# -- serialization ------------------------------------------------------------

def _write(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8, line ends as they are, encoded whole before the file
    is opened: text UTF-8 cannot encode raises and leaves the file as it was."""
    Path(path).write_bytes(text.encode("utf-8"))


def _json_text(payload: object) -> str:
    """``payload`` as a JSON document: sorted keys, indent 2, a final line feed."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _quote_record(q: Quote) -> dict:
    return {"record": "quote", "id": q.id, "reading_id": q.reading_id, "text": q.text}


def _artifact_record(a: Artifact) -> dict:
    rec: dict = {"id": a.id, "reading_id": a.reading_id, "author_id": a.author_id, "kind": a.kind}
    if a.quote_id is not None:
        rec["quote_id"] = a.quote_id
    if a.parent_id is not None:
        rec["parent_id"] = a.parent_id
    rec["body"] = a.body
    if a.ts is not None:
        rec["ts"] = a.ts
    return rec


def iter_records(corpus: Corpus) -> Iterator[dict]:
    """Canonical record order: readings by id, quotes by id, then artifacts as stored."""
    for reading_id in sorted(corpus.readings):
        reading = corpus.readings[reading_id]
        for quote_id in sorted(reading.quotes):
            yield _quote_record(reading.quotes[quote_id])
        for art in reading.artifacts:
            yield _artifact_record(art)


def _csv_lines(rows: Iterable[list[str]]) -> str:
    """The rows as CSV lines, each ended by a line feed; an empty row is a
    blank line. A field that holds a comma, a double quote, a line feed or a
    carriage return is quoted, so :mod:`csv` reads every row back whole."""
    lines = []
    for row in rows:
        buf = io.StringIO()
        # csv quotes the characters of its line terminator, so "\r\n" quotes both
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus back out as JSONL, one record per line in
    :func:`iter_records` order; ``load_corpus`` of the result round-trips."""
    _write(path, "".join(json.dumps(rec, ensure_ascii=False) + "\n"
                         for rec in iter_records(corpus)))


# -- thread resolution --------------------------------------------------------

def thread_roots(reading: Reading) -> dict[str, Artifact | AicnetError]:
    """Every artifact of the reading mapped to the annotation at the head of
    its reply chain, or to the error the chain hits.

    Annotations map to themselves. A chain that reaches a missing parent maps
    to :class:`DanglingParent` naming the reply whose parent is missing; a
    chain that enters a cycle maps to :class:`CyclicThread` naming the
    artifact itself. Each chain is walked once: a walk stops at the first
    artifact already mapped.
    """
    by_id = {a.id: a for a in reading.artifacts}
    roots: dict[str, Artifact | AicnetError] = {}
    for art in reading.artifacts:
        chain: dict[str, None] = {}  # replies walked from art, in order
        cur = art
        while cur.id not in roots:
            if cur.kind == "annotation":
                roots[cur.id] = cur
            elif cur.id in chain:
                roots[cur.id] = CyclicThread(cur.id)
            elif (parent := by_id.get(cur.parent_id or "")) is None:
                roots[cur.id] = DanglingParent(cur.id)
            else:
                chain[cur.id] = None
                cur = parent
        end = roots[cur.id]
        for member in chain:
            roots[member] = CyclicThread(member) if isinstance(end, CyclicThread) else end
    return roots


def thread_root(artifact: Artifact, corpus: Corpus) -> Artifact:
    """The annotation at the head of the artifact's reply chain (see
    :func:`thread_roots`); raises the chain's error, or
    :class:`UnknownArtifact`."""
    root = thread_roots(corpus.reading(artifact.reading_id)).get(artifact.id)
    if root is None:
        raise UnknownArtifact(artifact.id)
    if isinstance(root, AicnetError):
        raise root
    return root


# -- descriptive statistics ---------------------------------------------------

class ReadingStats(NamedTuple):
    reading_id: str
    posts: int
    replies: int
    avg_words_per_post: float | None


class StatsTable(NamedTuple):
    rows: tuple[ReadingStats, ...]
    posts_mean: float | None
    posts_sd: float | None
    replies_mean: float | None
    replies_sd: float | None


def _mean_sd(values: list[int]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    mean = sum(values) / len(values)
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
    return mean, sd


def descriptive_stats(corpus: Corpus, reading_id: str | None = None) -> StatsTable:
    """Per-reading post/reply counts and mean words per annotation body.

    Word counts are whitespace-token counts of the raw body, taken before any
    other text processing. The summary mean/SD over per-reading counts uses the
    population formula.
    """
    if reading_id is not None:
        readings = [corpus.reading(reading_id)]
    else:
        readings = [corpus.readings[rid] for rid in sorted(corpus.readings)]

    rows = []
    for reading in readings:
        annotations = reading.annotations
        posts = len(annotations)
        replies = len(reading.replies)
        if posts:
            avg = sum(len(a.body.split()) for a in annotations) / posts
        else:
            avg = None
        rows.append(ReadingStats(reading.id, posts, replies, avg))

    posts_mean, posts_sd = _mean_sd([r.posts for r in rows])
    replies_mean, replies_sd = _mean_sd([r.replies for r in rows])
    return StatsTable(tuple(rows), posts_mean, posts_sd, replies_mean, replies_sd)
