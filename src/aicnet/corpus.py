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
* CSV with the same fields as columns:
  ``record,id,reading_id,author_id,kind,quote_id,parent_id,body,ts,text``.
  Empty cells stand for absent optional fields; ``record`` is ``quote`` for
  quote rows and ``artifact`` (or blank) for artifact rows.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Literal

from .errors import (
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

Format = Literal["jsonl", "csv"]

_WS = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Lowercase and collapse all whitespace runs to single spaces."""
    return _WS.sub(" ", text.strip()).lower()


@dataclass(frozen=True)
class Quote:
    """A highlighted passage from the learning material."""

    id: str
    reading_id: str
    text: str

    @cached_property
    def normalized_text(self) -> str:
        return normalize_text(self.text)


@dataclass(frozen=True)
class Artifact:
    """One authored post: an annotation on a quote, or a reply to another artifact."""

    id: str
    author_id: str
    reading_id: str
    kind: Literal["annotation", "reply"]
    body: str
    quote_id: str | None = None
    parent_id: str | None = None
    ts: str | None = None


@dataclass
class Reading:
    """A single discourse episode: its quotes plus the artifacts written about them."""

    id: str
    quotes: dict[str, Quote] = field(default_factory=dict)
    artifacts: list[Artifact] = field(default_factory=list)

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


@dataclass
class Corpus:
    readings: dict[str, Reading] = field(default_factory=dict)
    authors: set[str] = field(default_factory=set)

    def reading(self, reading_id: str) -> Reading:
        try:
            return self.readings[reading_id]
        except KeyError:
            raise UnknownReading(reading_id) from None


# -- parsing ------------------------------------------------------------------

def _records_from_jsonl(lines: Iterable[str]) -> Iterator[tuple[int, dict] | ParseError]:
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also too-long integers, deep nesting
            yield ParseError(lineno, f"invalid JSON ({getattr(exc, 'msg', exc)})")
            continue
        if not isinstance(rec, dict):
            yield ParseError(lineno, "record is not a JSON object")
            continue
        yield lineno, rec


def _records_from_csv(text: str) -> Iterator[tuple[int, dict] | ParseError]:
    reader = csv.DictReader(io.StringIO(text))
    # no field is longer than the text; the process-wide limit is restored after
    limit = csv.field_size_limit(len(text) + 1)
    try:
        while True:  # the first next() reads the header, which can fail too
            try:
                rec = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                yield ParseError(reader.line_num, f"invalid CSV ({exc})")
                return
            lineno = reader.line_num
            cleaned = {k: v for k, v in rec.items() if k is not None and v not in (None, "")}
            if cleaned.get("record") == "artifact":
                del cleaned["record"]
            if cleaned.get("record") != "quote":
                cleaned["body"] = rec.get("body") or ""  # empty reply bodies are legal
            yield lineno, cleaned
    finally:
        csv.field_size_limit(limit)


def _parse_record(lineno: int, rec: dict) -> Quote | Artifact:
    """The quote or artifact of one record; a field of the wrong type, a
    missing one, or one its kind forbids raises :class:`ParseError` naming
    the line."""
    def need(key: str) -> str:
        value = rec.get(key)
        if not isinstance(value, str) or value == "":
            raise ParseError(lineno, f"missing or empty field {key!r}")
        return value

    def optional(key: str) -> str | None:
        value = rec.get(key)
        if value is not None and not isinstance(value, str):
            raise ParseError(lineno, f"field {key!r} must be a string")
        return value

    if rec.get("record") == "quote":
        quote = Quote(id=need("id"), reading_id=need("reading_id"), text=need("text"))
        if not quote.text.strip():
            raise ParseError(lineno, "quote text is empty")
        return quote

    kind = need("kind")
    if kind not in ("annotation", "reply"):
        raise ParseError(lineno, f"unknown kind {kind!r}")
    body = rec.get("body")
    if not isinstance(body, str):
        raise ParseError(lineno, "missing field 'body'")
    art = Artifact(
        id=need("id"),
        author_id=need("author_id"),
        reading_id=need("reading_id"),
        kind=kind,  # type: ignore[arg-type]
        body=body,
        quote_id=optional("quote_id"),
        parent_id=optional("parent_id"),
        ts=optional("ts"),
    )
    if kind == "annotation":
        if not art.quote_id:
            raise ParseError(lineno, f"annotation {art.id!r} has no quote_id")
        if art.parent_id:
            raise ParseError(lineno, f"annotation {art.id!r} must not have a parent_id")
        if not art.body.strip():
            raise ParseError(lineno, f"annotation {art.id!r} has an empty body")
    else:
        if not art.parent_id:
            raise ParseError(lineno, f"reply {art.id!r} has no parent_id")
        if art.quote_id:
            raise ParseError(lineno, f"reply {art.id!r} must not carry a quote_id")
    return art


def _iter_parsed(
    path: str | Path, format: Format
) -> Iterator[tuple[int, Quote | Artifact] | AicnetError]:
    """Yield (line, record) pairs; parse failures are yielded, not raised, so
    that a caller collects every one of them."""
    # decode manually: read_text would newline-translate inside quoted CSV fields
    try:
        text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        yield CorpusEncodingError(str(path), exc.start)
        return
    if format == "jsonl":
        raw: Iterator[tuple[int, dict] | ParseError] = _records_from_jsonl(text.splitlines())
    elif format == "csv":
        raw = _records_from_csv(text)
    else:
        raise ValueError(f"unknown corpus format {format!r}")
    for item in raw:
        if isinstance(item, ParseError):
            yield item
            continue
        lineno, rec = item
        try:
            yield lineno, _parse_record(lineno, rec)
        except ParseError as exc:
            yield exc


def _assemble(records: list[tuple[int, Quote | Artifact]]) -> tuple[Corpus, list[AicnetError]]:
    corpus = Corpus()
    errors: list[AicnetError] = []
    seen_ids: dict[str, set[str]] = {}

    for lineno, item in records:
        reading = corpus.readings.setdefault(item.reading_id, Reading(id=item.reading_id))
        ids = seen_ids.setdefault(item.reading_id, set())
        if item.id in ids:
            errors.append(ParseError(lineno, f"duplicate id {item.id!r} in reading {item.reading_id!r}"))
            continue
        ids.add(item.id)
        if isinstance(item, Quote):
            reading.quotes[item.id] = item
        else:
            reading.artifacts.append(item)
            corpus.authors.add(item.author_id)

    for reading in corpus.readings.values():
        roots = thread_roots(reading)
        cycles: list[AicnetError] = []
        for art in reading.artifacts:
            root = roots[art.id]
            if art.kind == "annotation" and art.quote_id not in reading.quotes:
                errors.append(MissingQuote(art.id))
            elif isinstance(root, DanglingParent) and root.artifact_id == art.id:
                errors.append(root)
            elif isinstance(root, CyclicThread):
                cycles.append(root)
        errors += cycles
    return corpus, errors


def _collect(path: str | Path, format: Format) -> tuple[Corpus, list[AicnetError]]:
    """The assembled corpus and every validation error, in the order
    :func:`validate_file` documents."""
    errors: list[AicnetError] = []
    records: list[tuple[int, Quote | Artifact]] = []
    for item in _iter_parsed(path, format):
        if isinstance(item, AicnetError):
            errors.append(item)
        else:
            records.append(item)
    if not records and not errors:
        return Corpus(), [EmptyCorpus()]
    corpus, semantic_errors = _assemble(records)
    return corpus, errors + semantic_errors


def validate_file(path: str | Path, format: Format = "jsonl") -> list[AicnetError]:
    """Collect every validation error in the file (empty list means clean).

    The order is: record parse errors in file order, then duplicate ids in
    file order, then for each reading (by first appearance) its missing
    quotes and dangling parents in artifact order, then its cycles.
    """
    return _collect(path, format)[1]


def load_corpus(path: str | Path, format: Format = "jsonl") -> Corpus:
    """Load and fully validate a corpus file.

    Raises the first error :func:`validate_file` lists.
    """
    corpus, errors = _collect(path, format)
    if errors:
        raise errors[0]
    return corpus


# -- serialization ------------------------------------------------------------

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


def save_corpus(corpus: Corpus, path: str | Path, format: Format = "jsonl") -> None:
    """Write the corpus back out; ``load_corpus`` of the result round-trips."""
    path = Path(path)
    if format == "jsonl":
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            for rec in iter_records(corpus):
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
    elif format == "csv":
        columns = ["record", "id", "reading_id", "author_id", "kind",
                   "quote_id", "parent_id", "body", "ts", "text"]
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            for rec in iter_records(corpus):
                row = {col: rec.get(col, "") for col in columns}
                if "record" not in rec:
                    row["record"] = "artifact"
                writer.writerow(row)
    else:
        raise ValueError(f"unknown corpus format {format!r}")


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

@dataclass(frozen=True)
class ReadingStats:
    reading_id: str
    posts: int
    replies: int
    avg_words_per_post: float | None


@dataclass(frozen=True)
class StatsTable:
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
