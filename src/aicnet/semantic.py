"""Quote embeddings and similarity.

Vectors normally arrive from a file produced by an external sentence encoder
(JSONL or a binary columnar format, both documented below). For tests and for
corpora without precomputed vectors there is :func:`hash_embed`, a fully
deterministic character-n-gram hashing embedder.

A vector is a tuple of floats. Every dot product and squared norm is an
exactly rounded :func:`math.fsum`, so a similarity has the same bits on every
platform and interpreter, and ``cosine(u, v) == cosine(v, u)``.

Embedding file formats:

* JSONL: one ``{"quote_id": str, "vector": [float, ...]}`` object per line,
  after at most one byte-order mark; the id is a non-empty string and the
  vector a non-empty list of JSON numbers (not strings, not ``true``/``false``).
* Binary: magic bytes ``AICEMB01``, then two little-endian uint32 (dimension,
  record count), then per record a little-endian uint16 id byte-length (not
  0), the UTF-8 id, and ``dimension`` little-endian float32 components; no
  byte follows the last record, and the dimension is 1 or more if records are.

Every vector must be finite, non-zero, of one shared dimension, given once per
quote id, and have a squared norm within the normal float64 range.
"""

from __future__ import annotations

import json
import math
import operator
import struct
import sys
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path

from .corpus import Quote, normalize_text
from .errors import (
    DimensionMismatch,
    EmbeddingFileError,
    EmptyText,
    InvalidVector,
    MissingEmbedding,
    ZeroVector,
)

Vector = tuple[float, ...]

_MAGIC = b"AICEMB01"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


@dataclass
class EmbeddingStore:
    """Quote-id -> vector map; :meth:`get` reads a vector and checks it."""

    dim: int
    vectors: Mapping[str, Vector]

    def get(self, quote_id: str) -> Vector:
        """The vector of ``quote_id``. A missing one, one not of ``dim``
        components, one with a non-finite component, an all-zero one, or one
        whose squared norm leaves the normal float64 range raises the error
        naming the quote."""
        vec = self.vectors.get(quote_id)
        if vec is None:
            raise MissingEmbedding(quote_id)
        if len(vec) != self.dim:
            raise DimensionMismatch(quote_id, self.dim, len(vec))
        if not all(map(math.isfinite, vec)):
            raise InvalidVector(quote_id, "has a non-finite component")
        if not any(vec):
            raise ZeroVector(quote_id)
        if not sys.float_info.min <= _squared_norm(vec) < math.inf:
            raise InvalidVector(quote_id, "has a norm outside the float64 range")
        return vec


@dataclass(frozen=True)
class JointPair:
    """An unordered quote pair whose similarity cleared the threshold."""

    quote_a: str
    quote_b: str
    similarity: float


def _validated_store(records: Iterable[tuple[str, Vector]]) -> EmbeddingStore:
    """The store of the records, each checked by :meth:`EmbeddingStore.get` as
    it arrives; the first record sets the dimension."""
    store = EmbeddingStore(dim=0, vectors={})
    for quote_id, vec in records:
        if quote_id in store.vectors:
            raise InvalidVector(quote_id, "is given twice")
        if not store.vectors:
            store.dim = len(vec)
        store.vectors[quote_id] = vec
        store.get(quote_id)
    return store


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Load a vector file (JSONL or binary, sniffed by magic bytes).

    A malformed file raises :class:`EmbeddingFileError` naming the file and the
    line or byte offset; a duplicate id, a non-finite component or a norm out
    of range raises :class:`InvalidVector`.
    """
    path = Path(path)
    raw = path.read_bytes()
    try:
        return _validated_store(_read_binary(raw) if raw.startswith(_MAGIC) else _read_jsonl(raw))
    except EmbeddingFileError as exc:
        raise EmbeddingFileError(f"{path} {exc.where}", exc.reason) from None


def _read_jsonl(raw: bytes) -> Iterable[tuple[str, Vector]]:
    try:
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise EmbeddingFileError(f"byte {exc.start}", "not valid UTF-8") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also too-long integers, deep nesting
            raise EmbeddingFileError(where, f"invalid JSON ({getattr(exc, 'msg', exc)})") from None
        if not isinstance(rec, dict) or "quote_id" not in rec or "vector" not in rec:
            raise EmbeddingFileError(where, "expected an object with 'quote_id' and 'vector'")
        quote_id, vector = rec["quote_id"], rec["vector"]
        if not isinstance(quote_id, str) or not quote_id:
            raise EmbeddingFileError(where, "'quote_id' must be a non-empty string")
        # JSON numbers only: true and false parse as bool, which is an int subclass
        if not isinstance(vector, list) or not {type(x) for x in vector} <= {int, float}:
            raise EmbeddingFileError(where, "'vector' must be a list of numbers")
        if not vector:
            raise EmbeddingFileError(where, "'vector' must be a non-empty list of numbers")
        try:
            vec = tuple(map(float, vector))
        except OverflowError:  # an integer beyond the float range
            raise EmbeddingFileError(where, "'vector' must be a list of numbers") from None
        yield quote_id, vec


def _read_binary(raw: bytes) -> Iterable[tuple[str, Vector]]:
    def need(offset: int, size: int, what: str) -> None:
        if offset + size > len(raw):
            raise EmbeddingFileError(
                f"byte {offset}", f"truncated {what}: {size} bytes needed, {len(raw) - offset} left"
            )

    offset = len(_MAGIC)
    need(offset, 8, "header")
    dim, count = struct.unpack_from("<II", raw, offset)
    if count and not dim:
        raise EmbeddingFileError(f"byte {offset}", "dimension must be at least 1")
    offset += 8
    for index in range(count):
        need(offset, 2, f"record {index}")
        (id_len,) = struct.unpack_from("<H", raw, offset)
        offset += 2
        need(offset, id_len + 4 * dim, f"record {index}")
        try:
            quote_id = raw[offset : offset + id_len].decode("utf-8")
        except UnicodeDecodeError:
            raise EmbeddingFileError(f"byte {offset}", "quote id is not valid UTF-8") from None
        if not quote_id:
            raise EmbeddingFileError(f"byte {offset}", "quote id is empty")
        offset += id_len
        vec = struct.unpack_from(f"<{dim}f", raw, offset)
        offset += 4 * dim
        yield quote_id, vec
    if offset != len(raw):
        raise EmbeddingFileError(
            f"byte {offset}", f"{len(raw) - offset} bytes past the declared record count ({count})"
        )


def save_embeddings(store: EmbeddingStore, path: str | Path, format: str = "jsonl") -> None:
    """Write the store's vectors in quote-id order, if each passes the load
    rule (a non-empty string id, then :meth:`EmbeddingStore.get`) and, for the
    binary format, fits it (an id of at most 65,535 UTF-8 bytes; no component
    beyond the float32 range, not all rounding to zero); else raise the first
    record's error and write no file."""
    ids = sorted(store.vectors)
    for quote_id in ids:
        if not isinstance(quote_id, str) or not quote_id:
            raise InvalidVector(quote_id, "needs a non-empty string id")
        store.get(quote_id)
    path = Path(path)
    if format == "jsonl":
        rows = ({"quote_id": qid, "vector": list(map(float, store.vectors[qid]))} for qid in ids)
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8",
                        newline="\n")
    elif format == "binary":
        chunks = [_MAGIC, struct.pack("<II", store.dim, len(ids))]
        for quote_id in ids:
            try:
                encoded = quote_id.encode("utf-8")
            except UnicodeEncodeError:
                raise InvalidVector(quote_id, "has an id UTF-8 cannot encode") from None
            if len(encoded) > 0xFFFF:
                raise InvalidVector(quote_id, "has an id over 65,535 UTF-8 bytes")
            vec = store.vectors[quote_id]
            layout = f"<{len(vec)}f"
            try:
                packed = struct.pack(layout, *vec)
            except OverflowError:
                raise InvalidVector(quote_id, "has a component beyond the float32 range") from None
            if any(vec) and not any(struct.unpack(layout, packed)):
                raise InvalidVector(quote_id, "rounds to all zeros in float32")
            chunks += [struct.pack("<H", len(encoded)), encoded, packed]
        path.write_bytes(b"".join(chunks))
    else:
        raise ValueError(f"unknown embedding format {format!r}")


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def hash_embed(text: str, dim: int = 256) -> Vector:
    """Deterministic n-gram hashing embedder (test-time stand-in for a model).

    Byte 3-to-5-grams of the UTF-8 normalized text (wrapped in sentinel bytes)
    are hashed with 64-bit FNV-1a into ``dim`` buckets, each gram adding +1 or,
    when bit 63 of its hash is set, -1; the count vector is then L2-normalized.
    Identical normalized texts give identical vectors on every platform.

    One FNV-1a loop per window start folds in up to five bytes, and its
    states after the third, fourth and fifth are the 3-, 4- and 5-gram hashes.
    The bucket counts are integers, so their squared norm and every quotient
    are exact up to one rounding each.
    """
    if dim < 8:
        raise ValueError("embedding dimension must be >= 8")
    normalized = normalize_text(text)
    if not normalized:
        raise EmptyText()
    encoded = ("\x02" + normalized + "\x03").encode("utf-8")
    counts = [0] * dim
    for start in range(len(encoded) - 2):
        h = _FNV_OFFSET
        for k, byte in enumerate(encoded[start : start + 5]):
            h = ((h ^ byte) * _FNV_PRIME) & _MASK64
            if k >= 2:
                counts[h % dim] += 1 - 2 * (h >> 63)
    norm = math.sqrt(sum(c * c for c in counts))
    if norm == 0.0:
        # all buckets cancelled; salt with the whole string so no text maps to zero
        counts[_fnv1a(encoded) % dim] = 1
        norm = 1.0
    return tuple(c / norm for c in counts)


class _HashVectors(Mapping):
    """Quote id -> hash vector, read-only; a quote's text is hashed the first
    time a quote of that normalized text is looked up, then kept."""

    def __init__(self, quotes: dict[str, Quote], dim: int) -> None:
        self._quotes, self._dim = quotes, dim
        self._by_text: dict[str, Vector] = {}

    def __getitem__(self, quote_id: str) -> Vector:
        quote = self._quotes[quote_id]
        vec = self._by_text.get(quote.normalized_text)
        if vec is None:
            vec = self._by_text[quote.normalized_text] = hash_embed(quote.text, self._dim)
        return vec

    def __iter__(self) -> Iterator[str]:
        return iter(self._quotes)

    def __len__(self) -> int:
        return len(self._quotes)


def embed_quotes(quotes: Iterable[Quote], dim: int = 256) -> EmbeddingStore:
    """A store of hash vectors for the quotes, keyed by quote id.

    A vector is hashed when it is first read, so quotes whose vectors nothing
    reads cost no hashing. Each distinct normalized text is hashed once: twin
    quotes, whose texts differ only in case or whitespace, share one vector
    object. A dimension below 8, or a blank quote text, raises the error of
    :func:`hash_embed` here, not at a read.
    """
    by_id: dict[str, Quote] = {}
    for q in quotes:
        if dim < 8 or not q.normalized_text:
            hash_embed(q.text, dim)  # raises
        by_id[q.id] = q
    return EmbeddingStore(dim=dim, vectors=_HashVectors(by_id, dim))


_CLAMP_TOL = 1e-9


def _squared_norm(vec: Vector) -> float:
    """The exactly rounded sum of the squared components; inf once it overflows."""
    try:
        return math.fsum(map(operator.mul, vec, vec))
    except OverflowError:  # the squares are finite but their sum is not
        return math.inf


def cosine(u: Vector, v: Vector) -> float:
    """Cosine similarity, clamped into [-1, 1], as :func:`_cosine` computes it.

    Norms whose product is not a normal float64 (a NaN or infinite component
    among them) raise :class:`InvalidVector`.
    """
    if len(u) != len(v):
        raise DimensionMismatch("", len(u), len(v))
    nu, nv = math.sqrt(_squared_norm(u)), math.sqrt(_squared_norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector()
    if not sys.float_info.min <= nu * nv < math.inf:  # NaN fails too
        raise InvalidVector("", "has a norm outside the float64 range")
    return _cosine(u, nu, v, nv)


def _cosine(u: Vector, nu: float, v: Vector, nv: float) -> float:
    """The cosine of ``u`` and ``v``, whose norms are ``nu`` and ``nv``: the
    exactly rounded dot product over ``nu * nv``. Values within 1e-9 of an
    endpoint of [-1, 1] snap to it, so identical vectors give exactly 1.0, and
    the rest are clamped into it."""
    value = math.fsum(map(operator.mul, u, v)) / (nu * nv)
    if abs(value - 1.0) <= _CLAMP_TOL:
        return 1.0
    if abs(value + 1.0) <= _CLAMP_TOL:
        return -1.0
    return max(-1.0, min(1.0, value))


def quote_similarity(q1: Quote, q2: Quote, store: EmbeddingStore) -> float:
    """Similarity of two quotes.

    Exactly 1.0 for a common reference (same quote, or textually identical
    after normalization) regardless of stored vectors; cosine of the stored
    vectors otherwise.
    """
    if q1.id == q2.id or q1.normalized_text == q2.normalized_text:
        return 1.0
    return cosine(store.get(q1.id), store.get(q2.id))


def joint_pairs(
    quotes_u: Iterable[Quote],
    quotes_v: Iterable[Quote],
    store: EmbeddingStore,
    tau: float = 0.8,
) -> list[JointPair]:
    """All unordered quote pairs across the two sets with similarity >= tau.

    A quote occurring in both sets pairs with itself exactly once, at 1.0.
    Results are sorted by (quote_a, quote_b) id.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    by_id_u = {q.id: q for q in quotes_u}
    by_id_v = {q.id: q for q in quotes_v}
    pairs: list[JointPair] = []
    seen: set[tuple[str, str]] = set()
    for qu_id in sorted(by_id_u):
        for qv_id in sorted(by_id_v):
            key = (qu_id, qv_id) if qu_id <= qv_id else (qv_id, qu_id)
            if key in seen:
                continue
            seen.add(key)
            sim = quote_similarity(by_id_u[qu_id], by_id_v[qv_id], store)
            if sim >= tau:
                pairs.append(JointPair(key[0], key[1], sim))
    pairs.sort(key=lambda p: (p.quote_a, p.quote_b))
    return pairs
