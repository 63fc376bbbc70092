"""Quote embeddings and similarity.

Vectors normally arrive from a file produced by an external sentence encoder
(JSONL or a binary columnar format, both documented below). For tests and for
corpora without precomputed vectors there is :func:`hash_embed`, a fully
deterministic character-n-gram hashing embedder.

Embedding file formats:

* JSONL: one ``{"quote_id": str, "vector": [float, ...]}`` object per line,
  after at most one byte-order mark; the id is a non-empty string and the
  vector a non-empty list of JSON numbers (not strings, not ``true``/``false``).
* Binary: magic bytes ``AICEMB01``, then two little-endian uint32 (dimension,
  record count), then per record a little-endian uint16 id byte-length, the
  UTF-8 id, and ``dimension`` little-endian float32 components; no byte
  follows the last record, and the dimension is at least 1 when the count is.

Every vector must be finite, non-zero, of one shared dimension, given once per
quote id, and have a squared norm within the normal float64 range.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .corpus import Quote, normalize_text
from .errors import (
    DimensionMismatch,
    EmbeddingFileError,
    EmptyText,
    InvalidVector,
    MissingEmbedding,
    ZeroVector,
)

if TYPE_CHECKING:
    import numpy as np

_MAGIC = b"AICEMB01"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


@dataclass
class EmbeddingStore:
    """Validated quote-id -> vector map; every vector shares one dimension."""

    dim: int
    vectors: dict[str, np.ndarray]

    def get(self, quote_id: str) -> np.ndarray:
        """The vector of ``quote_id``; a missing one, one not of ``dim``
        components or an all-zero one raises the error naming the quote."""
        vec = self.vectors.get(quote_id)
        if vec is None:
            raise MissingEmbedding(quote_id)
        if vec.shape != (self.dim,):
            raise DimensionMismatch(quote_id, self.dim, int(vec.size))
        if not vec.any():
            raise ZeroVector(quote_id)
        return vec


@dataclass(frozen=True)
class JointPair:
    """An unordered quote pair whose similarity cleared the threshold."""

    quote_a: str
    quote_b: str
    similarity: float


def _validated_store(records: Iterable[tuple[str, np.ndarray]]) -> EmbeddingStore:
    """The store of the records, each a fresh float64 array, which it keeps."""
    import numpy as np

    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for quote_id, vec in records:
        if quote_id in vectors:
            raise InvalidVector(quote_id, "is given twice")
        if dim is None:
            dim = int(vec.shape[0])
        elif vec.shape[0] != dim:
            raise DimensionMismatch(quote_id, dim, int(vec.shape[0]))
        if not np.isfinite(vec).all():
            raise InvalidVector(quote_id, "has a non-finite component")
        if not vec.any():
            raise ZeroVector(quote_id)
        with np.errstate(all="ignore"):
            squared = float(np.dot(vec, vec))
        if not sys.float_info.min <= squared < math.inf:
            raise InvalidVector(quote_id, "has a norm outside the float64 range")
        vectors[quote_id] = vec
    return EmbeddingStore(dim=dim or 0, vectors=vectors)


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


def _read_jsonl(raw: bytes) -> Iterable[tuple[str, np.ndarray]]:
    import numpy as np

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
            vec = np.array(vector, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            raise EmbeddingFileError(where, "'vector' must be a list of numbers") from None
        yield quote_id, vec


def _read_binary(raw: bytes) -> Iterable[tuple[str, np.ndarray]]:
    import numpy as np

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
        offset += id_len
        vec = np.frombuffer(raw, dtype="<f4", count=dim, offset=offset).astype(np.float64)
        offset += 4 * dim
        yield quote_id, vec
    if offset != len(raw):
        raise EmbeddingFileError(
            f"byte {offset}", f"{len(raw) - offset} bytes past the declared record count ({count})"
        )


def save_embeddings(store: EmbeddingStore, path: str | Path, format: str = "jsonl") -> None:
    path = Path(path)
    if format == "jsonl":
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            for quote_id in sorted(store.vectors):
                vec = [float(x) for x in store.vectors[quote_id]]
                fh.write(json.dumps({"quote_id": quote_id, "vector": vec}) + "\n")
    elif format == "binary":
        with path.open("wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<II", store.dim, len(store.vectors)))
            for quote_id in sorted(store.vectors):
                encoded = quote_id.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(store.vectors[quote_id].astype("<f4").tobytes())
    else:
        raise ValueError(f"unknown embedding format {format!r}")


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def hash_embed(text: str, dim: int = 256) -> np.ndarray:
    """Deterministic n-gram hashing embedder (test-time stand-in for a model).

    Byte 3-to-5-grams of the UTF-8 normalized text (wrapped in sentinel bytes)
    are hashed with 64-bit FNV-1a into ``dim`` buckets, each gram adding +1 or,
    when bit 63 of its hash is set, -1; the count vector is then L2-normalized.
    Identical normalized texts give identical vectors on every platform.

    All windows are hashed at once: FNV-1a step ``k`` folds byte ``i + k`` into
    the hash of the window starting at ``i``, with uint64 products wrapping
    mod 2**64, and the 4- and 5-gram hashes continue the 3-gram ones. The
    bucket sums are small integers, so the vector equals the one a per-gram
    loop gives, bit for bit.
    """
    import numpy as np

    if dim < 8:
        raise ValueError("embedding dimension must be >= 8")
    normalized = normalize_text(text)
    if not normalized:
        raise EmptyText()
    marked = "\x02" + normalized + "\x03"
    encoded = marked.encode("utf-8")
    data = np.frombuffer(encoded, dtype=np.uint8).astype(np.uint64)
    h = np.full(len(data), _FNV_OFFSET, dtype=np.uint64)
    grams = []
    for k in range(5):
        m = len(data) - k
        h = (h[:m] ^ data[k : k + m]) * np.uint64(_FNV_PRIME)
        if k >= 2:
            grams.append(h)
    hashes = np.concatenate(grams)
    signs = 1.0 - 2.0 * (hashes >> np.uint64(63)).astype(np.float64)
    buckets = (hashes % np.uint64(dim)).astype(np.intp)
    vec = np.bincount(buckets, weights=signs, minlength=dim)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        # all buckets cancelled; salt with the whole string so no text maps to zero
        h = _fnv1a(encoded)
        vec[h % dim] = 1.0
        norm = 1.0
    return vec / norm


def embed_quotes(quotes: Iterable[Quote], dim: int = 256) -> EmbeddingStore:
    """Hash-embed every quote's text into a store.

    Each distinct normalized text is hashed once: twin quotes, whose texts
    differ only in case or whitespace, share one vector object.
    """
    by_text: dict[str, np.ndarray] = {}
    vectors: dict[str, np.ndarray] = {}
    for q in quotes:
        key = q.normalized_text
        if key not in by_text:
            by_text[key] = hash_embed(q.text, dim)
        vectors[q.id] = by_text[key]
    return EmbeddingStore(dim=dim, vectors=vectors)


_CLAMP_TOL = 1e-9


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, clamped into [-1, 1].

    Values within 1e-9 of an endpoint snap to it, so identical vectors give
    exactly 1.0 despite float rounding. Norms whose product is not a normal
    float64 (a NaN or infinite component among them) raise :class:`InvalidVector`.
    """
    import numpy as np

    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionMismatch("", u.shape[0], v.shape[0])
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector()
    if not sys.float_info.min <= nu * nv < math.inf:  # NaN fails too
        raise InvalidVector("", "has a norm outside the float64 range")
    value = float(np.dot(u, v)) / (nu * nv)
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
