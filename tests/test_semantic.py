"""Embedding store, hash embedder, cosine, and joint-pair detection."""

from __future__ import annotations

import json
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aicnet.corpus import Quote, normalize_text
from aicnet.errors import (
    AicnetError,
    EmptyText,
    InvalidVector,
    MissingEmbedding,
    ParseError,
)
from aicnet.semantic import (
    EmbeddingStore,
    _cosine,
    _squared_norm,
    cosine,
    embed_quotes,
    hash_embed,
    joint_pairs,
    load_embeddings,
    save_embeddings,
)
from conftest import binary_vectors
from oracles import oracle_hash_embed, oracle_quote_similarity

# a JSONL vector line past the integer-digit limit, and one past the recursion limit
_LONG_INT_LINE = '{"quote_id": "q2", "vector": [' + "1" * 5000 + "]}"
_DEEP_LINE = '{"quote_id": "q2", "vector": ' + "[" * 100_000 + "]" * 100_000 + "}"

_NOT_NUMBERS = "emb.jsonl: line 3: 'vector' must be a list of numbers"
_NOT_AN_ID = "emb.jsonl: line 3: 'quote_id' must be a non-empty string"

# cosine of these two was computed once with the shipped embedder and frozen
_UNRELATED_A = "the history of ballet in the nineteenth century"
_UNRELATED_B = "numerical methods for sparse linear algebra"
_UNRELATED_COSINE = -0.02196873875818734


def _q(qid: str, text: str) -> Quote:
    return Quote(id=qid, reading_id="r1", text=text)


def test_load_jsonl(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(
        json.dumps({"quote_id": "q1", "vector": [1.0] * 768}) + "\n"
        + json.dumps({"quote_id": "q2", "vector": [0.5] * 768}) + "\n"
    )
    store = load_embeddings(path)
    assert store.dim == 768
    assert set(store.vectors) == {"q1", "q2"}


def test_load_rejects_dimension_mismatch(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(
        json.dumps({"quote_id": "q1", "vector": [1.0] * 768}) + "\n"
        + json.dumps({"quote_id": "q2", "vector": [1.0] * 512}) + "\n"
    )
    with pytest.raises(ParseError) as exc:
        load_embeddings(path)
    assert str(exc.value) == f"{path}: line 2: vector for 'q2' has 512 components, expected 768"


def test_load_rejects_zero_vector(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(json.dumps({"quote_id": "q1", "vector": [0.0] * 16}) + "\n")
    with pytest.raises(ParseError, match=r": line 1: vector for 'q1' is all zeros$"):
        load_embeddings(path)


def test_load_keeps_orphans_without_warning(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(
        json.dumps({"quote_id": "q1", "vector": [1.0, 0.0]}) + "\n"
        + json.dumps({"quote_id": "ghost", "vector": [0.0, 1.0]}) + "\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        store = load_embeddings(path)
    assert set(store.vectors) == {"q1", "ghost"}  # the CLI reports orphans, not the loader


def test_binary_round_trip(tmp_path):
    store = EmbeddingStore(
        dim=8,
        vectors={
            "q1": np.arange(1.0, 9.0),
            "qé2": np.linspace(-1.0, 1.0, 8) + 0.1,
        },
    )
    path = tmp_path / "emb.bin"
    path.write_bytes(binary_vectors(store.vectors, store.dim))
    again = load_embeddings(path)
    assert again.dim == 8
    assert set(again.vectors) == set(store.vectors)
    for qid in store.vectors:
        np.testing.assert_allclose(again.vectors[qid], store.vectors[qid], rtol=1e-6)


@pytest.mark.parametrize("component", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_load_rejects_non_finite_component(tmp_path, component):
    path = tmp_path / "emb.jsonl"
    path.write_text(
        json.dumps({"quote_id": "q1", "vector": [1.0, 0.0]}) + "\n"
        + '{"quote_id": "q2", "vector": [0.5, %s]}\n' % component
    )
    with pytest.raises(ParseError, match=r": line 2: vector for 'q2' has a non-finite component$"):
        load_embeddings(path)


@pytest.mark.parametrize("vector", [
    [1e200, 1e200],  # squared norm overflows, so every cosine would be NaN or 0
    [1e-200, 1e-200],  # squared norm underflows to 0: not an all-zero vector
    [1e-160, 1e-160],  # squared norm subnormal, so cosines lose precision
])
def test_load_rejects_norm_outside_the_float64_range(tmp_path, vector):
    path = tmp_path / "emb.jsonl"
    path.write_text(
        json.dumps({"quote_id": "q1", "vector": [1.0, 0.0]}) + "\n"
        + json.dumps({"quote_id": "q2", "vector": vector}) + "\n"
    )
    with pytest.raises(ParseError,
                       match=r": line 2: vector for 'q2' has a norm outside the float64 range$"):
        load_embeddings(path)


def test_load_keeps_norms_at_the_edges_of_the_range(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(
        json.dumps({"quote_id": "q1", "vector": [1e153, 1e153]}) + "\n"
        + json.dumps({"quote_id": "q2", "vector": [1e-150, -1e-150]}) + "\n"
    )
    store = load_embeddings(path)
    assert cosine(store.get("q1"), store.get("q2")) == pytest.approx(0.0, abs=1e-15)


def test_load_jsonl_drops_one_byte_order_mark(tmp_path):
    line = json.dumps({"quote_id": "q1", "vector": [1.0, 0.0]}) + "\n"
    path = tmp_path / "emb.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + line.encode("utf-8"))
    assert list(load_embeddings(path).vectors) == ["q1"]
    path.write_bytes(b"\xef\xbb\xbf" * 2 + line.encode("utf-8"))
    with pytest.raises(ParseError, match="line 1: invalid JSON"):
        load_embeddings(path)


def test_load_rejects_non_finite_binary_component(tmp_path):
    path = tmp_path / "emb.bin"
    path.write_bytes(binary_vectors({"q1": (1.0, math.nan)}, 2))
    with pytest.raises(ParseError, match=r": byte 16: vector for 'q1' has a non-finite "
                                         r"component$"):
        load_embeddings(path)


def test_load_rejects_an_empty_binary_id(tmp_path):
    path = tmp_path / "emb.bin"
    path.write_bytes(binary_vectors({"q1": (0.0, 1.0), "": (1.0, 0.0)}, 2))
    # the second record's id would start at 16 + (2 + 2 + 8) + 2
    with pytest.raises(ParseError, match=r"emb\.bin: byte 30: quote id is empty"):
        load_embeddings(path)


def test_load_names_the_byte_of_a_binary_id_that_is_not_utf8(tmp_path):
    path = tmp_path / "emb.bin"
    path.write_bytes(binary_vectors({b"\xffq": (1.0, 0.0)}, 2))
    with pytest.raises(ParseError) as exc:
        load_embeddings(path)
    assert str(exc.value) == f"{path}: byte 18: quote id is not valid UTF-8"


@pytest.mark.parametrize("vectors, reason", [
    ({"q1": (math.nan, 1.0)}, "vector for 'q1' has a non-finite component"),
    ({"q1": (1.0, -math.inf)}, "vector for 'q1' has a non-finite component"),
    ({"": (1.0, 0.0)}, "vector for '' needs a non-empty string id"),
    ({"q1": (0.0, 0.0)}, "vector for 'q1' is all zeros"),
    ({"q1": (1.0, 0.0, 0.0)}, "vector for 'q1' has 3 components, expected 2"),
    ({"q1": (1e200, 1e200)}, "vector for 'q1' has a norm outside the float64 range"),
], ids=["nan", "inf", "empty_id", "zero", "long", "norm_overflow"])
def test_save_refuses_what_a_load_refuses(tmp_path, vectors, reason):
    store = EmbeddingStore(dim=2, vectors={"q0": (0.5, 0.5), **vectors})
    path = tmp_path / "emb"
    with pytest.raises(AicnetError) as exc:
        save_embeddings(store, path)
    assert str(exc.value) == reason
    assert not path.exists()
    del store.vectors[next(iter(vectors))]  # the good record alone saves and loads back
    save_embeddings(store, path)
    assert load_embeddings(path).vectors == {"q0": (0.5, 0.5)}


@pytest.mark.parametrize("quote_id", ["\ud800", "q" * 70_000], ids=["lone_surrogate", "long"])
def test_save_holds_any_non_empty_string_id(tmp_path, quote_id):
    store = EmbeddingStore(dim=2, vectors={"q0": (0.5, 0.5), quote_id: (1.0, 0.0)})
    save_embeddings(store, tmp_path / "emb.jsonl")
    assert load_embeddings(tmp_path / "emb.jsonl").vectors == store.vectors


def test_load_rejects_duplicate_id(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(
        json.dumps({"quote_id": "q1", "vector": [1.0, 0.0]}) + "\n"
        + json.dumps({"quote_id": "q1", "vector": [0.0, 1.0]}) + "\n"
    )
    with pytest.raises(ParseError, match=r": line 2: vector for 'q1' is given twice$"):
        load_embeddings(path)


@pytest.mark.parametrize("line, where", [
    ('{"quote_id": "q2", "vector": [1.0, ', "line 3"),
    ('{"vector": [1.0, 0.0]}', "line 3"),
    ('{"quote_id": "q2"}', "line 3"),
    ('["q2", [1.0, 0.0]]', "line 3"),
    ('{"quote_id": "q2", "vector": ["a", "b"]}', "line 3"),
    ('{"quote_id": "q2", "vector": 1.0}', "line 3"),
    pytest.param(_LONG_INT_LINE, "line 3: invalid JSON", id="long_int"),
    pytest.param(_DEEP_LINE, "line 3: invalid JSON", id="deep"),
    # only JSON numbers are components, only a non-empty string is an id
    pytest.param('{"quote_id": "q2", "vector": ["1", "0.5"]}', _NOT_NUMBERS, id="string_components"),
    pytest.param('{"quote_id": "q2", "vector": [true, false]}', _NOT_NUMBERS, id="bool_components"),
    pytest.param('{"quote_id": "q2", "vector": [1.0, null]}', _NOT_NUMBERS, id="null_component"),
    pytest.param('{"quote_id": "q2", "vector": [[1.0], [0.5]]}', _NOT_NUMBERS, id="nested"),
    pytest.param('{"quote_id": "q2", "vector": [1' + "0" * 400 + ']}', _NOT_NUMBERS,
                 id="integer_beyond_float_range"),
    pytest.param('{"quote_id": null, "vector": [1, 0]}', _NOT_AN_ID, id="null_id"),
    pytest.param('{"quote_id": 7, "vector": [1, 0]}', _NOT_AN_ID, id="int_id"),
    pytest.param('{"quote_id": "", "vector": [1, 0]}', _NOT_AN_ID, id="empty_id"),
    pytest.param('{"quote_id": "q2", "vector": []}',
                 "emb.jsonl: line 3: 'vector' must be a non-empty list of numbers", id="empty_vector"),
])
def test_load_jsonl_faults_name_the_line(tmp_path, line, where):
    path = tmp_path / "emb.jsonl"
    path.write_text(json.dumps({"quote_id": "q1", "vector": [1.0, 0.0]}) + "\n\n" + line + "\n")
    with pytest.raises(ParseError, match=where):
        load_embeddings(path)


def test_load_jsonl_takes_integer_components(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"quote_id": "q1", "vector": [1, 0, -2]}\n')
    vec = load_embeddings(path).vectors["q1"]
    assert len(vec) == 3 and all(type(x) is float for x in vec)
    assert vec == (1.0, 0.0, -2.0)


# after one declared record: junk, or a second record the count leaves out
@pytest.mark.parametrize("tail", [b"garbage", b"\x02\x00q2" + bytes(8)],
                         ids=["garbage", "uncounted_record"])
def test_load_binary_rejects_bytes_after_the_last_record(tmp_path, tail):
    path = tmp_path / "emb.bin"
    path.write_bytes(binary_vectors({"q1": (1.0, 0.5)}, 2) + tail)
    with pytest.raises(ParseError, match=rf"emb\.bin: byte 28: {len(tail)} bytes past"):
        load_embeddings(path)


def test_load_rejects_non_utf8_jsonl(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_bytes(b'{"quote_id": "q\xff", "vector": [1.0]}\n')
    with pytest.raises(ParseError, match="byte 15"):
        load_embeddings(path)


@pytest.mark.parametrize("cut", [9, 14, 18, 21, 30])
def test_load_truncated_binary_names_the_offset(tmp_path, cut):
    store = EmbeddingStore(dim=2, vectors={"q1": np.array([1.0, 2.0]), "q2": np.array([3.0, 4.0])})
    path = tmp_path / "emb.bin"
    # the full file: 16 + 2 * (2 + 2 + 8) = 40 bytes
    path.write_bytes(binary_vectors(store.vectors, store.dim)[:cut])
    with pytest.raises(ParseError, match=r"byte \d+: truncated"):
        load_embeddings(path)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64), st.booleans())
@example(_LONG_INT_LINE.encode(), False)
@example(_DEEP_LINE.encode(), False)
def test_load_arbitrary_bytes_only_raises_input_errors(tmp_path_factory, data, binary):
    path = tmp_path_factory.mktemp("emb") / "emb.bin"
    path.write_bytes((b"AICEMB01" if binary else b"") + data)
    try:
        load_embeddings(path)
    except AicnetError:
        pass


def test_hash_embed_deterministic():
    a = hash_embed("Dancers move together.", 64)
    b = hash_embed("Dancers move together.", 64)
    np.testing.assert_array_equal(a, b)


def test_hash_embed_normalized_text_equivalence():
    a = hash_embed("Grand   Jete\n", 256)
    b = hash_embed("grand jete", 256)
    assert cosine(a, b) == 1.0


def test_hash_embed_golden_unrelated_pair():
    value = cosine(hash_embed(_UNRELATED_A, 256), hash_embed(_UNRELATED_B, 256))
    assert value == pytest.approx(_UNRELATED_COSINE, abs=1e-12)
    assert value < 0.8


def test_hash_embed_rejects_empty():
    with pytest.raises(EmptyText):
        hash_embed("   \n ", 64)


def test_hash_embed_rejects_tiny_dim():
    with pytest.raises(ValueError):
        hash_embed("text", 4)


@settings(max_examples=80, deadline=None)
@given(st.text(min_size=1).filter(lambda t: t.strip()), st.sampled_from([8, 64, 256]))
def test_hash_embed_unit_norm(text, dim):
    vec = hash_embed(text, dim)
    assert len(vec) == dim and all(type(x) is float for x in vec)
    assert abs(math.sqrt(math.fsum(x * x for x in vec)) - 1.0) <= 1e-9


# ASCII, a 2-byte and a 3-byte letter, a 4-byte emoji, and whitespace the
# normalizer collapses; marked texts shorter than 5 bytes have no 4- or 5-grams
_EMBED_TEXT = st.text(alphabet=st.sampled_from("abXZ 09.é漢🙂\t\n"), min_size=1, max_size=60)


def _oracle_vector(text: str, dim: int) -> tuple[float, ...]:
    return tuple(oracle_hash_embed(text, dim).tolist())


@settings(max_examples=300, deadline=None)
@given(_EMBED_TEXT.filter(lambda t: t.strip()), st.sampled_from([8, 13, 256, 1024]))
@example("a", 8)  # 1 byte: one 3-gram, no 4- or 5-gram
@example("ab", 13)  # 2 bytes: no 5-gram
@example("é", 1024)
@example("abc", 9)  # 3 bytes: one 5-gram
@example("漢", 257)
@example("🙂", 256)
@example("Grand   Jete\n", 256)
def test_hash_embed_equals_per_gram_oracle(text, dim):
    assert hash_embed(text, dim) == _oracle_vector(text, dim)


@settings(max_examples=200, deadline=None)
@given(st.text().filter(normalize_text), st.integers(8, 300))
def test_hash_embed_equals_oracle_on_any_text(text, dim):
    assert hash_embed(text, dim) == _oracle_vector(text, dim)


def _letters(n: int, shift: int = 0) -> str:
    return "".join(chr(97 + (shift + 7 * i) % 26) for i in range(n))


# hash_embed takes window starts 4,096 at a time. The marked text holds text
# byte j at byte j + 1, so texts of 4,094-4,098 bytes end around the first
# block edge, and in the last text a 4-byte emoji straddles each of two edges.
_BLOCK_EDGE_TEXTS = [_letters(n) for n in range(4094, 4099)] + [
    _letters(4093) + "🙂" + _letters(4092, 1) + "🙂" + _letters(803, 2)]


@pytest.mark.parametrize("text", _BLOCK_EDGE_TEXTS,
                         ids=[f"{len(t.encode())}_bytes" for t in _BLOCK_EDGE_TEXTS])
def test_hash_embed_equals_oracle_across_block_edges(text):
    assert len(normalize_text(text).encode()) == len(text.encode())
    for dim in (8, 257):
        assert hash_embed(text, dim) == _oracle_vector(text, dim)


def test_hash_embed_memory_does_not_grow_with_the_text():
    # a non-periodic text keeps the bucket counts small, and tracing fast
    rng = random.Random(0)
    text = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz ", k=240_000))
    tracemalloc.start()
    try:
        hash_embed(text, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_hash_embed_all_cancel_salt_branch():
    # the six n-grams of "\x02ahb\x03" cancel to a zero count vector at dim 8
    vec = hash_embed("ahb", 8)
    assert np.count_nonzero(vec) == 1
    assert vec == _oracle_vector("ahb", 8)


def test_embed_quotes_twins_share_one_vector(monkeypatch):
    import aicnet.semantic as semantic

    hashed: list[str] = []
    real = semantic.hash_embed

    def counting(text: str, dim: int = 256):
        hashed.append(text)
        return real(text, dim)

    monkeypatch.setattr(semantic, "hash_embed", counting)
    store = embed_quotes([_q("q1", "Grand  Jete"), _q("q2", "grand jete\n"), _q("q3", "Plie")], 64)
    assert hashed == []  # nothing is hashed before a read
    assert store.get("q1") is store.get("q2")
    assert np.array_equal(store.get("q1"), real("grand jete", 64))
    assert len(hashed) == 1
    store.get("q3")
    assert len(hashed) == 2


def test_embed_quotes_store_reads_as_the_eager_dict(tmp_path):
    quotes = [_q("q2", "Grand  Jete"), _q("q1", "plie"), _q("q3", "grand jete"), _q("q1", "tendu")]
    store = embed_quotes(quotes, 64)
    eager = {q.id: hash_embed(q.text, 64) for q in quotes}  # the last q1 wins
    assert list(store.vectors) == ["q2", "q1", "q3"] and len(store.vectors) == 3
    assert store.vectors == eager and eager == store.vectors
    assert store == EmbeddingStore(64, eager)
    with pytest.raises(MissingEmbedding):
        store.get("q4")
    save_embeddings(store, tmp_path / "emb.jsonl")
    save_embeddings(EmbeddingStore(64, eager), tmp_path / "eager.jsonl")
    assert (tmp_path / "emb.jsonl").read_bytes() == (tmp_path / "eager.jsonl").read_bytes()


@pytest.mark.parametrize("texts, dim, error", [
    (["plie", " \n "], 64, EmptyText),
    (["plie"], 4, ValueError),
    ([" "], 4, ValueError),  # the dimension is checked first, as hash_embed does
])
def test_embed_quotes_refuses_before_any_read(texts, dim, error):
    with pytest.raises(error):
        embed_quotes([_q(f"q{i}", text) for i, text in enumerate(texts)], dim)


def test_cosine_self_is_one():
    u = np.array([0.3, -2.0, 5.0])
    assert cosine(u, u) == 1.0


def test_cosine_orthogonal_is_zero():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_hand_value():
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([4.0, 5.0, 6.0])
    expected = 32.0 / (math.sqrt(14.0) * math.sqrt(77.0))
    assert cosine(u, v) == pytest.approx(expected, abs=1e-12)
    assert cosine(u, v) == pytest.approx(0.9746, abs=1e-4)


def test_cosine_rejects_zero_and_mismatch():
    with pytest.raises(InvalidVector, match=r"^vector for '' is all zeros$"):
        cosine(np.zeros(3), np.ones(3))
    with pytest.raises(InvalidVector, match=r"^vector for '' has 4 components, expected 3$"):
        cosine(np.ones(3), np.ones(4))


@pytest.mark.parametrize("u, v", [
    ([np.nan, 1.0], [1.0, 0.0]),  # the NaN quotient was clamped to 1.0
    ([np.inf, 1.0], [1.0, 0.0]),
    ([1e-160, 1e-160], [1e-160, 0.0]),  # a subnormal norm product loses precision
    # the norm product is normal, but one squared norm is subnormal: the cosine
    # came out 0.7071107172647215, not 0.7071067811865476
    ([1e-160, 1e-160], [1.0, 0.0]),
])
def test_cosine_rejects_norms_outside_the_float64_range(u, v):
    # a NaN or infinite norm comes of a non-finite component, which is named
    finite = all(map(math.isfinite, u + v))
    reason = "has a norm outside the float64 range" if finite else "has a non-finite component"
    for a, b in ((u, v), (v, u)):
        with pytest.raises(InvalidVector, match=f"^vector for '' {reason}$"):
            cosine(np.array(a), np.array(b))


# components at the edges of the rule: squares that underflow (1e-160), squares
# that are finite but whose sum can overflow (1e154), squares that overflow
# (1e200), and components that are not finite
_EDGE_COMPONENT = st.one_of(
    st.sampled_from([0.0, 1e-160, -1e-160, 1e154, -1e154, 1e200, -1e200,
                     math.nan, math.inf, -math.inf]),
    st.floats(min_value=-1e3, max_value=1e3),
)


# a pair of vectors, two times in three of one length
_VECTOR_PAIR = st.lists(_EDGE_COMPONENT, min_size=1, max_size=5).flatmap(
    lambda u: st.tuples(st.just(u), st.one_of(
        st.lists(_EDGE_COMPONENT, min_size=len(u), max_size=len(u)),
        st.lists(_EDGE_COMPONENT, min_size=len(u), max_size=len(u)),
        st.lists(_EDGE_COMPONENT, min_size=1, max_size=5))))


@settings(max_examples=400, deadline=None)
@given(_VECTOR_PAIR)
@example(([1e-160, 1e-160], [1.0, 0.0]))
@example(([1.0, 0.0], [1e-160, 1e-160]))
@example(([1e154] * 8, [1.0] * 8))
def test_cosine_refuses_exactly_what_a_store_refuses(pair):
    u, v = map(tuple, pair)
    store = EmbeddingStore(len(u), {"a": u, "b": v})
    try:
        store.get("a")
        store.get("b")
    except InvalidVector as refused:
        with pytest.raises(InvalidVector) as exc:
            cosine(u, v)
        assert (exc.value.quote_id, exc.value.reason) == ("", refused.reason)
    else:
        nu, nv = math.sqrt(_squared_norm(u)), math.sqrt(_squared_norm(v))
        assert cosine(u, v) == _cosine(u, nu, v, nv)


def test_a_norm_whose_sum_overflows_is_refused(tmp_path):
    # each square, 1e308, is finite, but math.fsum of the eight overflows
    vec = (1e154,) * 8
    reason = "has a norm outside the float64 range"
    with pytest.raises(InvalidVector, match=f"^vector for 'q1' {reason}$"):
        EmbeddingStore(8, {"q1": vec}).get("q1")
    path = tmp_path / "emb.jsonl"
    path.write_text(json.dumps({"quote_id": "q1", "vector": list(vec)}) + "\n")
    with pytest.raises(ParseError, match=f": line 1: vector for 'q1' {reason}$"):
        load_embeddings(path)
    for a, b in ((vec, (1.0,) * 8), ((1.0,) * 8, vec)):
        with pytest.raises(InvalidVector, match=f"^vector for '' {reason}$"):
            cosine(a, b)


def _similarities(quotes_u, quotes_v, store, tau=0.01):
    return [(p.quote_a, p.quote_b, p.similarity) for p in joint_pairs(quotes_u, quotes_v, store, tau)]


def test_quote_similarity_common_reference():
    store = EmbeddingStore(dim=2, vectors={})
    q = _q("q1", "Same passage")
    assert _similarities({q}, {q}, store) == [("q1", "q1", 1.0)]
    # identical normalized text wins even when stored vectors disagree
    store = EmbeddingStore(
        dim=2, vectors={"q1": np.array([1.0, 0.0]), "q2": np.array([0.0, 1.0])}
    )
    pairs = _similarities({_q("q1", "Same  passage")}, {_q("q2", "same passage")}, store, 1.0)
    assert pairs == [("q1", "q2", 1.0)]


def test_quote_similarity_stored_vectors():
    store = EmbeddingStore(
        dim=4,
        vectors={"q1": np.array([1.0, 0.0, 0.0, 0.0]), "q2": np.array([4.0, 3.0, 0.0, 0.0])},
    )
    assert _similarities({_q("q1", "one")}, {_q("q2", "two")}, store, 0.8) == [("q1", "q2", 0.8)]


def test_quote_similarity_missing_embedding():
    store = EmbeddingStore(dim=2, vectors={"q1": np.array([1.0, 0.0])})
    with pytest.raises(MissingEmbedding):
        joint_pairs({_q("q1", "one")}, {_q("q2", "two")}, store)


@pytest.mark.parametrize("vectors, message", [
    ({"q1": [1.0, 0.0], "q2": [1.0, 0.0, 0.0]}, "vector for 'q2' has 3 components, expected 2"),
    # the store's dim is expected even when both vectors share another length
    ({"q1": [1.0, 1.0, 1.0], "q2": [1.0, 0.0, 0.0]}, "vector for 'q1' has 3 components, expected 2"),
    ({"q1": [1.0, 0.0], "q2": [0.0, 0.0]}, "vector for 'q2' is all zeros"),
    ({"q1": [1.0, 0.0], "q2": [math.nan, 1.0]}, "vector for 'q2' has a non-finite component"),
    ({"q1": [1.0, 0.0], "q2": [1.0, -math.inf]}, "vector for 'q2' has a non-finite component"),
    # not zero: its squared norm underflows
    ({"q1": [1.0, 0.0], "q2": [1e-300, 0.0]}, "vector for 'q2' has a norm outside the float64 range"),
    ({"q1": [1e200, 1e200], "q2": [1.0, 0.0]}, "vector for 'q1' has a norm outside the float64 range"),
], ids=["one-long", "both-long", "zero", "nan", "inf", "tiny", "huge"])
def test_vector_errors_name_the_quote(vectors, message):
    store = EmbeddingStore(dim=2, vectors={qid: tuple(v) for qid, v in vectors.items()})
    with pytest.raises(InvalidVector) as exc:
        joint_pairs({_q("q1", "one")}, {_q("q2", "two")}, store)
    assert str(exc.value) == message


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["alpha beta", "gamma delta", "epsilon"]),
       st.sampled_from(["alpha beta", "zeta eta", "theta"]))
def test_quote_similarity_symmetric(text_a, text_b):
    qa, qb = _q("qa", text_a), _q("qb", text_b)
    store = EmbeddingStore(dim=64, vectors={
        "qa": hash_embed(text_a, 64), "qb": hash_embed(text_b, 64),
    })
    pairs = _similarities({qa}, {qb}, store)
    assert pairs == _similarities({qb}, {qa}, store)
    sim = oracle_quote_similarity(qa, qb, store)
    assert pairs == ([("qa", "qb", sim)] if sim >= 0.01 else [])
    assert _similarities({qa}, {qa}, store) == [("qa", "qa", 1.0)]


def _figure_store() -> EmbeddingStore:
    return EmbeddingStore(
        dim=4,
        vectors={
            "q1": np.array([1.0, 0.0, 0.0, 0.0]),
            "q2": np.array([4.0, 3.0, 0.0, 0.0]),       # cos(q1, q2) = 0.8
            "q3": np.array([0.0, 5.0, 0.0, 0.0]),       # cos(q2, q3) = 0.6
        },
    )


def test_joint_pairs_below_threshold_empty():
    store = _figure_store()
    assert joint_pairs({_q("q2", "b")}, {_q("q3", "c")}, store, 0.8) == []


def test_joint_pairs_self_common_reference():
    store = EmbeddingStore(dim=2, vectors={})
    q = _q("q1", "one")
    pairs = joint_pairs({q}, {q}, store, 0.8)
    assert [(p.quote_a, p.quote_b, p.similarity) for p in pairs] == [("q1", "q1", 1.0)]


def test_joint_pairs_tau_one_keeps_only_common_reference():
    store = EmbeddingStore(
        dim=2,
        vectors={
            "q1": np.array([1.0, 0.0]),
            "q2": np.array([1.0, 0.1]),  # high but below 1.0
            "q3": np.array([1.0, 0.0]),
        },
    )
    qu = {_q("q1", "shared text"), _q("q2", "other")}
    qv = {_q("q3", "Shared text"), _q("q2", "other")}
    pairs = joint_pairs(qu, qv, store, 1.0)
    kept = {(p.quote_a, p.quote_b) for p in pairs}
    assert ("q1", "q3") in kept
    assert all(p.similarity == 1.0 for p in pairs)


def test_joint_pairs_symmetric():
    store = _figure_store()
    qu = {_q("q1", "a"), _q("q2", "b")}
    qv = {_q("q3", "c"), _q("q2", "b")}
    fwd = joint_pairs(qu, qv, store, 0.5)
    rev = joint_pairs(qv, qu, store, 0.5)
    assert fwd == rev


def test_joint_pairs_rejects_bad_tau():
    store = _figure_store()
    with pytest.raises(ValueError):
        joint_pairs({_q("q1", "a")}, {_q("q2", "b")}, store, 0.0)
    with pytest.raises(ValueError):
        joint_pairs({_q("q1", "a")}, {_q("q2", "b")}, store, 1.5)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(["alpha beta", "gamma delta", "epsilon zeta", "eta theta"]),
             min_size=1, max_size=4, unique=True),
    st.lists(st.sampled_from(["alpha beta", "iota kappa", "lambda mu", "eta theta"]),
             min_size=1, max_size=4, unique=True),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.0, max_value=0.05),
)
def test_joint_pairs_threshold_monotone(texts_u, texts_v, tau, bump):
    qu = {_q(f"u{i}", t) for i, t in enumerate(texts_u)}
    qv = {_q(f"v{i}", t) for i, t in enumerate(texts_v)}
    store = EmbeddingStore(
        dim=64, vectors={q.id: hash_embed(q.text, 64) for q in qu | qv}
    )
    loose = {(p.quote_a, p.quote_b) for p in joint_pairs(qu, qv, store, tau)}
    tight = {(p.quote_a, p.quote_b) for p in joint_pairs(qu, qv, store, min(1.0, tau + bump))}
    assert tight <= loose
