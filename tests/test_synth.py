"""Synthetic corpus generation and ground-truth verification."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from aicnet.corpus import save_corpus
from aicnet.errors import InfeasibleParams
from aicnet.semantic import save_embeddings
from aicnet.synth import EdgeDiff, SynthParams, generate, random_params, verify
from aicnet.textpipe import WordSelectionParams, select_cn_words


def test_two_authors_shared_quote():
    params = SynthParams(n_quotes=1, attention_blocks=(("A", "B"),), seed=1)
    corpus, store, gt = generate(params)
    assert gt.expected_an.edges == {("A", "B"): 1.0}
    assert gt.expected_in.edges == {}
    assert verify(corpus, store, gt).passed


def test_double_reply_edge():
    params = SynthParams(
        n_quotes=2, attention_blocks=(("A",), ("B",)),
        reply_edges=(("A", "B"), ("A", "B")), seed=2,
    )
    corpus, store, gt = generate(params)
    assert gt.expected_in.edges == {("A", "B"): 2.0}
    assert verify(corpus, store, gt).passed


def test_blocks_give_exactly_one_edge():
    params = SynthParams(n_quotes=2, attention_blocks=(("A", "B"), ("C",)), seed=3)
    corpus, store, gt = generate(params)
    assert set(gt.expected_an.edges) == {("A", "B")}
    assert verify(corpus, store, gt).passed


def test_vocab_overlap_becomes_cn_edges():
    params = SynthParams(
        n_quotes=3, attention_blocks=(("A",), ("B",), ("C",)),
        vocab_overlap={("A", "B"): 2, ("B", "C"): 1}, seed=4,
    )
    corpus, store, gt = generate(params)
    assert gt.expected_cn_edges == {("A", "B"), ("B", "C")}
    assert verify(corpus, store, gt).passed


def test_same_seed_is_byte_identical(tmp_path):
    params = SynthParams(
        n_quotes=5, attention_blocks=(("A", "B"), ("C", "D")),
        reply_edges=(("A", "C"),), vocab_overlap={("B", "D"): 1}, seed=99,
    )
    paths = []
    for run in (1, 2):
        corpus, store, gt = generate(params)
        cpath = tmp_path / f"c{run}.jsonl"
        epath = tmp_path / f"e{run}.jsonl"
        save_corpus(corpus, cpath)
        save_embeddings(store, epath)
        paths.append((cpath.read_bytes(), epath.read_bytes(), gt))
    assert paths[0][0] == paths[1][0]
    assert paths[0][1] == paths[1][1]
    assert paths[0][2].expected_an.edges == paths[1][2].expected_an.edges


@pytest.mark.parametrize("edit, diffs", [
    # the truth plants A--C, which the built CN lacks
    (lambda edges: edges.add(("A", "C")), [EdgeDiff(("A", "C"), 1.0, None)]),
    # the truth drops A--B, so the built CN holds an extra edge
    (lambda edges: edges.discard(("A", "B")), [EdgeDiff(("A", "B"), None, 2.0)]),
    (lambda edges: edges.symmetric_difference_update({("A", "B"), ("A", "C")}),
     [EdgeDiff(("A", "B"), None, 2.0), EdgeDiff(("A", "C"), 1.0, None)]),
], ids=["missing", "extra", "both"])
def test_verify_diffs_the_cn_by_edge_set(edit, diffs):
    params = SynthParams(
        n_quotes=3, attention_blocks=(("A",), ("B",), ("C",)),
        vocab_overlap={("A", "B"): 2, ("B", "C"): 1}, seed=4,
    )
    corpus, store, gt = generate(params)
    edit(gt.expected_cn_edges)
    report = verify(corpus, store, gt)
    assert report.an_diffs == [] and report.in_diffs == []
    # A--B shares 2 words against a planted 1.0 and is no diff while both sides hold it
    assert report.cn_diffs == diffs
    assert report.summary().splitlines() == [
        f"creation {d.pair[0]}--{d.pair[1]}: expected {d.expected}, got {d.actual}" for d in diffs
    ]


def test_deleting_a_reply_shows_in_diff():
    params = SynthParams(
        n_quotes=1, attention_blocks=(("A", "B"),),
        reply_edges=(("A", "B"), ("A", "B")), seed=5,
    )
    corpus, store, gt = generate(params)
    reading = corpus.readings["r1"]
    replies = [a for a in reading.artifacts if a.kind == "reply"]
    reading.artifacts.remove(replies[-1])

    report = verify(corpus, store, gt)
    assert not report.passed
    assert report.an_diffs == []
    assert len(report.in_diffs) == 1
    diff = report.in_diffs[0]
    assert diff.pair == ("A", "B")
    assert diff.expected == 2.0 and diff.actual == 1.0


def test_lower_threshold_only_adds_edges():
    params = random_params(17)
    corpus, store, gt = generate(params)
    report = verify(corpus, store, gt, tau=0.05)
    missing = [d for d in report.an_diffs if d.actual is None]
    assert missing == []  # every planted edge survives a looser threshold
    weakened = [
        d for d in report.an_diffs
        if d.expected is not None and d.actual is not None and d.actual < d.expected
    ]
    assert weakened == []


@pytest.mark.parametrize("seed", range(30))
def test_random_draws_verify(seed):
    params = random_params(seed)
    corpus, store, gt = generate(params)
    report = verify(corpus, store, gt)
    assert report.passed, report.summary()


def test_generate_respects_custom_word_params():
    params = SynthParams(
        n_quotes=1, attention_blocks=(("A", "B"),),
        vocab_overlap={("A", "B"): 3}, seed=6,
    )
    word_params = WordSelectionParams(min_frequency=4, drop_lowest=2, top_k=10)
    corpus, store, gt = generate(params, word_params)
    assert verify(corpus, store, gt, word_params=word_params).passed


def test_planted_words_score_above_zero_in_a_two_annotation_reading():
    # both annotations hold every planted word, so a third document keeps ln(N / df) > 0
    params = SynthParams(n_quotes=1, attention_blocks=(("A", "B"),),
                         vocab_overlap={("A", "B"): 2}, seed=4)
    corpus, _, gt = generate(params)
    selected = select_cn_words(corpus.readings["r1"])
    assert gt.expected_cn_edges == {("A", "B")}
    assert {s.author_id for s in selected} == {"A", "B"}
    assert all(s.score > 0 for s in selected)


@pytest.mark.parametrize("blocks, reading_id, reason", [
    ((("A", "B"),), "", "empty reading id"),
    ((("A", ""),), "r1", "empty author id"),
], ids=["reading_id", "author_id"])
def test_empty_ids_are_infeasible(blocks, reading_id, reason):
    # a corpus with either id empty would not load
    with pytest.raises(InfeasibleParams, match=reason):
        generate(SynthParams(n_quotes=1, attention_blocks=blocks), reading_id=reading_id)


def test_infeasible_params():
    with pytest.raises(InfeasibleParams, match="need at least 2 authors"):
        generate(SynthParams(n_quotes=1, attention_blocks=(("A",),), seed=0))
    with pytest.raises(InfeasibleParams):
        # two blocks cannot share one quote
        generate(SynthParams(n_quotes=1, attention_blocks=(("A",), ("B",)), seed=0))
    with pytest.raises(InfeasibleParams):
        generate(
            SynthParams(
                n_quotes=1, attention_blocks=(("A", "B"),),
                vocab_overlap={("A", "B"): 200}, seed=0,  # 400 slots > top_k
            )
        )
    with pytest.raises(InfeasibleParams):
        generate(
            SynthParams(
                n_quotes=1, attention_blocks=(("A", "B"),),
                reply_edges=(("A", "Z"),), seed=0,
            )
        )


def test_generated_corpus_round_trips(tmp_path):
    from aicnet.corpus import load_corpus

    params = random_params(23)
    corpus, _, _ = generate(params)
    path = tmp_path / "synth.jsonl"
    save_corpus(corpus, path)
    again = load_corpus(path)
    assert again == corpus


def test_id_prefix_and_reading_id():
    params = SynthParams(n_quotes=1, attention_blocks=(("A", "B"),), seed=7)
    corpus, store, gt = generate(params, reading_id="week3", id_prefix="w3-")
    assert set(corpus.readings) == {"week3"}
    assert all(q.startswith("w3-") for q in corpus.readings["week3"].quotes)
    assert verify(corpus, store, gt, reading_id="week3").passed


def test_generate_hashes_each_text_once(monkeypatch):
    import aicnet.semantic as semantic
    import aicnet.synth as synth

    real = semantic.hash_embed
    hashed: Counter = Counter()

    def counting(text: str, dim: int = 256):
        hashed[text] += 1
        return real(text, dim)

    monkeypatch.setattr(semantic, "hash_embed", counting)
    monkeypatch.setattr(synth, "hash_embed", counting)
    params = SynthParams(
        n_quotes=7,
        attention_blocks=(("s01", "s02"), ("s03", "s04"), ("s05", "s06")), seed=4,
    )
    corpus, store, _ = generate(params)
    quotes = corpus.readings["r1"].quotes.values()
    assert {q.text for q in quotes} <= set(hashed)
    assert max(hashed.values()) == 1
    for q in quotes:
        assert np.array_equal(store.get(q.id), real(q.text, store.dim))
