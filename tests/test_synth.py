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
    report = verify(corpus, store, gt)
    assert report.passed and report.summary() == "ground truth reproduced exactly"


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
    assert gt.expected_cn.edges == {("A", "B"): 2.0, ("B", "C"): 1.0}
    assert gt.expected_cn.nodes == {"A", "B", "C"}
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
    (lambda edges: edges.update({("A", "C"): 1.0}), [EdgeDiff(("A", "C"), 1.0, None)]),
    # the truth drops A--B, so the built CN holds an extra edge
    (lambda edges: edges.pop(("A", "B")), [EdgeDiff(("A", "B"), None, 2.0)]),
    (lambda edges: edges.update({("A", "B"): 1.0}), [EdgeDiff(("A", "B"), 1.0, 2.0)]),
    (lambda edges: edges.update({("A", "C"): 1.0}) or edges.pop(("A", "B")),
     [EdgeDiff(("A", "B"), None, 2.0), EdgeDiff(("A", "C"), 1.0, None)]),
], ids=["missing", "extra", "lighter", "both"])
def test_verify_diffs_the_cn_by_weight(edit, diffs):
    params = SynthParams(
        n_quotes=3, attention_blocks=(("A",), ("B",), ("C",)),
        vocab_overlap={("A", "B"): 2, ("B", "C"): 1}, seed=4,
    )
    corpus, store, gt = generate(params)
    edit(gt.expected_cn.edges)
    report = verify(corpus, store, gt)
    assert report.an_diffs == [] and report.in_diffs == []
    # A--B shares 2 words: against a planted 1.0 it is a diff though both sides hold it
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


@pytest.mark.parametrize("word_params", [
    WordSelectionParams(), WordSelectionParams(1, 0, 70), WordSelectionParams(2, 3, 20),
], ids=["default", "floor1-drop0", "floor2-drop3-top20"])
@pytest.mark.parametrize("tau, dim", [(0.8, 256), (0.3, 8), (0.95, 64)])
def test_random_draws_verify_exactly_across_settings(tau, dim, word_params):
    # every planted weight is reproduced with ==, at any threshold, dimension
    # and word selection the plan is feasible for
    verified = 0
    for seed in range(100, 140):
        try:
            corpus, store, gt = generate(random_params(seed), word_params, tau, dim)
        except InfeasibleParams:
            continue
        report = verify(corpus, store, gt, tau, word_params)
        assert report.passed, f"seed {seed}: {report.summary()}"
        verified += 1
    assert verified >= 20


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
    assert gt.expected_cn.edges == {("A", "B"): 2.0}
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
    with pytest.raises(InfeasibleParams, match="fewer quotes than attention blocks"):
        # two blocks cannot share one quote
        generate(SynthParams(n_quotes=1, attention_blocks=(("A",), ("B",)), seed=0))
    with pytest.raises(InfeasibleParams,
                       match="200 planted words need 400 ranking slots, top_k is "):
        generate(
            SynthParams(
                n_quotes=1, attention_blocks=(("A", "B"),),
                vocab_overlap={("A", "B"): 200}, seed=0,  # 400 slots > top_k
            )
        )
    with pytest.raises(InfeasibleParams,
                       match=r"^reply edge \('A', 'Z'\) names an unknown author$"):
        generate(
            SynthParams(
                n_quotes=1, attention_blocks=(("A", "B"),),
                reply_edges=(("A", "Z"),), seed=0,
            )
        )
    with pytest.raises(InfeasibleParams, match=r"\('A', 'B'\) is given in both orders"):
        # the pair would otherwise plant 2 + 3 words
        generate(SynthParams(n_quotes=1, attention_blocks=(("A", "B"),),
                             vocab_overlap={("A", "B"): 2, ("B", "A"): 3}))


@pytest.mark.parametrize("params, word_params, reason", [
    (SynthParams(1, (("A", "B"), ())), WordSelectionParams(), "empty attention block"),
    (SynthParams(2, (("A", "B"), ("B",))), WordSelectionParams(),
     "author 'B' appears in two blocks"),
    (SynthParams(0, (("A", "B"),)), WordSelectionParams(), "need at least 1 quote"),
    (SynthParams(1, (("A", "B"),), vocab_overlap={("Z", "A"): 1}), WordSelectionParams(),
     r"vocab overlap \('Z', 'A'\) names an unknown author"),
    (SynthParams(1, (("A", "B"),), vocab_overlap={("A", "A"): 1}), WordSelectionParams(),
     "vocab overlap on a single author 'A'"),
    (SynthParams(1, (("A", "B"),), vocab_overlap={("A", "B"): -1}), WordSelectionParams(),
     "negative vocab overlap"),
    (SynthParams(1, (("A", "B"),)), WordSelectionParams(drop_lowest=5000),
     "word demand exceeds the bundled lexicon"),
], ids=["empty_block", "two_blocks", "no_quotes", "overlap_unknown_author",
        "overlap_one_author", "negative_overlap", "lexicon"])
def test_each_infeasible_plan_names_its_fault(params, word_params, reason):
    with pytest.raises(InfeasibleParams, match=f"^{reason}$"):
        generate(params, word_params)


def test_verify_needs_a_reading_id_for_two_readings():
    params = SynthParams(n_quotes=1, attention_blocks=(("A", "B"),), seed=7)
    corpus, store, gt = generate(params)
    other, _, _ = generate(params, reading_id="r2", id_prefix="b-")
    corpus.readings.update(other.readings)
    with pytest.raises(ValueError, match="^reading_id required for multi-reading corpora$"):
        verify(corpus, store, gt)
    assert verify(corpus, store, gt, reading_id="r1").passed


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


def test_block_texts_skips_a_repeated_draw_unhashed_then_gives_up(monkeypatch):
    import random

    import aicnet.synth as synth

    real = synth.hash_embed
    hashed: Counter = Counter()

    def counting(text: str, dim: int = 256):
        hashed[text] += 1
        return real(text, dim)

    monkeypatch.setattr(synth, "hash_embed", counting)
    # the pool draws one text only: the first block takes it, the second never draws another
    with pytest.raises(InfeasibleParams) as exc:
        synth._block_texts(2, random.Random(0), ["a"] * 8, 0.8, 256)
    assert str(exc.value) == "could not draw quote texts below the similarity threshold"
    assert hashed == Counter({"a a a a a a a a": 1})


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
