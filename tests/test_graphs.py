"""Network builders: attention, interaction, creation, and graph utilities."""

from __future__ import annotations

import math
from collections import Counter
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aicnet.graphs import (
    BipartiteGraph,
    WeightedGraph,
    attention_quotes,
    build_an,
    build_cn_bipartite,
    build_in,
    project,
)
from aicnet.corpus import Quote, load_corpus, thread_roots
from aicnet.errors import (
    AicnetError,
    DanglingParent,
    InvalidVector,
    MissingEmbedding,
    MissingQuote,
)
from aicnet.semantic import (
    EmbeddingStore,
    _cosine,
    _squared_norm,
    _surely_below,
    embed_quotes,
    joint_pairs,
)
from aicnet.synth import SynthParams, generate, random_params
from aicnet.textpipe import WordSelectionParams

from conftest import BROKEN_CHAIN_ROOTS, broken_chain_corpus, mk_corpus
from oracles import (
    oracle_attention_quotes,
    oracle_build_an,
    oracle_joint_pairs,
    oracle_project,
    oracle_quote_similarity,
)

DATA = Path(__file__).parent / "data"


def _figure_corpus():
    """Three authors, one quote each; q1-q2 cosine exactly 0.8, q2-q3 0.5."""
    corpus = mk_corpus(
        quotes=[("q1", "r1", "first passage"), ("q2", "r1", "second passage"),
                ("q3", "r1", "third passage")],
        annotations=[
            ("a1", "r1", "A", "q1", "a note"),
            ("a2", "r1", "B", "q2", "b note"),
            ("a3", "r1", "C", "q3", "c note"),
        ],
    )
    store = EmbeddingStore(
        dim=4,
        vectors={
            "q1": np.array([1.0, 0.0, 0.0, 0.0]),
            "q2": np.array([4.0, 3.0, 0.0, 0.0]),
            "q3": np.array([0.4, 0.3, np.sqrt(0.75), 0.0]),
        },
    )
    return corpus, store


def test_weighted_graph_rejects_bad_edges():
    g = WeightedGraph()
    with pytest.raises(ValueError):
        g.add_edge("a", "a", 1.0)
    with pytest.raises(ValueError):
        g.add_edge("a", "b", 0.0)


@pytest.mark.parametrize("tau", [0.0, -0.5, 1.5, math.nan])
def test_build_an_refuses_a_threshold_outside_the_unit_interval(tau):
    corpus, store = _figure_corpus()
    with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\]"):
        build_an(corpus.readings["r1"], corpus, store, tau)


def test_attention_quotes_annotation():
    corpus, _ = _figure_corpus()
    reading = corpus.readings["r1"]
    assert {q.id for q in attention_quotes("A", reading, corpus)} == {"q1"}


def test_attention_quotes_reply_resolves_to_root():
    corpus = mk_corpus(
        quotes=[("q2", "r1", "passage")],
        annotations=[("a1", "r1", "A", "q2", "note")],
        replies=[("rep1", "r1", "B", "a1", "reply"),
                 ("rep2", "r1", "C", "rep1", "nested reply")],
    )
    reading = corpus.readings["r1"]
    assert {q.id for q in attention_quotes("B", reading, corpus)} == {"q2"}
    assert {q.id for q in attention_quotes("C", reading, corpus)} == {"q2"}
    assert attention_quotes("nobody", reading, corpus) == set()


def test_attention_quotes_deduplicates():
    corpus = mk_corpus(
        quotes=[("q1", "r1", "p")],
        annotations=[("a1", "r1", "A", "q1", "x"), ("a2", "r1", "A", "q1", "y")],
    )
    assert {q.id for q in attention_quotes("A", corpus.readings["r1"], corpus)} == {"q1"}


def _first_broken(artifacts):
    return next(w for w in (BROKEN_CHAIN_ROOTS[a.id] for a in artifacts) if not isinstance(w, str))


def test_attention_quotes_raises_only_for_own_broken_chains():
    corpus = broken_chain_corpus()
    reading = corpus.readings["r1"]
    for author in sorted(corpus.authors):
        own = [a for a in reading.artifacts if a.author_id == author]
        if all(isinstance(BROKEN_CHAIN_ROOTS[a.id], str) for a in own):
            roots = [reading.artifact_by_id(BROKEN_CHAIN_ROOTS[a.id]) for a in own]
            want = {reading.quotes[root.quote_id] for root in roots}
            assert attention_quotes(author, reading, corpus) == want
            continue
        error, artifact_id = _first_broken(own)
        with pytest.raises(error) as exc:
            attention_quotes(author, reading, corpus)
        assert exc.value.artifact_id == artifact_id


def test_a_thread_whose_quote_is_missing_raises_missing_quote():
    # s3 annotates a quote the reading lacks, and C replies in s3's thread
    corpus = mk_corpus(
        quotes=[("q1", "r1", "first passage")],
        annotations=[("a1", "r1", "A", "q1", "note"), ("s3", "r1", "B", "ghost", "note")],
        replies=[("p1", "r1", "C", "s3", "reply")],
    )
    reading = corpus.readings["r1"]
    store = embed_quotes(reading.quotes.values(), 16)
    assert {q.id for q in attention_quotes("A", reading, corpus)} == {"q1"}
    for author in ("B", "C"):
        with pytest.raises(MissingQuote) as got:
            attention_quotes(author, reading, corpus)
        with pytest.raises(MissingQuote) as want:
            oracle_attention_quotes(author, reading)
        assert got.value.artifact_id == want.value.artifact_id == "s3"
    with pytest.raises(MissingQuote) as got:
        build_an(reading, corpus, store)
    with pytest.raises(MissingQuote) as want:
        oracle_build_an(reading, corpus, store)
    assert got.value.artifact_id == want.value.artifact_id == "s3"


def test_build_an_raises_first_broken_chain_in_reading_order():
    corpus = broken_chain_corpus()
    reading = corpus.readings["r1"]
    store = embed_quotes(reading.quotes.values(), 16)
    artifacts = list(reading.artifacts)
    for shift in range(len(artifacts)):
        reading.artifacts = artifacts[shift:] + artifacts[:shift]
        error, artifact_id = _first_broken(reading.artifacts)
        with pytest.raises(error) as exc:
            build_an(reading, corpus, store)
        assert exc.value.artifact_id == artifact_id


def test_thread_roots_runs_once_per_reading(monkeypatch):
    import aicnet.corpus as corpus_mod
    import aicnet.graphs as graphs

    calls = []

    def counting(reading):
        calls.append(reading.id)
        return thread_roots(reading)

    monkeypatch.setattr(corpus_mod, "thread_roots", counting)
    monkeypatch.setattr(graphs, "thread_roots", counting)
    corpus = load_corpus(DATA / "sample_corpus.jsonl")
    assert sorted(calls) == sorted(corpus.readings) == ["r1", "r2"]
    for reading in corpus.readings.values():
        calls.clear()
        build_an(reading, corpus, embed_quotes(reading.quotes.values(), 16))
        assert calls == [reading.id]


def test_build_an_figure_construction():
    corpus, store = _figure_corpus()
    g = build_an(corpus.readings["r1"], corpus, store, 0.8)
    assert g.nodes == {"A", "B", "C"}
    assert set(g.edges) == {("A", "B")}
    assert g.edges[("A", "B")] == pytest.approx(0.8, abs=1e-9)
    assert ("B", "C") not in g.edges  # 0.5 < 0.8
    assert g.degree("C") == 0


def test_build_an_sums_joint_pair_similarities():
    corpus = mk_corpus(
        quotes=[("q1", "r1", "shared passage"), ("q2", "r1", "second"), ("q3", "r1", "third")],
        annotations=[
            ("a1", "r1", "A", "q1", "x"), ("a2", "r1", "A", "q2", "y"),
            ("a3", "r1", "B", "q1", "z"), ("a4", "r1", "B", "q3", "w"),
        ],
    )
    store = EmbeddingStore(
        dim=4,
        vectors={
            "q1": np.array([0.0, 0.0, 0.0, 1.0]),
            "q2": np.array([1.0, 0.0, 0.0, 0.0]),
            "q3": np.array([9.0, np.sqrt(19.0), 0.0, 0.0]),  # cos(q2, q3) = 0.9
        },
    )
    g = build_an(corpus.readings["r1"], corpus, store, 0.8)
    # common quote contributes 1.0, the 0.9 pair adds on top
    assert g.edges[("A", "B")] == pytest.approx(1.9, abs=1e-9)


def test_build_an_identical_texts_contribute_once():
    corpus = mk_corpus(
        quotes=[("q1", "r1", "same text"), ("q2", "r1", "Same  TEXT")],
        annotations=[
            ("a1", "r1", "A", "q1", "x"), ("a2", "r1", "A", "q2", "y"),
            ("a3", "r1", "B", "q1", "z"), ("a4", "r1", "B", "q2", "w"),
        ],
    )
    store = EmbeddingStore(dim=4, vectors={})  # never consulted: all common references
    g = build_an(corpus.readings["r1"], corpus, store, 0.8)
    assert g.edges[("A", "B")] == 1.0


def test_build_in_no_replies():
    corpus, _ = _figure_corpus()
    g = build_in(corpus.readings["r1"], corpus)
    assert g.nodes == {"A", "B", "C"}
    assert g.edges == {}


def test_build_in_counts_events():
    corpus = mk_corpus(
        quotes=[("q1", "r1", "p")],
        annotations=[("a1", "r1", "A", "q1", "x")],
        replies=[("rep1", "r1", "B", "a1", "one"), ("rep2", "r1", "B", "a1", "two")],
    )
    g = build_in(corpus.readings["r1"], corpus)
    assert g.edges == {("A", "B"): 2.0}


def test_build_in_discards_self_replies():
    corpus = mk_corpus(
        quotes=[("q1", "r1", "p")],
        annotations=[("a1", "r1", "A", "q1", "x")],
        replies=[("rep1", "r1", "A", "a1", "self")],
    )
    g = build_in(corpus.readings["r1"], corpus)
    assert g.edges == {}
    assert g.nodes == {"A"}


def test_build_in_events_between_replies():
    corpus = mk_corpus(
        quotes=[("q1", "r1", "p")],
        annotations=[("a1", "r1", "A", "q1", "x")],
        replies=[("rep1", "r1", "B", "a1", "r"), ("rep2", "r1", "C", "rep1", "rr")],
    )
    g = build_in(corpus.readings["r1"], corpus)
    # the nested reply is an event with the reply's author, not the root's
    assert g.edges == {("A", "B"): 1.0, ("B", "C"): 1.0}


def test_build_in_names_a_reply_whose_parent_is_missing():
    corpus = mk_corpus(
        quotes=[("q1", "r1", "p")],
        annotations=[("a1", "r1", "A", "q1", "x")],
        replies=[("rep1", "r1", "B", "ghost", "r")],
    )
    reading = corpus.readings["r1"]
    with pytest.raises(DanglingParent) as exc:
        build_in(reading, corpus)
    assert exc.value.artifact_id == "rep1"
    with pytest.raises(DanglingParent):
        build_an(reading, corpus, embed_quotes(reading.quotes.values()))


def _cn_corpus():
    return mk_corpus(
        quotes=[("q1", "r1", "p"), ("q2", "r1", "p2")],
        annotations=[
            ("d1", "r1", "A", "q1", "pedagogy pedagogy pedagogy music"),
            ("d2", "r1", "B", "q2", "pedagogy pedagogy pedagogy rhythm"),
            ("d3", "r1", "C", "q1", "costume costume costume costume costume"),
        ],
    )


def test_build_cn_bipartite_maps_selection():
    corpus = _cn_corpus()
    params = WordSelectionParams(min_frequency=5, drop_lowest=0, top_k=70)
    bg = build_cn_bipartite(corpus.readings["r1"], corpus, params)
    assert bg.author_nodes == {"A", "B", "C"}
    assert bg.edges == {("A", "pedagogy"), ("B", "pedagogy"), ("C", "costume")}


def test_build_cn_bipartite_empty_selection():
    corpus = mk_corpus(
        quotes=[("q1", "r1", "p")],
        annotations=[("d1", "r1", "A", "q1", "ballet once only")],
    )
    bg = build_cn_bipartite(corpus.readings["r1"], corpus)
    assert bg.edges == set()
    assert bg.author_nodes == {"A"}


def test_project_shared_and_disjoint():
    bg = BipartiteGraph(
        author_nodes={"A", "B", "C"},
        edges={("A", "x"), ("A", "y"), ("B", "y"), ("B", "z"), ("C", "z")},
    )
    g = project(bg)
    assert g.edges == {("A", "B"): 1.0, ("B", "C"): 1.0}


def test_project_full_overlap():
    bg = BipartiteGraph(
        author_nodes={"A", "B"},
        edges={(a, w) for a in ("A", "B") for w in ("x", "y", "z")},
    )
    g = project(bg)
    assert g.edges == {("A", "B"): 3.0}


# -- properties ----------------------------------------------------------------

_TEXTS = [
    "the dancers rehearse nightly",
    "a history of classical ballet",
    "rhythm and movement on stage",
    "costume design for the theater",
    "music theory and composition",
]


@st.composite
def an_corpora(draw):
    n_authors = draw(st.integers(2, 5))
    rows = []
    quotes = {}
    for i in range(draw(st.integers(2, 8))):
        text = draw(st.sampled_from(_TEXTS))
        quotes[f"q{i}"] = ("r1", text)
    qids = sorted(quotes)
    for j in range(draw(st.integers(1, 10))):
        author = f"s{draw(st.integers(1, n_authors))}"
        rows.append((f"a{j}", "r1", author, draw(st.sampled_from(qids)), "note text"))
    corpus = mk_corpus(
        quotes=[(qid, rid, text) for qid, (rid, text) in quotes.items()],
        annotations=rows,
    )
    return corpus


@settings(max_examples=30, deadline=None)
@given(an_corpora())
def test_an_threshold_monotonicity(corpus):
    reading = corpus.readings["r1"]
    store = embed_quotes(reading.quotes.values(), 64)
    taus = [0.5, 0.7, 0.9, 1.0]
    graphs = [build_an(reading, corpus, store, t) for t in taus]
    for loose, tight in zip(graphs, graphs[1:]):
        assert set(tight.edges) <= set(loose.edges)
        for pair, w in tight.edges.items():
            assert w <= loose.edges[pair] + 1e-12
    for g, tau in zip(graphs, taus):
        for w in g.edges.values():
            assert w >= tau - 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=12))
def test_in_total_weight_counts_events(pairs):
    annotations = [(f"a{i}", "r1", f"s{i}", "q1", "note") for i in range(1, 5)]
    replies = [
        (f"rep{j}", "r1", f"s{y}", f"a{x}", "reply") for j, (x, y) in enumerate(pairs)
    ]
    corpus = mk_corpus(quotes=[("q1", "r1", "t")], annotations=annotations, replies=replies)
    g = build_in(corpus.readings["r1"], corpus)
    non_self = sum(1 for x, y in pairs if x != y)
    assert sum(g.edges.values()) == pytest.approx(non_self)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.tuples(st.sampled_from("ABCD"), st.sampled_from("vwxyz")), max_size=16))
def test_project_matches_common_neighbor_count(edges):
    bg = BipartiteGraph(author_nodes={a for a, _ in edges} | {"A"}, edges=set(edges))
    g = project(bg)
    authors = sorted(bg.author_nodes)
    words = {w for _, w in edges}
    for i, u in enumerate(authors):
        for v in authors[i + 1 :]:
            count = sum(1 for w in words if (u, w) in bg.edges and (v, w) in bg.edges)
            assert g.edges.get((u, v), 0) == count


@st.composite
def bipartite_graphs(draw):
    """Author-word graphs whose edges may name authors outside author_nodes."""
    authors = draw(st.sets(st.sampled_from("ABCDEFG"), max_size=7))
    edges = draw(st.sets(st.tuples(st.sampled_from("ABCDEFGX"),
                                   st.sampled_from(["v", "w", "x", "y", "z", "zz"])),
                         max_size=30))
    return BipartiteGraph(author_nodes=authors, edges=edges)


@settings(max_examples=300, deadline=None)
@given(bipartite_graphs())
def test_project_equals_author_pair_oracle(bg):
    got, want = project(bg), oracle_project(bg)
    assert got.nodes == want.nodes
    assert list(got.edges.items()) == list(want.edges.items())  # same insertion order


def test_builders_insensitive_to_artifact_order():
    corpus = mk_corpus(
        quotes=[("q1", "r1", "text one"), ("q2", "r1", "text two")],
        annotations=[
            ("a1", "r1", "A", "q1", "pedagogy pedagogy pedagogy rhythm rhythm"),
            ("a2", "r1", "B", "q2", "pedagogy pedagogy rhythm rhythm rhythm"),
        ],
        replies=[("rep1", "r1", "B", "a1", "reply")],
    )
    reading = corpus.readings["r1"]
    store = embed_quotes(reading.quotes.values(), 64)
    params = WordSelectionParams(min_frequency=5, drop_lowest=0, top_k=70)

    before = (
        build_an(reading, corpus, store, 0.8),
        build_in(reading, corpus),
        project(build_cn_bipartite(reading, corpus, params)),
    )
    reading.artifacts.reverse()
    after = (
        build_an(reading, corpus, store, 0.8),
        build_in(reading, corpus),
        project(build_cn_bipartite(reading, corpus, params)),
    )
    for g1, g2 in zip(before, after):
        assert g1.nodes == g2.nodes
        assert g1.edges == g2.edges


# -- one-pass attention network against the pairwise oracle -------------------

_AN_TEXTS = ["alpha beta", "Alpha  BETA", " alpha beta\n", "gamma", "delta epsilon", "zeta"]


def _planted(base: np.ndarray, cos: float, seed: int) -> np.ndarray:
    """A vector whose cosine with ``base`` is ``cos`` up to rounding."""
    u = base / np.linalg.norm(base)
    w = np.random.default_rng(seed).standard_normal(base.shape[0])
    w -= (w @ u) * u
    w /= np.linalg.norm(w)
    return cos * u + np.sqrt(max(0.0, 1.0 - cos * cos)) * w


@st.composite
def an_readings(draw):
    """A reading with twinned texts under different ids, deep reply threads,
    and vectors planted at tau +- 1e-16 and +- 1e-12 with non-unit lengths."""
    tau = draw(st.sampled_from([0.5, 0.8, 1.0]))
    n_quotes = draw(st.integers(1, 7))
    quotes, vectors = [], {}
    for i in range(n_quotes):
        qid = f"q{i}"
        quotes.append((qid, "r1", draw(st.sampled_from(_AN_TEXTS))))
        if i and draw(st.booleans()):
            base = vectors[f"q{draw(st.integers(0, i - 1))}"]
            delta = draw(st.sampled_from([-1e-12, -1e-16, 0.0, 1e-16, 1e-12]))
            vec = _planted(base, min(1.0, tau + delta), draw(st.integers(0, 2**16)))
        else:
            vec = np.array(draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4)), dtype=float)
            vec[0] += not vec.any()
        vectors[qid] = vec * draw(st.sampled_from([1.0, 0.3, 7.0]))

    authors = [f"s{i}" for i in range(draw(st.integers(1, 6)))]
    annotations, replies, ids = [], [], []
    for j in range(draw(st.integers(1, 14))):
        aid, author = f"a{j}", draw(st.sampled_from(authors))
        if not ids or draw(st.integers(0, 2)) == 0:
            annotations.append((aid, "r1", author, f"q{draw(st.integers(0, n_quotes - 1))}", "note"))
        else:
            # half of the replies extend the newest artifact, so threads grow deep
            parent = ids[-1] if draw(st.booleans()) else draw(st.sampled_from(ids))
            replies.append((aid, "r1", author, parent, "reply"))
        ids.append(aid)
    corpus = mk_corpus(quotes=quotes, annotations=annotations, replies=replies)
    return corpus, EmbeddingStore(dim=4, vectors=vectors), tau


@settings(max_examples=300, deadline=None)
@given(an_readings())
def test_build_an_equals_pairwise_oracle(case):
    corpus, store, tau = case
    reading = corpus.readings["r1"]
    got = build_an(reading, corpus, store, tau)
    want = oracle_build_an(reading, corpus, store, tau)
    assert got.nodes == want.nodes
    assert got.edges == want.edges  # exact floats, no tolerance
    assert list(got.edges) == list(want.edges)  # and the same edge order


@settings(max_examples=400, deadline=None)
@given(dim=st.integers(8, 384), seed=st.integers(0, 2**16),
       tau=st.one_of(st.just(1.0), st.just(0.8), st.floats(0.01, 1.0)),
       offset=st.one_of(st.just(0.0), st.sampled_from([-4e-16, -2e-16, 2e-16, 4e-16]),
                        st.floats(-2e-9, 2e-9), st.floats(-2.0, 0.0)),
       scale_u=st.integers(-150, 150), scale_v=st.integers(-150, 150))
@example(dim=256, seed=1, tau=1.0, offset=5e-10, scale_u=0, scale_v=0)  # snaps to 1.0
@example(dim=384, seed=2, tau=0.8, offset=0.0, scale_u=-150, scale_v=-140)
def test_surely_below_rejects_only_pairs_cosine_puts_below_tau(dim, seed, tau, offset, scale_u,
                                                               scale_v):
    # the cosine is planted at the cut (tau, or where _cosine starts to snap
    # to 1.0) plus an offset, up to rounding; the norms are 10**scale apart
    cos = max(-1.0, min(1.0, min(tau, 1.0 - 1e-9) + offset))
    base = np.random.default_rng(seed).standard_normal(dim)
    v = _planted(base, cos, seed + 1)
    store = EmbeddingStore(dim, {"u": tuple((base * 10.0**scale_u).tolist()),
                                 "v": tuple((v * 10.0**scale_v).tolist())})
    u, v = store.get("u"), store.get("v")
    nu, nv = math.sqrt(_squared_norm(u)), math.sqrt(_squared_norm(v))
    if _surely_below(u, nu, v, nv, tau):
        assert _cosine(u, nu, v, nv) < tau


def test_surely_below_rejects_a_far_pair_and_keeps_twins():
    base = np.random.default_rng(0).standard_normal(256)
    u = tuple(base.tolist())
    far = tuple(_planted(base, 0.5, 1).tolist())
    nu, nf = math.sqrt(_squared_norm(u)), math.sqrt(_squared_norm(far))
    assert _surely_below(u, nu, far, nf, 0.8)
    assert not _surely_below(u, nu, far, nf, 0.4)
    assert not _surely_below(u, nu, u, nu, 1.0)


def test_build_an_weight_is_the_fsum_of_its_similarities():
    # B's quote pairs with each of A's three; every order of A's quote ids puts
    # the three similarities in another order, and a left-to-right float sum
    # depends on it
    vectors = [[3.0, 4.0, 1.0, 1.0], [2.0, 1.0, 0.0, -1.0], [4.0, 2.0, 1.0, -1.0]]
    weights = set()
    for order in permutations(vectors):
        corpus = mk_corpus(
            quotes=[("q0", "r1", "zero"), ("q1", "r1", "one"), ("q2", "r1", "two"),
                    ("q3", "r1", "three")],
            annotations=[("a0", "r1", "B", "q0", "w"), ("a1", "r1", "A", "q1", "x"),
                         ("a2", "r1", "A", "q2", "y"), ("a3", "r1", "A", "q3", "z")],
        )
        store = EmbeddingStore(dim=4, vectors={"q0": [1.0, 0.0, 0.0, 0.0],
                                               **{f"q{i}": v for i, v in enumerate(order, 1)}})
        reading = corpus.readings["r1"]
        q = reading.quotes
        sims = [oracle_quote_similarity(q["q0"], q[qid], store) for qid in ("q1", "q2", "q3")]
        g = build_an(reading, corpus, store, 0.5)
        assert g.edges == {("A", "B"): math.fsum(sims)}
        assert g.edges == oracle_build_an(reading, corpus, store, 0.5).edges
        weights.add(g.edges[("A", "B")])
    assert len(weights) == 1


def _two_author_corpus():
    return mk_corpus(
        quotes=[("q1", "r1", "first passage"), ("q2", "r1", "second passage")],
        annotations=[("a1", "r1", "A", "q1", "x"), ("a2", "r1", "B", "q2", "y")],
    )


def _outcome(build, reading, corpus, store, tau):
    """The graph's nodes and edges in order, or the class of the input error."""
    try:
        g = build(reading, corpus, store, tau)
    except AicnetError as exc:
        return type(exc)
    return g.nodes, list(g.edges.items())


@settings(max_examples=300, deadline=None)
@given(an_readings(), st.data())
def test_build_an_with_one_defective_vector_equals_oracle(case, data):
    corpus, store, tau = case
    reading = corpus.readings["r1"]
    qid = data.draw(st.sampled_from(sorted(store.vectors)))
    defect = data.draw(st.sampled_from(["missing", "zero", "short"]))
    vectors = dict(store.vectors)
    if defect == "missing":
        del vectors[qid]
    else:
        vectors[qid] = np.zeros(4) if defect == "zero" else vectors[qid][:3]
    store = EmbeddingStore(dim=4, vectors=vectors)
    # a zero norm reaching the division would raise ZeroDivisionError, no input error
    got = _outcome(build_an, reading, corpus, store, tau)
    assert got == _outcome(oracle_build_an, reading, corpus, store, tau)


@st.composite
def quote_set_pairs(draw):
    """Two quote sets drawn, with repeats, from up to six quotes of twinned
    texts, with vectors as in :func:`an_readings`, and at most one of them
    missing, zero, short or NaN."""
    tau = draw(st.sampled_from([0.5, 0.8, 1.0]))
    quotes, vectors = [], {}
    for i in range(draw(st.integers(1, 6))):
        qid = f"q{i}"
        quotes.append(Quote(id=qid, reading_id="r1", text=draw(st.sampled_from(_AN_TEXTS))))
        if i and draw(st.booleans()):
            base = np.array(vectors[f"q{draw(st.integers(0, i - 1))}"])
            delta = draw(st.sampled_from([-1e-12, -1e-16, 0.0, 1e-16, 1e-12]))
            vec = _planted(base, min(1.0, tau + delta), draw(st.integers(0, 2**16)))
        else:
            vec = np.array(draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4)), dtype=float)
            vec[0] += not vec.any()
        vectors[qid] = tuple((vec * draw(st.sampled_from([1.0, 0.3, 7.0]))).tolist())
    qid = draw(st.sampled_from(sorted(vectors)))
    defect = draw(st.sampled_from(["none", "missing", "zero", "short", "nan"]))
    if defect == "missing":
        del vectors[qid]
    elif defect != "none":
        vectors[qid] = {"zero": (0.0,) * 4, "short": vectors[qid][:3],
                        "nan": (math.nan,) + vectors[qid][1:]}[defect]
    side = st.lists(st.sampled_from(quotes), max_size=6)
    return draw(side), draw(side), EmbeddingStore(dim=4, vectors=vectors), tau


def _pairs_or_error(pairs, quotes_u, quotes_v, store, tau):
    """The joint pairs as (a, b, similarity) triples, or the class of the input error."""
    try:
        return [(p.quote_a, p.quote_b, p.similarity) for p in pairs(quotes_u, quotes_v, store, tau)]
    except AicnetError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(quote_set_pairs())
def test_joint_pairs_equals_pairwise_oracle(case):
    got = _pairs_or_error(joint_pairs, *case)
    assert got == _pairs_or_error(oracle_joint_pairs, *case)  # exact floats, same order


def test_joint_pairs_keeps_only_pairs_across_the_sets():
    # q1 and q2 are twins that u alone holds; only q3 is v's
    q1, q2, q3 = (Quote(id=f"q{i}", reading_id="r1", text=t)
                  for i, t in enumerate(["alpha", "Alpha", "gamma"], 1))
    store = EmbeddingStore(dim=2, vectors={"q1": (1.0, 0.0), "q2": (1.0, 0.0), "q3": (0.0, 1.0)})
    assert joint_pairs([q1, q2], [q3], store, 0.5) == []
    assert joint_pairs([q1, q2], [q2, q3], store, 0.5) == oracle_joint_pairs([q1, q2], [q2, q3],
                                                                             store, 0.5)
    assert [(p.quote_a, p.quote_b) for p in joint_pairs([q1, q2], [q2, q3], store, 0.5)] == [
        ("q1", "q2"), ("q2", "q2")]


def test_joint_pairs_pairs_a_quote_with_itself_only_in_both_sets():
    q1, q2 = Quote("q1", "r1", "alpha"), Quote("q2", "r1", "gamma")
    store = EmbeddingStore(dim=2, vectors={"q1": (1.0, 0.0), "q2": (0.0, 1.0)})
    assert joint_pairs([q1], [q2], store, 0.5) == []
    assert [(p.quote_a, p.quote_b, p.similarity) for p in joint_pairs([q1, q2], [q1], store, 0.5)] \
        == [("q1", "q1", 1.0)]


@pytest.mark.parametrize("vectors, error", [
    ({"q1": np.array([1.0, 0.0])}, MissingEmbedding),
    ({"q1": np.array([1.0, 0.0]), "q2": np.zeros(2)}, InvalidVector),
    ({"q1": np.array([1.0, 0.0]), "q2": np.array([1.0, 0.0, 0.0])}, InvalidVector),
])
def test_build_an_vector_errors_match_oracle(vectors, error):
    corpus = _two_author_corpus()
    reading = corpus.readings["r1"]
    store = EmbeddingStore(dim=2, vectors=vectors)
    with pytest.raises(error):
        oracle_build_an(reading, corpus, store, 0.8)
    with pytest.raises(error):
        build_an(reading, corpus, store, 0.8)


@pytest.mark.parametrize("vector", [[math.nan, 1.0], [1.0, math.inf], [1e-300, 0.0],
                                    [1e200, -1e200]], ids=["nan", "inf", "tiny", "huge"])
def test_build_an_names_the_quote_of_a_refused_vector_as_the_oracle_does(vector):
    corpus = _two_author_corpus()
    reading = corpus.readings["r1"]
    store = EmbeddingStore(dim=2, vectors={"q1": [1.0, 0.0], "q2": vector})
    with pytest.raises(InvalidVector) as want:
        oracle_build_an(reading, corpus, store, 0.8)
    with pytest.raises(InvalidVector) as got:
        build_an(reading, corpus, store, 0.8)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("vector for 'q2' has a ")


def test_build_an_reads_no_vector_the_oracle_skips():
    # one active author's quotes never meet another author's quotes
    corpus = mk_corpus(
        quotes=[("q1", "r1", "first passage"), ("q2", "r1", "second passage")],
        annotations=[("a1", "r1", "A", "q1", "x"), ("a2", "r1", "A", "q2", "y")],
    )
    reading = corpus.readings["r1"]
    store = EmbeddingStore(dim=2, vectors={})
    want = oracle_build_an(reading, corpus, store, 0.8)
    got = build_an(reading, corpus, store, 0.8)
    assert (got.nodes, got.edges) == (want.nodes, want.edges) == ({"A"}, {})


def test_build_an_reading_without_artifacts_is_empty():
    corpus = mk_corpus(quotes=[("q1", "r1", "first passage")], annotations=[])
    g = build_an(corpus.readings["r1"], corpus, EmbeddingStore(dim=0, vectors={}), 0.8)
    assert (g.nodes, g.edges) == (set(), {})


def test_build_an_compares_each_quote_pair_once(monkeypatch):
    import aicnet.semantic as semantic

    params = SynthParams(
        n_quotes=10,
        attention_blocks=tuple(tuple(f"a{i:02d}" for i in range(b, b + 4)) for b in range(1, 25, 4)),
        seed=3,
    )
    corpus, hashed, gt = generate(params)
    reading = corpus.readings["r1"]
    # one vector object per quote id, so that a vector names its quote even
    # where twin texts share one hash vector
    store = EmbeddingStore(hashed.dim, {qid: list(v) for qid, v in hashed.vectors.items()})
    quote_of = {id(v): qid for qid, v in store.vectors.items()}
    tested: list[Counter] = []  # per build, the pairs put to the distance test
    scored: list[Counter] = []  # and those scored by _cosine
    jp_calls = []
    surely_below = semantic._surely_below

    def counting_test(u, nu, v, nv, tau):
        tested[-1][frozenset((quote_of[id(u)], quote_of[id(v)]))] += 1
        return surely_below(u, nu, v, nv, tau)

    def counting_cosine(u, nu, v, nv):
        scored[-1][frozenset((quote_of[id(u)], quote_of[id(v)]))] += 1
        return _cosine(u, nu, v, nv)

    def counting_joint_pairs(*args, **kwargs):
        jp_calls.append(args)
        return joint_pairs(*args, **kwargs)

    monkeypatch.setattr(semantic, "_surely_below", counting_test)
    monkeypatch.setattr(semantic, "_cosine", counting_cosine)
    monkeypatch.setattr(semantic, "joint_pairs", counting_joint_pairs)
    assert len(reading.active_authors()) >= 20
    # the different-text pairs of attended quotes that two authors hold
    # (one quote per text and author, the smallest id)
    held: dict[str, dict[str, str]] = {}
    for author in reading.active_authors():
        for quote in sorted(attention_quotes(author, reading, corpus), key=lambda q: q.id):
            held.setdefault(author, {}).setdefault(quote.normalized_text, quote.id)
    holders: dict[str, set[str]] = {}
    for author, by_text in held.items():
        for qid in by_text.values():
            holders.setdefault(qid, set()).add(author)
    texts = {qid: reading.quotes[qid].normalized_text for qid in holders}
    expected = {frozenset((p, q)) for p in holders for q in holders
                if texts[p] != texts[q] and len(holders[p] | holders[q]) > 1}
    builds = {}
    for tau in (0.8, 0.05):
        tested.append(Counter())
        scored.append(Counter())
        builds[tau] = build_an(reading, corpus, store, tau)
    assert set(builds[0.8].edges) == set(gt.expected_an.edges)
    assert jp_calls == []
    assert tested[0] == tested[1] == Counter(dict.fromkeys(expected, 1))
    for tested_pairs, scored_pairs in zip(tested, scored):
        assert set(scored_pairs.values()) <= {1}
        assert set(scored_pairs) <= set(tested_pairs)
    assert len(scored[0]) < len(scored[1])  # far pairs are rejected before _cosine
    assert builds[0.05].edges == oracle_build_an(reading, corpus, store, 0.05).edges


def test_build_an_normalizes_each_quote_text_once(monkeypatch):
    import aicnet.corpus

    # four authors attend q1-q3 through annotations and replies, and q4 is a
    # twin text of q1, so each quote is read by the dedupe of several authors
    corpus = mk_corpus(
        quotes=[("q1", "r1", "Alpha  beta"), ("q2", "r1", "gamma"), ("q3", "r1", "delta"),
                ("q4", "r1", "alpha beta")],
        annotations=[("a1", "r1", "A", "q1", "x"), ("a2", "r1", "B", "q1", "x"),
                     ("a3", "r1", "C", "q2", "x"), ("a4", "r1", "D", "q3", "x"),
                     ("a5", "r1", "D", "q4", "x")],
        replies=[("p1", "r1", "C", "a1", "y"), ("p2", "r1", "D", "a3", "y"),
                 ("p3", "r1", "A", "p2", "y")],
    )
    reading = corpus.readings["r1"]
    store = EmbeddingStore(dim=2, vectors={
        "q1": np.array([1.0, 0.0]), "q2": np.array([0.9, 0.1]), "q3": np.array([0.0, 1.0]),
        "q4": np.array([1.0, 0.0]),
    })
    calls: Counter = Counter()
    normalize = aicnet.corpus.normalize_text

    def counting_normalize(text):
        calls[text] += 1
        return normalize(text)

    monkeypatch.setattr(aicnet.corpus, "normalize_text", counting_normalize)
    g = build_an(reading, corpus, store, 0.5)
    assert g.edges  # the pairs were scored
    assert max(calls.values()) == 1
    assert sum(calls.values()) <= len(reading.quotes)


def _assert_canonical_edges(g):
    """The checks ``WeightedGraph.add_edge`` makes, on every finished edge."""
    for key, weight in g.edges.items():
        u, v = key
        assert u < v, key
        assert u in g.nodes and v in g.nodes, key
        assert type(weight) is float and weight > 0, (key, weight)


def _assert_builders_make_canonical_edges(corpus, store):
    for reading in corpus.readings.values():
        for g in (build_an(reading, corpus, store, 0.5),
                  build_in(reading, corpus),
                  project(build_cn_bipartite(reading, corpus))):
            _assert_canonical_edges(g)


@pytest.mark.parametrize("seed", range(12))
def test_builders_make_canonical_edges_on_synthetic_corpora(seed):
    corpus, store, gt = generate(random_params(seed))
    _assert_builders_make_canonical_edges(corpus, store)
    # the ground truth is built as the builders build, without add_edge's checks
    _assert_canonical_edges(gt.expected_an)
    _assert_canonical_edges(gt.expected_in)


def test_builders_make_canonical_edges_on_the_sample_corpus():
    corpus = load_corpus(DATA / "sample_corpus.jsonl")
    quotes = [q for r in corpus.readings.values() for q in r.quotes.values()]
    store = embed_quotes(quotes, 64)
    _assert_builders_make_canonical_edges(corpus, store)
    assert any(build_in(r, corpus).edges for r in corpus.readings.values())
