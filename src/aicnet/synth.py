"""Synthetic discourse corpora with planted structure, plus their ground
truth, for end-to-end verification of the network builders.

Planting strategy:

* attention is planted through identical quote text (the common-reference
  rule makes each within-block author pair contribute exactly 1.0, whatever
  the embedder does); quote texts of different blocks are checked to fall
  below the similarity threshold and regenerated on the rare hash collision;
* interactions are planted directly as reply artifacts;
* shared vocabulary is planted as noun injections engineered so the word
  selection keeps exactly the planted (word, author) pairs: filler words stay
  under the frequency floor, and one sacrificial word per bottom-drop slot
  appears in every document (idf 0) so the drop removes the sacrifices and
  nothing else.

Everything is driven by one seed; the same seed gives byte-identical output.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .corpus import Artifact, Corpus, Quote, Reading
from .errors import InfeasibleParams
from .graphs import (
    EdgeKey,
    WeightedGraph,
    build_an,
    build_cn_bipartite,
    build_in,
    edge_key,
    project,
)
from .semantic import EmbeddingStore, Vector, cosine, hash_embed
from .textpipe import WordSelectionParams, default_noun_lexicon, lemmatize

_MAX_TEXT_TRIES = 200


class SynthParams(NamedTuple):
    """Plan for one synthetic reading.

    ``attention_blocks`` partitions the authors into groups that will share a
    quote text; the authors the blocks name are the reading's authors, at
    least two. ``reply_edges`` is a multiset of author pairs realized as reply
    artifacts (second author replies to the first author's annotation);
    ``vocab_overlap`` maps author pairs, each given in one order only, to the
    number of planted shared nouns.
    """

    n_quotes: int
    attention_blocks: tuple[tuple[str, ...], ...]
    reply_edges: tuple[tuple[str, str], ...] = ()
    vocab_overlap: Mapping[tuple[str, str], int] = MappingProxyType({})
    seed: int = 0


class GroundTruth(NamedTuple):
    """The three networks a plan must yield, over the plan's authors: AN weights
    count the quote texts a pair shares, IN weights the replies between them,
    and CN weights the nouns planted for them."""

    expected_an: WeightedGraph
    expected_in: WeightedGraph
    expected_cn: WeightedGraph


class EdgeDiff(NamedTuple):
    pair: EdgeKey
    expected: float | None
    actual: float | None


class VerificationReport(NamedTuple):
    """Differences between built networks and the planted ground truth."""

    an_diffs: list[EdgeDiff]
    in_diffs: list[EdgeDiff]
    cn_diffs: list[EdgeDiff]

    @property
    def passed(self) -> bool:
        return not any(self)

    def summary(self) -> str:
        if self.passed:
            return "ground truth reproduced exactly"
        return "\n".join(
            f"{label} {d.pair[0]}--{d.pair[1]}: expected {d.expected}, got {d.actual}"
            for label, diffs in zip(("attention", "interaction", "creation"), self)
            for d in diffs
        )


def _validate(params: SynthParams, reading_id: str) -> list[str]:
    if not reading_id:
        raise InfeasibleParams("empty reading id")
    authors: list[str] = []
    seen: set[str] = set()
    for block in params.attention_blocks:
        if not block:
            raise InfeasibleParams("empty attention block")
        for author in block:
            if not author:
                raise InfeasibleParams("empty author id")
            if author in seen:
                raise InfeasibleParams(f"author {author!r} appears in two blocks")
            seen.add(author)
            authors.append(author)
    if len(authors) < 2:
        raise InfeasibleParams("need at least 2 authors")
    if params.n_quotes < 1:
        raise InfeasibleParams("need at least 1 quote")
    if params.n_quotes < len(params.attention_blocks):
        raise InfeasibleParams("fewer quotes than attention blocks")
    for x, y in params.reply_edges:
        if x not in seen or y not in seen:
            raise InfeasibleParams(f"reply edge ({x!r}, {y!r}) names an unknown author")
    for (x, y), count in params.vocab_overlap.items():
        if x not in seen or y not in seen:
            raise InfeasibleParams(f"vocab overlap ({x!r}, {y!r}) names an unknown author")
        if x == y:
            raise InfeasibleParams(f"vocab overlap on a single author {x!r}")
        if (y, x) in params.vocab_overlap:
            raise InfeasibleParams(f"vocab overlap ({x!r}, {y!r}) is given in both orders")
        if count < 0:
            raise InfeasibleParams("negative vocab overlap")
    return sorted(authors)


def _stable_words() -> list[str]:
    """Lexicon words that survive the pipeline unchanged (their own lemma)."""
    return [w for w in sorted(default_noun_lexicon()) if lemmatize(w) == w]


def _block_texts(blocks: int, rng: random.Random, pool: list[str], tau: float,
                 dim: int) -> dict[str, Vector]:
    """Distinct quote texts mapped to their hash embeddings, each pair's cosine below tau."""
    chosen: dict[str, Vector] = {}
    for _ in range(blocks):
        for _attempt in range(_MAX_TEXT_TRIES):
            text = " ".join(rng.sample(pool, 8))
            if text in chosen:
                continue
            vec = hash_embed(text, dim)
            if all(cosine(vec, other) < tau for other in chosen.values()):
                chosen[text] = vec
                break
        else:
            raise InfeasibleParams("could not draw quote texts below the similarity threshold")
    return chosen


def generate(
    params: SynthParams,
    word_params: WordSelectionParams = WordSelectionParams(),
    tau: float = 0.8,
    dim: int = 256,
    reading_id: str = "r1",
    id_prefix: str = "",
) -> tuple[Corpus, EmbeddingStore, GroundTruth]:
    """Build a corpus, its embedding store, and the planted ground truth.

    The ground truth is exact for the given ``word_params`` and ``tau``;
    infeasible demands (more planted word-author pairs than ``top_k`` keeps,
    and the like) raise :class:`InfeasibleParams`.
    """
    authors = _validate(params, reading_id)
    rng = random.Random(params.seed)
    blocks = [tuple(block) for block in params.attention_blocks]
    block_of = {a: i for i, block in enumerate(blocks) for a in block}

    overlap = {edge_key(x, y): count for (x, y), count in params.vocab_overlap.items() if count}
    n_planted = sum(overlap.values())
    if 2 * n_planted > word_params.top_k:
        raise InfeasibleParams(
            f"{n_planted} planted words need {2 * n_planted} ranking slots, top_k is {word_params.top_k}"
        )

    pool = _stable_words()
    need = word_params.drop_lowest + n_planted
    if need + 2 * (len(authors) + len(params.reply_edges) + 1) > len(pool):
        raise InfeasibleParams("word demand exceeds the bundled lexicon")
    word_iter: Iterator[str] = iter(pool)
    decoys = [next(word_iter) for _ in range(word_params.drop_lowest)]
    planted_words: dict[EdgeKey, list[str]] = {
        pair: [next(word_iter) for _ in range(count)] for pair, count in sorted(overlap.items())
    }

    vector_of = _block_texts(len(blocks), rng, pool, tau, dim)
    texts = list(vector_of)

    # quotes: round-robin over blocks, each quote carrying its block's text
    width = len(str(params.n_quotes))
    quote_pools: list[list[Quote]] = [[] for _ in blocks]
    quotes: dict[str, Quote] = {}
    for i in range(params.n_quotes):
        block_idx = i % len(blocks)
        quote = Quote(id=f"{id_prefix}q{i + 1:0{width}d}", reading_id=reading_id,
                      text=texts[block_idx])
        quotes[quote.id] = quote
        quote_pools[block_idx].append(quote)

    # planted words score tf * ln(N/2); N must exceed the planted df of 2
    pad = bool(n_planted) and len(authors) + len(params.reply_edges) < 3
    n_docs = len(authors) + len(params.reply_edges) + pad
    decoy_reps = max(1, math.ceil(word_params.min_frequency / n_docs))
    planted_reps = math.ceil(word_params.min_frequency / 2)
    # noun filler would clear a frequency floor of 1, so use it only above that
    fillers = 2 if word_params.min_frequency >= 2 else 0

    def body_tokens(extra: list[str]) -> str:
        tokens = [next(word_iter) for _ in range(fillers)]
        tokens += extra + [d for d in decoys for _ in range(decoy_reps)]
        rng.shuffle(tokens)
        if not tokens:
            tokens = ["about", "this"]  # stopwords keep the body non-empty, never nouns
        return " ".join(tokens)

    planted_for: dict[str, list[str]] = {a: [] for a in authors}
    for (x, y), words in planted_words.items():
        for w in words:
            planted_for[x].extend([w] * planted_reps)
            planted_for[y].extend([w] * planted_reps)

    # one annotation per author on a quote of their block, then the replies and the pad
    annotation_of: dict[str, Artifact] = {}
    artifacts: list[Artifact] = []
    for block_idx, block in enumerate(blocks):
        for j, author in enumerate(sorted(block)):
            quote = quote_pools[block_idx][j % len(quote_pools[block_idx])]
            annotation_of[author] = Artifact(
                id=f"{id_prefix}a-{author}", author_id=author, reading_id=reading_id,
                kind="annotation", body=body_tokens(planted_for[author]),
                quote_id=quote.id,
            )
            artifacts.append(annotation_of[author])

    for i, (x, y) in enumerate(params.reply_edges):
        artifacts.append(
            Artifact(
                id=f"{id_prefix}rep{i + 1:03d}", author_id=y, reading_id=reading_id,
                kind="reply", body=body_tokens([]), parent_id=annotation_of[x].id,
            )
        )

    if pad:
        first = authors[0]
        artifacts.append(Artifact(
            id=f"{id_prefix}pad", author_id=first, reading_id=reading_id,
            kind="annotation", body=body_tokens([]), quote_id=annotation_of[first].quote_id,
        ))

    reading = Reading(id=reading_id, quotes=quotes, artifacts=artifacts)
    corpus = Corpus(readings={reading_id: reading}, authors=set(authors))
    store = EmbeddingStore(dim=dim, vectors={q.id: vector_of[q.text] for q in quotes.values()})

    # ground truth straight from the plan
    texts_attended: dict[str, set[int]] = {a: {block_of[a]} for a in authors}
    for x, y in params.reply_edges:
        texts_attended[y].add(block_of[x])

    shared = {(u, v): len(texts_attended[u] & texts_attended[v])
              for i, u in enumerate(authors) for v in authors[i + 1 :]}
    events = Counter(edge_key(x, y) for x, y in params.reply_edges if x != y)
    gt = GroundTruth(
        expected_an=WeightedGraph(set(authors), {p: float(n) for p, n in shared.items() if n}),
        expected_in=WeightedGraph(set(authors), {p: float(n) for p, n in events.items()}),
        expected_cn=WeightedGraph(set(authors), {p: float(n) for p, n in overlap.items()}),
    )
    return corpus, store, gt


def _diff_graphs(expected: WeightedGraph, actual: WeightedGraph) -> list[EdgeDiff]:
    pairs = sorted(set(expected.edges) | set(actual.edges))
    diffs = [EdgeDiff(pair, expected.edges.get(pair), actual.edges.get(pair)) for pair in pairs]
    return [d for d in diffs if d.expected != d.actual]


def verify(
    corpus: Corpus,
    store: EmbeddingStore,
    gt: GroundTruth,
    tau: float = 0.8,
    word_params: WordSelectionParams = WordSelectionParams(),
    reading_id: str | None = None,
) -> VerificationReport:
    """Run the real builders over a generated corpus and diff the networks
    against the planted ground truth (empty diff means pass).

    Every network is diffed by one exact rule, :func:`_diff_graphs`: a pair is
    reported when one side lacks it or the two weights are unequal. The planted
    weights are whole counts, which the builders reproduce exactly: each quote
    text two authors share scores exactly 1.0 and texts of different blocks
    fall below ``tau``, so an AN weight is a sum of ones, and the IN and CN
    count replies and shared words.
    """
    if reading_id is None:
        if len(corpus.readings) != 1:
            raise ValueError("reading_id required for multi-reading corpora")
        reading_id = next(iter(corpus.readings))
    reading = corpus.reading(reading_id)

    an = build_an(reading, corpus, store, tau)
    in_ = build_in(reading, corpus)
    cn = project(build_cn_bipartite(reading, corpus, word_params))
    return VerificationReport(
        an_diffs=_diff_graphs(gt.expected_an, an),
        in_diffs=_diff_graphs(gt.expected_in, in_),
        cn_diffs=_diff_graphs(gt.expected_cn, cn),
    )


def random_params(seed: int, max_authors: int = 8) -> SynthParams:
    """Draw a random but feasible parameter set (handy for property tests)."""
    rng = random.Random(seed)
    n_authors = rng.randint(2, max_authors)
    authors = [f"a{i + 1:02d}" for i in range(n_authors)]
    shuffled = authors[:]
    rng.shuffle(shuffled)
    blocks: list[tuple[str, ...]] = []
    i = 0
    while i < n_authors:
        size = min(rng.randint(1, 3), n_authors - i)
        blocks.append(tuple(shuffled[i : i + size]))
        i += size
    n_quotes = len(blocks) + rng.randint(0, 3)
    reply_edges = tuple(
        (rng.choice(authors), rng.choice(authors)) for _ in range(rng.randint(0, 6))
    )
    overlap: dict[tuple[str, str], int] = {}
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(authors, 2)
        overlap[edge_key(u, v)] = rng.randint(1, 3)
    return SynthParams(
        n_quotes=n_quotes,
        attention_blocks=tuple(blocks),
        reply_edges=reply_edges,
        vocab_overlap=overlap,
        seed=rng.randrange(2**63),
    )
