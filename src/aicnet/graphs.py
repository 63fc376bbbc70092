"""Builders for the three learner-learner networks of one reading.

* attention network: authors connected when their quoted references are
  identical or semantically similar above a threshold; edge weight sums the
  pair similarities.
* interaction network: authors connected by direct replies; edge weight counts
  the reply events.
* creation network: the learner-learner projection of the two-mode
  author-word graph built from the selected words; edge weight counts shared
  words.

All builders are pure functions of immutable inputs and are insensitive to
artifact iteration order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, Quote, Reading, thread_roots
from .errors import AicnetError
from .semantic import EmbeddingStore, quote_similarity
from .textpipe import NounTagger, WordSelectionParams, select_cn_words

EdgeKey = tuple[str, str]


def edge_key(u: str, v: str) -> EdgeKey:
    """Canonical unordered pair."""
    return (u, v) if u <= v else (v, u)


@dataclass
class WeightedGraph:
    """Undirected weighted graph over author ids. No self-loops, weights > 0."""

    nodes: set[str] = field(default_factory=set)
    edges: dict[EdgeKey, float] = field(default_factory=dict)

    def add_edge(self, u: str, v: str, weight: float) -> None:
        if u == v:
            raise ValueError(f"self-loop on {u!r}")
        if weight <= 0:
            raise ValueError(f"non-positive weight {weight!r} on ({u!r}, {v!r})")
        self.nodes.add(u)
        self.nodes.add(v)
        self.edges[edge_key(u, v)] = float(weight)

    def weight(self, u: str, v: str) -> float | None:
        return self.edges.get(edge_key(u, v))

    def has_edge(self, u: str, v: str) -> bool:
        return edge_key(u, v) in self.edges

    def degree(self, v: str) -> int:
        return sum(1 for a, b in self.edges if v in (a, b))

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def copy(self) -> "WeightedGraph":
        return WeightedGraph(set(self.nodes), dict(self.edges))


@dataclass
class BipartiteGraph:
    """Two-mode author-word graph; edges only cross the partitions."""

    author_nodes: set[str] = field(default_factory=set)
    word_nodes: set[str] = field(default_factory=set)
    edges: set[tuple[str, str]] = field(default_factory=set)


def _attended(reading: Reading, authors: list[str]) -> dict[str, set[str]]:
    """Ids of the quotes each author attended to: the quotes of their own
    annotations and the root quotes of the threads they replied in. Raises the
    error of the first of their artifacts whose reply chain is broken."""
    roots = thread_roots(reading)
    attended: dict[str, set[str]] = {a: set() for a in authors}
    for art in reading.artifacts:
        if art.author_id not in attended:
            continue
        root = roots[art.id]
        if isinstance(root, AicnetError):
            raise root
        if root.quote_id in reading.quotes:
            attended[art.author_id].add(root.quote_id)
    return attended


def attention_quotes(author: str, reading: Reading, corpus: Corpus) -> set[Quote]:
    """Quotes the author attended to: own annotations' quotes plus, for every
    reply they wrote, the quote of the thread's root annotation."""
    return {reading.quotes[qid] for qid in _attended(reading, [author])[author]}


# cosines this far below tau are rejected without the scalar check; the margin
# covers cosine()'s 1e-9 snap to 1.0 plus any rounding difference between the
# row product and the scalar dot product
_PREFILTER_MARGIN = 1e-8


def _confirmed_pairs(
    quotes: list[Quote], holders: list[set[str]], store: EmbeddingStore, tau: float
) -> list[dict[int, float]]:
    """For each quote (listed by id), the later quotes it pairs with at >= tau,
    mapped to their similarity; every quote also pairs with itself at 1.0.

    * A pair is scored only when two different authors hold its two quotes
      (``len(holders[i] | holders[j]) >= 2``): the pairs :func:`joint_pairs`
      consults. Same-text pairs count 1.0 and read no vector, since twin ids
      may carry different vectors.
    * A row product per quote only prefilters; every kept value comes from
      :func:`quote_similarity`. A quote whose vector is missing, not of
      ``store.dim`` components, or zero gets a NaN row, which the prefilter
      never rejects, so the scalar rule raises that vector's error.
    """
    n = len(quotes)
    texts = np.array([q.normalized_text for q in quotes], dtype=object)
    # a quote's one holder, or None when several authors hold it: two authors
    # hold a pair unless both quotes have the same one holder
    sole = np.array([next(iter(h)) if len(h) == 1 else None for h in holders], dtype=object)
    x = np.full((n, store.dim), np.nan)
    for i, q in enumerate(quotes):
        vec = store.vectors.get(q.id)
        if vec is not None and vec.shape == (store.dim,):
            x[i] = vec
    norms = np.linalg.norm(x, axis=1)
    norms[norms == 0.0] = np.nan
    cut = tau - _PREFILTER_MARGIN

    partners: list[dict[int, float]] = [{i: 1.0} for i in range(n)]
    for i in range(n):
        later = np.arange(i + 1, n)
        other = texts[i + 1 :] != texts[i]
        hits = {int(j): 1.0 for j in later[~other]}
        scored = later[other & ((sole[i + 1 :] != sole[i]) | (sole[i] is None))]
        row = (x[scored] @ x[i]) / (norms[scored] * norms[i])
        for j in scored[~(row < cut)]:  # NaN rows go to the scalar check
            sim = quote_similarity(quotes[i], quotes[j], store)
            if sim >= tau:
                hits[int(j)] = sim
        for j, sim in hits.items():
            partners[i][j] = partners[j][i] = sim
    return partners


def build_an(
    reading: Reading,
    corpus: Corpus,
    store: EmbeddingStore,
    tau: float = 0.8,
    roster: set[str] | None = None,
) -> WeightedGraph:
    """Joint-attention network: edge weight is the sum of similarity scores
    over the authors' joint quote pairs.

    An author attends the quotes they annotated and the root quotes of the
    threads they replied in, one quote per normalized text (smallest id). A
    joint pair of authors u, v is an unordered quote pair {p, q} with p
    attended by u and q by v, and similarity >= ``tau``
    (:func:`quote_similarity`); a quote both attend pairs with itself at 1.0.

    One pass per reading: thread roots are resolved once, each distinct quote
    pair that two authors hold is thresholded once (a row product per quote,
    then the scalar check near and above ``tau``), and each author pair sums
    its joint pairs in (quote_a, quote_b) id order. The result is identical,
    weights and edge order included, to calling :func:`joint_pairs` for every
    author pair.

    A missing, mis-sized or zero vector raises the error
    :func:`quote_similarity` raises, exactly when the pairwise definition
    reads it: that of the first defective different-text pair, in
    (quote_a, quote_b) id order, among the pairs two authors hold.

    Nodes are the reading's active authors; pass ``roster`` to include inactive
    authors as isolates for cross-reading comparability.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    authors = sorted(reading.active_authors() | (roster or set()))
    g = WeightedGraph(nodes=set(authors))

    held: dict[str, dict[str, str]] = {}  # author -> normalized text -> quote id
    for author, quote_ids in _attended(reading, authors).items():
        by_text = held[author] = {}
        for quote_id in sorted(quote_ids):
            by_text.setdefault(reading.quotes[quote_id].normalized_text, quote_id)

    ids = sorted({qid for by_text in held.values() for qid in by_text.values()})
    index = {qid: i for i, qid in enumerate(ids)}
    holders: list[set[str]] = [set() for _ in ids]
    quotes_of: dict[str, set[int]] = {}
    for author, by_text in held.items():
        quotes_of[author] = {index[qid] for qid in by_text.values()}
        for i in quotes_of[author]:
            holders[i].add(author)
    partners = _confirmed_pairs([reading.quotes[qid] for qid in ids], holders, store, tau)

    for k, u in enumerate(authors):
        for v in authors[k + 1 :]:
            joint: dict[tuple[int, int], float] = {}
            for i in quotes_of[u]:
                for j in partners[i].keys() & quotes_of[v]:
                    joint[(i, j) if i < j else (j, i)] = partners[i][j]
            if joint:
                g.add_edge(u, v, sum(joint[key] for key in sorted(joint)))
    return g


def build_in(reading: Reading, corpus: Corpus, roster: set[str] | None = None) -> WeightedGraph:
    """Interaction network: every reply is one event between its author and the
    parent artifact's author; same-author events are discarded."""
    g = WeightedGraph(nodes=reading.active_authors() | (roster or set()))
    by_id = {a.id: a for a in reading.artifacts}
    events: Counter = Counter()
    for art in reading.artifacts:
        if art.kind != "reply":
            continue
        parent = by_id[art.parent_id]  # validated at load
        if parent.author_id == art.author_id:
            continue
        events[edge_key(art.author_id, parent.author_id)] += 1
    for (u, v), count in events.items():
        g.add_edge(u, v, float(count))
    return g


def build_cn_bipartite(
    reading: Reading,
    corpus: Corpus,
    params: WordSelectionParams = WordSelectionParams(),
    tagger: NounTagger | None = None,
    roster: set[str] | None = None,
) -> BipartiteGraph:
    """Two-mode author-word graph from the reading's selected words. Authors
    with no selected words remain as isolated author nodes."""
    selection = select_cn_words(reading, params, tagger)
    bg = BipartiteGraph(author_nodes=reading.active_authors() | (roster or set()))
    for sel in selection:
        bg.word_nodes.add(sel.lemma)
        bg.edges.add((sel.author_id, sel.lemma))
    return bg


def project(bg: BipartiteGraph) -> WeightedGraph:
    """Learner-learner projection: authors are connected when they share at
    least one word; edge weight is the number of shared words. Edges are
    added in sorted author-pair order."""
    g = WeightedGraph(nodes=set(bg.author_nodes))
    authors_of: dict[str, list[str]] = {}
    for author, word in bg.edges:
        if author in bg.author_nodes:
            authors_of.setdefault(word, []).append(author)
    shared: Counter = Counter()
    for authors in authors_of.values():
        authors.sort()
        for i, u in enumerate(authors):
            shared.update((u, v) for v in authors[i + 1 :])
    for (u, v), count in sorted(shared.items()):
        g.add_edge(u, v, float(count))
    return g
