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
from .errors import AicnetError, DimensionMismatch, ZeroVector
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

    Same-text pairs are common references at exactly 1.0. The others are
    prefiltered with one row product per quote and confirmed with
    :func:`quote_similarity`, so every kept value is the scalar one. Vectors
    are read only for quotes that face a different-text quote across two
    authors, the only quotes whose vectors the pairwise definition consults.
    """
    n = len(quotes)
    codes_of: dict[str, int] = {}
    codes = np.array(
        [codes_of.setdefault(q.normalized_text, len(codes_of)) for q in quotes], dtype=np.int64
    )
    per_text = np.bincount(codes)
    solo: Counter = Counter(next(iter(h)) for h in holders if len(h) == 1)
    # quote i faces a different-text quote held by someone else unless every
    # quote outside its text group is held by i's sole holder alone
    need = [
        len(codes_of) > 1
        and (len(h) > 1 or n - solo[next(iter(h))] - per_text[code] + 1 > 0)
        for h, code in zip(holders, codes)
    ]
    with_vector = np.flatnonzero(need)
    x, norms = _stacked([quotes[i].id for i in with_vector], store)
    rank = {int(i): r for r, i in enumerate(with_vector)}
    cut = tau - _PREFILTER_MARGIN

    partners: list[dict[int, float]] = [{i: 1.0} for i in range(n)]
    for i in range(n):
        hits = {int(j): 1.0 for j in np.flatnonzero(codes[i + 1 :] == codes[i]) + i + 1}
        r = rank.get(i)
        if r is not None:
            row = (x[r + 1 :] @ x[r]) / (norms[r + 1 :] * norms[r])
            for j in with_vector[r + 1 :][~(row < cut)]:  # NaN rows go to the scalar check
                j = int(j)
                if j not in hits:
                    sim = quote_similarity(quotes[i], quotes[j], store)
                    if sim >= tau:
                        hits[j] = sim
        for j, sim in hits.items():
            partners[i][j] = partners[j][i] = sim
    return partners


def _stacked(quote_ids: list[str], store: EmbeddingStore) -> tuple[np.ndarray, np.ndarray]:
    """The quotes' vectors as rows and their norms, with the checks
    :func:`cosine` makes: one dimension, no zero vector."""
    vectors = [store.get(qid) for qid in quote_ids]
    for qid, vec in zip(quote_ids, vectors):
        if vec.shape != vectors[0].shape:
            raise DimensionMismatch(qid, vectors[0].shape[0], vec.shape[0])
    x = np.array(vectors, dtype=np.float64) if vectors else np.zeros((0, 0))
    norms = np.linalg.norm(x, axis=1)
    for qid, norm in zip(quote_ids, norms):
        if norm == 0.0:
            raise ZeroVector(qid)
    return x, norms


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
    pair's similarity is thresholded once (a row product per quote, then the
    scalar check near and above ``tau``), and each author pair sums its joint
    pairs in (quote_a, quote_b) id order. The result is identical, weights
    included, to calling :func:`joint_pairs` for every author pair.

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
