"""Builders for the three learner-learner networks of one reading.

* attention network: authors connected when their quoted references are
  identical or semantically similar above a threshold; edge weight sums the
  pair similarities.
* interaction network: authors connected by direct replies; edge weight counts
  the reply events.
* creation network: the learner-learner projection of the two-mode
  author-word graph built from the selected words; edge weight counts shared
  words.

All builders leave their (mutable) inputs as they were, but for the normalized
text a quote caches, and are insensitive to artifact iteration order.
"""

from __future__ import annotations

import math
from collections import Counter

from .corpus import Corpus, Quote, Reading, _Record, thread_roots
from .errors import AicnetError, DanglingParent, MissingQuote
from .semantic import EmbeddingStore, _check_threshold, _confirmed_pairs
from .textpipe import WordSelectionParams, select_cn_words

EdgeKey = tuple[str, str]


def edge_key(u: str, v: str) -> EdgeKey:
    """Canonical unordered pair."""
    return (u, v) if u <= v else (v, u)


class WeightedGraph(_Record):
    """Undirected weighted graph over author ids. No self-loops, weights > 0."""

    _fields = ("nodes", "edges")

    def __init__(self, nodes: set[str] | None = None,
                 edges: dict[EdgeKey, float] | None = None) -> None:
        self.nodes = set() if nodes is None else nodes
        self.edges = {} if edges is None else edges

    def add_edge(self, u: str, v: str, weight: float) -> None:
        if u == v:
            raise ValueError(f"self-loop on {u!r}")
        if weight <= 0:
            raise ValueError(f"non-positive weight {weight!r} on ({u!r}, {v!r})")
        self.nodes.add(u)
        self.nodes.add(v)
        self.edges[edge_key(u, v)] = float(weight)

    def degree(self, v: str) -> int:
        return sum(1 for a, b in self.edges if v in (a, b))

    def copy(self) -> "WeightedGraph":
        return WeightedGraph(set(self.nodes), dict(self.edges))


class BipartiteGraph(_Record):
    """Two-mode graph: author nodes, and (author, word) edges."""

    _fields = ("author_nodes", "edges")

    def __init__(self, author_nodes: set[str] | None = None,
                 edges: set[tuple[str, str]] | None = None) -> None:
        self.author_nodes = set() if author_nodes is None else author_nodes
        self.edges = set() if edges is None else edges


def _attended(reading: Reading, authors: list[str]) -> dict[str, set[str]]:
    """Ids of the quotes each author attended to: the quotes of their own
    annotations and the root quotes of the threads they replied in. The first
    of their artifacts whose reply chain is broken raises the chain's error, or,
    if the reading lacks its root's quote, :class:`MissingQuote` for the root."""
    roots = thread_roots(reading)
    attended: dict[str, set[str]] = {a: set() for a in authors}
    for art in reading.artifacts:
        if art.author_id not in attended:
            continue
        root = roots[art.id]
        if isinstance(root, AicnetError):
            raise root
        if root.quote_id not in reading.quotes:
            raise MissingQuote(root.id)
        attended[art.author_id].add(root.quote_id)
    return attended


def attention_quotes(author: str, reading: Reading, corpus: Corpus) -> set[Quote]:
    """Quotes the author attended to: own annotations' quotes plus, for every
    reply they wrote, its thread's root quote; raises as :func:`_attended`."""
    return {reading.quotes[qid] for qid in _attended(reading, [author])[author]}


def build_an(
    reading: Reading,
    corpus: Corpus,
    store: EmbeddingStore,
    tau: float = 0.8,
) -> WeightedGraph:
    """Joint-attention network: edge weight is the sum of similarity scores
    over the authors' joint quote pairs.

    An author attends the quotes they annotated and the root quotes of the
    threads they replied in, one quote per normalized text (smallest id). A
    joint pair of authors u, v is an unordered quote pair {p, q} with p
    attended by u and q by v whose similarity is >= ``tau``: 1.0 when p and q
    have the same normalized text, else the cosine of their stored vectors. A
    quote both attend pairs with itself at 1.0.

    One pass per reading: thread roots are resolved once, the scorer of
    :mod:`aicnet.semantic` scores each distinct quote pair that two authors
    hold once, and each distinct pair of attended-quote sets sums its joint
    pairs once, with :func:`math.fsum`, for all the author pairs that hold
    those two sets. The sum is exactly rounded, so a weight does not depend on
    the order of its terms, and the result is identical, weights and edge
    order included, to summing ``joint_pairs`` for every author pair.

    A vector that :meth:`EmbeddingStore.get` refuses raises its error when a
    scored pair first reads it: that of the first defective different-text
    pair, in (quote_a, quote_b) id order, among the pairs two authors hold.
    Before that, a broken thread raises as in :func:`attention_quotes`.

    Nodes are the reading's active authors; an author with no joint pair is
    an isolate. A ``tau`` outside (0, 1] raises :class:`ValueError`.
    """
    _check_threshold(tau)
    authors = sorted(reading.active_authors())

    held: dict[str, dict[str, str]] = {}  # author -> normalized text -> quote id
    for author, quote_ids in _attended(reading, authors).items():
        by_text = held[author] = {}
        for quote_id in sorted(quote_ids):
            by_text.setdefault(reading.quotes[quote_id].normalized_text, quote_id)

    ids = sorted({qid for by_text in held.values() for qid in by_text.values()})
    index = {qid: i for i, qid in enumerate(ids)}
    holders: list[set[str]] = [set() for _ in ids]
    quotes_of: dict[str, frozenset[int]] = {}
    for author, by_text in held.items():
        quotes_of[author] = frozenset(index[qid] for qid in by_text.values())
        for i in quotes_of[author]:
            holders[i].add(author)
    partners = _confirmed_pairs([reading.quotes[qid] for qid in ids], holders, store, tau)

    # authors who attend the same quotes share their weights
    weights: dict[tuple[frozenset[int], frozenset[int]], float] = {}
    edges: dict[EdgeKey, float] = {}
    for k, u in enumerate(authors):
        for v in authors[k + 1 :]:
            sets = (quotes_of[u], quotes_of[v])
            weight = weights.get(sets)
            if weight is None:
                joint: dict[tuple[int, int], float] = {}
                for i in quotes_of[u]:
                    for j in partners[i].keys() & quotes_of[v]:
                        joint[(i, j) if i < j else (j, i)] = partners[i][j]
                weight = weights[sets] = math.fsum(joint.values())
            if weight:
                edges[(u, v)] = weight
    return WeightedGraph(set(authors), edges)


def build_in(reading: Reading, corpus: Corpus) -> WeightedGraph:
    """Interaction network: every reply is one event between its author and the
    parent artifact's author; same-author events are discarded."""
    by_id = {a.id: a for a in reading.artifacts}
    events: Counter = Counter()
    for art in reading.artifacts:
        if art.kind != "reply":
            continue
        parent = by_id.get(art.parent_id)
        if parent is None:
            raise DanglingParent(art.id)
        if parent.author_id == art.author_id:
            continue
        events[edge_key(art.author_id, parent.author_id)] += 1
    edges = {pair: float(count) for pair, count in events.items()}
    return WeightedGraph(reading.active_authors(), edges)


def build_cn_bipartite(
    reading: Reading,
    corpus: Corpus,
    params: WordSelectionParams = WordSelectionParams(),
) -> BipartiteGraph:
    """Two-mode author-word graph from the words :func:`select_cn_words`
    picks under ``params``, word lists included. Its authors are the
    reading's active authors; those with no selected word have no edge."""
    selection = select_cn_words(reading, params)
    return BipartiteGraph(reading.active_authors(), {(s.author_id, s.lemma) for s in selection})


def project(bg: BipartiteGraph) -> WeightedGraph:
    """Learner-learner projection: authors are connected when they share at
    least one word; edge weight is the number of shared words. Edges are
    added in sorted author-pair order."""
    authors_of: dict[str, list[str]] = {}
    for author, word in bg.edges:
        if author in bg.author_nodes:
            authors_of.setdefault(word, []).append(author)
    shared: Counter = Counter()
    for authors in authors_of.values():
        authors.sort()
        for i, u in enumerate(authors):
            shared.update((u, v) for v in authors[i + 1 :])
    edges = {pair: float(count) for pair, count in sorted(shared.items())}
    return WeightedGraph(set(bg.author_nodes), edges)
