"""Brute-force oracles, kept independent of the library's algorithms.

Distances come from per-source BFS; shortest-path counts come from powers of
the adjacency matrix (walks of length dist(s, t) are exactly the shortest
paths). The attention-network oracle is the pairwise definition: one
:func:`oracle_joint_pairs` call per author pair, each scoring every quote pair
of the two sets with :func:`oracle_quote_similarity`, with thread roots found
by walking each artifact's reply chain on its own. These two are the pairwise
quote-pair code the library used before one scorer served both ``build_an``
and ``joint_pairs``. Only sensible for small inputs.

The node-report oracle is the per-author implementation the library used
before its one-pass measures: one sorted BFS per author, each on a freshly
built adjacency, and Brandes with neighbours sorted at every visit. The
library's report must equal it with ``==``.

The tokenizer oracle is the tokenizer the library used before its ASCII fast
path: the token pattern in Unicode mode over the lowered text. The
word-selection oracles tokenize with it, lemmatize with a lemmatizer written
from README's rules with its own irregular table, and rank each
(lemma, artifact) pair by the exact rational whose logarithm is its score.

The hash-embed oracle is the per-gram embedder the library used before it
hashed all n-gram windows at once: one FNV-1a loop per 3-, 4- and 5-gram,
each adding its sign into a bucket. The library's vectors must equal it with
``np.array_equal``.

The DOT oracle reads a DOT export back with regular expressions of its own,
sharing no code with the writer.

The loader oracle is the corpus loader the library used before it built each
record straight from its CSV row or JSON object: a dict per CSV row, then one
record parser for both formats with a closure per field check. Thread faults
come from :func:`oracle_thread_root`. The text-normalization oracle splits on
``str.split`` whitespace where the library uses a regular expression.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import Counter, deque
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import combinations, zip_longest
from pathlib import Path

import numpy as np

from aicnet.corpus import Artifact, Corpus, Quote, Reading
from aicnet.errors import (
    AicnetError,
    CyclicThread,
    DanglingParent,
    EmptyCorpus,
    EmptyText,
    MissingQuote,
    ParseError,
)
from aicnet.graphs import BipartiteGraph, WeightedGraph, edge_key
from aicnet.metrics import NodeMetricsRow
from aicnet.semantic import EmbeddingStore, JointPair, cosine
from aicnet.textpipe import (
    _NOUN_SUFFIXES,
    SelectedWord,
    WordSelectionParams,
    default_noun_lexicon,
    default_stopwords,
)


def oracle_thread_root(artifact: Artifact, reading: Reading) -> Artifact:
    """Follow one reply chain parent by parent to its annotation."""
    by_id = {a.id: a for a in reading.artifacts}
    seen = set()
    cur = artifact
    while cur.kind == "reply":
        if cur.id in seen:
            raise CyclicThread(artifact.id)
        seen.add(cur.id)
        parent = by_id.get(cur.parent_id or "")
        if parent is None:
            raise DanglingParent(cur.id)
        cur = parent
    return cur


def oracle_attention_quotes(author: str, reading: Reading) -> set[Quote]:
    """The quotes of the author's annotations and of their threads' roots; a
    root whose quote the reading lacks raises :class:`MissingQuote`."""
    quotes = set()
    for art in reading.artifacts:
        if art.author_id == author:
            root = oracle_thread_root(art, reading)
            if root.quote_id not in reading.quotes:
                raise MissingQuote(root.id)
            quotes.add(reading.quotes[root.quote_id])
    return quotes


def _dedupe_by_text(quotes: set[Quote]) -> set[Quote]:
    """One representative per normalized text (smallest quote id), so a pair of
    identical-text quotes held by both authors contributes once, not four times."""
    best: dict[str, Quote] = {}
    for q in sorted(quotes, key=lambda q: q.id):
        best.setdefault(q.normalized_text, q)
    return set(best.values())


def oracle_quote_similarity(q1: Quote, q2: Quote, store: EmbeddingStore) -> float:
    """Similarity of two quotes.

    Exactly 1.0 for a common reference (same quote, or textually identical
    after normalization) regardless of stored vectors; cosine of the stored
    vectors otherwise.
    """
    if q1.id == q2.id or q1.normalized_text == q2.normalized_text:
        return 1.0
    return cosine(store.get(q1.id), store.get(q2.id))


def oracle_joint_pairs(
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
            sim = oracle_quote_similarity(by_id_u[qu_id], by_id_v[qv_id], store)
            if sim >= tau:
                pairs.append(JointPair(key[0], key[1], sim))
    pairs.sort(key=lambda p: (p.quote_a, p.quote_b))
    return pairs


def oracle_build_an(
    reading: Reading,
    corpus: Corpus,
    store: EmbeddingStore,
    tau: float = 0.8,
) -> WeightedGraph:
    """Attention network by definition: for every author pair, the sum of the
    similarities of their joint quote pairs, exactly rounded by math.fsum."""
    authors = sorted(reading.active_authors())
    g = WeightedGraph(nodes=set(authors))
    attended = {
        a: _dedupe_by_text(oracle_attention_quotes(a, reading)) for a in authors
    }
    for i, u in enumerate(authors):
        for v in authors[i + 1 :]:
            pairs = oracle_joint_pairs(attended[u], attended[v], store, tau)
            if pairs:
                g.add_edge(u, v, math.fsum(p.similarity for p in pairs))
    return g


def _index(g: WeightedGraph) -> tuple[list[str], np.ndarray]:
    nodes = sorted(g.nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    a = np.zeros((len(nodes), len(nodes)), dtype=np.int64)
    for u, v in g.edges:
        a[idx[u], idx[v]] = 1
        a[idx[v], idx[u]] = 1
    return nodes, a


def _distances(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    dist = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        dist[s, s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in range(n):
                    if a[v, w] and dist[s, w] < 0:
                        dist[s, w] = d
                        nxt.append(w)
            frontier = nxt
    return dist


def _path_counts(a: np.ndarray, max_len: int) -> list[np.ndarray]:
    powers = [np.eye(a.shape[0], dtype=np.int64)]
    for _ in range(max_len):
        powers.append(powers[-1] @ a)
    return powers


def _non_isolated(g: WeightedGraph) -> WeightedGraph:
    connected = {v for key in g.edges for v in key}
    return WeightedGraph(nodes=connected, edges=dict(g.edges))


def oracle_transitivity(g: WeightedGraph) -> float | None:
    sub = _non_isolated(g)
    nodes, a = _index(sub)
    wedges = 0
    closed = 0
    for center in range(len(nodes)):
        neigh = [w for w in range(len(nodes)) if a[center, w]]
        for u, w in combinations(neigh, 2):
            wedges += 1
            if a[u, w]:
                closed += 1
    if wedges == 0:
        return None
    return closed / wedges


def oracle_centralization(g: WeightedGraph) -> float | None:
    sub = _non_isolated(g)
    n = len(sub.nodes)
    if n < 3:
        return None
    nodes, a = _index(sub)
    degrees = a.sum(axis=1)
    return float((degrees.max() - degrees).sum()) / ((n - 1) * (n - 2))


def oracle_closeness(g: WeightedGraph, v: str) -> float | None:
    nodes, a = _index(g)
    idx = {node: i for i, node in enumerate(nodes)}
    dist = _distances(a)
    i = idx[v]
    reach = [dist[i, j] for j in range(len(nodes)) if j != i and dist[i, j] >= 0]
    if not reach:
        return None
    return len(reach) / float(sum(reach))


def oracle_betweenness(g: WeightedGraph, v: str) -> float | None:
    sub = _non_isolated(g)
    if v not in sub.nodes:
        return None
    n = len(sub.nodes)
    denom = (n - 1) * (n - 2) / 2.0
    if denom == 0:
        return None
    nodes, a = _index(sub)
    idx = {node: i for i, node in enumerate(nodes)}
    dist = _distances(a)
    powers = _path_counts(a, int(dist.max()) if dist.max() > 0 else 0)
    i = idx[v]
    raw = 0.0
    for s, t in combinations(range(n), 2):
        if s == i or t == i or dist[s, t] < 0:
            continue
        d_st = int(dist[s, t])
        sigma_st = int(powers[d_st][s, t])
        d_sv, d_vt = int(dist[s, i]), int(dist[i, t])
        if d_sv < 0 or d_vt < 0 or d_sv + d_vt != d_st:
            continue
        through = int(powers[d_sv][s, i]) * int(powers[d_vt][i, t])
        raw += through / sigma_st
    return raw / denom


def _adjacency(g: WeightedGraph) -> dict[str, set[str]]:
    """Each node's neighbours, as a set of ids."""
    adj: dict[str, set[str]] = {v: set() for v in g.nodes}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _sorted_bfs_distances(adj: dict[str, set[str]], source: str) -> dict[str, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in sorted(adj[v]):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _per_author_closeness(g: WeightedGraph, v: str) -> float | None:
    if g.degree(v) == 0:
        return None
    dist = _sorted_bfs_distances(_adjacency(g), v)
    total = sum(d for node, d in dist.items() if node != v)
    return (len(dist) - 1) / total


def _brandes_raw(adj: dict[str, set[str]]) -> dict[str, float]:
    """Betweenness accumulation over unordered pairs (already halved)."""
    raw = {v: 0.0 for v in adj}
    for source in sorted(adj):
        stack: list[str] = []
        preds: dict[str, list[str]] = {v: [] for v in adj}
        sigma = {v: 0 for v in adj}
        dist = {v: -1 for v in adj}
        sigma[source] = 1
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in sorted(adj[v]):
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = {v: 0.0 for v in adj}
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != source:
                raw[w] += delta[w]
    return {v: value / 2.0 for v, value in raw.items()}


def _all_betweenness(g: WeightedGraph) -> dict[str, float | None]:
    out: dict[str, float | None] = {v: None for v in g.nodes}
    sub = _non_isolated(g)
    n = len(sub.nodes)
    denom = (n - 1) * (n - 2) / 2.0
    if denom == 0:
        return out
    raw = _brandes_raw(_adjacency(sub))
    for v in sub.nodes:
        out[v] = raw[v] / denom
    return out


def oracle_node_report(
    an: WeightedGraph, in_: WeightedGraph, cn: WeightedGraph, roster: set[str]
) -> list[NodeMetricsRow]:
    """Node report with closeness computed author by author."""
    in_btw = _all_betweenness(in_)
    cn_btw = _all_betweenness(cn)
    return [
        NodeMetricsRow(
            author_id=author,
            an_closeness=_per_author_closeness(an, author) if author in an.nodes else None,
            in_betweenness=in_btw.get(author),
            cn_betweenness=cn_btw.get(author),
        )
        for author in sorted(roster)
    ]


_ORACLE_TOKEN = re.compile(r"\w+(?:['-]\w+)*")


def oracle_tokenize(text: str) -> list[str]:
    """Runs of Unicode ``\\w`` joined by a single inner ``'`` or ``-`` in the
    lowered text, matched in Unicode mode whatever the text holds."""
    return _ORACLE_TOKEN.findall(text.lower())


# irregular plural -> lemma, as README lists them
_ORACLE_IRREGULAR = dict(entry.split(":") for entry in """
    children:child people:person men:man women:woman feet:foot teeth:tooth mice:mouse
    geese:goose lives:life wives:wife knives:knife leaves:leaf shelves:shelf selves:self
    halves:half wolves:wolf analyses:analysis crises:crisis hypotheses:hypothesis
    theses:thesis bases:basis criteria:criterion phenomena:phenomenon curricula:curriculum
    indices:index appendices:appendix matrices:matrix media:medium series:series
    species:species movies:movie lens:lens news:news""".split())
_ORACLE_ES = ("sses", "shes", "ches", "xes", "zes", "oes")
_ORACLE_ING_ED = re.compile(r"(?P<stem>.{3,})(?:ing|ed)", re.DOTALL)


def oracle_lemmatize(surface: str, lexicon: frozenset[str]) -> str:
    """The lemma of a lowercase surface by README's rules, the first that applies:
    the irregular table; a surface in ``lexicon`` is its own lemma; -ies -> -y
    from 5 letters; -sses, -shes, -ches, -xes, -zes and -oes lose -es from 5
    letters; -s (not -ss, -us or -is) comes off from 4 letters; -ing from 6
    letters and -ed from 5 come off when the stem, the stem + e or the stem
    with its doubled last letter undoubled, the first that is, is in
    ``lexicon`` or is a lemma of the irregular table; else the surface."""
    if surface in _ORACLE_IRREGULAR:
        return _ORACLE_IRREGULAR[surface]
    if surface in lexicon:
        return surface
    size = len(surface)
    if size >= 5 and surface[-3:] == "ies":
        return surface[:-3] + "y"
    if size >= 5 and any(surface[-len(end):] == end for end in _ORACLE_ES):
        return surface[:-2]
    if size >= 4 and surface[-1:] == "s" and surface[-2:] not in ("ss", "us", "is"):
        return surface[:-1]
    match = _ORACLE_ING_ED.fullmatch(surface)
    if match:
        stem = match["stem"]
        undoubled = [stem[:-1]] if stem[-1] == stem[-2] else []
        for candidate in [stem, stem + "e", *undoubled]:
            if candidate in lexicon or candidate in _ORACLE_IRREGULAR.values():
                return candidate
    return surface


def _oracle_is_noun(surface: str, lemma: str, noun_lexicon: frozenset[str] | None) -> bool:
    if surface in default_stopwords() or lemma in default_stopwords():
        return False
    if lemma in (default_noun_lexicon() if noun_lexicon is None else noun_lexicon):
        return True
    return len(lemma) > 5 and lemma.endswith(_NOUN_SUFFIXES)


def oracle_noun_lemmas(text: str, noun_lexicon: frozenset[str] | None = None,
                       extra_stopwords: frozenset[str] = frozenset()) -> list[str]:
    """Noun lemmas of one text, token by token, with no memo; the lemmatizer
    reads the same lexicon as the noun rule."""
    lemmas = []
    for surface in oracle_tokenize(text):
        nouns = default_noun_lexicon() if noun_lexicon is None else noun_lexicon
        lemma = oracle_lemmatize(surface, nouns)
        if _oracle_is_noun(surface, lemma, noun_lexicon) and lemma not in extra_stopwords:
            lemmas.append(lemma)
    return lemmas


def oracle_documents(reading: Reading, noun_lexicon: frozenset[str] | None = None,
                     extra_stopwords: frozenset[str] = frozenset()) -> list[tuple[Artifact, Counter]]:
    """Noun-lemma counts per artifact, skipping artifacts with no nouns."""
    docs = []
    for art in reading.artifacts:
        counts = Counter(oracle_noun_lemmas(art.body, noun_lexicon, extra_stopwords))
        if counts:
            docs.append((art, counts))
    return docs


def oracle_select_cn_words(reading: Reading,
                           params: WordSelectionParams = WordSelectionParams()) -> list[SelectedWord]:
    """Word selection with one logarithm per (lemma, artifact) pair, ordered by
    each score's exact value: a score tf ln(N/df) is the logarithm of the
    rational (N/df)^tf, so the rationals compare as the scores do."""
    docs = oracle_documents(reading, params.noun_lexicon, params.stopwords)
    n_docs = len(docs)

    totals: Counter = Counter()
    for _, counts in docs:
        totals.update(counts)
    candidates = {lemma for lemma, count in totals.items() if count >= params.min_frequency}
    if not candidates:
        return []

    df: Counter = Counter()
    for _, counts in docs:
        df.update(lemma for lemma in counts if lemma in candidates)

    # (lemma, artifact id) -> (exact value, float score, author), the last occurrence kept
    pair_scores: dict[tuple[str, str], tuple[Fraction, float, str]] = {}
    per_lemma: dict[str, list[Fraction]] = {lemma: [] for lemma in candidates}
    for art, counts in docs:
        for lemma in counts:
            if lemma not in candidates:
                continue
            exact = Fraction(n_docs, df[lemma]) ** counts[lemma]
            score = counts[lemma] * math.log(n_docs / df[lemma])
            pair_scores[(lemma, art.id)] = (exact, score, art.author_id)
            per_lemma[lemma].append(exact)

    aggregate = {lemma: max(values) for lemma, values in per_lemma.items()}
    dropped = {
        lemma
        for lemma, _ in sorted(aggregate.items(), key=lambda kv: (kv[1], kv[0]))[: params.drop_lowest]
    }

    ranked = sorted(
        ((lemma, art_id, exact, score, author)
         for (lemma, art_id), (exact, score, author) in pair_scores.items() if lemma not in dropped),
        key=lambda item: (-item[2], item[0], item[1]),
    )[: params.top_k]

    best: dict[tuple[str, str], tuple[Fraction, float]] = {}
    for lemma, _, exact, score, author in ranked:
        key = (lemma, author)
        if key not in best or exact > best[key][0]:
            best[key] = (exact, score)
    return [
        SelectedWord(lemma, author, score)
        for (lemma, author), (_, score) in sorted(
            best.items(), key=lambda kv: (-kv[1][0], kv[0][0], kv[0][1]))
    ]


def oracle_project(bg: BipartiteGraph) -> WeightedGraph:
    """Projection by author pairs: each pair in sorted order counts the words
    both hold, scanning the edges once per author."""
    g = WeightedGraph(nodes=set(bg.author_nodes))
    words = {a: {lemma for author, lemma in bg.edges if author == a} for a in bg.author_nodes}
    authors = sorted(bg.author_nodes)
    for i, u in enumerate(authors):
        for v in authors[i + 1 :]:
            shared = len(words[u] & words[v])
            if shared:
                g.add_edge(u, v, float(shared))
    return g


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def oracle_hash_embed(text: str, dim: int = 256) -> np.ndarray:
    """The hashing embedder one gram at a time: each 3-, 4- and 5-gram of the
    marked UTF-8 text is hashed on its own and adds its sign to its bucket."""
    if dim < 8:
        raise ValueError("embedding dimension must be >= 8")
    normalized = oracle_normalize_text(text)
    if not normalized:
        raise EmptyText()
    marked = "\x02" + normalized + "\x03"
    vec = np.zeros(dim, dtype=np.float64)
    encoded = marked.encode("utf-8")
    for n in (3, 4, 5):
        for i in range(len(encoded) - n + 1):
            h = _fnv1a(encoded[i : i + n])
            sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
            vec[h % dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        # all buckets cancelled; salt with the whole string so no text maps to zero
        h = _fnv1a(encoded)
        vec[h % dim] = 1.0
        norm = 1.0
    return vec / norm


# a quoted DOT id, whose only escapes are \\ and \"; and one node or edge statement
_DOT_ID = r'"((?:[^"\\]|\\[\\"])*)"'
_DOT_STATEMENT = (rf"  {_DOT_ID} "
                  rf"(?:\[isolated=(?:true|false)\]|-- {_DOT_ID} \[weight=([^\]]+)\]);\n")


def oracle_read_dot(path: Path) -> WeightedGraph:
    """The graph of a DOT export. One anchored pattern must match the whole
    file, decoded without newline translation: the header line, node and edge
    statements, then a closing ``}`` line. An edge given twice fails."""
    text = path.read_bytes().decode("utf-8")
    whole = re.fullmatch(rf"graph {_DOT_ID} \{{\n((?:{_DOT_STATEMENT})*)\}}\n", text)
    assert whole, f"{path} is not in the writer's DOT form"
    g = WeightedGraph()
    for u, v, weight in re.findall(_DOT_STATEMENT, whole.group(2)):
        u, v = (re.sub(r'\\([\\"])', r"\1", s) for s in (u, v))
        if weight:
            assert edge_key(u, v) not in g.edges, f"repeated edge {u} -- {v}"
            g.add_edge(u, v, float(weight))
        else:
            g.nodes.add(u)
    return g


def oracle_normalize_text(text: str) -> str:
    """Lowercase, with the text's ``str.split`` words joined by single spaces."""
    return " ".join(text.split()).lower()


_SURROGATE = re.compile("[\ud800-\udfff]")


def _oracle_json_objects(path: str | Path, text: str) -> Iterator[tuple[int, dict] | ParseError]:
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            yield ParseError(path, f"line {lineno}", f"invalid JSON ({getattr(exc, 'msg', exc)})")
            continue
        if not isinstance(rec, dict):
            yield ParseError(path, f"line {lineno}", "record is not a JSON object")
            continue
        yield lineno, rec


def _oracle_records_from_csv(path: str | Path, text: str) -> Iterator[tuple[int, dict] | ParseError]:
    reader = csv.reader(io.StringIO(text))
    limit = csv.field_size_limit(len(text) + 1)
    try:
        header = next(reader, [])
        start = reader.line_num + 1
        for row in reader:
            if row:
                rec = dict(zip_longest(header, row))
                cleaned = {k: v for k, v in rec.items() if k is not None and v not in (None, "")}
                if cleaned.get("record") != "quote":
                    cleaned["body"] = rec.get("body") or ""
                yield start, cleaned
            start = reader.line_num + 1
    except csv.Error as exc:
        yield ParseError(path, f"line {reader.line_num}", f"invalid CSV ({exc})")
    finally:
        csv.field_size_limit(limit)


def _oracle_parse_record(path: str | Path, lineno: int, rec: dict) -> Quote | Artifact:
    def fault(reason: str) -> ParseError:
        return ParseError(path, f"line {lineno}", reason)

    def encodable(key: str, value: str) -> str:
        if not value.isascii() and _SURROGATE.search(value):
            raise fault(f"field {key!r} holds a lone surrogate")
        return value

    def need(key: str) -> str:
        value = rec.get(key)
        if not isinstance(value, str) or value == "":
            raise fault(f"missing or empty field {key!r}")
        return encodable(key, value)

    def optional(key: str) -> str | None:
        value = rec.get(key)
        if value is not None and not isinstance(value, str):
            raise fault(f"field {key!r} must be a string")
        return encodable(key, value) if value else None

    if rec.get("record") == "quote":
        quote = Quote(id=need("id"), reading_id=need("reading_id"), text=need("text"))
        if not quote.text.strip():
            raise fault("quote text is empty")
        return quote

    kind = need("kind")
    if kind not in ("annotation", "reply"):
        raise fault(f"unknown kind {kind!r}")
    body = rec.get("body")
    if not isinstance(body, str):
        raise fault("missing field 'body'")
    art = Artifact(
        id=need("id"),
        author_id=need("author_id"),
        reading_id=need("reading_id"),
        kind=kind,  # type: ignore[arg-type]
        body=encodable("body", body),
        quote_id=optional("quote_id"),
        parent_id=optional("parent_id"),
        ts=optional("ts"),
    )
    if kind == "annotation":
        if not art.quote_id:
            raise fault(f"annotation {art.id!r} has no quote_id")
        if art.parent_id:
            raise fault(f"annotation {art.id!r} must not have a parent_id")
        if not art.body.strip():
            raise fault(f"annotation {art.id!r} has an empty body")
    else:
        if not art.parent_id:
            raise fault(f"reply {art.id!r} has no parent_id")
        if art.quote_id:
            raise fault(f"reply {art.id!r} must not carry a quote_id")
    return art


def oracle_collect(path: str | Path, format: str) -> tuple[Corpus, list[AicnetError]]:
    """The corpus and every fault of a corpus file, as the library's
    ``_collect`` states them, from a dict per record."""
    try:
        text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        return Corpus(), [ParseError(path, f"byte {exc.start}", "not valid UTF-8")]
    corpus = Corpus()
    errors: list[AicnetError] = []
    duplicates: list[AicnetError] = []
    lines: dict[tuple[str, str], int] = {}
    split = _oracle_json_objects if format == "jsonl" else _oracle_records_from_csv
    for item in split(path, text):
        if isinstance(item, ParseError):
            errors.append(item)
            continue
        lineno, rec = item
        try:
            record = _oracle_parse_record(path, lineno, rec)
        except ParseError as exc:
            errors.append(exc)
            continue
        key = (record.reading_id, record.id)
        if key in lines:
            duplicates.append(ParseError(path, f"line {lineno}", f"duplicate id {record.id!r} "
                                         f"in reading {record.reading_id!r}"))
            continue
        lines[key] = lineno
        reading = corpus.readings.setdefault(record.reading_id, Reading(id=record.reading_id))
        if isinstance(record, Quote):
            reading.quotes[record.id] = record
        else:
            reading.artifacts.append(record)
            corpus.authors.add(record.author_id)
    if not lines and not errors:
        return corpus, [EmptyCorpus(path)]
    errors += duplicates

    for reading in corpus.readings.values():
        faults: list[AicnetError] = []
        for art in reading.artifacts:
            if art.kind == "annotation" and art.quote_id not in reading.quotes:
                faults.append(MissingQuote(art.id))
                continue
            try:
                oracle_thread_root(art, reading)
            except (CyclicThread, DanglingParent) as exc:
                if exc.artifact_id == art.id:  # a dangling parent at its reply alone
                    faults.append(exc)
        errors += (ParseError(path, f"line {lines[reading.id, err.artifact_id]}", str(err))
                   for err in sorted(faults, key=lambda err: isinstance(err, CyclicThread)))
    return corpus, errors
