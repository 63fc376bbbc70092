"""Text pipeline: tokenization, lemmatization, noun filtering, tf-idf, and
the word-selection procedure that feeds the creation network.

The lemmatizer and the noun rule are deliberately rule-based (irregular-form
lookup plus suffix rules against a bundled lexicon) so results are identical
across platforms and runs. Word selection reads its two word lists, extra
stopwords and a replacement noun lexicon, from :class:`WordSelectionParams`.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter
from functools import cmp_to_key, lru_cache, partial
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from .corpus import Artifact, Reading, _decoded, _Record

_TOKEN = re.compile(r"\w+(?:['-]\w+)*")
# on ASCII text: a joiner without a word character on each side, and the
# table that keeps [0-9A-Za-z_'-] and makes every other byte a space
_LONE_JOINER = re.compile(r"['-](?!\w)|(?<!\w)['-]", re.ASCII)
_TOKEN_BYTES = bytes(b if bytes([b]).isalnum() or b in b"_'-" else 32 for b in range(256))

# plural -> singular forms the suffix rules get wrong
_IRREGULAR = {
    "children": "child",
    "people": "person",
    "men": "man",
    "women": "woman",
    "feet": "foot",
    "teeth": "tooth",
    "mice": "mouse",
    "geese": "goose",
    "lives": "life",
    "wives": "wife",
    "knives": "knife",
    "leaves": "leaf",
    "shelves": "shelf",
    "selves": "self",
    "halves": "half",
    "wolves": "wolf",
    "analyses": "analysis",
    "crises": "crisis",
    "hypotheses": "hypothesis",
    "theses": "thesis",
    "bases": "basis",
    "criteria": "criterion",
    "phenomena": "phenomenon",
    "curricula": "curriculum",
    "indices": "index",
    "appendices": "appendix",
    "matrices": "matrix",
    "media": "medium",
    "series": "series",
    "species": "species",
    "movies": "movie",
    "lens": "lens",
    "news": "news",
}

_NOUN_SUFFIXES = (
    "tion", "sion", "ment", "ness", "ity", "ship", "ism", "ance",
    "ence", "logy", "graphy", "hood", "dom", "cracy", "itude",
)


def load_wordlist(path: str | Path) -> frozenset[str]:
    """Read a one-term-per-line word file (blank lines and '#' comments skipped).

    A line ends at a line feed alone, and each is stripped of whitespace at
    both ends. One leading byte-order mark is dropped; bytes that are not
    UTF-8 raise :class:`ParseError` naming the file and the offset.
    """
    terms = set()
    for line in _decoded(path, Path(path).read_bytes()).split("\n"):
        term = line.strip().lower()
        if term and not term.startswith("#"):
            terms.add(term)
    return frozenset(terms)


@lru_cache(maxsize=None)
def _bundled(name: str) -> frozenset[str]:
    return load_wordlist(Path(__file__).parent / "data" / name)


def default_stopwords() -> frozenset[str]:
    return _bundled("stopwords.txt")


def default_noun_lexicon() -> frozenset[str]:
    return _bundled("nouns.txt")


def tokenize(text: str) -> list[str]:
    """Lowercase, then split into runs of Unicode ``\\w`` joined by a single
    inner ``'`` or ``-``; other punctuation is dropped.

    Internal hyphens and apostrophes are kept ("co-construction"), leading and
    trailing ones are not ("dancers'" -> "dancers"). Order is preserved.

    When the lowered text is ASCII, where ``\\w`` is ``[0-9A-Za-z_]``, no
    pattern is matched per token: each joiner without a word character on
    both sides becomes a space, then a byte table turns every byte outside
    ``[0-9A-Za-z_'-]`` into a space, and the text is split at spaces. Every
    joiner left sits between two word characters, so each maximal run of
    ``[\\w'-]`` is exactly one greedy match of ``\\w+(?:['-]\\w+)*``.
    """
    text = text.lower()
    if not text.isascii():
        return _TOKEN.findall(text)
    if "'" in text or "-" in text:
        text = _LONE_JOINER.sub(" ", text)
    return text.encode("ascii").translate(_TOKEN_BYTES).decode("ascii").split()


def lemmatize(surface: str) -> str:
    """Map a lowercase surface form to its lemma.

    Irregular forms come from a fixed table; plurals fall to suffix rules
    (-ies, -es, -s); -ing/-ed are stripped only when the resulting stem is a
    known word in the bundled noun lexicon. Unchanged when no rule applies.
    """
    return _lemmatize(surface, default_noun_lexicon())


def _lemmatize(surface: str, lexicon: frozenset[str]) -> str:
    """:func:`lemmatize` with ``lexicon`` in place of the bundled noun lexicon."""
    if surface in _IRREGULAR:
        return _IRREGULAR[surface]
    if surface in lexicon:
        return surface
    if surface.endswith("ies") and len(surface) > 4:
        return surface[:-3] + "y"
    if surface.endswith(("sses", "shes", "ches", "xes", "zes", "oes")) and len(surface) > 4:
        return surface[:-2]
    if surface.endswith("s") and not surface.endswith(("ss", "us", "is")) and len(surface) > 3:
        return surface[:-1]
    for suffix in ("ing", "ed"):
        if surface.endswith(suffix) and len(surface) > len(suffix) + 2:
            stem = surface[: -len(suffix)]
            for candidate in (stem, stem + "e", stem[:-1] if stem[-1:] == stem[-2:-1] else stem):
                if candidate in lexicon or candidate in _IRREGULAR.values():
                    return candidate
            break
    return surface


class _Verdicts(dict):
    """surface -> noun lemma, or ``None``; a surface is lemmatized and judged on
    its first miss, and the verdict kept."""

    def __init__(self, nouns: frozenset[str], stops: frozenset[str],
                 extra_stopwords: frozenset[str]) -> None:
        super().__init__()
        self.rules = nouns, stops, extra_stopwords

    def __missing__(self, surface: str) -> str | None:
        nouns, stops, extra_stopwords = self.rules
        lemma = _lemmatize(surface, nouns)
        noun = lemma in nouns or (lemma.endswith(_NOUN_SUFFIXES) and len(lemma) > 5)
        stopped = surface in stops or lemma in stops or lemma in extra_stopwords
        verdict = self[surface] = lemma if noun and not stopped else None
        return verdict


def _noun_lookup(noun_lexicon: frozenset[str] | None,
                 extra_stopwords: frozenset[str]) -> Callable[[list[str]], Iterator[str | None]]:
    """A surface -> noun-lemma map that lemmatizes and judges each distinct surface once.

    Lemmatizer and noun rule read ``noun_lexicon`` (the bundled one when
    ``None``). A surface or lemma in the bundled stopwords is no noun; else a
    lemma in the lexicon, or one of more than 5 letters ending in a noun suffix,
    is. The returned function maps each surface to its lemma, or to ``None`` if
    it is no noun or its lemma is an extra stopword. The verdicts live in a
    dict as long as the function: a surface is judged on its first miss, so
    every later lookup of it is one dict lookup in C.
    """
    nouns = default_noun_lexicon() if noun_lexicon is None else noun_lexicon
    return partial(map, _Verdicts(nouns, default_stopwords(), extra_stopwords).__getitem__)


def noun_lemmas(text: str, noun_lexicon: frozenset[str] | None = None,
                extra_stopwords: frozenset[str] = frozenset()) -> list[str]:
    """Full pipeline for one text: noun lemmas in order of appearance."""
    return list(filter(None, _noun_lookup(noun_lexicon, extra_stopwords)(tokenize(text))))


# -- tf-idf over a reading ----------------------------------------------------

def _documents(reading: Reading, noun_lexicon: frozenset[str] | None = None,
               extra_stopwords: frozenset[str] = frozenset()) -> list[tuple[Artifact, Counter]]:
    """Noun-lemma counts per artifact; artifacts with no nouns are not documents.

    Bodies are tokenized one at a time. Each distinct surface of the reading
    is lemmatized and judged once, by one lookup shared across the bodies;
    a body's counts are then taken in C over its surfaces' lemmas, with the
    rejected surfaces (``None``) filtered out.
    """
    lookup = _noun_lookup(noun_lexicon, extra_stopwords)
    docs = []
    for art in reading.artifacts:
        counts = Counter(filter(None, lookup(tokenize(art.body))))
        if counts:
            docs.append((art, counts))
    return docs


def tfidf(lemma: str, artifact: Artifact, reading: Reading) -> float:
    """Raw term frequency times ln(N / df).

    Documents are the reading's artifacts with at least one noun lemma;
    N is their count and df the number containing ``lemma``. Zero when the
    lemma does not occur in ``artifact``.
    """
    docs = _documents(reading)
    tf = next((counts[lemma] for art, counts in docs if art.id == artifact.id), 0)
    df = sum(lemma in counts for _, counts in docs)
    return tf * math.log(len(docs) / df) if tf else 0.0


# -- word selection for the creation network -----------------------------------

class WordSelectionParams(_Record):
    """Knobs of the word-selection procedure; defaults are the standard run.

    ``stopwords`` are lemmas dropped on top of the bundled stopwords, and
    ``noun_lexicon`` replaces the bundled noun lexicon when not ``None``, for
    the lemmatizer's -ing/-ed stems as for the noun rule (an empty set leaves
    only the suffix rule). A ``min_frequency`` or ``top_k`` below 1, or a
    ``drop_lowest`` below 0, raises :class:`ValueError`.
    """

    _fields = ("min_frequency", "drop_lowest", "top_k", "stopwords", "noun_lexicon")

    def __init__(self, min_frequency: int = 5, drop_lowest: int = 5, top_k: int = 70,
                 stopwords: frozenset[str] = frozenset(),
                 noun_lexicon: frozenset[str] | None = None) -> None:
        if min_frequency < 1:
            raise ValueError("min_frequency must be >= 1")
        if drop_lowest < 0:
            raise ValueError("drop_lowest must be >= 0")
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.min_frequency, self.drop_lowest, self.top_k = min_frequency, drop_lowest, top_k
        self.stopwords, self.noun_lexicon = stopwords, noun_lexicon

    def __hash__(self) -> int:
        return hash(self._key())


class SelectedWord(NamedTuple):
    lemma: str
    author_id: str
    score: float


def _tfidf_order(n_docs: int, a: tuple[int, int], b: tuple[int, int]) -> int:
    """The sign of tf1 ln(N/df1) - tf2 ln(N/df2) for ``a = (tf1, df1)`` and
    ``b = (tf2, df2)``, exactly: (N/df1)^tf1 against (N/df2)^tf2, which is
    N^tf1 df2^tf2 against N^tf2 df1^tf1 in integers."""
    left, right = n_docs ** a[0] * b[1] ** b[0], n_docs ** b[0] * a[1] ** a[0]
    return (left > right) - (left < right)


def _tfidf_ranks(n_docs: int, scores: dict[tuple[int, int], float]) -> dict[tuple[int, int], int]:
    """Each (tf, df) pair's rank in the exact ascending order of tf ln(N/df),
    from its float score; pairs of equal tf-idf share a rank.

    The pairs are sorted by float score, and each run of neighbours at most
    ``slack`` apart is sorted again by :func:`_tfidf_order`. The division, the
    logarithm (within one ulp) and the product each round once, so a score's
    float is off by less than tf (1 + 3 ln N) 2^-53, and two scores' errors
    sum to less than ``slack`` / 32: floats further apart are in exact order.
    """
    ordered = sorted(scores, key=scores.__getitem__)
    slack = max(tf for tf, _ in scores) * (1.0 + math.log(n_docs)) * 2.0 ** -45
    order = partial(_tfidf_order, n_docs)
    ranks: dict[tuple[int, int], int] = {}
    rank, start = -1, 0
    for end in range(1, len(ordered) + 1):
        if end < len(ordered) and scores[ordered[end]] - scores[ordered[end - 1]] <= slack:
            continue
        run = sorted(ordered[start:end], key=cmp_to_key(order))
        for i, pair in enumerate(run):
            if i == 0 or order(run[i - 1], pair):
                rank += 1
            ranks[pair] = rank
        start = end
    return ranks


def select_cn_words(reading: Reading,
                    params: WordSelectionParams = WordSelectionParams()) -> list[SelectedWord]:
    """Run the full selection: frequency floor, tf-idf scoring, bottom drop,
    top-k ranking, and per-author deduplication.

    Stages, in order:

    1. noun lemmas of every artifact body (annotations and replies alike);
    2. keep lemmas whose reading-wide count >= ``min_frequency``;
    3. score each (lemma, artifact) occurrence with tf-idf;
    4. drop the ``drop_lowest`` lemmas with the smallest max score over
       their artifacts (ties broken by lemma, ascending);
    5. rank the surviving (lemma, artifact) pairs by score descending (ties:
       lemma, then artifact id) and keep the first ``top_k``;
    6. map pairs to (lemma, author), keeping the max score per pair.

    Scores are compared exactly (:func:`_tfidf_ranks`), not as floats, and
    all ties are broken by the stated total orders, so the selection is
    independent of artifact iteration order. The result lists the kept
    (lemma, author) pairs by score descending, then lemma, then author.

    A score depends on its lemma and tf alone, so stages 2-5 work on the
    reading's distinct (lemma, tf) groups and the documents that hold each.
    A lemma's count, df and max score come from its groups. The groups are
    ranked by (score descending, lemma), and taken in that order until they
    hold ``top_k`` pairs; only their pairs get a ranking tuple. A reading
    built by hand may repeat an artifact id: each (lemma, artifact id) pair
    then ranks once, from the last document that holds it, while every
    document counts for count, df and max.
    """
    docs = _documents(reading, params.noun_lexicon, params.stopwords)
    n_docs = len(docs)
    groups = Counter(chain.from_iterable(counts.items() for _, counts in docs))  # documents per group
    df: dict[str, int] = {}
    totals: dict[str, int] = {}
    top_tf: dict[str, int] = {}
    for (lemma, tf), n in groups.items():
        if lemma in df:
            df[lemma] += n
            totals[lemma] += tf * n
            if tf > top_tf[lemma]:
                top_tf[lemma] = tf
        else:
            df[lemma], totals[lemma], top_tf[lemma] = n, tf * n, tf
    # candidates: lemmas at or above the frequency floor, with their idf ln(N / df)
    idf = {lemma: math.log(n_docs / n) for lemma, n in df.items()
           if totals[lemma] >= params.min_frequency}
    if not idf:
        return []
    candidates = [(lemma, tf, n) for (lemma, tf), n in groups.items() if lemma in idf]
    rank = _tfidf_ranks(n_docs, {(tf, df[lemma]): tf * idf[lemma] for lemma, tf, _ in candidates})

    lowest = heapq.nsmallest(params.drop_lowest,
                             [(rank[top_tf[lemma], df[lemma]], lemma) for lemma in idf])
    dropped = {lemma for _, lemma in lowest}

    # each document's pairs that no later document of its artifact id holds,
    # and the pairs of each group that a later one does
    ranked_docs, shadowed = docs, Counter()
    if len({art.id for art, _ in docs}) < n_docs:
        ranked_docs, later = [], {}
        for art, counts in reversed(docs):
            held = later.setdefault(art.id, set())
            shadowed.update((lemma, tf) for lemma, tf in counts.items() if lemma in held)
            ranked_docs.append((art, {lemma: tf for lemma, tf in counts.items()
                                      if lemma not in held}))
            held.update(counts)
    keys: dict[tuple[int, str], list[int]] = {}  # (-rank, lemma) -> [pairs, least tf]
    for lemma, tf, n in candidates:
        if lemma not in dropped:
            entry = keys.setdefault((-rank[tf, df[lemma]], lemma), [0, tf])
            entry[0] += n - shadowed[lemma, tf]
            entry[1] = min(entry[1], tf)  # several tfs share a key where idf is 0
    # a lemma's keys come by tf descending, so the groups taken are those of
    # tf >= least_tf[lemma]
    least_tf: dict[str, int] = {}
    reach = 0
    for key in sorted(keys):
        if reach >= params.top_k:
            break
        reach += keys[key][0]
        least_tf[key[1]] = keys[key][1]

    # (-rank, lemma, artifact id) never ties: each pair occurs once
    ranked = heapq.nsmallest(params.top_k, [
        (-rank[counts[lemma], df[lemma]], lemma, art.id, art.author_id, counts[lemma] * idf[lemma])
        for art, counts in ranked_docs for lemma in counts.keys() & least_tf.keys()
        if counts[lemma] >= least_tf[lemma]])

    best: dict[tuple[str, str], tuple[int, str, str, float]] = {}
    for neg_rank, lemma, _, author, score in ranked:  # best first: the first is the max
        best.setdefault((lemma, author), (neg_rank, lemma, author, score))
    return [SelectedWord(lemma, author, score) for _, lemma, author, score in sorted(best.values())]
