"""Text pipeline: tokenization, lemmatization, noun filtering, tf-idf, and
the word-selection procedure that feeds the creation network.

The lemmatizer and the noun rule are deliberately rule-based (irregular-form
lookup plus suffix rules against a bundled lexicon) so results are identical
across platforms and runs. Word selection reads its two word lists, extra
stopwords and a replacement noun lexicon, from :class:`WordSelectionParams`.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator

from .corpus import Artifact, Reading
from .errors import CorpusEncodingError

_TOKEN = re.compile(r"\w+(?:['-]\w+)*", re.UNICODE)

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

    One leading byte-order mark is dropped; bytes that are not UTF-8 raise
    :class:`CorpusEncodingError` naming the offset.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise CorpusEncodingError(str(path), exc.start) from None
    terms = set()
    for line in text.splitlines():
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
    """Split on Unicode word boundaries, lowercase, strip punctuation.

    Internal hyphens and apostrophes are kept ("co-construction"), leading and
    trailing ones are not ("dancers'" -> "dancers"). Order is preserved.
    """
    return _TOKEN.findall(text.lower())


def lemmatize(surface: str) -> str:
    """Map a lowercase surface form to its lemma.

    Irregular forms come from a fixed table; plurals fall to suffix rules
    (-ies, -es, -s); -ing/-ed are stripped only when the resulting stem is a
    known word in the bundled noun lexicon. Unchanged when no rule applies.
    """
    lexicon = default_noun_lexicon()
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


def _noun_lookup(noun_lexicon: frozenset[str] | None,
                 extra_stopwords: frozenset[str]) -> Callable[[list[str]], Iterator[str | None]]:
    """A surface -> noun-lemma map that lemmatizes and judges each distinct surface once.

    A surface or lemma in the bundled stopwords is no noun; otherwise a lemma
    in ``noun_lexicon`` (the bundled one when ``None``), or one of more than
    5 letters ending in a noun suffix, is. The returned function maps each
    surface to its lemma, or to ``None`` when it is no noun or its lemma is an
    extra stopword. Its memo lives as long as the function does.
    """
    nouns = default_noun_lexicon() if noun_lexicon is None else noun_lexicon
    stops = default_stopwords()
    memo: dict[str, str | None] = {}

    def lookup(surfaces: list[str]) -> Iterator[str | None]:
        for surface in dict.fromkeys(surfaces):
            if surface not in memo:
                lemma = lemmatize(surface)
                noun = lemma in nouns or (lemma.endswith(_NOUN_SUFFIXES) and len(lemma) > 5)
                stopped = surface in stops or lemma in stops or lemma in extra_stopwords
                memo[surface] = lemma if noun and not stopped else None
        return map(memo.__getitem__, surfaces)

    return lookup


def noun_lemmas(text: str, noun_lexicon: frozenset[str] | None = None,
                extra_stopwords: frozenset[str] = frozenset()) -> list[str]:
    """Full pipeline for one text: noun lemmas in order of appearance."""
    lookup = _noun_lookup(noun_lexicon, extra_stopwords)
    return [lemma for lemma in lookup(tokenize(text)) if lemma is not None]


# -- tf-idf over a reading ----------------------------------------------------

def _documents(reading: Reading, noun_lexicon: frozenset[str] | None = None,
               extra_stopwords: frozenset[str] = frozenset()) -> list[tuple[Artifact, Counter]]:
    """Noun-lemma counts per artifact; artifacts with no nouns are not documents.

    Each distinct surface of the reading is lemmatized and judged once.
    """
    lookup = _noun_lookup(noun_lexicon, extra_stopwords)
    docs = []
    for art in reading.artifacts:
        counts = Counter(lookup(tokenize(art.body)))
        del counts[None]  # rejected surfaces; Counter ignores a missing key
        if counts:
            docs.append((art, counts))
    return docs


def _idf(docs: list[tuple[Artifact, Counter]]) -> dict[str, float]:
    """ln(N / df) of each lemma of the documents: N is their count and df the
    number containing the lemma."""
    df: Counter = Counter()
    for _, counts in docs:
        df.update(counts.keys())
    return {lemma: math.log(len(docs) / n) for lemma, n in df.items()}


def tfidf(lemma: str, artifact: Artifact, reading: Reading) -> float:
    """Raw term frequency times ln(N / df).

    Documents are the reading's artifacts with at least one noun lemma;
    N is their count and df the number containing ``lemma``. Zero when the
    lemma does not occur in ``artifact``.
    """
    docs = _documents(reading)
    tf = next((counts[lemma] for art, counts in docs if art.id == artifact.id), 0)
    return tf * _idf(docs)[lemma] if tf else 0.0


# -- word selection for the creation network -----------------------------------

@dataclass(frozen=True)
class WordSelectionParams:
    """Knobs of the word-selection procedure; defaults are the standard run.

    ``stopwords`` are lemmas dropped on top of the bundled stopwords, and
    ``noun_lexicon`` replaces the bundled noun lexicon when not ``None`` (an
    empty set leaves only the suffix rule). The lemmatizer always uses the
    bundled lexicon. A ``min_frequency`` or ``top_k`` below 1, or a
    ``drop_lowest`` below 0, raises :class:`ValueError`.
    """

    min_frequency: int = 5
    drop_lowest: int = 5
    top_k: int = 70
    stopwords: frozenset[str] = frozenset()
    noun_lexicon: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.min_frequency < 1:
            raise ValueError("min_frequency must be >= 1")
        if self.drop_lowest < 0:
            raise ValueError("drop_lowest must be >= 0")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


@dataclass(frozen=True)
class SelectedWord:
    lemma: str
    author_id: str
    score: float


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

    All ties are broken by the stated total orders, so the selection is
    independent of artifact iteration order.
    """
    docs = _documents(reading, params.noun_lexicon, params.stopwords)
    totals: Counter = Counter()
    for _, counts in docs:
        totals.update(counts)
    # candidates: lemmas at or above the frequency floor, with their idf
    idf = {lemma: v for lemma, v in _idf(docs).items() if totals[lemma] >= params.min_frequency}
    if not idf:
        return []

    # (lemma, artifact) scores for every occurrence pair, and each lemma's max
    pair_scores: dict[tuple[str, str], tuple[float, str]] = {}
    aggregate: dict[str, float] = {}
    for art, counts in docs:
        for lemma, tf in counts.items():
            if lemma in idf:
                score = tf * idf[lemma]
                pair_scores[(lemma, art.id)] = (score, art.author_id)
                aggregate[lemma] = max(aggregate.get(lemma, score), score)

    dropped = {
        lemma
        for lemma, _ in sorted(aggregate.items(), key=lambda kv: (kv[1], kv[0]))[: params.drop_lowest]
    }

    ranked = sorted(
        ((lemma, art_id, score, author) for (lemma, art_id), (score, author) in pair_scores.items()
         if lemma not in dropped),
        key=lambda item: (-item[2], item[0], item[1]),
    )[: params.top_k]

    best: dict[tuple[str, str], float] = {}
    for lemma, _, score, author in ranked:
        key = (lemma, author)
        if key not in best or score > best[key]:
            best[key] = score
    return [
        SelectedWord(lemma, author, score)
        for (lemma, author), score in sorted(best.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
    ]
