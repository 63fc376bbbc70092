"""Tokenizer, lemmatizer, noun filter, tf-idf, and word selection."""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aicnet import textpipe
from aicnet.errors import AicnetError
from aicnet.synth import generate, random_params
from aicnet.textpipe import (
    WordSelectionParams,
    _documents,
    lemmatize,
    load_wordlist,
    noun_lemmas,
    select_cn_words,
    tfidf,
    tokenize,
)

from conftest import mk_corpus
from oracles import oracle_documents, oracle_noun_lemmas, oracle_select_cn_words

LN2 = math.log(2.0)
LN43 = math.log(4.0 / 3.0)


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_strips_punctuation():
    assert tokenize("Dancers' bodies move.") == ["dancers", "bodies", "move"]


def test_tokenize_keeps_internal_hyphens():
    assert tokenize("co-construction of ideas") == ["co-construction", "of", "ideas"]


@pytest.mark.parametrize(
    "surface,lemma",
    [
        ("dance", "dance"),
        ("bodies", "body"),
        ("children", "child"),
        ("classes", "class"),
        ("ideas", "idea"),
        ("dancing", "dance"),  # -ing with e-restoration, stem in lexicon
        ("movements", "movement"),
        ("analysis", "analysis"),  # -is guard
    ],
)
def test_lemmatize(surface, lemma):
    assert lemmatize(surface) == lemma


def test_noun_lemmas_empty():
    assert noun_lemmas("") == []


def test_noun_lemmas_suffix_heuristic():
    # "move" is tagged other
    assert noun_lemmas("movement move intertextuality") == ["movement", "intertextuality"]


def test_noun_lemmas_drops_stopwords():
    assert noun_lemmas("the about them because") == []


def test_noun_lemmas_replacement_lexicon():
    # the lexicon replaces the bundled one; the suffix rule still applies
    assert noun_lemmas("zorps ballet movement", frozenset({"zorp"})) == ["zorp", "movement"]
    assert noun_lemmas("zorps ballet movement", frozenset()) == ["movement"]


def test_bundled_stopword_surface_is_never_a_noun():
    # "does" and "ourselves" are stopwords whose lemmas are not
    lexicon = frozenset({"doe", "ourselve"})
    assert [lemmatize(w) for w in ("does", "ourselves")] == ["doe", "ourselve"]
    assert noun_lemmas("does ourselves doe", lexicon) == ["doe"]


def _cn_reading():
    """Four documents with designed noun counts (see the selection walk below)."""
    corpus = mk_corpus(
        quotes=[("q1", "r1", "first quote"), ("q2", "r1", "second quote")],
        annotations=[
            ("d1", "r1", "A", "q1",
             "pedagogy pedagogy pedagogy curriculum curriculum rhythm rhythm tempo ballet"),
            ("d2", "r1", "B", "q2",
             "pedagogy pedagogy pedagogy curriculum curriculum curriculum "
             "costume costume waltz waltz posture"),
        ],
        replies=[
            ("d3", "r1", "A", "d2", "rhythm rhythm rhythm costume costume tempo tempo waltz "
                                    "ballet ballet"),
            ("d4", "r1", "B", "d1", "costume tempo tempo waltz waltz posture posture posture "
                                    "posture ballet ballet"),
        ],
    )
    return corpus.readings["r1"]


def test_tfidf_hand_computed():
    reading = _cn_reading()
    d1 = reading.artifact_by_id("d1")
    d4 = reading.artifact_by_id("d4")
    # N=4 docs; pedagogy df=2; tempo df=3
    assert tfidf("pedagogy", d1, reading) == pytest.approx(3 * LN2, abs=1e-12)
    assert tfidf("tempo", d4, reading) == pytest.approx(2 * LN43, abs=1e-12)
    assert tfidf("pedagogy", d4, reading) == 0.0  # tf = 0


def test_tfidf_df_one():
    corpus = mk_corpus(
        quotes=[("q1", "r1", "t")],
        annotations=[
            ("d1", "r1", "A", "q1", "ballet ballet"),
            ("d2", "r1", "A", "q1", "music"),
            ("d3", "r1", "B", "q1", "music"),
            ("d4", "r1", "B", "q1", "music"),
        ],
    )
    reading = corpus.readings["r1"]
    d1 = reading.artifact_by_id("d1")
    # 4 docs, count 2 in d1, df = 1 -> 2 ln 4
    assert tfidf("ballet", d1, reading) == pytest.approx(2 * math.log(4), abs=1e-12)
    assert tfidf("ballet", d1, reading) == pytest.approx(2.7726, abs=1e-4)


def test_tfidf_everywhere_is_zero():
    corpus = mk_corpus(
        quotes=[("q1", "r1", "t")],
        annotations=[(f"d{i}", "r1", "A", "q1", "music music") for i in range(4)],
    )
    reading = corpus.readings["r1"]
    assert tfidf("music", reading.artifact_by_id("d0"), reading) == 0.0  # df = N


def test_select_cn_words_default_params():
    """Full hand walk of the selection over the fixture reading.

    Totals: pedagogy 6, the rest exactly 5, so all eight words clear the floor.
    Max tf-idf per word: posture 4ln2 > pedagogy = curriculum = rhythm 3ln2
    > tempo = ballet = costume = waltz 2ln(4/3). Dropping the five lowest
    removes the four 2ln(4/3) words plus (lexicographic tie) curriculum.
    Surviving pairs all fit in top 70; per-author dedupe keeps the max score.
    """
    selection = select_cn_words(_cn_reading())
    got = {(s.lemma, s.author_id): s.score for s in selection}
    assert got.keys() == {
        ("posture", "B"), ("pedagogy", "A"), ("pedagogy", "B"), ("rhythm", "A"),
    }
    assert got[("posture", "B")] == pytest.approx(4 * LN2, abs=1e-12)
    assert got[("pedagogy", "A")] == pytest.approx(3 * LN2, abs=1e-12)
    assert got[("pedagogy", "B")] == pytest.approx(3 * LN2, abs=1e-12)
    assert got[("rhythm", "A")] == pytest.approx(3 * LN2, abs=1e-12)  # max over d1, d3


def test_select_cn_words_top_one():
    selection = select_cn_words(_cn_reading(), WordSelectionParams(top_k=1))
    assert [(s.lemma, s.author_id) for s in selection] == [("posture", "B")]
    assert selection[0].score == pytest.approx(4 * LN2, abs=1e-12)


def test_select_empty_when_below_floor():
    corpus = mk_corpus(
        quotes=[("q1", "r1", "t")],
        annotations=[("d1", "r1", "A", "q1", "ballet music rhythm")],
    )
    assert select_cn_words(corpus.readings["r1"]) == []


def test_select_dedupes_same_author_only():
    corpus = mk_corpus(
        quotes=[("q1", "r1", "t"), ("q2", "r1", "t2")],
        annotations=[
            ("d1", "r1", "A", "q1", "pedagogy pedagogy pedagogy music"),
            ("d2", "r1", "A", "q2", "pedagogy pedagogy rhythm"),
            ("d3", "r1", "B", "q1", "pedagogy pedagogy pedagogy pedagogy pedagogy dance"),
        ],
    )
    params = WordSelectionParams(min_frequency=5, drop_lowest=0, top_k=70)
    selection = select_cn_words(corpus.readings["r1"], params)
    pairs = [(s.lemma, s.author_id) for s in selection]
    assert pairs.count(("pedagogy", "A")) == 1  # d1 and d2 collapse
    assert pairs.count(("pedagogy", "B")) == 1


def test_selection_insensitive_to_artifact_order():
    reading = _cn_reading()
    reversed_reading = mk_corpus(
        quotes=[(q.id, "r1", q.text) for q in reading.quotes.values()],
        annotations=[],
    ).readings["r1"]
    reversed_reading.artifacts = list(reversed(reading.artifacts))
    assert select_cn_words(reversed_reading) == select_cn_words(reading)


def test_extra_stopwords_excluded():
    params = WordSelectionParams(drop_lowest=0, stopwords=frozenset({"pedagogy"}))
    selection = select_cn_words(_cn_reading(), params)
    assert all(s.lemma != "pedagogy" for s in selection)


# -- properties ----------------------------------------------------------------

_WORDS = ["ballet", "rhythm", "music", "costume", "pedagogy", "tempo", "history", "dance"]


@st.composite
def readings(draw):
    n_authors = draw(st.integers(1, 3))
    n_arts = draw(st.integers(1, 6))
    annotations = []
    for i in range(n_arts):
        author = f"a{draw(st.integers(1, n_authors))}"
        words = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12))
        annotations.append((f"d{i}", "r1", author, "q1", " ".join(words)))
    corpus = mk_corpus(quotes=[("q1", "r1", "t")], annotations=annotations)
    return corpus.readings["r1"]


@settings(max_examples=60, deadline=None)
@given(readings(), st.integers(1, 6), st.integers(0, 4), st.integers(1, 20))
def test_selection_bounds(reading, min_freq, drop, top_k):
    params = WordSelectionParams(min_frequency=min_freq, drop_lowest=drop, top_k=top_k)
    selection = select_cn_words(reading, params)
    assert len(selection) <= top_k
    assert len({(s.lemma, s.author_id) for s in selection}) == len(selection)
    totals: dict[str, int] = {}
    for art in reading.artifacts:
        for lemma in noun_lemmas(art.body):
            totals[lemma] = totals.get(lemma, 0) + 1
    for s in selection:
        assert totals[s.lemma] >= min_freq
        assert s.score >= 0.0


@settings(max_examples=40, deadline=None)
@given(readings(), st.integers(1, 5), st.integers(1, 3))
def test_candidate_set_monotone_in_frequency_floor(reading, min_freq, bump):
    def candidates(mf: int) -> set[str]:
        totals: dict[str, int] = {}
        for art in reading.artifacts:
            for lemma in noun_lemmas(art.body):
                totals[lemma] = totals.get(lemma, 0) + 1
        return {w for w, c in totals.items() if c >= mf}

    assert candidates(min_freq + bump) <= candidates(min_freq)


@settings(max_examples=40, deadline=None)
@given(readings())
def test_tfidf_zero_iff_absent_or_everywhere(reading):
    docs = [(a, noun_lemmas(a.body)) for a in reading.artifacts]
    docs = [(a, lemmas) for a, lemmas in docs if lemmas]
    n = len(docs)
    for art, lemmas in docs:
        for lemma in set(lemmas):
            df = sum(1 for _, other in docs if lemma in other)
            score = tfidf(lemma, art, reading)
            if df == n:
                assert score == 0.0
            else:
                assert score > 0.0
    for art, _ in docs:
        assert tfidf("zzz-not-present", art, reading) == 0.0


# -- the one-lookup-per-surface path against the per-token oracle ---------------

# inflections (-ies/-es/-ing/-ed), irregular plurals, internal hyphens and
# apostrophes, non-ASCII letters, stopwords and suffix-rule nouns
_SURFACES = [
    "bodies", "body", "studies", "classes", "boxes", "heroes", "dancing", "danced", "dance",
    "moving", "stopped", "children", "child", "people", "analyses", "criteria", "media",
    "leaves", "news", "series", "co-construction", "co-constructions", "learner's",
    "rock'n'roll", "café", "cafés", "naïveté", "Ökologie", "ÉTUDES", "straße", "pedagogy",
    "pedagogies", "movement", "movements", "intertextuality", "the", "about", "because",
    "ballet", "rhythm", "rhythms", "tempo", "tempos", "costume", "costumed", "x", "is", "bus",
    "does", "ourselves",
]
_SEPARATORS = [" ", "  ", ", ", ". ", "\n", " -", "' ", " \"", "; "]

_texts = st.lists(
    st.tuples(st.one_of(st.sampled_from(_SURFACES), st.text(max_size=8)),
              st.sampled_from(_SEPARATORS)),
    max_size=25,
).map(lambda parts: "".join(word + sep for word, sep in parts))


@st.composite
def _selection_inputs(draw):
    n_authors = draw(st.integers(1, 3))
    bodies = draw(st.lists(_texts, min_size=1, max_size=6))
    corpus = mk_corpus(
        quotes=[("q1", "r1", "t")],
        annotations=[(f"d{i}", "r1", f"a{draw(st.integers(1, n_authors))}", "q1", body)
                     for i, body in enumerate(bodies)],
    )
    lemmas = sorted({lemmatize(w) for body in bodies for w in tokenize(body)})
    stop = frozenset(draw(st.lists(st.sampled_from(lemmas), max_size=3))) if lemmas else frozenset()
    nouns = None
    if draw(st.booleans()):
        nouns = frozenset(draw(st.lists(st.sampled_from(lemmas), max_size=8)) if lemmas else [])
    params = WordSelectionParams(min_frequency=draw(st.integers(1, 3)),
                                 drop_lowest=draw(st.integers(0, 3)),
                                 top_k=draw(st.integers(1, 20)), stopwords=stop,
                                 noun_lexicon=nouns)
    return corpus.readings["r1"], params


def _assert_matches_oracle(reading, params):
    lists = (params.noun_lexicon, params.stopwords)
    for art in reading.artifacts:
        assert noun_lemmas(art.body, *lists) == oracle_noun_lemmas(art.body, *lists)
    got = [(art.id, counts) for art, counts in _documents(reading, *lists)]
    want = [(art.id, counts) for art, counts in oracle_documents(reading, *lists)]
    assert got == want
    assert select_cn_words(reading, params) == oracle_select_cn_words(reading, params)


@settings(max_examples=150, deadline=None)
@given(_selection_inputs())
def test_selection_equals_per_token_oracle(inputs):
    _assert_matches_oracle(*inputs)


@pytest.mark.parametrize("seed", range(20))
def test_selection_equals_oracle_on_synthetic_corpora(seed):
    corpus, _, _ = generate(random_params(seed))
    for reading in corpus.readings.values():
        for params in (WordSelectionParams(), WordSelectionParams(min_frequency=1, drop_lowest=0)):
            _assert_matches_oracle(reading, params)


def test_lemmatize_called_once_per_distinct_surface_per_reading(monkeypatch):
    corpus, _, _ = generate(random_params(3))
    corpus.readings["r2"] = _cn_reading()
    calls: Counter = Counter()

    def counting(surface: str) -> str:
        calls[surface] += 1
        return lemmatize(surface)

    monkeypatch.setattr(textpipe, "lemmatize", counting)  # the oracle keeps its own binding
    for reading in corpus.readings.values():
        calls.clear()
        selection = select_cn_words(reading, WordSelectionParams())
        assert selection == oracle_select_cn_words(reading, WordSelectionParams())
        surfaces = {s for art in reading.artifacts for s in tokenize(art.body)}
        assert calls == Counter(surfaces)


# -- word lists ------------------------------------------------------------------

def test_load_wordlist_skips_blanks_and_comments(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("# heading\n\n  Ballet \r\nrhythm\n#tempo\n", encoding="utf-8")
    assert load_wordlist(path) == frozenset({"ballet", "rhythm"})
    # a leading byte-order mark is not part of the first term
    path.write_bytes(b"\xef\xbb\xbfpedagogy\nrhythm\n")
    assert load_wordlist(path) == frozenset({"pedagogy", "rhythm"})


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=64))
def test_load_wordlist_arbitrary_bytes_only_raises_input_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("words") / "words.txt"
    path.write_bytes(data)
    try:
        load_wordlist(path)
    except AicnetError:
        pass


@pytest.mark.parametrize("field, value, message", [
    ("min_frequency", 0, "min_frequency must be >= 1"),
    ("drop_lowest", -1, "drop_lowest must be >= 0"),
    ("top_k", 0, "top_k must be >= 1"),
])
def test_word_selection_params_refuse_a_count_below_its_floor(field, value, message):
    with pytest.raises(ValueError) as exc:
        WordSelectionParams(**{field: value})
    assert str(exc.value) == message
    WordSelectionParams(**{field: value + 1})
