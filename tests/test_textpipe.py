"""Tokenizer, lemmatizer, noun filter, tf-idf, and word selection."""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aicnet import textpipe
from aicnet.corpus import Reading, load_corpus
from aicnet.errors import AicnetError
from aicnet.synth import generate, random_params
from aicnet.textpipe import (
    WordSelectionParams,
    _documents,
    _lemmatize,
    default_noun_lexicon,
    lemmatize,
    load_wordlist,
    noun_lemmas,
    select_cn_words,
    tfidf,
    tokenize,
)

from conftest import mk_corpus
from oracles import (
    oracle_documents,
    oracle_lemmatize,
    oracle_noun_lemmas,
    oracle_select_cn_words,
    oracle_tokenize,
)

LN2 = math.log(2.0)
LN43 = math.log(4.0 / 3.0)


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_strips_punctuation():
    assert tokenize("Dancers' bodies move.") == ["dancers", "bodies", "move"]


def test_tokenize_keeps_internal_hyphens():
    assert tokenize("co-construction of ideas") == ["co-construction", "of", "ideas"]


@pytest.mark.parametrize("text, tokens", [
    ("\u212a", ["k"]),  # the Kelvin sign lowers to ASCII "k"
    ("\u0130stanbul", ["i", "stanbul"]),  # lowers to "i" and a combining dot, which is no \w
    ("Stra\u00dfe", ["stra\u00dfe"]),
    ("snake_case 2023 x2", ["snake_case", "2023", "x2"]),
    ("learner\u2019s learner's", ["learner", "s", "learner's"]),  # only ' and - join
    ("a--b -x- 'y' rock'n'roll", ["a", "b", "x", "y", "rock'n'roll"]),
])
def test_tokenize_cases(text, tokens):
    assert tokenize(text) == oracle_tokenize(text) == tokens


# ASCII letters, digits, joiners and separators, and characters whose case
# mapping or \w class differs between the ASCII and Unicode rules
_TOKEN_CHARS = list("aZk09_ '-.,\n") + [
    "\u212a", "\u0130", "\u00df", "\u00e9", "\u03a9", "\u01c5", "\u0307", "\u0663",
    "\u00a0", "\u2019", "\u00b2", "\u017f",
]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet=st.characters(max_codepoint=127)),
                 st.text(alphabet=st.sampled_from(_TOKEN_CHARS)), st.text()))
@example("caf\u00e9 ballet").via("ASCII words beside a non-ASCII one")
def test_tokenize_equals_the_unicode_oracle(text):
    assert tokenize(text) == oracle_tokenize(text)


def test_tokenize_equals_the_unicode_oracle_on_every_short_string():
    # every joiner placement the ASCII path must handle, up to three joiners in a row
    for n in range(7):
        for chars in product("a0_'- .", repeat=n):
            text = "".join(chars)
            assert tokenize(text) == oracle_tokenize(text), text


@pytest.mark.parametrize("text, path", [
    ("Ballet, rhythm", "_TOKEN_BYTES"),
    ("\u212a", "_TOKEN_BYTES"),  # ASCII once lowered
    ("co-construction, dancers'", "_LONE_JOINER then _TOKEN_BYTES"),
    ("it's", "_LONE_JOINER then _TOKEN_BYTES"),
    ("caf\u00e9", "_TOKEN"),
    ("\u0130stanbul", "_TOKEN"),
])
def test_tokenize_takes_the_ascii_pattern_when_the_lowered_text_is_ascii(monkeypatch, text, path):
    used = []
    real_token, real_joiner = textpipe._TOKEN, textpipe._LONE_JOINER
    monkeypatch.setattr(textpipe, "_TOKEN", SimpleNamespace(
        findall=lambda s: used.append("_TOKEN") or real_token.findall(s)))
    monkeypatch.setattr(textpipe, "_LONE_JOINER", SimpleNamespace(
        sub=lambda repl, s: used.append("_LONE_JOINER") or real_joiner.sub(repl, s)))
    assert tokenize(text) == oracle_tokenize(text)
    assert used == {"_TOKEN_BYTES": [], "_TOKEN": ["_TOKEN"],
                    "_LONE_JOINER then _TOKEN_BYTES": ["_LONE_JOINER"]}[path]


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
    assert lemmatize(surface) == oracle_lemmatize(surface, default_noun_lexicon()) == lemma


# stems and endings around every rule's letter count and exceptions
_STEMS = ["", "a", "b", "sk", "ti", "cla", "her", "bo", "stop", "danc", "glorp", "ss", "u", "i"]
_ENDINGS = ["", "s", "es", "ies", "sses", "shes", "ches", "xes", "zes", "oes", "us", "is", "ss",
            "ing", "ed", "ping", "ped", "eing", "ied"]


@settings(max_examples=400, deadline=None)
@given(st.tuples(st.sampled_from(_STEMS), st.sampled_from(_ENDINGS)).map("".join)
       | st.text(alphabet="abdegiknoprstuxyz", max_size=9),
       st.sampled_from(["bundled", "empty", "glorp"]))
@example("skies", "bundled")  # 5 letters: -ies -> -y, where the -s rule would give "skie"
@example("ties", "bundled")
@example("oxes", "bundled")
@example("boxes", "bundled")
@example("stopping", "glorp")
@example("glorpped", "glorp")
def test_lemmatize_equals_the_readme_oracle(surface, lexicon):
    lexicon = {"bundled": default_noun_lexicon(), "empty": frozenset(),
               "glorp": frozenset({"glorp", "stop", "dance"})}[lexicon]
    assert _lemmatize(surface, lexicon) == oracle_lemmatize(surface, lexicon)


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


def test_replacement_lexicon_reaches_the_lemmatizer():
    # -ing and -ed come off only onto a stem in the lexicon the noun rule reads
    glorps, lexicon = "glorp glorps glorping glorped", frozenset({"glorp"})
    assert noun_lemmas(glorps, lexicon) == oracle_noun_lemmas(glorps, lexicon) == ["glorp"] * 4
    assert [lemmatize(w) for w in glorps.split()] == ["glorp", "glorp", "glorping", "glorped"]


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
    reversed_reading = Reading("r1", reading.quotes, reversed(reading.artifacts))
    assert select_cn_words(reversed_reading) == select_cn_words(reading)


def _tie_reading():
    """Five lemmas, each once in one of three documents: every score is ln 3."""
    return mk_corpus(
        quotes=[("q1", "r1", "t")],
        annotations=[("d1", "r1", "A", "q1", "ballet rhythm"),
                     ("d2", "r1", "B", "q1", "music tempo"),
                     ("d3", "r1", "C", "q1", "costume")],
    ).readings["r1"]


_BY_LEMMA = [("ballet", "A"), ("costume", "C"), ("music", "B"), ("rhythm", "A"), ("tempo", "B")]


@pytest.mark.parametrize("top_k", range(1, 6))
def test_equal_scores_across_the_top_k_cut_keep_the_first_lemmas(top_k):
    reading, params = _tie_reading(), WordSelectionParams(1, 0, top_k)
    selection = select_cn_words(reading, params)
    assert selection == oracle_select_cn_words(reading, params)
    assert [(s.lemma, s.author_id) for s in selection] == _BY_LEMMA[:top_k]
    assert {s.score for s in selection} == {math.log(3)}


@pytest.mark.parametrize("drop", range(0, 6))
def test_equal_scores_across_the_drop_cut_drop_the_first_lemmas(drop):
    reading, params = _tie_reading(), WordSelectionParams(1, drop, 70)
    selection = select_cn_words(reading, params)
    assert selection == oracle_select_cn_words(reading, params)
    assert [(s.lemma, s.author_id) for s in selection] == _BY_LEMMA[drop:]


def test_equal_scores_of_one_lemma_rank_by_artifact_id_not_author():
    reading = mk_corpus(
        quotes=[("q1", "r1", "t")],
        annotations=[("d2", "r1", "a", "q1", "ballet"), ("d1", "r1", "b", "q1", "ballet"),
                     ("d3", "r1", "c", "q1", "music")],
    ).readings["r1"]
    params = WordSelectionParams(1, 0, 2)
    selection = select_cn_words(reading, params)
    assert selection == oracle_select_cn_words(reading, params)
    assert [(s.lemma, s.author_id) for s in selection] == [("music", "c"), ("ballet", "b")]


@pytest.mark.parametrize("top_k, drop, pairs", [
    (70, 0, [("music", "B"), ("rhythm", "A"), ("ballet", "A"), ("ballet", "B")]),
    (3, 0, [("music", "B"), ("rhythm", "A"), ("ballet", "A")]),
    (70, 1, [("music", "B"), ("rhythm", "A")]),
])
def test_a_lemma_in_every_document_scores_positive_zero(top_k, drop, pairs):
    # ballet's idf is ln(2/2) = 0.0, so its ranking key is -0.0
    reading = mk_corpus(
        quotes=[("q1", "r1", "t")],
        annotations=[("d1", "r1", "A", "q1", "ballet ballet rhythm"),
                     ("d2", "r1", "B", "q1", "ballet music")],
    ).readings["r1"]
    params = WordSelectionParams(1, drop, top_k)
    selection = select_cn_words(reading, params)
    assert selection == oracle_select_cn_words(reading, params)
    assert [(s.lemma, s.author_id) for s in selection] == pairs
    zeros = [s.score for s in selection if s.lemma == "ballet"]
    assert all(score == 0.0 and math.copysign(1.0, score) == 1.0 for score in zeros)


@pytest.mark.parametrize("drop, pairs", [
    (0, [("ballet", "A"), ("music", "C"), ("rhythm", "A"), ("ballet", "B"), ("tempo", "C")]),
    # tempo's max is ln 2, the smallest
    (1, [("ballet", "A"), ("music", "C"), ("rhythm", "A"), ("ballet", "B")]),
])
def test_a_repeated_artifact_id_ranks_every_documents_pairs(drop, pairs):
    # the loader refuses a repeated id; a reading built by hand may hold one,
    # and each of its documents ranks its own pairs
    reading = mk_corpus(
        quotes=[("q1", "r1", "t")],
        annotations=[("d1", "r1", "A", "q1", "ballet ballet ballet rhythm"),
                     ("d1", "r1", "B", "q1", "ballet"),
                     ("d2", "r1", "C", "q1", "tempo music"), ("d3", "r1", "C", "q1", "tempo")],
    ).readings["r1"]
    params = WordSelectionParams(1, drop, 70)
    selection = select_cn_words(reading, params)
    assert selection == oracle_select_cn_words(reading, params)
    assert [(s.lemma, s.author_id) for s in selection] == pairs


@pytest.mark.parametrize("first, second", [("B", "A"), ("A", "B")])
def test_a_repeated_artifact_id_ties_by_author(first, second):
    # ballet/d1 ties on (score, lemma, artifact id); the top_k cut keeps author A's
    reading = mk_corpus(
        quotes=[("q1", "r1", "t")],
        annotations=[("d1", "r1", first, "q1", "ballet"), ("d1", "r1", second, "q1", "ballet"),
                     ("d2", "r1", "C", "q1", "music")],
    ).readings["r1"]
    params = WordSelectionParams(1, 0, 2)
    selection = select_cn_words(reading, params)
    assert selection == oracle_select_cn_words(reading, params)
    assert [(s.lemma, s.author_id) for s in selection] == [("music", "C"), ("ballet", "A")]


@pytest.mark.parametrize("twelve, nine, drop, top_k, kept", [
    # the top-k cut keeps alpha by lemma, though zeta's float is the larger
    ("alpha", "zeta", 0, 1, {"alpha"}),
    # the drop cut drops alpha by lemma, though zeta's float is the smaller
    ("zeta", "alpha", 1, 70, {"zeta"}),
], ids=["top_k", "drop"])
def test_equal_tfidf_with_unequal_floats_ties_by_lemma(twelve, nine, drop, top_k, kept):
    # 16 documents: twelve in 12 (twice in one), nine in 9; 2 ln(16/12) = ln(16/9) exactly,
    # but the floats are 0.5753641449035617 and 0.5753641449035618
    bodies = [f"{twelve} {twelve}"] + [twelve] * 6 + [f"{twelve} {nine}"] * 5 + [nine] * 4
    reading = mk_corpus(
        quotes=[("q1", "r1", "t")],
        annotations=[(f"d{i:02}", "r1", f"a{i}", "q1", body) for i, body in enumerate(bodies)],
    ).readings["r1"]
    assert 2 * math.log(16 / 12) < math.log(16 / 9)
    params = WordSelectionParams(1, drop, top_k, noun_lexicon=frozenset({"alpha", "zeta"}))
    selection = select_cn_words(reading, params)
    assert selection == oracle_select_cn_words(reading, params)
    assert {s.lemma for s in selection} == kept


@st.composite
def _ranking_inputs(draw):
    """Readings whose artifact ids may repeat and that may hold a lemma in every
    document (idf 0), with a top_k that may end inside a (score, lemma) group."""
    n_arts = draw(st.integers(1, 8))
    n_ids = draw(st.integers(1, n_arts))
    everywhere = draw(st.booleans())
    annotations = []
    for _ in range(n_arts):
        words = draw(st.lists(st.sampled_from(_WORDS[:6]), min_size=0 if everywhere else 1,
                              max_size=8))
        words += ["dance"] * draw(st.integers(1, 3)) if everywhere else []
        annotations.append((f"d{draw(st.integers(0, n_ids - 1))}", "r1",
                            f"a{draw(st.integers(1, 3))}", "q1", " ".join(words)))
    reading = mk_corpus(quotes=[("q1", "r1", "t")], annotations=annotations).readings["r1"]
    return reading, WordSelectionParams(draw(st.integers(1, 3)), draw(st.integers(0, 3)),
                                        draw(st.integers(1, 12)))


@settings(max_examples=300, deadline=None)
@given(_ranking_inputs())
def test_selection_equals_oracle_where_ids_repeat_cuts_split_groups_or_idf_is_zero(inputs):
    reading, params = inputs
    selection = select_cn_words(reading, params)
    assert selection == oracle_select_cn_words(reading, params)
    reading = Reading(reading.id, reading.quotes, reversed(reading.artifacts))
    assert select_cn_words(reading, params) == selection


# per N, the pairs of (tf, df) with tf <= 3 and equal tf-idf: (N/df1)^tf1 = (N/df2)^tf2;
# some differ as floats, as 1 ln(16/9) and 2 ln(16/12) do
_TIES = {n: [(a, b) for a, b in combinations([(tf, df) for tf in (1, 2, 3) for df in range(1, n)], 2)
             if a[0] != b[0] and Fraction(n, a[1]) ** a[0] == Fraction(n, b[1]) ** b[0]]
         for n in (16, 64, 81)}
_GREEK = ["alpha", "beta", "gamma", "delta", "zeta", "theta", "kappa", "sigma"]


@st.composite
def _planted_ties(draw):
    """N documents, each holding ``omega`` (idf 0), two lemmas of one tie of
    ``_TIES`` and up to four more, each lemma with one tf in each of its df
    documents; top_k at most the pairs."""
    n_docs = draw(st.sampled_from(sorted(_TIES)))
    lemmas = draw(st.permutations(_GREEK))[:draw(st.integers(2, 6))]
    plan = [*draw(st.sampled_from(_TIES[n_docs])),
            *[(draw(st.integers(1, 3)), draw(st.integers(1, n_docs))) for _ in lemmas[2:]]]
    bodies: list[list[str]] = [["omega"] for _ in range(n_docs)]
    for lemma, (tf, df) in zip(lemmas, plan):
        start = draw(st.integers(0, n_docs - 1))
        for j in range(start, start + df):
            bodies[j % n_docs] += [lemma] * tf
    reading = mk_corpus(
        quotes=[("q1", "r1", "t")],
        annotations=[(f"d{i:02}", "r1", f"a{draw(st.integers(1, 4))}", "q1", " ".join(body))
                     for i, body in enumerate(bodies)],
    ).readings["r1"]
    params = WordSelectionParams(1, draw(st.integers(0, 3)),
                                 draw(st.integers(1, sum(df for _, df in plan))),
                                 noun_lexicon=frozenset(_GREEK + ["omega"]))
    return reading, params


@settings(max_examples=300, deadline=None)
@given(_planted_ties())
def test_selection_equals_oracle_on_planted_exact_ties(inputs):
    reading, params = inputs
    assert select_cn_words(reading, params) == oracle_select_cn_words(reading, params)


def _exact_ranks(n_docs: int, pairs: list[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """Each (tf, df) pair's rank among the distinct rationals (N/df)^tf, ascending."""
    values = {pair: Fraction(n_docs, pair[1]) ** pair[0] for pair in pairs}
    index = {value: i for i, value in enumerate(sorted(set(values.values())))}
    return {pair: index[value] for pair, value in values.items()}


@st.composite
def _rank_inputs(draw):
    """N and its (tf, df) pairs: ties of ``_TIES`` scaled by up to 1,000, whose
    floats may differ, and pairs of tf up to 3 or in the thousands."""
    n_docs = draw(st.sampled_from(sorted(_TIES)) | st.integers(2, 300))
    ties, pairs = _TIES.get(n_docs), set()
    for a, b in draw(st.lists(st.sampled_from(ties), max_size=4)) if ties else []:
        k = draw(st.integers(1, 1000))
        pairs |= {(a[0] * k, a[1]), (b[0] * k, b[1])}
    pairs |= set(draw(st.lists(st.tuples(st.integers(1, 3) | st.integers(1000, 3000),
                                         st.integers(1, n_docs)),
                               min_size=0 if pairs else 1, max_size=12)))
    return n_docs, sorted(pairs)


@settings(max_examples=300, deadline=None)
@given(_rank_inputs())
# equal values, floats 0.5753641449035617 and 0.5753641449035618
@example((16, [(1, 9), (2, 12)]))
# the first two differ by 2.1809e-10: tf 1153 puts that gap just inside the
# slack, so integers decide it, and tf 1152 just beyond it, so floats do
@example((287, [(124, 210), (289, 251), (1153, 287)]))
@example((287, [(124, 210), (289, 251), (1152, 287)]))
def test_tfidf_ranks_equal_the_exact_ranks(inputs):
    n_docs, pairs = inputs
    scores = {(tf, df): tf * math.log(n_docs / df) for tf, df in pairs}
    assert textpipe._tfidf_ranks(n_docs, scores) == _exact_ranks(n_docs, pairs)


def test_selection_equals_oracle_where_one_lemma_per_document_has_tf_in_the_thousands():
    # 100 documents, w00 to w99, wi 20 (i + 1) times in document i alone
    lemmas = [f"w{i:02}" for i in range(100)]
    reading = mk_corpus(
        quotes=[("q1", "r1", "t")],
        annotations=[(f"d{i:02}", "r1", f"a{i % 7}", "q1", " ".join([lemma] * 20 * (i + 1)))
                     for i, lemma in enumerate(lemmas)],
    ).readings["r1"]
    params = WordSelectionParams(noun_lexicon=frozenset(lemmas))
    selection = select_cn_words(reading, params)
    assert selection == oracle_select_cn_words(reading, params)
    assert [s.lemma for s in selection] == lemmas[:29:-1]


# sha-256 prefixes of the selections, under the default parameters and under
# 1/0/70, of every reading of each workload's full-size benchmark corpus, as
# the selection gave them before it ranked (lemma, tf) groups
_WORKLOAD_SELECTIONS = {
    ("attention_dense", 0): "8dd2e6e8c5dc24b5",
    ("attention_dense", 5): "5771fe2e307f10ad",
    ("attention_dense", 11): "2770fec8a8eab1c5",
    ("class_roster", 0): "720d06e6e8ee9da0",
    ("class_roster", 5): "2c9fee98711aef01",
    ("class_roster", 11): "4f9f9e6a6e619e86",
    ("creation_text", 0): "2cf63e0719189b88",
    ("creation_text", 5): "1d122aaf2edb05be",
    ("creation_text", 11): "b28f7c54d269ecc1",
}


def _selection_digest(corpus) -> str:
    selections = [[rid, [list(map(list, select_cn_words(corpus.readings[rid], params)))
                         for params in (WordSelectionParams(), WordSelectionParams(1, 0, 70))]]
                  for rid in sorted(corpus.readings)]
    return hashlib.sha256(json.dumps(selections).encode()).hexdigest()[:16]


@pytest.mark.parametrize("workload, seed", sorted(_WORKLOAD_SELECTIONS))
def test_workload_selections_equal_the_recorded_ones(bench, tmp_path, workload, seed):
    inputs, _ = bench.prepare(workload, seed, tmp_path, bench.corpora.SIZES[workload])
    corpus = load_corpus(inputs.corpus, bench.corpora.FORMATS[workload])
    assert _selection_digest(corpus) == _WORKLOAD_SELECTIONS[workload, seed]


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

    def counting(surface: str, lexicon: frozenset[str]) -> str:
        calls[surface] += 1
        return _lemmatize(surface, lexicon)

    monkeypatch.setattr(textpipe, "_lemmatize", counting)  # the oracle has its own lemmatizer
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


def test_load_wordlist_lines_end_at_a_line_feed_alone(tmp_path):
    # str.splitlines would also end a line at these three; a term keeps them
    path = tmp_path / "words.txt"
    path.write_text("foo\u2028bar\nnext\x85line\r\nform\x0cfeed\n", encoding="utf-8")
    assert load_wordlist(path) == frozenset({"foo\u2028bar", "next\x85line", "form\x0cfeed"})


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
