"""Walk through the word-selection pipeline on a tiny hand-written reading.

Prints the intermediate quantities (counts, document frequencies, tf-idf
scores) next to the final selection so each stage is visible.
"""

from collections import Counter

from aicnet.corpus import Artifact, Corpus, Quote, Reading
from aicnet.textpipe import WordSelectionParams, noun_lemmas, select_cn_words, tfidf


def main() -> None:
    bodies = {
        "d1": ("ana", "the pedagogy of rhythm: pedagogy, pedagogy and rhythm in dance classes"),
        "d2": ("ben", "costume and pedagogy; pedagogy shaped costume choices and the waltz"),
        "d3": ("ana", "rhythm rhythm waltz waltz waltz and the history of costume"),
        "d4": ("ben", "pedagogy again, with rhythm and costume and costume everywhere"),
    }
    reading = Reading(id="r1")
    reading.quotes["q1"] = Quote(id="q1", reading_id="r1", text="a passage")
    for art_id, (author, body) in bodies.items():
        reading.artifacts.append(
            Artifact(id=art_id, author_id=author, reading_id="r1",
                     kind="annotation", body=body, quote_id="q1")
        )
    corpus = Corpus(readings={"r1": reading}, authors={"ana", "ben"})

    totals: Counter = Counter()
    for art in reading.artifacts:
        lemmas = noun_lemmas(art.body)
        totals.update(lemmas)
        print(f"{art.id} ({art.author_id}): nouns = {lemmas}")

    print("\nreading-wide counts:", dict(sorted(totals.items())))

    print("\ntf-idf per (word, document):")
    for art in reading.artifacts:
        for lemma in sorted(set(noun_lemmas(art.body))):
            print(f"  {lemma:>9} in {art.id}: {tfidf(lemma, art, reading):.4f}")

    params = WordSelectionParams(min_frequency=4, drop_lowest=1, top_k=10)
    print(f"\nselection with floor {params.min_frequency}, "
          f"drop {params.drop_lowest}, top {params.top_k}:")
    for sel in select_cn_words(reading, params):
        print(f"  {sel.lemma} ({sel.author_id}) score {sel.score:.4f}")


if __name__ == "__main__":
    main()
