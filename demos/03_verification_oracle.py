"""The synthetic oracle end to end: plant structure, rebuild, diff.

Also demonstrates what a failure looks like by mutating the corpus (rebuilding
its reading without one reply) and verifying again.
"""

from aicnet.corpus import Reading
from aicnet.synth import SynthParams, generate, verify


def main() -> None:
    params = SynthParams(
        n_quotes=3,
        attention_blocks=(("amy", "bo"), ("cal", "dee"), ("eve",)),
        reply_edges=(("amy", "cal"), ("amy", "cal"), ("bo", "eve")),
        vocab_overlap={("amy", "dee"): 1},
        seed=77,
    )
    corpus, store, gt = generate(params)

    report = verify(corpus, store, gt)
    print("fresh corpus:", report.summary())

    # a reading is fixed when it is made, so the mutant is a new reading
    reading = corpus.readings["r1"]
    victim = next(a for a in reversed(reading.artifacts) if a.kind == "reply")
    kept = [a for a in reading.artifacts if a is not victim]
    corpus.readings["r1"] = Reading(reading.id, reading.quotes, kept)
    print(f"\ndeleted reply {victim.id} (by {victim.author_id})")

    report = verify(corpus, store, gt)
    print("mutated corpus passes:", report.passed)
    print(report.summary())


if __name__ == "__main__":
    main()
