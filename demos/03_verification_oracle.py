"""The synthetic oracle end to end: plant structure, rebuild, diff.

Also demonstrates what a failure looks like by mutating the corpus (deleting
one reply) and verifying again.
"""

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

    reading = corpus.readings["r1"]
    victim = next(a for a in reversed(reading.artifacts) if a.kind == "reply")
    reading.artifacts.remove(victim)
    print(f"\ndeleted reply {victim.id} (by {victim.author_id})")

    report = verify(corpus, store, gt)
    print("mutated corpus passes:", report.passed)
    print(report.summary())


if __name__ == "__main__":
    main()
