"""Compute node- and network-level measure tables for a two-reading class.

Shows the same tables the CLI prints: one column per student, "na" for
isolated or absent students, two decimals for display.
"""

from aicnet.graphs import build_an, build_cn_bipartite, build_in, project
from aicnet.metrics import network_report, node_report
from aicnet.synth import SynthParams, generate


def fmt(value: float | None) -> str:
    return "na" if value is None else f"{value:.2f}"


def main() -> None:
    reading_specs = {
        "r1": SynthParams(
            n_quotes=4,
            attention_blocks=(("s1", "s2", "s3"), ("s4", "s5"), ("s6",), ("s7",)),
            reply_edges=(("s1", "s2"), ("s1", "s3"), ("s2", "s3"), ("s4", "s5"), ("s1", "s4")),
            vocab_overlap={("s1", "s2"): 1, ("s2", "s4"): 1},
            seed=31,
        ),
        "r2": SynthParams(
            n_quotes=4,
            attention_blocks=(("s1", "s4", "s6"), ("s2", "s5"), ("s3",), ("s7",)),
            reply_edges=(("s4", "s6"), ("s2", "s5"), ("s2", "s5"), ("s6", "s1")),
            vocab_overlap={("s1", "s6"): 2},
            seed=32,
        ),
    }

    graphs = {}
    roster: set[str] = set()
    for rid, params in reading_specs.items():
        corpus, store, _ = generate(params, reading_id=rid, id_prefix=f"{rid}-")
        reading = corpus.readings[rid]
        roster |= reading.active_authors()
        graphs[rid] = (
            build_an(reading, corpus, store),
            build_in(reading, corpus),
            project(build_cn_bipartite(reading, corpus)),
        )

    for rid, (an, in_, cn) in graphs.items():
        rows = node_report(an, in_, cn, roster)
        print(f"\nnode-level measures, reading {rid}")
        print("  student        " + "  ".join(f"{r.author_id:>5}" for r in rows))
        print("  AN closeness   " + "  ".join(f"{fmt(r.an_closeness):>5}" for r in rows))
        print("  IN betweenness " + "  ".join(f"{fmt(r.in_betweenness):>5}" for r in rows))
        print("  CN betweenness " + "  ".join(f"{fmt(r.cn_betweenness):>5}" for r in rows))

    print("\nnetwork-level measures")
    print("  reading  AN transitivity  IN centralization  CN transitivity")
    for row in network_report(graphs):
        print(f"  {row.reading_id:<7}  {fmt(row.an_transitivity):>15}  "
              f"{fmt(row.in_centralization):>17}  {fmt(row.cn_transitivity):>15}")


if __name__ == "__main__":
    main()
