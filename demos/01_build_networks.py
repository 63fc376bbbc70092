"""Build the three networks for one discussion and print their edges.

The corpus here is synthetic: three attention groups, a handful of replies,
and two planted shared-vocabulary pairs, so every edge below is explainable.
"""

from aicnet.graphs import build_an, build_cn_bipartite, build_in, project
from aicnet.synth import SynthParams, generate


def show(label: str, graph) -> None:
    print(f"\n{label}: {len(graph.nodes)} nodes, {len(graph.edges)} edges")
    for (u, v), w in sorted(graph.edges.items()):
        print(f"  {u} -- {v}  weight {w:g}")
    isolates = sorted(v for v in graph.nodes if graph.degree(v) == 0)
    if isolates:
        print(f"  isolated: {', '.join(isolates)}")


def main() -> None:
    params = SynthParams(
        n_quotes=4,
        attention_blocks=(("ana", "ben", "cleo"), ("dina", "eli"), ("fay",)),
        reply_edges=(("ana", "ben"), ("ana", "ben"), ("cleo", "dina"), ("eli", "fay")),
        vocab_overlap={("ana", "dina"): 2, ("ben", "fay"): 1},
        seed=20,
    )
    corpus, store, _ = generate(params)
    reading = corpus.readings["r1"]

    print(f"reading {reading.id}: {len(reading.annotations)} annotations, "
          f"{len(reading.replies)} replies, {len(reading.quotes)} quotes")

    show("attention network (shared or similar quotes)",
         build_an(reading, corpus, store, tau=0.8))
    show("interaction network (direct replies)",
         build_in(reading, corpus))
    show("creation network (shared selected words)",
         project(build_cn_bipartite(reading, corpus)))


if __name__ == "__main__":
    main()
