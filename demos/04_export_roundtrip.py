"""Export a network to GraphML and DOT, then parse both back.

The files are written into ./demo_out so you can open them in Gephi,
Cytoscape, or graphviz.
"""

from pathlib import Path

from aicnet.export import read_dot, read_graphml, write_dot, write_graphml
from aicnet.graphs import build_an
from aicnet.synth import SynthParams, generate


def main() -> None:
    params = SynthParams(
        n_quotes=3,
        attention_blocks=(("kim", "lee", "mia"), ("noa",), ("oli",)),
        reply_edges=(("kim", "noa"),),
        seed=8,
    )
    corpus, store, _ = generate(params)
    graph = build_an(corpus.readings["r1"], corpus, store)

    out = Path("demo_out")
    out.mkdir(exist_ok=True)
    graphml = out / "attention.graphml"
    dot = out / "attention.dot"
    write_graphml(graph, graphml, name="attention")
    write_dot(graph, dot, name="attention")
    print(f"wrote {graphml} and {dot}")

    for label, loaded in (("graphml", read_graphml(graphml)), ("dot", read_dot(dot))):
        same = loaded.nodes == graph.nodes and loaded.edges == graph.edges
        print(f"{label} parse-back identical: {same}")

    print("\nsame export via the command line:")
    print("  aicnet synth --seed 8 --authors 5 --blocks kim,lee,mia|noa|oli "
          "--reply-edges kim:noa --out demo_out/synth")
    print("  aicnet build demo_out/synth/corpus.jsonl --reading r1 --network an "
          "--embeddings demo_out/synth/embeddings.jsonl --format graphml,dot "
          "--out demo_out")


if __name__ == "__main__":
    main()
