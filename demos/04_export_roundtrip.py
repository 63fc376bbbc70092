"""Export a network to GraphML, DOT and JSON, then read the JSON back.

The files are written into ./demo_out so you can open them in Gephi,
Cytoscape, or graphviz. aicnet only writes them: the JSON export is read
back here with the standard library's ``json`` module.
"""

import json
from pathlib import Path

from aicnet.export import write_dot, write_graphml, write_json
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
    paths = [out / f"attention.{suffix}" for suffix in ("graphml", "dot", "json")]
    for path, write in zip(paths, (write_graphml, write_dot, write_json)):
        write(graph, path, name="attention")
    print("wrote", ", ".join(path.as_posix() for path in paths))

    data = json.loads(paths[2].read_text(encoding="utf-8"))
    nodes = {node["id"] for node in data["nodes"]}
    edges = {(edge["source"], edge["target"]): edge["weight"] for edge in data["edges"]}
    same = nodes == graph.nodes and edges == graph.edges
    print(f"json.loads of the JSON export equals the graph: {same}")

    print("\nsame export via the command line:")
    print("  aicnet synth --seed 8 --authors 5 --blocks kim,lee,mia|noa|oli "
          "--reply-edges kim:noa --out demo_out/synth")
    print("  aicnet build demo_out/synth/corpus.jsonl --reading r1 --network an "
          "--embeddings demo_out/synth/embeddings.jsonl --format graphml,dot,json "
          "--out demo_out")


if __name__ == "__main__":
    main()
