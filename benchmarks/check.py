"""Output checks for the benchmark.

``digest`` fingerprints one command's output (stdout plus every file it wrote).
Run as a script, this module is the networkx oracle: it rebuilds each reading's
three networks with the public builders, computes the measures with networkx,
and compares them with the JSON reports a ``metrics`` run wrote:

    python3 benchmarks/check.py CORPUS [--embeddings FILE] --node DIR --network DIR

It prints one JSON object ``{"mismatches": [...], "versions": {...}}`` and
exits 0 when the oracle ran (mismatches or not), 1 when it could not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

# Brandes accumulation order differs between aicnet and networkx, so
# betweenness can differ in the last bits; every measure is at most 1 and is
# built from at most ~1e5 float additions, so 1e-9 is far above rounding and
# far below any real disagreement.
TOLERANCE = 1e-9


def digest(stdout: bytes, out_dir: Path | None) -> str:
    """SHA-256 over stdout and, in name order, every file in ``out_dir``."""
    h = hashlib.sha256(stdout)
    if out_dir is not None:
        for path in sorted(out_dir.iterdir()):
            h.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _skeleton(g):
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(g.nodes)
    out.add_edges_from(g.edges)
    return out


def _transitivity(g) -> float | None:
    import networkx as nx

    sk = _skeleton(g)
    sk.remove_nodes_from([v for v, d in list(sk.degree) if d == 0])
    if not any(d >= 2 for _, d in sk.degree):
        return None
    return nx.transitivity(sk)


def _centralization(g) -> float | None:
    sk = _skeleton(g)
    degrees = [d for _, d in sk.degree if d > 0]
    n = len(degrees)
    if n < 3:
        return None
    return sum(max(degrees) - d for d in degrees) / ((n - 1) * (n - 2))


def _closeness(g) -> dict[str, float | None]:
    import networkx as nx

    sk = _skeleton(g)
    values = nx.closeness_centrality(sk, wf_improved=False)
    return {v: (values[v] if sk.degree[v] else None) for v in sk.nodes}


def _betweenness(g) -> dict[str, float | None]:
    import networkx as nx

    sk = _skeleton(g)
    sk.remove_nodes_from([v for v, d in list(sk.degree) if d == 0])
    if sk.number_of_nodes() < 3:
        return {}
    return nx.betweenness_centrality(sk, normalized=True)


def _differs(actual: float | None, expected: float | None) -> bool:
    if actual is None or expected is None:
        return actual is not expected
    return abs(actual - expected) > TOLERANCE


def oracle(corpus_path: Path, embeddings: Path | None, node_dir: Path,
           network_dir: Path) -> list[str]:
    """Mismatches between the written reports and networkx on the public
    builders' graphs, built with the CLI's default settings."""
    from aicnet.corpus import load_corpus
    from aicnet.graphs import build_an, build_cn_bipartite, build_in, project
    from aicnet.semantic import embed_quotes, load_embeddings

    fmt = "csv" if corpus_path.suffix.lower() == ".csv" else "jsonl"
    corpus = load_corpus(corpus_path, fmt)
    if embeddings is not None:
        store = load_embeddings(embeddings)
    else:
        store = embed_quotes([q for r in corpus.readings.values() for q in r.quotes.values()])
    network = {row["reading_id"]: row for row in
               json.loads((network_dir / "metrics_network.json").read_text(encoding="utf-8"))}
    problems: list[str] = []
    for rid in sorted(corpus.readings):
        reading = corpus.readings[rid]
        an = build_an(reading, corpus, store)
        in_ = build_in(reading, corpus)
        cn = project(build_cn_bipartite(reading, corpus))
        row = network.get(rid)
        expected = {"an_transitivity": _transitivity(an),
                    "in_centralization": _centralization(in_),
                    "cn_transitivity": _transitivity(cn)}
        for key, value in expected.items():
            if row is None or _differs(row[key], value):
                problems.append(f"network {rid} {key}: report {row and row[key]!r}, networkx {value!r}")

        node_rows = json.loads((node_dir / f"metrics_node_{rid}.json").read_text(encoding="utf-8"))
        if [r["author_id"] for r in node_rows] != sorted(corpus.authors):
            problems.append(f"node {rid}: rows are not the sorted corpus roster")
        measures = {"an_closeness": _closeness(an), "in_betweenness": _betweenness(in_),
                    "cn_betweenness": _betweenness(cn)}
        for r in node_rows:
            for key, values in measures.items():
                if _differs(r[key], values.get(r["author_id"])):
                    problems.append(f"node {rid} {r['author_id']} {key}: report {r[key]!r}, "
                                    f"networkx {values.get(r['author_id'])!r}")
    return problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("corpus", type=Path)
    p.add_argument("--embeddings", type=Path, default=None)
    p.add_argument("--node", type=Path, required=True)
    p.add_argument("--network", type=Path, required=True)
    args = p.parse_args()
    import networkx
    import numpy

    problems = oracle(args.corpus, args.embeddings, args.node, args.network)
    print(json.dumps({"mismatches": problems[:20], "count": len(problems),
                      "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                                   "networkx": networkx.__version__}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
