"""Tiny end-to-end run of the benchmark, so it cannot rot unnoticed.

    python3 benchmarks/smoke.py

Checks, in about a minute:

* the generator is deterministic (same seed, same bytes; another seed, other
  bytes) for every workload;
* hash-embedder cosines of distinct quote texts stay at least 0.05 from the
  0.8 threshold on the full-size corpora, so outputs cannot flip on float
  rounding, and the planted vector-file cosines are what the generator says;
* a timed run and a traced run of every workload at tiny sizes pass all their
  correctness checks and report every metric ``BENCHMARK.json`` names;
* per-layer counts repeat exactly between two traced runs of one seed.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import corpora
import run

THRESHOLD = 0.8
MARGIN = 0.05


def _files(workload: str, seed: int, sizes: corpora.Sizes, where: Path) -> bytes:
    vocab = corpora.load_vocabulary(run.SRC / "aicnet" / "data")
    gen = corpora.generate(workload, seed, vocab, sizes)
    path = where / f"{workload}-{seed}"
    corpora.write_corpus(gen, path, corpora.FORMATS[workload])
    data = path.read_bytes()
    if gen.vectors is not None:
        corpora.write_vectors(gen, path)
        data += path.read_bytes()
    return data


def _cosine_margins(workload: str, seed: int) -> list[str]:
    import numpy as np

    from aicnet.semantic import hash_embed

    vocab = corpora.load_vocabulary(run.SRC / "aicnet" / "data")
    gen = corpora.generate(workload, seed, vocab, corpora.SIZES[workload])
    quotes = [r for r in gen.records if r.get("record") == "quote"]
    problems = []
    for rid in sorted({q["reading_id"] for q in quotes}):
        group = [q for q in quotes if q["reading_id"] == rid]
        if gen.vectors is None:
            vecs = np.array([hash_embed(q["text"]) for q in group])
        else:
            vecs = np.array([gen.vectors[q["id"]] for q in group])
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        sims = vecs @ vecs.T
        for i, j in combinations(range(len(group)), 2):
            a, b = group[i], group[j]
            if corpora.normalize(a["text"]) != corpora.normalize(b["text"]) \
                    and abs(sims[i, j] - THRESHOLD) < MARGIN:
                problems.append(f"{workload} {a['id']} {b['id']} cosine {sims[i, j]:.4f}")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems: list[str] = []
    if {w["name"] for w in spec["workloads"]} != set(corpora.SIZES):
        problems.append("BENCHMARK.json workloads differ from corpora.SIZES")

    with tempfile.TemporaryDirectory() as tmp:
        for workload, sizes in corpora.TINY.items():
            if _files(workload, 3, sizes, Path(tmp)) != _files(workload, 3, sizes, Path(tmp)):
                problems.append(f"{workload}: same seed gave different files")
            if _files(workload, 3, sizes, Path(tmp)) == _files(workload, 4, sizes, Path(tmp)):
                problems.append(f"{workload}: different seeds gave the same files")
    for workload in corpora.SIZES:
        problems += _cosine_margins(workload, 0)[:5]

    for workload, sizes in corpora.TINY.items():
        timed = run.run_benchmark(workload, 5, 1, trace=False, sizes=sizes)
        traces = [run.run_benchmark(workload, 5, 1, trace=True, sizes=sizes) for _ in range(2)]
        for label, result in [("timed", timed), ("traced", traces[0]), ("traced", traces[1])]:
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} {label}: {result['failed']} checks failed")
        if set(timed["metrics"]) != end_to_end:
            problems.append(f"{workload}: timed metrics {sorted(timed['metrics'])}")
        if set(traces[0]["metrics"]) != per_layer:
            problems.append(f"{workload}: traced metrics {sorted(traces[0]['metrics'])}")
        for name, m in traces[0]["metrics"].items():
            if m["unit"] != "s" and name != "trace.overhead_frac" \
                    and m["value"] != traces[1]["metrics"][name]["value"]:
                problems.append(f"{workload}: count {name} changed between runs")
        print(f"{workload}: timed and traced runs done", flush=True)

    for p in problems:
        print(f"FAIL {p}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
