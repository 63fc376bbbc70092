"""Traced in-process run: per-layer self times and counts.

Run as a child of ``run.py --trace 1``:

    python3 benchmarks/layers.py SPEC.json

SPEC holds the three command lines with their output directories, the time
budget and the trace file to write. The child runs the three commands through ``aicnet.cli.main`` in alternating untraced
and traced passes. For a traced pass, each public function of the layers on
the ``metrics``/``compare`` path is replaced, at every module attribute its
callers look it up through, by a wrapper that records a span: name, start,
end, parent span id and run id. Spans are kept in memory and written to the
trace file at the end, together with the per-layer metrics derived from them.
Counts are taken from the functions' inputs and outputs, never from program
internals. Untraced passes and the timed benchmark never load the wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

from check import digest
from corpora import attention_pairs

Describe = Callable[[tuple, Any, dict], dict]


def _isolates(g: Any) -> int:
    return len(g.nodes - {v for key in g.edges for v in key})


def _graph(args: tuple, result: Any, memo: dict) -> dict:
    return {"edges": len(result.edges), "isolates": _isolates(result)}


def _attention(args: tuple, result: Any, memo: dict) -> dict:
    reading = args[0]
    key = ("pairs", reading.id)
    if key not in memo:
        memo[key] = attention_pairs(
            {q.id: q.text for q in reading.quotes.values()},
            [(a.id, a.author_id, a.quote_id, a.parent_id) for a in reading.artifacts],
        )
    pairs, common = memo[key]
    return {**_graph(args, result, memo), "quote_pairs": pairs, "common_pairs": common}


def _records(args: tuple, result: Any, memo: dict) -> dict:
    return {"records": sum(len(r.quotes) + len(r.artifacts) for r in result.readings.values())}


def _selection(args: tuple, result: Any, memo: dict) -> dict:
    """Selected (word, author) pairs, and the noun tokens of the bodies the
    selection read, counted with the public one-text pipeline."""
    from aicnet.textpipe import WordSelectionParams, noun_lemmas

    reading = args[0]
    stop = (args[1] if len(args) > 1 else WordSelectionParams()).stopwords
    key = ("nouns", reading.id, stop)
    if key not in memo:
        memo[key] = sum(len(noun_lemmas(a.body, None, stop)) for a in reading.artifacts)
    return {"selected": len(result), "noun_tokens": memo[key]}


# (module, public function, describe): the layers on the metrics/compare path
TARGETS: tuple[tuple[str, str, Describe | None], ...] = (
    ("cli", "main", None),
    ("corpus", "load_corpus", _records),
    ("corpus", "thread_root", None),
    ("semantic", "embed_quotes", None),
    ("semantic", "load_embeddings", None),
    ("semantic", "joint_pairs", None),
    ("graphs", "build_an", _attention),
    ("graphs", "attention_quotes", None),
    ("graphs", "build_in", _graph),
    ("graphs", "build_cn_bipartite", None),
    ("graphs", "project", _graph),
    ("textpipe", "select_cn_words", _selection),
    ("metrics", "node_report", None),
    ("metrics", "closeness", None),
    ("metrics", "network_report", None),
    ("metrics", "transitivity", None),
    ("metrics", "degree_centralization", None),
)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.spans: list[dict] = []
        self.run: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._pending: list[tuple[dict, Describe, tuple, Any]] = []

    def _wrap(self, name: str, fn: Callable, describe: Describe | None) -> Callable:
        spans, stack, pending = self.spans, self._stack, self._pending

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(spans), "name": name, "run": self.run,
                    "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if describe is not None:
                # counted after the pass, so counting adds to no span's self time
                pending.append((span, describe, args, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "aicnet" or k.startswith("aicnet.")]
        for mod_name, attr, describe in TARGETS:
            original = getattr(importlib.import_module(f"aicnet.{mod_name}"), attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original, describe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def count(self, memo: dict) -> None:
        for span, describe, args, result in self._pending:
            span["counts"] = describe(args, result, memo)
        self._pending.clear()


# -- derived metrics -----------------------------------------------------------

def _self_times(spans: list[dict]) -> dict[int, float]:
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all its commands summed)."""
    own = _self_times(spans)
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for s in spans:
        name = s["name"]
        total[name] = total.get(name, 0.0) + s["end"] - s["start"]
        self_time[name] = self_time.get(name, 0.0) + own[s["id"]]
        calls[name] = calls.get(name, 0) + 1
        for key, value in s.get("counts", {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    def t(name: str) -> float:
        return total.get(name, 0.0)

    pairs = counts.get("graphs.build_an.quote_pairs", 0)
    jp_calls = calls.get("semantic.joint_pairs", 0)
    an_edges = counts.get("graphs.build_an.edges", 0)
    return {
        "corpus.load_corpus_s": t("corpus.load_corpus"),
        "corpus.thread_root_s": t("corpus.thread_root"),
        "corpus.thread_root_calls": calls.get("corpus.thread_root", 0),
        "corpus.records": counts.get("corpus.load_corpus.records", 0),
        "semantic.store_s": t("semantic.embed_quotes") + t("semantic.load_embeddings"),
        "semantic.embed_quotes_calls": calls.get("semantic.embed_quotes", 0),
        "semantic.load_embeddings_calls": calls.get("semantic.load_embeddings", 0),
        "semantic.joint_pairs_s": t("semantic.joint_pairs"),
        "semantic.joint_pairs_calls": jp_calls,
        "semantic.quote_pairs": pairs,
        "semantic.common_ref_share": counts.get("graphs.build_an.common_pairs", 0) / pairs if pairs else 0.0,
        "graphs.build_an_s": t("graphs.build_an"),
        "graphs.build_an_self_s": self_time.get("graphs.build_an", 0.0),
        "graphs.attention_quotes_s": t("graphs.attention_quotes"),
        "graphs.build_in_s": t("graphs.build_in"),
        "graphs.build_cn_bipartite_self_s": self_time.get("graphs.build_cn_bipartite", 0.0),
        "graphs.project_s": t("graphs.project"),
        "graphs.an_edges": an_edges,
        "graphs.in_edges": counts.get("graphs.build_in.edges", 0),
        "graphs.cn_edges": counts.get("graphs.project.edges", 0),
        "graphs.isolates": sum(counts.get(f"graphs.{g}.isolates", 0)
                               for g in ("build_an", "build_in", "project")),
        "graphs.an_edge_yield": an_edges / jp_calls if jp_calls else 0.0,
        "textpipe.select_cn_words_s": t("textpipe.select_cn_words"),
        "textpipe.noun_tokens": counts.get("textpipe.select_cn_words.noun_tokens", 0),
        "textpipe.selected_pairs": counts.get("textpipe.select_cn_words.selected", 0),
        "metrics.node_report_s": t("metrics.node_report"),
        "metrics.closeness_s": t("metrics.closeness"),
        "metrics.closeness_calls": calls.get("metrics.closeness", 0),
        "metrics.network_report_s": t("metrics.network_report"),
        "metrics.transitivity_s": t("metrics.transitivity"),
        "metrics.degree_centralization_s": t("metrics.degree_centralization"),
        "cli.self_s": self_time.get("cli.main", 0.0),
    }


def by_command(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Inclusive seconds per span name, per command of one pass."""
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s["run"].split(":", 1)[1], {})
        row[s["name"]] = row.get(s["name"], 0.0) + s["end"] - s["start"]
    return out


# -- passes --------------------------------------------------------------------

def _run_pass(commands: dict[str, dict], tracer: Tracer | None = None) -> tuple[float, dict, int]:
    """Run every command once in-process; wall time, digests and failures."""
    import aicnet.cli

    digests: dict[str, str] = {}
    failed = 0
    elapsed = 0.0
    for name, cmd in commands.items():
        if tracer is not None:
            tracer.run = f"{tracer.label}:{name}"
        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = aicnet.cli.main(cmd["argv"])  # looked up per call: traced when patched
        elapsed += time.perf_counter() - start
        failed += code != 0
        out = Path(cmd["out"]) if cmd["out"] else None
        digests[name] = digest(buffer.getvalue().encode("utf-8"), out)
    return elapsed, digests, failed


def run(spec: dict) -> dict:
    import numpy

    commands = spec["commands"]
    start = time.perf_counter()
    # warm-up: first-call costs (bundled word lists, lazy imports) stay out of both sides
    _, reference, failed = _run_pass(commands)
    attempted = len(commands)
    untraced: list[float] = []
    traced: list[float] = []
    per_pass: list[dict[str, float]] = []
    spans: list[dict] = []
    memo: dict = {}
    pairs: list[float] = []  # seconds per untraced + traced pair, counting included
    while not pairs or time.perf_counter() - start + statistics.median(pairs) <= spec["seconds"]:
        began = time.perf_counter()
        wall, digests, bad = _run_pass(commands)
        untraced.append(wall)
        failed += bad + sum(digests[k] != reference[k] for k in digests)

        tracer = Tracer(f"pass{len(traced)}")
        tracer.install()
        try:
            wall, digests, bad = _run_pass(commands, tracer)
        finally:
            tracer.uninstall()
        tracer.count(memo)
        traced.append(wall)
        attempted += 2 * len(commands)
        failed += bad + sum(digests[k] != reference[k] for k in digests)
        per_pass.append(layer_metrics(tracer.spans))
        spans += tracer.spans
        pairs.append(time.perf_counter() - began)

    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "digests": reference,
        "passes": {"untraced_s": untraced, "traced_s": traced},
        "first_pass_by_command_s": by_command([s for s in spans if s["run"].startswith("pass0:")]),
        "environment": {"python": sys.version.split()[0], "numpy": numpy.__version__},
        "spans": spans,
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(spec)
    Path(spec["trace_file"]).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
