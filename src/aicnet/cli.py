"""Command-line driver: ``aicnet {validate|stats|build|metrics|compare|synth}``.

All flags default to the standard configuration (threshold 0.8, word selection
5/5/70), so ``aicnet metrics corpus.jsonl`` needs no tuning. Display tables
round to 2 decimals and write ``na`` for nulls; JSON output keeps full
precision and native nulls. Commands are deterministic: identical inputs and
seed give byte-identical stdout and files.

Exit codes: 0 success, 1 input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

from . import corpus as corpus_mod
from . import export, metrics, synth
from .corpus import Corpus, Reading, StatsTable, descriptive_stats, load_corpus, save_corpus
from .errors import AicnetError, MissingEmbedding
from .graphs import WeightedGraph, build_an, build_cn_bipartite, build_in, project
from .semantic import EmbeddingStore, embed_quotes, load_embeddings, save_embeddings
from .textpipe import WordSelectionParams, load_wordlist, make_default_tagger

_FORMATS = ("graphml", "dot", "csv", "json")


class _Parser(argparse.ArgumentParser):
    """argparse with flag errors reported as input errors (exit 1, not 2)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_threshold(value: str) -> float:
    tau = float(value)
    if not 0.0 < tau <= 1.0:
        raise argparse.ArgumentTypeError("threshold must be in (0, 1]")
    return tau


def _at_least(minimum: int, label: str):
    def convert(value: str) -> int:
        n = int(value)
        if n < minimum:
            raise argparse.ArgumentTypeError(f"{label} must be >= {minimum}")
        return n

    return convert


def _add_network_flags(p: argparse.ArgumentParser) -> None:
    """The settings of the three network builders."""
    p.add_argument("--threshold", type=_positive_threshold, default=0.8,
                   help="similarity threshold for joint quotes (default 0.8)")
    p.add_argument("--min-freq", type=_at_least(1, "--min-freq"), default=5,
                   help="word frequency floor (default 5)")
    p.add_argument("--drop-lowest", type=_at_least(0, "--drop-lowest"), default=5,
                   help="how many lowest-scoring words to drop (default 5)")
    p.add_argument("--top-words", type=_at_least(1, "--top-words"), default=70,
                   help="ranked word pairs to keep (default 70)")
    p.add_argument("--dim", type=_at_least(8, "--dim"), default=256,
                   help="hash-embedder dimension (default 256)")


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    """The word lists and vectors that go with a corpus file."""
    p.add_argument("--stopwords", type=load_wordlist, default=frozenset(),
                   help="extra stopword file, one term per line")
    p.add_argument("--noun-lexicon", type=load_wordlist, default=None,
                   help="replacement noun lexicon file, one term per line")
    p.add_argument("--embeddings", type=Path, default=None,
                   help="precomputed quote-vector file (JSONL or binary)")
    p.add_argument("--embedder", choices=("file", "hash"), default=None,
                   help="vector source; defaults to file when --embeddings is given, hash otherwise")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aicnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a corpus file")
    p.add_argument("corpus", type=Path)

    p = sub.add_parser("stats", help="descriptive statistics per reading")
    p.add_argument("corpus", type=Path)
    p.add_argument("--reading", default=None)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("build", help="build one network and export it")
    p.add_argument("corpus", type=Path)
    p.add_argument("--reading", required=True)
    p.add_argument("--network", choices=("an", "in", "cn"), required=True)
    p.add_argument("--format", default="graphml",
                   help="comma-separated subset of graphml,dot,csv,json")
    p.add_argument("--roster", choices=("active", "all"), default="active",
                   help="node set: the reading's active authors, or every corpus author")
    _add_network_flags(p)
    _add_corpus_flags(p)
    p.add_argument("--out", type=Path, required=True, help="output directory")

    p = sub.add_parser("metrics", help="node- or network-level measure tables")
    p.add_argument("corpus", type=Path)
    p.add_argument("--level", choices=("node", "network"), required=True)
    p.add_argument("--reading", default=None, help="restrict to one reading")
    _add_network_flags(p)
    _add_corpus_flags(p)
    p.add_argument("--out", type=Path, default=None, help="output directory")

    p = sub.add_parser("compare", help="compare two readings")
    p.add_argument("corpus", type=Path)
    p.add_argument("reading_a")
    p.add_argument("reading_b")
    _add_network_flags(p)
    _add_corpus_flags(p)

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--authors", type=_at_least(2, "--authors"), default=4)
    p.add_argument("--quotes", type=_at_least(1, "--quotes"), default=None,
                   help="number of quotes (default: one per attention block)")
    p.add_argument("--blocks", default=None,
                   help='attention blocks as "a,b|c,d"; default one block of all authors')
    p.add_argument("--reply-edges", default="",
                   help='reply events as "a:b,c:d" (second author replies to the first)')
    p.add_argument("--vocab-overlap", default="",
                   help='planted shared words as "a:b=2,c:d=1"')
    p.add_argument("--reading-id", default="r1")
    _add_network_flags(p)
    p.add_argument("--out", type=Path, required=True, help="output directory")

    return parser


def _corpus_format(path: Path) -> str:
    return "csv" if path.suffix.lower() == ".csv" else "jsonl"


def _store_for(args: argparse.Namespace, corpus: Corpus,
               readings: list[Reading]) -> EmbeddingStore:
    """Quote vectors from ``--embeddings``, or hash vectors for the quotes of
    ``readings`` alone; orphan vectors are reported against every corpus quote,
    as one ``warning:`` line on stderr."""
    if args.embedder == "hash" or (args.embedder is None and args.embeddings is None):
        return embed_quotes([q for r in readings for q in r.quotes.values()], args.dim)
    if args.embeddings is None:
        raise MissingEmbedding(
            "", detail="attention network needs --embeddings when --embedder file is set"
        )
    known = {qid for r in corpus.readings.values() for qid in r.quotes}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        store = load_embeddings(args.embeddings, known)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return store


def _network(args: argparse.Namespace, corpus: Corpus, reading: Reading, which: str,
             store: EmbeddingStore | None, roster: set[str] | None = None) -> WeightedGraph:
    """One of the reading's three networks ("an", "in" or "cn"), built with the
    command's flags; only the AN reads ``store``."""
    if which == "an":
        return build_an(reading, corpus, store, args.threshold, roster=roster)
    if which == "in":
        return build_in(reading, corpus, roster=roster)
    params = WordSelectionParams(args.min_freq, args.drop_lowest, args.top_words, args.stopwords)
    tagger = make_default_tagger(args.noun_lexicon)
    return project(build_cn_bipartite(reading, corpus, params, tagger, roster=roster))


# -- display formatting ---------------------------------------------------------

def _fmt2(value: float | None) -> str:
    return "na" if value is None else f"{value:.2f}"


def _fmt1(value: float | None) -> str:
    return "na" if value is None else f"{value:.1f}"


def _csv_line(cells: list[str]) -> str:
    return ",".join(cells)


def _stats_display(table: StatsTable) -> str:
    lines = [
        _csv_line(["Reading"] + [r.reading_id for r in table.rows]),
        _csv_line(["Posts"] + [str(r.posts) for r in table.rows]),
        _csv_line(["Replies"] + [str(r.replies) for r in table.rows]),
        _csv_line(["Average words per post"] + [_fmt1(r.avg_words_per_post) for r in table.rows]),
        "",
        _csv_line(["Posts mean", _fmt1(table.posts_mean)]),
        _csv_line(["Posts sd", _fmt1(table.posts_sd)]),
        _csv_line(["Replies mean", _fmt1(table.replies_mean)]),
        _csv_line(["Replies sd", _fmt1(table.replies_sd)]),
    ]
    return "\n".join(lines) + "\n"


def _node_table(rows: list[metrics.NodeMetricsRow]) -> str:
    lines = [
        _csv_line(["Student"] + [r.author_id for r in rows]),
        _csv_line(["AN Closeness"] + [_fmt2(r.an_closeness) for r in rows]),
        _csv_line(["IN Betweenness"] + [_fmt2(r.in_betweenness) for r in rows]),
        _csv_line(["CN Betweenness"] + [_fmt2(r.cn_betweenness) for r in rows]),
    ]
    return "\n".join(lines) + "\n"


def _network_table(rows: list[metrics.NetworkMetricsRow]) -> str:
    lines = [_csv_line(["Reading", "AN transitivity", "IN centralization", "CN transitivity"])]
    for r in rows:
        lines.append(_csv_line([
            r.reading_id, _fmt2(r.an_transitivity), _fmt2(r.in_centralization),
            _fmt2(r.cn_transitivity),
        ]))
    return "\n".join(lines) + "\n"


def _write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# -- commands -------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    try:
        loaded = load_corpus(args.corpus, _corpus_format(args.corpus))
    except AicnetError:
        # a broken file is read a second time, to list every problem
        errors = corpus_mod.validate_file(args.corpus, _corpus_format(args.corpus))
        for err in errors:
            print(f"error: {err}")
        print(f"{len(errors)} problem(s) found")
        return 1
    n_artifacts = sum(len(r.artifacts) for r in loaded.readings.values())
    print(f"ok: {len(loaded.readings)} reading(s), {n_artifacts} artifact(s), "
          f"{len(loaded.authors)} author(s)")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    loaded = load_corpus(args.corpus, _corpus_format(args.corpus))
    table = descriptive_stats(loaded, args.reading)
    sys.stdout.write(_stats_display(table))
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "stats.csv").write_text(_stats_display(table), encoding="utf-8")
        summary = asdict(table)
        _write_json(args.out / "stats.json", {"readings": summary.pop("rows"), "summary": summary})
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    requested = list(dict.fromkeys(f.strip() for f in args.format.split(",") if f.strip()))
    if not requested:
        raise AicnetError("no export format given")
    unknown = [f for f in requested if f not in _FORMATS]
    if unknown:
        raise AicnetError(f"unknown export format(s): {', '.join(unknown)}")
    loaded = load_corpus(args.corpus, _corpus_format(args.corpus))
    roster = set(loaded.authors) if args.roster == "all" else None
    reading = loaded.reading(args.reading)
    store = _store_for(args, loaded, [reading]) if args.network == "an" else None
    graph = _network(args, loaded, reading, args.network, store, roster)

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.reading}_{args.network}"
    written: list[Path] = []
    for fmt in requested:
        if fmt == "graphml":
            path = args.out / f"{stem}.graphml"
            export.write_graphml(graph, path, name=stem)
            written.append(path)
        elif fmt == "dot":
            path = args.out / f"{stem}.dot"
            export.write_dot(graph, path, name=stem)
            written.append(path)
        elif fmt == "json":
            path = args.out / f"{stem}.json"
            export.write_json(graph, path, name=stem)
            written.append(path)
        else:
            edges = args.out / f"{stem}_edges.csv"
            nodes = args.out / f"{stem}_nodes.csv"
            export.write_csv(graph, edges, nodes)
            written += [edges, nodes]
    for path in written:
        print(path.as_posix())
    return 0


def _reading_networks(args: argparse.Namespace, corpus: Corpus,
                      reading_ids: list[str]) -> dict[str, tuple[WeightedGraph, ...]]:
    """The (AN, IN, CN) triple of each named reading; unknown ids are input errors."""
    readings = [corpus.reading(rid) for rid in dict.fromkeys(reading_ids)]
    store = _store_for(args, corpus, readings)
    return {r.id: tuple(_network(args, corpus, r, which, store) for which in ("an", "in", "cn"))
            for r in readings}


def cmd_metrics(args: argparse.Namespace) -> int:
    loaded = load_corpus(args.corpus, _corpus_format(args.corpus))
    reading_ids = sorted(loaded.readings) if args.reading is None else [args.reading]
    graphs = _reading_networks(args, loaded, reading_ids)

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)

    if args.level == "network":
        rows = metrics.network_report(graphs)
        sys.stdout.write(_network_table(rows))
        if args.out:
            (args.out / "metrics_network.csv").write_text(_network_table(rows), encoding="utf-8")
            _write_json(args.out / "metrics_network.json", [asdict(r) for r in rows])
        return 0

    roster = set(loaded.authors)
    for i, rid in enumerate(reading_ids):
        an, in_, cn = graphs[rid]
        rows = metrics.node_report(an, in_, cn, roster)
        if i:
            print()
        print(f"# reading {rid}")
        sys.stdout.write(_node_table(rows))
        if args.out:
            (args.out / f"metrics_node_{rid}.csv").write_text(_node_table(rows), encoding="utf-8")
            _write_json(args.out / f"metrics_node_{rid}.json", [asdict(r) for r in rows])
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    loaded = load_corpus(args.corpus, _corpus_format(args.corpus))
    graphs = _reading_networks(args, loaded, [args.reading_a, args.reading_b])
    graphs_a, graphs_b = graphs[args.reading_a], graphs[args.reading_b]

    net_a = metrics.network_report({args.reading_a: graphs_a})[0]
    net_b = metrics.network_report({args.reading_b: graphs_b})[0]

    def delta(x: float | None, y: float | None) -> float | None:
        return None if x is None or y is None else y - x

    print(_csv_line(["Measure", args.reading_a, args.reading_b, "delta"]))
    for label, va, vb in (
        ("AN transitivity", net_a.an_transitivity, net_b.an_transitivity),
        ("IN centralization", net_a.in_centralization, net_b.in_centralization),
        ("CN transitivity", net_a.cn_transitivity, net_b.cn_transitivity),
    ):
        print(_csv_line([label, _fmt2(va), _fmt2(vb), _fmt2(delta(va, vb))]))

    roster_a = loaded.reading(args.reading_a).active_authors()
    roster_b = loaded.reading(args.reading_b).active_authors()
    if not roster_a & roster_b:
        print("warning: the two readings share no authors", file=sys.stderr)
    roster = roster_a | roster_b
    rows_a = {r.author_id: r for r in metrics.node_report(*graphs_a, roster)}
    rows_b = {r.author_id: r for r in metrics.node_report(*graphs_b, roster)}

    print()
    print(_csv_line(["Student", "Measure", args.reading_a, args.reading_b, "delta"]))
    for author in sorted(roster):
        ra, rb = rows_a[author], rows_b[author]
        for label, va, vb in (
            ("AN Closeness", ra.an_closeness, rb.an_closeness),
            ("IN Betweenness", ra.in_betweenness, rb.in_betweenness),
            ("CN Betweenness", ra.cn_betweenness, rb.cn_betweenness),
        ):
            print(_csv_line([author, label, _fmt2(va), _fmt2(vb), _fmt2(delta(va, vb))]))
    return 0


def _parse_blocks(spec: str | None, n_authors: int) -> tuple[tuple[str, ...], ...]:
    if spec is None:
        return (tuple(f"s{i + 1:02d}" for i in range(n_authors)),)
    blocks = []
    for part in spec.split("|"):
        authors = tuple(a.strip() for a in part.split(",") if a.strip())
        if authors:
            blocks.append(authors)
    return tuple(blocks)


def _parse_pairs(spec: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        x, sep, y = part.partition(":")
        if not sep or not x or not y:
            raise AicnetError(f"bad pair {part!r}; expected author:author")
        pairs.append((x.strip(), y.strip()))
    return tuple(pairs)


def _parse_overlap(spec: str) -> dict[tuple[str, str], int]:
    overlap: dict[tuple[str, str], int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        pair, _, count = part.partition("=")
        try:
            (key,) = _parse_pairs(pair)
            overlap[key] = int(count)
        except (AicnetError, ValueError):
            raise AicnetError(f"bad overlap {part!r}; expected author:author=count") from None
    return overlap


def cmd_synth(args: argparse.Namespace) -> int:
    blocks = _parse_blocks(args.blocks, args.authors)
    block_authors = sorted({a for b in blocks for a in b})
    n_authors = len(block_authors) if args.blocks else args.authors
    params = synth.SynthParams(
        n_authors=n_authors,
        n_quotes=args.quotes if args.quotes is not None else len(blocks),
        attention_blocks=blocks,
        reply_edges=_parse_pairs(args.reply_edges),
        vocab_overlap=_parse_overlap(args.vocab_overlap),
        seed=args.seed,
    )
    word_params = WordSelectionParams(args.min_freq, args.drop_lowest, args.top_words)
    generated, store, gt = synth.generate(
        params, word_params, args.threshold, args.dim, reading_id=args.reading_id
    )
    args.out.mkdir(parents=True, exist_ok=True)
    save_corpus(generated, args.out / "corpus.jsonl")
    save_embeddings(store, args.out / "embeddings.jsonl")
    payload = {
        "expected_an": export.graph_to_json(gt.expected_an, "expected_an"),
        "expected_in": export.graph_to_json(gt.expected_in, "expected_in"),
        "expected_cn_edges": [list(pair) for pair in sorted(gt.expected_cn_edges)],
        "seed": params.seed,
    }
    _write_json(args.out / "ground_truth.json", payload)
    for name in ("corpus.jsonl", "embeddings.jsonl", "ground_truth.json"):
        print((args.out / name).as_posix())
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "stats": cmd_stats,
    "build": cmd_build,
    "metrics": cmd_metrics,
    "compare": cmd_compare,
    "synth": cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)  # word-list flags load their files here
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse: --help, or a flag error already reported
        return int(exc.code or 0)
    except (AicnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - invariant violations surface as exit 2
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
