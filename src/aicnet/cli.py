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
import csv
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Iterator

from . import corpus as corpus_mod
from . import metrics
from .corpus import Corpus, Reading, StatsTable, descriptive_stats, load_corpus, save_corpus
from .errors import AicnetError
from .graphs import WeightedGraph, build_an, build_cn_bipartite, build_in, project
from .semantic import EmbeddingStore, embed_quotes, load_embeddings, save_embeddings
from .textpipe import WordSelectionParams, load_wordlist

# the export formats; ``export.write_<format>`` writes each, csv an edge and a node file
_FORMATS = ("graphml", "dot", "csv", "json")

# (display label, report field) of each measure, in display order
_NODE_MEASURES = (("AN Closeness", "an_closeness"), ("IN Betweenness", "in_betweenness"),
                  ("CN Betweenness", "cn_betweenness"))
_NETWORK_MEASURES = (("AN transitivity", "an_transitivity"),
                     ("IN centralization", "in_centralization"),
                     ("CN transitivity", "cn_transitivity"))


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


def _at_least(minimum: int, label: str, at_most: int | None = None):
    def convert(value: str) -> int:
        n = int(value)
        if n < minimum:
            raise argparse.ArgumentTypeError(f"{label} must be >= {minimum}")
        if at_most is not None and n > at_most:
            raise argparse.ArgumentTypeError(f"{label} must be <= {at_most}")
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
    p.add_argument("--dim", type=_at_least(8, "--dim", at_most=65536), default=256,
                   help="hash-embedder dimension, 8 to 65536 (default 256)")


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    """The word lists and vectors that go with a corpus file."""
    p.add_argument("--stopwords", type=load_wordlist, default=frozenset(),
                   help="extra stopword file, one term per line")
    p.add_argument("--noun-lexicon", type=load_wordlist, default=None,
                   help="replacement noun lexicon file, one term per line")
    p.add_argument("--embeddings", type=Path, default=None,
                   help="precomputed quote-vector file (JSONL or binary); "
                        "without it, quotes get hash vectors of --dim components")


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
                   help=f"comma-separated subset of {','.join(_FORMATS)}")
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
    p.add_argument("--authors", type=_at_least(2, "--authors"), default=None,
                   help="number of authors (default 4); with --blocks, must match the block authors")
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
    ``readings`` alone; vectors of no corpus quote are kept and reported as one
    ``warning:`` line on stderr."""
    if args.embeddings is None:
        return embed_quotes([q for r in readings for q in r.quotes.values()], args.dim)
    store = load_embeddings(args.embeddings)
    known = {qid for r in corpus.readings.values() for qid in r.quotes}
    orphans = sorted(set(store.vectors) - known)
    if orphans:
        print(f"warning: embeddings for unknown quote ids: {', '.join(orphans)}", file=sys.stderr)
    return store


def _network(args: argparse.Namespace, corpus: Corpus, reading: Reading, which: str,
             store: EmbeddingStore | None) -> WeightedGraph:
    """One of the reading's three networks ("an", "in" or "cn"), built with the
    command's flags; only the AN reads ``store``."""
    if which == "an":
        return build_an(reading, corpus, store, args.threshold)
    if which == "in":
        return build_in(reading, corpus)
    params = WordSelectionParams(args.min_freq, args.drop_lowest, args.top_words, args.stopwords,
                                 args.noun_lexicon)
    return project(build_cn_bipartite(reading, corpus, params))


# -- display formatting ---------------------------------------------------------

def _fmt(value: float | None, digits: int = 2) -> str:
    return "na" if value is None else f"{value:.{digits}f}"


def _table(rows: list[list[str]]) -> str:
    """CSV lines, one per row, quoted as ``export.write_csv`` quotes them; an
    empty row is a blank line."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _stats_display(table: StatsTable) -> str:
    rows = table.rows
    return _table([
        ["Reading", *(r.reading_id for r in rows)],
        ["Posts", *(str(r.posts) for r in rows)],
        ["Replies", *(str(r.replies) for r in rows)],
        ["Average words per post", *(_fmt(r.avg_words_per_post, 1) for r in rows)],
        [],
        ["Posts mean", _fmt(table.posts_mean, 1)],
        ["Posts sd", _fmt(table.posts_sd, 1)],
        ["Replies mean", _fmt(table.replies_mean, 1)],
        ["Replies sd", _fmt(table.replies_sd, 1)],
    ])


def _node_table(rows: list[metrics.NodeMetricsRow]) -> str:
    return _table([["Student", *(r.author_id for r in rows)],
                   *([label, *(_fmt(getattr(r, field)) for r in rows)]
                     for label, field in _NODE_MEASURES)])


def _network_table(rows: list[metrics.NetworkMetricsRow]) -> str:
    return _table([["Reading", *(label for label, _ in _NETWORK_MEASURES)],
                   *([r.reading_id, *(_fmt(getattr(r, field)) for _, field in _NETWORK_MEASURES)]
                     for r in rows)])


def _compared(row_a: object, row_b: object,
              measures: tuple[tuple[str, str], ...]) -> Iterator[list[str]]:
    """One ``[label, a, b, b - a]`` row per measure of two report rows."""
    for label, field in measures:
        va, vb = getattr(row_a, field), getattr(row_b, field)
        yield [label, _fmt(va), _fmt(vb), _fmt(None if va is None or vb is None else vb - va)]


def _file_stem(reading_id: str, stem: str) -> str:
    """``stem``, a name made from ``reading_id`` for files in an output
    directory; an input error when it would name a path, or hold a NUL."""
    if "\0" in stem or Path(stem).name != stem:
        raise AicnetError(f"reading {reading_id!r} cannot name an output file")
    return stem


def _write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# -- commands -------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    # one pass gives the corpus and every problem validate_file would list
    loaded, errors = corpus_mod._collect(args.corpus, _corpus_format(args.corpus))
    if errors:
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
    display = _stats_display(table)
    sys.stdout.write(display)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "stats.csv").write_text(display, encoding="utf-8")
        summary = asdict(table)
        _write_json(args.out / "stats.json", {"readings": summary.pop("rows"), "summary": summary})
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    from . import export  # imported here, so that the other commands load no writer

    requested = list(dict.fromkeys(_listed(args.format)))
    if not requested:
        raise AicnetError("no export format given")
    unknown = [f for f in requested if f not in _FORMATS]
    if unknown:
        raise AicnetError(f"unknown export format(s): {', '.join(unknown)}")
    loaded = load_corpus(args.corpus, _corpus_format(args.corpus))
    reading = loaded.reading(args.reading)
    store = _store_for(args, loaded, [reading]) if args.network == "an" else None
    graph = _network(args, loaded, reading, args.network, store)
    if args.roster == "all":
        graph.nodes |= loaded.authors  # the authors inactive in this reading, as isolates

    stem = _file_stem(args.reading, f"{args.reading}_{args.network}")
    args.out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for fmt in requested:
        if fmt == "csv":
            edges, nodes = args.out / f"{stem}_edges.csv", args.out / f"{stem}_nodes.csv"
            export.write_csv(graph, edges, nodes)
            written += [edges, nodes]
        else:
            path = args.out / f"{stem}.{fmt}"
            getattr(export, f"write_{fmt}")(graph, path, name=stem)
            written.append(path)
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
        table = _network_table(rows)
        sys.stdout.write(table)
        if args.out:
            (args.out / "metrics_network.csv").write_text(table, encoding="utf-8")
            _write_json(args.out / "metrics_network.json", [asdict(r) for r in rows])
        return 0

    roster = set(loaded.authors)
    for i, rid in enumerate(reading_ids):
        rows = metrics.node_report(*graphs[rid], roster)
        table = _node_table(rows)
        stem = _file_stem(rid, f"metrics_node_{rid}") if args.out else None
        if i:
            print()
        print(f"# reading {rid}")
        sys.stdout.write(table)
        if stem:
            (args.out / f"{stem}.csv").write_text(table, encoding="utf-8")
            _write_json(args.out / f"{stem}.json", [asdict(r) for r in rows])
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    loaded = load_corpus(args.corpus, _corpus_format(args.corpus))
    a, b = args.reading_a, args.reading_b
    graphs = _reading_networks(args, loaded, [a, b])
    net = {r.reading_id: r for r in metrics.network_report(graphs)}
    sys.stdout.write(_table([["Measure", a, b, "delta"],
                             *_compared(net[a], net[b], _NETWORK_MEASURES)]))

    roster_a = loaded.reading(a).active_authors()
    roster_b = loaded.reading(b).active_authors()
    if not roster_a & roster_b:
        print("warning: the two readings share no authors", file=sys.stderr)
    roster = roster_a | roster_b
    rows_a = {r.author_id: r for r in metrics.node_report(*graphs[a], roster)}
    rows_b = {r.author_id: r for r in metrics.node_report(*graphs[b], roster)}
    lines = [[], ["Student", "Measure", a, b, "delta"]]
    for author in sorted(roster):
        lines += ([author, *row] for row in _compared(rows_a[author], rows_b[author],
                                                      _NODE_MEASURES))
    sys.stdout.write(_table(lines))
    return 0


def _listed(spec: str, sep: str = ",") -> list[str]:
    """The stripped, non-empty items of a ``sep``-separated list."""
    return [item.strip() for item in spec.split(sep) if item.strip()]


def _parse_pairs(spec: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for part in _listed(spec):
        x, sep, y = part.partition(":")
        if not sep or not x or not y:
            raise AicnetError(f"bad pair {part!r}; expected author:author")
        pairs.append((x.strip(), y.strip()))
    return tuple(pairs)


def _parse_overlap(spec: str) -> dict[tuple[str, str], int]:
    overlap: dict[tuple[str, str], int] = {}
    for part in _listed(spec):
        pair, _, count = part.partition("=")
        try:
            (key,) = _parse_pairs(pair)
            overlap[key] = int(count)
        except (AicnetError, ValueError):
            raise AicnetError(f"bad overlap {part!r}; expected author:author=count") from None
    return overlap


def cmd_synth(args: argparse.Namespace) -> int:
    from . import export, synth

    if args.blocks is None:
        blocks = (tuple(f"s{i + 1:02d}" for i in range(args.authors or 4)),)
    else:
        blocks = tuple(tuple(block) for block in map(_listed, args.blocks.split("|")) if block)
        covered = sum(map(len, blocks))
        if args.authors not in (None, covered):
            raise AicnetError(f"blocks cover {covered} authors, --authors says {args.authors}")
    params = synth.SynthParams(
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
