"""Command-line driver: ``aicnet {validate|stats|build|metrics|compare|synth}``.

All flags default to the standard configuration (threshold 0.8, word selection
5/5/70), so ``aicnet metrics corpus.jsonl`` needs no tuning. Display tables
round to 2 decimals and write ``na`` for nulls; JSON output keeps full
precision and native nulls. Commands are deterministic: identical inputs and
seed give byte-identical stdout and files.

``metrics`` and ``compare`` split their readings into contiguous chunks, at
most one per CPU in ``os.sched_getaffinity(0)``. This process builds and
measures the first chunk, and a forked child each other chunk; the output is
byte-identical to a one-process run, which ``taskset -c 0`` gives, as does a
platform without ``os.fork`` or ``os.sched_getaffinity``.

:func:`main` flushes stdout before it returns, and on its first call registers
``gc.freeze`` to run at interpreter exit, so that a command's process leaves
the objects still alive then to the OS instead of collecting them; an
in-process caller of :func:`main` keeps its collector as it was.

Exit codes: 0 success, 1 input error (a stdout that cannot be written
included), 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import marshal
import os
import sys
from pathlib import Path
from typing import Callable, Iterator

from . import corpus as corpus_mod
from . import metrics
from .corpus import (
    Corpus,
    Quote,
    Reading,
    StatsTable,
    _csv_lines,
    _json_text,
    _write,
    descriptive_stats,
    load_corpus,
    save_corpus,
)
from .errors import AicnetError
from .graphs import WeightedGraph, build_an, build_cn_bipartite, build_in, project
from .semantic import (
    EmbeddingStore,
    _check_threshold,
    embed_quotes,
    load_embeddings,
    save_embeddings,
)
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
    """argparse with flag errors reported as input errors (exit 1, not 2), their
    usage and error lines on stderr alone (:func:`_inform`), and a help text
    that cannot be written raising its ``OSError``."""

    def error(self, message: str) -> None:  # type: ignore[override]
        _inform(f"{self.format_usage()}{self.prog}: error: {message}")
        raise SystemExit(1)

    def _print_message(self, message: str, file=None) -> None:
        (file or sys.stderr).write(message)  # argparse's own swallows an OSError


def _positive_threshold(value: str) -> float:
    tau = float(value)  # a value that is no number keeps argparse's own message
    try:
        _check_threshold(tau)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
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


def _inform(line: str) -> None:
    """Write a line on stderr, lost if stderr is closed (None) or unwritable;
    never on stdout, where ``print`` writes when ``sys.stderr`` is None."""
    try:
        if sys.stderr:
            sys.stderr.write(line + "\n")
    except OSError:
        pass


def _stores_for(args: argparse.Namespace, corpus: Corpus,
                readings: list[Reading]) -> dict[str, EmbeddingStore]:
    """The quote vectors of each of ``readings``, by reading id.

    Without ``--embeddings``, each reading's store holds hash vectors of its
    own quotes, so each reading hashes the texts it reads; a ``note:`` line on
    stderr says so. With it, every reading reads the file's one store, whose
    ids name quotes across the corpus: a quote id that two readings hold with
    different normalized texts is an input error. Vectors of no corpus quote
    are kept and reported as one ``warning:`` line on stderr."""
    if args.embeddings is None:
        _inform(f"note: no --embeddings file, so quote vectors come from the hash embedder "
                f"at --dim {args.dim}")
        return {r.id: embed_quotes(r.quotes.values(), args.dim) for r in readings}
    first: dict[str, Quote] = {}
    for reading in corpus.readings.values():
        for quote in reading.quotes.values():
            other = first.setdefault(quote.id, quote)
            if other.normalized_text != quote.normalized_text:
                raise AicnetError(f"quote id {quote.id!r} has different texts in readings "
                                  f"{other.reading_id!r} and {quote.reading_id!r}, which "
                                  "one vector file cannot tell apart")
    store = load_embeddings(args.embeddings)
    orphans = sorted(set(store.vectors) - set(first))
    if orphans:
        _inform(f"warning: embeddings for unknown quote ids: {', '.join(orphans)}")
    return dict.fromkeys((r.id for r in readings), store)


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


def _stats_display(table: StatsTable) -> str:
    rows = table.rows
    return _csv_lines([
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
    return _csv_lines([["Student", *(r.author_id for r in rows)],
                       *([label, *(_fmt(getattr(r, field)) for r in rows)]
                         for label, field in _NODE_MEASURES)])


def _network_table(rows: list[metrics.NetworkMetricsRow]) -> str:
    return _csv_lines([["Reading", *(label for label, _ in _NETWORK_MEASURES)],
                       *([r.reading_id, *(_fmt(getattr(r, f)) for _, f in _NETWORK_MEASURES)]
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


def _write_report(out: Path, stem: str, table: str, payload: object) -> None:
    """``<stem>.csv``, a report's display table, and ``<stem>.json``, its full-precision values."""
    _write(out / f"{stem}.csv", table)
    _write(out / f"{stem}.json", _json_text(payload))


# -- commands -------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    # one pass gives the corpus and every problem in the file
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
        summary = table._asdict()
        readings = [row._asdict() for row in summary.pop("rows")]
        _write_report(args.out, "stats", display, {"readings": readings, "summary": summary})
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
    store = _stores_for(args, loaded, [reading])[reading.id] if args.network == "an" else None
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


def _chunks(items: list) -> list[list]:
    """``items`` split into contiguous chunks of near-equal length, one per
    CPU this process may run on, at most; one chunk where ``os.fork`` or
    ``os.sched_getaffinity`` is missing."""
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
    n = len(items)
    k = max(1, min(n, cpus))
    return [items[i * n // k:(i + 1) * n // k] for i in range(k)]


def _in_chunks(compute: Callable[[Reading], object], chunks: list[list[Reading]]) -> list:
    """``compute(reading)`` for every reading of the chunks, in order; each
    result is marshal data (plain tuples and lists of str, float and None).

    This process computes the first chunk, and a forked child each other
    chunk, which it sends back as marshal bytes over a pipe and then ends in
    ``os._exit``. A child that fails, or cannot be forked, has its chunk
    computed here in turn, so an error is raised as a serial run raises it.
    Every pipe is read to its end and every child reaped; on an error here,
    the children are killed first."""
    children: list[tuple[int, int, list[Reading]]] = []  # (pid, or -1; read end; chunk)
    try:
        for chunk in chunks[1:]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare, as under a process limit
                pid = -1
            if pid == 0:  # the child never returns to its caller, nor writes to fd 1 or 2
                status = 1
                try:
                    data = memoryview(marshal.dumps([compute(r) for r in chunk]))
                    while data:
                        data = data[os.write(write_end, data):]
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, read_end, chunk))
        results = [compute(r) for r in chunks[0]]
        while children:
            pid, read_end, chunk = children[0]
            parts = []
            while part := os.read(read_end, 1 << 16):
                parts.append(part)
            done = pid > 0 and os.waitpid(pid, 0)[1] == 0
            del children[0]
            os.close(read_end)
            results += marshal.loads(b"".join(parts)) if done else [compute(r) for r in chunk]
        return results
    finally:
        for pid, read_end, _ in children:
            if pid > 0:
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)
            os.close(read_end)


def _per_reading(args: argparse.Namespace, corpus: Corpus, reading_ids: list[str],
                 result: Callable[[Reading, tuple[WeightedGraph, ...]], object]) -> dict:
    """``result(reading, (AN, IN, CN))`` of each named reading, by id, computed
    by :func:`_in_chunks` in the order named; unknown ids are input errors."""
    readings = [corpus.reading(rid) for rid in dict.fromkeys(reading_ids)]
    stores = _stores_for(args, corpus, readings)

    def compute(reading: Reading) -> object:
        return result(reading, tuple(_network(args, corpus, reading, which, stores[reading.id])
                                     for which in ("an", "in", "cn")))

    return dict(zip((r.id for r in readings), _in_chunks(compute, _chunks(readings))))


def _network_row(reading: Reading, graphs: tuple[WeightedGraph, ...]) -> tuple:
    return tuple(metrics.network_report({reading.id: graphs})[0])


def _node_rows(roster: set[str]) -> Callable[[Reading, tuple[WeightedGraph, ...]], list]:
    return lambda reading, graphs: [tuple(r) for r in metrics.node_report(*graphs, roster)]


def cmd_metrics(args: argparse.Namespace) -> int:
    loaded = load_corpus(args.corpus, _corpus_format(args.corpus))
    reading_ids = sorted(loaded.readings) if args.reading is None else [args.reading]
    result = _network_row if args.level == "network" else _node_rows(set(loaded.authors))
    results = _per_reading(args, loaded, reading_ids, result)
    # every file name is checked before the first report is printed or written
    named = args.out is not None and args.level == "node"
    stems = [_file_stem(rid, f"metrics_node_{rid}") if named else None for rid in reading_ids]
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)

    if args.level == "network":
        rows = [metrics.NetworkMetricsRow(*results[rid]) for rid in reading_ids]
        table = _network_table(rows)
        sys.stdout.write(table)
        if args.out:
            _write_report(args.out, "metrics_network", table, [r._asdict() for r in rows])
        return 0

    for i, (rid, stem) in enumerate(zip(reading_ids, stems)):
        rows = [metrics.NodeMetricsRow(*row) for row in results[rid]]
        table = _node_table(rows)
        if i:
            print()
        print(f"# reading {rid}")
        sys.stdout.write(table)
        if stem:
            _write_report(args.out, stem, table, [r._asdict() for r in rows])
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    loaded = load_corpus(args.corpus, _corpus_format(args.corpus))
    a, b = args.reading_a, args.reading_b
    roster_a = loaded.reading(a).active_authors()
    roster_b = loaded.reading(b).active_authors()
    roster = roster_a | roster_b
    node_rows = _node_rows(roster)
    results = _per_reading(args, loaded, [a, b], lambda reading, graphs: (
        _network_row(reading, graphs), node_rows(reading, graphs)))
    net = {rid: metrics.NetworkMetricsRow(*results[rid][0]) for rid in (a, b)}
    sys.stdout.write(_csv_lines([["Measure", a, b, "delta"],
                                 *_compared(net[a], net[b], _NETWORK_MEASURES)]))

    if not roster_a & roster_b:
        _inform("warning: the two readings share no authors")
    rows_a, rows_b = ({row[0]: metrics.NodeMetricsRow(*row) for row in results[rid][1]}
                      for rid in (a, b))
    lines = [[], ["Student", "Measure", a, b, "delta"]]
    for author in sorted(roster):
        lines += ([author, *row] for row in _compared(rows_a[author], rows_b[author],
                                                      _NODE_MEASURES))
    sys.stdout.write(_csv_lines(lines))
    return 0


def _listed(spec: str) -> list[str]:
    """The stripped, non-empty items of a comma-separated list."""
    return [item.strip() for item in spec.split(",") if item.strip()]


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
            overlap_count = int(count)
        except (AicnetError, ValueError):
            raise AicnetError(f"bad overlap {part!r}; expected author:author=count") from None
        if key in overlap or key[::-1] in overlap:
            raise AicnetError(f"overlap pair {key[0]}:{key[1]} is given twice")
        overlap[key] = overlap_count
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
    payload = {name: export.graph_to_json(g, name) for name, g in gt._asdict().items()}
    payload["seed"] = params.seed
    _write(args.out / "ground_truth.json", _json_text(payload))
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


def _flush_stdout() -> None:
    """Write out what the command printed. When that fails, fd 1 is pointed at
    ``os.devnull`` before the error is raised, so that the interpreter's own
    flush at exit, which would fail again and exit 120, succeeds."""
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


_freeze_at_exit = False  # whether main has registered gc.freeze in this process


def main(argv: list[str] | None = None) -> int:
    global _freeze_at_exit
    if not _freeze_at_exit:
        # nothing alive at exit needs a finalizer: files closed, children reaped, stdout flushed
        atexit.register(gc.freeze)
        _freeze_at_exit = True
    try:
        try:
            args = build_parser().parse_args(argv)  # word-list flags load their files here
            return _COMMANDS[args.command](args)
        finally:
            _flush_stdout()
    except SystemExit as exc:  # argparse: --help, or a flag error already reported
        return int(exc.code or 0)
    except (AicnetError, OSError) as exc:
        _inform(f"error: {exc}")
        return 1
    except Exception as exc:  # noqa: BLE001 - invariant violations surface as exit 2
        _inform(f"internal error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
