#!/usr/bin/env python3
"""Hand-made mutants of the library, each of which its tests must catch.

Each entry is ``(file, old, new, tests)``: a source file relative to the
repository root, a string that occurs in it exactly once, its replacement, and
the pytest node ids that must fail once the replacement is made. For every
entry the runner copies the tree to a temporary directory, applies the
substitution there and runs the tests with a fixed hypothesis seed and hash
seed. A mutant is caught when pytest reports failed tests (exit 1); passing
tests, a collection error or an unknown node id count against it. An ``old``
string that does not occur exactly once is an error, not a skip. The tests are
first run once on the unmutated copy, where they must pass.

Stdlib only. Usage: python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


_AN = "tests/test_graphs.py::"
_EXPORT = "tests/test_export.py::"
_IMPORTS = "tests/test_imports.py::"
_STEM = "tests/test_cli.py::test_a_reading_id_that_names_no_file_is_an_input_error"
_FLAG = "tests/test_cli.py::test_each_network_flag_reaches_its_builder"
# 20-30-node graphs, where another summation order changes low bits
_BRANDES = "tests/test_metrics.py::test_node_report_equals_oracle_on_larger_random_graphs"
MUTANTS: list[Mutant] = [
    # quote-pair scorer: score pairs one holder holds alone
    Mutant("src/aicnet/semantic.py",
           "            elif sole[i] is not None and sole[i] == sole[j]:\n                continue\n",
           "", (_AN + "test_build_an_reads_no_vector_the_oracle_skips",)),
    # quote-pair scorer: same-text pairs scored by their vectors, not counted 1.0
    Mutant("src/aicnet/semantic.py",
           "if quotes[i].normalized_text == quotes[j].normalized_text:",
           "if quotes[i].id == quotes[j].id:",
           (_AN + "test_build_an_equals_pairwise_oracle",)),
    # quote-pair scorer: every quote's vector read, not only those a pair needs
    Mutant("src/aicnet/semantic.py", "[{i: 1.0} for i in range(n)]",
           "[{i: 1.0} for i in range(n) if store.get(quotes[i].id)]",
           (_AN + "test_build_an_reads_no_vector_the_oracle_skips",)),
    # an all-zero vector passes EmbeddingStore.get and is refused for its norm instead
    Mutant("src/aicnet/semantic.py",
           "        if not any(vec):\n            raise ZeroVector(quote_id)\n", "",
           (_AN + "test_build_an_vector_errors_match_oracle",
            "tests/test_semantic.py::test_vector_errors_name_the_quote")),
    # a vector of another length passes EmbeddingStore.get
    Mutant("src/aicnet/semantic.py", "if len(vec) != self.dim:", "if not len(vec):",
           (_AN + "test_build_an_vector_errors_match_oracle",)),
    # vectors read from the map, bypassing EmbeddingStore.get
    Mutant("src/aicnet/semantic.py", "vec = store.get(quotes[k].id)",
           "vec = store.vectors[quotes[k].id]",
           (_AN + "test_build_an_vector_errors_match_oracle",
            _AN + "test_build_an_with_one_defective_vector_equals_oracle")),
    # a non-finite vector passes EmbeddingStore.get's first check, and is refused for its norm
    Mutant("src/aicnet/semantic.py", "if not all(map(math.isfinite, vec)):", "if False:",
           ("tests/test_semantic.py::test_vector_errors_name_the_quote",)),
    # a quote's normalized text recomputed on every read
    Mutant("src/aicnet/corpus.py", "    @cached_property\n    def normalized_text",
           "    @property\n    def normalized_text",
           (_AN + "test_build_an_normalizes_each_quote_text_once",)),
    # build --format: a repeated format written twice
    Mutant("src/aicnet/cli.py", "list(dict.fromkeys(_listed(args.format)))",
           "_listed(args.format)",
           ("tests/test_cli.py::test_build_writes_a_repeated_format_once",)),
    # build --format: an empty list accepted
    Mutant("src/aicnet/cli.py",
           '    if not requested:\n        raise AicnetError("no export format given")\n', "",
           ("tests/test_cli.py::test_build_rejects_an_empty_format_list",)),
    # build: every one-file format written by the json writer
    Mutant("src/aicnet/cli.py", 'getattr(export, f"write_{fmt}")', 'getattr(export, "write_json")',
           ("tests/test_cli.py::test_build_writes_each_format_its_reader_reads_back",)),
    # compare: the delta taken as a - b
    Mutant("src/aicnet/cli.py", "else vb - va", "else va - vb",
           ("tests/test_cli.py::test_compare_layout_matches_golden",)),
    # node tables: two measures listed in swapped order
    Mutant("src/aicnet/cli.py",
           '(("AN Closeness", "an_closeness"), ("IN Betweenness", "in_betweenness"),',
           '(("IN Betweenness", "in_betweenness"), ("AN Closeness", "an_closeness"),',
           ("tests/test_acceptance.py::test_criterion_09_report_formats",
            "tests/test_cli.py::test_compare_layout_matches_golden")),
    # synth --authors: ignored when --blocks is given
    Mutant("src/aicnet/cli.py", "if args.authors not in (None, covered):", "if False:",
           ("tests/test_cli.py::test_synth_authors_must_match_the_blocks",)),
    # report CSV files: cells joined with "," unquoted, so an id's comma splits it
    Mutant("src/aicnet/corpus.py",
           '        csv.writer(buf, lineterminator="\\r\\n").writerow(row)\n'
           '        lines.append(buf.getvalue()[:-2] + "\\n")\n',
           '        lines.append(",".join(row) + "\\n")\n',
           ("tests/test_cli.py::test_report_csv_files_quote_ids_that_hold_a_comma",)),
    # CSV files: a carriage return left unquoted, so csv.reader splits the row there
    Mutant("src/aicnet/corpus.py", 'lineterminator="\\r\\n"', 'lineterminator="\\n\\n"',
           ("tests/test_cli.py::test_csv_files_quote_ids_that_hold_a_carriage_return",)),
    # metrics --level node --out: each file name checked only when its report is reached
    Mutant("src/aicnet/cli.py",
           "stems = [_file_stem(rid, f\"metrics_node_{rid}\") if named else None "
           "for rid in reading_ids]",
           "stems = (_file_stem(rid, f\"metrics_node_{rid}\") if named else None "
           "for rid in reading_ids)",
           ("tests/test_cli.py::test_metrics_node_out_checks_every_file_name_first",)),
    # output files: a reading id that is a path used as a file name
    Mutant("src/aicnet/cli.py",
           '    if "\\0" in stem or Path(stem).name != stem:\n'
           '        raise AicnetError(f"reading {reading_id!r} cannot name an output file")\n', "",
           (_STEM + "[build-parent]", _STEM + "[metrics-slash]")),
    # output files: a reading id holding a NUL reaches the file system
    Mutant("src/aicnet/cli.py", """if "\\0" in stem or Path""", "if Path",
           (_STEM + "[build-nul]", _STEM + "[metrics-nul]")),
    # synth: no pad artifact for a two-document reading with planted words
    Mutant("src/aicnet/synth.py",
           "pad = bool(n_planted) and len(authors) + len(params.reply_edges) < 3",
           "pad = bool(n_planted) and len(authors) + len(params.reply_edges) < 2",
           ("tests/test_synth.py::test_planted_words_score_above_zero_in_a_two_annotation_reading",)),
    # synth: author pairs that share no quote text planted as zero-weight AN edges
    Mutant("src/aicnet/synth.py", "for p, n in shared.items() if n}", "for p, n in shared.items()}",
           ("tests/test_synth.py::test_blocks_give_exactly_one_edge",
            "tests/test_graphs.py::test_builders_make_canonical_edges_on_synthetic_corpora[0]")),
    # verify: CN weights compared exactly, not by edge set alone
    Mutant("src/aicnet/synth.py", "_diff_graphs(cn_expected, cn, math.inf)",
           "_diff_graphs(cn_expected, cn, 0.0)",
           ("tests/test_synth.py::test_verify_diffs_the_cn_by_edge_set[missing]",
            "tests/test_synth.py::test_vocab_overlap_becomes_cn_edges")),
    # synth: the kept block texts hashed a second time for the store
    Mutant("src/aicnet/synth.py", "vectors={q.id: vector_of[q.text] for",
           "vectors={q.id: hash_embed(q.text, dim) for",
           ("tests/test_synth.py::test_generate_hashes_each_text_once",)),
    # joint_pairs: pairs within one set kept, not only those across the two
    Mutant("src/aicnet/semantic.py", "if j >= i and len(holders[i] | holders[j]) == 2]",
           "if j >= i]", (_AN + "test_joint_pairs_keeps_only_pairs_across_the_sets",
                          _AN + "test_joint_pairs_equals_pairwise_oracle")),
    # joint_pairs: every quote paired with itself, not only one in both sets
    Mutant("src/aicnet/semantic.py", "if j >= i and len(holders[i] | holders[j]) == 2]",
           "if j == i or j > i and len(holders[i] | holders[j]) == 2]",
           (_AN + "test_joint_pairs_pairs_a_quote_with_itself_only_in_both_sets",
            _AN + "test_joint_pairs_equals_pairwise_oracle")),
    # --threshold dropped on its way to build_an
    Mutant("src/aicnet/cli.py", "build_an(reading, corpus, store, args.threshold)",
           "build_an(reading, corpus, store)", (_FLAG + "[threshold]",)),
    # --dim dropped on its way to the hash embedder
    Mutant("src/aicnet/cli.py", "for q in r.quotes.values()], args.dim)",
           "for q in r.quotes.values()])", (_FLAG + "[dim]",)),
    # --min-freq dropped on its way to word selection
    Mutant("src/aicnet/cli.py",
           "WordSelectionParams(args.min_freq, args.drop_lowest, args.top_words, args.stopwords,",
           "WordSelectionParams(5, args.drop_lowest, args.top_words, args.stopwords,",
           (_FLAG + "[min-freq]",)),
    # --top-words dropped on its way to word selection
    Mutant("src/aicnet/cli.py", "args.drop_lowest, args.top_words, args.stopwords,",
           "args.drop_lowest, 70, args.stopwords,", (_FLAG + "[top-words]",)),
    # No mutant reorders the terms of an AN weight: math.fsum is exactly
    # rounded, so every order gives the same float. Nor is the weight summed by
    # the builtin sum: from Python 3.12 that sum is compensated and equals
    # math.fsum on the test's terms, so that mutant would survive there.

    # interaction network: a missing parent surfaces as a bare KeyError
    Mutant("src/aicnet/graphs.py",
           "        parent = by_id.get(art.parent_id)\n        if parent is None:\n"
           "            raise DanglingParent(art.id)\n",
           "        parent = by_id[art.parent_id]\n",
           (_AN + "test_build_in_names_a_reply_whose_parent_is_missing",)),
    # interaction network: same-author replies kept, as self-loops
    Mutant("src/aicnet/graphs.py",
           "        if parent.author_id == art.author_id:\n            continue\n", "",
           (_AN + "test_build_in_discards_self_replies",
            _AN + "test_builders_make_canonical_edges_on_synthetic_corpora")),
    # a vector of another length read without naming its quote
    Mutant("src/aicnet/semantic.py",
           "        if len(vec) != self.dim:\n"
           "            raise DimensionMismatch(quote_id, self.dim, len(vec))\n", "",
           ("tests/test_semantic.py::test_vector_errors_name_the_quote",)),
    # Brandes betweenness: sources taken in reversed order
    Mutant("src/aicnet/metrics.py", "    for source in sources:\n",
           "    for source in reversed(sources):\n", (_BRANDES,)),
    # Brandes betweenness: neighbour lists in descending position, not id order
    Mutant("src/aicnet/metrics.py", "neighbors = [_members(row) for row in rows]",
           "neighbors = [_members(row)[::-1] for row in rows]", (_BRANDES,)),
    # transitivity: ordered wedges, twice the unordered triples
    Mutant("src/aicnet/metrics.py", "wedges = sum(d * (d - 1) // 2 for",
           "wedges = sum(d * (d - 1) for",
           ("tests/test_metrics.py::test_transitivity_triangle",)),
    # closeness: the first BFS level counted at distance 2
    Mutant("src/aicnet/metrics.py", "    reached = total = depth = 0\n",
           "    reached = total = 0\n    depth = 1\n",
           ("tests/test_metrics.py::test_closeness_p3",)),
    # closeness: an adjacency built per node, not once per graph
    Mutant("src/aicnet/metrics.py", "{v: _closeness_from(rows, i) for v, i in position.items()}",
           "{v: _closeness_from(_adjacency(g)[1], i) for v, i in position.items()}",
           ("tests/test_metrics.py::test_node_report_builds_one_adjacency_per_graph",)),
    # quote-pair scorer: no slack for rounding in the reject test
    Mutant("src/aicnet/semantic.py", "est + (len(u) + 8) * 2.0**-51 * r <", "est <",
           (_AN + "test_surely_below_rejects_only_pairs_cosine_puts_below_tau",)),
    # quote-pair scorer: the reject test cut at tau, so a pair _cosine snaps to 1.0 is lost
    Mutant("src/aicnet/semantic.py", "min(tau, 1.0 - _CLAMP_TOL)", "tau",
           (_AN + "test_surely_below_rejects_only_pairs_cosine_puts_below_tau",)),
    # hash vectors: every quote's text hashed up front again
    Mutant("src/aicnet/semantic.py", "vectors=_HashVectors(by_id, dim))",
           "vectors=dict(_HashVectors(by_id, dim)))",
           ("tests/test_semantic.py::test_embed_quotes_twins_share_one_vector",
            "tests/test_cli.py::test_metrics_hashes_exactly_the_texts_build_an_reads"
            "[widened_corpus.jsonl]")),
    # attention network: a weight reused for every author pair sharing the first set
    Mutant("src/aicnet/graphs.py", "sets = (quotes_of[u], quotes_of[v])", "sets = quotes_of[u]",
           (_AN + "test_build_an_equals_pairwise_oracle",)),
    # an empty JSONL vector reported as an all-zero one
    Mutant("src/aicnet/semantic.py",
           "        if not vector:\n"
           "            raise EmbeddingFileError(where, \"'vector' must be a non-empty list of numbers\")\n",
           "", ("tests/test_semantic.py::test_load_jsonl_faults_name_the_line[empty_vector]",)),
    # a binary file of dimension 0 reported as holding all-zero vectors
    Mutant("src/aicnet/semantic.py", "    if count and not dim:\n", "    if False:\n",
           ("tests/test_cli.py::test_bad_embedding_file_is_input_error[zero_dimension_binary]",)),
    # save_embeddings writes records a load refuses
    Mutant("src/aicnet/semantic.py",
           "            raise InvalidVector(quote_id, \"needs a non-empty string id\")\n"
           "        store.get(quote_id)\n",
           "            raise InvalidVector(quote_id, \"needs a non-empty string id\")\n",
           ("tests/test_semantic.py::test_save_refuses_what_a_load_refuses[nan-jsonl]",
            "tests/test_semantic.py::test_save_refuses_what_a_load_refuses[zero-binary]")),
    # a binary record with an empty id loads
    Mutant("src/aicnet/semantic.py",
           "        if not quote_id:\n"
           "            raise EmbeddingFileError(f\"byte {offset}\", \"quote id is empty\")\n",
           "", ("tests/test_semantic.py::test_load_rejects_an_empty_binary_id",)),
    # read_dot reads with newline translation, so an id's "\r" comes back as "\n"
    Mutant("src/aicnet/export.py", 'open(encoding="utf-8", newline="")', 'open(encoding="utf-8")',
           (_EXPORT + "test_round_trip_formats[write_dot-read_dot-dot]",)),
    # validate parses a broken file a second time
    Mutant("src/aicnet/cli.py", "    if errors:\n        for err in errors:\n",
           "    if errors:\n        errors = corpus_mod.validate_file(args.corpus, "
           "_corpus_format(args.corpus))\n        for err in errors:\n",
           ("tests/test_cli.py::test_validate_parses_a_broken_file_once",)),
    # --dim without its upper bound
    Mutant("src/aicnet/cli.py", "at_most=65536", "at_most=None",
           ("tests/test_cli.py::test_oversized_dim_is_an_input_error[metrics]",)),
    # word selection: a lemma's aggregate is its last score, not its max
    Mutant("src/aicnet/textpipe.py", "aggregate[lemma] = max(aggregate.get(lemma, score), score)",
           "aggregate[lemma] = score",
           ("tests/test_textpipe.py::test_selection_insensitive_to_artifact_order",)),
    # word selection: idf as a difference of logs, which rounds differently
    Mutant("src/aicnet/textpipe.py", "math.log(len(docs) / n)",
           "math.log(len(docs)) - math.log(n)",
           ("tests/test_textpipe.py::test_selection_equals_oracle_on_synthetic_corpora[3]",)),
    # word selection: each body judged with a fresh memo
    Mutant("src/aicnet/textpipe.py",
           "    lookup = _noun_lookup(noun_lexicon, extra_stopwords)\n    docs = []\n"
           "    for art in reading.artifacts:\n",
           "    docs = []\n    for art in reading.artifacts:\n"
           "        lookup = _noun_lookup(noun_lexicon, extra_stopwords)\n",
           ("tests/test_textpipe.py::test_lemmatize_called_once_per_distinct_surface_per_reading",)),
    # word selection: a bundled-stopword surface judged by its lemma alone
    Mutant("src/aicnet/textpipe.py", "stopped = surface in stops or lemma in stops",
           "stopped = lemma in stops",
           ("tests/test_textpipe.py::test_bundled_stopword_surface_is_never_a_noun",)),
    # word selection: an empty noun lexicon taken for the bundled one
    Mutant("src/aicnet/textpipe.py",
           "default_noun_lexicon() if noun_lexicon is None else noun_lexicon",
           "noun_lexicon or default_noun_lexicon()",
           ("tests/test_cli.py::test_empty_noun_lexicon_means_no_lexicon_nouns",
            "tests/test_textpipe.py::test_noun_lemmas_replacement_lexicon")),
    # binary vector files: an id UTF-8 cannot encode reaches str.encode unguarded
    Mutant("src/aicnet/semantic.py",
           "            try:\n                encoded = quote_id.encode(\"utf-8\")\n"
           "            except UnicodeEncodeError:\n"
           "                raise InvalidVector(quote_id, \"has an id UTF-8 cannot encode\") from None\n",
           "            encoded = quote_id.encode(\"utf-8\")\n",
           ("tests/test_semantic.py::test_binary_save_refuses_ids_it_cannot_hold[lone_surrogate]",)),
    # binary vector files: an id over 65,535 bytes reaches struct.pack unguarded
    Mutant("src/aicnet/semantic.py", "            if len(encoded) > 0xFFFF:\n"
           "                raise InvalidVector(quote_id, \"has an id over 65,535 UTF-8 bytes\")\n", "",
           ("tests/test_semantic.py::test_binary_save_refuses_ids_it_cannot_hold[long]",)),
    # synth: an empty reading id accepted
    Mutant("src/aicnet/synth.py", '    if not reading_id:\n        raise InfeasibleParams("empty reading id")\n',
           "", ("tests/test_synth.py::test_empty_ids_are_infeasible[reading_id]",
                "tests/test_cli.py::test_synth_rejects_an_empty_reading_id")),
    # synth: an empty author id accepted
    Mutant("src/aicnet/synth.py",
           '            if not author:\n                raise InfeasibleParams("empty author id")\n',
           "", ("tests/test_synth.py::test_empty_ids_are_infeasible[author_id]",)),
    # CSV corpora: read under csv's default 131,072-character field limit
    Mutant("src/aicnet/corpus.py", "limit = csv.field_size_limit(len(text) + 1)",
           "limit = csv.field_size_limit()",
           ("tests/test_corpus.py::test_csv_round_trips_a_field_over_the_default_csv_limit",)),
    # CSV corpora: the process-wide field limit left raised after a load
    Mutant("src/aicnet/corpus.py", "    finally:\n        csv.field_size_limit(limit)",
           "    finally:\n        pass",
           ("tests/test_corpus.py::test_csv_round_trips_a_field_over_the_default_csv_limit",)),
    # --embeddings ignored: quotes always get hash vectors
    Mutant("src/aicnet/cli.py", "    if args.embeddings is None:\n        return embed_quotes(",
           "    if True:\n        return embed_quotes(",
           ("tests/test_cli.py::test_embeddings_flag_alone_picks_the_vectors",)),
    # --embeddings: the orphan line dropped
    Mutant("src/aicnet/cli.py",
           """print(f"warning: embeddings for unknown quote ids: {', '.join(orphans)}", """
           "file=sys.stderr)", "pass",
           ("tests/test_cli.py::test_orphan_vectors_warn_on_one_stderr_line",)),
    # cold start: the exporters imported with the CLI again
    Mutant("src/aicnet/cli.py", "from . import metrics\n", "from . import export, metrics\n",
           (_IMPORTS + "test_metrics_and_compare_load_no_exporter_generator_or_xml",)),
    # cold start: the generator imported with the package again
    Mutant("src/aicnet/__init__.py", '__version__ = "0.1.0"\n',
           "from .synth import GroundTruth, SynthParams, VerificationReport, generate, verify\n"
           '__version__ = "0.1.0"\n',
           (_IMPORTS + "test_metrics_and_compare_load_no_exporter_generator_or_xml",)),
    # cold start: a submodule imported with the package again
    Mutant("src/aicnet/__init__.py", "import importlib\n",
           "import importlib\n\nfrom .semantic import EmbeddingStore, hash_embed, load_embeddings\n",
           (_IMPORTS + "test_package_import_loads_no_submodule_yet_reaches_each",)),
    # numpy imported with the vector module again
    Mutant("src/aicnet/semantic.py", "from collections.abc import Iterable, Iterator, Mapping\n",
           "from collections.abc import Iterable, Iterator, Mapping\n\nimport numpy as np\n",
           (_IMPORTS + "test_every_command_runs_without_numpy",)),
    # numpy imported with the graph builders again
    Mutant("src/aicnet/graphs.py", "from collections import Counter\n",
           "from collections import Counter\n\nimport numpy as np\n",
           (_IMPORTS + "test_every_command_runs_without_numpy",)),
    # cold start: build loads an XML parser it only needs to read GraphML back
    Mutant("src/aicnet/export.py", "import re\n", "import re\nimport xml.etree.ElementTree as ET\n",
           (_IMPORTS + "test_build_loads_the_exporters_but_no_xml",)),
    # GraphML attributes: a newline left raw, which an XML parser reads as a space
    Mutant("src/aicnet/export.py", '.replace("\\n", "&#10;")', "",
           (_EXPORT + "test_escapers_equal_saxutils",
            _EXPORT + "test_graphml_ids_with_markup_and_whitespace_round_trip")),
    # GraphML attributes: a value holding both quote characters left unquotable
    Mutant("src/aicnet/export.py", """data.replace('"', "&quot;")""", "data",
           (_EXPORT + "test_escapers_equal_saxutils",
            _EXPORT + "test_graphml_ids_with_markup_and_whitespace_round_trip")),
]


def anchor_errors(root: Path = REPO) -> list[str]:
    """One message per entry whose ``old`` string does not occur exactly once,
    that changes nothing, or that names a test function its file lacks."""
    errors = []
    for m in MUTANTS:
        count = (root / m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            errors.append(f"{m.file}: {m.old!r} occurs {count} times")
        if m.old == m.new:
            errors.append(f"{m.file}: {m.old!r} is replaced by itself")
        for node in m.tests:
            path, _, name = node.partition("::")
            if f"def {name.split('[')[0]}(" not in (root / path).read_text(encoding="utf-8"):
                errors.append(f"{m.file}: test {node} not found")
    return errors


def _pytest(tree: Path, tests: list[str]) -> int:
    # a fixed hash seed fixes set order, which the neighbour-list mutant depends on
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *tests]
    return subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    errors = anchor_errors()
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        return 1
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                    "_work", "*.egg-info")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(REPO, tree, ignore=ignore)
        clean = _pytest(tree, sorted({t for m in MUTANTS for t in m.tests}))
        if clean != 0:
            print(f"error: the tests fail on the unmutated tree (pytest exit {clean})",
                  file=sys.stderr)
            return 1
        survived = 0
        for m in MUTANTS:
            source = tree / m.file
            original = source.read_text(encoding="utf-8")
            source.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                code = _pytest(tree, list(m.tests))
            finally:
                source.write_text(original, encoding="utf-8")
            verdict = "caught" if code == 1 else f"NOT CAUGHT (pytest exit {code})"
            survived += code != 1
            print(f"{verdict}: {m.file}: {m.old.strip().splitlines()[0]}")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
