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
_HASH = "tests/test_semantic.py::"
_IMPORTS = "tests/test_imports.py::"
_RECORDS = "tests/test_records.py::"
_STEM = "tests/test_cli.py::test_a_reading_id_that_names_no_file_is_an_input_error"
_FLAG = "tests/test_cli.py::test_each_network_flag_reaches_its_builder"
_FILES = "tests/test_input_files.py::"
_CHUNKS = "tests/test_cli_chunks.py::"
_FREEZE_AT_EXIT = "        atexit.register(gc.freeze)\n        _freeze_at_exit = True\n"
_COLUMNS = "tests/test_corpus.py::test_csv_columns_follow_the_documented_rules"
_CLOSED_STDOUT = "tests/test_cli.py::test_a_closed_stdout_is_refused_before_the_command_runs"
_ONE_ADJACENCY = "tests/test_cli.py::test_each_command_builds_one_adjacency_per_graph"
_STDERR_LOST = "tests/test_cli.py::test_a_stderr_that_is_closed_or_full_loses_the_line_alone"
# every string of length <= 6 over the characters that decide a token
_SHORT_STRINGS = "tests/test_textpipe.py::test_tokenize_equals_the_unicode_oracle_on_every_short_string"
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
    # an all-zero vector passes the vector rule's zero check and is refused for its norm instead
    Mutant("src/aicnet/semantic.py",
           "    if not any(vec):\n        raise InvalidVector(quote_id, \"is all zeros\")\n", "",
           (_AN + "test_build_an_vector_errors_match_oracle",
            "tests/test_semantic.py::test_vector_errors_name_the_quote")),
    # a vector of another length passes the vector rule
    Mutant("src/aicnet/semantic.py", "if len(vec) != dim:", "if not len(vec):",
           (_AN + "test_build_an_vector_errors_match_oracle",)),
    # vectors read from the map, bypassing EmbeddingStore.get
    Mutant("src/aicnet/semantic.py", "vec = store.get(quotes[k].id)",
           "vec = store.vectors[quotes[k].id]",
           (_AN + "test_build_an_vector_errors_match_oracle",
            _AN + "test_build_an_with_one_defective_vector_equals_oracle")),
    # a non-finite vector passes the vector rule's finiteness check, and is refused for its norm
    Mutant("src/aicnet/semantic.py", "if not all(map(math.isfinite, vec)):", "if False:",
           ("tests/test_semantic.py::test_vector_errors_name_the_quote",)),
    # hash embedder: 64-bit lanes, so a lane's product carries into the next lane
    Mutant("src/aicnet/semantic.py",
           "        spread = bytearray(16 * len(window))\n"
           "        spread[::16] = window\n"
           "        column = int.from_bytes(spread, \"little\")\n"
           "        ones = int.from_bytes(_LANE_ONE * width, \"little\")\n"
           "        h, mask = ones * _FNV_OFFSET, ones * _MASK64\n"
           "        for k in range(min(5, len(window))):\n"
           "            h = ((h ^ (column >> 128 * k)) * _FNV_PRIME) & mask\n"
           "            if k >= 2:\n"
           "                states = h.to_bytes(16 * width, \"little\")\n"
           "                grams = min(width, len(window) - k)  # the starts with k + 1 bytes left\n"
           "                for g in struct.unpack_from(f\"<{2 * grams}Q\", states)[::2]:\n",
           "        spread = bytearray(8 * len(window))\n"
           "        spread[::8] = window\n"
           "        column = int.from_bytes(spread, \"little\")\n"
           "        ones = int.from_bytes((1).to_bytes(8, \"little\") * width, \"little\")\n"
           "        h, mask = ones * _FNV_OFFSET, ones * _MASK64\n"
           "        for k in range(min(5, len(window))):\n"
           "            h = ((h ^ (column >> 64 * k)) * _FNV_PRIME) & mask\n"
           "            if k >= 2:\n"
           "                states = h.to_bytes(8 * width, \"little\")\n"
           "                grams = min(width, len(window) - k)\n"
           "                for g in struct.unpack_from(f\"<{grams}Q\", states):\n",
           (_HASH + "test_hash_embed_equals_per_gram_oracle",)),
    # hash embedder: every lane masked after the first step only, so products carry
    Mutant("src/aicnet/semantic.py", "* _FNV_PRIME) & mask",
           "* _FNV_PRIME) & (mask if k == 0 else -1)",
           (_HASH + "test_hash_embed_equals_per_gram_oracle",)),
    # hash embedder: the 4- and 5-gram slices one lane too long, into the zero padding
    Mutant("src/aicnet/semantic.py", "grams = min(width, len(window) - k)",
           "grams = min(width, len(window) - k + 1)",
           (_HASH + "test_hash_embed_equals_per_gram_oracle",)),
    # hash embedder: a full block reads only its own bytes, not the next four
    Mutant("src/aicnet/semantic.py", "window = encoded[block : block + width + 4]",
           "window = encoded[block : block + min(width + 4, _FNV_BLOCK)]",
           (_HASH + "test_hash_embed_equals_oracle_across_block_edges",)),
    # hash embedder: the sign test inverted
    Mutant("src/aicnet/semantic.py", "+= 1 if g < 1 << 63 else -1", "+= -1 if g < 1 << 63 else 1",
           (_HASH + "test_hash_embed_equals_per_gram_oracle",
            _HASH + "test_hash_embed_equals_oracle_on_any_text")),
    # hash embedder: all window starts in one block, so memory grows with the text
    Mutant("src/aicnet/semantic.py", "_FNV_BLOCK = 4096", "_FNV_BLOCK = 1 << 62",
           (_HASH + "test_hash_embed_memory_does_not_grow_with_the_text",)),
    # a quote's normalized text recomputed on every read
    Mutant("src/aicnet/corpus.py", "if self._normalized is None:", "if True:",
           (_AN + "test_build_an_normalizes_each_quote_text_once",)),
    # record equality: a field left out
    Mutant("src/aicnet/graphs.py", '_fields = ("nodes", "edges")', '_fields = ("edges",)',
           (_RECORDS + "test_record_behaves_as_its_dataclass",)),
    Mutant("src/aicnet/corpus.py", '_fields = ("id", "reading_id", "text")',
           '_fields = ("id", "text")', (_RECORDS + "test_record_behaves_as_its_dataclass",)),
    Mutant("src/aicnet/semantic.py", '_fields = ("dim", "vectors")', '_fields = ("vectors",)',
           (_RECORDS + "test_record_behaves_as_its_dataclass",)),
    # a quote's hash leaves out its reading
    Mutant("src/aicnet/corpus.py", "        return hash(self._key())",
           "        return hash((self.id, self.text))",
           (_RECORDS + "test_record_behaves_as_its_dataclass",)),
    # an empty optional quote_id or parent_id loaded as "", not absent
    Mutant("src/aicnet/corpus.py", "body, quote_id or None, parent_id or None,",
           "body, quote_id, parent_id,",
           ("tests/test_corpus.py::test_an_empty_optional_field_is_absent_in_either_format",)),
    # record equality across classes: a subclass instance equal to its base's
    Mutant("src/aicnet/corpus.py", "if other.__class__ is self.__class__",
           "if isinstance(other, type(self))",
           (_RECORDS + "test_record_behaves_as_its_dataclass",)),
    # word selection: a negative drop_lowest accepted
    Mutant("src/aicnet/textpipe.py", '        if drop_lowest < 0:\n'
           '            raise ValueError("drop_lowest must be >= 0")\n', "",
           ("tests/test_textpipe.py::test_word_selection_params_refuse_a_count_below_its_floor",)),
    # word lists: a line also ended at U+2028, U+0085 or a form feed
    Mutant("src/aicnet/textpipe.py", '.read_bytes()).split("\\n"):', ".read_bytes()).splitlines():",
           ("tests/test_textpipe.py::test_load_wordlist_lines_end_at_a_line_feed_alone",)),
    # word selection: ranking ties left in artifact order, which the file's record order sets
    Mutant("src/aicnet/textpipe.py", "        if counts[lemma] >= least_tf[lemma]])",
           "        if counts[lemma] >= least_tf[lemma]], key=lambda pair: pair[0])",
           (_FILES + "test_record_order_does_not_change_a_report[creation_text]",)),
    # stats --out: a reading's row dumped as a JSON list, not an object
    Mutant("src/aicnet/cli.py", 'readings = [row._asdict() for row in summary.pop("rows")]',
           'readings = summary.pop("rows")',
           ("tests/test_cli.py::test_report_csv_files_quote_ids_that_hold_a_comma",)),
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
    # readings in chunks: a child's results put before the chunks computed ahead of it
    Mutant("src/aicnet/cli.py", "results += marshal.loads(b\"\".join(parts)) if done",
           "results[:0] = marshal.loads(b\"\".join(parts)) if done",
           (_CHUNKS + "test_every_cpu_count_gives_the_same_output",)),
    # readings in chunks: a failed child's readings dropped, not computed again in the parent
    Mutant("src/aicnet/cli.py", "else [compute(r) for r in chunk]", "else []",
           (_CHUNKS + "test_a_failure_in_a_later_chunk_is_the_serial_error",)),
    # readings in chunks: a child that sent its results left unreaped
    Mutant("src/aicnet/cli.py", "done = pid > 0 and os.waitpid(pid, 0)[1] == 0", "done = pid > 0",
           (_CHUNKS + "test_every_cpu_count_gives_the_same_output",)),
    # readings in chunks: a chunk whose child cannot be forked dropped, not computed in the parent
    Mutant("src/aicnet/cli.py", "                pid = -1\n", "                raise\n",
           (_CHUNKS + "test_a_chunk_that_cannot_be_forked_is_computed_here",)),
    # readings in chunks: the parent's error raised without killing the children first
    Mutant("src/aicnet/cli.py", "                os.kill(pid, 9)  # SIGKILL\n", "",
           (_CHUNKS + "test_a_failure_in_the_first_chunk_kills_the_children",)),
    # exit: the heap left to the interpreter's collections, not frozen at exit
    Mutant("src/aicnet/cli.py", _FREEZE_AT_EXIT, "        _freeze_at_exit = True\n",
           ("tests/test_cli.py::test_a_command_process_freezes_its_heap_once_at_exit",)),
    # exit: the heap frozen when main starts, so an in-process caller's collector changes
    Mutant("src/aicnet/cli.py", _FREEZE_AT_EXIT, "        gc.freeze()\n",
           (_CHUNKS + "test_an_in_process_call_leaves_the_collector_as_it_was",)),
    # exit: gc.freeze registered again on every call of main
    Mutant("src/aicnet/cli.py", "    if not _freeze_at_exit:\n", "    if True:\n",
           ("tests/test_cli.py::test_main_registers_its_exit_handler_once_per_process",)),
    # --help: a write that fails swallowed by argparse, so an unbuffered stdout's failure is exit 0
    Mutant("src/aicnet/cli.py", "    def _print_message(self, message: str, file=None) -> None:\n",
           "    def _unused_print_message(self, message: str, file=None) -> None:\n",
           ("tests/test_cli.py::test_a_stdout_that_cannot_be_written_is_an_input_error"
            "[help_unbuffered]",)),
    # exit: stdout flushed by the interpreter, whose failure is exit 120
    Mutant("src/aicnet/cli.py", "        finally:\n            _flush_stdout()\n",
           "        finally:\n            pass\n",
           ("tests/test_cli.py::test_a_stdout_that_cannot_be_written_is_an_input_error",)),
    # compare: node rows measured for the first reading's authors alone
    Mutant("src/aicnet/cli.py", "_per_reading(args, loaded, [a, b], roster_a | roster_b)",
           "_per_reading(args, loaded, [a, b], roster_a)",
           ("tests/test_cli.py::test_compare_disjoint_rosters_warns",)),
    # a closed stdout: the command runs, and fails as an internal error once done
    Mutant("src/aicnet/cli.py", "    if sys.stdout is None:", "    if False:",
           (_CLOSED_STDOUT + "[validate]", _CLOSED_STDOUT + "[metrics_out]",
            _CLOSED_STDOUT + "[help]")),
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
    # verify: the CN diffed by edge set alone, a weight mismatch no diff
    Mutant("src/aicnet/synth.py", "cn_diffs=_diff_graphs(gt.expected_cn, cn),",
           "cn_diffs=[d for d in _diff_graphs(gt.expected_cn, cn) if None in d[1:]],",
           ("tests/test_synth.py::test_verify_diffs_the_cn_by_weight[lighter]",)),
    # verify: the CN not diffed at all
    Mutant("src/aicnet/synth.py", "cn_diffs=_diff_graphs(gt.expected_cn, cn),", "cn_diffs=[],",
           ("tests/test_synth.py::test_verify_diffs_the_cn_by_weight[missing]",)),
    # verify: every network diffed by edge presence only
    Mutant("src/aicnet/synth.py", "if d.expected != d.actual]",
           "if (d.expected is None) != (d.actual is None)]",
           ("tests/test_synth.py::test_verify_diffs_the_cn_by_weight[lighter]",
            "tests/test_synth.py::test_deleting_a_reply_shows_in_diff")),
    # synth: every planted CN weight 1.0, whatever the word count
    Mutant("src/aicnet/synth.py", "{p: float(n) for p, n in overlap.items()}",
           "{p: 1.0 for p in overlap}",
           ("tests/test_synth.py::test_vocab_overlap_becomes_cn_edges",
            "tests/test_cli.py::test_synth_emits_verifiable_files")),
    # synth: a vocab-overlap pair given in both orders accepted
    Mutant("src/aicnet/synth.py", "        if (y, x) in params.vocab_overlap:\n", "        if False:\n",
           ("tests/test_synth.py::test_infeasible_params",)),
    # synth --vocab-overlap: a pair given twice accepted, the last count winning
    Mutant("src/aicnet/cli.py", "if key in overlap or key[::-1] in overlap:", "if False:",
           ("tests/test_cli.py::test_synth_overlap_pair_given_twice_is_input_error[same-order]",
            "tests/test_cli.py::test_synth_overlap_pair_given_twice_is_input_error[reversed]")),
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
    Mutant("src/aicnet/cli.py", "embed_quotes(r.quotes.values(), args.dim)",
           "embed_quotes(r.quotes.values(), 256)", (_FLAG + "[dim]",)),
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
           "    if len(vec) != dim:\n"
           "        raise InvalidVector(quote_id, f\"has {len(vec)} components, expected {dim}\")\n",
           "", ("tests/test_semantic.py::test_vector_errors_name_the_quote",)),
    # cosine checks only its first vector, so a subnormal or mismatched second one is scored
    Mutant("src/aicnet/semantic.py", 'nv = math.sqrt(_check_vector("", v, len(u)))',
           "nv = math.sqrt(_squared_norm(v))",
           ("tests/test_semantic.py::test_cosine_rejects_zero_and_mismatch",
            "tests/test_semantic.py::test_cosine_refuses_exactly_what_a_store_refuses")),
    # the vector rule's floor lowered to zero, so a subnormal squared norm passes
    Mutant("src/aicnet/semantic.py", "if not sys.float_info.min <= squared < math.inf:",
           "if not 0.0 < squared < math.inf:",
           ("tests/test_semantic.py::test_load_rejects_norm_outside_the_float64_range",
            "tests/test_semantic.py::test_cosine_rejects_norms_outside_the_float64_range",
            "tests/test_semantic.py::test_cosine_refuses_exactly_what_a_store_refuses")),
    # a squared norm whose finite squares overflow their sum escapes as OverflowError
    Mutant("src/aicnet/semantic.py",
           "    try:\n        return math.fsum(map(operator.mul, vec, vec))\n"
           "    except OverflowError:  # the squares are finite but their sum is not\n"
           "        return math.inf\n",
           "    return math.fsum(map(operator.mul, vec, vec))\n",
           ("tests/test_semantic.py::test_a_norm_whose_sum_overflows_is_refused",)),
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
    Mutant("src/aicnet/metrics.py", "_closeness(*an_adj)", "{v: closeness(an, v) for v in an.nodes}",
           ("tests/test_metrics.py::test_node_report_builds_one_adjacency_per_graph",
            _ONE_ADJACENCY + "[compare]")),
    # a reading's report: IN and CN betweenness taken from each other's adjacency
    Mutant("src/aicnet/metrics.py", "_betweenness(*in_adj), _betweenness(*cn_adj)",
           "_betweenness(*cn_adj), _betweenness(*in_adj)",
           ("tests/test_metrics.py::test_node_report_rows",
            "tests/test_acceptance.py::test_criterion_09_report_formats")),
    # a reading's report: IN centralization taken from the AN adjacency
    Mutant("src/aicnet/metrics.py", "_centralization(in_adj[1])", "_centralization(an_adj[1])",
           ("tests/test_metrics.py::test_network_report_composition",)),
    # the cosine snap tolerance widened, so near-parallel vectors count exactly 1.0
    Mutant("src/aicnet/semantic.py", "_CLAMP_TOL = 1e-9", "_CLAMP_TOL = 1e-7",
           (_HASH + "test_cosine_snaps_exactly_within_its_tolerance_of_an_endpoint",)),
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
           "    if not vector:\n        return \"'vector' must be a non-empty list of numbers\"\n",
           "", ("tests/test_semantic.py::test_load_jsonl_faults_name_the_line[empty_vector]",)),
    # a binary file of dimension 0 reported as holding all-zero vectors
    Mutant("src/aicnet/semantic.py", "    if count and not dim:\n", "    if False:\n",
           ("tests/test_cli.py::test_bad_embedding_file_is_input_error[zero_dimension_binary]",)),
    # save_embeddings writes records a load refuses
    Mutant("src/aicnet/semantic.py",
           "            raise InvalidVector(quote_id, \"needs a non-empty string id\")\n"
           "        store.get(quote_id)\n",
           "            raise InvalidVector(quote_id, \"needs a non-empty string id\")\n",
           ("tests/test_semantic.py::test_save_refuses_what_a_load_refuses[nan]",
            "tests/test_semantic.py::test_save_refuses_what_a_load_refuses[zero]")),
    # a binary record with an empty id loads
    Mutant("src/aicnet/semantic.py",
           "        if not quote_id:\n"
           "            raise ParseError(path, f\"byte {offset}\", \"quote id is empty\")\n",
           "", ("tests/test_semantic.py::test_load_rejects_an_empty_binary_id",)),
    # output files opened before their text is encoded, so a failed write leaves a truncated file
    Mutant("src/aicnet/corpus.py", 'Path(path).write_bytes(text.encode("utf-8"))',
           'Path(path).write_text(text, encoding="utf-8", newline="")',
           (_EXPORT + "test_a_writer_that_cannot_encode_leaves_the_file_as_it_was",
            "tests/test_corpus.py::test_save_that_cannot_encode_leaves_the_file_as_it_was")),
    # corpus files: a lone surrogate from a JSON escape loads, and fails later as exit 2
    Mutant("src/aicnet/corpus.py",
           "    if value and not value.isascii() and _SURROGATE.search(value):\n",
           "    if False:\n",
           ("tests/test_cli.py::test_a_lone_surrogate_is_an_input_error[author_id]",
            "tests/test_cli.py::test_a_lone_surrogate_is_an_input_error[quote_text]",
            "tests/test_cli.py::test_a_lone_surrogate_is_an_input_error[reading_id]")),
    # validate parses a broken file a second time
    Mutant("src/aicnet/cli.py", "    if errors:\n        for err in errors:\n",
           "    if errors:\n        errors = corpus_mod._collect(args.corpus, "
           "_corpus_format(args.corpus))[1]\n        for err in errors:\n",
           ("tests/test_cli.py::test_validate_parses_a_broken_file_once",)),
    # input files: one leading byte-order mark kept, so the first record or header is spoilt
    Mutant("src/aicnet/corpus.py", 'raw.decode("utf-8").removeprefix("\\ufeff")',
           'raw.decode("utf-8")',
           ("tests/test_corpus.py::test_round_trip[csv]",
            "tests/test_semantic.py::test_load_jsonl_drops_one_byte_order_mark")),
    # input files: a fault located without naming its file
    Mutant("src/aicnet/errors.py", 'super().__init__(f"{path}: {where}: {reason}")',
           'super().__init__(f"{where}: {reason}")',
           (_FILES + "test_a_malformed_input_file_is_named_with_its_line_or_byte[corpus_csv]",
            "tests/test_corpus.py::test_parse_record_raises_a_parse_error_naming_the_line")),
    # JSONL files: a line that is JSON but no object passed on as a record
    Mutant("src/aicnet/corpus.py",
           "        if not isinstance(rec, dict):\n"
           "            yield ParseError(path, f\"line {lineno}\", "
           "\"record is not a JSON object\")\n"
           "            continue\n", "",
           (_FILES + "test_a_malformed_input_file_is_named_with_its_line_or_byte"
            "[corpus_jsonl_not_an_object]",
            _FILES + "test_a_malformed_input_file_is_named_with_its_line_or_byte"
            "[vectors_jsonl_not_an_object]")),
    # JSONL files: lines split at U+2028, U+0085 and the like, which JSON strings hold raw
    Mutant("src/aicnet/corpus.py", 'enumerate(text.split("\\n"), start=1)',
           "enumerate(text.splitlines(), start=1)",
           (_FILES + "test_jsonl_lines_end_at_line_feeds_alone",)),
    # corpus files: a consistency fault located at its reading's first line
    Mutant("src/aicnet/corpus.py", 'f"line {lines[reading.id, err.artifact_id]}"',
           'f"line {min(n for (rid, _), n in lines.items() if rid == reading.id)}"',
           (_FILES + "test_a_malformed_input_file_is_named_with_its_line_or_byte"
            "[corpus_dangling_parent]",)),
    # CSV corpus files: a record located at its last line, where a multi-line cell ends
    Mutant("src/aicnet/corpus.py", "                yield start, cells(row + pad)",
           "                yield reader.line_num, cells(row + pad)",
           (_FILES + "test_a_malformed_input_file_is_named_with_its_line_or_byte"
            "[corpus_csv_multiline]",
            _FILES + "test_a_malformed_input_file_is_named_with_its_line_or_byte"
            "[corpus_csv_multiline_dangling_parent]")),
    # corpus files: ids checked for duplicates across readings, not within each
    Mutant("src/aicnet/corpus.py", "        if key in lines:\n",
           "        if record.id in {rid for _, rid in lines}:\n",
           (_FILES + "test_a_malformed_input_file_is_named_with_its_line_or_byte"
            "[corpus_missing_quote]",)),
    # binary vector files: a record's fault located at the first record, here the one before it
    Mutant("src/aicnet/semantic.py", "    for index in range(count):\n        start = offset\n",
           "    start = offset\n    for index in range(count):\n",
           (_FILES + "test_a_malformed_input_file_is_named_with_its_line_or_byte"
            "[vectors_binary_nan]",)),
    # attention network: a thread whose quote the reading lacks skipped in silence
    Mutant("src/aicnet/graphs.py",
           "        if root.quote_id not in reading.quotes:\n"
           "            raise MissingQuote(root.id)\n"
           "        attended[art.author_id].add(root.quote_id)\n",
           "        if root.quote_id in reading.quotes:\n"
           "            attended[art.author_id].add(root.quote_id)\n",
           (_AN + "test_a_thread_whose_quote_is_missing_raises_missing_quote",)),
    # word selection: a replacement noun lexicon kept from the lemmatizer
    Mutant("src/aicnet/textpipe.py", "lemma = _lemmatize(surface, nouns)",
           "lemma = lemmatize(surface)",
           ("tests/test_textpipe.py::test_replacement_lexicon_reaches_the_lemmatizer",)),
    # the similarity threshold refuses 1.0
    Mutant("src/aicnet/semantic.py", "if not 0.0 < tau <= 1.0:", "if not 0.0 < tau < 1.0:",
           ("tests/test_semantic.py::test_joint_pairs_tau_one_keeps_only_common_reference",
            _FILES + "test_threshold_one_passes_and_a_non_number_keeps_argparse_message[one]")),
    # --dim without its upper bound
    Mutant("src/aicnet/cli.py", "at_most=65536", "at_most=None",
           ("tests/test_cli.py::test_oversized_dim_is_an_input_error[metrics]",)),
    # word selection: a lemma's max score from its last group's tf, not its largest
    Mutant("src/aicnet/textpipe.py",
           "            if tf > top_tf[lemma]:\n                top_tf[lemma] = tf\n",
           "            top_tf[lemma] = tf\n",
           ("tests/test_textpipe.py::test_selection_insensitive_to_artifact_order",)),
    # word selection: idf as a difference of logs, which rounds differently
    Mutant("src/aicnet/textpipe.py", "math.log(n_docs / n)",
           "math.log(n_docs) - math.log(n)",
           ("tests/test_textpipe.py::test_selection_equals_oracle_on_synthetic_corpora[3]",)),
    # word selection: the (score, lemma) group that reaches top_k pairs not taken
    Mutant("src/aicnet/textpipe.py",
           "        if reach >= params.top_k:\n            break\n        reach += keys[key][0]\n",
           "        reach += keys[key][0]\n        if reach >= params.top_k:\n            break\n",
           ("tests/test_textpipe.py::test_equal_scores_of_one_lemma_rank_by_artifact_id_not_author",
            "tests/test_textpipe.py::"
            "test_selection_equals_oracle_where_ids_repeat_cuts_split_groups_or_idf_is_zero")),
    # word selection: (tf, df) pairs of equal tf-idf ranked apart, in sorted order
    Mutant("src/aicnet/textpipe.py", "ranks[low] + (order(low, pair) != 0)", "ranks[low] + 1",
           ("tests/test_textpipe.py::test_tfidf_ranks_equal_the_exact_ranks",
            "tests/test_textpipe.py::test_equal_tfidf_with_unequal_floats_ties_by_lemma[top_k]")),
    # word selection: (tf, df) pairs compared as floats alone
    Mutant("src/aicnet/textpipe.py",
           "        left, right = n_docs ** a[0] * b[1] ** b[0], n_docs ** b[0] * a[1] ** a[0]\n"
           "        return (left > right) - (left < right)\n",
           "        return (gap > 0) - (gap < 0)\n",
           ("tests/test_textpipe.py::test_tfidf_ranks_equal_the_exact_ranks",
            "tests/test_textpipe.py::test_equal_tfidf_with_unequal_floats_ties_by_lemma[top_k]")),
    # word selection: a slack below the floats' rounding bound, so floats decide equal values;
    # a larger slack only sends more pairs to the integers, so widening it is sound and
    # a mutant that does survives by design
    Mutant("src/aicnet/textpipe.py", "* 2.0 ** -45", "* 2.0 ** -60",
           ("tests/test_textpipe.py::test_tfidf_ranks_equal_the_exact_ranks",
            "tests/test_textpipe.py::test_equal_tfidf_with_unequal_floats_ties_by_lemma[drop]")),
    # word selection: pairs tied on (score, lemma, artifact id) left in document order
    Mutant("src/aicnet/textpipe.py", "        if counts[lemma] >= least_tf[lemma]])",
           "        if counts[lemma] >= least_tf[lemma]], key=lambda pair: pair[:3])",
           ("tests/test_textpipe.py::test_a_repeated_artifact_id_ties_by_author",)),
    # lemmatizer: -ies -> -y from 6 letters, so "skies" gives "skie"
    Mutant("src/aicnet/textpipe.py", 'surface.endswith("ies") and len(surface) > 4',
           'surface.endswith("ies") and len(surface) > 5',
           ("tests/test_textpipe.py::test_lemmatize_equals_the_readme_oracle",)),
    # word selection: each body judged with a fresh memo
    Mutant("src/aicnet/textpipe.py",
           "    lookup = _noun_lookup(noun_lexicon, extra_stopwords)\n    docs = []\n"
           "    for art in reading.artifacts:\n",
           "    docs = []\n    for art in reading.artifacts:\n"
           "        lookup = _noun_lookup(noun_lexicon, extra_stopwords)\n",
           ("tests/test_textpipe.py::test_lemmatize_called_once_per_distinct_surface_per_reading",)),
    # word selection: the surfaces judged so far forgotten at every body
    Mutant("src/aicnet/textpipe.py",
           "return partial(map, _Verdicts(nouns, default_stopwords(), extra_stopwords).__getitem__)",
           "return lambda surfaces: map(_Verdicts(nouns, default_stopwords(),\n"
           "                                          extra_stopwords).__getitem__, surfaces)",
           ("tests/test_textpipe.py::test_lemmatize_called_once_per_distinct_surface_per_reading",)),
    # word selection: a verdict returned on a miss but not kept, so it is judged again
    Mutant("src/aicnet/textpipe.py", "verdict = self[surface] = lemma if", "verdict = lemma if",
           ("tests/test_textpipe.py::test_lemmatize_called_once_per_distinct_surface_per_reading",)),
    # word selection: one document ranked per artifact id, so a repeated id ranks its last alone
    Mutant("src/aicnet/textpipe.py", "        for art, counts in docs for lemma in",
           "        for art, counts in {a.id: (a, c) for a, c in docs}.values() for lemma in",
           ("tests/test_textpipe.py::test_a_repeated_artifact_id_ranks_every_documents_pairs",
            "tests/test_textpipe.py::"
            "test_selection_equals_oracle_where_ids_repeat_cuts_split_groups_or_idf_is_zero")),
    # tokenizer: the byte table run on text that is not ASCII
    Mutant("src/aicnet/textpipe.py",
           "    if not text.isascii():\n        return _TOKEN.findall(text)\n", "",
           ("tests/test_textpipe.py::test_tokenize_equals_the_unicode_oracle",)),
    # tokenizer: ASCII tested before lowering, so the Kelvin sign misses the byte table
    Mutant("src/aicnet/textpipe.py",
           "    text = text.lower()\n    if not text.isascii():\n        return _TOKEN.findall(text)\n",
           "    if not text.isascii():\n        return _TOKEN.findall(text.lower())\n"
           "    text = text.lower()\n",
           ("tests/test_textpipe.py::test_tokenize_takes_the_ascii_pattern_when_the_lowered_text_is_ascii",)),
    # tokenizer: a joiner that follows no word character kept ("'a" -> "'a")
    Mutant("src/aicnet/textpipe.py", r"|(?<!\w)['-]", "",
           (_SHORT_STRINGS,)),
    # tokenizer: "_" made a separator by the byte table
    Mutant("src/aicnet/textpipe.py", """b in b"_'-" else 32""", """b in b"'-" else 32""",
           (_SHORT_STRINGS,)),
    # tokenizer: digits made separators by the byte table
    Mutant("src/aicnet/textpipe.py", "bytes([b]).isalnum()", "bytes([b]).isalpha()",
           (_SHORT_STRINGS,)),
    # synth: a quote text drawn again is hashed and compared again
    Mutant("src/aicnet/synth.py", "            if text in chosen:\n                continue\n", "",
           ("tests/test_synth.py::test_block_texts_skips_a_repeated_draw_unhashed_then_gives_up",)),
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
    # synth: an empty reading id accepted
    Mutant("src/aicnet/synth.py", '    if not reading_id:\n        raise InfeasibleParams("empty reading id")\n',
           "", ("tests/test_synth.py::test_empty_ids_are_infeasible[reading_id]",
                "tests/test_cli.py::test_synth_rejects_an_empty_reading_id")),
    # synth: an empty author id accepted
    Mutant("src/aicnet/synth.py",
           '            if not author:\n                raise InfeasibleParams("empty author id")\n',
           "", ("tests/test_synth.py::test_empty_ids_are_infeasible[author_id]",)),
    # CSV corpora: of two columns of one name, the first counts
    Mutant("src/aicnet/corpus.py", "column = {name: i for i, name in enumerate(header)}",
           "column = {name: i for i, name in reversed(list(enumerate(header)))}",
           (_COLUMNS + "[repeated_name]", _COLUMNS + "[repeated_name_short_row]")),
    # CSV corpora: a short row's missing cells read as "-", not absent
    Mutant("src/aicnet/corpus.py", 'pad = [""] * (len(header) + 1)',
           'pad = ["-"] * len(header) + [""]', (_COLUMNS + "[short_row]",)),
    # corpora: an empty ts cell or field loaded as "", not absent
    Mutant("src/aicnet/corpus.py", "                    ts or None)", "                    ts)",
           (_COLUMNS + "[empty_cells]",
            "tests/test_corpus.py::test_an_empty_optional_field_is_absent_in_either_format")),
    # quote texts folded by full Unicode case folding, so "Straße" and "STRASSE" are twins
    Mutant("src/aicnet/corpus.py", 'return _WS.sub(" ", text.strip()).lower()',
           'return _WS.sub(" ", text.strip()).casefold()',
           ("tests/test_corpus.py::test_normalize_text_equals_the_oracle",
            "tests/test_cli.py::test_non_ascii_corpus_reports_match_goldens")),
    # CSV corpora: read under csv's default 131,072-character field limit
    Mutant("src/aicnet/corpus.py", "limit = csv.field_size_limit(len(text) + 1)",
           "limit = csv.field_size_limit()",
           ("tests/test_corpus.py::test_csv_round_trips_a_field_over_the_default_csv_limit",)),
    # CSV corpora: the process-wide field limit left raised after a load
    Mutant("src/aicnet/corpus.py", "    finally:\n        csv.field_size_limit(limit)",
           "    finally:\n        pass",
           ("tests/test_corpus.py::test_csv_round_trips_a_field_over_the_default_csv_limit",)),
    # --embeddings ignored: quotes always get hash vectors
    Mutant("src/aicnet/cli.py", "    if args.embeddings is None:\n", "    if True:\n",
           ("tests/test_cli.py::test_embeddings_flag_alone_picks_the_vectors",)),
    # hash vectors: one store for every reading, where a later reading's q1 replaces an earlier's
    Mutant("src/aicnet/cli.py",
           "{r.id: embed_quotes(r.quotes.values(), args.dim) for r in readings}",
           "dict.fromkeys((r.id for r in readings), embed_quotes("
           "[q for r in readings for q in r.quotes.values()], args.dim))",
           (_CHUNKS + "test_each_reading_hashes_the_texts_of_its_own_quotes[1]",)),
    # --embeddings: a quote id with two texts read as one quote
    Mutant("src/aicnet/cli.py", "if other.normalized_text != quote.normalized_text:", "if False:",
           (_CHUNKS + "test_with_a_vector_file_a_quote_id_names_one_text[metrics]",)),
    # --embeddings: the orphan line dropped
    Mutant("src/aicnet/cli.py",
           """_inform(f"warning: embeddings for unknown quote ids: {', '.join(orphans)}")""",
           "pass",
           ("tests/test_cli.py::test_orphan_vectors_warn_on_one_stderr_line",)),
    # a note or warning line written through print(file=None) when fd 2 is closed: into stdout
    Mutant("src/aicnet/cli.py", "        if sys.stderr:\n", "        if True:\n",
           (_STDERR_LOST + "[note-closed]", _STDERR_LOST + "[warning-closed]")),
    # a note or warning line that cannot be written fails the command
    Mutant("src/aicnet/cli.py", '            sys.stderr.write(line + "\\n")\n    except OSError:\n',
           '            sys.stderr.write(line + "\\n")\n    except ValueError:\n',
           (_STDERR_LOST + "[note-full]", _STDERR_LOST + "[warning-full]")),
    # an error line written through print(file=None) when fd 2 is closed: into stdout
    Mutant("src/aicnet/cli.py", '_inform(f"error: {exc}")', 'print(f"error: {exc}", file=sys.stderr)',
           ("tests/test_cli.py::test_with_fd_2_closed_an_error_writes_nothing_on_stdout[input_error]",)),
    # a flag error's usage written by argparse, to stdout when fd 2 is closed
    Mutant("src/aicnet/cli.py", '_inform(f"{self.format_usage()}{self.prog}: error: {message}")',
           'self.print_usage(sys.stderr)\n        _inform(f"{self.prog}: error: {message}")',
           ("tests/test_cli.py::test_with_fd_2_closed_an_error_writes_nothing_on_stdout[usage]",)),
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
    # cold start: build loads an XML parser, which no command needs
    Mutant("src/aicnet/export.py", "from pathlib import Path\n",
           "from pathlib import Path\nimport xml.etree.ElementTree as ET\n",
           (_IMPORTS + "test_build_loads_the_exporters_but_no_xml",)),
    # GraphML attributes: a newline left raw, which an XML parser reads as a space
    Mutant("src/aicnet/export.py", '.replace("\\n", "&#10;")', "",
           (_EXPORT + "test_escapers_equal_saxutils",
            _EXPORT + "test_graphml_ids_with_markup_and_whitespace_round_trip")),
    # GraphML attributes: a newline left raw, caught by a round trip without the escaper oracle
    Mutant("src/aicnet/export.py", '.replace("\\n", "&#10;")', "",
           (_EXPORT + "test_round_trip_formats[write_graphml-graphml]",)),
    # DOT ids: a backslash left unescaped, so it escapes the character after it
    Mutant("src/aicnet/export.py", '.replace("\\\\", "\\\\\\\\")', "",
           (_EXPORT + "test_round_trip_formats[write_dot-dot]",)),
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
