"""The benchmark's three commands reproduce ``benchmarks/reference.json``.

On each workload's seed-0 corpus at full size, ``metrics --level node``,
``metrics --level network`` and ``compare r1 r2`` run as child processes
through ``benchmarks/run.py`` and must give the recorded digests of their
stdout and written files, so every change keeps these outputs byte for byte.
The test only reads ``reference.json``.
"""

from __future__ import annotations

import pytest


@pytest.mark.parametrize("workload", ["attention_dense", "creation_text", "class_roster"])
def test_benchmark_commands_reproduce_the_reference_digests(bench, tmp_path, workload):
    inputs, _ = bench.prepare(workload, 0, tmp_path, bench.corpora.SIZES[workload])
    samples = {c: bench.run_command(inputs, c, tmp_path, pace=False) for c in bench.COMMANDS}
    expected = bench.reference_digests(workload, 0)
    assert {c: (s.code, s.digest) for c, s in samples.items()} == {
        c: (0, expected[c]) for c in bench.COMMANDS}
