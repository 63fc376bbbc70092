"""The benchmark's own smoke run, so the benchmark cannot rot unnoticed.

``benchmarks/smoke.py`` checks generator determinism, cosine margins, and a
timed and a traced run of every workload at tiny sizes (about 20 s).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from conftest import child_env

SMOKE = Path(__file__).resolve().parent.parent / "benchmarks" / "smoke.py"


def test_benchmark_smoke_passes(tmp_path):
    result = subprocess.run(
        [sys.executable, str(SMOKE)],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(),
        timeout=600, check=False,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert result.stdout.splitlines()[-1] == "smoke ok"
