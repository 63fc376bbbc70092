"""Record reference output digests for the default seeds.

    python3 benchmarks/record.py --seeds 0-15

Runs each command once per (workload, seed) and writes ``reference.json``.
Timed and traced runs on these seeds then require byte-identical output. Run
it only at a commit whose outputs are known good, and never to make a failing
check pass.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import corpora
import run
from collect import parse_seeds


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-15")
    args = p.parse_args()
    digests: dict[str, dict[str, dict[str, str]]] = {}
    run.WORK.mkdir(parents=True, exist_ok=True)
    for workload in corpora.SIZES:
        digests[workload] = {}
        for seed in parse_seeds(args.seeds):
            work = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK))
            try:
                inputs, _ = run.prepare(workload, seed, work, corpora.SIZES[workload])
                samples = {c: run.run_command(inputs, c, work) for c in run.COMMANDS}
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if any(s.code != 0 for s in samples.values()):
                print(f"{workload} seed {seed}: a command failed", file=sys.stderr)
                return 1
            digests[workload][str(seed)] = {c: s.digest for c, s in samples.items()}
            print(workload, seed, flush=True)
    run.REFERENCE.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
