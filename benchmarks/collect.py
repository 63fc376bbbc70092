"""Repeat the benchmark over several seeds and summarise each metric.

    python3 benchmarks/collect.py --workloads attention_dense,class_roster \
        --seeds 0-9 [--seconds 30] [--trace 0] [--out summary.json]

Runs ``run.py`` once per (workload, seed), one run at a time, and reports for
each metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, (Q3 - Q1) / median. With ``--out`` it also writes the runs, the
summary and the run environment as JSON; that is the format of
``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import HASH_SEED

HERE = Path(__file__).resolve().parent


def parse_seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    probe = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True)
    return {"python": platform.python_version(), "numpy": probe.stdout.strip() or None,
            "nproc": os.cpu_count(), "cpu": _cpu_model(), "hash_seed": HASH_SEED}


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args()
    seconds = args.seconds or json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=HERE.parent)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs[workload].append(result)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(workload, seed, result["correct"], result["attempted"], result["failed"],
                  json.dumps(values), flush=True)
        names = runs[workload][0]["metrics"]
        summary[workload] = {n: summarise([r["metrics"][n]["value"] for r in runs[workload]])
                             for n in names}
        for name, s in summary[workload].items():
            print(f"  {workload:16} {name:34} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.out:
        payload = {"environment": environment(), "seconds": seconds, "trace": args.trace,
                   "summary": summary, "runs": runs}
        args.out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
