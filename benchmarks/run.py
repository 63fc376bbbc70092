"""aicnet benchmark: the real CLI on three seeded corpus shapes.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` (timed run). Generates the workload's corpus from the seed, then
repeats rounds until ``--seconds`` are used. A round runs, one child process
at a time:

* a set-up child that imports ``aicnet.cli`` and loads the bundled word
  lists, as every command does before it reads the corpus;
* ``aicnet metrics CORPUS --level node --out DIR``;
* ``aicnet metrics CORPUS --level network --out DIR``;
* ``aicnet compare CORPUS r1 r2``.

It reports the median paced wall time of each, and the highest child peak RSS
of one more run of each command. Each timed child also times a fixed loop of
Python string and dict work just before and just after its work. The child's
wall time, less the loops, is scaled by ``NOMINAL_LOOP_S`` over the loops' mean
time. That takes out the host's speed swings, which the loop shares with the
work. Children get ``PYTHONHASHSEED=0`` and an absolute ``PYTHONPATH`` to
``src``, so runs work from any directory.

``--trace 1`` (traced run). Runs the three commands in-process in a child
(``layers.py``) and reports per-layer self times and counts.

Correctness, both modes: every command exits 0; every repetition of a command
writes byte-identical output; the default seeds match digests recorded in
``reference.json``; the node and network JSON reports equal networkx on the
public builders' graphs (``check.py``); and, in timed runs, one node-level run
under another hash seed matches too. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` (``failed / attempted`` is the
error rate) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import corpora
from check import digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

HASH_SEED = "0"
CHECK_HASH_SEED = "20230526"
CHILD_TIMEOUT_S = 120
COMPARED = ("r1", "r2")
COMMANDS = ("metrics_node", "metrics_network", "compare")
SETUP_CODE = ("import aicnet.cli; from aicnet.textpipe import default_noun_lexicon, "
              "default_stopwords; default_stopwords(); default_noun_lexicon()")
# what the installed ``aicnet`` console script runs
CLI_CODE = "import sys; from aicnet.cli import main; sys.exit(main())"

# A shared 2-vCPU VM runs up to 1.5x slower for seconds at a time, and a whole
# run can fall in a slow or a fast phase. A fixed loop of string and dict work,
# like the program's own, timed in the same process right before and after the
# work, slows with it. So the work's wall time is reported at the speed where
# the loop takes NOMINAL_LOOP_S: about its median on the VM that baseline.json
# was measured on. (A pure arithmetic loop tracked the slow phases less well.)
NOMINAL_LOOP_S = 0.045
LOOP_FILE = "loop_s"
LOOP_CODE = (
    "from time import perf_counter as _now\n"
    "def _loop():\n"
    "    t = _now(); d = {}\n"
    "    for i in range(60000):\n"
    "        k = str(i * 7919 % 100003)\n"
    "        d[k] = d.get(k, 0) + len(k)\n"
    "    sorted(d)\n"
    "    return _now() - t\n"
    "_before = _loop()\n"
    "try:\n"
    "    {code}\n"
    "finally:\n"
    "    _after = _loop()\n"
    f"    with open({LOOP_FILE!r}, 'w') as _f:\n"
    "        _f.write(repr(_before) + ' ' + repr(_after))\n"
)


def paced(code: str) -> str:
    """One line of child code, between two timed runs of the reference loop."""
    return LOOP_CODE.replace("{code}", code)


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a failed generator)."""


@dataclass
class Inputs:
    corpus: Path
    vectors: Path | None
    out: Path

    def argv(self, command: str) -> list[str]:
        extra = ["--embeddings", str(self.vectors)] if self.vectors else []
        if command == "compare":
            return ["compare", str(self.corpus), *COMPARED, *extra]
        level = command.split("_")[1]
        return ["metrics", str(self.corpus), "--level", level,
                "--out", str(self.out_dir(command)), *extra]

    def out_dir(self, command: str) -> Path | None:
        return None if command == "compare" else self.out / command


def prepare(workload: str, seed: int, work: Path, sizes: corpora.Sizes) -> tuple[Inputs, dict]:
    vocab = corpora.load_vocabulary(SRC / "aicnet" / "data")
    gen = corpora.generate(workload, seed, vocab, sizes)
    fmt = corpora.FORMATS[workload]
    inputs = Inputs(work / f"corpus.{fmt}", None, work / "out")
    corpora.write_corpus(gen, inputs.corpus, fmt)
    if gen.vectors is not None:
        inputs.vectors = work / "vectors.jsonl"
        corpora.write_vectors(gen, inputs.vectors)
    for command in COMMANDS:
        if inputs.out_dir(command):
            inputs.out_dir(command).mkdir(parents=True)
    return inputs, corpora.properties(gen)


# -- child processes -----------------------------------------------------------

def child_env(hash_seed: str = HASH_SEED) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}


@dataclass
class Sample:
    code: int
    wall_s: float  # less the reference loops, in a paced child
    rss_mb: float
    digest: str
    loop_s: float | None = None  # mean reference-loop time, in a paced child

    @property
    def paced_s(self) -> float:
        return self.wall_s * NOMINAL_LOOP_S / self.loop_s if self.loop_s else self.wall_s


def run_child(argv: list[str], work: Path, out_dir: Path | None = None,
              hash_seed: str = HASH_SEED) -> Sample:
    """Run one child to completion; wall time, peak RSS, output digest and, if
    the child ran ``paced`` code, its reference-loop times."""
    stdout_path, stderr_path, loop_path = work / "stdout", work / "stderr", work / LOOP_FILE
    loop_path.unlink(missing_ok=True)
    with stdout_path.open("wb") as out, stderr_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=work, env=child_env(hash_seed),
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"child {argv[-6:]} exited {code}: {tail}", file=sys.stderr)
    loops = [float(x) for x in loop_path.read_text().split()] if loop_path.is_file() else []
    return Sample(code, wall - sum(loops), usage.ru_maxrss / 1024.0,
                  digest(stdout_path.read_bytes(), out_dir),
                  statistics.fmean(loops) if loops else None)


def run_command(inputs: Inputs, command: str, work: Path, hash_seed: str = HASH_SEED,
                pace: bool = True) -> Sample:
    out_dir = inputs.out_dir(command)
    if out_dir is not None:  # start empty, so the digest sees only this run's files
        shutil.rmtree(out_dir)
        out_dir.mkdir()
    code = paced(CLI_CODE) if pace else CLI_CODE
    return run_child(["-c", code, *inputs.argv(command)], work, out_dir, hash_seed)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {why}", file=sys.stderr)


def reference_digests(workload: str, seed: int) -> dict[str, str] | None:
    if not REFERENCE.is_file():
        return None
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return table.get("digests", {}).get(workload, {}).get(str(seed))


def run_oracle(inputs: Inputs, work: Path, tally: Tally) -> dict:
    extra = ["--embeddings", str(inputs.vectors)] if inputs.vectors else []
    sample = run_child([str(HERE / "check.py"), str(inputs.corpus), *extra,
                        "--node", str(inputs.out_dir("metrics_node")),
                        "--network", str(inputs.out_dir("metrics_network"))], work)
    report = json.loads((work / "stdout").read_text(encoding="utf-8")) if sample.code == 0 else {}
    tally.add(sample.code == 0 and report.get("count") == 0,
              f"networkx oracle: {report.get('mismatches', 'did not run')}")
    return report.get("versions", {})


# -- timed run -----------------------------------------------------------------

def timed(inputs: Inputs, expected: dict[str, str] | None, seconds: float, work: Path,
          tally: Tally) -> dict[str, dict]:
    samples: dict[str, list[Sample]] = {c: [] for c in ("setup", *COMMANDS)}
    first: dict[str, str] = {}  # digest of each command's first run
    rounds: list[float] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        began = time.perf_counter()
        setup = run_child(["-c", paced(SETUP_CODE)], work)
        tally.add(setup.code == 0, f"set-up child exit {setup.code}")
        samples["setup"].append(setup)
        for c in COMMANDS:
            s = run_command(inputs, c, work)
            same = s.digest == first.setdefault(c, s.digest)
            tally.add(s.code == 0 and same, f"{c} exit {s.code}, output {'same' if same else 'changed'}")
            samples[c].append(s)
        rounds.append(time.perf_counter() - began)
    elapsed = time.perf_counter() - start

    if expected is not None:
        for c in COMMANDS:
            tally.add(expected.get(c) == first[c], f"{c} output differs from reference.json")
    # peak RSS from one run of each command without the reference loops, whose
    # dict would otherwise stay in the child's heap
    rss: dict[str, float] = {}
    for c in COMMANDS:
        s = run_command(inputs, c, work, pace=False)
        tally.add(s.code == 0 and s.digest == first[c],
                  f"{c} without the loops exit {s.code} or output differs")
        rss[c] = s.rss_mb
    run_oracle(inputs, work, tally)
    other = run_command(inputs, "metrics_node", work, CHECK_HASH_SEED)
    tally.add(other.code == 0 and other.digest == first["metrics_node"],
              f"metrics_node under PYTHONHASHSEED={CHECK_HASH_SEED} exit {other.code} or output differs")

    def median(command: str) -> float:
        return statistics.median(s.paced_s for s in samples[command])

    print(f"{len(rounds)} rounds in {elapsed:.1f} s; per command: paced s / wall s / loop ms",
          file=sys.stderr)
    for command, runs in samples.items():
        print(f"  {command:16}" + " ".join(f"{s.paced_s:.3f}/{s.wall_s:.3f}/{s.loop_s * 1e3:.0f}"
                                            for s in runs if s.loop_s), file=sys.stderr)
    return {
        "metrics_node_s": {"value": median("metrics_node"), "unit": "s"},
        "metrics_network_s": {"value": median("metrics_network"), "unit": "s"},
        "compare_s": {"value": median("compare"), "unit": "s"},
        "peak_rss_mb": {"value": max(rss.values()), "unit": "MB"},
        "setup_s": {"value": median("setup"), "unit": "s"},
    }


# -- traced run ----------------------------------------------------------------

_UNITS = {"_s": "s", "_calls": "count", "_share": "fraction", "_yield": "edges/call",
          "_frac": "fraction"}


def traced(inputs: Inputs, expected: dict[str, str] | None, seconds: float, work: Path,
           tally: Tally, workload: str, seed: int, properties: dict) -> dict[str, dict]:
    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    # one file per workload, so repeated runs do not fill the disk with spans
    trace_file = trace_dir / f"{workload}.json"
    spec = {
        "commands": {c: {"argv": inputs.argv(c), "out": str(inputs.out_dir(c) or "")}
                     for c in COMMANDS},
        "seconds": seconds,
        "trace_file": str(trace_file),
    }
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    child = run_child([str(HERE / "layers.py"), str(work / "spec.json")], work)
    if child.code != 0:
        raise BenchError("traced run failed")
    result = json.loads(trace_file.read_text(encoding="utf-8"))
    tally.attempted += result["attempted"]
    tally.failed += result["failed"]
    if result["failed"]:
        print(f"check failed: {result['failed']} traced-run commands failed or changed output",
              file=sys.stderr)
    if expected is not None:
        for c, d in result["digests"].items():
            tally.add(expected.get(c) == d, f"traced {c} output differs from reference.json")
    versions = run_oracle(inputs, work, tally)

    result["workload"], result["seed"] = workload, seed
    result["input"] = properties
    result["environment"].update(versions, nproc=os.cpu_count(), hash_seed=HASH_SEED)
    trace_file.write_text(json.dumps(result) + "\n", encoding="utf-8")
    print(json.dumps({"by_command_s": result["first_pass_by_command_s"]}), file=sys.stderr)

    def unit(name: str) -> str:
        return next((u for suffix, u in _UNITS.items() if name.endswith(suffix)), "count")

    return {name: {"value": value, "unit": unit(name)} for name, value in result["metrics"].items()}


# -- entry point ---------------------------------------------------------------

def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  sizes: corpora.Sizes | None = None) -> dict:
    if not (SRC / "aicnet" / "cli.py").is_file():
        raise BenchError(f"no aicnet sources at {SRC}")
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    # reference digests exist only for the full-size corpora
    expected = reference_digests(workload, seed) if sizes is None else None
    try:
        inputs, properties = prepare(workload, seed, work, sizes or corpora.SIZES[workload])
        tally = Tally()
        if trace:
            metrics = traced(inputs, expected, seconds, work, tally, workload, seed, properties)
        else:
            metrics = timed(inputs, expected, seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(corpora.SIZES), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
