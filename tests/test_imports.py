"""What a command imports: the measure commands load neither the exporters nor
the generator, no command loads :mod:`dataclasses`, no command needs numpy,
and the package serves every public name on first use."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import aicnet

from conftest import child_env

DATA = Path(__file__).resolve().parent / "data"
CORPUS = str(DATA / "sample_corpus.jsonl")
VECTORS = str(DATA / "sample_embeddings.jsonl")

# modules no measure command needs; each name stands for its submodules too.
# dataclasses takes inspect, ast, dis and tokenize with it: no command needs it
UNNEEDED = ("urllib.request", "http", "ssl", "email", "xml.sax", "xml.etree",
            "aicnet.synth", "aicnet.export", "dataclasses", "inspect")

# argv: the module names, the commands (a JSON list of argv lists), a result
# file, and the modules to make unimportable
_PROBE = """
import json, sys

names, commands, result = json.loads(sys.argv[1]), json.loads(sys.argv[2]), sys.argv[3]
for blocked in json.loads(sys.argv[4]):
    sys.modules[blocked] = None  # importing it now raises ImportError
from aicnet import cli

def loaded():
    return sorted(m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names))

seen = [["import aicnet.cli", 0, loaded()]]
for argv in commands:
    seen.append([argv[0], cli.main(argv), loaded()])
with open(result, "w") as fh:
    json.dump(seen, fh)
"""


def _probe(tmp_path: Path, names: tuple[str, ...], commands: list[list[str]],
           blocked: tuple[str, ...] = ()) -> list[list]:
    """``[step, exit code, loaded modules among names]`` after importing the CLI
    and after each command, all run in one fresh interpreter in which the
    ``blocked`` modules cannot be imported."""
    result = tmp_path / "seen.json"
    run = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(names), json.dumps(commands), str(result),
         json.dumps(blocked)],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(), check=False,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(result.read_text(encoding="utf-8"))


def test_metrics_and_compare_load_no_exporter_generator_or_xml(tmp_path):
    commands = [
        ["validate", CORPUS],
        ["stats", CORPUS],
        ["metrics", CORPUS, "--level", "network", "--embeddings", VECTORS],
        ["metrics", CORPUS, "--level", "node", "--out", str(tmp_path / "out")],
        ["compare", CORPUS, "r1", "r2"],
    ]
    seen = _probe(tmp_path, UNNEEDED, commands)
    steps = ["import aicnet.cli", "validate", "stats", "metrics", "metrics", "compare"]
    assert seen == [[step, 0, []] for step in steps]


def test_build_loads_the_exporters_but_no_xml(tmp_path):
    build = ["build", CORPUS, "--reading", "r1", "--network", "an", "--embeddings", VECTORS,
             "--format", "graphml,dot,csv,json", "--out", str(tmp_path / "graphs")]
    seen = _probe(tmp_path, (*UNNEEDED, "xml"), [build])
    assert seen == [["import aicnet.cli", 0, []], ["build", 0, ["aicnet.export"]]]
    assert len(list((tmp_path / "graphs").iterdir())) == 5


def test_synth_loads_the_generator_but_no_dataclasses_or_xml(tmp_path):
    synth = ["synth", "--seed", "3", "--vocab-overlap", "s01:s02=1", "--out",
             str(tmp_path / "synth")]
    seen = _probe(tmp_path, (*UNNEEDED, "xml"), [synth])
    assert seen == [["import aicnet.cli", 0, []],
                    ["synth", 0, ["aicnet.export", "aicnet.synth"]]]


def test_every_command_runs_without_numpy(tmp_path):
    out = str(tmp_path / "out")
    builds = [["build", CORPUS, "--reading", "r1", "--network", network,
               "--format", "graphml,dot,csv,json", "--out", out] for network in ("an", "in", "cn")]
    commands = [
        ["validate", CORPUS],
        ["stats", CORPUS, "--out", out],
        *builds,
        [*builds[0], "--embeddings", VECTORS],
        ["metrics", CORPUS, "--level", "node", "--embeddings", VECTORS, "--out", out],
        ["metrics", CORPUS, "--level", "network", "--out", out],
        ["compare", CORPUS, "r1", "r2"],
        ["synth", "--seed", "3", "--out", str(tmp_path / "synth")],
    ]
    seen = _probe(tmp_path, (), commands, blocked=("numpy",))
    assert seen == [[step, 0, []] for step in ["import aicnet.cli", *(c[0] for c in commands)]]


def test_commands_that_read_no_vector_load_no_numpy(tmp_path):
    # with numpy importable, no command so much as tries it: not even the ones
    # that read a vector
    out = str(tmp_path / "out")
    commands = [
        ["validate", CORPUS],
        ["stats", CORPUS, "--out", out],
        ["build", CORPUS, "--reading", "r1", "--network", "in", "--format", "json,csv",
         "--out", out],
        ["build", CORPUS, "--reading", "r1", "--network", "cn", "--format", "graphml,dot",
         "--out", out],
        ["build", CORPUS, "--reading", "r1", "--network", "an", "--embeddings", VECTORS,
         "--out", out],
        ["metrics", CORPUS, "--level", "network"],
    ]
    seen = _probe(tmp_path, ("numpy",), commands)
    assert seen == [[step, 0, []] for step in ["import aicnet.cli", *(c[0] for c in commands)]]


def test_package_import_loads_no_submodule_yet_reaches_each():
    probe = """
import json, sys
import aicnet
before = sorted(m for m in sys.modules if m.startswith("aicnet.") or m == "numpy")
reached = [getattr(aicnet, name).__name__ for name in json.loads(sys.argv[1])]
print(json.dumps([before, reached, "numpy" in sys.modules]))
"""
    # each submodule is reached before another one imports it
    names = ["errors", "corpus", "textpipe", "semantic", "graphs", "metrics"]
    run = subprocess.run([sys.executable, "-c", probe, json.dumps(names)], capture_output=True,
                         text=True, env=child_env(), check=False)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [[], [f"aicnet.{name}" for name in names], False]


def test_every_public_name_resolves():
    for name in aicnet.__all__:
        assert getattr(aicnet, name).__name__ == name


def test_star_import_binds_every_public_name_in_a_fresh_interpreter():
    probe = """
import json, sys
import aicnet
eager = "aicnet.synth" in sys.modules
from aicnet import *
unbound = [name for name in aicnet.__all__ if name not in globals()]
try:
    aicnet.no_such_name
    missing = "no error"
except AttributeError as exc:
    missing = str(exc)
print(json.dumps([eager, unbound, missing]))
"""
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=child_env(), check=False)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [
        False, [], "module 'aicnet' has no attribute 'no_such_name'"]
