"""Graph export round-trips for every format, read back by readers that share
no code with the writers (:func:`conftest.read_export`)."""

from __future__ import annotations

import random
from xml.sax import saxutils  # the oracle of the local escapers

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aicnet.export import escape, quoteattr, write_csv, write_dot, write_graphml, write_json
from aicnet.graphs import WeightedGraph

from conftest import read_export

# the characters XML attribute values escape or normalise
_MARKUP = "&<>\"'\n\r\t"


def _sample_graph() -> WeightedGraph:
    g = WeightedGraph(nodes={"isolated one"})
    g.add_edge("s01", "s02", 1.9)
    g.add_edge("s02", 's"quoted"', 0.8123456789012345)
    g.add_edge("s01", "s03", 2.0)
    g.add_edge("s03", "back\\slash", 0.25)
    return g


# each a line break to str.splitlines, and text-mode reads translate "\r"
_SEPARATORS = ("\n", "\r", "\r\n", "\x85", "\u2028")


def _separator_graph() -> WeightedGraph:
    """Node ids holding each line separator alone, and all of them at once."""
    everything = "".join(_SEPARATORS)
    g = WeightedGraph(nodes={f"isolated{everything}"})
    for i, sep in enumerate(_SEPARATORS):
        g.add_edge(f"s{sep}", f"all{everything}", 0.5 + i)
    return g


def _random_graph(seed: int) -> WeightedGraph:
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    names = [f"n{i}" for i in range(n)]
    g = WeightedGraph(nodes=set(names))
    for i, u in enumerate(names):
        for v in names[i + 1 :]:
            if rng.random() < 0.4:
                g.add_edge(u, v, rng.uniform(0.001, 42.0))
    return g


def _assert_same(a: WeightedGraph, b: WeightedGraph):
    assert a.nodes == b.nodes
    assert a.edges == b.edges  # exact weights: repr round-trips floats


_WRITERS = [(write_graphml, "graphml"), (write_dot, "dot"), (write_json, "json")]


@pytest.mark.parametrize("writer,suffix", _WRITERS)
def test_round_trip_formats(tmp_path, writer, suffix):
    for i, g in enumerate((_sample_graph(), _separator_graph(), _markup_graph())):
        path = tmp_path / f"g{i}.{suffix}"
        writer(g, path, name="an")
        _assert_same(read_export(path), g)


@pytest.mark.parametrize("seed", range(12))
def test_round_trip_random(tmp_path, seed):
    g = _random_graph(seed)
    for writer, suffix in _WRITERS:
        path = tmp_path / f"g{seed}.{suffix}"
        writer(g, path)
        _assert_same(read_export(path), g)


def test_writes_are_deterministic(tmp_path):
    g = _sample_graph()
    for writer, suffix in _WRITERS:
        p1, p2 = tmp_path / f"a.{suffix}", tmp_path / f"b.{suffix}"
        writer(g, p1)
        writer(g, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_graphml_readable_by_networkx(tmp_path):
    nx = pytest.importorskip("networkx")
    g = _sample_graph()
    path = tmp_path / "g.graphml"
    write_graphml(g, path, name="an")
    h = nx.read_graphml(path)
    assert set(h.nodes) == g.nodes
    for (u, v), w in g.edges.items():
        assert h.has_edge(u, v)
        assert h[u][v]["weight"] == pytest.approx(w, abs=0)
    # isolates carry the flag
    assert h.nodes["isolated one"]["isolated"] is True
    assert h.nodes["s01"]["isolated"] is False


@given(st.text(alphabet=_MARKUP + "abXY ", max_size=24))
@example(_MARKUP)
def test_escapers_equal_saxutils(text):
    assert escape(text) == saxutils.escape(text)
    assert quoteattr(text) == saxutils.quoteattr(text)


def _markup_graph() -> WeightedGraph:
    """Node ids holding each markup character alone, and all of them at once."""
    g = WeightedGraph(nodes={f"isolated {_MARKUP}"})
    for i, ch in enumerate(_MARKUP):
        g.add_edge(f"s{ch}", f"all {_MARKUP}", 0.5 + i)
    return g


def test_graphml_ids_with_markup_and_whitespace_round_trip(tmp_path):
    g = _markup_graph()
    path = tmp_path / "g.graphml"
    write_graphml(g, path, name=_MARKUP)
    _assert_same(read_export(path), g)


def test_graphml_ids_with_markup_and_whitespace_read_by_networkx(tmp_path):
    nx = pytest.importorskip("networkx")
    g = _markup_graph()
    path = tmp_path / "g.graphml"
    write_graphml(g, path, name=_MARKUP)
    h = nx.read_graphml(path)
    assert set(h.nodes) == g.nodes
    assert {tuple(sorted((u, v))): w for u, v, w in h.edges(data="weight")} == g.edges


def test_csv_export(tmp_path):
    g = _sample_graph()
    edges = tmp_path / "edges.csv"
    nodes = tmp_path / "nodes.csv"
    write_csv(g, edges, nodes)
    node_lines = nodes.read_text().splitlines()
    assert node_lines[0] == "node,isolated"
    assert "isolated one,true" in node_lines
    edge_lines = edges.read_text().splitlines()
    assert edge_lines[0] == "source,target,weight"
    assert f"s01,s02,{1.9!r}" in edge_lines


@pytest.mark.parametrize("write", [
    write_graphml, write_dot, lambda g, path: write_csv(g, path, path.with_suffix(".nodes")),
], ids=["graphml", "dot", "csv"])
def test_a_writer_that_cannot_encode_leaves_the_file_as_it_was(tmp_path, write):
    g = WeightedGraph(nodes={"lone \ud800"})
    g.add_edge("s01", "s02", 1.0)
    path = tmp_path / "g.out"
    for target in (path, path.with_suffix(".nodes")):
        target.write_bytes(b"existing bytes\n")
    with pytest.raises(UnicodeEncodeError):
        write(g, path)
    for target in (path, path.with_suffix(".nodes")):
        assert target.read_bytes() == b"existing bytes\n"
