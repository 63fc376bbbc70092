"""Graph export round-trips for every format."""

from __future__ import annotations

import json
import random
from xml.sax import saxutils  # the oracle of the local escapers

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aicnet.errors import ParseError
from aicnet.export import (
    escape,
    quoteattr,
    read_dot,
    read_graphml,
    read_json,
    write_csv,
    write_dot,
    write_graphml,
    write_json,
)
from aicnet.graphs import WeightedGraph

# the characters XML attribute values escape or normalise
_MARKUP = "&<>\"'\n\r\t"


def _sample_graph() -> WeightedGraph:
    g = WeightedGraph(nodes={"isolated one"})
    g.add_edge("s01", "s02", 1.9)
    g.add_edge("s02", 's"quoted"', 0.8123456789012345)
    g.add_edge("s01", "s03", 2.0)
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


@pytest.mark.parametrize("writer,reader,suffix", [
    (write_graphml, read_graphml, "graphml"),
    (write_dot, read_dot, "dot"),
    (write_json, read_json, "json"),
])
def test_round_trip_formats(tmp_path, writer, reader, suffix):
    for i, g in enumerate((_sample_graph(), _separator_graph())):
        path = tmp_path / f"g{i}.{suffix}"
        writer(g, path, name="an")
        _assert_same(reader(path), g)


def test_read_graphml_refuses_a_file_without_a_graph(tmp_path):
    path = tmp_path / "empty.graphml"
    path.write_text('<graphml xmlns="http://graphml.graphdrawing.org/xmlns"/>\n')
    with pytest.raises(ParseError) as exc:
        read_graphml(path)
    assert (exc.value.path, exc.value.where, exc.value.reason) == (
        str(path), "top level", "no <graph> element")


def _graphml(*items: str, edgedefault: str = "undirected") -> str:
    """A GraphML file that declares the weight key ``d1`` as write_graphml
    does, and holds ``items`` in its graph."""
    return "\n".join(['<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
                      '  <key id="d1" for="edge" attr.name="weight" attr.type="double"/>',
                      f'  <graph edgedefault="{edgedefault}">', *items, "  </graph>",
                      "</graphml>", ""])


_GRAPHML_EDGE = '    <edge source="a" target="b"><data key="d1">{}</data></edge>'


@pytest.mark.parametrize("text,where,reason", [
    ("not a graphml file at all", "line 1", "invalid XML (syntax error)"),
    (_graphml('    <node id="a">'), "line 5", "invalid XML (mismatched tag)"),
    (_graphml('    <node id="a"/>', "    <node/>"), "nodes[1]", "lacks 'id'"),
    (_graphml('    <edge source="a"/>'), "edges[0]", "lacks 'target'"),
    (_graphml(_GRAPHML_EDGE.format(0.5), '    <edge target="b"/>'), "edges[1]",
     "lacks 'source'"),
    (_graphml('    <edge source="a" target="a"/>'), "edges[0]", "self-loop on 'a'"),
    (_graphml(_GRAPHML_EDGE.format("heavy")), "edges[0]", "weight 'heavy' is not a number"),
    (_graphml(_GRAPHML_EDGE.format(-1.0)), "edges[0]", "non-positive weight -1.0 on ('a', 'b')"),
    (_graphml(_GRAPHML_EDGE.format(0.5),
              '    <edge source="b" target="a"><data key="d1">0.25</data></edge>'),
     "edges[1]", "repeated edge b -- a"),
    (_graphml(_GRAPHML_EDGE.format(0.5), edgedefault="directed"), "top level",
     "the graph is directed"),
    (_graphml('    <edge source="a" target="b"><data key="d9">strong</data>'
              '<data key="d1">0.5</data></edge>'), "edges[0]",
     "<data> key 'd9' is not the weight key"),
    ('<graphml xmlns="http://graphml.graphdrawing.org/xmlns"><graph edgedefault="undirected">'
     + _GRAPHML_EDGE.format(0.5) + "</graph></graphml>", "edges[0]",
     "<data> key 'd1' is not the weight key"),
    ('<graphml xmlns="http://graphml.graphdrawing.org/xmlns"><graph edgedefault="undirected">'
     '<edge source="a" target="b"><data>0.5</data></edge></graph></graphml>', "edges[0]",
     "<data> key None is not the weight key"),
], ids=["not_xml", "mismatched_tag", "node_without_id", "edge_without_target",
        "edge_without_source", "self_loop", "weight_not_a_number", "negative_weight",
        "repeated_edge", "directed_graph", "data_of_another_key", "undeclared_weight_key",
        "keyless_data"])
def test_read_graphml_names_where_it_cannot_read(tmp_path, text, where, reason):
    path = tmp_path / "g.graphml"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError) as exc:
        read_graphml(path)
    assert (exc.value.path, exc.value.where, exc.value.reason) == (str(path), where, reason)


def test_read_graphml_reads_an_edge_without_a_weight_as_one(tmp_path):
    path = tmp_path / "g.graphml"
    path.write_bytes(_graphml('    <edge source="a" target="b"/>').encode("utf-8"))
    _assert_same(read_graphml(path), WeightedGraph(nodes={"a", "b"}, edges={("a", "b"): 1.0}))


@pytest.mark.parametrize("seed", range(12))
def test_round_trip_random(tmp_path, seed):
    g = _random_graph(seed)
    for writer, reader, suffix in [
        (write_graphml, read_graphml, "graphml"),
        (write_dot, read_dot, "dot"),
        (write_json, read_json, "json"),
    ]:
        path = tmp_path / f"g{seed}.{suffix}"
        writer(g, path)
        _assert_same(reader(path), g)


def test_writes_are_deterministic(tmp_path):
    g = _sample_graph()
    for writer, suffix in [(write_graphml, "graphml"), (write_dot, "dot"), (write_json, "json")]:
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
    _assert_same(read_graphml(path), g)


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


@pytest.mark.parametrize("writer,reader,suffix", [
    (write_graphml, read_graphml, "graphml"),
    (write_dot, read_dot, "dot"),
    (write_json, read_json, "json"),
])
def test_readers_decode_as_every_input_file_is_decoded(tmp_path, writer, reader, suffix):
    g = _sample_graph()
    path = tmp_path / f"g.{suffix}"
    writer(g, path, name="an")
    data = path.read_bytes()
    # a leading byte-order mark is dropped
    path.write_bytes(b"\xef\xbb\xbf" + data)
    _assert_same(reader(path), g)
    # a byte that is not UTF-8 is an input error at its offset
    at = data.index(b"s01")
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    with pytest.raises(ParseError) as exc:
        reader(path)
    assert (exc.value.where, exc.value.reason) == (f"byte {at}", "not valid UTF-8")


_DOT_LINES = ['graph "an" {', '  "a" [isolated=false];', '  "a" -- "b" [weight=0.5];', "}", ""]


@pytest.mark.parametrize("text,where,reason", [
    ("not a dot file at all", "line 1", 'expected the header graph "<name>" {'),
    ("", "line 1", 'expected the header graph "<name>" {'),
    ("\n".join(_DOT_LINES[:3] + [""]), "line 4",
     "expected a node or edge statement or the closing }"),
    ("\n".join(_DOT_LINES[:2] + ["  a -- b;"] + _DOT_LINES[2:]), "line 3",
     "expected a node or edge statement or the closing }"),
    ("\n".join(_DOT_LINES[:4]), "line 4", "expected a node or edge statement or the closing }"),
    ("\r\n".join(_DOT_LINES), "line 1", 'expected the header graph "<name>" {'),
    ("\n".join(_DOT_LINES + ['  "c" [isolated=true];', ""]), "line 5",
     "text after the closing }"),
    ("\n".join(_DOT_LINES[:2] + ['  "a\nb" -- "c" [weight=one];'] + _DOT_LINES[3:]), "line 3",
     "weight 'one' is not a number"),
    ("\n".join(_DOT_LINES[:2] + ['  "a" -- "a" [weight=1.0];'] + _DOT_LINES[3:]), "line 3",
     "self-loop on 'a'"),
    ("\n".join(_DOT_LINES[:2] + ['  "a" -- "b" [weight=-1.0];'] + _DOT_LINES[3:]), "line 3",
     "non-positive weight -1.0 on ('a', 'b')"),
    ("\n".join(_DOT_LINES[:3] + ['  "b" -- "a" [weight=0.25];'] + _DOT_LINES[3:]), "line 4",
     "repeated edge b -- a"),
], ids=["no_dot", "empty", "no_closing_line", "foreign_statement", "no_final_newline", "crlf",
        "after_closing_line", "weight_not_a_number", "self_loop", "negative_weight",
        "repeated_edge"])
def test_read_dot_refuses_what_write_dot_does_not_write(tmp_path, text, where, reason):
    path = tmp_path / "g.dot"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError) as exc:
        read_dot(path)
    assert (exc.value.path, exc.value.where, exc.value.reason) == (str(path), where, reason)


def test_read_dot_reads_what_it_accepts(tmp_path):
    path = tmp_path / "g.dot"
    path.write_bytes("\n".join(_DOT_LINES).encode("utf-8"))
    _assert_same(read_dot(path), WeightedGraph(nodes={"a", "b"}, edges={("a", "b"): 0.5}))


_NODE = {"id": "a"}
_EDGE = {"source": "a", "target": "b", "weight": 0.5}


@pytest.mark.parametrize("data,where,reason", [
    ({"nodes": [], "edges": [{"source": "a"}]}, "edges[0]", "lacks 'target'"),
    ({"nodes": [_NODE, {}], "edges": []}, "nodes[1]", "lacks 'id'"),
    ({"nodes": [{"id": 7}], "edges": []}, "nodes[0]", "'id' is not a string"),
    ({"nodes": ["a"], "edges": []}, "nodes[0]", "is not a JSON object"),
    ({"nodes": [], "edges": [_EDGE, {**_EDGE, "target": None}]}, "edges[1]",
     "'target' is not a string"),
    ({"nodes": [], "edges": [{**_EDGE, "weight": "0.5"}]}, "edges[0]", "'weight' is not a number"),
    ({"nodes": [], "edges": [{**_EDGE, "weight": True}]}, "edges[0]", "'weight' is not a number"),
    ({"nodes": [], "edges": [{**_EDGE, "weight": 10**400}]}, "edges[0]",
     f"weight {10**400!r} is not a number"),
    ({"nodes": [], "edges": [{**_EDGE, "target": "a"}]}, "edges[0]", "self-loop on 'a'"),
    ({"nodes": [], "edges": [{**_EDGE, "weight": 0}]}, "edges[0]",
     "non-positive weight 0.0 on ('a', 'b')"),
    ({"nodes": [], "edges": [_EDGE, {**_EDGE, "source": "b", "target": "a", "weight": 0.25}]},
     "edges[1]", "repeated edge b -- a"),
    ({"nodes": []}, "top level", "expected an object with 'nodes' and 'edges' lists"),
    ({"nodes": {}, "edges": []}, "top level", "expected an object with 'nodes' and 'edges' lists"),
    ([], "top level", "expected an object with 'nodes' and 'edges' lists"),
], ids=["no_target", "no_id", "id_not_a_string", "node_not_an_object", "target_not_a_string",
        "weight_a_string", "weight_a_bool", "weight_too_large", "self_loop", "zero_weight",
        "repeated_edge", "no_edges", "nodes_not_a_list", "not_an_object"])
def test_read_json_names_the_item_it_cannot_read(tmp_path, data, where, reason):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        read_json(path)
    assert (exc.value.path, exc.value.where, exc.value.reason) == (str(path), where, reason)


# the interpreter's message follows "invalid JSON (" for the last two
@pytest.mark.parametrize("text,where,reason", [
    ('{"nodes": [],\n "edges": [}\n', "line 2", "invalid JSON (Expecting value)"),
    ('{"nodes": [' + "1" * 5000 + '], "edges": []}', "top level", "invalid JSON ("),
    ('{"nodes": ' + "[" * 100_000 + "]" * 100_000 + ', "edges": []}', "top level",
     "invalid JSON ("),
], ids=["syntax", "long_integer", "deep_nesting"])
def test_read_json_refuses_text_that_is_not_json(tmp_path, text, where, reason):
    path = tmp_path / "g.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        read_json(path)
    assert exc.value.where == where and exc.value.reason.startswith(reason)
