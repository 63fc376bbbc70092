"""Graph file writers (GraphML, DOT, CSV, JSON) and their parse-back readers.

Writers emit nodes and edges in sorted order so repeated runs are
byte-identical; weights are written with full ``repr`` precision. Isolated
nodes are kept in every format and flagged ``isolated=true``. The readers
understand exactly what the writers emit and exist so exports can be verified
to round-trip. Files are written and decoded as corpus files are.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .corpus import _csv_lines, _decoded, _json_text, _write
from .errors import ParseError
from .graphs import WeightedGraph, edge_key

_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


# escape and quoteattr as in xml.sax.saxutils, whose import loads urllib.request,
# http, ssl and email
def escape(data: str) -> str:
    return data.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(data: str) -> str:
    """``data`` escaped, with newline, return and tab as character references, in
    double quotes; in single quotes if it holds ``"`` but not ``'``; else ``"`` as ``&quot;``."""
    data = escape(data).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in data:
        return f'"{data}"'
    if "'" not in data:
        return f"'{data}'"
    return '"' + data.replace('"', "&quot;") + '"'


def _isolates(g: WeightedGraph) -> set[str]:
    connected = {v for key in g.edges for v in key}
    return g.nodes - connected


def write_graphml(g: WeightedGraph, path: str | Path, name: str = "graph") -> None:
    isolates = _isolates(g)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<graphml xmlns="{_GRAPHML_NS}">',
        '  <key id="d0" for="node" attr.name="isolated" attr.type="boolean"/>',
        '  <key id="d1" for="edge" attr.name="weight" attr.type="double"/>',
        f'  <graph id={quoteattr(name)} edgedefault="undirected">',
    ]
    for node in sorted(g.nodes):
        flag = "true" if node in isolates else "false"
        lines.append(f'    <node id={quoteattr(node)}><data key="d0">{flag}</data></node>')
    for (u, v) in sorted(g.edges):
        w = repr(g.edges[(u, v)])
        lines.append(
            f'    <edge source={quoteattr(u)} target={quoteattr(v)}>'
            f'<data key="d1">{escape(w)}</data></edge>'
        )
    lines += ["  </graph>", "</graphml>", ""]
    _write(path, "\n".join(lines))


def read_graphml(path: str | Path) -> WeightedGraph:
    """The graph of a GraphML file's first ``<graph>`` element, read as
    :func:`write_graphml` writes it: its nodes' ``id``, and its edges'
    ``source``, ``target`` and weight, the text of the ``<data>`` whose
    ``key`` is the id of the edge ``<key>`` named ``weight`` (1.0 when absent
    or empty). Text that is not XML raises :class:`ParseError` at its line; a
    file without a ``<graph>``, or whose graph is directed, raises it at
    ``top level``; a node or edge that lacks an attribute, an edge ``<data>``
    of another key, or an edge :func:`_add_edge` refuses, raises it at the
    item, as ``edges[3]``."""
    import xml.etree.ElementTree as ET  # only a read-back loads an XML parser
    from xml.parsers.expat import ErrorString

    try:
        root = ET.fromstring(_decoded(path, Path(path).read_bytes()))
    except ET.ParseError as exc:
        raise ParseError(path, f"line {exc.position[0]}",
                         f"invalid XML ({ErrorString(exc.code)})") from None
    ns = {"g": _GRAPHML_NS}
    g = WeightedGraph()
    graph = root.find("g:graph", ns)
    if graph is None:
        raise ParseError(path, "top level", "no <graph> element")
    if graph.get("edgedefault") == "directed":
        raise ParseError(path, "top level", "the graph is directed")
    weight_key = next((key.get("id") for key in root.findall("g:key", ns)
                       if key.get("for") == "edge" and key.get("attr.name") == "weight"), None)
    for part, keys in (("node", ("id",)), ("edge", ("source", "target"))):
        for i, item in enumerate(graph.findall(f"g:{part}", ns)):
            for key in keys:
                if key not in item.attrib:
                    raise ParseError(path, f"{part}s[{i}]", f"lacks {key!r}")
    for node in graph.findall("g:node", ns):
        g.nodes.add(node.attrib["id"])
    for i, edge in enumerate(graph.findall("g:edge", ns)):
        weight: str | float = 1.0
        for data in edge.findall("g:data", ns):
            if weight_key is None or data.get("key") != weight_key:
                raise ParseError(path, f"edges[{i}]", f"<data> key {data.get('key')!r} is not "
                                                      "the weight key")
            weight = data.text or 1.0
        _add_edge(g, path, f"edges[{i}]", edge.attrib["source"], edge.attrib["target"], weight)
    return g


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(g: WeightedGraph, path: str | Path, name: str = "graph") -> None:
    isolates = _isolates(g)
    lines = [f"graph {_dot_quote(name)} {{"]
    for node in sorted(g.nodes):
        flag = "true" if node in isolates else "false"
        lines.append(f"  {_dot_quote(node)} [isolated={flag}];")
    for (u, v) in sorted(g.edges):
        lines.append(f"  {_dot_quote(u)} -- {_dot_quote(v)} [weight={g.edges[(u, v)]!r}];")
    lines += ["}", ""]
    _write(path, "\n".join(lines))


# write_dot's header line, and one node or edge statement; a quoted id may hold a line break
_DOT_ID = r'"((?:[^"\\]|\\.)*)"'
_DOT_HEADER = re.compile(rf"graph {_DOT_ID} \{{\n")
_DOT_STATEMENT = re.compile(
    rf"  {_DOT_ID} (?:\[isolated=(?:true|false)\]|-- {_DOT_ID} \[weight=([^\]]+)\]);\n")


def _dot_unquote(s: str) -> str:
    return s.replace('\\"', '"').replace("\\\\", "\\")


def _line(text: str, pos: int) -> str:
    """The line of ``text`` that holds offset ``pos``; lines end at a line feed alone."""
    lineno = text.count("\n", 0, pos) + 1
    return f"line {lineno}"


def _add_edge(g: WeightedGraph, path: str | Path, where: str, u: str, v: str,
              weight: str | float) -> None:
    """Add a read edge to ``g``; a weight that is not a number, an edge ``g``
    already holds in either direction, or an edge :meth:`WeightedGraph.add_edge`
    refuses, raises :class:`ParseError` at ``where``."""
    try:
        number = float(weight)
    except (ValueError, OverflowError):
        raise ParseError(path, where, f"weight {weight!r} is not a number") from None
    if edge_key(u, v) in g.edges:
        raise ParseError(path, where, f"repeated edge {u} -- {v}")
    try:
        g.add_edge(u, v, number)
    except ValueError as exc:
        raise ParseError(path, where, str(exc)) from None


def read_dot(path: str | Path) -> WeightedGraph:
    """The graph of a file in :func:`write_dot`'s form: its header line, node
    and edge statements, then a closing ``}`` line that ends the file. The
    first line that breaks this form, or holds an edge :class:`WeightedGraph`
    refuses, raises :class:`ParseError`. The text is decoded without newline
    translation, and a line ends at a line feed alone."""
    text = _decoded(path, Path(path).read_bytes())
    header = _DOT_HEADER.match(text)
    if header is None:
        raise ParseError(path, "line 1", 'expected the header graph "<name>" {')
    g, pos = WeightedGraph(), header.end()
    while statement := _DOT_STATEMENT.match(text, pos):
        u, v, weight = statement.groups()
        if weight:
            _add_edge(g, path, _line(text, pos), _dot_unquote(u), _dot_unquote(v), weight)
        else:
            g.nodes.add(_dot_unquote(u))
        pos = statement.end()
    if not text.startswith("}\n", pos):
        raise ParseError(path, _line(text, pos), "expected a node or edge statement or the closing }")
    if pos + 2 < len(text):
        raise ParseError(path, _line(text, pos + 2), "text after the closing }")
    return g


def write_csv(g: WeightedGraph, edges_path: str | Path, nodes_path: str | Path) -> None:
    isolates = _isolates(g)
    nodes = [[node, str(node in isolates).lower()] for node in sorted(g.nodes)]
    edges = [[u, v, repr(g.edges[(u, v)])] for (u, v) in sorted(g.edges)]
    _write(nodes_path, _csv_lines([["node", "isolated"], *nodes]))
    _write(edges_path, _csv_lines([["source", "target", "weight"], *edges]))


def graph_to_json(g: WeightedGraph, name: str = "graph") -> dict:
    isolates = _isolates(g)
    return {
        "name": name,
        "directed": False,
        "nodes": [{"id": v, "isolated": v in isolates} for v in sorted(g.nodes)],
        "edges": [
            {"source": u, "target": v, "weight": g.edges[(u, v)]} for (u, v) in sorted(g.edges)
        ],
    }


def write_json(g: WeightedGraph, path: str | Path, name: str = "graph") -> None:
    _write(path, _json_text(graph_to_json(g, name)))


# the keys each node and edge of a JSON graph file must have, with their types; JSON
# numbers only, since true and false parse as bool, which is an int subclass
_STRING, _NUMBER = (str,), (int, float)
_JSON_KEYS = {"nodes": {"id": _STRING},
              "edges": {"source": _STRING, "target": _STRING, "weight": _NUMBER}}


def read_json(path: str | Path) -> WeightedGraph:
    """The graph of a file in :func:`write_json`'s form: an object whose
    ``nodes`` list holds objects with a string ``id``, and whose ``edges``
    list holds objects with a string ``source`` and ``target`` and a number
    ``weight``; other keys are ignored. Text that is not JSON raises
    :class:`ParseError` at its line. A node or edge that is not an object,
    lacks a key or has one of another type, or an edge
    :class:`WeightedGraph` refuses, raises it at the item, as ``edges[3]``."""
    try:
        data = json.loads(_decoded(path, Path(path).read_bytes()))
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"line {exc.lineno}", f"invalid JSON ({exc.msg})") from None
    except (ValueError, RecursionError) as exc:  # too-long integers, deep nesting
        raise ParseError(path, "top level", f"invalid JSON ({exc})") from None
    if not isinstance(data, dict) or not all(isinstance(data.get(k), list) for k in _JSON_KEYS):
        raise ParseError(path, "top level", "expected an object with 'nodes' and 'edges' lists")
    for part, keys in _JSON_KEYS.items():
        for i, item in enumerate(data[part]):
            if not isinstance(item, dict):
                raise ParseError(path, f"{part}[{i}]", "is not a JSON object")
            for key, kinds in keys.items():
                if key not in item:
                    raise ParseError(path, f"{part}[{i}]", f"lacks {key!r}")
                if type(item[key]) not in kinds:
                    kind = "string" if kinds is _STRING else "number"
                    raise ParseError(path, f"{part}[{i}]", f"{key!r} is not a {kind}")
    g = WeightedGraph(nodes={node["id"] for node in data["nodes"]})
    for i, edge in enumerate(data["edges"]):
        _add_edge(g, path, f"edges[{i}]", edge["source"], edge["target"], edge["weight"])
    return g
