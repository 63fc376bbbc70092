"""Graph file writers: GraphML, DOT, CSV and JSON, with the escapers they use.

Writers emit nodes and edges in sorted order so repeated runs are
byte-identical; weights are written with full ``repr`` precision. Isolated
nodes are kept in every format and flagged ``isolated=true``. Files are
written as corpus files are. aicnet reads no export back: other tools open
them.
"""

from __future__ import annotations

from pathlib import Path

from .corpus import _csv_lines, _json_text, _write
from .graphs import WeightedGraph

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
